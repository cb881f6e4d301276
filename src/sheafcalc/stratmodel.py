"""Stratification (quiver) presentations of constructible sheaves on the line.

Two presentations live here.

`StratModel` is the one-directional model available for sheaves whose bars
are of type [a,b) / [a,oo) / (-oo,b): stalk dimensions on the open strata
cut out by the critical values, plus one transition matrix per critical
value oriented right-to-left (the restriction maps that exist in that
class).  `decompose` recovers the unique barcode by the standard
rank-inclusion-exclusion of composite transition maps, which makes the
model the brute-force oracle behind every derived expected value.

`ZigzagRep` is the full exit-path presentation (point stalks mapping into
the adjacent open-stratum stalks) valid for arbitrary interval sheaves.
The category of representations is hereditary, so RHom has just a Hom and
an Ext^1 part; `rhom_oracle` computes both by explicit linear algebra over
F_p and is therefore an oracle for every RHom table in the calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import modp
from .errors import ValidationError
from .exactnum import NEG_INF, POS_INF, Scalar
from .intervals import (
    Endpoint,
    GradedBar,
    GradedBarcode,
    HomSpace,
    Interval,
    canonicalize,
    finite_ends,
    require_tamarkin,
    spec,
)

Matrix = Tuple[Tuple[int, ...], ...]


def _freeze(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in m)


@dataclass(frozen=True)
class StratModel:
    """Right-to-left quiver model of a sheaf with upward singular support.

    critical: strictly increasing finite scalars l_1 < ... < l_k.
    open_dims[deg][s]: stalk dim on open stratum s, where stratum 0 is
        (-oo, l_1), stratum i is (l_i, l_{i+1}), stratum k is (l_k, +oo).
    point_dims[deg][i]: stalk dim at l_{i+1} (equals the right-stratum dim
        for this class of sheaves; kept as data and validated).
    maps[deg][i]: matrix of the transition V_{i+1} -> V_i across l_{i+1},
        shape (open_dims[s=i], open_dims[s=i+1]).
    """

    critical: Tuple[Scalar, ...]
    open_dims: dict
    point_dims: dict
    maps: dict
    p: int = 2

    def __post_init__(self):
        modp.check_prime(self.p)
        k = len(self.critical)
        for a, b in zip(self.critical, self.critical[1:]):
            if a >= b:
                raise ValidationError("critical values must be strictly increasing")
        for deg, dims in self.open_dims.items():
            if len(dims) != k + 1:
                raise ValidationError("open_dims must cover k+1 open strata")
            pd = self.point_dims.get(deg, tuple([0] * k))
            if len(pd) != k:
                raise ValidationError("point_dims must cover k critical points")
            ms = self.maps.get(deg, tuple(() for _ in range(k)))
            if len(ms) != k:
                raise ValidationError("need one transition matrix per critical value")
            for i, m in enumerate(ms):
                rows, cols = dims[i], dims[i + 1]
                if len(m) != rows or any(len(r) != cols for r in m):
                    raise ValidationError(
                        f"map across critical #{i} has wrong shape for degree {deg}"
                    )

    def degrees(self) -> list[int]:
        return sorted(set(self.open_dims) | set(self.point_dims))


def sample_points(critical: Sequence[Scalar]) -> list[Scalar]:
    """One interior sample per open stratum; sentinels replaced by l_1 -+ 1."""
    if not critical:
        return [Fraction(0)]
    pts: list[Scalar] = [critical[0] - 1]
    for a, b in zip(critical, critical[1:]):
        pts.append((a + b) / 2)
    pts.append(critical[-1] + 1)
    return pts


def from_barcode(b: GradedBarcode, p: int = 2) -> StratModel:
    """Present a Tamarkin-class barcode on the stratification of its spec.

    Transition matrices are block-diagonal: the identity on bars alive at
    both sample points, zero elsewhere.
    """
    require_tamarkin(b, "from_barcode")
    cb = canonicalize(b)
    crit = tuple(spec(cb))
    pts = sample_points(crit)
    degrees = sorted({x.degree for x in cb.bars})
    open_dims: dict = {}
    point_dims: dict = {}
    maps: dict = {}
    for deg in degrees:
        bars = [x for x in cb.bars if x.degree == deg]
        alive = []
        for t in pts:
            cur = []
            for x in bars:
                cur.extend([x.interval.contains(t)] * x.mult)
            alive.append(cur)
        open_dims[deg] = tuple(sum(a) for a in alive)
        point_dims[deg] = tuple(
            sum(x.mult for x in bars if x.interval.contains(c)) for c in crit
        )
        degmaps = []
        for i in range(len(crit)):
            left, right = alive[i], alive[i + 1]
            m = modp.zeros(sum(left), sum(right))
            li = {}
            r = 0
            for j, a in enumerate(left):
                if a:
                    li[j] = r
                    r += 1
            c = 0
            for j, a in enumerate(right):
                if a:
                    if j in li:
                        m[li[j]][c] = 1
                    c += 1
            degmaps.append(_freeze(m))
        maps[deg] = tuple(degmaps)
    return StratModel(crit, open_dims, point_dims, maps, p)


def decompose(model: StratModel) -> GradedBarcode:
    """Unique barcode of a StratModel via composite-rank inclusion-exclusion.

    With r(i,j) the rank of the composite V_j -> V_i (and 0 out of range),
    the multiplicity of the bar alive exactly on strata i..j is
    r(i,j) - r(i-1,j) - r(i,j+1) + r(i-1,j+1).  Stratum 0 opens the bar at
    -oo, stratum k closes it at +oo, otherwise bars are [l_i, l_{j+1}).
    """
    crit = model.critical
    k = len(crit)
    p = model.p
    bars: list[GradedBar] = []
    for deg in model.degrees():
        dims = model.open_dims.get(deg)
        if dims is None or not any(dims):
            continue
        ms = [[list(row) for row in m] for m in model.maps[deg]]
        comp: dict[tuple[int, int], list[list[int]]] = {}
        for j in range(k + 1):
            comp[(j, j)] = modp.identity(dims[j])
            for i in range(j - 1, -1, -1):
                comp[(i, j)] = modp.mat_mul(ms[i], comp[(i + 1, j)], p)
        r = {ij: modp.rank(m, p) for ij, m in comp.items()}  # absent (out of range): 0
        for i in range(k + 1):
            for j in range(i, k + 1):
                mult = r[i, j] - r.get((i - 1, j), 0) - r.get((i, j + 1), 0) + r.get((i - 1, j + 1), 0)
                if mult < 0:
                    raise ValidationError("model is not interval-decomposable")
                if mult == 0:
                    continue
                lo = Endpoint(NEG_INF, False) if i == 0 else Endpoint(crit[i - 1], True)
                hi = Endpoint(POS_INF, False) if j == k else Endpoint(crit[j], False)
                bars.append(GradedBar(Interval(lo, hi), deg, mult))
    return canonicalize(GradedBarcode(tuple(bars)))


# ---------------------------------------------------------------------------
# full zigzag presentation and the RHom oracle


@dataclass
class ZigzagRep:
    """Exit-path representation on a fixed finite set of critical values.

    Vertices are the k+1 open strata and the k critical points; the two
    arrows out of each point go to its neighbor strata.  Interval sheaves
    have all dims in {0,1} and structure maps equal to 1 exactly when both
    ends lie in the interval.
    """

    critical: Tuple[Scalar, ...]
    open_dim: Tuple[int, ...]
    point_dim: Tuple[int, ...]
    left_map: Tuple[int, ...]   # point i -> stratum i
    right_map: Tuple[int, ...]  # point i -> stratum i+1


def zigzag_of_interval(i: Interval, critical: Sequence[Scalar]) -> ZigzagRep:
    crit = tuple(critical)
    pts = sample_points(crit)
    open_dim = tuple(1 if i.contains(t) else 0 for t in pts)
    point_dim = tuple(1 if i.contains(c) else 0 for c in crit)
    left_map = tuple(
        1 if point_dim[j] and open_dim[j] else 0 for j in range(len(crit))
    )
    right_map = tuple(
        1 if point_dim[j] and open_dim[j + 1] else 0 for j in range(len(crit))
    )
    return ZigzagRep(crit, open_dim, point_dim, left_map, right_map)


def rhom_oracle(src: Interval, tgt: Interval, p: int = 2) -> HomSpace:
    """Graded dims of RHom(k_src, k_tgt) by quiver linear algebra.

    Hom is the solution space of the commutation constraints; the category
    is hereditary, so dim Ext^1 = dim Hom - <src, tgt> with the Euler form
    of the zigzag quiver.  Independent of every closed-form table.
    """
    modp.check_prime(p)
    crit = finite_ends((src, tgt))
    v = zigzag_of_interval(src, crit)
    w = zigzag_of_interval(tgt, crit)
    k = len(crit)
    # unknowns: one scalar per vertex where both dims are 1
    strata_vars = [j for j in range(k + 1) if v.open_dim[j] and w.open_dim[j]]
    point_vars = [j for j in range(k) if v.point_dim[j] and w.point_dim[j]]
    nvars = len(strata_vars) + len(point_vars)
    sidx = {j: n for n, j in enumerate(strata_vars)}
    pidx = {j: len(strata_vars) + n for n, j in enumerate(point_vars)}
    rows: list[list[int]] = []
    for j in range(k):
        for stratum, vmap, wmap in (
            (j, v.left_map[j], w.left_map[j]),
            (j + 1, v.right_map[j], w.right_map[j]),
        ):
            # phi_stratum . vmap = wmap . phi_point
            row = [0] * nvars
            if vmap and stratum in sidx:
                row[sidx[stratum]] = vmap % p
            if wmap and j in pidx:
                row[pidx[j]] = (row[pidx[j]] - wmap) % p
            if any(row):
                rows.append(row)
    hom = len(modp.nullspace(rows, nvars, p))
    euler = sum(a * b for a, b in zip(v.open_dim, w.open_dim))
    euler += sum(a * b for a, b in zip(v.point_dim, w.point_dim))
    for j in range(k):
        euler -= v.point_dim[j] * w.open_dim[j]
        euler -= v.point_dim[j] * w.open_dim[j + 1]
    ext1 = hom - euler
    if ext1 < 0:
        raise ValidationError("Euler-form bookkeeping failed")  # pragma: no cover
    return HomSpace({0: hom, 1: ext1})


_GERM_AMBIENT = {
    "empty": None,
    "full": Interval(Endpoint(NEG_INF, False), Endpoint(POS_INF, False)),
    "closed-right": Interval(Endpoint(Fraction(0), True), Endpoint(POS_INF, False)),
    "open-right": Interval(Endpoint(Fraction(0), False), Endpoint(POS_INF, False)),
    "closed-left": Interval(Endpoint(NEG_INF, False), Endpoint(Fraction(0), True)),
    "open-left": Interval(Endpoint(NEG_INF, False), Endpoint(Fraction(0), False)),
}


def germ_at(i: Interval, t: Scalar) -> Optional[Interval]:
    """Model of the germ of I at t inside a standard copy of the line."""
    lo, hi = i.lo.value, i.hi.value
    if lo > t or t > hi:
        return _GERM_AMBIENT["empty"]
    at_lo, at_hi = lo == t, t == hi
    if at_lo and at_hi:
        # singleton germ
        return Interval(Endpoint(Fraction(0), True), Endpoint(Fraction(0), True))
    if at_lo:
        return _GERM_AMBIENT["closed-right" if i.lo.closed else "open-right"]
    if at_hi:
        return _GERM_AMBIENT["closed-left" if i.hi.closed else "open-left"]
    return _GERM_AMBIENT["full"]


def rhom_sheaf_stalk_oracle(src: Interval, tgt: Interval, t: Scalar, p: int = 2) -> HomSpace:
    """Stalk of the sheaf RHom at t: RHom of the two germs at t."""
    gs = germ_at(src, t)
    gt = germ_at(tgt, t)
    if gs is None or gt is None:
        return HomSpace()
    return rhom_oracle(gs, gt, p)
