"""Stratification (quiver) presentations of constructible sheaves on the line.

`StratModel` is the one-directional model available for sheaves whose bars
are of type [a,b) / [a,oo) / (-oo,b): stalk dimensions on the open strata
cut out by the critical values, plus one transition matrix per critical
value oriented right-to-left (the restriction maps that exist in that
class).  A point stalk equals the stalk on the stratum to its right, so
the model stores none.  `decompose` recovers the unique barcode by the
standard rank-inclusion-exclusion of composite transition maps, which makes
the model the brute-force oracle behind every derived expected value.

`rhom_oracle` works on the full exit-path presentation (point stalks
mapping into the adjacent open-stratum stalks), valid for arbitrary
interval sheaves.  The category of representations is hereditary, so RHom
has just a Hom and an Ext^1 part; both come from explicit linear algebra
over F_p, which makes it an oracle for every RHom table in the calculus.
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
    expanded_bars,
    finite_ends,
    require_tamarkin,
    spec,
)


@dataclass(frozen=True)
class StratModel:
    """Right-to-left quiver model of a sheaf with upward singular support.

    critical: strictly increasing finite scalars l_1 < ... < l_k.
    open_dims[deg][s]: stalk dim on open stratum s, where stratum 0 is
        (-oo, l_1), stratum i is (l_i, l_{i+1}), stratum k is (l_k, +oo).
        The stalk at l_{i+1} is that of stratum i+1.
    maps[deg][i]: matrix of the transition V_{i+1} -> V_i across l_{i+1},
        shape (open_dims[s=i], open_dims[s=i+1]).
    """

    critical: Tuple[Scalar, ...]
    open_dims: dict
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
            if deg not in self.maps:
                raise ValidationError(f"no transition matrices for degree {deg}")
            ms = self.maps[deg]
            if len(ms) != k:
                raise ValidationError("need one transition matrix per critical value")
            for i, m in enumerate(ms):
                rows, cols = dims[i], dims[i + 1]
                if len(m) != rows or any(len(r) != cols for r in m):
                    raise ValidationError(
                        f"map across critical #{i} has wrong shape for degree {deg}"
                    )

    def degrees(self) -> list[int]:
        return sorted(self.open_dims)


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

    Each unit of multiplicity is one basis vector, alive on the strata its
    interval meets; a transition is the identity on the vectors alive at
    both sample points and zero elsewhere.
    """
    require_tamarkin(b, "from_barcode")
    cb = canonicalize(b)
    crit = tuple(spec(cb))
    pts = sample_points(crit)
    units = expanded_bars(cb)
    open_dims: dict = {}
    maps: dict = {}
    for deg in sorted({d for _, d in units}):
        ivs = [iv for iv, d in units if d == deg]
        alive = [[n for n, iv in enumerate(ivs) if iv.contains(t)] for t in pts]
        open_dims[deg] = tuple(map(len, alive))
        maps[deg] = tuple(
            tuple(tuple(int(a == c) for c in right) for a in left)
            for left, right in zip(alive, alive[1:])
        )
    return StratModel(crit, open_dims, maps, p)


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
        dims = model.open_dims[deg]
        if not any(dims):
            continue
        ms = model.maps[deg]
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


def rhom_oracle(src: Interval, tgt: Interval, p: int = 2) -> HomSpace:
    """Graded dims of RHom(k_src, k_tgt) by quiver linear algebra.

    Vertices are the k+1 open strata and the k critical points of both
    intervals' ends; the two arrows out of each point go to its neighbor
    strata.  An interval sheaf has every stalk dim in {0,1} and each
    structure map 1 exactly when both of its ends have dim 1, so the
    dimensions alone give the representation.  Hom is the solution space of
    the commutation constraints; the category is hereditary, so
    dim Ext^1 = dim Hom - <src, tgt> with the Euler form of the quiver.
    Independent of every closed-form table.
    """
    modp.check_prime(p)
    crit = finite_ends((src, tgt))
    pts = sample_points(crit)
    k = len(crit)
    vo, wo = ([int(i.contains(t)) for t in pts] for i in (src, tgt))
    vp, wp = ([int(i.contains(c)) for c in crit] for i in (src, tgt))
    # unknowns: one scalar per vertex where both dims are 1
    strata_vars = [j for j in range(k + 1) if vo[j] and wo[j]]
    point_vars = [j for j in range(k) if vp[j] and wp[j]]
    nvars = len(strata_vars) + len(point_vars)
    sidx = {j: n for n, j in enumerate(strata_vars)}
    pidx = {j: len(strata_vars) + n for n, j in enumerate(point_vars)}
    rows: list[list[int]] = []
    for j in range(k):
        for stratum in (j, j + 1):
            # phi_stratum . v(j -> stratum) = w(j -> stratum) . phi_j
            row = [0] * nvars
            if vp[j] and stratum in sidx:
                row[sidx[stratum]] = 1
            if wo[stratum] and j in pidx:
                row[pidx[j]] = -1 % p
            if any(row):
                rows.append(row)
    hom = len(modp.nullspace(rows, nvars, p))
    euler = sum(a * b for a, b in zip(vo, wo)) + sum(a * b for a, b in zip(vp, wp))
    for j in range(k):
        euler -= vp[j] * (wo[j] + wo[j + 1])
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
