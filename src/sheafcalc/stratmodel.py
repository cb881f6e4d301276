"""Stratification (quiver) presentations of constructible sheaves on the line.

`StratModel` is the one-directional model available for sheaves whose bars
are of type [a,b) / [a,oo) / (-oo,b): stalk dimensions on the open strata
cut out by the critical values, plus one transition matrix per critical
value oriented right-to-left (the restriction maps that exist in that
class).  A point stalk equals the stalk on the stratum to its right, so
the model stores none.  `interval_model` builds the model of a sum of
interval modules, from a barcode or from the classes the sheaf route lists,
and `decompose` recovers the unique barcode by one elder-rule sweep across
the critical values (Zomorodian-Carlsson 2005): linear algebra independent
of the closed-form tables, behind every derived expected value.

`rhom_oracle` works on the full exit-path presentation (point stalks
mapping into the adjacent open-stratum stalks), valid for arbitrary
interval sheaves.  The category of representations is hereditary, so RHom
has just a Hom and an Ext^1 part; both come from explicit linear algebra
over F_p, which makes it an oracle for every RHom table in the calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

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


def interval_model(
    critical: Sequence[Scalar], degrees: Iterable[int], classes: Iterable[Tuple[int, int, int]], p: int = 2
) -> StratModel:
    """StratModel of a sum of interval modules, one per class (degree,
    lowest stratum, highest stratum) with a degree in `degrees`.  A class is
    one basis vector on each stratum of its span (none if lowest > highest),
    and a transition is the identity on the classes alive on both of its
    sides and zero elsewhere."""
    alive = {deg: [[] for _ in range(len(critical) + 1)] for deg in degrees}
    for n, (deg, lo, hi) in enumerate(classes):
        for s in range(lo, hi + 1):
            alive[deg][s].append(n)
    open_dims = {deg: tuple(map(len, a)) for deg, a in alive.items()}
    maps = {
        deg: tuple(tuple(tuple(int(x == y) for y in right) for x in left) for left, right in zip(a, a[1:]))
        for deg, a in alive.items()
    }
    return StratModel(tuple(critical), open_dims, maps, p)


def from_barcode(b: GradedBarcode, p: int = 2) -> StratModel:
    """Present a Tamarkin-class barcode on the stratification of its spec.

    Each unit of multiplicity is one class: [l_i, l_j) is alive on strata
    i..j-1 and [l_i, oo) on strata i..k, in the 1-based numbering of
    `StratModel`.
    """
    require_tamarkin(b, "from_barcode")
    cb = canonicalize(b)
    crit = tuple(spec(cb))
    index = {c: n for n, c in enumerate(crit)}  # PiRational(0, s) hashes as Fraction(s)
    classes = [
        (deg, index[iv.lo.value] + 1, index[iv.hi.value] if iv.hi.finite else len(crit))
        for iv, deg in expanded_bars(cb)
    ]
    return interval_model(crit, sorted({deg for deg, _, _ in classes}), classes, p)


def decompose(model: StratModel) -> GradedBarcode:
    """Unique barcode of a StratModel by one sweep from stratum k down to 0.

    The live classes, each tagged with the stratum it was born on, are kept
    eldest first as vectors of the current stratum.  Across each critical
    value, one elimination of [their images | identity] keeps its pivot
    columns: a class whose image lies in its elders' span ends on the
    stratum above (the elder rule), and the kept unit vectors are born on
    the new stratum.  The live classes stay a basis in which those born on
    stratum j or above span the image of V_j, so the bars count every
    composite rank.  Stratum 0 opens a bar at -oo, stratum k closes it at
    +oo, otherwise the bar on strata i..j is [l_i, l_{j+1}).
    """
    crit, k, p = model.critical, len(model.critical), model.p
    spans = []  # (degree, lowest stratum, highest stratum)
    for deg in model.degrees():
        dims = model.open_dims[deg]
        live = [(k, e) for e in modp.identity(dims[k])]  # (birth stratum, vector)
        for i in range(k - 1, -1, -1):
            rows = [[(c, a) for c, a in enumerate(row) if a] for row in model.maps[deg][i]]
            images = [[sum(a * v[c] for c, a in row) % p for row in rows] for _, v in live]
            unit = modp.identity(dims[i])
            _, pivots = modp.row_echelon([[w[r] for w in images] + unit[r] for r in range(dims[i])], p)
            kept = set(pivots)
            spans += [(deg, i + 1, born) for c, (born, _) in enumerate(live) if c not in kept]
            n = len(live)
            live = [(live[c][0], images[c]) if c < n else (i, unit[c - n]) for c in pivots]
        spans += [(deg, 0, born) for born, _ in live]
    lows = [Endpoint(NEG_INF, False)] + [Endpoint(c, True) for c in crit]
    highs = [Endpoint(c, False) for c in crit] + [Endpoint(POS_INF, False)]
    return canonicalize(GradedBarcode(tuple(GradedBar(Interval(lows[lo], highs[hi]), deg) for deg, lo, hi in spans)))


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
