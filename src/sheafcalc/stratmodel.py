"""Stratification (quiver) presentations of constructible sheaves on the line.

`StratModel` is the one-directional model available for sheaves whose bars
are of type [a,b) / [a,oo) / (-oo,b): stalk dimensions on the open strata
cut out by the critical values, plus one sparse transition per critical
value oriented right-to-left (the restriction maps that exist in that
class).  A point stalk equals the stalk on the stratum to its right, so the
model stores none.  `interval_model` builds the model of a sum of interval
modules, from a barcode or from the classes the sheaf route lists, and
`decompose` recovers the unique barcode by one elder-rule sweep across the
critical values (Zomorodian-Carlsson 2005) with `reduce_column`, the kernel
of the sheaf route's coboundary reduction too: linear algebra independent
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
    maps[deg][i]: the transition V_{i+1} -> V_i across l_{i+1}, one column
        per basis vector of V_{i+1}, each a tuple of the (row, value) pairs
        of its nonzero entries, rows in range(open_dims[deg][i]).
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
                try:
                    bad = len(m) != dims[i + 1] or any(not 0 <= r < dims[i] for col in m for r, _ in col)
                except (TypeError, ValueError):
                    bad = True
                if bad:
                    raise ValidationError(f"map across critical #{i} has wrong shape for degree {deg}")

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
    sides and zero elsewhere: a class's column is ((its row on the left, 1),),
    one shared tuple per row, or () if it is not alive there."""
    alive = {deg: [[] for _ in range(len(critical) + 1)] for deg in degrees}
    for n, (deg, lo, hi) in enumerate(classes):
        for s in range(lo, hi + 1):
            alive[deg][s].append(n)
    open_dims = {deg: tuple(map(len, a)) for deg, a in alive.items()}
    unit = [((r, 1),) for r in range(max(map(max, open_dims.values()), default=0))]
    maps = {}
    for deg, a in alive.items():
        rows = ({x: r for r, x in enumerate(left)} for left in a)  # class -> its row, one stratum at a time
        maps[deg] = tuple(tuple(unit[row[y]] if y in row else () for y in right) for row, right in zip(rows, a[1:]))
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


def reduce_column(col: dict, pivot: dict, p: int) -> Optional[int]:
    """Reduce col, a {row: value} vector over F_p, in place against pivot,
    which maps each low (largest) row to the one reduced column ending there.
    A nonzero result is filed under its low, which is returned, else None."""
    while col:
        low = max(col)
        other = pivot.get(low)
        if other is None:
            pivot[low] = col
            return low
        factor = (col[low] * pow(other[low], -1, p)) % p
        for row, val in other.items():
            nv = (col.get(row, 0) - factor * val) % p
            if nv:
                col[row] = nv
            else:
                del col[row]
    return None


def decompose(model: StratModel) -> GradedBarcode:
    """Unique barcode of a StratModel by one sweep from stratum k down to 0.

    The live classes, each tagged with the stratum it was born on, are kept
    eldest first as sparse vectors of the current stratum.  Across each
    critical value, each image is reduced against its elders' images: a
    class whose image reduces to zero ends on the stratum above (the elder
    rule), and the unit vectors of the rows that are no image's low are born
    on the new stratum.  The live classes stay a basis in which those born
    on stratum j or above span the image of V_j, so the bars count every
    composite rank.  Stratum 0 opens a bar at -oo, stratum k closes it at
    +oo, otherwise the bar on strata i..j is [l_i, l_{j+1}).
    """
    crit, k, p = model.critical, len(model.critical), model.p
    spans = []  # (degree, lowest stratum, highest stratum)
    for deg in model.degrees():
        dims = model.open_dims[deg]
        live = [(k, {r: 1}) for r in range(dims[k])]  # (birth stratum, vector)
        for i in range(k - 1, -1, -1):
            columns, pivot, kept = model.maps[deg][i], {}, []
            for born, v in live:
                image: dict[int, int] = {}
                for c, a in v.items():
                    for row, b in columns[c]:
                        image[row] = (image.get(row, 0) + a * b) % p
                image = {row: x for row, x in image.items() if x}
                if reduce_column(image, pivot, p) is None:
                    spans.append((deg, i + 1, born))
                else:
                    kept.append((born, image))
            live = kept + [(i, {r: 1}) for r in range(dims[i]) if r not in pivot]
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
