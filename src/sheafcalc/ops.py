"""Convolution, internal hom, RHom tables, torsion and capacities.

Everything acts on graded barcodes over a point.  Each closed-form table is
paired with the fiberwise stalk oracle at the bottom of this file: a stalk
of a convolution is the (ordinary or compactly supported) cohomology of the
line with coefficients in the cut of the product by an antidiagonal, and
the two cohomology tables are fixed from the short-exact-sequence
computations for constant sheaves on intervals.

The bilinear ops (convolve, convolve_np, hom_star, rhom_sheaf) share one
kernel, `_bilinear`, which scales every finite end of both factors to an
integer over one common denominator whenever all of them are Fractions and
that denominator has at most `intervals.MAX_SCALE_BITS` bits.

Degree convention: "degree d" is the cohomological degree carrying the
stalk, so a shift [n] sends degree d bars to degree d - n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import ConvolutionTypeError, TamarkinClassError, ValidationError
from .exactnum import NEG_INF, POS_INF, Extended, Infinity, Scalar, _excerpt, is_finite
from .intervals import (
    LEFT_INFINITE,
    SINGLETON,
    TAMARKIN,
    Endpoint,
    GradedBar,
    GradedBarcode,
    HomSpace,
    Interval,
    canonicalize,  # re-exported: the benchmark's traced run wraps ops.canonicalize
    finite_ends,
    flavor,
    map_bars,
    merge_runs,
    require_tamarkin,
    scaled_ends,
    shift_deg,
    shift_t,
)


# An interval as (lo, lo_closed, hi, hi_closed): the pair rules take and
# return this form, on the integer ends of `scaled_ends` or on exact values.
Ends = Tuple[Extended, bool, Extended, bool]


def _lcro(lo: Extended, hi: Extended) -> Optional[Ends]:
    """[lo, hi) with extended endpoints; None when empty."""
    if lo >= hi:
        return None
    return (lo, is_finite(lo), hi, False)


def _interval(e: Ends) -> Interval:
    return Interval(Endpoint(e[0], e[1]), Endpoint(e[2], e[3]))


# ---------------------------------------------------------------------------
# bilinear kernel and convolution


def _require_factors(f: GradedBarcode, g: GradedBarcode, opname: str, allowed, error) -> list[list[str]]:
    """The `flavor` of each bar of f and of g; `error` on a kind not allowed."""
    kinds = [[flavor(x.interval) for x in h.bars] for h in (f, g)]
    for x, k in zip(f.bars + g.bars, kinds[0] + kinds[1]):
        if k not in allowed:
            raise error(f"{opname}: unsupported bar {_excerpt(x.interval, str)}")
    return kinds


def _bilinear(f: GradedBarcode, g: GradedBarcode, pair, contravariant: bool = False) -> GradedBarcode:
    """Extend a per-pair rule bilinearly over the bars of f and g.

    pair(i, j) lists the (ends, degree offset) summands of one bar pair.  A
    summand sits in degree deg y + deg x + offset (deg y - deg x + offset
    when the operation is contravariant in f) with multiplicity
    mult x * mult y.  The rule runs on the `scaled_ends` of both factors,
    so on integers whenever they can be scaled.  The summands
    are sorted and merged by `merge_runs` on the `canonicalize` key, so
    the result is canonical, and each distinct output value is built once.
    """
    ends, scale = scaled_ends(x.interval for x in f.bars + g.bars)
    g_ends = ends[len(f.bars) :]
    keys, mults = [], []
    for x, i in zip(f.bars, ends):
        dx = -x.degree if contravariant else x.degree
        for y, j in zip(g.bars, g_ends):
            deg, mult = y.degree + dx, x.mult * y.mult
            for (lo, lc, hi, hc), off in pair(i, j):
                keys.append((deg + off, lo, not lc, hi, hc))
                mults.append(mult)
    values: dict = {}

    def value(v):
        if scale is None or isinstance(v, Infinity):
            return v
        if v not in values:
            values[v] = Fraction(v, scale)
        return values[v]

    out = []
    for k, mult in merge_runs(keys, mults):
        deg, lo, lo_open, hi, hc = keys[k]
        out.append(GradedBar(_interval((value(lo), not lo_open, value(hi), hc)), deg, mult))
    return GradedBarcode(tuple(out))


def _convolve_pair(i: Ends, j: Ends) -> list[Tuple[Ends, int]]:
    """k_[a,b) * k_[c,d) as (ends, degree offset) summands.

    A singleton {s} acts as the shift by s.  The finite rule is the
    two-branch case split on b+c < a+d.  The same code serves infinite
    right ends: both candidate bars are formed with extended sums and empty
    ones dropped, and when b and d are both +oo, +oo < +oo is False and
    selects the second branch.
    """
    a, _, b, _ = i
    c, _, d, _ = j
    if a == b:
        return [((c + a, j[1], d + a, j[3]), 0)]
    if c == d:
        return [((a + c, i[1], b + c, i[3]), 0)]
    if b + c < a + d:
        cand = [(_lcro(a + c, b + c), 0), (_lcro(a + d, b + d), 1)]
    else:
        cand = [(_lcro(a + c, a + d), 0), (_lcro(b + c, b + d), 1)]
    return [(e, off) for e, off in cand if e is not None]


def convolve(f: GradedBarcode, g: GradedBarcode) -> GradedBarcode:
    """Proper convolution; bilinear over bars, singleton bars act as shifts."""
    _require_factors(f, g, "convolve", (TAMARKIN, SINGLETON), TamarkinClassError)
    return _bilinear(f, g, _convolve_pair)


def _convolve_np_pair(i: Ends, j: Ends) -> list[Tuple[Ends, int]]:
    """Summands of a pair that `convolve_np` admits: no two (-oo,y) bars.
    Of those kinds only a singleton has a closed right end and only (-oo,y)
    an open left end, so the flags decide."""
    if i[3] or j[3] or (i[1] and j[1]):
        # a shift, or a sum map that is proper on the support
        return _convolve_pair(i, j)
    if not j[1]:
        i, j = j, i
    y = i[2]
    c, _, d, _ = j
    if isinstance(d, Infinity):
        # (-oo,y) *np [c,oo) = (-oo, y+c)
        e = _lcro(NEG_INF, y + c)
        return [(e, 0)] if e is not None else []
    # (-oo,y) *np [c,d) = k_[y+c, y+d)[-1]
    e = _lcro(y + c, y + d)
    return [(e, 1)] if e is not None else []


def convolve_np(f: GradedBarcode, g: GradedBarcode) -> GradedBarcode:
    """Non-proper convolution on the certified interval-type combinations.

    Agrees with `convolve` whenever both factors have compact support; the
    non-compact entries were fixed against the ordinary-cohomology stalk
    oracle.  Unsupported type combinations, among them a (-oo,y) bar on
    both sides, raise ConvolutionTypeError before any pair is formed.
    """
    cf, cg = _require_factors(f, g, "convolve_np", (TAMARKIN, SINGLETON, LEFT_INFINITE), ConvolutionTypeError)
    if LEFT_INFINITE in cf and LEFT_INFINITE in cg:
        x, y = f.bars[cf.index(LEFT_INFINITE)], g.bars[cg.index(LEFT_INFINITE)]
        raise ConvolutionTypeError(
            f"non-proper convolution table has no entry for {_excerpt(x.interval, str)} * {_excerpt(y.interval, str)}"
        )
    return _bilinear(f, g, _convolve_np_pair)


# ---------------------------------------------------------------------------
# adjoint sheaf and internal hom


def adjoint(f: GradedBarcode) -> GradedBarcode:
    """Adjoint sheaf: reflect through 0 keeping [-,-) type, degree d -> -d-1.

    Per bar: adjoint(k_[a,b) at degree d) = k_[-b,-a) at degree -d-1 (the
    reflection composed with the global shift [1]); adjoint(k_[a,oo)) is
    k_(-oo,-a) one degree up.  An involution on barcodes of bounded bars
    only: a (-oo,-a) bar is outside the [a,b)/[a,oo) class that adjoint
    takes, so adjoint(adjoint(f)) raises TamarkinClassError once f has an
    [a,oo) bar.
    """
    require_tamarkin(f, "adjoint")
    return map_bars(f, lambda x: (x.interval.reflect_swap(), -x.degree - 1))


def hom_star(f: GradedBarcode, g: GradedBarcode) -> GradedBarcode:
    """Internal hom over a point: adjoint(f) convolved non-properly with g."""
    require_tamarkin(f, "hom_star")
    require_tamarkin(g, "hom_star")
    return convolve_np(adjoint(f), g)


def hom_star_pair_formula(i: Interval, j: Interval) -> list[Tuple[Interval, int]]:
    """Closed finite-pair formula, kept as an independent regression check:

    Hom*(k_[a,b), k_[c,d)) = k_[c-b, min(d-b, c-a))[1]  +  k_[max(d-b, c-a), d-a)
    with empty summands dropped (a tie produces a drop, never a singleton).
    """
    if not (i.is_tamarkin() and i.hi.finite and j.is_tamarkin() and j.hi.finite):
        raise ValidationError("finite-pair formula needs two bounded [a,b) bars")
    a, b = i.lo.value, i.hi.value
    c, d = j.lo.value, j.hi.value
    mid_lo, mid_hi = (d - b, c - a) if d - b <= c - a else (c - a, d - b)
    out = []
    first = _lcro(c - b, mid_lo)
    if first is not None:
        out.append((_interval(first), -1))
    second = _lcro(mid_hi, d - a)
    if second is not None:
        out.append((_interval(second), 0))
    return out


# ---------------------------------------------------------------------------
# RHom


def rhom_total(f: GradedBarcode, g: GradedBarcode) -> HomSpace:
    """Graded dims of RHom, summed over bar pairs.

    Pair ([a,b) deg i, [c,d) deg j) contributes one dimension in degree
    j - i when a <= c < b <= d and in degree j - i + 1 when c < a <= d < b,
    with extended-endpoint comparisons covering the half- and left-infinite
    clauses.  Endpoints are compared through their ranks among the distinct
    finite ends of both factors (-oo ranks -1, +oo ranks past the last).
    """
    require_tamarkin(f, "rhom_total (source)")
    for y in g.bars:
        if flavor(y.interval) not in (TAMARKIN, LEFT_INFINITE):
            raise ValidationError(f"rhom_total: unsupported target bar {_excerpt(y.interval, str)}")
    ends = finite_ends(x.interval for x in f.bars + g.bars)
    rank = {v: k for k, v in enumerate(ends)}
    rank[NEG_INF], rank[POS_INF] = -1, len(ends)
    targets = [
        (rank[y.interval.lo.value], rank[y.interval.hi.value], y.degree, y.mult) for y in g.bars
    ]
    acc: dict[int, int] = {}
    for x in f.bars:
        a, b = rank[x.interval.lo.value], rank[x.interval.hi.value]
        for c, d, deg_y, mult_y in targets:
            if a <= c < b <= d:
                deg = deg_y - x.degree
            elif c < a <= d < b:
                deg = deg_y - x.degree + 1
            else:
                continue
            acc[deg] = acc.get(deg, 0) + x.mult * mult_y
    return HomSpace(acc)


def _rhom_sheaf_pair(i: Ends, j: Ends) -> list[Tuple[Ends, int]]:
    """Sheaf-valued RHom of a bar pair as (ends, degree offset) summands.

    Case table for source [a,b) against [c,oo) and its truncations; the
    [a,oo) source column replaces the (a,b] outputs by (a,oo).  Outputs
    realize all four interval flavors and the singleton.
    """
    a, _, b, _ = i
    c, _, d, _ = j

    def of(lo, lo_cl, hi, hi_cl):
        return (lo, lo_cl and is_finite(lo), hi, hi_cl and is_finite(hi))

    if d >= b:
        if c >= b:
            return []
        if c >= a:
            # k_[c,b] (or k_[c,oo) for an infinite source)
            return [(of(c, True, b, True), 0)]
        # k_(a,b] / k_(a,oo)
        return [(of(a, False, b, True), 0)]
    # here d < b, so d is finite
    if c >= a:
        return [(of(c, True, d, False), 0)]
    if d > a:
        return [(of(a, False, d, False), 0)]
    if d == a:
        return [((a, True, a, True), 1)]
    return []


def rhom_sheaf(f: GradedBarcode, g: GradedBarcode) -> GradedBarcode:
    """Sheaf-valued RHom, bilinear over bars; mixed-flavor output expected."""
    require_tamarkin(f, "rhom_sheaf (source)")
    require_tamarkin(g, "rhom_sheaf (target)")
    return _bilinear(f, g, _rhom_sheaf_pair, contravariant=True)


# ---------------------------------------------------------------------------
# torsion and capacities


def torsion(f: GradedBarcode) -> Extended:
    """Supremum of bar lengths; infinite for any bar unbounded on either side.

    Bars of type (-oo,b) never die under the canonical shift morphisms, so
    they count as infinite torsion exactly like [a,oo) bars.
    """
    return max((x.interval.length for x in f.bars), default=Fraction(0))


def tau_rank(f: GradedBarcode, c: Scalar) -> HomSpace:
    """Per-degree rank of the canonical morphism into the c-shift."""
    require_tamarkin(f, "tau_rank")
    if c < 0:
        raise ValidationError("tau_rank needs c >= 0")
    return HomSpace((x.degree, x.mult) for x in f.bars if x.interval.length > c)


def capacity(f: GradedBarcode) -> Extended:
    """Torsion of the self internal hom (over a point the pushforward is id)."""
    require_tamarkin(f, "capacity")
    return torsion(hom_star(f, f))


def capacity_prime(f: GradedBarcode) -> Extended:
    """Vanishing threshold of RHom(f, f) -> RHom(f, T_c f).

    Closed form on the bars [alpha, beta) of H = Hom*(f, f): a bar
    straddling 0 (alpha < 0 <= beta) keeps the map alive up to
    min(-alpha, beta - alpha), infinite when alpha is -oo; other bars never
    contribute (no bar of H is unbounded above).  Validated on the capacity
    anchors; always <= capacity(f).
    """
    require_tamarkin(f, "capacity_prime")
    best: Extended = Fraction(0)
    for x in hom_star(f, f).bars:
        alpha, beta = x.interval.lo.value, x.interval.hi.value
        if alpha < 0 <= beta:
            best = max(best, min(-alpha, beta - alpha))
    return best


# ---------------------------------------------------------------------------
# fiberwise stalk oracle


@dataclass(frozen=True)
class FiberCut:
    """Cut of a product of intervals by a fiber of the sum map."""

    interval: Optional[Interval]
    mode: str  # "ordinary" | "compact-support"

    def shape(self) -> str:
        i = self.interval
        if i is None:
            return "empty"
        lo_f, hi_f = i.lo.finite, i.hi.finite
        if lo_f and hi_f:
            if i.lo.closed and i.hi.closed:
                return "compact-closed"
            if not i.lo.closed and not i.hi.closed:
                return "bounded-open"
            return "half-open"
        if not lo_f and not hi_f:
            return "full-line"
        closed_side = i.lo.closed if lo_f else i.hi.closed
        return "closed-half-infinite" if closed_side else "open-half-infinite"

    def cohomology(self) -> HomSpace:
        shape = self.shape()
        if shape == "empty":
            return HomSpace()
        if self.mode == "compact-support":
            if shape == "compact-closed":
                return HomSpace({0: 1})
            if shape in ("bounded-open", "open-half-infinite", "full-line"):
                return HomSpace({1: 1})
            return HomSpace()
        if shape in ("compact-closed", "closed-half-infinite", "full-line"):
            return HomSpace({0: 1})
        if shape == "bounded-open":
            return HomSpace({1: 1})
        return HomSpace()


def _sum_cut(i: Interval, j: Interval, t: Scalar) -> Optional[Interval]:
    """{t1 in i : t - t1 in j}, i.e. i intersected with t - j."""
    return i.intersect(j.reflect().shift(t))


def stalk_oracle(kind: str, i: Interval, j: Interval, t: Scalar) -> HomSpace:
    """Fiberwise stalk of a convolution-type operation at t.

    proper: H_c of the line with coefficients in the cut of i x j by
    t1 + t2 = t.  non-proper: ordinary H of the same cut.  hom-star: the
    first factor is replaced by its adjoint interval and the global [1]
    shift is applied.  The cohomology tables live on FiberCut.
    """
    if kind == "proper":
        return FiberCut(_sum_cut(i, j, t), "compact-support").cohomology()
    if kind == "non-proper":
        return FiberCut(_sum_cut(i, j, t), "ordinary").cohomology()
    if kind == "hom-star":
        cut = _sum_cut(i.reflect_swap(), j, t)
        return FiberCut(cut, "ordinary").cohomology().shifted(-1)
    raise ValidationError(f"unknown stalk oracle kind {kind!r}")


def barcode_stalk_via_oracle(kind: str, f: GradedBarcode, g: GradedBarcode, t: Scalar) -> HomSpace:
    """Oracle stalk of the convolution of two barcodes at t (bilinear).

    Convolutions add bar degrees; hom-star is contravariant in its first
    argument, so its per-pair offset is the degree difference.
    """
    acc = HomSpace()
    for x in f.bars:
        for y in g.bars:
            h = stalk_oracle(kind, x.interval, y.interval, t)
            if h:
                offset = (
                    y.degree - x.degree
                    if kind == "hom-star"
                    else x.degree + y.degree
                )
                contrib = {
                    d + offset: n * x.mult * y.mult for d, n in h.dims.items()
                }
                acc = acc + HomSpace(contrib)
    return acc
