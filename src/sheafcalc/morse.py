"""Sublevel/superlevel persistence on filtered simplicial complexes.

Two independent routes produce the same barcode: the upper-star persistence
of the vertex function completed in [-,-) type, and the constructible-sheaf
route, whose stalk at t is the relative cohomology H^*(K, {h <= t}).  That
route reduces the coboundary matrix of the cochains outside {h <= t} once,
in the order in which they appear as t falls, with the sparse kernel of
`stratmodel.decompose`, and reads one bar off each class it lists.  Their
agreement (after the documented degree reindex q = n - i from the duality
step, which needs a closed manifold of dimension <= 2) is the
machine-checked heart of this module.

The persistence route orders simplices on integer vertex ranks, then reduces
the boundary matrix with clearing (Chen-Kerber 2011, the "twist") in code
the sheaf route does not share.

Front regions model compactly supported rank-one sheaves by their fiber
cuts [-t_-(x), t_+(x)); their self-hom pushes forward through superlevel
persistence of t_- + t_+ and yields the capacity anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence, Tuple

from . import modp
from .errors import ValidationError
from .exactnum import POS_INF, Infinity, _excerpt
from .intervals import (
    Endpoint,
    GradedBar,
    GradedBarcode,
    Interval,
    canonicalize,
    map_bars,
)
# decompose is not called here: the benchmark's traced run wraps morse.decompose
from .stratmodel import StratModel, decompose, interval_barcode, interval_model, reduce_column

Simplex = Tuple[int, ...]

# the largest grid torus under the cap, 91 x 91 (49,686 simplices), takes about 1 s in
# `morse sublevel` and, in `morse sheaf`, about 2 s under a tent-plus-noise function and
# 2.4 s (55 MB peak RSS) under 8,281 distinct shuffled values (`tools/ladder.py`, 2-vCPU VM)
MAX_SIMPLICES = 50_000


@dataclass(frozen=True)
class SimplicialComplex:
    """The complex the given simplices generate on the vertices range(n_vertices):
    each of them and all of its faces, stored sorted by (size, vertices).

    The constructor is the one place that checks the simplex rules, once per
    given simplex: 1 to 3 distinct int vertices (not bools) in
    range(n_vertices), in any order.  More than MAX_SIMPLICES given simplices
    are refused before any face is generated, and so is a larger closure.
    """

    n_vertices: int
    simplices: Tuple[Simplex, ...]

    def __post_init__(self):
        n = self.n_vertices
        if len(self.simplices) > MAX_SIMPLICES:
            raise ValidationError(f"complex has {len(self.simplices)} simplices, more than the cap of {MAX_SIMPLICES}")
        closure: set[Simplex] = set()
        for s in self.simplices:
            try:
                s = tuple(s)
            except TypeError as exc:
                raise ValidationError(f"simplex {_excerpt(s)} is not a sequence of vertices") from exc
            if not (0 < len(s) <= 3 and all(type(v) is int and 0 <= v < n for v in s) and len(set(s)) == len(s)):
                raise ValidationError(
                    f"simplex {_excerpt(s)} needs int vertices: 1 to 3 (dimensions 0 to 2), distinct, in 0..{n - 1}")
            s = sorted(s)
            for k in range(1, len(s) + 1):
                closure.update(combinations(s, k))
        if len(closure) > MAX_SIMPLICES:
            raise ValidationError(f"complex has {len(closure)} simplices, more than the cap of {MAX_SIMPLICES}")
        object.__setattr__(self, "simplices", tuple(sorted(closure, key=lambda s: (len(s), s))))

    @classmethod
    def from_maximal(cls, n_vertices: int, maximal: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Every vertex in range(n_vertices) and every face of the given simplices."""
        return cls(n_vertices, [(v,) for v in range(n_vertices)] + list(maximal))

    def of_dim(self, q: int) -> list[Simplex]:
        return [s for s in self.simplices if len(s) == q + 1]

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=0)


def _facet_signs(s: Simplex) -> list[Tuple[Simplex, int]]:
    if len(s) <= 1:
        return []
    return [(s[:i] + s[i + 1:], -1 if i % 2 else 1) for i in range(len(s))]


@dataclass(frozen=True)
class VertexFunction:
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __neg__(self) -> "VertexFunction":
        return VertexFunction(tuple(-v for v in self.values))

    def simplex_value(self, s: Simplex) -> Fraction:
        return max(self.values[v] for v in s)


def _check_function(K: SimplicialComplex, f: VertexFunction) -> None:
    if len(f.values) != K.n_vertices:
        raise ValidationError("vertex function must cover every vertex")


# ---------------------------------------------------------------------------
# persistence by column reduction


def _lower_star_order(K: SimplicialComplex, f: VertexFunction):
    """Simplices in lower-star filtration order, with their values.

    Vertices are ranked once by (value, index); a simplex sorts on its
    vertex ranks in descending order, dimension breaking ties after the top
    rank.  Its value is that of its top-ranked vertex.
    """
    by_rank = sorted(range(K.n_vertices), key=lambda v: (f.values[v], v))
    rank = {v: r for r, v in enumerate(by_rank)}
    keyed = []
    for s in K.simplices:
        rk = sorted([rank[v] for v in s], reverse=True)
        keyed.append((rk[0], len(s), rk, s))
    keyed.sort()
    return [k[3] for k in keyed], [f.values[by_rank[k[0]]] for k in keyed]


def _reduce_boundary(order: list[Simplex], p: int):
    """Persistent-homology column reduction over F_p, with clearing.

    Columns are reduced top dimension first, each dimension in filtration
    order; a column that is already the pivot of a reduced column one
    dimension up would reduce to zero and is skipped (Chen-Kerber 2011,
    "Persistent homology computation with a twist", EuroCG).  Pairs are
    unique, so they equal those of plain left-to-right reduction.

    Returns (pairs, essential) with pairs as (birth index, death index).
    """
    index_of = {s: i for i, s in enumerate(order)}
    reduced: dict[int, dict[int, int]] = {}  # pivot row -> its reduced column
    pairs: list[Tuple[int, int]] = []
    for j in sorted(range(len(order)), key=lambda j: -len(order[j])):
        if j in reduced:
            continue
        col = {index_of[f]: sign % p for f, sign in _facet_signs(order[j])}
        while col:
            piv = max(col)
            other = reduced.get(piv)
            if other is None:
                reduced[piv] = col
                pairs.append((piv, j))
                break
            factor = (col[piv] * pow(other[piv], -1, p)) % p
            for row, val in other.items():
                nv = (col.get(row, 0) - factor * val) % p
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
    dead = {i for i, _ in pairs} | {j for _, j in pairs}
    essential = [j for j in range(len(order)) if j not in dead]
    return pairs, essential


def sublevel_barcode(K: SimplicialComplex, f: VertexFunction, p: int = 2) -> GradedBarcode:
    """Lower-star sublevel persistence; bars [birth, death) per homological
    degree, essential classes as [birth, oo).

    The bars agree with the open-sublevel convention {f < t} at every
    non-critical t; vertex-value ties are broken by vertex index.
    """
    _check_function(K, f)
    modp.check_prime(p)
    order, values = _lower_star_order(K, f)
    pairs, essential = _reduce_boundary(order, p)
    bars: list[GradedBar] = []
    for i, j in pairs:
        birth, death = values[i], values[j]
        if birth < death:
            bars.append(
                GradedBar(
                    Interval(Endpoint(birth, True), Endpoint(death, False)),
                    len(order[i]) - 1,
                )
            )
    for j in essential:
        bars.append(
            GradedBar(
                Interval(Endpoint(values[j], True), Endpoint(POS_INF, False)),
                len(order[j]) - 1,
            )
        )
    return canonicalize(GradedBarcode(tuple(bars)))


def superlevel_barcode(K: SimplicialComplex, h: VertexFunction, p: int = 2) -> GradedBarcode:
    """Upper-star persistence of {h >= t}, completed in [-,-) type.

    Computed as the t -> -t reflection of the sublevel barcode of -h;
    finite bars become [death, birth) on the original axis and essential
    classes become (-oo, birth).
    """
    sub = sublevel_barcode(K, -h, p)
    return map_bars(sub, lambda x: (x.interval.reflect_swap(), x.degree))


def betti_numbers(K: SimplicialComplex, p: int = 2, subset: Optional[set] = None) -> dict[int, int]:
    """Independent Betti ranks (Smith-style over F_p) of a subcomplex."""
    simp = [s for s in K.simplices if subset is None or s in subset]
    out: dict[int, int] = {}
    bydim: dict[int, list[Simplex]] = {}
    for s in simp:
        bydim.setdefault(len(s) - 1, []).append(s)
    maxq = max(bydim, default=0)
    ranks: dict[int, int] = {}
    for q in range(1, maxq + 1):
        rows = {s: i for i, s in enumerate(bydim.get(q - 1, []))}
        mat = []
        for s in bydim.get(q, []):
            col = [0] * len(rows)
            for f, sign in _facet_signs(s):
                col[rows[f]] = sign % p
            mat.append(col)
        ranks[q] = modp.rank([list(r) for r in zip(*mat)], p) if mat and rows else 0
    for q in range(maxq + 1):
        nq = len(bydim.get(q, []))
        out[q] = nq - ranks.get(q, 0) - ranks.get(q + 1, 0)
    return {q: b for q, b in out.items() if b}


# ---------------------------------------------------------------------------
# the sheaf route


def is_closed_manifold(K: SimplicialComplex) -> bool:
    """Closed manifold test for dimension d <= 2, in one pass over the top
    simplices: every (d-1)-simplex lies in exactly two of them, every vertex
    in one, and for d = 2 each vertex's link (the edges opposite it) is
    connected, hence one cycle, as face counts of two give each link vertex
    two link edges.  A complex of dimension 0 passes."""
    d = K.dim
    if d == 0:
        return True
    count: dict[Simplex, int] = {}
    links: dict[int, list[Simplex]] = {}
    for s in K.of_dim(d):
        for (f, _), v in zip(_facet_signs(s), s):  # f is the facet opposite v
            count[f] = count.get(f, 0) + 1
            links.setdefault(v, []).append(f)
    # every face of a top simplex is in K, so equal sizes mean equal sets
    if len(count) != len(K.of_dim(d - 1)) or any(c != 2 for c in count.values()):
        return False
    return len(links) == K.n_vertices and (d == 1 or all(map(_connected, links.values())))


def _connected(edges: list[Simplex]) -> bool:
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, frontier = set(), {edges[0][0]}
    while frontier:
        seen |= frontier
        frontier = set().union(*map(adj.get, frontier)) - seen
    return len(seen) == len(adj)


def sheaf_route_classes(K: SimplicialComplex, h: VertexFunction, p: int = 2) -> Tuple[Tuple[Fraction, ...], list]:
    """Critical values and (degree, lowest, highest stratum) classes of t -> H^*(K, {h <= t}).

    A simplex of level r (the rank of its top vertex value) lies outside
    {h <= t} on strata 0..r; those cochains form a subcomplex that grows as
    t falls, so one coboundary reduction, by level highest first and a
    coface before its faces, gives every stalk and transition (de Silva,
    Morozov and Vejdemo-Johansson 2011; Bauer 2021).  A zero column starts
    a class of degree dim sigma on strata level..0; a column with low i ends
    the class started at i one stratum above its own level.
    """
    _check_function(K, h)
    modp.check_prime(p)
    crit = tuple(sorted(set(h.values)))
    rank = {v: r for r, v in enumerate(crit)}
    level = {s: max(rank[h.values[v]] for v in s) for s in K.simplices}
    order = sorted(K.simplices, key=lambda s: (-level[s], -len(s), s))
    pos = {s: j for j, s in enumerate(order)}
    cols: list[dict[int, int]] = [{} for _ in order]  # column j: coboundary of order[j]
    for j, tau in enumerate(order):
        for f, sign in _facet_signs(tau):
            cols[pos[f]][j] = sign % p
    pivot: dict[int, dict[int, int]] = {}
    for col in cols:
        reduce_column(col, pivot, p)
    ends = {max(col): level[s] for col, s in zip(cols, order) if col}  # low row -> level of its column
    # a class that ends on the level it starts on spans no stratum
    spans = [(len(s) - 1, ends[j] + 1 if j in ends else 0, level[s]) for j, s in enumerate(order) if not cols[j]]
    return crit, spans


def sheaf_route_model(K: SimplicialComplex, h: VertexFunction, p: int = 2) -> StratModel:
    """StratModel of the classes of `sheaf_route_classes`."""
    crit, spans = sheaf_route_classes(K, h, p)
    return interval_model(crit, range(K.dim + 1), spans, p)


def reindex_sheaf_degrees(b: GradedBarcode, n: int) -> GradedBarcode:
    """Duality reindex between the sheaf route (relative cohomological
    degree q) and the superlevel route (homological degree n - q)."""
    return map_bars(b, lambda x: (x.interval, n - x.degree))


def sheaf_route_barcode(K: SimplicialComplex, h: VertexFunction, p: int = 2) -> GradedBarcode:
    """Sheaf-constructible route; asserts agreement with the superlevel
    route after reindexing (requires a closed manifold of dim <= 2)."""
    if not is_closed_manifold(K):
        raise ValidationError(
            "sheaf route needs a closed manifold of dimension <= 2 (duality step)"
        )
    bc = interval_barcode(*sheaf_route_classes(K, h, p))
    if reindex_sheaf_degrees(bc, K.dim) != superlevel_barcode(K, h, p):
        raise ValidationError(
            "two-route barcode identification failed; this indicates a bug"
        )
    return bc


def c0_two_critical_bound(b: GradedBarcode) -> Fraction:
    """Best C0 distance to a two-critical-point function: half the longest
    finite bar; 0 when every bar is infinite."""
    best = Fraction(0)
    for x in b.bars:
        length = x.interval.length
        if not isinstance(length, Infinity) and length > best:
            best = length
    return best / 2


# ---------------------------------------------------------------------------
# front regions


@dataclass(frozen=True)
class FrontRegion:
    """Sampled front with fiber [-t_minus(x), t_plus(x)) over each x."""

    xs: Tuple[Fraction, ...]
    t_minus: Tuple[Fraction, ...]
    t_plus: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(Fraction(v) for v in self.xs))
        object.__setattr__(self, "t_minus", tuple(Fraction(v) for v in self.t_minus))
        object.__setattr__(self, "t_plus", tuple(Fraction(v) for v in self.t_plus))
        if not (len(self.xs) == len(self.t_minus) == len(self.t_plus)):
            raise ValidationError("front arrays must have equal length")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValidationError("front grid must be strictly increasing")
        if any(v < 0 for v in self.t_minus + self.t_plus):
            raise ValidationError("front widths must be non-negative")

    def widths(self) -> Tuple[Fraction, ...]:
        return tuple(a + b for a, b in zip(self.t_minus, self.t_plus))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.widths()) if w > 0)


def _path_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(
        n, [(i, i + 1) for i in range(n - 1)] if n > 1 else [(0,)]
    )


def front_hom_star(front: FrontRegion, p: int = 2) -> GradedBarcode:
    """Pushforward of the front's self internal hom.

    Fiberwise the self-hom is k_[0, g(x)) (one degree up) plus
    k_[-g(x), 0) with g = t_minus + t_plus; pushing forward along x turns
    each positive part into the superlevel barcode of g truncated at 0 and
    the negative part into its reflection.
    """
    if not front.support:
        raise ValidationError("front has empty support")
    g = VertexFunction(front.widths())
    K = _path_complex(len(front.xs))
    sup = superlevel_barcode(K, g, p)
    zero = Fraction(0)
    bars: list[GradedBar] = []
    for x in sup.bars:
        if x.degree != 0:
            continue
        beta = x.interval.hi.value
        alpha = x.interval.lo.value
        lo = max(alpha, zero)
        if isinstance(beta, Infinity) or lo >= beta:
            continue
        pos = Interval(Endpoint(lo, True), Endpoint(beta, False))
        bars.append(GradedBar(pos, -1, x.mult))
        bars.append(GradedBar(pos.reflect_swap(), 0, x.mult))
    return canonicalize(GradedBarcode(tuple(bars)))


def front_capacity(front: FrontRegion) -> Fraction:
    """Maximal fiber width; equals the torsion of front_hom_star."""
    return max(front.widths(), default=Fraction(0))
