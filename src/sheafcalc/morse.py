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

The persistence route runs on integer ranks: it ranks the distinct vertex
values once, orders the simplices on one int each (top vertex rank * 4 +
size) and keeps a pair whose birth rank is below its death rank.  It pairs
degree 0 by a union-find under the elder rule, and reduces only the
coboundary columns of the positive edges, in reverse filtration order, with
the negative edges cleared (Chen-Kerber 2011, the "twist"); cohomology
pairs equal homology pairs (de Silva, Morozov and Vejdemo-Johansson 2011;
Bauer 2021, "Ripser").  None of this code is shared with the sheaf route.

Front regions model compactly supported rank-one sheaves by their fiber
cuts [-t_-(x), t_+(x)); their self-hom pushes forward through superlevel
persistence of t_- + t_+ and yields the capacity anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

# the largest grid torus under the cap, 91 x 91 (49,686 simplices), takes about 0.20 s
# (39 MB peak RSS) in `morse sublevel` under a tent-plus-noise function and 0.27 s (39 MB)
# under 8,281 distinct shuffled values; `morse sheaf` takes 1.3-2.4 s and 1.9-2.8 s (55 MB
# peak RSS) on the same two (`tools/ladder.py` cap steps, 2-vCPU VM shared with other load)
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
        by_size: tuple[set[Simplex], ...] = (set(), set(), set(), set())
        _, verts, edges, tris = by_size
        for s in self.simplices:
            try:
                s = tuple(s)
            except TypeError as exc:
                raise ValidationError(f"simplex {_excerpt(s)} is not a sequence of vertices") from exc
            if not (0 < len(s) <= 3 and all(type(v) is int and 0 <= v < n for v in s) and len(set(s)) == len(s)):
                raise ValidationError(
                    f"simplex {_excerpt(s)} needs int vertices: 1 to 3 (dimensions 0 to 2), distinct, in 0..{n - 1}")
            by_size[len(s)].add(tuple(sorted(s)))
        # close one dimension at a time: a triangle gives three edges, an edge two vertices
        for a, b, c in tris:
            edges.update(((a, b), (a, c), (b, c)))
        for a, b in edges:
            verts.update(((a,), (b,)))
        size = len(verts) + len(edges) + len(tris)
        if size > MAX_SIMPLICES:
            raise ValidationError(f"complex has {size} simplices, more than the cap of {MAX_SIMPLICES}")
        object.__setattr__(self, "simplices", tuple(sorted(verts) + sorted(edges) + sorted(tris)))

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
        object.__setattr__(self, "values", tuple(v if type(v) is Fraction else Fraction(v) for v in self.values))

    def __neg__(self) -> "VertexFunction":
        return VertexFunction(tuple(-v for v in self.values))


def _check_function(K: SimplicialComplex, f: VertexFunction) -> None:
    if len(f.values) != K.n_vertices:
        raise ValidationError("vertex function must cover every vertex")


# ---------------------------------------------------------------------------
# persistence by column reduction


def _lower_star_order(K: SimplicialComplex, f: VertexFunction):
    """Simplices in lower-star filtration order, each with its level, and
    the distinct vertex values, whose index is a level.

    The distinct values are ranked once; a simplex's level is the rank of
    its top vertex value, and the simplices, stored in (size, vertices)
    order, are stably sorted on the one int level * 4 + size, so a face
    comes before its cofaces.  Ties are left in stored order: any order a
    filtration allows gives the same value barcode (Zomorodian-Carlsson 2005).
    """
    ratios = [v.as_integer_ratio() for v in f.values]  # int pairs hash and compare in C
    values = sorted(dict(zip(ratios, f.values)).values())
    rank = list(map({v.as_integer_ratio(): r for r, v in enumerate(values)}.__getitem__, ratios)).__getitem__
    levels = [max(map(rank, s)) for s in K.simplices]  # the shared rank ints, not a new int per simplex
    keys = [lv * 4 + len(s) for lv, s in zip(levels, K.simplices)]
    keyed = sorted(range(len(keys)), key=keys.__getitem__)
    return [K.simplices[i] for i in keyed], [levels[i] for i in keyed], values


def _elder_pairs(vertices: dict[int, int], edges: dict[Simplex, int]):
    """Degree 0 by union-find, from each vertex's and each edge's filtration
    position, the edges listed in filtration order.

    The edges are merged on the vertices' positions, so a component's root
    is its oldest vertex: an edge that joins two components kills the
    younger root (the elder rule), and an edge that joins a component to
    itself is positive.  The pairs do not depend on the field.

    Returns (pairs, positive, roots): the (vertex, edge) pairs and the
    positive edges in filtration order, and the unpaired vertices.
    """
    parent = {i: i for i in vertices.values()}  # vertex position -> parent position
    pairs: list[Tuple[int, int]] = []
    positive: list[int] = []
    for (a, b), j in edges.items():
        u, w = vertices[a], vertices[b]
        while (r := parent[u]) != u:  # path halving
            parent[u] = u = parent[r]
        while (r := parent[w]) != w:
            parent[w] = w = parent[r]
        if u == w:
            positive.append(j)
        elif u < w:
            parent[w] = u
            pairs.append((w, j))
        else:
            parent[u] = w
            pairs.append((u, j))
    return pairs, positive, [i for i, r in parent.items() if i == r]


def _reduce_boundary(order: list[Simplex], p: int):
    """Persistence pairs of a filtration over F_p: degree 0 by union-find,
    the rest from a cleared coboundary reduction.

    `_elder_pairs` pairs every vertex and every negative edge.  A negative
    edge's coboundary column would reduce to zero, so it gets none (Chen-
    Kerber 2011, "Persistent homology computation with a twist"); each
    positive edge gets its coboundary over F_p, one row per triangle, the
    triangle (a, b, c) giving its edge (b, c) 1, (a, c) p - 1 and (a, b) 1.
    The columns are reduced in reverse filtration order, each pivoting on
    its earliest triangle: a nonzero column pairs its edge with its pivot, a
    zero column is an essential H1 class, and a triangle that is no column's
    pivot is essential.  Cohomology pairs equal homology pairs (de Silva,
    Morozov and Vejdemo-Johansson 2011, "Dualities in persistent
    (co)homology"; Bauer 2021, "Ripser"), and a filtration has one set of
    pairs, so they equal those of the boundary reduction.

    Returns (pairs, essential) with pairs as (birth index, death index) and
    essential in filtration order.
    """
    vertices: dict[int, int] = {}  # vertex -> position
    edges: dict[Simplex, int] = {}  # edge -> position
    triangles: list[int] = []
    for j, s in enumerate(order):
        if len(s) == 2:
            edges[s] = j
        elif len(s) == 1:
            vertices[s[0]] = j
        else:
            triangles.append(j)
    pairs, positive, essential = _elder_pairs(vertices, edges)
    cols: dict[Simplex, dict[int, int]] = {order[j]: {} for j in positive}  # positive edge -> its coboundary
    cleared: dict[int, int] = {}  # takes the entries of the negative edges
    for j in triangles:
        a, b, c = order[j]
        cols.get((b, c), cleared)[j] = 1
        cols.get((a, c), cleared)[j] = p - 1
        cols.get((a, b), cleared)[j] = 1
    reduced: dict[int, dict[int, int]] = {}  # pivot triangle -> its reduced column
    for j in reversed(positive):
        col = cols[order[j]]
        while col:
            piv = min(col)
            other = reduced.get(piv)
            if other is None:
                reduced[piv] = col
                pairs.append((j, piv))
                break
            factor = (col[piv] * pow(other[piv], -1, p)) % p
            for row, val in other.items():
                nv = (col.get(row, 0) - factor * val) % p
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
        else:
            essential.append(j)
    essential += [j for j in triangles if j not in reduced]
    essential.sort()
    return pairs, essential


def sublevel_barcode(K: SimplicialComplex, f: VertexFunction, p: int = 2) -> GradedBarcode:
    """Lower-star sublevel persistence; bars [birth, death) per homological
    degree, essential classes as [birth, oo).

    The bars agree with the open-sublevel convention {f < t} at every
    non-critical t.  A pair is a bar when its birth level is below its
    death level, decided on the integer levels.
    """
    _check_function(K, f)
    modp.check_prime(p)
    order, levels, values = _lower_star_order(K, f)
    pairs, essential = _reduce_boundary(order, p)
    # the levels order each bar's ends, so the intervals need no check
    bars = [GradedBar(Interval._ordered(Endpoint(values[levels[i]], True), Endpoint(values[levels[j]], False)),
                      len(order[i]) - 1) for i, j in pairs if levels[i] < levels[j]]
    bars += [GradedBar(Interval._ordered(Endpoint(values[levels[j]], True), Endpoint(POS_INF, False)),
                       len(order[j]) - 1) for j in essential]
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
    rank = list(map({v: r for r, v in enumerate(crit)}.__getitem__, h.values)).__getitem__  # by vertex
    level = {s: max(map(rank, s)) for s in K.simplices}
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
