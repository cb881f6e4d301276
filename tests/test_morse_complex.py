"""Simplex rules and the closed-manifold test against reference copies.

The reference functions below are separately kept code: a closure that
checks each rule of each given simplex on its own and finds the faces by
dropping one vertex at a time, and a manifold test that scans every
triangle once per vertex and walks each link as a cycle.  The library must
accept and reject the same generated lists, build the same complexes from
them and give the same manifold verdicts.
"""

import random
import time
from itertools import combinations

import pytest

from sheafcalc import morse
from sheafcalc.errors import ValidationError


# -- reference copies -----------------------------------------------------------


def _ref_facets(s):
    return [s[:i] + s[i + 1:] for i in range(len(s))] if len(s) > 1 else []


def ref_closure(n_vertices, simplices):
    """The complex a list of simplices generates: each simplex, in any order,
    and all of its faces."""
    if len(simplices) > morse.MAX_SIMPLICES:
        raise ValidationError("too many simplices")
    out = set()
    for s in simplices:
        s = tuple(s)
        if not 1 <= len(s) <= 3:
            raise ValidationError("dimension")
        if any(type(v) is not int for v in s):
            raise ValidationError("vertex type")
        if len(set(s)) != len(s):
            raise ValidationError("repeated vertex")
        if any(v < 0 or v >= n_vertices for v in s):
            raise ValidationError("unknown vertex")
        todo = [tuple(sorted(s))]
        while todo:
            f = todo.pop()
            if f not in out:
                out.add(f)
                todo.extend(_ref_facets(f))
    if len(out) > morse.MAX_SIMPLICES:
        raise ValidationError("too many simplices")
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def ref_from_maximal(n_vertices, maximal):
    return ref_closure(n_vertices, [(v,) for v in range(n_vertices)] + list(maximal))


def ref_is_closed_manifold(K):
    d = K.dim
    if d == 0:
        return True
    if d == 1:
        if K.of_dim(2):
            return False
        deg = {}
        for e in K.of_dim(1):
            for v in e:
                deg[v] = deg.get(v, 0) + 1
        return all(deg.get(v, 0) == 2 for v in range(K.n_vertices))
    edges_cnt = {}
    for t in K.of_dim(2):
        for f in _ref_facets(t):
            edges_cnt[f] = edges_cnt.get(f, 0) + 1
    if set(edges_cnt) != set(K.of_dim(1)) or any(c != 2 for c in edges_cnt.values()):
        return False
    for v in range(K.n_vertices):
        link = [tuple(sorted(set(t) - {v})) for t in K.of_dim(2) if v in t]
        if not link:
            return False
        adj = {}
        for a, b in link:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if any(len(n) != 2 for n in adj.values()):
            return False
        start = next(iter(adj))
        seen = {start}
        prev, cur = None, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            seen.add(cur)
        if seen != set(adj):
            return False
    return True


# -- generated complexes ------------------------------------------------------------


def torus_tris(m, n, off=0):
    """Triangles of the m x n grid torus (m, n >= 3), vertices off.. off+mn-1."""
    def v(i, j):
        return off + (i % m) * n + (j % n)

    tris = []
    for i in range(m):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    return tris


def cycle_edges(vertices):
    return [tuple(sorted((a, b))) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]


def pinch(tris, n, a, b):
    """Identify vertex b with a, then relabel n-1 as b so the range stays whole."""
    relabel = {b: a, n - 1: b} if b != n - 1 else {b: a}
    return [tuple(sorted(relabel.get(v, v) for v in t)) for t in tris]


def generated_cases(seed=11):
    """(label, n_vertices, maximal or None, simplices or None) cases: maximal
    ones go through from_maximal, the others straight to the constructor."""
    rng = random.Random(seed)
    cases = []

    def maxi(label, n, maximal):
        cases.append((label, n, list(maximal), None))

    def direct(label, n, simplices):
        cases.append((label, n, None, tuple(simplices)))

    sizes = [(m, n) for m in range(3, 7) for n in range(3, 7)]
    for m, n in sizes:
        maxi("torus", m * n, torus_tris(m, n))
    maxi("tetrahedron boundary", 4, list(combinations(range(4), 3)))
    maxi("projective plane", 6, RP2)
    for _ in range(60):
        m, n = rng.choice(sizes)
        tris = torus_tris(m, n)
        for _ in range(rng.randint(1, 3)):
            tris.remove(rng.choice(tris))
        maxi("torus minus triangles", m * n, tris)
    for _ in range(30):
        m, n = rng.choice(sizes)
        tris = torus_tris(m, n)
        edges = {e for t in tris for e in combinations(t, 2)}
        a, b = rng.choice([e for e in combinations(range(m * n), 2) if e not in edges])
        maxi("torus plus edge", m * n, tris + [(a, b)])
    for _ in range(20):
        m, n = rng.choice(sizes)
        maxi("torus plus vertices", m * n + rng.randint(1, 2), torus_tris(m, n))
    for m, n in sizes:
        if m >= 6 and n >= 6:
            for a, b in [(0, 3 * n + 3), (0, 2 * n + 3), (n + 1, 4 * n + 4)]:
                maxi("pinched torus", m * n - 1, pinch(torus_tris(m, n), m * n, a, b))
        elif m >= 4 and n >= 4:
            a, b = 0, 2 * n + 2
            maxi("pinched torus", m * n - 1, pinch(torus_tris(m, n), m * n, a, b))
    for _ in range(15):
        (m1, n1), (m2, n2) = rng.choice(sizes), rng.choice(sizes)
        maxi("disjoint tori", m1 * n1 + m2 * n2, torus_tris(m1, n1) + torus_tris(m2, n2, m1 * n1))
    for _ in range(60):
        lengths = [rng.randint(3, 7) for _ in range(rng.randint(1, 4))]
        nv = sum(lengths)
        order = list(range(nv))
        rng.shuffle(order)
        edges, at = [], 0
        for k in lengths:
            edges += cycle_edges(order[at:at + k])
            at += k
        kind = rng.choice(["circles", "circles sharing a vertex", "circles with a chord", "path"])
        if kind == "circles sharing a vertex":
            edges += cycle_edges([order[0]] + [nv + i for i in range(3)])
            nv += 3
        elif kind == "circles with a chord":
            edges.append(tuple(sorted((order[0], order[2]))))  # a triangle's chord repeats an edge
        elif kind == "path":
            edges.remove(edges[0])
        maxi(kind, nv, edges)
    for _ in range(150):
        nv = rng.randint(3, 8)
        all_tris = list(combinations(range(nv), 3))
        tris = rng.sample(all_tris, rng.randint(1, min(8, len(all_tris))))
        extra = rng.sample(list(combinations(range(nv), 2)), rng.randint(0, 2))
        maxi("random 2-complex", nv, tris + extra)
    # the constructor, with a vertex of the range left out or the list shuffled
    for _ in range(30):
        m, n = rng.choice(sizes)
        K = morse.SimplicialComplex.from_maximal(m * n, torus_tris(m, n))
        direct("torus leaving out a vertex", m * n + 1, K.simplices)
        simplices = list(K.simplices)
        rng.shuffle(simplices)
        direct("shuffled torus", m * n, simplices)
    for k in range(3, 9):
        K = morse.SimplicialComplex.from_maximal(k, cycle_edges(list(range(k))))
        direct("circle leaving out a vertex", k + 1, K.simplices)
        direct("circle without the face (0,)", k, K.simplices[1:])
    # edited lists: the constructor closes the first five, refuses the rest
    for _ in range(70):
        m, n = rng.choice(sizes[:6])
        simplices = list(morse.SimplicialComplex.from_maximal(m * n, torus_tris(m, n)).simplices)
        i = rng.randrange(len(simplices))
        how = rng.choice([
            "drop", "duplicate", "reverse", "as a list", "maximal only",
            "out of range", "negative", "repeated vertex", "bool vertex", "four vertices", "empty",
        ])
        s = simplices[i]
        if how == "drop":
            del simplices[i]
        elif how == "duplicate":
            simplices.append(s)
        elif how == "reverse":
            simplices[i] = s[::-1]
        elif how == "as a list":
            simplices[i] = list(s)
        elif how == "maximal only":
            simplices = [t for t in simplices if len(t) == 3]
        elif how == "out of range":
            simplices[i] = s[:-1] + (m * n,)
        elif how == "negative":
            simplices[i] = (-1,) + s[1:]
        elif how == "repeated vertex":
            simplices[i] = s + s[:1] if len(s) < 3 else s[:2] + s[:1]
        elif how == "bool vertex":
            simplices[i] = (True,) + s[1:]
        elif how == "four vertices":
            simplices[i] = s + tuple(v for v in range(4) if v not in s)[: 4 - len(s)]
        else:
            simplices[i] = ()
        direct(f"torus list, {how}", m * n, simplices)
    # lists past the cap: given, and generated by the faces
    direct("past the cap, given", morse.MAX_SIMPLICES + 1, [(v,) for v in range(morse.MAX_SIMPLICES + 1)])
    direct("past the cap, closed", 15_002, [(i, i + 1, i + 2) for i in range(15_000)])
    # maximal lists from_maximal must refuse
    for bad in [[(0, 0, 1)], [(0, 1, 5)], [(-1, 0)], [(0, 1, 2, 3)], [(0, 1), (1, 1)]]:
        maxi("bad maximal", 4, bad)
    return cases


def _ref_build(n, maximal, simplices):
    if maximal is not None:
        return ref_from_maximal(n, maximal)
    return ref_closure(n, simplices)


def _build(n, maximal, simplices):
    if maximal is not None:
        return morse.SimplicialComplex.from_maximal(n, maximal)
    return morse.SimplicialComplex(n, simplices)


def test_generated_complexes_agree_with_reference():
    cases = generated_cases()
    assert len(cases) >= 400
    verdicts = {True: 0, False: 0}
    rejected = 0
    for label, n, maximal, simplices in cases:
        try:
            expect = _ref_build(n, maximal, simplices)
        except ValidationError:
            expect = None
        try:
            K = _build(n, maximal, simplices)
        except ValidationError:
            K = None
        assert (K is None) == (expect is None), label
        if K is None:
            rejected += 1
            continue
        assert K.simplices == expect, label
        verdict = morse.is_closed_manifold(K)
        assert verdict == ref_is_closed_manifold(K), label
        verdicts[verdict] += 1
    assert rejected >= 30 and verdicts[True] >= 50 and verdicts[False] >= 100


@pytest.mark.parametrize(
    "n, simplices, message",
    [
        (2, ((0,), (0, 0)), "distinct"),
        (4, ((0,), (1,), (2,), (3,), (0, 1, 2, 3)), "1 to 3"),
        (2, ((0,), (2,)), "0..1"),
        (2, ((-1,), (0,)), "0..1"),
        (2, ((0,), (True,), (0, True)), "needs int vertices"),
        (2, ((),), "1 to 3"),
        (2, ((0.0,),), "needs int vertices"),
        (2, (5,), "not a sequence"),
    ],
    ids=[
        "repeated-vertex", "four-vertices", "out-of-range", "negative", "bool-vertex", "empty", "float-vertex",
        "not-a-sequence",
    ],
)
def test_constructor_rejects(n, simplices, message):
    with pytest.raises(ValidationError, match=message):
        morse.SimplicialComplex(n, simplices)


@pytest.mark.parametrize(
    "n, simplices",
    [
        (2, ((0,), (1,), (1, 0))),
        (2, ((0,), (1,), (0, 1), (0, 1))),
        (2, ((0,), (0, 1))),
        (2, ([1, 0],)),
    ],
    ids=["unsorted", "duplicate", "missing-face", "list"],
)
def test_constructor_closes(n, simplices):
    # each list generates the edge (0, 1) and its two vertices
    assert morse.SimplicialComplex(n, simplices).simplices == ((0,), (1,), (0, 1))


class Unread:
    """A given simplex that fails the test if the constructor reads it."""

    def __iter__(self):
        raise AssertionError("a given simplex was read")


def test_constructor_checks_the_cap_before_any_face():
    # no given simplex is read past the cap, so no face is generated
    given = [Unread()] * (morse.MAX_SIMPLICES + 1)
    with pytest.raises(ValidationError, match="more than the cap"):
        morse.SimplicialComplex(len(given), given)
    # within the cap, the given simplices are read
    with pytest.raises(AssertionError):
        morse.SimplicialComplex(1, [Unread()])


def test_constructor_names_the_first_bad_simplex():
    # the rules run simplex by simplex, so a later non-sequence is not named
    with pytest.raises(ValidationError, match=r"^simplex \(0, 0\) needs int vertices"):
        morse.SimplicialComplex(3, [(0, 1), (0, 0), 5])
    with pytest.raises(ValidationError, match="^simplex 5 is not a sequence"):
        morse.SimplicialComplex(3, [(0, 1), 5, (0, 0)])


def test_constructor_refuses_a_closure_past_the_cap():
    strip = [(i, i + 1, i + 2) for i in range(15_000)]  # 15,000 triangles, 60,003 simplices with faces
    with pytest.raises(ValidationError, match="60003 simplices, more than the cap"):
        morse.SimplicialComplex(15_002, strip)


def test_constructor_accepts_unlisted_vertex_and_any_order():
    K = morse.SimplicialComplex(3, ((0, 1), (1,), (0,)))
    assert K.dim == 1 and not morse.is_closed_manifold(K)


@pytest.mark.parametrize(
    "maximal, message",
    [([(0, 1, 2, 3)], "dimensions"), ([(0, "a")], "int"), ([(0, True)], "int"), ([(0, 4)], "0..3")],
)
def test_from_maximal_rejects(maximal, message):
    with pytest.raises(ValidationError, match=message):
        morse.SimplicialComplex.from_maximal(4, maximal)


def test_manifold_rules_one_at_a_time():
    # each rule alone decides one of these
    torus = torus_tris(6, 6)
    assert morse.is_closed_manifold(morse.SimplicialComplex.from_maximal(36, torus))
    punctured = morse.SimplicialComplex.from_maximal(36, torus[1:])  # a face count of 1
    assert not morse.is_closed_manifold(punctured)
    extra = morse.SimplicialComplex.from_maximal(37, torus)  # vertex 36 in no triangle
    assert not morse.is_closed_manifold(extra)
    pinched = morse.SimplicialComplex.from_maximal(35, pinch(torus, 36, 0, 21))  # link: two cycles
    assert not morse.is_closed_manifold(pinched)
    circles = morse.SimplicialComplex.from_maximal(7, cycle_edges([0, 1, 2]) + cycle_edges([3, 4, 5, 6]))
    assert morse.is_closed_manifold(circles)
    unlisted = morse.SimplicialComplex(8, circles.simplices)  # vertex 7 in no edge
    assert not morse.is_closed_manifold(unlisted)


def test_manifold_test_is_fast_on_a_big_torus():
    K = morse.SimplicialComplex.from_maximal(900, torus_tris(30, 30))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert morse.is_closed_manifold(K)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
