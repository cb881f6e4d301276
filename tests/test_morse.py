import hashlib
import json
import time
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc import cli, metrics as mt, modp, morse, ops, stratmodel
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import Infinity
from sheafcalc.intervals import barcode_to_json, stalk
from sheafcalc.stratmodel import StratModel, decompose, sample_points

from conftest import dense_maps, identity, mat_mul, to_columns


def circle(n: int) -> morse.SimplicialComplex:
    return morse.SimplicialComplex.from_maximal(n, [(i, (i + 1) % n) for i in range(n)])


def torus7() -> morse.SimplicialComplex:
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    return morse.SimplicialComplex.from_maximal(7, tris)


def vf(*vals) -> morse.VertexFunction:
    return morse.VertexFunction(tuple(F(v) for v in vals))


def sublevel_complex(K: morse.SimplicialComplex, f: morse.VertexFunction, t: F) -> set:
    return {s for s in K.simplices if f.simplex_value(s) <= t}


def superlevel_complex(K: morse.SimplicialComplex, f: morse.VertexFunction, t: F) -> set:
    return {s for s in K.simplices if min(f.values[v] for v in s) >= t}


def test_complex_validation():
    # the constructor adds the missing faces of what it is given
    assert morse.SimplicialComplex(2, ((0, 1),)).simplices == ((0,), (1,), (0, 1))
    K = morse.SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    assert len(K.simplices) == 7
    assert morse.SimplicialComplex(3, ((0,), (1,), (2,), (0, 1, 2))) == K
    with pytest.raises(ValidationError):
        morse.SimplicialComplex(3, ((0, 1, 3),))


def test_sublevel_circle_example():
    K = circle(4)
    b = morse.sublevel_barcode(K, vf(0, 2, 1, 3))
    assert b == sc.barcode(
        sc.bar(0, "+inf"), sc.bar(1, 2), sc.bar(3, "+inf", degree=1)
    )


def test_sublevel_constant_gives_betti_bars():
    K = circle(5)
    b = morse.sublevel_barcode(K, vf(0, 0, 0, 0, 0))
    assert b == sc.barcode(sc.bar(0, "+inf"), sc.bar(0, "+inf", degree=1))


def test_sublevel_single_vertex():
    K = morse.SimplicialComplex.from_maximal(1, [(0,)])
    assert morse.sublevel_barcode(K, vf(7)) == sc.barcode(sc.bar(7, "+inf"))


def test_sublevel_counts_match_betti_oracle(rng):
    for _ in range(50):
        n = rng.randint(4, 9)
        K = circle(n)
        f = morse.VertexFunction(tuple(F(rng.randint(-8, 8)) for _ in range(n)))
        bc_ = morse.sublevel_barcode(K, f)
        for t in sorted(set(f.values)):
            sub = sublevel_complex(K, f, t)
            assert stalk(bc_, t).dims == morse.betti_numbers(K, 2, sub)


def test_superlevel_zero_function():
    K = circle(4)
    b = morse.superlevel_barcode(K, vf(0, 0, 0, 0))
    li = sc.bar("-inf", 0, lo_closed=False)
    assert b == sc.barcode(li, sc.GradedBar(li.interval, 1))


def test_superlevel_reflection_consistency(rng):
    K = circle(8)
    for _ in range(20):
        h = morse.VertexFunction(tuple(F(rng.randint(-9, 9)) for _ in range(8)))
        sup = morse.superlevel_barcode(K, h)
        reflected = sc.canonicalize(
            sc.GradedBarcode(
                tuple(
                    sc.GradedBar(x.interval.reflect_swap(), x.degree, x.mult)
                    for x in morse.sublevel_barcode(K, -h).bars
                )
            )
        )
        assert sup == reflected


def test_superlevel_circle_hand_example():
    K = circle(4)
    b = morse.superlevel_barcode(K, vf(0, 2, 1, 3))
    assert b == sc.barcode(
        sc.bar("-inf", 3, lo_closed=False),
        sc.bar(1, 2),
        sc.bar("-inf", 0, degree=1, lo_closed=False),
    )


def test_manifold_detection():
    assert morse.is_closed_manifold(circle(5))
    assert morse.is_closed_manifold(torus7())
    path = morse.SimplicialComplex.from_maximal(3, [(0, 1), (1, 2)])
    assert not morse.is_closed_manifold(path)
    disk = morse.SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    assert not morse.is_closed_manifold(disk)


def test_sheaf_route_circle_example():
    K = circle(4)
    b = morse.sheaf_route_barcode(K, vf(0, 2, 1, 3))
    assert morse.reindex_sheaf_degrees(b, 1) == morse.superlevel_barcode(K, vf(0, 2, 1, 3))


def test_sheaf_route_zero_function_counts():
    K = circle(4)
    b = morse.sheaf_route_barcode(K, vf(0, 0, 0, 0))
    assert b.total_mult() == 2  # sum of circle Betti numbers
    t = torus7()
    bt = morse.sheaf_route_barcode(t, morse.VertexFunction((F(0),) * 7))
    assert bt.total_mult() == 4  # 1 + 2 + 1


def test_sheaf_route_random_circle_and_torus(rng):
    K = circle(12)
    for _ in range(25):
        h = morse.VertexFunction(tuple(F(rng.randint(-20, 20)) for _ in range(12)))
        morse.sheaf_route_barcode(K, h)  # asserts two-route equality internally
    T = torus7()
    for _ in range(5):
        h = morse.VertexFunction(tuple(F(rng.randint(-10, 10)) for _ in range(7)))
        morse.sheaf_route_barcode(T, h)


def test_sheaf_route_rejects_non_manifold():
    path = morse.SimplicialComplex.from_maximal(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        morse.sheaf_route_barcode(path, vf(0, 1, 2))


def test_truncation_count_matches_superlevel_betti(rng):
    # generators alive just below level 0 (the bars with a < 0 <= b^) must
    # count the Betti numbers of {h >= 0}, computed by the rank oracle
    K = circle(8)
    for _ in range(25):
        h = morse.VertexFunction(tuple(F(rng.randint(-9, 9)) for _ in range(8)))
        b = morse.sheaf_route_barcode(K, h)
        n0 = sum(
            1
            for iv, _deg in sc.expanded_bars(b)
            if (not iv.lo.finite or iv.lo.value < 0)
            and iv.hi.finite
            and iv.hi.value >= 0
        )
        sup = superlevel_complex(K, h, F(0))
        betti_total = sum(morse.betti_numbers(K, 2, sup).values())
        assert n0 == betti_total, (h.values, b)


def test_sheaf_route_odd_characteristic():
    K = circle(6)
    h = vf(0, 3, 1, 4, 2, 5)
    b2 = morse.sheaf_route_barcode(K, h, 2)
    b5 = morse.sheaf_route_barcode(K, h, 5)
    assert b2 == b5  # interval-decomposable: dims independent of the field


def test_c0_two_critical_bound():
    b = sc.barcode(sc.bar(0, 1), sc.bar(2, 5), sc.bar(0, "+inf"))
    assert morse.c0_two_critical_bound(b) == F(3, 2)
    assert morse.c0_two_critical_bound(sc.barcode(sc.bar(0, "+inf"))) == 0
    # two-hump model with a2 = 1, a3 = 4: longest finite bar [1, 4)
    model = sc.barcode(sc.bar(0, "+inf"), sc.bar(1, 4))
    assert morse.c0_two_critical_bound(model) == F(3, 2)


def test_stability_bound(rng):
    K = circle(12)
    for _ in range(40):
        f = morse.VertexFunction(tuple(F(rng.randint(-8, 8)) for _ in range(12)))
        g = morse.VertexFunction(tuple(F(rng.randint(-8, 8)) for _ in range(12)))
        d = mt.bottleneck(morse.sublevel_barcode(K, f), morse.sublevel_barcode(K, g))
        sup = max(abs(a - b) for a, b in zip(f.values, g.values))
        assert not isinstance(d, Infinity) and d <= sup


# --- fast paths against the code they replaced --------------------------------


def ref_simplex_key(f: morse.VertexFunction, s):
    """Lower-star key on (Fraction value, vertex) pairs, sorted per simplex."""
    keys = sorted(((f.values[v], v) for v in s), reverse=True)
    return (keys[0], len(s), keys)


def ref_reduce_boundary(order, p):
    """Left-to-right column reduction over F_p without clearing."""
    index_of = {s: i for i, s in enumerate(order)}
    cols, pivot_owner, pairs = [], {}, []
    for j, s in enumerate(order):
        col = {index_of[f]: sign % p for f, sign in morse._facet_signs(s)}
        while col:
            piv = max(col)
            if piv not in pivot_owner:
                pivot_owner[piv] = j
                pairs.append((piv, j))
                break
            other = cols[pivot_owner[piv]]
            factor = (col[piv] * pow(other[piv], -1, p)) % p
            for row, val in other.items():
                nv = (col.get(row, 0) - factor * val) % p
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
        cols.append(col)
    dead = {i for i, _ in pairs} | {j for _, j in pairs}
    return pairs, [j for j in range(len(order)) if j not in dead]


def ref_relative_cohomology(K, L, p):
    """H^q(K, L) with the image of delta_{q-1} built by the nested scan of
    every q-simplex for each active (q-1)-simplex."""
    out = {}
    for q in range(K.dim + 1):
        sq = K.of_dim(q)
        idx = {s: i for i, s in enumerate(sq)}
        active = [s for s in sq if s not in L]
        apos = {s: i for i, s in enumerate(active)}
        rows = []
        for tau in (s for s in K.of_dim(q + 1) if s not in L):
            row = [0] * len(active)
            for f, sign in morse._facet_signs(tau):
                if f in apos:
                    row[apos[f]] = sign % p
            rows.append(row)
        z_local = modp.nullspace(rows, len(active), p)
        b_cols = []
        for sig in ([s for s in K.of_dim(q - 1) if s not in L] if q else []):
            col = [0] * len(active)
            for tau in sq:
                if tau in L:
                    continue
                for f, sign in morse._facet_signs(tau):
                    if f == sig:
                        col[apos[tau]] = (col[apos[tau]] + sign) % p
            if any(col):
                b_cols.append(col)
        stack = b_cols + z_local
        pivots = modp.row_echelon([list(r) for r in zip(*stack)], p)[1] if stack else []
        reps = [z_local[c - len(b_cols)] for c in pivots if c >= len(b_cols)]

        def globalize(vec):
            g = [0] * len(sq)
            for loc, s in enumerate(active):
                g[idx[s]] = vec[loc]
            return g

        out[q] = ([globalize(v) for v in reps], [globalize(v) for v in b_cols])
    return out


def ref_solve_in_span(basis_cols, target, p):
    """Coefficients expressing target in the span of basis_cols, or None,
    from one elimination of the augmented matrix."""
    k = len(basis_cols)
    aug = [[col[i] for col in basis_cols] + [target[i]] for i in range(len(target))]
    ech, pivots = modp.row_echelon(aug, p)
    if k in pivots:
        return None
    coeff = [0] * k
    for r, pc in enumerate(pivots):
        coeff[pc] = ech[r][k]
    return coeff


def ref_sheaf_route_model(K, h, p):
    """StratModel with every sample solved bottom-up on its own and each
    transition column solved in the target's span, one elimination per
    source representative."""
    crit = tuple(sorted(set(h.values)))
    datas = [ref_relative_cohomology(K, sublevel_complex(K, h, t), p) for t in sample_points(crit)]
    open_dims, maps = {}, {}
    for q in range(K.dim + 1):
        open_dims[q] = tuple(len(d[q][0]) for d in datas)
        degmaps = []
        for i in range(len(crit)):
            tgt_reps, tgt_b = datas[i][q]
            cols = [ref_solve_in_span(tgt_b + tgt_reps, rep, p) for rep in datas[i + 1][q][0]]
            assert None not in cols
            dense = [[c[len(tgt_b) + r] for c in cols] for r in range(len(tgt_reps))]
            degmaps.append(to_columns(dense, len(cols)))
        maps[q] = tuple(degmaps)
    return StratModel(crit, open_dims, maps, p)


def grid_torus(n: int) -> morse.SimplicialComplex:
    tris = []
    for i in range(n):
        for j in range(n):
            v, r = i * n + j, i * n + (j + 1) % n
            d, dr = ((i + 1) % n) * n + j, ((i + 1) % n) * n + (j + 1) % n
            tris += [tuple(sorted((v, d, dr))), tuple(sorted((v, r, dr)))]
    return morse.SimplicialComplex.from_maximal(n * n, tris)


def random_complexes(rng):
    """Closed tori, non-manifold 2-complexes, graphs, lone vertices."""
    yield grid_torus(3)
    yield grid_torus(4)
    yield torus7()
    for _ in range(6):
        n = rng.randint(4, 9)
        tris = [tuple(rng.sample(range(n), 3)) for _ in range(rng.randint(1, 8))]
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 5))]
        yield morse.SimplicialComplex.from_maximal(n + rng.randint(0, 2), tris + edges)
    for _ in range(6):
        n = rng.randint(2, 10)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        yield morse.SimplicialComplex.from_maximal(n + rng.randint(0, 2), edges)
    yield morse.SimplicialComplex.from_maximal(3, [])


def random_values(rng, n):
    """Vertex values with many ties: few distinct levels, some repeated."""
    spread = rng.choice((0, 1, 2, 6))
    return morse.VertexFunction(tuple(F(rng.randint(-spread, spread), rng.randint(1, 2)) for _ in range(n)))


def composite_ranks(model):
    """Rank of every composite V_j -> V_i, per degree.  With the stalk dims
    this is the complete isomorphism invariant of a type-A quiver
    representation, so equal ranks mean an equal decomposition."""
    out = {}
    for q, ms in dense_maps(model).items():
        for j in range(len(ms) + 1):
            m = identity(model.open_dims[q][j])
            for i in range(j - 1, -1, -1):
                m = mat_mul(ms[i], m, model.p)
                out[q, i, j] = modp.rank(m, model.p)
    return out


def assert_isomorphic(a, b):
    assert a.critical == b.critical and a.open_dims == b.open_dims
    assert composite_ranks(a) == composite_ranks(b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fast_paths_match_reference(rng, p):
    for K in random_complexes(rng):
        for _ in range(3):
            f = random_values(rng, K.n_vertices)
            order, values = morse._lower_star_order(K, f)
            assert order == sorted(K.simplices, key=lambda s: ref_simplex_key(f, s))
            assert values == [f.simplex_value(s) for s in order]
            pairs, essential = morse._reduce_boundary(order, p)
            ref_pairs, ref_essential = ref_reduce_boundary(order, p)
            assert set(pairs) == set(ref_pairs) and set(essential) == set(ref_essential)
            assert_isomorphic(morse.sheaf_route_model(K, f, p), ref_sheaf_route_model(K, f, p))


def distinct_values(rng, n):
    values = list(range(n))
    rng.shuffle(values)
    return vf(*values)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_barcode_matches_decomposed_model(rng, p):
    # the route reads its bars off its class list; decomposing the quiver
    # model of those classes, as the route once did, is the reference
    closed = [K for K in random_complexes(rng) if morse.is_closed_manifold(K)]
    cases = [(K, random_values(rng, K.n_vertices)) for K in closed for _ in range(3)]
    cases += [(grid_torus(n), distinct_values(rng, n * n)) for n in (8, 16)]
    for K, h in cases:
        got = morse.sheaf_route_barcode(K, h, p)
        ref = decompose(morse.sheaf_route_model(K, h, p))
        assert repr(got) == repr(ref)
        assert cli._dump(barcode_to_json(got)) == cli._dump(barcode_to_json(ref))


def test_sheaf_cli_builds_no_quiver_model(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sheaf route built or decomposed a StratModel")

    monkeypatch.setattr(stratmodel.StratModel, "__post_init__", refuse)
    monkeypatch.setattr(stratmodel, "decompose", refuse)
    monkeypatch.setattr(morse, "decompose", refuse)
    K = grid_torus(4)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"values": [5 * v % 16 for v in range(16)], "simplices": K.of_dim(2)}))
    assert cli.main(["morse", "sheaf", str(path)]) == 0
    out = capsys.readouterr().out
    # the stdout of the same call while the route still decomposed a model
    assert hashlib.sha256(out.encode()).hexdigest() == "e49eefc402d50bbf7a6776b2670d9d9bb2a69a9a13774dc86f761271c2f876e1"


def test_sheaf_route_scales(rng):
    # a 12x12 torus (864 simplices) under a tent-plus-noise function with
    # 62 distinct values: one coboundary reduction, not one elimination per
    # stratum, keeps the two-route check well under 2 s
    n = 12
    K = grid_torus(n)
    tent = [min(i, n - i) for i in range(n)]
    h = morse.VertexFunction(tuple(F(8 * a + 5 * b + rng.randint(0, 20), 4) for a in tent for b in tent))
    start = time.perf_counter()
    b = morse.sheaf_route_barcode(K, h)
    assert time.perf_counter() - start < 2
    # H^*(K) of the torus lives on the lowest stratum; the noise adds 19 bars
    assert sorted(x.degree for x in b.bars if isinstance(x.interval.lo.value, Infinity)) == [0, 1, 1, 2]
    assert len(b.bars) == 23
    # a 16x16 torus under 256 distinct shuffled values has 256 strata: one
    # sweep across the critical values, not a rank per pair of strata
    n = 16
    values = list(range(n * n))
    rng.shuffle(values)
    start = time.perf_counter()
    b = morse.sheaf_route_barcode(grid_torus(n), vf(*values))
    assert time.perf_counter() - start < 2
    assert sorted(x.degree for x in b.bars if isinstance(x.interval.lo.value, Infinity)) == [0, 1, 1, 2]
    assert sum(x.mult for x in b.bars) > 40


# --- fronts -------------------------------------------------------------------


def front(xs, tm, tp) -> morse.FrontRegion:
    return morse.FrontRegion(tuple(map(F, xs)), tuple(map(F, tm)), tuple(map(F, tp)))


def test_front_validation():
    with pytest.raises(ValidationError):
        front([0, 0], [1, 1], [1, 1])
    with pytest.raises(ValidationError):
        front([0, 1], [-1, 0], [0, 0])
    with pytest.raises(ValidationError):
        morse.front_hom_star(front([0, 1], [0, 0], [0, 0]))


def test_front_eye_anchor():
    # tent with max t_- + t_+ = 3 (a=1, b=2)
    fr = front([-1, 0, 1], [0, 1, 0], [0, 2, 0])
    hs = morse.front_hom_star(fr)
    assert hs == sc.barcode(sc.bar(0, 3, degree=-1), sc.bar(-3, 0))
    assert morse.front_capacity(fr) == 3
    assert ops.torsion(hs) == 3


def test_front_constant():
    fr = front([0, 1, 2], [1, 1, 1], [1, 1, 1])
    hs = morse.front_hom_star(fr)
    assert hs == sc.barcode(sc.bar(0, 2, degree=-1), sc.bar(-2, 0))
    assert all(x.interval.length == 2 for x in hs.bars)


def test_front_capacity_properties(rng):
    assert morse.front_capacity(front([0, 1], [0, 0], [0, 0])) == 0
    for _ in range(30):
        n = rng.randint(2, 8)
        tm = [F(rng.randint(0, 4)) for _ in range(n)]
        tp = [F(rng.randint(0, 4)) for _ in range(n)]
        fr = front(list(range(n)), tm, tp)
        cap = morse.front_capacity(fr)
        assert cap == max(a + b for a, b in zip(tm, tp))
        if fr.support:
            assert ops.torsion(morse.front_hom_star(fr)) == cap
        lam = F(rng.randint(1, 5))
        scaled = front(list(range(n)), [lam * v for v in tm], [lam * v for v in tp])
        assert morse.front_capacity(scaled) == lam * cap


def test_front_bimodal_merge_bars():
    # two humps of heights 3 and 2 separated by a width-1 valley
    fr = front([0, 1, 2], [1, 0, 1], [2, 1, 1])
    hs = morse.front_hom_star(fr)
    assert hs == sc.barcode(
        sc.bar(0, 3, degree=-1),
        sc.bar(1, 2, degree=-1),
        sc.bar(-3, 0),
        sc.bar(-2, -1),
    )
