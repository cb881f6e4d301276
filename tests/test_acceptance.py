"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them).

Every expected value is either a published anchor or recomputed through an
independent oracle inside the test; nothing is asserted against the
implementation's own output.
"""

import math
import random
import time
from fractions import Fraction as F

import sheafcalc as sc
from sheafcalc import metrics as mt, morse, ops
from sheafcalc import domains as dm
from sheafcalc.exactnum import Infinity
from sheafcalc.intervals import spec, stalk
from sheafcalc.stratmodel import rhom_oracle

from conftest import greedy_plan

SEED = 0x5EAFCA1C


def _report(num, ok, label):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _rand_interval(rng, allow_inf=True):
    a = F(rng.randint(-20, 20))
    if allow_inf and rng.random() < 0.25:
        return sc.interval(a, "+inf")
    return sc.interval(a, a + rng.randint(1, 20))


def _rand_tam(rng, max_bars=3, inf_p=0.25, degrees=(0, 1), lo=-10, hi=10, max_len=10):
    bars = []
    for _ in range(rng.randint(1, max_bars)):
        a = F(rng.randint(lo, hi))
        iv = (
            sc.interval(a, "+inf")
            if rng.random() < inf_p
            else sc.interval(a, a + rng.randint(1, max_len))
        )
        bars.append(sc.GradedBar(iv, rng.choice(degrees)))
    return sc.barcode(*bars)


def test_criterion_01_rhom_tables_vs_strat_oracle():
    rng = random.Random(SEED + 1)
    pairs = [(_rand_interval(rng), _rand_interval(rng)) for _ in range(500)]
    t0 = time.monotonic()
    for i, j in pairs:
        f, g = sc.barcode(sc.GradedBar(i)), sc.barcode(sc.GradedBar(j))
        expect = rhom_oracle(i, j)
        assert ops.rhom_total(f, g) == expect
        out = ops.rhom_sheaf(f, g)
        got = sc.HomSpace()
        for x in out.bars:
            h = ops.FiberCut(x.interval, "ordinary").cohomology()
            got = got + sc.HomSpace({d + x.degree: n * x.mult for d, n in h.dims.items()})
        assert got == expect
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0, f"500 RHom pairs match the quiver oracle in {elapsed:.3f}s (< 1s)")


def test_criterion_02_convolution_oracle_and_anchors():
    rng = random.Random(SEED + 2)
    # three published anchors
    assert ops.convolve(sc.barcode(sc.bar(0, 1)), sc.barcode(sc.bar(0, 2))) == sc.barcode(
        sc.bar(0, 1), sc.bar(2, 3, degree=1)
    )
    unit = sc.barcode(sc.GradedBar(sc.singleton(0)))
    assert ops.convolve(sc.barcode(sc.bar(0, 1)), unit) == sc.barcode(sc.bar(0, 1))
    assert ops.convolve(sc.barcode(sc.bar(0, 1)), sc.barcode(sc.bar(0, "+inf"))) == sc.barcode(
        sc.bar(0, 1)
    )
    eps = F(1, 7)
    for _ in range(200):
        f = _rand_tam(rng, lo=0, hi=6, max_len=8)
        g = _rand_tam(rng, lo=0, hi=6, max_len=8)
        out = ops.convolve(f, g)
        events = spec(out)
        samples = set()
        if events:
            samples.update(v + eps for v in events)
            samples.update(v - eps for v in events)
            samples.add(events[0] - 1)
            samples.add(events[-1] + 1)
        samples.add(F(0) + eps)
        for t in sorted(samples)[:50]:
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("proper", f, g, t)
        # per-pair endpoint events must match the oracle's jump set
        for x in f.bars:
            for y in g.bars:
                pair = ops.convolve(sc.barcode(sc.GradedBar(x.interval)), sc.barcode(sc.GradedBar(y.interval)))
                for e in spec(pair):
                    prof = [
                        ops.stalk_oracle("proper", x.interval, y.interval, t)
                        for t in (e - eps, e, e + eps)
                    ]
                    assert not (prof[0] == prof[1] == prof[2])
    _report(2, True, "convolve matches the stalk oracle on 200 pairs; anchors and events exact")


def test_criterion_03_adjunction():
    rng = random.Random(SEED + 3)
    for _ in range(100):
        f, g, h = (_rand_tam(rng, max_bars=2) for _ in range(3))
        assert ops.rhom_total(ops.convolve(f, g), h) == ops.rhom_total(f, ops.hom_star(g, h))
    _report(3, True, "RHom(f*g, h) = RHom(f, Hom*(g,h)) on 100 random triples")


def test_criterion_04_isometry_vs_brute_force():
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 100:
        b1 = _rand_tam(rng, max_bars=4, inf_p=0.2, degrees=(0,), lo=0, hi=6, max_len=5)
        b2 = _rand_tam(rng, max_bars=4, inf_p=0.2, degrees=(0,), lo=0, hi=6, max_len=5)
        d = mt.bottleneck(b1, b2)
        if isinstance(d, Infinity):
            continue
        assert mt.brute_interleave(b1, b2, d)
        below = d - F(1, 1000)
        if below >= 0:
            assert not mt.brute_interleave(b1, b2, below)
        checked += 1
    _report(4, True, "bottleneck equals brute-force interleaving feasibility on 100 pairs")


def test_criterion_05_capacity_anchors():
    assert ops.capacity(sc.barcode(sc.bar(0, 2))) == 2
    assert ops.capacity_prime(sc.barcode(sc.bar(0, 2))) == 2
    fr = morse.FrontRegion((F(-1), F(0), F(1)), (F(0), F(1), F(0)), (F(0), F(2), F(0)))
    hs = morse.front_hom_star(fr)
    assert hs == sc.barcode(sc.bar(0, 3, degree=-1), sc.bar(-3, 0))
    assert morse.front_capacity(fr) == 3
    assert ops.torsion(hs) == 3
    # c' from the vanishing-threshold rule on the self-hom bars
    cprime = F(0)
    for x in hs.bars:
        lo, hi = x.interval.lo.value, x.interval.hi.value
        if lo < 0 <= hi:
            cprime = max(cprime, min(-lo, hi - lo))
    assert cprime == 3
    graphish = sc.barcode(sc.bar(0, "+inf"), sc.bar(2, "+inf", degree=1))
    assert ops.capacity(graphish) is sc.POS_INF
    assert ops.capacity_prime(graphish) is sc.POS_INF
    _report(5, True, "capacity anchors: c([0,2)) = 2, eye front c' = capacity = 3, graph model = oo")


def test_criterion_06_ball_stalk_vs_eigen_oracle():
    rng = random.Random(SEED + 6)
    t0 = time.monotonic()
    checks = 0
    for n in (1, 2, 3):
        for r in (F(1, 2), F(1), F(2)):
            rsq = r * r
            for M in (8, 16, 32, 64):
                for _ in range(100):
                    m = rng.randint(0, 3)
                    frac = F(rng.randint(2, 98), 100)
                    T = F(round((m + frac) * math.pi * float(rsq) * 10**6), 10**6)
                    cnt = dm.eigen_count(T, r, M)
                    (deg,) = dm.ball_stalk(n, r, T).dims
                    assert deg == n * cnt
                    checks += 1
    elapsed = time.monotonic() - t0
    _report(
        6,
        elapsed < 10.0,
        f"ball stalk degree = n * eigen count, {checks} checks in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_07_sheaf_invariant_and_transfer():
    for n in (1, 2, 3):
        for r in (F(1, 2), F(1), F(2)):
            d = dm.Ball(n, r)
            rsq = r * r
            mids = [dm.pi_times((m + F(1, 2)) * rsq) for m in range(6)]
            for m, T in enumerate(mids):
                assert dm.sheaf_invariant(d, T) == sc.HomSpace({2 * m * n: 1})
            for i, t1 in enumerate(mids):
                for j in range(i, 6):
                    iso = dm.transfer_is_iso(d, t1, mids[j])
                    assert iso == (i == j)
                    if iso:
                        assert dm.sheaf_invariant(d, t1) == dm.sheaf_invariant(d, mids[j])
    _report(7, True, "S_T(B(r)) = k[-2mn] and transfer-iso characterization for m <= 5, n <= 3")


def test_criterion_08_nonsqueezing_grid():
    radii = [F(1, 2) + F(i, 6) for i in range(10)]  # 10 values in [1/2, 2]
    for r1 in radii:
        for r2 in radii:
            v = dm.nonsqueeze_check(2, r1, r2, F(10))
            assert v.obstructed == (r1 > r2)
    v = dm.nonsqueeze_check(2, F(12, 10), F(1), F(10))
    assert v.ball_invariant == sc.HomSpace({0: 1})
    assert v.ellipsoid_invariant == sc.HomSpace({2: 1})
    _report(8, True, "OBSTRUCTED iff r1 > r2 on the 10x10 grid; published trace degrees")


def test_criterion_09_two_route_barcodes():
    rng = random.Random(SEED + 9)
    K = morse.SimplicialComplex.from_maximal(12, [(i, (i + 1) % 12) for i in range(12)])
    for _ in range(50):
        h = morse.VertexFunction(tuple(F(rng.randint(-20, 20)) for _ in range(12)))
        b = morse.sheaf_route_barcode(K, h)  # raises on two-route mismatch
        assert morse.reindex_sheaf_degrees(b, 1) == morse.superlevel_barcode(K, h)
    zero12 = morse.VertexFunction((F(0),) * 12)
    assert morse.sheaf_route_barcode(K, zero12).total_mult() == 2
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    T = morse.SimplicialComplex.from_maximal(7, tris)
    h = morse.VertexFunction(tuple(F(v) for v in (0, -6, 2, 10, -9, -8, 7)))
    b = morse.sheaf_route_barcode(T, h)
    assert morse.reindex_sheaf_degrees(b, 2) == morse.superlevel_barcode(T, h)
    assert morse.sheaf_route_barcode(T, morse.VertexFunction((F(0),) * 7)).total_mult() == 4
    _report(9, True, "superlevel route = sheaf route on 50 circle functions and a torus mesh")


def test_criterion_10_stability_and_torsion_criterion():
    rng = random.Random(SEED + 10)
    K = morse.SimplicialComplex.from_maximal(12, [(i, (i + 1) % 12) for i in range(12)])
    for _ in range(100):
        f = morse.VertexFunction(tuple(F(rng.randint(-8, 8)) for _ in range(12)))
        g = morse.VertexFunction(tuple(F(rng.randint(-8, 8)) for _ in range(12)))
        d = mt.bottleneck(morse.sublevel_barcode(K, f), morse.sublevel_barcode(K, g))
        sup = max(abs(a - b) for a, b in zip(f.values, g.values))
        assert not isinstance(d, Infinity) and d <= sup
    for _ in range(100):
        w = _rand_tam(rng, max_bars=3, inf_p=0.3)
        bars_v = []
        for iv, deg in sc.expanded_bars(w):
            a0 = iv.lo.value + rng.randint(0, 3)
            if isinstance(iv.hi.value, Infinity):
                bars_v.append(sc.GradedBar(sc.interval(a0, "+inf"), deg))
            elif a0 < iv.hi.value:
                bars_v.append(
                    sc.GradedBar(sc.interval(a0, iv.hi.value + rng.randint(0, 3)), deg)
                )
        v = sc.barcode(*bars_v) if bars_v else sc.GradedBarcode(())
        plan = greedy_plan(v, w)
        bound, holds = mt.torsion_bound_check(v, w, plan)
        assert holds
    _report(10, True, "stability bound on 100 pairs; torsion-criterion bound on 100 morphisms")


def test_criterion_11_metric_axioms():
    rng = random.Random(SEED + 11)
    for _ in range(200):
        a = _rand_tam(rng, max_bars=3)
        b = _rand_tam(rng, max_bars=3)
        c = _rand_tam(rng, max_bars=3)
        dab = mt.bottleneck(a, b)
        assert dab == mt.bottleneck(b, a)
        dac, dcb = mt.bottleneck(a, c), mt.bottleneck(c, b)
        if not (isinstance(dac, Infinity) or isinstance(dcb, Infinity)):
            assert not isinstance(dab, Infinity)
            assert dab <= dac + dcb
    empty = sc.GradedBarcode(())
    for _ in range(100):
        f = _rand_tam(rng, max_bars=4, inf_p=0)
        assert ops.torsion(f) == 2 * mt.bottleneck(f, empty)
    _report(11, True, "symmetry, 200 triangle inequalities, torsion = 2 d(f, 0) on 100 barcodes")
