import functools
import random
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc import ops
from sheafcalc.errors import ConvolutionTypeError, TamarkinClassError, ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, Infinity, cmp
from sheafcalc.intervals import spec, stalk
from sheafcalc.stratmodel import rhom_oracle, rhom_sheaf_stalk_oracle

from conftest import mixed_scalars, rand_tamarkin_barcode, stratum_samples

UNIT = sc.barcode(sc.GradedBar(sc.singleton(0)))
HALF_LINE = sc.barcode(sc.bar(0, "+inf"))


def bc(*args):
    return sc.barcode(*args)


# --- convolution -------------------------------------------------------------


def test_convolve_published_case():
    got = ops.convolve(bc(sc.bar(0, 1)), bc(sc.bar(0, 2)))
    assert got == bc(sc.bar(0, 1), sc.bar(2, 3, degree=1))


def test_convolve_unit_and_idempotent(rng):
    for _ in range(25):
        f = rand_tamarkin_barcode(rng)
        assert ops.convolve(f, UNIT) == f
        assert ops.convolve(UNIT, f) == f
        assert ops.convolve(f, HALF_LINE) == f


def test_convolve_rejects_wrong_class():
    bad = bc(sc.GradedBar(sc.interval(0, 1, False, True)))
    with pytest.raises(TamarkinClassError):
        ops.convolve(bad, UNIT)
    # factors are checked before any pair is formed: an empty partner hides nothing
    for f, g in ((bad, sc.EMPTY), (sc.EMPTY, bad)):
        with pytest.raises(TamarkinClassError):
            ops.convolve(f, g)
        with pytest.raises(ConvolutionTypeError):
            ops.convolve_np(f, g)


def test_convolve_singleton_shifts_degrees():
    s = sc.barcode(sc.GradedBar(sc.singleton(2), degree=1))
    assert ops.convolve(bc(sc.bar(0, 1)), s) == bc(sc.bar(2, 3, degree=1))


def test_convolve_singleton_matches_oracle(rng):
    for _ in range(10):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        s = sc.barcode(sc.GradedBar(sc.singleton(F(rng.randint(-4, 4)))))
        out = ops.convolve(f, s)
        for t in stratum_samples(out):
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("proper", f, s, t)


def test_convolve_commutative_associative(rng):
    for _ in range(40):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        h = rand_tamarkin_barcode(rng, max_bars=2)
        assert ops.convolve(f, g) == ops.convolve(g, f)
        assert ops.convolve(ops.convolve(f, g), h) == ops.convolve(f, ops.convolve(g, h))


def test_convolve_triple_against_oracle(rng):
    # table closure of a triple product agrees with the pairwise oracle
    for _ in range(15):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        h = rand_tamarkin_barcode(rng, max_bars=2)
        gh = ops.convolve(g, h)
        out = ops.convolve(f, gh)
        for t in stratum_samples(out):
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("proper", f, gh, t)


def test_convolve_matches_stalk_oracle(rng):
    for _ in range(40):
        f = rand_tamarkin_barcode(rng, max_bars=3)
        g = rand_tamarkin_barcode(rng, max_bars=3)
        out = ops.convolve(f, g)
        for t in stratum_samples(out):
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("proper", f, g, t)


def test_convolve_np_agrees_on_compact_support(rng):
    for _ in range(30):
        f = rand_tamarkin_barcode(rng)
        g = rand_tamarkin_barcode(rng)
        assert ops.convolve_np(f, g) == ops.convolve(f, g)


def test_convolve_np_left_infinite_entries():
    li = bc(sc.bar("-inf", 1, lo_closed=False))
    assert ops.convolve_np(li, HALF_LINE) == li
    got = ops.convolve_np(bc(sc.bar("-inf", 0, lo_closed=False)), bc(sc.bar(0, 2)))
    assert got == bc(sc.bar(0, 2, degree=1))
    with pytest.raises(ConvolutionTypeError):
        ops.convolve_np(li, li)


def test_convolve_np_matches_ordinary_cohomology_oracle(rng):
    for _ in range(30):
        y = F(rng.randint(-5, 5))
        li = bc(sc.bar("-inf", y, lo_closed=False))
        g = rand_tamarkin_barcode(rng, max_bars=3)
        out = ops.convolve_np(li, g)
        for t in stratum_samples(out):
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("non-proper", li, g, t)


def sum_strata(f, g):
    """Every pairwise endpoint sum plus one point inside each gap and both tails."""
    sums = sorted({a + c for a in sc.spec(f) for c in sc.spec(g)})
    return sums + [sums[0] - 1, sums[-1] + 1] + [(a + c) / 2 for a, c in zip(sums, sums[1:])]


def test_convolve_np_singleton_matches_oracle(rng):
    for _ in range(15):
        point = sc.singleton(F(rng.randint(-8, 8), rng.choice((1, 2))))
        s = bc(sc.GradedBar(point, rng.choice((0, 1)), rng.randint(2, 3)))
        left = sc.GradedBar(sc.interval("-inf", F(rng.randint(-5, 5)), False), rng.choice((0, 1)), rng.randint(1, 3))
        tam = [sc.GradedBar(x.interval, x.degree, rng.randint(1, 3)) for x in rand_tamarkin_barcode(rng, max_bars=3).bars]
        for g in (bc(left), bc(*tam), bc(left, *tam)):
            for x, y in ((s, g), (g, s)):
                out = ops.convolve_np(x, y)
                for t in sum_strata(x, y):
                    assert stalk(out, t) == ops.barcode_stalk_via_oracle("non-proper", x, y, t)


def test_exercise_open_interval_convolution_via_oracle():
    # k_(0,1) * k_[0,oo) = k_[1,oo)[-1], checkable only through the oracle
    i = sc.interval(0, 1, False, False)
    j = sc.interval(0, "+inf")
    for t, dims in ((F(2), {1: 1}), (F(1), {1: 1}), (F(1, 2), {}), (F(-1), {})):
        assert ops.stalk_oracle("proper", i, j, t) == sc.HomSpace(dims)


# --- shifts and adjoint ------------------------------------------------------


def test_shift_t_group_action(rng):
    assert ops.shift_t(bc(sc.bar(0, 1)), F(2)) == bc(sc.bar(2, 3))
    for _ in range(20):
        f = rand_tamarkin_barcode(rng)
        assert ops.shift_t(f, F(0)) == f
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        assert ops.shift_t(ops.shift_t(f, a), b) == ops.shift_t(f, a + b)


def test_shifts_commute_with_ops(rng):
    for _ in range(15):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        c = F(rng.randint(-3, 3))
        assert ops.convolve(ops.shift_t(f, c), g) == ops.shift_t(ops.convolve(f, g), c)
        k = rng.randint(-2, 2)
        assert ops.convolve(ops.shift_deg(f, k), g) == ops.shift_deg(ops.convolve(f, g), k)
        # hom_star is contravariant in the source slot
        assert ops.hom_star(ops.shift_t(f, c), g) == ops.shift_t(ops.hom_star(f, g), -c)
        assert ops.hom_star(f, ops.shift_t(g, c)) == ops.shift_t(ops.hom_star(f, g), c)
        assert ops.hom_star(ops.shift_deg(f, k), g) == ops.shift_deg(ops.hom_star(f, g), -k)
        assert ops.hom_star(f, ops.shift_deg(g, k)) == ops.shift_deg(ops.hom_star(f, g), k)


def test_adjoint_values():
    assert ops.adjoint(bc(sc.bar(0, 2))) == bc(sc.bar(-2, 0, degree=-1))
    assert ops.adjoint(HALF_LINE) == bc(sc.bar("-inf", 0, degree=-1, lo_closed=False))


def test_adjoint_involution_on_finite_barcodes(rng):
    # adjoint output on [a,oo) bars leaves the Tamarkin class, so the
    # involution statement is checked on bounded bars only
    for _ in range(20):
        f = rand_tamarkin_barcode(rng, inf_p=0)
        assert ops.adjoint(ops.adjoint(f)) == f


def test_hom_star_anchors():
    g = bc(sc.bar(0, 2))
    assert ops.hom_star(g, g) == bc(sc.bar(-2, 0, degree=-1), sc.bar(0, 2))
    assert ops.hom_star(HALF_LINE, HALF_LINE) == bc(
        sc.bar("-inf", 0, degree=-1, lo_closed=False)
    )
    assert ops.hom_star(bc(sc.bar(0, 1)), bc(sc.bar(0, 3))) == bc(
        sc.bar(-1, 0, degree=-1), sc.bar(2, 3)
    )


def test_hom_star_finite_pair_formula():
    # hom_star (adjoint, then the non-proper convolution table) on one
    # bounded [a,b) x [c,d) pair against the closed formula's summands, with
    # degrees and multiplicities; the mixed pool makes ends tie across
    # types and brings in q*pi + s ends
    rng = random.Random(0x4057)
    pool = mixed_scalars() + [F(k, 3) for k in range(-8, 9)]
    for _ in range(3000):
        (a, b), (c, d) = (sorted(rng.sample(pool, 2)) for _ in range(2))
        if a == b or c == d:
            continue
        i, j = sc.interval(a, b), sc.interval(c, d)
        (di, dj), (mi, mj) = rng.choices(range(-1, 3), k=2), rng.choices((1, 1, 2, 3), k=2)
        got = ops.hom_star(bc(sc.GradedBar(i, di, mi)), bc(sc.GradedBar(j, dj, mj)))
        want = sc.barcode(
            *[sc.GradedBar(iv, dj - di + off, mi * mj) for iv, off in ops.hom_star_pair_formula(i, j)]
        )
        assert got.bars == want.bars
    with pytest.raises(ValidationError):
        ops.hom_star_pair_formula(sc.interval(0, "+inf"), sc.interval(0, 1))


def test_hom_star_matches_stalk_oracle(rng):
    for _ in range(40):
        f = rand_tamarkin_barcode(rng, max_bars=3)
        g = rand_tamarkin_barcode(rng, max_bars=3)
        out = ops.hom_star(f, g)
        for t in stratum_samples(out):
            assert stalk(out, t) == ops.barcode_stalk_via_oracle("hom-star", f, g, t)


def test_subtract_example_profile():
    # graph-type configuration: stalk is k at degree 0 below the gap
    out = ops.hom_star(HALF_LINE, bc(sc.bar(3, "+inf")))
    assert out == bc(sc.bar("-inf", 3, degree=-1, lo_closed=False))
    assert ops.barcode_stalk_via_oracle(
        "hom-star", HALF_LINE, bc(sc.bar(3, "+inf")), F(0)
    ) == sc.HomSpace({-1: 1})


# --- RHom --------------------------------------------------------------------


def test_rhom_total_published_values():
    assert ops.rhom_total(bc(sc.bar(0, 2)), bc(sc.bar(1, 3))) == sc.HomSpace({0: 1})
    assert ops.rhom_total(
        HALF_LINE, bc(sc.bar("-inf", 0, lo_closed=False))
    ) == sc.HomSpace({1: 1})
    assert ops.rhom_total(bc(sc.bar(0, 1)), bc(sc.bar(2, 3))) == sc.HomSpace()


def test_rhom_total_matches_zigzag_oracle(rng):
    for _ in range(80):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        expect = sc.HomSpace()
        for x in f.bars:
            for y in g.bars:
                h = rhom_oracle(x.interval, y.interval)
                expect = expect + sc.HomSpace(
                    {d + y.degree - x.degree: n * x.mult * y.mult for d, n in h.dims.items()}
                )
        assert ops.rhom_total(f, g) == expect


def _rhom_total_reference(f, g):
    """The pairwise cmp loop that the rank-table rhom_total replaced."""
    acc = {}
    for x in f.bars:
        a, b = x.interval.lo.value, x.interval.hi.value
        for y in g.bars:
            c, d = y.interval.lo.value, y.interval.hi.value
            if cmp(a, c) <= 0 and cmp(c, b) < 0 and cmp(b, d) <= 0:
                deg = y.degree - x.degree
            elif cmp(c, a) < 0 and cmp(a, d) <= 0 and cmp(d, b) < 0:
                deg = y.degree - x.degree + 1
            else:
                continue
            acc[deg] = acc.get(deg, 0) + x.mult * y.mult
    return sc.HomSpace(acc)


def test_rhom_total_matches_pairwise_reference():
    rng = random.Random(0x4807)
    pool = mixed_scalars()

    def side(n, left_infinite_p):
        bars = []
        for _ in range(n):
            a, b = sorted(rng.sample(pool, 2), key=functools.cmp_to_key(cmp))
            if cmp(a, b) == 0:
                continue
            u = rng.random()
            if u < left_infinite_p:
                iv = sc.Interval(sc.Endpoint(NEG_INF, False), sc.Endpoint(b, False))
            elif u < left_infinite_p + 0.2:
                iv = sc.interval(a, "+inf")
            else:
                iv = sc.interval(a, b)
            bars.append(sc.GradedBar(iv, rng.randint(0, 2), rng.choice((1, 1, 2, 3))))
        return sc.barcode(*bars)

    for _ in range(150):
        f = side(rng.randint(0, 8), 0)
        g = side(rng.randint(0, 8), 0.25)
        assert ops.rhom_total(f, g) == _rhom_total_reference(f, g)


def test_rhom_total_checks_targets_before_pairs():
    bad = bc(sc.GradedBar(sc.interval(0, 1, False, True)))
    for f in (sc.EMPTY, bc(sc.bar(0, 1))):
        with pytest.raises(ValidationError):
            ops.rhom_total(f, bad)


def test_rhom_sheaf_published_cases():
    out = ops.rhom_sheaf(bc(sc.bar(0, 2)), bc(sc.bar(1, "+inf")))
    assert out == bc(sc.GradedBar(sc.interval(1, 2, True, True)))
    out = ops.rhom_sheaf(bc(sc.bar(0, 2)), bc(sc.bar(-1, "+inf")))
    assert out == bc(sc.GradedBar(sc.interval(0, 2, False, True)))
    out = ops.rhom_sheaf(bc(sc.bar(1, 3)), bc(sc.bar(0, 1)))
    assert out == bc(sc.GradedBar(sc.singleton(1), degree=1))


def test_rhom_sheaf_stalks_match_germ_oracle(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, max_bars=2, degrees=(0,))
        g = rand_tamarkin_barcode(rng, max_bars=2, degrees=(0,))
        out = ops.rhom_sheaf(f, g)
        pts = sorted(set(spec(f)) | set(spec(g)) | set(spec(out)))
        cand = list(pts) + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        if pts:
            cand += [pts[0] - 1, pts[-1] + 1]
        for t in cand:
            expect = sc.HomSpace()
            for x in f.bars:
                for y in g.bars:
                    h = rhom_sheaf_stalk_oracle(x.interval, y.interval, t)
                    expect = expect + sc.HomSpace(
                        {d + y.degree - x.degree: n * x.mult * y.mult for d, n in h.dims.items()}
                    )
            assert stalk(out, t) == expect


def test_rhom_sheaf_sections_reproduce_rhom_total(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        out = ops.rhom_sheaf(f, g)
        got = sc.HomSpace()
        for x in out.bars:
            h = ops.FiberCut(x.interval, "ordinary").cohomology()
            got = got + sc.HomSpace({d + x.degree: n * x.mult for d, n in h.dims.items()})
        assert got == ops.rhom_total(f, g)


# --- adjunction and claim-magic ----------------------------------------------


def test_adjunction_on_dims(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        h = rand_tamarkin_barcode(rng, max_bars=2)
        assert ops.rhom_total(ops.convolve(f, g), h) == ops.rhom_total(f, ops.hom_star(g, h))


def test_claim_magic_over_a_point(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, max_bars=2)
        g = rand_tamarkin_barcode(rng, max_bars=2)
        assert ops.rhom_total(f, g) == ops.rhom_total(HALF_LINE, ops.hom_star(f, g))


def test_self_hom_identity_and_truncation_count(rng):
    for _ in range(40):
        f = rand_tamarkin_barcode(rng, max_bars=3)
        total = ops.rhom_total(f, f)
        assert total.dim(0) >= len(f.bars)
        h = ops.hom_star(f, f)
        n0 = 0
        for x in h.bars:
            lo, hi = x.interval.lo.value, x.interval.hi.value
            if isinstance(hi, Infinity):
                continue
            if (isinstance(lo, Infinity) or lo < 0) and hi >= 0:
                n0 += x.mult
        assert total.total() == n0


# --- torsion and capacities ---------------------------------------------------


def test_torsion_values():
    assert ops.torsion(bc(sc.bar(0, 2))) == 2
    assert ops.torsion(HALF_LINE) is POS_INF
    assert ops.torsion(bc(sc.bar(0, 1), sc.bar(5, 9))) == 4
    assert ops.torsion(sc.GradedBarcode(())) == 0
    assert ops.torsion(bc(sc.bar("-inf", 0, lo_closed=False))) is POS_INF


def test_tau_rank():
    assert ops.tau_rank(bc(sc.bar(0, 2)), F(1)) == sc.HomSpace({0: 1})
    assert ops.tau_rank(bc(sc.bar(0, 2)), F(2)) == sc.HomSpace()
    assert ops.tau_rank(HALF_LINE, F(10**6)) == sc.HomSpace({0: 1})


def test_capacity_anchors():
    assert ops.capacity(bc(sc.bar(0, 2))) == 2
    assert ops.capacity_prime(bc(sc.bar(0, 2))) == 2
    # graph-sheaf model: only infinite bars; self-hom is all (-oo, x) bars
    graphish = bc(sc.bar(0, "+inf"), sc.bar(1, "+inf", degree=1))
    assert ops.capacity(graphish) is POS_INF
    assert ops.capacity_prime(graphish) is POS_INF
    mixed = bc(sc.bar(0, 1), sc.bar(0, "+inf"))
    assert ops.capacity(mixed) is POS_INF  # the infinite bar never dies


def test_capacity_prime_eye_anchor():
    # c' of the eye self-hom k_[0,a+b)[1] + k_[-a-b,0) with a=1, b=2
    h = bc(sc.bar(0, 3, degree=-1), sc.bar(-3, 0))
    best = F(0)
    for x in h.bars:
        lo, hi = x.interval.lo.value, x.interval.hi.value
        if lo < 0 <= hi:
            best = max(best, min(-lo, hi - lo))
    assert best == 3


def test_capacity_prime_below_capacity(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, max_bars=3)
        c, cp = ops.capacity(f), ops.capacity_prime(f)
        if isinstance(cp, Infinity):
            assert isinstance(c, Infinity)
        elif not isinstance(c, Infinity):
            assert cp <= c


# --- stalk oracle tables -------------------------------------------------------


def test_fiber_cut_tables():
    cases = {
        ((True, True), "compact-support"): {0: 1},
        ((False, False), "compact-support"): {1: 1},
        ((True, False), "compact-support"): {},
        ((True, True), "ordinary"): {0: 1},
        ((False, False), "ordinary"): {1: 1},
        ((False, True), "ordinary"): {},
    }
    for (lc, hc), mode in cases:
        cut = ops.FiberCut(sc.interval(0, 1, lc, hc), mode)
        assert cut.cohomology() == sc.HomSpace(cases[((lc, hc), mode)])
    assert ops.FiberCut(None, "ordinary").cohomology() == sc.HomSpace()
    assert ops.FiberCut(sc.interval(0, "+inf"), "compact-support").cohomology() == sc.HomSpace()
    assert ops.FiberCut(sc.interval(0, "+inf"), "ordinary").cohomology() == sc.HomSpace({0: 1})
    assert ops.FiberCut(sc.interval(0, "+inf", False), "ordinary").cohomology() == sc.HomSpace()
    assert ops.FiberCut(sc.interval(0, "+inf", False), "compact-support").cohomology() == sc.HomSpace({1: 1})
    full = sc.interval("-inf", "+inf")
    assert ops.FiberCut(full, "ordinary").cohomology() == sc.HomSpace({0: 1})
    assert ops.FiberCut(full, "compact-support").cohomology() == sc.HomSpace({1: 1})


def test_stalk_oracle_examples():
    assert ops.stalk_oracle("proper", sc.interval(0, 1), sc.interval(0, 2), F(1, 2)) == sc.HomSpace({0: 1})
    # non-proper hom-star configuration below the gap
    assert ops.stalk_oracle("hom-star", sc.interval(0, "+inf"), sc.interval(3, "+inf"), F(0)) == sc.HomSpace({-1: 1})


def test_per_pair_event_sets_match_spec(rng):
    eps = F(1, 4)

    def pair_events(kind, i, j):
        cands = set()
        ends_i = [v for v in (i.lo.value, i.hi.value) if not isinstance(v, Infinity)]
        ends_j = [v for v in (j.lo.value, j.hi.value) if not isinstance(v, Infinity)]
        for a in ends_i:
            for b in ends_j:
                cands.add(a + b)
                cands.add(b - a)
        out = set()
        for c in sorted(cands):
            prof = [ops.stalk_oracle(kind, i, j, t) for t in (c - eps, c, c + eps)]
            if not (prof[0] == prof[1] == prof[2]):
                out.add(c)
        return out

    for _ in range(25):
        f = rand_tamarkin_barcode(rng, max_bars=2, lo=0, hi=4, max_len=8)
        g = rand_tamarkin_barcode(rng, max_bars=2, lo=0, hi=4, max_len=8)
        for x in f.bars:
            for y in g.bars:
                conv = sc.barcode(
                    *[sc.GradedBar(iv, d) for iv, d in ops._convolve_pair(x.interval, y.interval)]
                )
                assert set(spec(conv)) == pair_events("proper", x.interval, y.interval)
                hs = ops.hom_star(bc(sc.GradedBar(x.interval)), bc(sc.GradedBar(y.interval)))
                assert set(spec(hs)) == pair_events("hom-star", x.interval, y.interval)
