import functools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sheafcalc as sc
from sheafcalc import cli, ops
from sheafcalc.errors import ConvolutionTypeError, TamarkinClassError, ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, Infinity, PiRational, cmp, is_finite
from sheafcalc.intervals import MAX_SCALE_BITS, barcode_to_json, scaled_ends, spec, stalk
from sheafcalc.stratmodel import rhom_oracle, rhom_sheaf_stalk_oracle

from conftest import big_primes, end_kind_intervals, mixed_scalars, rand_tamarkin_barcode, stratum_samples

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


# Laws of the calculus as properties, at most 4 bars a factor.  Ends are
# rationals with denominators up to 4 or q*pi + s values, so both the integer
# and the exact path of the kernel run.
LAWS = settings(max_examples=60, deadline=None)
law_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
law_ends = st.one_of(law_rationals, st.builds(PiRational, st.sampled_from([0, 1, -1]), law_rationals))


def laws_barcodes(singletons=True, half_lines=True):
    lengths = [st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4)]
    if singletons:
        lengths.append(st.just(F(0)))
    if half_lines:
        lengths.append(st.just(POS_INF))

    def make(lo, length, degree, mult):
        iv = sc.singleton(lo) if length == 0 else sc.interval(lo, lo + length)
        return sc.GradedBar(iv, degree, mult)

    bar_ = st.builds(make, law_ends, st.one_of(*lengths), st.integers(-1, 2), st.integers(1, 2))
    return st.lists(bar_, max_size=4).map(lambda bars: sc.barcode(*bars))


@LAWS
@given(laws_barcodes(), laws_barcodes())
def test_convolve_is_commutative(f, g):
    assert ops.convolve(f, g) == ops.convolve(g, f)


@LAWS
@given(laws_barcodes(), laws_barcodes(), laws_barcodes())
def test_convolve_is_associative(f, g, h):
    assert ops.convolve(ops.convolve(f, g), h) == ops.convolve(f, ops.convolve(g, h))


@LAWS
@given(laws_barcodes())
def test_convolve_has_unit_k0(f):
    assert ops.convolve(f, UNIT) == f
    assert ops.convolve(UNIT, f) == f


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
    with pytest.raises(ConvolutionTypeError, match=r"no entry for \(-inf,1\) \* \(-inf,1\)"):
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


@LAWS
@given(laws_barcodes(singletons=False, half_lines=False))
def test_adjoint_is_an_involution_on_bounded_bars(f):
    assert ops.adjoint(ops.adjoint(f)) == f


def test_adjoint_twice_refuses_a_half_line():
    # adjoint sends [a,oo) to (-oo,-a), which adjoint does not take as input
    once = ops.adjoint(bc(sc.bar(0, 1), sc.bar(2, "+inf", degree=1)))
    assert once == bc(sc.bar(-1, 0, degree=-1), sc.bar("-inf", -2, degree=-2, lo_closed=False))
    with pytest.raises(TamarkinClassError):
        ops.adjoint(once)


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
                conv = ops.convolve(bc(sc.GradedBar(x.interval)), bc(sc.GradedBar(y.interval)))
                assert set(spec(conv)) == pair_events("proper", x.interval, y.interval)
                hs = ops.hom_star(bc(sc.GradedBar(x.interval)), bc(sc.GradedBar(y.interval)))
                assert set(spec(hs)) == pair_events("hom-star", x.interval, y.interval)


# --- reference: the Interval-based kernel that the integer endpoint layer replaced
#
# Verbatim copies of the kernel before `ops._bilinear` ran its pair rules on
# `scaled_ends` tuples, with the canonical form it ended in.  The kernel must
# emit the same bytes, and keep the same value objects, on generated inputs.


def ref_lcro(lo, hi):
    """[lo, hi) with extended endpoints; None when empty."""
    if lo >= hi:
        return None
    return sc.Interval(
        sc.Endpoint(lo, is_finite(lo)),
        sc.Endpoint(hi, False),
    )


def ref_is_left_infinite(i):
    return not i.lo.finite and not i.hi.closed and i.hi.finite


def ref_classify_factor(i):
    if i.is_singleton:
        return "singleton"
    if i.lo.finite and i.lo.closed and not i.hi.closed:
        return "tamarkin"
    if ref_is_left_infinite(i):
        return "left-infinite"
    return "other"


def ref_bar_key(x):
    # at equal values a closed left end sorts first, an open right end first
    lo, hi = x.interval.lo, x.interval.hi
    return (x.degree, lo.value, not lo.closed, hi.value, hi.closed)


def ref_canonicalize(b):
    """Sort by (degree, lo, hi) and merge equal bars into multiplicity; a
    merged bar keeps the interval of the last bar of its (stable) run."""
    out = []
    prev = None
    for bar_ in sorted(b.bars, key=ref_bar_key):
        key = ref_bar_key(bar_)
        if key == prev:
            out[-1] = sc.GradedBar(bar_.interval, bar_.degree, out[-1].mult + bar_.mult)
        else:
            out.append(bar_)
        prev = key
    return sc.GradedBarcode(tuple(out))


def ref_bilinear(f, g, pair, contravariant=False):
    """Extend a per-pair rule bilinearly over the bars of f and g.

    pair(i, j) lists the (interval, degree offset) summands of one bar pair.
    A summand sits in degree deg y + deg x + offset (deg y - deg x + offset
    when the operation is contravariant in f) with multiplicity
    mult x * mult y.
    """
    out = []
    for x in f.bars:
        dx = -x.degree if contravariant else x.degree
        for y in g.bars:
            deg, mult = y.degree + dx, x.mult * y.mult
            for iv, off in pair(x.interval, y.interval):
                out.append(sc.GradedBar(iv, deg + off, mult))
    return ref_canonicalize(sc.GradedBarcode(tuple(out)))


def ref_convolve_pair(i, j):
    """k_[a,b) * k_[c,d) as (interval, degree offset) summands.

    A singleton {s} acts as the shift by s.  The finite rule is the
    two-branch case split on b+c < a+d.  The same code serves infinite
    right ends: both candidate bars are formed with extended sums and empty
    ones dropped, and when b and d are both +oo, +oo < +oo is False and
    selects the second branch.
    """
    if i.is_singleton:
        return [(j.shift(i.lo.value), 0)]
    if j.is_singleton:
        return [(i.shift(j.lo.value), 0)]
    a, b = i.lo.value, i.hi.value
    c, d = j.lo.value, j.hi.value
    if b + c < a + d:
        cand = [(ref_lcro(a + c, b + c), 0), (ref_lcro(a + d, b + d), 1)]
    else:
        cand = [(ref_lcro(a + c, a + d), 0), (ref_lcro(b + c, b + d), 1)]
    return [(iv, off) for iv, off in cand if iv is not None]


def ref_convolve_np_pair(i, j):
    ci, cj = ref_classify_factor(i), ref_classify_factor(j)
    if "singleton" in (ci, cj) or ci == cj == "tamarkin":
        # a shift, or a sum map that is proper on the support
        return ref_convolve_pair(i, j)
    if cj == "left-infinite" and ci != "left-infinite":
        i, j, ci, cj = j, i, cj, ci
    if ci == "left-infinite" and cj == "tamarkin":
        y = i.hi.value
        c, d = j.lo.value, j.hi.value
        if isinstance(d, Infinity):
            # (-oo,y) *np [c,oo) = (-oo, y+c)
            iv = ref_lcro(NEG_INF, y + c)
            return [(iv, 0)] if iv is not None else []
        # (-oo,y) *np [c,d) = k_[y+c, y+d)[-1]
        iv = ref_lcro(y + c, y + d)
        return [(iv, 1)] if iv is not None else []
    raise ConvolutionTypeError(
        f"non-proper convolution table has no entry for {i} * {j}"
    )


def ref_rhom_sheaf_pair(i, j):
    """Sheaf-valued RHom of a bar pair as (interval, degree offset) summands.

    Case table for source [a,b) against [c,oo) and its truncations; the
    [a,oo) source column replaces the (a,b] outputs by (a,oo).  Outputs
    realize all four interval flavors and the singleton.
    """
    a, b = i.lo.value, i.hi.value
    c, d = j.lo.value, j.hi.value

    def of(lo, lo_cl, hi, hi_cl):
        return sc.Interval(sc.Endpoint(lo, lo_cl and is_finite(lo)), sc.Endpoint(hi, hi_cl and is_finite(hi)))

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
        return [(sc.singleton(a), 1)]
    return []


def ref_adjoint(f):
    return ref_canonicalize(sc.GradedBarcode(tuple(
        sc.GradedBar(x.interval.reflect_swap(), -x.degree - 1, x.mult) for x in f.bars
    )))


REF_OPS = {
    "convolve": (ops.convolve, lambda f, g: ref_bilinear(f, g, ref_convolve_pair)),
    "convolve_np": (ops.convolve_np, lambda f, g: ref_bilinear(f, g, ref_convolve_np_pair)),
    "hom_star": (ops.hom_star, lambda f, g: ref_bilinear(ref_adjoint(f), g, ref_convolve_np_pair)),
    "rhom_sheaf": (ops.rhom_sheaf, lambda f, g: ref_bilinear(f, g, ref_rhom_sheaf_pair, contravariant=True)),
}

PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))][:60]
HALVES = [F(k, 2) for k in range(-8, 9)]


def ref_pool(rng, mode):
    """Finite end values for one generated pair.

    small: denominators 1 to 4.  coprime: one prime denominator per value,
    over the first 60 primes.  pi: halves, each also as PiRational(0, s),
    beside q*pi + s values, so that equal ends of both types meet in a run.
    """
    if mode == "small":
        return [F(rng.randint(-12 * q, 12 * q), q) for q in (1, 2, 3, 4) for _ in range(4)]
    if mode == "coprime":
        return [F(p * rng.randint(-9, 8) + rng.randint(1, p - 1), p) for p in rng.sample(PRIMES, len(PRIMES))]
    pis = [PiRational(q, s) for q in (-1, 1, F(1, 2)) for s in (F(-3), F(-1, 2), F(1))]
    return HALVES + [PiRational(0, s) for s in HALVES] + pis


def ref_side(rng, pool, n, kinds):
    """n bars over pool, of the given kinds; any degree in 0..2, mult 1 to 3."""
    bars = []
    while len(bars) < n:
        kind = rng.choice(kinds)
        a, b = sorted(rng.sample(pool, 2))
        if kind == "singleton":
            iv = sc.singleton(a)
        elif kind == "left-infinite":
            iv = sc.interval("-inf", b, False)
        elif kind == "half-line":
            iv = sc.interval(a, "+inf")
        elif a == b:
            continue
        else:
            iv = sc.interval(a, b)
        bars.append(sc.GradedBar(iv, rng.randint(0, 2), rng.choice((1, 1, 1, 2, 3))))
    return sc.GradedBarcode(tuple(bars))


def ref_pair(rng, op, mode, n_max):
    """A generated factor pair that `op` admits."""
    pool = ref_pool(rng, mode)
    tam = ["bar", "bar", "bar", "half-line"]
    kinds_f = kinds_g = tam
    if op == "convolve":
        kinds_f = kinds_g = tam + ["singleton"]
    elif op == "convolve_np":
        kinds_f, kinds_g = tam + ["singleton", "left-infinite"], tam + ["singleton"]
        if rng.random() < 0.5:
            kinds_f, kinds_g = kinds_g, kinds_f
    f = ref_side(rng, pool, rng.randint(1, n_max), kinds_f)
    g = ref_side(rng, pool, rng.randint(1, n_max), kinds_g)
    return f, g


def ref_wide_pair(rng):
    """15 bounded bars a side that use every value of a coprime pool once."""
    pool = ref_pool(rng, "coprime")

    def side(values):
        return sc.GradedBarcode(tuple(
            sc.GradedBar(sc.interval(*sorted(values[k : k + 2])), rng.randint(0, 2)) for k in range(0, len(values), 2)
        ))

    return side(pool[:30]), side(pool[30:])


def emitted(b):
    return cli._dump(barcode_to_json(b))


@pytest.mark.parametrize("op", sorted(REF_OPS))
def test_bilinear_matches_interval_reference(op):
    # 500 generated pairs per op, 2,000 in all, plus a few wide ones whose
    # scale is the lcm of 50 or more coprime denominators
    rng = random.Random(f"bilinear-reference:{op}")
    new, ref = REF_OPS[op]
    cases = [ref_pair(rng, op, mode, 6) for _ in range(166) for mode in ("small", "coprime", "pi")]
    cases += [ref_pair(rng, op, mode, 6) for mode in ("small", "pi")]
    cases += [ref_wide_pair(rng) for _ in range(4)]
    assert len(cases) >= 500
    merged = wide = 0
    for f, g in cases:
        got, want = new(f, g), ref(f, g)
        assert emitted(got) == emitted(want)
        # the same value objects too: a merged bar keeps the last bar's
        # values, a Fraction or a PiRational(0, s) of equal value
        assert repr(got) == repr(want)
        merged += any(x.mult > 1 for x in want.bars)
        wide += len({e.value.denominator for x in f.bars + g.bars for e in (x.interval.lo, x.interval.hi)
                     if isinstance(e.value, F)}) >= 50
    assert merged > 50 and wide >= 4


def test_op_kinds_match_reference_classes():
    # every end kind on each side: the old factor classes decide which bars
    # each op admits, and the np pair rule's flag test picks the old branch
    ivs = end_kind_intervals()
    admitted = {
        (ops.convolve, TamarkinClassError): ("tamarkin", "singleton"),
        (ops.convolve_np, ConvolutionTypeError): ("tamarkin", "singleton", "left-infinite"),
    }
    for i in ivs:
        b = bc(sc.GradedBar(i))
        for (op, error), ok in admitted.items():
            if ref_classify_factor(i) in ok:
                op(b, UNIT)
            else:
                with pytest.raises(error, match="unsupported bar"):
                    op(b, UNIT)
        if ref_classify_factor(i) in ("tamarkin", "left-infinite"):
            ops.rhom_total(HALF_LINE, b)
        else:
            with pytest.raises(ValidationError, match="unsupported target bar"):
                ops.rhom_total(HALF_LINE, b)
    np_ivs = [i for i in ivs if ref_classify_factor(i) != "other"]
    pairs = 0
    for i in np_ivs:
        for j in np_ivs:
            f, g = bc(sc.GradedBar(i)), bc(sc.GradedBar(j, 1))
            if ref_classify_factor(i) == ref_classify_factor(j) == "left-infinite":
                with pytest.raises(ConvolutionTypeError, match="no entry"):
                    ops.convolve_np(f, g)
            else:
                assert emitted(ops.convolve_np(f, g)) == emitted(ref_bilinear(f, g, ref_convolve_np_pair))
                pairs += 1
    assert pairs > 200


def prime_side(rng, primes):
    """One bar per two primes, each end over its own prime; a few [a,oo)
    bars, and every tenth bar repeated so that runs merge."""
    bars = []
    for p, q in zip(primes[::2], primes[1::2]):
        a = F(rng.randint(-20 * p, 20 * p), p)
        iv = sc.interval(a, "+inf") if rng.random() < 0.05 else sc.interval(a, a + F(rng.randint(1, 10 * q), q))
        bars.append(sc.GradedBar(iv, rng.randint(0, 2), rng.choice((1, 1, 2))))
    return sc.GradedBarcode(tuple(bars + bars[::10]))


def test_scale_cap_is_derived_from_the_input():
    # 40-bit prime denominators: 24 of them fit under the cap, 26 do not
    ps = big_primes(40, 26)
    under = scaled_ends(sc.singleton(F(1, p)) for p in ps[:24])[1]
    assert under is not None and under.bit_length() <= MAX_SCALE_BITS
    assert scaled_ends(sc.singleton(F(1, p)) for p in ps)[1] is None


def test_bilinear_past_the_scale_cap_matches_reference():
    # 2,000 bars whose ends have distinct 40-bit prime denominators: their
    # lcm would have about 160,000 bits, so the canonical sort and the
    # kernel run on the Fraction values instead of scaled integers
    rng = random.Random("scale-cap")
    ps = big_primes(40, 4002)
    f, g = prime_side(rng, ps[:4000]), prime_side(rng, ps[4000:])
    assert scaled_ends(x.interval for x in f.bars + g.bars)[1] is None
    start = time.perf_counter()
    canon, got = sc.canonicalize(f), ops.convolve(f, g)
    assert time.perf_counter() - start < 3
    assert repr(canon) == repr(ref_canonicalize(f))
    want = ref_bilinear(f, g, ref_convolve_pair)
    assert emitted(got) == emitted(want)
    assert repr(got) == repr(want)
    assert any(x.mult > 1 for x in want.bars)
