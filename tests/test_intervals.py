import functools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sheafcalc as sc
from sheafcalc.exactnum import NEG_INF, POS_INF, PiRational, is_finite, scalar_to_json
from sheafcalc.errors import ConventionError, TamarkinClassError, ValidationError
from sheafcalc.intervals import (
    LEFT_CLOSED,
    LEFT_INFINITE,
    MIXED,
    RIGHT_CLOSED,
    SINGLETON,
    TAMARKIN,
    barcode_from_json,
    barcode_json_text,
    barcode_to_json,
    flavor,
)

from conftest import end_kind_intervals, end_kind_pairs, mixed_scalars, rand_tamarkin_barcode, random_interval, twin


def test_empty_and_degenerate_intervals_rejected():
    with pytest.raises(ValidationError):
        sc.interval(2, 1)
    with pytest.raises(ValidationError):
        sc.interval(1, 1)  # [1,1) is empty
    assert sc.singleton(1).is_singleton


def test_canonicalize_merges_equal_bars():
    b = sc.GradedBarcode((sc.bar(0, 1), sc.bar(0, 1)))
    cb = sc.canonicalize(b)
    assert len(cb.bars) == 1 and cb.bars[0].mult == 2
    assert cb.total_mult() == 2


def test_canonicalize_empty_and_sorting():
    assert sc.canonicalize(sc.GradedBarcode(())).bars == ()
    b = sc.GradedBarcode((sc.bar(2, 3, degree=1), sc.bar(0, 1)))
    cb = sc.canonicalize(b)
    assert cb.bars[0].interval.lo.value == 0 and cb.bars[0].degree == 0


def _canonicalize_reference(b):
    """The cmp_to_key sort and merge that canonicalize replaced."""

    def ep_key(e, is_lo):
        return (0 if e.closed else 1) if is_lo else (0 if not e.closed else 1)

    def bar_cmp(x, y):
        if x.degree != y.degree:
            return -1 if x.degree < y.degree else 1
        for a, c, is_lo in ((x.interval.lo, y.interval.lo, True), (x.interval.hi, y.interval.hi, False)):
            k = sc.cmp(a.value, c.value)
            if k:
                return k
            ka, kc = ep_key(a, is_lo), ep_key(c, is_lo)
            if ka != kc:
                return -1 if ka < kc else 1
        return 0

    out = []
    for bar_ in sorted(b.bars, key=functools.cmp_to_key(bar_cmp)):
        if out and bar_cmp(out[-1], bar_) == 0:
            out[-1] = sc.GradedBar(bar_.interval, bar_.degree, out[-1].mult + bar_.mult)
        else:
            out.append(bar_)
    return sc.GradedBarcode(tuple(out))


def test_canonicalize_matches_cmp_sort_reference():
    rng = random.Random(0xCA70)
    pool = mixed_scalars() + [NEG_INF, POS_INF]
    for _ in range(200):
        # few distinct intervals on few values, repeated, so runs of equal
        # bars and bars differing only in one closed flag occur
        values = rng.sample(pool, 4)
        shapes = [random_interval(rng, values) for _ in range(rng.randint(1, 8))]
        bars = [
            sc.GradedBar(rng.choice(shapes), rng.randint(0, 2), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randint(0, 25))
        ]
        # an equal bar whose ends are PiRational(0, s) where the others hold s
        for x in list(bars[:3]):
            lo, hi = x.interval.lo, x.interval.hi
            if all(isinstance(e.value, F) for e in (lo, hi)):
                twin = [sc.Endpoint(PiRational(0, e.value), e.closed) for e in (lo, hi)]
                bars.append(sc.GradedBar(sc.Interval(*twin), x.degree, x.mult))
        rng.shuffle(bars)
        b = sc.GradedBarcode(tuple(bars))
        want, got = _canonicalize_reference(b), sc.canonicalize(b)
        assert got.bars == want.bars
        # the merged bar keeps the same representative interval object
        assert all(g.interval is w.interval for g, w in zip(got.bars, want.bars))


def _intersect_reference(i, j):
    """The cmp-based Interval.intersect that the native max/min replaced."""
    lo = i.lo
    c = sc.cmp(j.lo.value, lo.value)
    if c > 0 or (c == 0 and not j.lo.closed):
        lo = j.lo
    hi = i.hi
    c = sc.cmp(j.hi.value, hi.value)
    if c < 0 or (c == 0 and not j.hi.closed):
        hi = j.hi
    c = sc.cmp(lo.value, hi.value)
    if c > 0 or (c == 0 and not (lo.closed and hi.closed)):
        return None
    return sc.Interval(lo, hi)


def test_intersect_matches_cmp_reference():
    rng = random.Random(0x1A7E)
    pool = mixed_scalars() + [NEG_INF, POS_INF]
    for _ in range(3000):
        # few values per pair, so that ends tie and differ in one flag
        values = rng.sample(pool, 4)
        i, j = random_interval(rng, values), random_interval(rng, values)
        if rng.random() < 0.25:
            j = twin(j)  # equal ends held as PiRational(0, s) against s
        # equal ends with equal flags may come from either side (the
        # reference took j's when open, i's when closed; intersect keeps
        # i's), so the values are compared, which print the same either way
        assert i.intersect(j) == _intersect_reference(i, j)


def _canon_shape(x, y, lo_closed, hi_closed):
    """An interval on x and y in either order; a singleton when they tie."""
    lo, hi = sorted((x, y), key=functools.cmp_to_key(sc.cmp))
    if sc.cmp(lo, hi) == 0:
        return sc.singleton(lo if is_finite(lo) else F(0))
    return sc.interval(lo, hi, lo_closed, hi_closed)


@st.composite
def canon_barcodes(draw):
    """Few shapes over Fraction, q*pi + s and infinite ends, each also as its
    PiRational(0, s) twin, repeated with any degree and multiplicity."""
    pool = st.sampled_from(mixed_scalars() + [NEG_INF, POS_INF])
    shapes = draw(st.lists(st.builds(_canon_shape, pool, pool, st.booleans(), st.booleans()), min_size=1, max_size=4))
    shapes += [twin(i) for i in shapes]
    bar_ = st.builds(sc.GradedBar, st.sampled_from(shapes), st.integers(0, 2), st.integers(1, 3))
    return sc.GradedBarcode(tuple(draw(st.lists(bar_, max_size=12))))


@settings(max_examples=200, deadline=None)
@given(canon_barcodes())
def test_canonical_mark_never_lies(b):
    c = sc.canonicalize(b)
    assert c._canonical and not b._canonical
    assert sc.canonicalize(c) is c
    # an unmarked copy of the canonical bars sorts back to the same objects
    assert repr(sc.canonicalize(sc.GradedBarcode(c.bars))) == repr(c)
    assert c.bars == _canonicalize_reference(b).bars


def test_canonicalize_idempotent(rng):
    for _ in range(30):
        b = rand_tamarkin_barcode(rng)
        assert sc.canonicalize(sc.canonicalize(b)) == sc.canonicalize(b)


def test_stalk_respects_endpoint_flags():
    b = sc.barcode(sc.bar(0, 2))
    assert sc.stalk(b, F(0)) == sc.HomSpace({0: 1})
    assert sc.stalk(b, F(2)) == sc.HomSpace()
    oc = sc.barcode(sc.GradedBar(sc.interval(0, 2, False, True), 1))
    assert sc.stalk(oc, F(0)) == sc.HomSpace()
    assert sc.stalk(oc, F(2)) == sc.HomSpace({1: 1})


def test_stalk_constant_on_strata(rng):
    for _ in range(20):
        b = rand_tamarkin_barcode(rng)
        s = sc.spec(b)
        for a, c in zip(s, s[1:]):
            third = (c - a) / 3
            assert sc.stalk(b, a + third) == sc.stalk(b, a + 2 * third)


def test_spec():
    b = sc.barcode(sc.bar(0, 2), sc.bar(1, "+inf"))
    assert sc.spec(b) == [0, 1, 2]
    assert sc.spec(sc.GradedBarcode(())) == []
    b3 = sc.barcode(sc.bar(0, 2, mult=3))
    assert sc.spec(b3) == [0, 2]


def _spec_reference(b):
    """The quadratic first-seen dedupe and cmp sort that spec replaced."""
    vals = []
    for bar_ in b.bars:
        for e in (bar_.interval.lo, bar_.interval.hi):
            if e.finite and not any(sc.cmp(e.value, v) == 0 for v in vals):
                vals.append(e.value)
    return sorted(vals, key=functools.cmp_to_key(sc.cmp))


def test_spec_mixed_equal_ends_keep_first_seen(rng):
    half = PiRational(0, F(1, 2))
    b = sc.GradedBarcode(
        (
            sc.GradedBar(sc.interval(half, PiRational(1, 0))),
            sc.GradedBar(sc.interval(F(1, 2), 2)),
            sc.GradedBar(sc.interval(-1, PiRational(0, 2))),
        )
    )
    got = sc.spec(b)
    assert got == [-1, F(1, 2), 2, PiRational(1, 0)]
    assert [type(v) for v in got] == [F, PiRational, F, PiRational]

    def end(v):
        return PiRational(0, v) if rng.random() < 0.5 else v

    for _ in range(40):
        bars = []
        for _ in range(rng.randint(1, 8)):
            a = F(rng.randint(-6, 6), 2)
            hi = PiRational(rng.randint(1, 2), a) if rng.random() < 0.3 else end(a + rng.randint(1, 4))
            bars.append(sc.GradedBar(sc.interval(end(a), hi)))
        b = sc.GradedBarcode(tuple(bars))
        want = _spec_reference(b)
        got = sc.spec(b)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]


def test_spec_scales(rng):
    import time

    bars = []
    for k in range(2000):
        a = F(rng.randint(-4000, 4000), rng.choice((1, 2, 3)))
        hi = PiRational(rng.randint(1, 3), a) if k % 10 == 0 else a + rng.randint(1, 50)
        bars.append(sc.GradedBar(sc.interval(a, hi)))
    b = sc.GradedBarcode(tuple(bars))
    t0 = time.perf_counter()
    got = sc.spec(b)
    assert time.perf_counter() - t0 < 1.0
    assert all(sc.cmp(x, y) < 0 for x, y in zip(got, got[1:]))


def test_ray_sections_rule():
    assert sc.ray_sections(sc.barcode(sc.bar(0, "+inf")), F(1)) == sc.HomSpace({0: 1})
    assert sc.ray_sections(sc.barcode(sc.bar(0, 1)), F(2)) == sc.HomSpace()
    assert sc.ray_sections(sc.barcode(sc.bar(0, 3)), F(1)) == sc.HomSpace({0: 1})
    with pytest.raises(TamarkinClassError):
        sc.ray_sections(sc.barcode(sc.GradedBar(sc.interval(0, 1, False, True))), F(1))


def test_ray_sections_constant_between_spec(rng):
    for _ in range(20):
        b = rand_tamarkin_barcode(rng)
        s = sc.spec(b)
        for a, c in zip(s, s[1:]):
            third = (c - a) / 3
            assert sc.ray_sections(b, a + third) == sc.ray_sections(b, a + 2 * third)


def test_ray_sections_against_quiver_oracle(rng):
    # sections over the open ray (-oo, c) are RHom(k_(-oo,c), -), which the
    # stratification-model oracle computes independently of the per-bar rule
    from sheafcalc.stratmodel import rhom_oracle

    for _ in range(25):
        b = rand_tamarkin_barcode(rng, max_bars=3)
        cs = sc.spec(b) or [F(0)]
        probes = list(cs) + [cs[0] - 1, cs[-1] + 1] + [
            (x + y) / 2 for x, y in zip(cs, cs[1:])
        ]
        for c in probes:
            ray = sc.interval("-inf", c, False, False)
            expect = sc.HomSpace()
            for iv, deg in sc.expanded_bars(b):
                h = rhom_oracle(ray, iv)
                expect = expect + sc.HomSpace({d + deg: n for d, n in h.dims.items()})
            assert sc.ray_sections(b, c) == expect


def test_expanded_bars_refused_past_cap_before_building():
    # a list of 10**30 entries cannot be built at all, so reaching the
    # ValidationError shows the count was checked first
    for mult in (10**30, sc.intervals.MAX_EXPANDED + 1):
        with pytest.raises(ValidationError, match="20000 bars"):
            sc.expanded_bars(sc.barcode(sc.bar(0, 1, mult=mult)))
    half = sc.intervals.MAX_EXPANDED // 2
    at_cap = sc.barcode(sc.bar(0, 1, mult=half), sc.bar(0, 2, degree=1, mult=half))
    assert len(sc.expanded_bars(at_cap)) == sc.intervals.MAX_EXPANDED


def test_convention_inference():
    assert sc.barcode(sc.bar(0, 1)).convention == LEFT_CLOSED
    rc = sc.barcode(sc.GradedBar(sc.interval(0, 1, False, True)))
    assert rc.convention == RIGHT_CLOSED
    mixed = sc.barcode(sc.bar(0, 1), sc.GradedBar(sc.interval(2, 3, False, True)))
    assert mixed.convention == MIXED
    assert sc.barcode(sc.GradedBar(sc.singleton(0))).convention == LEFT_CLOSED


# -- the per-family predicates and `convention` loop that `flavor` replaced,
# kept as its reference


def ref_order_fault(lo, hi):
    """The start of the message the two-compare order check raised, or None."""
    if lo.value > hi.value:
        return "empty interval"
    if lo.value == hi.value and not (lo.closed and hi.closed):
        return "degenerate interval"
    return None


def ref_is_tamarkin(i):
    return i.lo.finite and i.lo.closed and not i.hi.closed


def ref_is_left_closed_family(i):
    """[a,b)-flavor, degenerately allowing an open -inf left end."""
    lo_ok = i.lo.closed or not i.lo.finite
    return lo_ok and not i.hi.closed


def ref_is_right_closed_family(i):
    hi_ok = i.hi.closed or not i.hi.finite
    return hi_ok and not i.lo.closed


def ref_convention(b):
    tags = set()
    for bar in b.bars:
        if bar.interval.is_singleton:
            continue
        if ref_is_left_closed_family(bar.interval):
            tags.add(LEFT_CLOSED)
        elif ref_is_right_closed_family(bar.interval):
            tags.add(RIGHT_CLOSED)
        else:
            tags.add(MIXED)
    if not tags:
        return LEFT_CLOSED
    if len(tags) > 1:
        return MIXED
    return tags.pop()


def test_interval_order_check_matches_reference():
    pairs = end_kind_pairs()
    for lo, hi in pairs:
        fault = ref_order_fault(lo, hi)
        if fault is None:
            sc.Interval(lo, hi)
        else:
            with pytest.raises(ValidationError, match=fault):
                sc.Interval(lo, hi)
    assert {ref_order_fault(lo, hi) for lo, hi in pairs} == {None, "empty interval", "degenerate interval"}


def test_flavor_matches_reference_predicates():
    ivs = end_kind_intervals()
    for i in ivs:
        k = flavor(i)
        assert (k == SINGLETON) == i.is_singleton
        assert (k == TAMARKIN) == ref_is_tamarkin(i)
        assert (k == LEFT_INFINITE) == (not i.lo.finite and not i.hi.closed and i.hi.finite)
        assert sc.GradedBarcode((sc.GradedBar(i),)).convention == ref_convention(sc.GradedBarcode((sc.GradedBar(i),)))
    assert {flavor(i) for i in ivs} == {SINGLETON, TAMARKIN, LEFT_INFINITE, LEFT_CLOSED, RIGHT_CLOSED, MIXED}
    for i in ivs:
        for j in ivs:
            b = sc.GradedBarcode((sc.GradedBar(i), sc.GradedBar(j, 1)))
            assert b.convention == ref_convention(b)


def test_convention_matches_reference_on_generated_barcodes(rng):
    pool = mixed_scalars() + [NEG_INF, POS_INF]
    tags = set()
    for _ in range(1000):
        b = sc.GradedBarcode(tuple(sc.GradedBar(random_interval(rng, pool)) for _ in range(rng.randint(0, 5))))
        assert b.convention == ref_convention(b)
        tags.add(b.convention)
    assert tags == {LEFT_CLOSED, RIGHT_CLOSED, MIXED}


def test_convert_convention():
    # the persistence <-> sheaf equivalence fixes interval data
    v = sc.barcode(sc.GradedBar(sc.interval(1, 2, False, True)))
    assert sc.convert_convention(v, RIGHT_CLOSED) == v
    assert sc.convert_convention(sc.GradedBarcode(()), LEFT_CLOSED) == sc.GradedBarcode(())
    # reparametrization variant: t -> -t
    got = sc.convert_convention(v, LEFT_CLOSED)
    assert got == sc.barcode(sc.bar(-2, -1))
    # round trip
    assert sc.convert_convention(got, RIGHT_CLOSED) == v
    with pytest.raises(ConventionError):
        sc.convert_convention(
            sc.barcode(sc.bar(0, 1), sc.GradedBar(sc.interval(2, 3, False, True))),
            LEFT_CLOSED,
        )


def test_reflect_involution(rng):
    for _ in range(20):
        b = rand_tamarkin_barcode(rng)
        assert sc.reflect_barcode(sc.reflect_barcode(b)) == b


def test_ss_describe():
    d = sc.ss_describe(sc.interval(0, 2))
    assert d.base == sc.interval(0, 2, True, True)
    assert d.rays == ((F(0), 1), (F(2), 1))
    s = sc.ss_describe(sc.singleton(3))
    assert s.rays == ((F(3), 0),)
    h = sc.ss_describe(sc.interval(1, "+inf"))
    assert h.rays == ((F(1), 1),)
    oc = sc.ss_describe(sc.interval(0, 2, False, True))
    assert oc.rays == ((F(0), -1), (F(2), -1))
    op = sc.ss_describe(sc.interval(0, 2, False, False))
    assert op.rays == ((F(0), -1), (F(2), 1))
    cc = sc.ss_describe(sc.interval(0, 2, True, True))
    assert cc.rays == ((F(0), 1), (F(2), -1))


def test_barcode_json_schema_round_trip(rng):
    for _ in range(20):
        b = rand_tamarkin_barcode(rng)
        j = barcode_to_json(b)
        assert barcode_from_json(json.loads(json.dumps(j))) == b
    # the documented shape
    j = barcode_to_json(sc.barcode(sc.bar(0, 2)))
    assert j == {
        "convention": "left-closed",
        "bars": [
            {
                "lo": {"v": "0", "closed": True},
                "hi": {"v": "2", "closed": False},
                "deg": 0,
                "mult": 1,
            }
        ],
    }


def test_barcode_json_infinite_and_pi_endpoints():
    from sheafcalc.exactnum import PiRational

    b = sc.barcode(
        sc.bar("-inf", 0, lo_closed=False),
        sc.GradedBar(sc.interval(PiRational(F(1), F(0)), PiRational(F(2), F(0)))),
    )
    j = barcode_to_json(b)
    assert barcode_from_json(j) == b
    lows = {json.dumps(rec["lo"]["v"], sort_keys=True) for rec in j["bars"]}
    assert '"-inf"' in lows


def test_declared_convention_mismatch_rejected():
    j = barcode_to_json(sc.barcode(sc.bar(0, 2)))
    j["convention"] = "right-closed"
    with pytest.raises(ValidationError):
        barcode_from_json(j)


def _ref_barcode_to_json(b):
    """The dict builder that `barcode_json_text` replaced: every end through
    `scalar_to_json`, encoded by json.dumps."""
    cb = sc.canonicalize(b)
    return {
        "convention": cb.convention,
        "bars": [
            {
                "lo": {"v": scalar_to_json(x.interval.lo.value), "closed": x.interval.lo.closed},
                "hi": {"v": scalar_to_json(x.interval.hi.value), "closed": x.interval.hi.closed},
                "deg": x.degree,
                "mult": x.mult,
            }
            for x in cb.bars
        ],
    }


def _assert_writer_matches_reference(b):
    want = _ref_barcode_to_json(b)
    assert barcode_json_text(b) == json.dumps(want, sort_keys=True, separators=(",", ":"))
    assert barcode_to_json(b) == want


def _graded_bars(rng, pool, shared):
    """Up to 8 bars on `random_interval`s of pool, in no order, with degrees
    -2..2 and mults 1..3; about a third repeat an earlier interval and degree,
    so canonical form merges them.  When shared, every end with the same
    (kind, value, closed) is one Endpoint object."""
    ends = {}

    def one(e):
        return ends.setdefault((type(e.value), e.value, e.closed), e) if shared else e

    bars = []
    for _ in range(rng.randint(1, 8)):
        if bars and rng.random() < 0.3:
            i, d = rng.choice(bars)[:2]
        else:
            x = random_interval(rng, pool)
            i, d = sc.Interval(one(x.lo), one(x.hi)), rng.randint(-2, 2)
        bars.append((i, d, rng.randint(1, 3)))
    return sc.GradedBarcode(tuple(sc.GradedBar(*x) for x in bars))


def test_barcode_json_text_matches_the_reference(rng):
    pool = mixed_scalars() + [F(7), F(-3, 4), NEG_INF, POS_INF]
    seen = set()
    for trial in range(400):
        b = _graded_bars(rng, pool, shared=trial % 2 == 0)
        _assert_writer_matches_reference(b)
        cb = sc.canonicalize(b)
        ends = [e for x in cb.bars for e in (x.interval.lo, x.interval.hi)]
        seen |= {flavor(x.interval) for x in cb.bars} | {cb.convention}
        seen |= {type(e.value).__name__ + ("-q0" if getattr(e.value, "q", 1) == 0 else "") for e in ends}
        seen |= {"negative-degree" for x in cb.bars if x.degree < 0} | {"mult>1" for x in cb.bars if x.mult > 1}
        seen |= {"merged"} if len(cb.bars) < len(b.bars) else set()
        seen |= {"shared"} if len(set(map(id, ends))) < len(ends) else {"unshared"}
    # every case the writer distinguishes came up
    assert seen >= {
        SINGLETON, TAMARKIN, LEFT_INFINITE, LEFT_CLOSED, RIGHT_CLOSED, MIXED,
        "Fraction", "PiRational", "PiRational-q0", "Infinity",
        "negative-degree", "mult>1", "merged", "shared", "unshared",
    }


def test_barcode_json_text_of_the_empty_barcode():
    _assert_writer_matches_reference(sc.EMPTY)
    assert barcode_json_text(sc.EMPTY) == '{"bars":[],"convention":"left-closed"}'


@pytest.mark.parametrize("op", [sc.convolve, sc.hom_star, sc.rhom_sheaf])
def test_barcode_json_text_of_kernel_output(rng, op):
    shared = False
    for _ in range(10):
        f, g = (rand_tamarkin_barcode(rng, max_bars=6, degrees=(-1, 0, 1)) for _ in range(2))
        out = op(f, g)
        _assert_writer_matches_reference(out)
        ends = [e for x in out.bars for e in (x.interval.lo, x.interval.hi)]
        shared |= len(set(map(id, ends))) < len(ends)
    # the kernel's output bars share their ends, the case the memo is for
    assert shared
