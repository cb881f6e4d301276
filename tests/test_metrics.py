import functools
import random
import time
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc import metrics as mt, ops
from sheafcalc.errors import OracleSizeError, PlanError
from sheafcalc.exactnum import POS_INF, Infinity, PiRational, cmp, is_finite

from conftest import rand_tamarkin_barcode


def bc(*args):
    return sc.barcode(*args)


EMPTY = sc.GradedBarcode(())


def test_delta_matched_examples():
    ok, w = mt.delta_matched(bc(sc.bar(0, 4)), bc(sc.bar(F(1, 2), F(21, 5))), F(1, 2))
    assert ok and w.pairs == ((0, 0),)
    ok, w = mt.delta_matched(bc(sc.bar(0, 1)), bc(sc.bar(0, 1)), F(0))
    assert ok and w.pairs == ((0, 0),)
    assert mt.delta_matched(bc(sc.bar(0, 1)), EMPTY, F(1, 2))[0]
    assert not mt.delta_matched(bc(sc.bar(0, 1)), EMPTY, F(1, 4))[0]


def test_infinite_ends_only_match_same_side():
    left_inf = bc(sc.bar("-inf", 0, lo_closed=False))
    right_inf = bc(sc.bar(0, "+inf"))
    assert not mt.delta_matched(left_inf, right_inf, F(10**6))[0]
    assert mt.bottleneck(left_inf, right_inf) is POS_INF
    assert mt.bottleneck(bc(sc.bar(0, "+inf")), bc(sc.bar(5, "+inf"))) == 5


def test_matching_is_partial_bijection(rng):
    for _ in range(30):
        b1 = rand_tamarkin_barcode(rng)
        b2 = rand_tamarkin_barcode(rng)
        d = mt.bottleneck(b1, b2)
        if isinstance(d, Infinity):
            continue
        ok, w = mt.delta_matched(b1, b2, d)
        assert ok
        lefts = [p[0] for p in w.pairs] + list(w.erased_left)
        rights = [p[1] for p in w.pairs] + list(w.erased_right)
        assert sorted(lefts) == list(range(len(sc.expanded_bars(b1))))
        assert sorted(rights) == list(range(len(sc.expanded_bars(b2))))


def test_bottleneck_published_interval_example():
    b1 = bc(sc.GradedBar(sc.interval(1, 2, False, True)))
    b2 = bc(sc.GradedBar(sc.interval(1, 3, False, True)))
    assert mt.bottleneck(b1, b2) == 1


def test_bottleneck_identity_and_infinite_mismatch(rng):
    for _ in range(20):
        b = rand_tamarkin_barcode(rng)
        assert mt.bottleneck(b, b) == 0
    assert mt.bottleneck(bc(sc.bar(0, "+inf")), bc(sc.bar(0, 1))) is POS_INF


def test_interleaving_equals_bottleneck(rng):
    for _ in range(20):
        b1 = rand_tamarkin_barcode(rng)
        b2 = rand_tamarkin_barcode(rng)
        assert mt.interleaving_distance(b1, b2) == mt.bottleneck(b1, b2)


def test_degrees_are_orthogonal():
    b1 = bc(sc.bar(0, 10))
    b2 = bc(sc.bar(0, 10, degree=1))
    assert mt.bottleneck(b1, b2) == 5  # erase both, no cross-degree matching


def test_symmetry_and_triangle(rng):
    for _ in range(120):
        a = rand_tamarkin_barcode(rng, max_bars=3)
        b = rand_tamarkin_barcode(rng, max_bars=3)
        c = rand_tamarkin_barcode(rng, max_bars=3)
        dab, dba = mt.bottleneck(a, b), mt.bottleneck(b, a)
        assert dab == dba
        dac, dcb = mt.bottleneck(a, c), mt.bottleneck(c, b)
        if isinstance(dac, Infinity) or isinstance(dcb, Infinity):
            continue
        assert isinstance(dab, Infinity) is False
        assert dab <= dac + dcb


def test_torsion_is_twice_distance_to_zero(rng):
    for _ in range(60):
        f = rand_tamarkin_barcode(rng, inf_p=0)
        assert ops.torsion(f) == 2 * mt.bottleneck(f, EMPTY)


# --- reference matcher ---------------------------------------------------------
# The matcher `bottleneck` used before cost tables: every endpoint difference
# of every same-degree pair as a candidate, sorted through the generic cmp,
# and a binary search that re-tests every pair with Extended arithmetic at each
# step, on a recursive Kuhn matcher.  Kept here as the cross-check reference.


def _ref_ends_within(x, y, delta):
    xf, yf = is_finite(x), is_finite(y)
    if xf != yf:
        return False
    if not xf:
        return x == y
    d = x - y
    if cmp(d, F(0)) < 0:
        d = -d
    return cmp(d, delta) <= 0


def _ref_bars_within(i, j, delta):
    return _ref_ends_within(i.lo.value, j.lo.value, delta) and _ref_ends_within(
        i.hi.value, j.hi.value, delta
    )


def _ref_erasable(i, delta):
    length = i.length
    if isinstance(length, Infinity):
        return False
    return cmp(length, 2 * delta) <= 0


def _ref_max_matching(n_left, n_right, adj):
    match_left = [-1] * n_left
    match_right = [-1] * n_right

    def try_augment(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or try_augment(match_right[v], seen):
                    match_left[u] = v
                    match_right[v] = u
                    return True
        return False

    for u in range(n_left):
        try_augment(u, [False] * n_right)
    return match_left


def _ref_match_one_degree(left, right, delta):
    n1, n2 = len(left), len(right)
    adj = []
    for i in range(n1):
        row = [j for j in range(n2) if _ref_bars_within(left[i], right[j], delta)]
        if _ref_erasable(left[i], delta):
            row.append(n2 + i)
        adj.append(row)
    for j in range(n2):
        row = list(range(n2, n2 + n1))
        if _ref_erasable(right[j], delta):
            row.insert(0, j)
        adj.append(row)
    match_left = _ref_max_matching(n1 + n2, n2 + n1, adj)
    if any(v == -1 for v in match_left):
        return None
    pairs = [(i, match_left[i]) for i in range(n1) if match_left[i] < n2]
    erased_l = [i for i in range(n1) if match_left[i] >= n2]
    erased_r = [j for j in range(n2) if all(p[1] != j for p in pairs)]
    return pairs, erased_l, erased_r


def _ref_delta_matched(b1, b2, delta):
    d1, d2 = mt._by_degree(b1), mt._by_degree(b2)
    pairs, erased_l, erased_r = [], [], []
    for deg in sorted(set(d1) | set(d2)):
        li, ri = d1.get(deg, []), d2.get(deg, [])
        res = _ref_match_one_degree([iv for _, iv in li], [iv for _, iv in ri], delta)
        if res is None:
            return False, None
        p, el, er = res
        pairs.extend((li[i][0], ri[j][0]) for i, j in p)
        erased_l.extend(li[i][0] for i in el)
        erased_r.extend(ri[j][0] for j in er)
    return True, mt.Matching(delta, tuple(sorted(pairs)), tuple(sorted(erased_l)), tuple(sorted(erased_r)))


def _ref_candidate_deltas(b1, b2):
    half = F(1, 2)
    cands = [F(0)]
    d1, d2 = mt._by_degree(b1), mt._by_degree(b2)
    for deg in set(d1) | set(d2):
        li, ri = d1.get(deg, []), d2.get(deg, [])
        for _, iv in li + ri:
            if not isinstance(iv.length, Infinity):
                cands.append(iv.length * half)
        for _, a in li:
            for _, b in ri:
                for x, y in ((a.lo.value, b.lo.value), (a.hi.value, b.hi.value)):
                    if is_finite(x) and is_finite(y):
                        diff = x - y
                        cands.append(diff if cmp(diff, F(0)) >= 0 else -diff)
    uniq = []
    for v in sorted(cands, key=functools.cmp_to_key(cmp)):
        if not uniq or cmp(uniq[-1], v) != 0:
            uniq.append(v)
    return uniq


def _ref_bottleneck(b1, b2, cands):
    def sig_counts(b):
        acc = {}
        for iv, deg in sc.expanded_bars(b):
            s = (deg, is_finite(iv.lo.value), is_finite(iv.hi.value))
            if not (s[1] and s[2]):
                acc[s] = acc.get(s, 0) + 1
        return acc

    if sig_counts(b1) != sig_counts(b2):
        return POS_INF
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _ref_delta_matched(b1, b2, cands[mid])[0]:
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def _rand_end(rng):
    if rng.random() < 0.1:
        return PiRational(F(rng.randint(-1, 1), rng.choice((1, 2))), F(rng.randint(-8, 8), rng.choice((1, 2, 3))))
    return F(rng.randint(-8, 8), rng.choice((1, 2, 4)))


def _rand_bar(rng):
    kind = rng.random()
    degree = rng.randint(0, 2)
    mult = rng.choice((1, 1, 1, 1, 2, 3))
    if kind < 0.08:
        return sc.bar(_rand_end(rng), "+inf", degree, mult)
    if kind < 0.14:
        return sc.bar("-inf", _rand_end(rng), degree, mult, lo_closed=False)
    if kind < 0.16:
        return sc.bar("-inf", "+inf", degree, mult, lo_closed=False)
    a, b = _rand_end(rng), _rand_end(rng)
    while cmp(a, b) == 0:
        b = _rand_end(rng)
    if cmp(a, b) > 0:
        a, b = b, a
    return sc.GradedBar(sc.interval(a, b, rng.random() < 0.8, rng.random() < 0.2), degree, mult)


def _nudge(rng, bar_):
    """The same bar with finite ends moved a little, sometimes dropped."""
    iv = bar_.interval
    ends = []
    for e in (iv.lo, iv.hi):
        v = e.value
        if is_finite(v) and rng.random() < 0.7:
            v = v + F(rng.randint(-3, 3), 4)
        ends.append(v)
    if is_finite(ends[0]) and is_finite(ends[1]) and cmp(ends[0], ends[1]) >= 0:
        return None
    return sc.GradedBar(sc.interval(ends[0], ends[1], iv.lo.closed, iv.hi.closed), bar_.degree, bar_.mult)


def _rand_pair(rng):
    b1 = [_rand_bar(rng) for _ in range(rng.choice((0, 1, 2, 3, 4, 5, 6)))]
    if rng.random() < 0.3:
        b2 = [_rand_bar(rng) for _ in range(rng.choice((0, 1, 2, 3, 4, 5, 6)))]
    else:
        b2 = [x for x in (_nudge(rng, x) for x in b1) if x is not None]
        b2 += [_rand_bar(rng) for _ in range(rng.randint(0, 2))]
    return sc.barcode(*b1), sc.barcode(*b2)


def test_cost_table_matcher_agrees_with_reference():
    rng = random.Random(20171)
    kinds = {"empty": 0, "pi": 0, "finite": 0, "infinite": 0, "mult": 0}
    for _ in range(320):
        b1, b2 = _rand_pair(rng)
        bars = list(b1.bars) + list(b2.bars)
        kinds["empty"] += not (b1.bars and b2.bars)
        kinds["pi"] += any(isinstance(x.interval.lo.value, PiRational) for x in bars)
        kinds["mult"] += any(x.mult > 1 for x in bars)
        cands = _ref_candidate_deltas(b1, b2)
        d = mt.bottleneck(b1, b2)
        ref = _ref_bottleneck(b1, b2, cands)
        assert d == ref, (b1, b2)
        kinds["infinite" if isinstance(d, Infinity) else "finite"] += 1
        others = [c for c in cands if c != ref]
        for delta in [ref if is_finite(ref) else cands[-1]] + rng.sample(others, min(2, len(others))):
            ok, w = mt.delta_matched(b1, b2, delta)
            ref_ok, ref_w = _ref_delta_matched(b1, b2, delta)
            assert ok == ref_ok
            if ok:
                assert w.delta == ref_w.delta
                assert w.pairs == ref_w.pairs
                assert w.erased_left == ref_w.erased_left
                assert w.erased_right == ref_w.erased_right
    assert min(kinds.values()) >= 10, kinds


def test_max_matching_long_augmenting_path():
    # left u < n-1 sees right u then u+1 and is matched greedily to u; the
    # last left node sees only right 0, so its augmenting path runs through
    # every other node -- far past the default recursion limit
    n = 2500
    adj = [[u, u + 1] for u in range(n - 1)] + [[0]]
    start = time.perf_counter()
    match_left = mt._max_matching(n, n, adj)
    assert time.perf_counter() - start < 1.0
    assert match_left == [u + 1 for u in range(n - 1)] + [0]


# --- brute-force interleaving oracle ------------------------------------------


def test_brute_interleave_basics():
    b = bc(sc.bar(0, 2))
    assert mt.brute_interleave(b, b, F(0))
    assert mt.brute_interleave(b, EMPTY, F(1))
    assert not mt.brute_interleave(b, EMPTY, F(9, 10))


def test_brute_interleave_matches_bottleneck(rng):
    checked = 0
    while checked < 40:
        b1 = rand_tamarkin_barcode(rng, max_bars=3, inf_p=0.2, degrees=(0,), lo=0, hi=6, max_len=5)
        b2 = rand_tamarkin_barcode(rng, max_bars=3, inf_p=0.2, degrees=(0,), lo=0, hi=6, max_len=5)
        d = mt.bottleneck(b1, b2)
        if isinstance(d, Infinity):
            continue
        assert mt.brute_interleave(b1, b2, d)
        below = d - F(1, 1000)
        if below >= 0:
            assert not mt.brute_interleave(b1, b2, below)
        checked += 1


def test_brute_interleave_size_limit():
    big = bc(*[sc.bar(i, i + 1) for i in range(5)])
    with pytest.raises(OracleSizeError):
        mt.brute_interleave(big, big, F(1))


# --- cone and torsion criterion -----------------------------------------------


def test_cone_published_example():
    v = bc(sc.bar(5, "+inf"), sc.bar(2, 8))
    w = bc(sc.bar(3, "+inf"), sc.bar(0, 6))
    plan = mt.natural_plan(v, w)
    cone = mt.cone_of_morphism(v, w, plan)
    assert cone == bc(sc.bar(6, 8), sc.bar(0, 2, degree=1), sc.bar(3, 5, degree=1))
    bound, holds = mt.torsion_bound_check(v, w, plan)
    assert bound == 2 and holds
    assert mt.interleaving_distance(v, w) == 2


def test_cone_identity_and_zero_plans():
    v = bc(sc.bar(0, 3), sc.bar(1, 2, degree=1))
    assert mt.cone_of_morphism(v, v, mt.natural_plan(v, v)) == EMPTY
    bound, holds = mt.torsion_bound_check(v, v, mt.natural_plan(v, v))
    assert bound == 0 and holds
    zero = mt.MorphismPlan(())
    cone = mt.cone_of_morphism(v, v, zero)
    expect = sc.canonicalize(
        sc.GradedBarcode(
            tuple(v.bars)
            + tuple(sc.GradedBar(x.interval, x.degree + 1, x.mult) for x in v.bars)
        )
    )
    assert cone == expect


def test_invalid_plans_rejected():
    v = bc(sc.bar(0, 3))
    w = bc(sc.bar(5, 6))
    with pytest.raises(PlanError):
        mt.cone_of_morphism(v, w, mt.MorphismPlan(((0, 0),)))
    # target dying after the source admits no morphism either
    w2 = bc(sc.bar(-1, 5))
    with pytest.raises(PlanError):
        mt.cone_of_morphism(v, w2, mt.MorphismPlan(((0, 0),)))
    # degree mismatch
    w3 = bc(sc.bar(0, 3, degree=1))
    with pytest.raises(PlanError):
        mt.cone_of_morphism(v, w3, mt.MorphismPlan(((0, 0),)))


def test_torsion_bound_sweep(rng):
    for _ in range(60):
        w = rand_tamarkin_barcode(rng, max_bars=3, inf_p=0.3)
        bars_v = []
        for iv, deg in sc.expanded_bars(w):
            c0, d0 = iv.lo.value, iv.hi.value
            a0 = c0 + rng.randint(0, 3)
            if isinstance(d0, Infinity):
                bars_v.append(sc.GradedBar(sc.interval(a0, "+inf"), deg))
            else:
                if not a0 < d0:
                    continue
                bars_v.append(sc.GradedBar(sc.interval(a0, d0 + rng.randint(0, 3)), deg))
        v = sc.barcode(*bars_v) if bars_v else EMPTY
        plan = mt.natural_plan(v, w)
        bound, holds = mt.torsion_bound_check(v, w, plan)
        assert holds


def test_stability_under_convolve_and_hom_star(rng):
    def fin(x):
        return not isinstance(x, Infinity)

    for _ in range(40):
        f1 = rand_tamarkin_barcode(rng, max_bars=2, inf_p=0.2)
        f2 = rand_tamarkin_barcode(rng, max_bars=2, inf_p=0.2)
        g1 = rand_tamarkin_barcode(rng, max_bars=2, inf_p=0.2)
        g2 = rand_tamarkin_barcode(rng, max_bars=2, inf_p=0.2)
        s, t = mt.bottleneck(f1, f2), mt.bottleneck(g1, g2)
        if not (fin(s) and fin(t)):
            continue
        d1 = mt.bottleneck(ops.convolve(f1, g1), ops.convolve(f2, g2))
        assert fin(d1) and d1 <= s + t
        d2 = mt.bottleneck(ops.hom_star(f1, g1), ops.hom_star(f2, g2))
        assert fin(d2) and d2 <= s + t


def test_adjoint_is_isometry(rng):
    for _ in range(30):
        f = rand_tamarkin_barcode(rng, max_bars=3)
        g = rand_tamarkin_barcode(rng, max_bars=3)
        assert mt.bottleneck(ops.adjoint(f), ops.adjoint(g)) == mt.bottleneck(f, g)
