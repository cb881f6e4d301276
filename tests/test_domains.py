import math
import re
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc import domains as dm
from sheafcalc import ops
from sheafcalc.errors import SpectralProximityError, ValidationError
from sheafcalc.exactnum import cmp
from sheafcalc.intervals import canonicalize, spec, stalk


def rand_T_in_bin(rng, rsq: F, m: int) -> F:
    """Rational T inside (m + 0.02, m + 0.98) action bins: safely off-spec."""
    frac = F(rng.randint(2, 98), 100)
    return F(round((m + frac) * math.pi * float(rsq) * 10**6), 10**6)


def test_ball_stalk_published_values():
    assert dm.ball_stalk(1, 1, 1) == sc.HomSpace({1: 1})
    assert dm.ball_stalk(2, 1, 4) == sc.HomSpace({6: 1})
    assert dm.ball_stalk(1, 1, 0) == sc.HomSpace({1: 1})


def test_ball_stalk_bin_boundaries_half_open():
    # exactly at m pi r^2 the stalk already belongs to bin m
    assert dm.ball_stalk(1, 1, dm.pi_times(1)) == sc.HomSpace({3: 1})
    assert dm.ball_stalk(2, 2, dm.pi_times(4)) == sc.HomSpace({6: 1})
    with pytest.raises(ValidationError):
        dm.ball_stalk(1, 1, -1)


def test_ellipsoid_stalk_published_values():
    assert dm.domain_stalk(dm.Ellipsoid(2, 1, 3), 4) == sc.HomSpace({4: 1})
    assert dm.domain_stalk(dm.Ellipsoid(2, 1, 3), F(1, 10)) == sc.HomSpace({2: 1})


def test_ellipsoid_reduces_to_ball(rng):
    for _ in range(20):
        n = rng.randint(2, 3)
        r = F(rng.randint(1, 4), rng.randint(1, 3))
        T = rand_T_in_bin(rng, r * r, rng.randint(0, 3))
        assert dm.domain_stalk(dm.Ellipsoid(n, r, r), T) == dm.ball_stalk(n, r, T)


def test_eigen_count_published_values():
    assert dm.eigen_count(1, 1, 16) == 1
    assert dm.eigen_count(4, 1, 32) == 3


def test_eigen_count_m_independent(rng):
    for _ in range(25):
        r = (F(1, 2), F(1), F(2))[rng.randint(0, 2)]
        T = rand_T_in_bin(rng, r * r, rng.randint(0, 3))
        counts = {dm.eigen_count(T, r, M) for M in (8, 16, 32, 64)}
        assert len(counts) == 1


def test_eigen_count_rejects_near_spec_and_coarse_M():
    with pytest.raises(SpectralProximityError):
        dm.eigen_count(F(3141592653589793, 10**15), 1, 16)  # ~pi
    with pytest.raises(SpectralProximityError):
        dm.eigen_count(0, 1, 16)  # 0 is on the spectrum
    with pytest.raises(ValidationError):
        dm.eigen_count(100, 1, 4)  # 2T/(r^2 M) >= pi


def test_ball_oracle_agreement(rng):
    for n in (1, 2, 3):
        for r in (F(1, 2), F(1), F(2)):
            for M in (8, 16, 32, 64):
                for _ in range(10):
                    T = rand_T_in_bin(rng, r * r, rng.randint(0, 3))
                    cnt = dm.eigen_count(T, r, M)
                    (deg,) = dm.ball_stalk(n, r, T).dims
                    assert deg == n * cnt


def test_domain_barcode_ball():
    b = dm.domain_barcode(dm.Ball(1, 1), dm.pi_times(3))
    expect = sc.barcode(
        sc.GradedBar(sc.interval(dm.pi_times(0), dm.pi_times(1)), 1),
        sc.GradedBar(sc.interval(dm.pi_times(1), dm.pi_times(2)), 3),
        sc.GradedBar(sc.interval(dm.pi_times(2), dm.pi_times(3)), 5),
    )
    assert b == expect
    b2 = dm.domain_barcode(dm.Ball(2, 1), dm.pi_times(1))
    assert b2.bars[0].degree == 2


def strata_spec(d, limit):
    """Action-spectrum values <= limit: the left ends of the strata walk,
    run up to the end of the stratum holding limit."""
    top = dm._bins(d, dm.as_pi_scalar(limit))
    return [lo for lo, _, _ in dm._strata(d, top, dm._stratum(d, top)[1])]


def test_domain_barcode_ellipsoid_spec():
    e = dm.Ellipsoid(2, 1, 10)
    b = dm.domain_barcode(e, dm.pi_times(50))
    # only multiples of pi r^2 = pi occur below pi R^2 = 100 pi
    values = spec(b)
    assert all(v.q == int(v.q) for v in values)
    assert [v.q for v in values[:4]] == [0, 1, 2, 3]
    assert strata_spec(e, dm.pi_times(3)) == [dm.pi_times(k) for k in range(4)]


def test_domain_barcode_scaled_ball():
    sb = dm.ScaledBall(F(1, 4), dm.Ball(1, 2))  # rsq = 1
    assert dm.domain_barcode(sb, dm.pi_times(2)) == dm.domain_barcode(dm.Ball(1, 1), dm.pi_times(2))


def test_barcode_stalks_match_formulas(rng):
    for d in (
        dm.Ball(1, 1),
        dm.Ball(2, F(1, 2)),
        dm.Ellipsoid(2, 1, 2),
        dm.Ellipsoid(3, F(1, 2), F(3, 2)),
        dm.ScaledBall(F(1, 2), dm.Ball(2, 1)),
    ):
        bc = dm.domain_barcode(d, dm.pi_times(10))
        for _ in range(25):
            T = F(round(rng.random() * 9 * math.pi * 10**4), 10**4)
            assert stalk(bc, dm.as_pi_scalar(T)) == dm.domain_stalk(d, T)


def test_sheaf_invariant_ball():
    assert dm.sheaf_invariant(dm.Ball(1, 1), 4) == sc.HomSpace({2: 1})
    assert dm.sheaf_invariant(dm.Ball(2, 1), 1) == sc.HomSpace({0: 1})
    assert dm.sheaf_invariant(dm.Ball(3, 2), F(1, 10)) == sc.HomSpace({0: 1})
    assert dm.sheaf_invariant(dm.Ellipsoid(2, 1, 10), 4) == sc.HomSpace({2: 1})


def test_sheaf_invariant_exhaustive_bins():
    for n in (1, 2, 3):
        for r in (F(1, 2), F(1)):
            d = dm.Ball(n, r)
            for m in range(6):
                T = dm.pi_times((m + F(1, 2)) * r * r)
                assert dm.sheaf_invariant(d, T) == sc.HomSpace({2 * m * n: 1})


def test_transfer_is_iso():
    b = dm.Ball(1, 1)
    assert dm.transfer_is_iso(b, F(16, 5), F(9, 2))
    assert not dm.transfer_is_iso(b, 3, F(16, 5))
    assert dm.transfer_is_iso(b, F(7, 2), F(7, 2))
    assert not dm.transfer_is_iso(b, 0, 0)  # 0 is on the spectrum
    with pytest.raises(ValidationError):
        dm.transfer_is_iso(b, 2, 1)


def test_transfer_characterizes_invariant_bins():
    for n in (1, 2, 3):
        for r in (F(1, 2), F(1)):
            d = dm.Ball(n, r)
            mids = [dm.pi_times((m + F(1, 2)) * r * r) for m in range(6)]
            for i, t1 in enumerate(mids):
                for j in range(i, 6):
                    iso = dm.transfer_is_iso(d, t1, mids[j])
                    assert iso == (i == j)
                    if iso:
                        assert dm.sheaf_invariant(d, t1) == dm.sheaf_invariant(d, mids[j])


def test_monotone_spec_is_exact():
    got = strata_spec(dm.Ball(2, F(3, 2)), dm.pi_times(20))
    expect = [dm.pi_times(m * F(9, 4)) for m in range(9) if m * F(9, 4) <= 20]
    assert got == expect


def test_inclusion_cone_rank():
    assert dm.inclusion_cone_rank(1, F(1, 2), 2, 1, 32) == sc.HomSpace({2: 1})
    assert dm.inclusion_cone_rank(1, 1, 2, 1, 32) == sc.HomSpace()
    assert dm.inclusion_cone_rank(2, F(1, 2), 1, 2, 32) == sc.HomSpace()  # both first bin


def test_nonsqueeze_published_instance():
    v = dm.nonsqueeze_check(2, F(12, 10), 1, 10)
    assert v.obstructed and v.verdict == "OBSTRUCTED"
    assert v.ball_invariant == sc.HomSpace({0: 1})
    assert v.ellipsoid_invariant == sc.HomSpace({2: 1})
    lo, hi = dm.pi_times(1), dm.pi_times(F(36, 25))
    assert cmp(lo, v.chosen_T) < 0 and cmp(v.chosen_T, hi) < 0
    assert any("rank" in line for line in v.trace)


def test_nonsqueeze_negative_cases():
    assert not dm.nonsqueeze_check(2, 1, 1, 10).obstructed
    assert not dm.nonsqueeze_check(2, F(1, 2), 1, 10).obstructed
    with pytest.raises(ValidationError):
        dm.nonsqueeze_check(2, 5, 1, 2)


def test_domain_json_round_trip():
    for d, obj in (
        (dm.Ball(2, F(3, 2)), {"ball": {"n": 2, "r": "3/2"}}),
        (dm.Ellipsoid(2, 1, 10), {"ellipsoid": {"n": 2, "r": "1", "R": "10"}}),
        (dm.ScaledBall(F(1, 2), dm.Ball(1, 1)), {"scaled_ball": {"c": "1/2", "ball": {"n": 1, "r": "1"}}}),
    ):
        assert dm.domain_from_json(obj) == d


# --- the per-level lookups that the action-bin vector replaced ----------------
# Each query used to look its level's action bins up again per fact, and the
# barcode looked every stratum up anew; these are that code, kept as the
# reference for the bin-vector queries and the stratum walk.


def ref_rsqs(d):
    """The squared radii whose action bins make up the domain's spectrum."""
    return [d.r * d.r, d.R * d.R] if isinstance(d, dm.Ellipsoid) else [d.rsq]


def old_spec_values(d, limit):
    """Action-spectrum values of the domain sheaf that are <= limit."""
    qs = {m * rsq for rsq in ref_rsqs(d) for m in range(dm.action_bin(limit, rsq) + 1)}
    return [dm.pi_times(q) for q in sorted(qs)]


def old_stalk_degree(d, T):
    """Ball: n(2m+1) for T in the m-th action bin.  Ellipsoid: 2(n-1)m_R +
    2m_r - n with the bin counts m = floor(T/(pi rho^2)) + 1 for each
    radius rho."""
    if isinstance(d, dm.Ellipsoid):
        m_r, m_R = (dm.action_bin(T, rsq) + 1 for rsq in ref_rsqs(d))
        return 2 * (d.n - 1) * m_R + 2 * m_r - d.n
    return d.n * (2 * dm.action_bin(T, d.rsq) + 1)


def old_next_spec_after(d, lo):
    return min(dm.pi_times((dm.action_bin(lo, rsq) + 1) * rsq) for rsq in ref_rsqs(d))


def old_domain_barcode(d, Tmax):
    """One spectrum lookup and one stalk lookup per stratum."""
    tmax = dm.as_pi_scalar(Tmax)
    if sum(dm.action_bin(tmax, rsq) + 1 for rsq in ref_rsqs(d)) > dm.MAX_STRATA:
        raise ValidationError(f"the barcode up to this cutoff has more than {dm.MAX_STRATA} strata")
    specs = old_spec_values(d, tmax)
    his = specs[1:] + [old_next_spec_after(d, specs[-1])]
    bars = tuple(
        sc.GradedBar(sc.Interval(sc.Endpoint(lo, True), sc.Endpoint(hi, False)), old_stalk_degree(d, lo))
        for lo, hi in zip(specs, his)
        if lo < tmax
    )
    return canonicalize(sc.GradedBarcode(bars))


def old_domain_stalk(d, T):
    return sc.HomSpace({old_stalk_degree(d, dm.as_pi_scalar(T)): 1})


def old_sheaf_invariant(d, T):
    t = dm.as_pi_scalar(T)
    lo = max(dm.pi_times(dm.action_bin(t, rsq) * rsq) for rsq in ref_rsqs(d))
    stratum = sc.GradedBar(
        sc.Interval(sc.Endpoint(lo, True), sc.Endpoint(old_next_spec_after(d, lo), False)),
        old_stalk_degree(d, t),
    )
    probe = sc.GradedBar(sc.Interval(sc.Endpoint(t, True), sc.Endpoint(dm.POS_INF, False)), d.n)
    total = ops.rhom_total(sc.GradedBarcode((stratum,)), sc.GradedBarcode((probe,)))
    return sc.HomSpace({-deg: dim for deg, dim in total.dims.items()})


def old_transfer_is_iso(d, T1, T2):
    t1, t2 = dm.as_pi_scalar(T1), dm.as_pi_scalar(T2)
    bins = [(rsq, dm.action_bin(t1, rsq)) for rsq in ref_rsqs(d)]
    if t1 > t2:
        raise ValidationError("need T1 <= T2")
    return all(t1 != dm.pi_times(m * rsq) and dm.action_bin(t2, rsq) == m for rsq, m in bins)


def reference_domains(rng):
    """Balls, scaled balls, and ellipsoids with r = R, with R^2 an integer
    multiple of r^2 (every R-value is an r-value too) and with R/r = 3/2."""

    def radius():
        return F(rng.randint(1, 8), rng.randint(1, 3))

    for n in (1, 2, 3):
        yield dm.Ball(n, radius())
        yield dm.ScaledBall(F(rng.randint(1, 4), 4), dm.Ball(n, radius()))
    for n in (2, 3):
        r = radius()
        for k in (1, 2, 3, F(3, 2)):
            yield dm.Ellipsoid(n, r, k * r)


def assert_same(new, old, *args):
    """new(*args) and old(*args) agree by repr, or raise the same error."""
    try:
        want = repr(old(*args))
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            new(*args)
        return
    assert repr(new(*args)) == want, args


def test_barcode_walk_matches_per_stratum_lookup(rng):
    for d in reference_domains(rng):
        rsqs = ref_rsqs(d)
        cutoffs = [0, dm.PiRational(3, F(1, 7)), dm.PiRational(0, F(22, 7))]
        cutoffs += [dm.pi_times(m * rsq) for rsq in rsqs for m in (1, 2, 5)]  # on the spectrum
        cutoffs += [dm.pi_times(rsqs[-1] * F(rng.randint(1, 60), rng.randint(1, 7))) for _ in range(4)]
        for tmax in cutoffs:
            assert_same(dm.domain_barcode, old_domain_barcode, d, tmax)
    with pytest.raises(ValidationError):
        dm.domain_barcode(dm.Ball(1, 1), -1)


def test_barcode_walk_matches_at_the_strata_cap():
    # the cap counts one stratum per action bin of each radius: a ball of
    # r = 1 up to 19,999.5 pi, and the ellipsoid r = 1, R = 2 up to
    # 15,999.5 pi (16,000 + 4,000 bins, 16,000 bars), sit exactly at it
    for d, at_cap, bars in ((dm.Ball(2, 1), F(39999, 2), 20_000), (dm.Ellipsoid(3, 1, 2), F(31999, 2), 16_000)):
        tmax = dm.pi_times(at_cap)
        assert sum(dm.action_bin(tmax, rsq) + 1 for rsq in ref_rsqs(d)) == dm.MAX_STRATA
        new = dm.domain_barcode(d, tmax)
        assert len(new.bars) == bars and repr(new) == repr(old_domain_barcode(d, tmax))
        for build in (dm.domain_barcode, old_domain_barcode):
            with pytest.raises(ValidationError, match="more than 20000 strata"):
                build(d, dm.pi_times(at_cap + 1))


def test_queries_match_per_level_lookup(rng):
    seen = set()
    for d in reference_domains(rng):
        ts = levels(rng, d)
        for i, t1 in enumerate(ts):
            assert_same(dm.domain_stalk, old_domain_stalk, d, t1)
            assert_same(dm.sheaf_invariant, old_sheaf_invariant, d, t1)
            for t2 in ts[max(0, i - 1) : i + 3] + rng.sample(ts, min(3, len(ts))):
                assert_same(dm.transfer_is_iso, old_transfer_is_iso, d, t1, t2)
                seen.add(t1 <= t2 and dm.transfer_is_iso(d, t1, t2))
    assert seen == {True, False}


def test_each_query_looks_up_each_radius_once(monkeypatch):
    calls = []
    action_bin = dm.action_bin

    def counted(T, rsq):
        calls.append(rsq)
        return action_bin(T, rsq)

    monkeypatch.setattr(dm, "action_bin", counted)
    for d in (dm.Ball(2, 1), dm.ScaledBall(F(1, 2), dm.Ball(1, 1)), dm.Ellipsoid(3, 1, 2), dm.Ellipsoid(2, 1, 1)):
        radii = 2 if isinstance(d, dm.Ellipsoid) else 1
        for query, level in ((dm.domain_barcode, dm.pi_times(40)), (dm.sheaf_invariant, dm.PiRational(7, F(1, 3)))):
            calls.clear()
            query(d, level)
            assert len(calls) == radii, (query.__name__, d)
        calls.clear()
        dm.domain_stalk(d, dm.pi_times(9))
        assert len(calls) == radii
        calls.clear()
        dm.transfer_is_iso(d, dm.pi_times(F(37, 4)), dm.pi_times(F(39, 4)))  # T1 off the spectrum: both read
        assert len(calls) == 2 * radii


# --- fast paths against the spectrum walks they replace ----------------------


def ref_spec_values(d, limit):
    """Every m pi rsq <= limit, found by counting m up from 0."""
    qs = set()
    for rsq in ref_rsqs(d):
        m = 0
        while dm.pi_times(m * rsq) <= limit:
            qs.add(m * rsq)
            m += 1
    return [dm.pi_times(q) for q in sorted(qs)]


def ref_transfer_is_iso(d, t1, t2):
    """Scan the spectrum up to T2 for a value inside [T1, T2]."""
    return not any(t1 <= s <= t2 for s in ref_spec_values(d, t2))


def ref_sheaf_invariant(d, t):
    """RHom of the whole barcode up to T + pi max rsq against the probe."""
    top = dm.pi_times(max(ref_rsqs(d)))
    specs = ref_spec_values(d, t + top + top)
    bars = [
        sc.GradedBar(sc.interval(lo, hi), old_stalk_degree(d, (lo + hi) * F(1, 2)))
        for lo, hi in zip(specs, specs[1:])
        if lo < t + top
    ]
    probe = sc.barcode(sc.GradedBar(sc.interval(t, "+inf"), d.n))
    total = ops.rhom_total(canonicalize(sc.GradedBarcode(tuple(bars))), probe)
    return sc.HomSpace({-deg: dim for deg, dim in total.dims.items()})


def ref_check_band(T, rsq):
    """The band test against the four spectrum values around T."""
    m = dm.action_bin(T, rsq)
    for mm in (m - 1, m, m + 1, m + 2):
        if mm < 0:
            continue
        diff = dm.as_pi_scalar(T) - dm.pi_times(mm * rsq)
        if diff.sign() < 0:
            diff = -diff
        if diff < dm.pi_times(dm._EXCLUSION * rsq):
            raise SpectralProximityError(f"within the band of {mm}")


def seeded_domains(rng):
    def radius():
        return F(rng.randint(1, 8), rng.randint(1, 2))

    for _ in range(3):
        yield dm.Ball(rng.randint(1, 3), radius())
        r = radius()
        yield dm.Ellipsoid(rng.randint(2, 3), r, r * F(rng.randint(2, 6), 2))
        yield dm.ScaledBall(F(rng.randint(1, 4), 4), dm.Ball(rng.randint(1, 3), radius()))


def levels(rng, d):
    """0, the first spectrum values of each radius, levels just off them
    on both sides, and q*pi + s levels with s != 0."""
    out = [dm.pi_times(0)]
    for rsq in ref_rsqs(d):
        for m in range(3):
            on = m * rsq
            out += [dm.pi_times(on), dm.PiRational(on, F(1, 1000)), dm.pi_times(on + F(1, 10**9))]
            if m:
                out += [dm.PiRational(on, F(-1, 1000)), dm.pi_times(on - F(1, 10**9))]
    for _ in range(6):
        t = dm.PiRational(rsq * F(rng.randint(0, 20), 7), F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(2, 9)))
        if t.sign() > 0:
            out.append(t)
    return sorted(set(out))


def test_spectrum_matches_walk(rng):
    for d in seeded_domains(rng):
        for t in levels(rng, d):
            assert strata_spec(d, t) == ref_spec_values(d, t)


def test_sheaf_invariant_matches_whole_barcode(rng):
    for d in seeded_domains(rng):
        for t in levels(rng, d):
            assert dm.sheaf_invariant(d, t) == ref_sheaf_invariant(d, t)


def test_transfer_matches_walk(rng):
    seen = set()
    for d in seeded_domains(rng):
        ts = levels(rng, d)
        for i, t1 in enumerate(ts):
            # the next few levels up, then a few anywhere above
            for t2 in ts[i : i + 3] + rng.sample(ts[i:], min(3, len(ts) - i)):
                iso = dm.transfer_is_iso(d, t1, t2)
                assert iso == ref_transfer_is_iso(d, t1, t2)
                seen.add(iso)
    assert seen == {True, False}


def test_band_check_matches_four_neighbours(rng):
    def verdict(check, T, rsq):
        try:
            check(T, rsq)
        except SpectralProximityError:
            return False
        return True

    seen = set()
    for d in seeded_domains(rng):
        for rsq in ref_rsqs(d):
            for m in range(4):
                for k in (2, 4, 6, 8):
                    near = F(round(m * math.pi * float(rsq) * 10**k), 10**k)
                    for T in (near, near + F(1, 10**k), near - F(1, 10**k)):
                        if T >= 0:
                            v = verdict(dm._check_band, T, rsq)
                            assert v == verdict(ref_check_band, T, rsq)
                            seen.add(v)
    assert seen == {True, False}
