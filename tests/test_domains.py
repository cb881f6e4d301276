import math
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
    assert dm.ellipsoid_stalk(2, 1, 3, 4) == sc.HomSpace({4: 1})
    assert dm.ellipsoid_stalk(2, 1, 3, F(1, 10)) == sc.HomSpace({2: 1})


def test_ellipsoid_reduces_to_ball(rng):
    for _ in range(20):
        n = rng.randint(2, 3)
        r = F(rng.randint(1, 4), rng.randint(1, 3))
        T = rand_T_in_bin(rng, r * r, rng.randint(0, 3))
        assert dm.ellipsoid_stalk(n, r, r, T) == dm.ball_stalk(n, r, T)


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


def test_domain_barcode_ellipsoid_spec():
    e = dm.Ellipsoid(2, 1, 10)
    b = dm.domain_barcode(e, dm.pi_times(50))
    # only multiples of pi r^2 = pi occur below pi R^2 = 100 pi
    values = spec(b)
    assert all(v.q == int(v.q) for v in values)
    assert [v.q for v in values[:4]] == [0, 1, 2, 3]
    assert dm.domain_spec(e, dm.pi_times(3)) == [dm.pi_times(k) for k in range(4)]


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
    got = dm.domain_spec(dm.Ball(2, F(3, 2)), dm.pi_times(20))
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
    for d in (dm.Ball(2, F(3, 2)), dm.Ellipsoid(2, 1, 10), dm.ScaledBall(F(1, 2), dm.Ball(1, 1))):
        assert dm.domain_from_json(dm.domain_to_json(d)) == d


# --- fast paths against the spectrum walks they replace ----------------------


def ref_spec_values(d, limit):
    """Every m pi rsq <= limit, found by counting m up from 0."""
    qs = set()
    for rsq in dm._rsqs(d):
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
    top = dm.pi_times(max(dm._rsqs(d)))
    specs = ref_spec_values(d, t + top + top)
    bars = [
        sc.GradedBar(sc.interval(lo, hi), dm._stalk_degree(d, (lo + hi) * F(1, 2)))
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
    for rsq in dm._rsqs(d):
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
            assert dm.domain_spec(d, t) == ref_spec_values(d, t)


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
        for rsq in dm._rsqs(d):
            for m in range(4):
                for k in (2, 4, 6, 8):
                    near = F(round(m * math.pi * float(rsq) * 10**k), 10**k)
                    for T in (near, near + F(1, 10**k), near - F(1, 10**k)):
                        if T >= 0:
                            v = verdict(dm._check_band, T, rsq)
                            assert v == verdict(ref_check_band, T, rsq)
                            seen.add(v)
    assert seen == {True, False}
