import random
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, PiRational, is_finite
from sheafcalc.stratmodel import (
    _GERM_AMBIENT,
    StratModel,
    decompose,
    from_barcode,
    germ_at,
    rhom_oracle,
    rhom_sheaf_stalk_oracle,
)

from conftest import mixed_scalars, rand_tamarkin_barcode, random_interval, twin


def test_from_barcode_half_line():
    m = from_barcode(sc.barcode(sc.bar(0, "+inf")))
    assert m.critical == (F(0),)
    assert m.open_dims[0] == (0, 1)
    assert m.maps[0][0] == ()  # 0 x 1 matrix has no rows


def test_from_barcode_single_bar_stalks():
    m = from_barcode(sc.barcode(sc.bar(0, 2)))
    assert m.open_dims[0] == (0, 1, 0)
    assert m.point_dims[0] == (1, 0)


def test_from_barcode_overlap_ranks():
    m = from_barcode(sc.barcode(sc.bar(0, 2), sc.bar(1, 3)))
    assert m.critical == (F(0), F(1), F(2), F(3))
    assert m.open_dims[0] == (0, 1, 2, 1, 0)
    import sheafcalc.modp as modp

    ranks = [modp.rank([list(r) for r in mm], 2) for mm in m.maps[0]]
    assert ranks == [0, 1, 1, 0]


def test_decompose_single_stratum():
    # map across 0 is 0x1 (no rows), map across 1 is 1x0 (one empty row)
    m = StratModel(
        (F(0), F(1)),
        {0: (0, 1, 0)},
        {0: (1, 0)},
        {0: ((), ((),))},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar(0, 1))


def test_decompose_identity_chain_gives_half_line():
    m = StratModel(
        (F(0), F(1)),
        {0: (0, 1, 1)},
        {0: (1, 1)},
        {0: ((), ((1,),))},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar(0, "+inf"))


def test_decompose_left_infinite_stratum():
    # nonzero leftmost stratum opens the bar at -inf
    m = StratModel(
        (F(0),),
        {0: (1, 0)},
        {0: (0,)},
        {0: (((),),)},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar("-inf", 0, lo_closed=False))


def test_round_trip_random(rng):
    for _ in range(100):
        b = rand_tamarkin_barcode(rng, max_bars=10, degrees=(0, 1, 2), lo=-20, hi=20, max_len=20)
        assert decompose(from_barcode(b)) == b


def test_malformed_shapes_rejected():
    with pytest.raises(ValidationError):
        StratModel((F(0),), {0: (1, 1)}, {0: (1,)}, {0: (((1, 1),),)}, 2)
    with pytest.raises(ValidationError):
        StratModel((F(1), F(0)), {0: (0, 0, 0)}, {0: (0, 0)}, {0: ((), ())}, 2)


# --- RHom zigzag oracle -----------------------------------------------------


def test_rhom_oracle_matches_published_cases():
    I = sc.interval  # noqa: E741
    # finite-finite table
    assert rhom_oracle(I(0, 2), I(1, 3)) == sc.HomSpace({0: 1})
    assert rhom_oracle(I(1, 3), I(0, 2)) == sc.HomSpace({1: 1})
    assert rhom_oracle(I(0, 1), I(2, 3)) == sc.HomSpace()
    # the degree-1 warning example
    assert rhom_oracle(I(0, "+inf"), I("-inf", 0, False, False)) == sc.HomSpace({1: 1})
    # half-infinite clauses
    assert rhom_oracle(I(0, 1), I(0, "+inf")) == sc.HomSpace({0: 1})
    assert rhom_oracle(I(0, "+inf"), I(-1, 2)) == sc.HomSpace({1: 1})
    assert rhom_oracle(I(0, "+inf"), I(1, "+inf")) == sc.HomSpace({0: 1})
    assert rhom_oracle(I(0, "+inf"), I(-1, "+inf")) == sc.HomSpace()


def test_rhom_oracle_identity_and_singleton():
    assert rhom_oracle(sc.singleton(0), sc.singleton(0)) == sc.HomSpace({0: 1})
    assert rhom_oracle(sc.interval(0, 1), sc.interval(0, 1)) == sc.HomSpace({0: 1})
    assert rhom_oracle(sc.interval(0, 1, True, True), sc.singleton(1)) == sc.HomSpace({0: 1})


def test_rhom_oracle_field_independent(rng):
    for _ in range(40):
        a, c = rng.randint(-5, 5), rng.randint(-5, 5)
        i = sc.interval(a, a + rng.randint(1, 5))
        j = sc.interval(c, c + rng.randint(1, 5))
        assert rhom_oracle(i, j, 2) == rhom_oracle(i, j, 3) == rhom_oracle(i, j, 7)


def test_germ_models():
    i = sc.interval(0, 2)
    assert germ_at(i, F(0)) is not None and germ_at(i, F(0)).lo.closed
    assert germ_at(i, F(2)).hi.finite and not germ_at(i, F(2)).hi.closed
    assert germ_at(i, F(1)).lo.finite is False
    assert germ_at(i, F(5)) is None
    assert germ_at(sc.singleton(1), F(1)).is_singleton


def _germ_at_reference(i, t):
    """The cmp-based germ_at that the native comparisons replaced."""
    lo_c = sc.cmp(i.lo.value, t) if is_finite(i.lo.value) else -1
    hi_c = sc.cmp(t, i.hi.value) if is_finite(i.hi.value) else -1
    if lo_c > 0 or hi_c > 0:
        return None
    at_lo = is_finite(i.lo.value) and lo_c == 0
    at_hi = is_finite(i.hi.value) and hi_c == 0
    if at_lo and at_hi:
        return sc.singleton(F(0))
    if at_lo:
        return _GERM_AMBIENT["closed-right" if i.lo.closed else "open-right"]
    if at_hi:
        return _GERM_AMBIENT["closed-left" if i.hi.closed else "open-left"]
    return _GERM_AMBIENT["full"]


def test_germ_at_matches_cmp_reference():
    rng = random.Random(0x6E53)
    pool = mixed_scalars()
    for _ in range(1000):
        values = rng.sample(pool + [NEG_INF, POS_INF], 4)
        i = random_interval(rng, values)
        if rng.random() < 0.25:
            i = twin(i)
        ends = [e.value for e in (i.lo, i.hi) if e.finite]
        twins = [PiRational(0, v) for v in ends if isinstance(v, F)]
        for t in ends + twins + rng.sample(pool, 4):
            want, got = _germ_at_reference(i, t), germ_at(i, t)
            assert got == want
            if want is not None and not want.is_singleton:
                assert got is want


def test_stalkwise_oracle_for_closed_output():
    # RHom(k_[0,2), k_[1,oo)) should be the closed interval [1,2]
    i, j = sc.interval(0, 2), sc.interval(1, "+inf")
    expect = {F(1): {0: 1}, F(3, 2): {0: 1}, F(2): {0: 1}, F(5, 2): {}, F(1, 2): {}}
    for t, dims in expect.items():
        assert rhom_sheaf_stalk_oracle(i, j, t) == sc.HomSpace(dims)
