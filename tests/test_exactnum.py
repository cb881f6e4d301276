import functools
import random
from fractions import Fraction as F

import mpmath
import pytest

from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import (
    NEG_INF,
    PI_HI,
    PI_LO,
    POS_INF,
    PiRational,
    cmp,
    parse_rational,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)

from conftest import mixed_scalars


def test_pi_enclosure_is_tight_and_correct():
    mpmath.mp.dps = 100
    pi = mpmath.mpf(mpmath.pi)
    assert mpmath.mpf(PI_LO.numerator) / PI_LO.denominator < pi
    assert mpmath.mpf(PI_HI.numerator) / PI_HI.denominator > pi
    assert PI_HI - PI_LO < F(1, 10**30)


def test_pirational_ordering_and_arithmetic():
    x = PiRational(F(1), F(0))  # pi
    y = PiRational(F(0), F(3))  # 3
    assert x > y
    assert y < x
    assert x - x == PiRational(F(0), F(0))
    assert (2 * x + 1).s == 1
    assert cmp(x, F(3)) > 0
    assert cmp(F(4), x) > 0
    assert cmp(PiRational(F(2), F(0)), PiRational(F(2), F(0))) == 0


def test_pirational_mixed_equality_is_exact():
    assert PiRational(F(0), F(3)) == F(3)
    assert not PiRational(F(1), F(0)) == F(3)
    assert hash(PiRational(F(0), F(5, 2))) == hash(F(5, 2))


def test_pure_pi_multiple_sign_agrees_with_enclosure():
    # q*pi with s == 0 takes the sign of q without the enclosure; the
    # enclosure, worked out here apart, must give the same sign
    rng = random.Random(7)
    qs = [F(0), F(1), F(-1), F(1, 10**90), F(-1, 10**90), F(7, 3)]
    for digits in (10, 100, 2000, 4000):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        qs += [F(n, rng.randrange(1, 10**digits)), F(-n, 3), F(1, n), F(-1, n)]
    for q in qs:
        lo, hi = sorted((q * PI_LO, q * PI_HI))
        expect = 1 if lo > 0 else (-1 if hi < 0 else 0)
        assert PiRational(q, F(0)).sign() == expect
        assert (PiRational(q, F(0)) > 0) == (expect > 0)


def test_infinities():
    assert cmp(NEG_INF, POS_INF) < 0
    assert cmp(POS_INF, F(10**9)) > 0
    assert cmp(NEG_INF, PiRational(F(-100), F(0))) < 0
    assert POS_INF + F(5) is POS_INF
    with pytest.raises(ValidationError):
        POS_INF + NEG_INF


def test_native_order_agrees_with_cmp():
    pool = mixed_scalars() + [NEG_INF, POS_INF, F(0), PiRational(0, 0)]
    for x in pool:
        for y in pool:
            c = cmp(x, y)
            assert (x < y, x <= y, x == y, x > y, x >= y) == (c < 0, c <= 0, c == 0, c > 0, c >= 0), (x, y)
    rng = random.Random(7)
    for _ in range(50):
        vals = rng.sample(pool, rng.randint(0, len(pool)))
        # both sorts are stable, so equal values of different types keep their order
        want = sorted(vals, key=functools.cmp_to_key(cmp))
        got = sorted(vals)
        assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)


@pytest.mark.parametrize(
    "text,expect",
    [
        ("3/2", F(3, 2)),
        ("-7", F(-7)),
        ("pi", PiRational(F(1), F(0))),
        ("3pi", PiRational(F(3), F(0))),
        ("-pi+1/2", PiRational(F(-1), F(1, 2))),
        ("1/2pi-3", PiRational(F(1, 2), F(-3))),
        ("+inf", POS_INF),
        ("-inf", NEG_INF),
    ],
)
def test_parse_scalar(text, expect):
    assert parse_scalar(text) == expect


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_scalar("pie")
    with pytest.raises(ValidationError):
        parse_scalar("2pi3")


def test_exponent_cap_is_exact():
    assert parse_rational("1e100_000") == 10**100000
    assert parse_rational(" 3E-0100000 ") == F(3, 10**100000)
    assert parse_rational("2.5e00000000000000000003") == 2500
    for text in ("1e100001", "1e-100001", "1e1_000_000", "1e" + "9" * 5000):
        with pytest.raises(ValidationError, match="exponent"):
            parse_rational(text)


def test_scalar_json_round_trip():
    for v in (F(3, 2), F(-1), PiRational(F(1, 2), F(3)), POS_INF, NEG_INF):
        assert scalar_from_json(scalar_to_json(v)) == v
