import functools
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest

from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import (
    _EXPONENT,
    MAX_EXPONENT,
    NEG_INF,
    PI_HI,
    PI_LO,
    POS_INF,
    PiRational,
    _excerpt,
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


def _general_parse_rational(text):
    """`parse_rational` without its int() fast path: what every literal took before."""
    m = ("e" in text or "E" in text) and _EXPONENT.search(text)
    if m and int(m[1].replace("_", "").lstrip("0")[:7] or 0) > MAX_EXPONENT:
        raise ValidationError(f"decimal exponent past +-{MAX_EXPONENT} in a rational literal")
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if limit and len(text) > limit:
            raise ValidationError(f"rational literal of {len(text)} characters is past Python's "
                                  f"{limit}-digit integer limit") from exc
        raise ValidationError(f"bad rational literal {_excerpt(text)}") from exc


def _outcome(parse, text):
    try:
        x = parse(text)
    except ValidationError as exc:
        return "error", str(exc)
    return type(x), x


def test_parse_rational_fast_path_matches_the_general_path():
    limit = sys.get_int_max_str_digits()
    named = [
        "+3", "--3", "-", "", " 3", "3 ", "1_000", "1e3", "3/0", "3/00", "0/5", "-0", "-0/7", "007/014",
        "\u0663", "\u00b2", "1/\u0663", "-3/-4", "3/+4", "1/2/3", "/2", "3/", "-/2", "1.5", "0x10",
        "9" * (limit + 1), "-" + "9" * limit, "1/" + "7" * (limit + 1), "7" * limit, "7" * (limit - 2) + "/3",
    ]
    rng = random.Random("parse-rational")
    alphabet = "0123456789" * 3 + "--//+_ e.\u0663"
    generated = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7))) for _ in range(4000)]
    generated += [f"{rng.choice(['', '-'])}{rng.randint(0, 10**30)}/{rng.randint(0, 99)}" for _ in range(500)]
    fast = 0
    for text in named + generated:
        want = _outcome(_general_parse_rational, text)
        assert _outcome(parse_rational, text) == want, text
        if want[0] is F and text.isascii() and text.removeprefix("-").replace("/", "", 1).isdigit():
            assert parse_rational(text) == F(text)
            fast += 1
    assert fast > 1000


def test_scalar_json_round_trip():
    for v in (F(3, 2), F(-1), PiRational(F(1, 2), F(3)), POS_INF, NEG_INF):
        assert scalar_from_json(scalar_to_json(v)) == v
