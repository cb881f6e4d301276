"""Exact scalar arithmetic for interval endpoints.

Endpoints are plain `Fraction`s everywhere except the symplectic-domain
layer, where filtration values of the form q*pi + s (q, s rational) occur.
`PiRational` stores that form symbolically; comparisons between values that
share the symbolic form are exact, mixed comparisons are decided with a
certified rational enclosure of pi and raise `PiComparisonError` when the
enclosure cannot separate the operands (it is far narrower than anything a
sane input can produce, but we never guess).

The two infinities are dedicated singletons `NEG_INF` / `POS_INF`.  Every
`Extended` value (Fraction, PiRational or an infinity) compares, adds,
subtracts, negates and converts to float with Python's own operators;
+inf + -inf has no value and raises `ValidationError`.  Floats never appear
in any comparison path.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, PiComparisonError, ValidationError

# 82 correct digits of pi; enclosure width 1e-81, far below the 1e-30 the
# comparison contract requires.
_PI_DIGITS = "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998"

_scale = 10 ** (len(_PI_DIGITS) - 2)
PI_LO = Fraction(int(_PI_DIGITS.replace(".", "")), _scale)
PI_HI = PI_LO + Fraction(1, _scale)


class Infinity:
    """Signed infinity singleton; only NEG_INF and POS_INF exist."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __hash__(self):
        return hash(("sheafcalc.inf", self.sign))

    def __eq__(self, other):
        return isinstance(other, Infinity) and other.sign == self.sign

    # A finite value counts as sign 0.  Fraction and PiRational answer
    # NotImplemented against an Infinity, so these also serve the reflected
    # comparisons: every Extended value sorts with the native operators.

    def __lt__(self, other):
        return self.sign < (other.sign if isinstance(other, Infinity) else 0)

    def __le__(self, other):
        return self.sign <= (other.sign if isinstance(other, Infinity) else 0)

    def __gt__(self, other):
        return self.sign > (other.sign if isinstance(other, Infinity) else 0)

    def __ge__(self, other):
        return self.sign >= (other.sign if isinstance(other, Infinity) else 0)

    # An infinity absorbs every finite value and itself; opposite infinities
    # have no sum.  The reflected forms serve finite + inf and finite - inf.

    def __add__(self, other):
        if isinstance(other, Infinity) and other.sign != self.sign:
            raise ValidationError("inf + -inf is undefined")
        return self if isinstance(other, (int, Fraction, PiRational, Infinity)) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PiRational, Infinity)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __float__(self):
        return math.inf * self.sign


POS_INF = Infinity(1)
NEG_INF = Infinity(-1)


@dataclass(frozen=True)
class PiRational:
    """The exact real number q*pi + s with q, s rational."""

    q: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "s", Fraction(self.s))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _as_pirational(other)
        if other is NotImplemented:
            return NotImplemented
        return PiRational(self.q + other.q, self.s + other.s)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_pirational(other)
        if other is NotImplemented:
            return NotImplemented
        return PiRational(self.q - other.q, self.s - other.s)

    def __rsub__(self, other):
        other = _as_pirational(other)
        if other is NotImplemented:
            return NotImplemented
        return PiRational(other.q - self.q, other.s - self.s)

    def __neg__(self):
        return PiRational(-self.q, -self.s)

    def __mul__(self, other):
        # scalar rescaling only; pi*pi has no home here
        if isinstance(other, (int, Fraction)):
            return PiRational(self.q * other, self.s * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiRational(self.q / other, self.s / other)
        return NotImplemented

    # -- comparisons ------------------------------------------------------

    def sign(self) -> int:
        if self.q == 0 or self.s == 0:
            x = self.q or self.s  # pi > 0, so q*pi alone has the sign of q
            return (x > 0) - (x < 0)
        lo = self.q * (PI_LO if self.q > 0 else PI_HI) + self.s
        hi = self.q * (PI_HI if self.q > 0 else PI_LO) + self.s
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        # pi is irrational, so q != 0 means the value is nonzero; the
        # enclosure is simply too wide, which we refuse to paper over.  The
        # digits stay out of the message: they may run to thousands, past
        # what str() of an int will print.
        bits = max(self.q.numerator.bit_length(), self.s.numerator.bit_length())
        raise PiComparisonError(
            f"cannot separate a q*pi + s value from 0 within the pi enclosure "
            f"(numerators of up to {bits} bits)"
        )

    def __eq__(self, other):
        o = _as_pirational(other)
        if o is NotImplemented:
            return NotImplemented
        return self.q == o.q and self.s == o.s

    def __hash__(self):
        if self.q == 0:
            return hash(self.s)
        return hash(("sheafcalc.pirational", self.q, self.s))

    def __lt__(self, other):
        o = _as_pirational(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = _as_pirational(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = _as_pirational(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = _as_pirational(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.q) * 3.141592653589793 + float(self.s)

    def __repr__(self):
        return f"PiRational({self.q}pi + {self.s})"

    def __str__(self):
        if self.q == 0:
            return str(self.s)
        head = "pi" if self.q == 1 else ("-pi" if self.q == -1 else f"{self.q}pi")
        if self.s == 0:
            return head
        return f"{head}{'+' if self.s > 0 else '-'}{abs(self.s)}"


def _as_pirational(x):
    if isinstance(x, PiRational):
        return x
    if isinstance(x, (int, Fraction)):
        return PiRational(Fraction(0), Fraction(x))
    return NotImplemented


#: A finite exact scalar.
Scalar = Union[Fraction, PiRational]
#: A finite scalar or one of the two infinities.
Extended = Union[Fraction, PiRational, Infinity]


def cmp(x: Extended, y: Extended) -> int:
    """Three-way comparison over Fraction / PiRational / infinities."""
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        xs = x.sign * 2 if isinstance(x, Infinity) else 0
        ys = y.sign * 2 if isinstance(y, Infinity) else 0
        return (xs > ys) - (xs < ys)
    if isinstance(x, PiRational) or isinstance(y, PiRational):
        return (_as_pirational(x) - _as_pirational(y)).sign()
    return (x > y) - (x < y)


def is_finite(x: Extended) -> bool:
    return not isinstance(x, Infinity)


# -- parsing and JSON forms -------------------------------------------------

# Fraction expands a decimal exponent into an integer with that many digits,
# so '1e2000000' alone takes seconds; past this magnitude it is refused.
MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"E[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """The exact rational of a literal such as '3/2', '-0.25' or '1e-3'.

    Every string-to-Fraction conversion of input goes through here, so an
    exponent past MAX_EXPONENT is refused before any big integer is built.
    A plain ASCII -digits[/digits] literal, denominator nonzero and within
    the int digit limit, is read by int() alone.
    """
    num, slash, den = text.partition("/")
    plain = num.removeprefix("-").isdigit() and (not slash or den.isdigit() and den.strip("0"))
    if plain and text.isascii() and len(text) <= (sys.get_int_max_str_digits() or len(text)):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    m = ("e" in text or "E" in text) and _EXPONENT.search(text)
    # seven significant digits are past the cap already, so read no more
    if m and int(m[1].replace("_", "").lstrip("0")[:7] or 0) > MAX_EXPONENT:
        raise ValidationError(f"decimal exponent past +-{MAX_EXPONENT} in a rational literal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if limit and len(text) > limit:
            raise ValidationError(f"rational literal of {len(text)} characters is past Python's "
                                  f"{limit}-digit integer limit") from exc
        raise ValidationError(f"bad rational literal {_excerpt(text)}") from exc


def parse_scalar(text: str) -> Extended:
    """Parse '-inf', '+inf', '3/2', '2pi', 'pi-1/2', '3pi+1' style literals."""
    t = text.strip().replace(" ", "")
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("+inf", "inf", "oo", "+oo"):
        return POS_INF
    if "pi" not in t:
        return parse_rational(t)
    head, _, tail = t.partition("pi")
    if tail and tail[0] not in "+-":
        raise ValidationError(f"bad scalar literal {_excerpt(text)}")
    q = parse_rational({"": "1", "+": "1", "-": "-1"}.get(head, head))
    return PiRational(q, parse_rational(tail or "0"))


def _excerpt(value, show=repr) -> str:
    """show(value), repr by default, for a message, cut after 40 characters;
    named by its type when it holds an integer past the int-to-str limit."""
    try:
        text = show(value)
    except ValueError:
        return f"<{type(value).__name__} past the {sys.get_int_max_str_digits()}-digit limit for writing integers>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def scalar_to_json(x: Extended):
    if x is POS_INF:
        return "+inf"
    if x is NEG_INF:
        return "-inf"
    if isinstance(x, PiRational):
        if x.q == 0:
            return exact_str(x.s)
        return {"pi": exact_str(x.q), "plus": exact_str(x.s)}
    return exact_str(x)


def exact_str(x: Union[int, Fraction, PiRational]) -> str:
    """str(x), or a DomainError (exit 3) naming the digit count when x holds
    an integer past the interpreter's int-to-string digit limit."""
    try:
        return str(x)
    except ValueError:
        parts = (x.q, x.s) if isinstance(x, PiRational) else (x,)
        raise long_int_error((n for v in parts for n in (v.numerator, v.denominator)),
                             "numerator or denominator") from None


def long_int_error(ints: Iterable[int], what: str = "integer") -> DomainError:
    """The DomainError (exit 3) for a result holding an integer past the
    interpreter's int-to-string digit limit, naming the most digits in ints."""
    digits = max(_digit_count(n) for n in ints)
    return DomainError(f"an exact result has a {digits}-digit {what}, "
                       f"past the {sys.get_int_max_str_digits()}-digit limit for writing integers")


def _digit_count(n: int) -> int:
    """Decimal digits of |n|, found without converting n to a string."""
    n = abs(n) or 1
    e = int(math.log10(n))  # off by at most one
    return e + (n >= 10**e) + (n >= 10 ** (e + 1))


def _json_rational(v, whole) -> Fraction:
    """An exact rational from a JSON integer or string; floats and bools are refused."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise ValidationError(f"{_excerpt(v)} in {_excerpt(whole)} is not an exact rational (a JSON integer or string)")


def scalar_from_json(v) -> Extended:
    if isinstance(v, dict):
        if "pi" not in v:
            raise ValidationError(f"bad symbolic endpoint {_excerpt(v)}")
        return PiRational(_json_rational(v["pi"], v), _json_rational(v.get("plus", "0"), v))
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        return parse_scalar(v)
    raise ValidationError(f"bad endpoint value {_excerpt(v)}")
