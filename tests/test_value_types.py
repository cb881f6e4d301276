"""The tuple-backed value types against the frozen dataclasses they replaced.

`Endpoint`, `Interval` and `GradedBar` below are the dataclass versions,
kept with their checks and the members the comparisons read.  On generated
inputs the package's types must agree with them on ==, hash, repr, str and
`flavor`, and on the ValidationError message of every refused input.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from sheafcalc import intervals
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, Extended, Infinity, PiRational, _excerpt, is_finite


@dataclass(frozen=True)
class Endpoint:
    value: Extended
    closed: bool

    def __post_init__(self):
        if isinstance(self.value, Infinity) and self.closed:
            raise ValidationError("infinite endpoints are always open")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", F(self.value))
        elif not isinstance(self.value, (F, PiRational, Infinity)):
            raise ValidationError(f"bad endpoint value {_excerpt(self.value)}")

    @property
    def finite(self) -> bool:
        return is_finite(self.value)


@dataclass(frozen=True)
class Interval:
    lo: Endpoint
    hi: Endpoint

    def __post_init__(self):
        lo, hi = self.lo.value, self.hi.value
        if not (lo <= hi if self.lo.closed and self.hi.closed else lo < hi):
            if lo > hi:
                raise ValidationError(f"empty interval: lo {_excerpt(lo, str)} > hi {_excerpt(hi, str)}")
            raise ValidationError("degenerate interval must be the both-closed singleton")

    @property
    def is_singleton(self) -> bool:
        return self.lo.value == self.hi.value

    def __str__(self):
        lb = "[" if self.lo.closed else "("
        rb = "]" if self.hi.closed else ")"
        if self.is_singleton:
            return f"{{{self.lo.value}}}"
        return f"{lb}{self.lo.value},{self.hi.value}{rb}"


@dataclass(frozen=True)
class GradedBar:
    interval: Interval
    degree: int = 0
    mult: int = 1

    def __post_init__(self):
        if self.mult < 1:
            raise ValidationError("bar multiplicity must be >= 1")


def build(make, *args):
    """(the value, None) or (None, the ValidationError message)."""
    try:
        return make(*args), None
    except ValidationError as exc:
        return None, str(exc)


def assert_same(pairs):
    """Old and new values agree on repr, str, hash and == between any two."""
    for old, new in pairs:
        assert repr(new) == repr(old) and str(new) == str(old)
        assert hash(new) == hash(old)
    for (old1, new1), (old2, new2) in itertools.product(pairs, repeat=2):
        assert (new1 == new2) == (old1 == old2)
        assert (new1 != new2) == (old1 != old2)


VALUES = [F(k, 2) for k in range(-4, 5)] + [-2, 0, 3, True, PiRational(0, 1), PiRational(1, -3), PiRational(-1, 4)]
VALUES += [NEG_INF, POS_INF]
BAD_VALUES = [1.5, "3", None, (1, 2)]


def test_endpoints_agree_with_the_dataclass():
    pairs = []
    for value, closed in itertools.product(VALUES + BAD_VALUES, (True, False)):
        old, old_error = build(Endpoint, value, closed)
        new, new_error = build(intervals.Endpoint, value, closed)
        assert new_error == old_error
        if old is not None:
            pairs.append((old, new))
            assert type(new.value) is type(old.value) and new.closed is old.closed
    assert len(pairs) > 30
    assert_same(pairs)
    # the messages: a closed infinite end, and a bad value type
    assert build(intervals.Endpoint, POS_INF, True)[1] == "infinite endpoints are always open"
    assert build(intervals.Endpoint, 1.5, False)[1] == "bad endpoint value 1.5"


def test_intervals_and_bars_agree_with_the_dataclass():
    rng = random.Random("value-types")
    ends = [
        (Endpoint(v, c and not isinstance(v, Infinity)), intervals.Endpoint(v, c and not isinstance(v, Infinity)))
        for v in VALUES
        for c in (True, False)
    ]
    ivs, errors = [], set()
    for (lo_old, lo_new), (hi_old, hi_new) in itertools.product(ends, repeat=2):
        old, old_error = build(Interval, lo_old, hi_old)
        new, new_error = build(intervals.Interval, lo_new, hi_new)
        assert new_error == old_error
        errors.add(old_error and old_error.partition(":")[0])
        if old is not None:
            ivs.append((old, new))
            assert intervals.flavor(new) == intervals.flavor(old)
    assert errors == {None, "empty interval", "degenerate interval must be the both-closed singleton"}
    assert_same(rng.sample(ivs, 120))
    bars = []
    for (old_iv, new_iv), degree, mult in itertools.product(rng.sample(ivs, 40), (-1, 0, 2), (-1, 0, 1, 3)):
        old, old_error = build(GradedBar, old_iv, degree, mult)
        new, new_error = build(intervals.GradedBar, new_iv, degree, mult)
        assert new_error == old_error == (None if mult >= 1 else "bar multiplicity must be >= 1")
        if old is not None:
            bars.append((old, new))
    assert_same(rng.sample(bars, 120))
    assert repr(intervals.GradedBar(ivs[0][1])) == repr(GradedBar(ivs[0][0]))  # the defaults


def test_values_are_tuples_of_their_fields():
    lo, hi = intervals.Endpoint(0, True), intervals.Endpoint(F(1, 2), False)
    i = intervals.Interval(lo, hi)
    assert lo == (F(0), True) and i == (lo, hi) and intervals.GradedBar(i) == (i, 0, 1)
    assert list(i) == [lo, hi] and lo < hi
    with pytest.raises(AttributeError):
        lo.value = F(1)
    assert not hasattr(lo, "__dict__")
