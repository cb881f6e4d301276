"""Properties of +, - and float() over Fraction, PiRational and the infinities.

The infinities take Python's operators like every other endpoint value.
Each property runs on a generated mixed pool, and the code that the
operators replaced (an extended `add`, `as_float`, and the branching forms
of `torsion`, `capacity_prime` and `Interval.length`) is copied here as the
reference it must agree with.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sheafcalc as sc
from sheafcalc import ops
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, Infinity, PiRational, scalar_to_json

from conftest import mixed_scalars, random_interval

SETTINGS = settings(max_examples=60, deadline=None)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
pi_rationals = st.builds(PiRational, st.integers(-2, 2), rationals)  # q == 0 included
finite = st.one_of(rationals, pi_rationals)
infinities = st.sampled_from([NEG_INF, POS_INF])
extended = st.one_of(finite, infinities)
# a positive length: a rational, or pi plus at most 1 in either direction
lengths = st.one_of(
    st.fractions(min_value=F(1, 6), max_value=8, max_denominator=6),
    st.builds(PiRational, st.just(1), st.fractions(min_value=-1, max_value=1, max_denominator=4)),
)


# -- references: the code the operators replaced ------------------------------


def old_add(x, y):
    if isinstance(x, Infinity) and isinstance(y, Infinity):
        if x.sign != y.sign:
            raise ValidationError("inf + -inf is undefined")
        return x
    if isinstance(x, Infinity):
        return x
    if isinstance(y, Infinity):
        return y
    return x + y


def old_as_float(x):
    if isinstance(x, Infinity):
        return float("inf") * x.sign
    return float(x)


def old_length(i):
    if not (i.lo.finite and i.hi.finite):
        return POS_INF
    return i.hi.value - i.lo.value


def old_torsion(f):
    best = F(0)
    for x in f.bars:
        length = old_length(x.interval)
        if isinstance(length, Infinity):
            return POS_INF
        if length > best:
            best = length
    return best


def old_capacity_prime(f):
    best = F(0)
    zero = F(0)
    for x in ops.hom_star(f, f).bars:
        alpha, beta = x.interval.lo.value, x.interval.hi.value
        if isinstance(beta, Infinity) and alpha >= zero:
            return POS_INF
        if alpha < zero <= beta:
            c1 = -alpha
            if isinstance(beta, Infinity):
                contrib = c1
            else:
                c2 = beta - alpha if not isinstance(alpha, Infinity) else POS_INF
                contrib = c1 if c1 <= c2 else c2
            if isinstance(contrib, Infinity):
                return POS_INF
            if contrib > best:
                best = contrib
    return best


def opposite(*xs):
    """True when the values hold both infinities, so no sum of them exists."""
    return POS_INF in xs and NEG_INF in xs


# -- the operators ------------------------------------------------------------


@SETTINGS
@given(extended, extended)
def test_sum_is_commutative_and_matches_old_add(x, y):
    if opposite(x, y):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValidationError):
                a + b
            with pytest.raises(ValidationError):
                old_add(a, b)
        return
    assert x + y == y + x == old_add(x, y)
    assert type(x + y) is type(old_add(x, y))


@SETTINGS
@given(extended, extended, extended)
def test_sum_is_associative_where_defined(x, y, z):
    if opposite(x, y, z):
        # some partial sum meets both infinities, whatever the grouping
        for compute in (lambda: (x + y) + z, lambda: x + (y + z)):
            with pytest.raises(ValidationError):
                compute()
        return
    assert (x + y) + z == x + (y + z)


@SETTINGS
@given(extended, extended)
def test_difference_is_sum_of_negation(x, y):
    if opposite(x, -y):
        with pytest.raises(ValidationError):
            x - y
        return
    assert x - y == x + (-y) == old_add(x, -y)


@SETTINGS
@given(extended)
def test_float_matches_old_as_float(x):
    assert float(x) == old_as_float(x)
    assert -(-x) == x


def test_opposite_infinities_have_no_sum():
    for compute in (
        lambda: POS_INF + NEG_INF,
        lambda: NEG_INF + POS_INF,
        lambda: POS_INF - POS_INF,
        lambda: NEG_INF - NEG_INF,
    ):
        with pytest.raises(ValidationError, match="inf \\+ -inf is undefined"):
            compute()
    assert POS_INF + POS_INF is POS_INF and NEG_INF - POS_INF is NEG_INF
    assert F(1) - NEG_INF is POS_INF and 3 + NEG_INF is NEG_INF
    assert float(POS_INF) == math.inf and float(NEG_INF) == -math.inf


@pytest.mark.parametrize("other", ["x", 1.5, None, [1]])
def test_other_operands_are_refused(other):
    for inf in (POS_INF, NEG_INF):
        for compute in (lambda: inf + other, lambda: other + inf, lambda: inf - other, lambda: other - inf):
            with pytest.raises(TypeError):
                compute()


# -- lengths, torsion and capacity_prime against their branching forms -------


@st.composite
def tamarkin_barcodes(draw, max_bars=3):
    """[a, b) and [a, oo) bars with Fraction or q*pi + s ends."""
    bars = []
    for _ in range(draw(st.integers(1, max_bars))):
        a = draw(finite)
        b = draw(st.one_of(st.just(POS_INF), lengths.map(lambda d, a=a: a + d)))
        bars.append(sc.GradedBar(sc.interval(a, b), draw(st.integers(0, 1))))
    return sc.barcode(*bars)


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_length_matches_branching_form(rng):
    pool = mixed_scalars() + [NEG_INF, POS_INF]
    for _ in range(10):
        i = random_interval(rng, pool)
        assert scalar_to_json(i.length) == scalar_to_json(old_length(i))


@SETTINGS
@given(tamarkin_barcodes())
def test_torsion_and_capacity_prime_match_branching_forms(f):
    h = ops.hom_star(f, f)  # holds (-oo, b) bars whenever f has an [a, oo) bar
    for b in (f, h, ops.adjoint(f)):
        for x in b.bars:
            assert x.interval.length == old_length(x.interval)
        assert scalar_to_json(ops.torsion(b)) == scalar_to_json(old_torsion(b))
    assert scalar_to_json(ops.capacity_prime(f)) == scalar_to_json(old_capacity_prime(f))
