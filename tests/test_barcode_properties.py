"""Canonical form, the JSON interchange and the bottleneck distance as
properties of generated barcodes.

The barcodes hold bars of every kind: [a, b), closed, open and half-open
bars, singletons, half lines either way and (-oo, +oo), with rational or
q*pi + s ends, degrees -1 to 1 and multiplicities up to 3, in any order and
with repeats, so `canonicalize` has runs to sort and merge.
"""

import json
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import sheafcalc as sc
from sheafcalc import metrics as mt
from sheafcalc.exactnum import NEG_INF, POS_INF, PiRational, is_finite
from sheafcalc.intervals import barcode_from_json, barcode_to_json, canonicalize

PROPERTIES = settings(max_examples=60, deadline=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
ends = st.one_of(rationals, st.builds(PiRational, st.sampled_from([1, -1]), rationals))
lengths = st.one_of(
    st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4),
    st.builds(PiRational, st.just(1), st.fractions(min_value=-1, max_value=1, max_denominator=4)),
)


@st.composite
def intervals(draw, infinite=True):
    lo = draw(st.one_of(ends, st.just(NEG_INF)) if infinite else ends)
    if lo is NEG_INF:
        hi = draw(st.one_of(ends, st.just(POS_INF)))
    else:
        ray = [st.just(POS_INF)] if infinite else []
        hi = draw(st.one_of(st.just(lo), lengths.map(lambda d, lo=lo: lo + d), *ray))
        if hi == lo:
            return sc.singleton(lo)
    return sc.interval(lo, hi, is_finite(lo) and draw(st.booleans()), is_finite(hi) and draw(st.booleans()))


@st.composite
def barcodes(draw, max_bars=4, max_mult=3, infinite=True):
    bar_ = st.builds(sc.GradedBar, intervals(infinite), st.integers(-1, 1), st.integers(1, max_mult))
    bars = draw(st.lists(bar_, max_size=max_bars))
    repeats = draw(st.lists(st.sampled_from(bars), max_size=2)) if bars else []
    return sc.GradedBarcode(tuple(draw(st.permutations(bars + repeats))))


@PROPERTIES
@given(barcodes())
def test_canonicalize_is_idempotent(b):
    once = canonicalize(b)
    assert canonicalize(once).bars == once.bars
    assert canonicalize(sc.GradedBarcode(once.bars[::-1])).bars == once.bars


@PROPERTIES
@given(barcodes())
def test_json_round_trip(b):
    text = json.dumps(barcode_to_json(b))
    back = barcode_from_json(json.loads(text))
    assert back == b
    assert canonicalize(back).bars == canonicalize(b).bars
    assert json.dumps(barcode_to_json(back)) == text


@PROPERTIES
@given(
    barcodes(max_bars=3, max_mult=2, infinite=False),
    barcodes(max_bars=3, max_mult=2),
    barcodes(max_bars=3, max_mult=2, infinite=False),
)
def test_bottleneck_is_a_metric(a, b, c):
    # a and c have finite bars only, so most distances are finite
    # zero on equal barcodes, whatever their order and run splits
    assert mt.bottleneck(a, a) == 0
    split = tuple(sc.GradedBar(x.interval, x.degree) for x in a.bars[::-1] for _ in range(x.mult))
    assert sc.GradedBarcode(split) == a and mt.bottleneck(a, sc.GradedBarcode(split)) == 0
    dab, dbc, dac = mt.bottleneck(a, b), mt.bottleneck(b, c), mt.bottleneck(a, c)
    assert dab >= 0
    assert dab == mt.bottleneck(b, a)
    assert dac <= dab + dbc
