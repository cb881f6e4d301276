import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sheafcalc as sc
from sheafcalc import modp
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, PiRational, is_finite
from sheafcalc.intervals import (
    Endpoint,
    GradedBar,
    GradedBarcode,
    Interval,
    canonicalize,
    finite_ends,
    spec,
)
from sheafcalc.stratmodel import (
    _GERM_AMBIENT,
    StratModel,
    decompose,
    from_barcode,
    germ_at,
    rhom_oracle,
    rhom_sheaf_stalk_oracle,
    sample_points,
)

from conftest import (
    dense_maps,
    identity,
    mat_mul,
    mixed_scalars,
    rand_tamarkin_barcode,
    random_interval,
    to_columns,
    to_dense,
    twin,
)


def test_from_barcode_half_line():
    m = from_barcode(sc.barcode(sc.bar(0, "+inf")))
    assert m.critical == (F(0),)
    assert m.open_dims[0] == (0, 1)
    assert m.maps[0][0] == ((),)  # one column, for the class on stratum 1, with no rows


def test_from_barcode_single_bar_stalks():
    b = sc.bar(0, 2)
    m = from_barcode(sc.barcode(b))
    assert m.open_dims[0] == (0, 1, 0)
    # each point stalk is the stalk on the stratum to its right
    assert tuple(int(b.interval.contains(c)) for c in m.critical) == m.open_dims[0][1:]


def test_from_barcode_overlap_ranks():
    m = from_barcode(sc.barcode(sc.bar(0, 2), sc.bar(1, 3)))
    assert m.critical == (F(0), F(1), F(2), F(3))
    assert m.open_dims[0] == (0, 1, 2, 1, 0)
    # [0,2) is row and column 0 wherever it is alive; [1,3) is row 1 on stratum 2
    assert m.maps[0] == (((),), (((0, 1),), ()), (((1, 1),),), ())
    ranks = [modp.rank(to_dense(mm, rows, 2), 2) for mm, rows in zip(m.maps[0], m.open_dims[0])]
    assert ranks == [0, 1, 1, 0]


def test_decompose_single_stratum():
    # map across 0 has one column with no rows, map across 1 has no columns
    m = StratModel(
        (F(0), F(1)),
        {0: (0, 1, 0)},
        {0: (((),), ())},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar(0, 1))


def test_decompose_identity_chain_gives_half_line():
    m = StratModel(
        (F(0), F(1)),
        {0: (0, 1, 1)},
        {0: (((),), (((0, 1),),))},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar(0, "+inf"))


def test_decompose_left_infinite_stratum():
    # nonzero leftmost stratum opens the bar at -inf
    m = StratModel(
        (F(0),),
        {0: (1, 0)},
        {0: ((),)},
        2,
    )
    assert decompose(m) == sc.barcode(sc.bar("-inf", 0, lo_closed=False))


def test_round_trip_random(rng):
    for _ in range(100):
        b = rand_tamarkin_barcode(rng, max_bars=10, degrees=(0, 1, 2), lo=-20, hi=20, max_len=20)
        m = from_barcode(b)
        assert decompose(m) == ref_decompose(m) == dense_decompose(m) == b


# --- the composite-rank decomposition and the dense sweep, kept as the two
# references the sparse sweep replaced


def ref_decompose(model: StratModel) -> GradedBarcode:
    """Unique barcode of a StratModel via composite-rank inclusion-exclusion.

    With r(i,j) the rank of the composite V_j -> V_i (and 0 out of range),
    the multiplicity of the bar alive exactly on strata i..j is
    r(i,j) - r(i-1,j) - r(i,j+1) + r(i-1,j+1).  Stratum 0 opens the bar at
    -oo, stratum k closes it at +oo, otherwise bars are [l_i, l_{j+1}).
    A brute-force oracle: every composite is built and ranked.
    """
    crit = model.critical
    k = len(crit)
    p = model.p
    bars: list[GradedBar] = []
    for deg in model.degrees():
        dims = model.open_dims[deg]
        if not any(dims):
            continue
        ms = dense_maps(model)[deg]
        comp: dict[tuple[int, int], list[list[int]]] = {}
        for j in range(k + 1):
            comp[(j, j)] = identity(dims[j])
            for i in range(j - 1, -1, -1):
                comp[(i, j)] = mat_mul(ms[i], comp[(i + 1, j)], p)
        r = {ij: modp.rank(m, p) for ij, m in comp.items()}  # absent (out of range): 0
        for i in range(k + 1):
            for j in range(i, k + 1):
                mult = r[i, j] - r.get((i - 1, j), 0) - r.get((i, j + 1), 0) + r.get((i - 1, j + 1), 0)
                if mult < 0:
                    raise ValidationError("model is not interval-decomposable")
                if mult == 0:
                    continue
                lo = Endpoint(NEG_INF, False) if i == 0 else Endpoint(crit[i - 1], True)
                hi = Endpoint(POS_INF, False) if j == k else Endpoint(crit[j], False)
                bars.append(GradedBar(Interval(lo, hi), deg, mult))
    return canonicalize(GradedBarcode(tuple(bars)))


def dense_decompose(model: StratModel) -> GradedBarcode:
    """The elder-rule sweep on dense matrices: across each critical value,
    one elimination of [images of the live classes | identity] keeps its
    pivot columns; a dropped image ends its class on the stratum above, a
    kept unit vector is born on the new stratum."""
    crit, k, p = model.critical, len(model.critical), model.p
    spans = []  # (degree, lowest stratum, highest stratum)
    for deg in model.degrees():
        dims, ms = model.open_dims[deg], dense_maps(model)[deg]
        live = [(k, e) for e in identity(dims[k])]  # (birth stratum, vector)
        for i in range(k - 1, -1, -1):
            images = [[sum(a * x for a, x in zip(row, v)) % p for row in ms[i]] for _, v in live]
            unit = identity(dims[i])
            _, pivots = modp.row_echelon([[w[r] for w in images] + unit[r] for r in range(dims[i])], p)
            kept = set(pivots)
            spans += [(deg, i + 1, born) for c, (born, _) in enumerate(live) if c not in kept]
            n = len(live)
            live = [(live[c][0], images[c]) if c < n else (i, unit[c - n]) for c in pivots]
        spans += [(deg, 0, born) for born, _ in live]
    lows = [Endpoint(NEG_INF, False)] + [Endpoint(c, True) for c in crit]
    highs = [Endpoint(c, False) for c in crit] + [Endpoint(POS_INF, False)]
    return canonicalize(GradedBarcode(tuple(GradedBar(Interval(lows[lo], highs[hi]), deg) for deg, lo, hi in spans)))


def random_model(rng):
    """A StratModel with uniformly random transition matrices over F_2, F_3
    or F_5: 0-6 critical values, stalk dims 0-4 (zero dims common) and up to
    three degrees, one of them possibly zero everywhere; each transition is
    drawn dense and stored as sparse columns."""
    p = rng.choice((2, 3, 5))
    k = rng.randint(0, 6)
    crit = tuple(F(c) for c in sorted(rng.sample(range(-10, 11), k)))
    open_dims, maps = {}, {}
    for deg in rng.sample(range(-1, 3), rng.randint(1, 3)):
        top = rng.choice((0, 1, 2, 4))
        dims = tuple(rng.randint(0, top) for _ in range(k + 1))
        open_dims[deg] = dims
        maps[deg] = tuple(
            to_columns([[rng.randrange(p) for _ in range(dims[i + 1])] for _ in range(dims[i])], dims[i + 1])
            for i in range(k)
        )
    return StratModel(crit, open_dims, maps, p)


def test_decompose_matches_composite_rank_reference():
    rng = random.Random(0xDEC0)
    total = 0
    for _ in range(2400):
        m = random_model(rng)
        got = decompose(m)
        assert got == ref_decompose(m) == dense_decompose(m)
        # each unit of the barcode is one basis vector of the stalk it covers
        assert sum(map(sum, m.open_dims.values())) == sum(
            x.mult * sum(x.interval.contains(t) for t in sample_points(m.critical)) for x in got.bars
        )
        total += got.total_mult()
    assert total > 5000


# --- the flag-list from_barcode, kept as the reference the index form replaced


def ref_from_barcode(b):
    """(critical, open_dims, point stalk dims, maps) of b, from per-bar
    alive flags and hand-kept row and column counters."""
    cb = canonicalize(b)
    crit = tuple(spec(cb))
    pts = sample_points(crit)
    open_dims, points, maps = {}, {}, {}
    for deg in sorted({x.degree for x in cb.bars}):
        bars = [x for x in cb.bars if x.degree == deg]
        alive = []
        for t in pts:
            cur = []
            for x in bars:
                cur.extend([x.interval.contains(t)] * x.mult)
            alive.append(cur)
        open_dims[deg] = tuple(sum(a) for a in alive)
        points[deg] = tuple(sum(x.mult for x in bars if x.interval.contains(c)) for c in crit)
        degmaps = []
        for i in range(len(crit)):
            left, right = alive[i], alive[i + 1]
            m = [[0] * sum(right) for _ in range(sum(left))]
            li = {}
            r = 0
            for j, a in enumerate(left):
                if a:
                    li[j] = r
                    r += 1
            c = 0
            for j, a in enumerate(right):
                if a:
                    if j in li:
                        m[li[j]][c] = 1
                    c += 1
            degmaps.append(to_columns(m, sum(right)))
        maps[deg] = tuple(degmaps)
    return crit, open_dims, points, maps


def shared_end_barcode(rng, pool, max_bars=8):
    """Tamarkin bars on a few shared ends from pool (rational and q*pi + s,
    with equal values held as different objects), multiplicities 1-3 and
    degrees 0-2."""
    ends = rng.sample(pool, rng.randint(1, 5))
    bars = []
    for _ in range(rng.randint(1, max_bars)):
        lo = rng.choice(ends)
        hi = rng.choice([e for e in ends if e > lo] + [POS_INF])
        bars.append(sc.bar(lo, hi, rng.randrange(3), rng.randint(1, 3)))
    return sc.barcode(*bars)


def test_from_barcode_matches_flag_list_reference():
    rng = random.Random(0x57A7)
    pool = mixed_scalars()
    for n in range(1200):
        if n % 2:
            b = shared_end_barcode(rng, pool)
        else:
            b = rand_tamarkin_barcode(rng, max_bars=10, degrees=(0, 1, 2), lo=-6, hi=6, max_len=6)
        crit, open_dims, points, maps = ref_from_barcode(b)
        m = from_barcode(b)
        assert (m.critical, m.open_dims, m.maps) == (crit, open_dims, maps)
        assert points == {deg: dims[1:] for deg, dims in open_dims.items()}


def test_pi_ends_reach_the_quiver_layer():
    pi = PiRational(1, 0)
    b = sc.barcode(sc.bar(pi, 2 * pi))
    m = from_barcode(b)
    assert m.critical == (pi, 2 * pi) and m.open_dims[0] == (0, 1, 0)
    assert decompose(m) == b
    i, j = sc.interval(pi, 2 * pi), sc.interval(1, pi)
    assert rhom_oracle(i, j) == sc.rhom_total(sc.barcode(sc.GradedBar(i)), sc.barcode(sc.GradedBar(j)))
    assert rhom_oracle(i, j) == sc.HomSpace({1: 1})
    rng = random.Random(0x9175)
    pool = mixed_scalars()
    for _ in range(300):
        i, j = (sc.interval(lo, rng.choice([e for e in pool if e > lo] + [POS_INF])) for lo in rng.sample(pool, 2))
        f, g = sc.barcode(sc.GradedBar(i)), sc.barcode(sc.GradedBar(j))
        assert rhom_oracle(i, j) == sc.rhom_total(f, g)


def test_pirational_divides_by_int_and_fraction_only():
    x = PiRational(1, 1)
    assert x / 2 == PiRational(F(1, 2), F(1, 2))
    assert x / F(-1, 3) == PiRational(-3, -3)
    with pytest.raises(ZeroDivisionError):
        x / 0
    for other in (1.5, x, "2"):
        with pytest.raises(TypeError):
            x / other
    with pytest.raises(TypeError):
        2 / x


_ENDS = st.lists(
    st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.builds(PiRational, st.integers(-2, 2).filter(bool), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    ),
    min_size=1,
    max_size=5,
    unique=True,
).map(sorted)


@st.composite
def shared_end_barcodes(draw):
    """Tamarkin barcodes whose bars share a few rational or q*pi + s ends."""
    ends = draw(_ENDS)
    bars = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, len(ends) - 1))
        hi = draw(st.sampled_from(ends[n + 1:] + [POS_INF]))
        bars.append(sc.bar(ends[n], hi, draw(st.integers(0, 2)), draw(st.integers(1, 3))))
    return sc.barcode(*bars)


@settings(max_examples=80, deadline=None)
@given(shared_end_barcodes())
def test_round_trip_property(b):
    assert decompose(from_barcode(b)) == b


def one_transition(*columns):
    """maps[deg] of a model with one critical value: one transition with
    the given sparse columns."""
    return (columns,)


MALFORMED = [
    ((F(0),), (1, 1), one_transition(((0, 1, 1),))),  # an entry that is not a (row, value) pair
    ((F(1), F(0)), (0, 0, 0), ((), ())),  # critical values out of order
    ((F(0),), (0, 1), None),  # a degree with stalks but no transitions at all
    ((F(0),), (1, 1), one_transition(((1, 1),))),  # a row outside range(open_dims[deg][i])
    ((F(0),), (1, 1), one_transition((), ((0, 1),))),  # two columns for a one-dimensional V_1
]


def test_malformed_shapes_rejected():
    # each one-critical-value case differs from this well-formed model in the
    # one respect named
    assert decompose(StratModel((F(0),), {0: (1, 1)}, {0: one_transition(((0, 1),))}, 2)) == sc.barcode(
        sc.bar("-inf", "+inf", lo_closed=False))
    for critical, dims, maps in MALFORMED:
        with pytest.raises(ValidationError):
            StratModel(critical, {0: dims}, {} if maps is None else {0: maps}, 2)


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


def ref_rhom_oracle(src, tgt, p):
    """The oracle on an explicit exit-path representation: dims, then each
    structure map stored and looked up."""

    def rep(i, crit):
        open_dim = tuple(1 if i.contains(t) else 0 for t in sample_points(crit))
        point_dim = tuple(1 if i.contains(c) else 0 for c in crit)
        left = tuple(1 if point_dim[j] and open_dim[j] else 0 for j in range(len(crit)))
        right = tuple(1 if point_dim[j] and open_dim[j + 1] else 0 for j in range(len(crit)))
        return open_dim, point_dim, left, right

    crit = finite_ends((src, tgt))
    v, w = rep(src, crit), rep(tgt, crit)
    k = len(crit)
    strata_vars = [j for j in range(k + 1) if v[0][j] and w[0][j]]
    point_vars = [j for j in range(k) if v[1][j] and w[1][j]]
    nvars = len(strata_vars) + len(point_vars)
    sidx = {j: n for n, j in enumerate(strata_vars)}
    pidx = {j: len(strata_vars) + n for n, j in enumerate(point_vars)}
    rows = []
    for j in range(k):
        for stratum, vmap, wmap in ((j, v[2][j], w[2][j]), (j + 1, v[3][j], w[3][j])):
            row = [0] * nvars
            if vmap and stratum in sidx:
                row[sidx[stratum]] = vmap % p
            if wmap and j in pidx:
                row[pidx[j]] = (row[pidx[j]] - wmap) % p
            if any(row):
                rows.append(row)
    hom = len(modp.nullspace(rows, nvars, p))
    euler = sum(a * b for a, b in zip(v[0], w[0])) + sum(a * b for a, b in zip(v[1], w[1]))
    for j in range(k):
        euler -= v[1][j] * w[0][j] + v[1][j] * w[0][j + 1]
    return sc.HomSpace({0: hom, 1: hom - euler})


def small_intervals():
    """Every interval with ends in {-oo, 0, 1, 2, 3, +oo} and every legal
    closure flag: 45 of them."""
    out = [sc.singleton(a) for a in range(4)]
    for lo, hi in itertools.combinations([NEG_INF, 0, 1, 2, 3, POS_INF], 2):
        for lc, hc in itertools.product((True, False), repeat=2):
            if (lc and lo == NEG_INF) or (hc and hi == POS_INF):
                continue
            out.append(sc.interval(lo, hi, lc, hc))
    return out


def test_rhom_oracle_matches_stored_map_reference():
    ivs = small_intervals()
    assert len(set(ivs)) == 45
    seen = set()
    for p in (2, 3):
        for i, j in itertools.product(ivs, repeat=2):
            got = rhom_oracle(i, j, p)
            assert got == ref_rhom_oracle(i, j, p)
            seen.add(tuple(got.dims.items()))
    assert seen == {(), ((0, 1),), ((1, 1),)}  # zero, Hom alone and Ext^1 alone all occur


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
