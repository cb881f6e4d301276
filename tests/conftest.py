import functools
import random
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc.errors import ValidationError
from sheafcalc.exactnum import NEG_INF, POS_INF, PiRational, is_finite


@pytest.fixture
def rng():
    return random.Random(0xBA5EBA11)


def rand_tamarkin_barcode(
    rng: random.Random,
    max_bars: int = 4,
    inf_p: float = 0.25,
    degrees=(0, 1),
    lo: int = -10,
    hi: int = 10,
    max_len: int = 10,
) -> sc.GradedBarcode:
    bars = []
    for _ in range(rng.randint(1, max_bars)):
        a = F(rng.randint(lo, hi))
        if rng.random() < inf_p:
            iv = sc.interval(a, "+inf")
        else:
            iv = sc.interval(a, a + rng.randint(1, max_len))
        bars.append(sc.GradedBar(iv, rng.choice(degrees)))
    return sc.barcode(*bars)


def big_primes(bits: int, count: int) -> list[int]:
    """The first `count` probable primes at or above 2**bits (Fermat, bases 2
    and 3): denominators whose lcm grows by about `bits` bits each."""
    out, n = [], 2**bits + 1
    while len(out) < count:
        if pow(2, n - 1, n) == 1 and pow(3, n - 1, n) == 1:
            out.append(n)
        n += 2
    return out


def mat_mul(a, b, p):
    """Dense product of row-list matrices over F_p, for the references that
    build composite transition maps."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch in product")
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] = (oi[j] + v * bk[j]) % p
    return out


def identity(n):
    """The n x n identity as row lists."""
    return [[int(r == c) for c in range(n)] for r in range(n)]


def to_dense(columns, rows, p):
    """Row-list matrix over F_p of a transition stored as sparse columns."""
    m = [[0] * len(columns) for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, a in col:
            m[r][c] = (m[r][c] + a) % p
    return m


def to_columns(m, cols):
    """Sparse columns (the (row, value) pairs of each column's nonzero
    entries) of a row-list matrix with `cols` columns."""
    return tuple(tuple((r, row[c]) for r, row in enumerate(m) if row[c]) for c in range(cols))


def dense_maps(model):
    """model.maps with every transition as a row-list matrix."""
    return {
        deg: [to_dense(m, model.open_dims[deg][i], model.p) for i, m in enumerate(ms)]
        for deg, ms in model.maps.items()
    }


def stratum_samples(b: sc.GradedBarcode):
    """Event values plus one interior point per stratum and both tails."""
    s = sc.spec(b)
    if not s:
        return [F(0)]
    pts = [s[0] - 1, s[-1] + 1] + list(s)
    pts.extend((a + c) / 2 for a, c in zip(s, s[1:]))
    return pts


def mixed_scalars():
    """Finite endpoint values of every kind: ties across types
    (PiRational(0, s) equals Fraction(s)), two equal q*pi + s objects, and
    q*pi + s values that fall between and beside the rationals."""
    halves = [F(k, 2) for k in range(-6, 7)]
    return (
        halves
        + [PiRational(0, v) for v in halves[::3]]
        + [PiRational(1, -3), PiRational(1, F(-3)), PiRational(-1, 4), PiRational(F(1, 2), 0)]
        + [PiRational(2, F(-13, 2)), PiRational(F(-1, 3), 1)]
    )


def random_interval(rng: random.Random, pool):
    """An interval on two values drawn from pool: any of the four flavours,
    a singleton, or a half-line or the line when an end is infinite."""
    x, y = sorted(rng.sample(pool, 2), key=functools.cmp_to_key(sc.cmp))
    if rng.random() < 0.1:
        return sc.singleton(x if is_finite(x) else F(0))
    if sc.cmp(x, y) == 0:
        return sc.singleton(x)
    return sc.interval(x, y, rng.random() < 0.5, rng.random() < 0.5)


def twin(i: sc.Interval) -> sc.Interval:
    """The same interval with each Fraction end held as PiRational(0, s)."""
    ends = [
        sc.Endpoint(PiRational(0, e.value), e.closed) if isinstance(e.value, F) else e
        for e in (i.lo, i.hi)
    ]
    return sc.Interval(*ends)


def end_kind_pairs():
    """(lo, hi) endpoint pairs over every end kind on each side: finite
    closed, finite open or infinite, at equal or unequal finite values (equal
    also across Fraction and PiRational(0, s)).  Not all are intervals."""
    values = [F(0), F(1), PiRational(0, 1), PiRational(1, -3)]
    ends = [sc.Endpoint(v, c) for v in values for c in (True, False)]
    ends += [sc.Endpoint(NEG_INF, False), sc.Endpoint(POS_INF, False)]
    return [(lo, hi) for lo in ends for hi in ends]


def end_kind_intervals():
    """The intervals among `end_kind_pairs`."""
    out = []
    for lo, hi in end_kind_pairs():
        try:
            out.append(sc.Interval(lo, hi))
        except ValidationError:
            pass
    return out
