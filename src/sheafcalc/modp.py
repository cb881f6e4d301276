"""Dense linear algebra over a prime field F_p, for the oracles.

Matrices are lists of row lists of ints in [0, p).  Plain Gaussian
elimination serves the two oracles: the Betti ranks of `morse.betti_numbers`
and the commutation constraints of `stratmodel.rhom_oracle`.  Exactness
matters more than speed.  The routes they check reduce sparse columns of
their own and use only `check_prime` from here.  `row_echelon` returns the
reduced form: columns appended last change no pivot, and their coordinates
in the pivot columns are read off the reduced rows.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .exactnum import _excerpt

FIELD_CAP = 2**31


def check_prime(p: int) -> int:
    """p, if it is a prime below FIELD_CAP; a larger p is refused before any
    trial division, which would otherwise run for ages or overflow."""
    if not 2 <= p < FIELD_CAP or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValidationError(f"field characteristic must be a prime below 2^31, got {_excerpt(p)}")
    return p


def row_echelon(m: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if a[i][c] % p), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: list[list[int]], p: int) -> int:
    if not m or not m[0]:
        return 0
    return len(row_echelon(m, p)[1])


def nullspace(m: list[list[int]], cols: int, p: int) -> list[list[int]]:
    """Basis of the right kernel of the rows m, each of length cols, as a
    list of column vectors; with no rows it is the standard basis."""
    ech, pivots = row_echelon(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-ech[r][fc]) % p
        basis.append(v)
    return basis

