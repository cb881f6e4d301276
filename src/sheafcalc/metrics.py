"""Bottleneck and interleaving distances on graded barcodes.

Distances are computed per degree and combined by maximum (degreewise
summands are orthogonal for graded morphisms).  delta-matching uses closed
thresholds (displacement <= delta, erased length <= 2*delta) so that the
infimum is attained; the strict-inequality definition has the same infimum.

Each degree gets one cost table, built once per call: every bar pair's
cost is the larger of its two end gaps (+inf when only one side of an end
is infinite), and every bar's erase cost is half its length.  Ends that are
all Fractions are scaled to integers by `intervals.scaled_ends` and doubled
first, so the table holds integer costs over one scale and a Fraction is
made only for an answer.  The sorted distinct finite costs plus 0 are the
only thresholds where feasibility can change, so the search runs on their
ranks: the graph at rank r keeps the edges of rank <= r.

`bottleneck` binary-searches the ranks with a cover test (Mendelsohn and
Dulmage 1958): a delta-matching exists iff one bar-to-bar matching covers
every left bar too long to erase and another covers every such right bar.
Each trial starts from the two one-sided matchings of the highest failed
trial so far, which stay valid at every higher rank; a passed trial's are
dropped, since their edges may be missing lower down.  The certificate
comes from one more cover test, fresh, at the rank of the distance or of
a given delta: its two one-sided matchings are merged into one
delta-matching by the Mendelsohn-Dulmage path exchange (`_witness`).
`bottleneck_matching` returns both from the same tables, and
`delta_matched` runs that one test at a given delta.  Every search is one
augmenting-path walk, `_augment`.

`brute_interleave` exhaustively searches interleaving morphism pairs over
F_2 and exists purely as an acceptance oracle for the isometry theorem.
`cone_of_morphism` and `torsion_bound_check` take a `MorphismPlan` from
their caller; nothing here chooses one.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import OracleSizeError, PlanError, ValidationError
from .exactnum import POS_INF, Extended, Infinity, Scalar
from .intervals import (
    GradedBar,
    GradedBarcode,
    Interval,
    canonicalize,
    expanded_bars,
    scaled_ends,
)
from .ops import _interval, _lcro, torsion

# bar pairs of one degree, n1 * n2: the table holds one cost per pair, and
# README gives the time of a step at the cap
MAX_DIST_PAIRS = 1600 * 1600


@dataclass(frozen=True)
class Matching:
    """Certificate for a delta-matching: each pair's ends at most delta
    apart, each erased bar at most 2*delta long.

    Indices refer to the multiplicity-expanded bars of the two canonical
    barcodes (`expanded_bars`); every index appears exactly once across
    pairs and erased lists.  Each degree's part is one cover test's two
    one-sided matchings, merged (`_witness`).
    """

    delta: Scalar
    pairs: Tuple[Tuple[int, int], ...]
    erased_left: Tuple[int, ...]
    erased_right: Tuple[int, ...]


def _magnitude(d):
    return -d if d < 0 else d


class _CostTable:
    """The costs of one degree, as integer ranks into sorted thresholds.

    A pair's cost is the larger of its two end gaps, a bar's erase cost
    half its length.  `keys` holds 0 and every distinct finite cost,
    sorted: integers over `scale` when the ends scale, else the exact
    values (scale None).  A cost ranks at its index there, and an infinite
    cost at len(keys), so the delta-matching graph at rank r keeps exactly
    the edges of rank <= r.
    """

    def __init__(self, left: Sequence[Interval], right: Sequence[Interval]):
        rows, scale = scaled_ends(list(left) + list(right))
        # two bars match only when the same ends are infinite, and equal
        # infinite ends are 0 apart: each bar as (which ends are infinite,
        # its ends with an infinite one read as 0); integer ends doubled, so
        # that half lengths are integers too
        bars = []
        for lo, _, hi, _ in rows:
            kind = 2 * isinstance(lo, Infinity) + isinstance(hi, Infinity)
            lo, hi = (0 if kind & 2 else lo), (0 if kind & 1 else hi)
            bars.append((kind, 2 * lo, 2 * hi) if scale else (kind, lo, hi))
        scale = scale and 2 * scale
        lbars, rbars = bars[: len(left)], bars[len(left) :]
        gap = abs if scale else _magnitude  # PiRational has no abs

        def erase_cost(bar):
            kind, lo, hi = bar
            if kind:
                return POS_INF
            return (hi - lo) // 2 if scale else (hi - lo) * Fraction(1, 2)

        pair = [
            [max(gap(lo - lo2), gap(hi - hi2)) if kind == kind2 else POS_INF for kind2, lo2, hi2 in rbars]
            for kind, lo, hi in lbars
        ]
        erase_left = [erase_cost(a) for a in lbars]
        erase_right = [erase_cost(b) for b in rbars]
        # equal costs keep the first one seen, 0 first, as the answer
        costs = {0 if scale else Fraction(0)}.union(*pair, erase_left, erase_right)
        costs.discard(POS_INF)
        self.keys = sorted(costs)
        self.scale = scale
        rank = dict(zip(self.keys, range(len(self.keys))))
        rank[POS_INF] = len(self.keys)
        self.pair = [list(map(rank.__getitem__, row)) for row in pair]
        self.erase_left = list(map(rank.__getitem__, erase_left))
        self.erase_right = list(map(rank.__getitem__, erase_right))

    def value(self, r: int) -> Scalar:
        """The threshold of rank r."""
        return Fraction(self.keys[r], self.scale) if self.scale else self.keys[r]

    def rank(self, delta: Scalar) -> int:
        """Rank of the graph at delta: that of the largest threshold <= delta."""
        return bisect.bisect_right(self.keys, delta * self.scale if self.scale else delta) - 1

    @functools.cached_property
    def partners(self) -> Tuple[tuple, tuple]:
        """Per side, each bar's partners sorted by pair rank, and those ranks."""
        cols = list(zip(*self.pair)) if self.pair else [()] * len(self.erase_right)
        return tuple(
            ([sorted(range(len(row)), key=row.__getitem__) for row in rows], [sorted(row) for row in rows])
            for rows in (self.pair, cols)
        )

    def unmatched(self) -> Tuple[Tuple[list[int], list[int]], ...]:
        """The empty one-sided matchings of both sides, as (mine, theirs) lists."""
        n1, n2 = len(self.erase_left), len(self.erase_right)
        return ([-1] * n1, [-1] * n2), ([-1] * n2, [-1] * n1)

    def covers(self, r: int, sides) -> bool:
        """Whether the graph at rank r has a delta-matching: the cover test,
        on the two one-sided matchings in sides (as `unmatched` gives
        them), each extended in place by `_cover`; the right side's is not
        tried once the left side's fails."""
        return all(
            _cover(order, ranks, erase, r, mine, theirs)
            for (order, ranks), erase, (mine, theirs) in zip(self.partners, (self.erase_left, self.erase_right), sides)
        )

    def least_rank(self) -> int:
        """The least rank whose graph has a delta-matching; len(keys) if none.

        Binary search on `covers`.  Each trial extends copies of the
        matchings of the highest failed trial so far: their edges stay at
        every higher rank, and the bars they cover but need not are let go.
        """
        warm = self.unmatched()
        lo, hi = 0, len(self.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            trial = tuple((mine[:], theirs[:]) for mine, theirs in warm)
            if self.covers(mid, trial):
                hi = mid
            else:
                lo, warm = mid + 1, trial
        return lo


def _cover(order, ranks, erase, r, mine, theirs) -> bool:
    """Extend the one-sided matching (mine, theirs) on the edges of rank
    <= r until it covers every bar of erase rank > r; False at the first
    such bar that no extension covers.

    A matched bar of erase rank <= r is unmatched first.  The matching then
    covers needed bars only, so by Berge's lemma a needed bar with no
    augmenting path is covered by no matching at all.
    """
    for u, v in enumerate(mine):
        if v != -1 and erase[u] <= r:
            mine[u] = theirs[v] = -1
    adj = [row[: bisect.bisect_right(rk, r)] for row, rk in zip(order, ranks)]
    return all(
        mine[u] != -1 or _augment(u, adj, mine, theirs) for u in range(len(mine)) if erase[u] > r
    )


def _augment(root: int, adj: list, match_left: list[int], match_right: list[int]) -> bool:
    """Augment the matching along a path from the free left node root.

    A depth-first walk over adj in list order, kept on an explicit stack so
    that long augmenting paths cannot exhaust the interpreter's recursion
    limit.  On reaching a free right node it flips the path into the
    matching and returns True; False if no path from root reaches one.
    """
    seen = [False] * len(match_right)
    path = [root]  # left nodes of the current alternating path
    via: list[int] = []  # via[k] joins path[k] to path[k + 1]
    frames = [iter(adj[root])]
    while frames:
        for v in frames[-1]:
            if seen[v]:
                continue
            seen[v] = True
            via.append(v)
            owner = match_right[v]
            if owner == -1:
                for u, w in zip(path, via):
                    match_left[u] = w
                    match_right[w] = u
                return True
            path.append(owner)
            frames.append(iter(adj[owner]))
            break
        else:
            frames.pop()
            path.pop()
            if via:
                via.pop()
    return False


def _by_degree(b: GradedBarcode) -> dict[int, list[Tuple[int, Interval]]]:
    out: dict[int, list[Tuple[int, Interval]]] = {}
    for idx, (iv, deg) in enumerate(expanded_bars(b)):
        out.setdefault(deg, []).append((idx, iv))
    return out


def _degree_tables(b1: GradedBarcode, b2: GradedBarcode):
    """(left bars, right bars, cost table) per degree, by degree.

    Refused, before any table is built, when a degree has more than
    MAX_DIST_PAIRS bar pairs."""
    d1, d2 = _by_degree(b1), _by_degree(b2)
    degrees = sorted(set(d1) | set(d2))
    for deg in degrees:
        n1, n2 = len(d1.get(deg, ())), len(d2.get(deg, ()))
        if n1 * n2 > MAX_DIST_PAIRS:
            raise ValidationError(f"degree {deg} has {n1} by {n2} bars, more than {MAX_DIST_PAIRS} pairs")
    for deg in degrees:
        li, ri = d1.get(deg, []), d2.get(deg, [])
        yield li, ri, _CostTable([iv for _, iv in li], [iv for _, iv in ri])


def _witness(tables: Iterable, delta: Scalar) -> Optional[Matching]:
    """A delta-matching of each degree, as one Matching; None at the first
    degree whose cover test at delta fails.

    The two one-sided matchings of a passed test are merged (Mendelsohn
    and Dulmage): from the left side's, each needed right bar it leaves
    free walks its path of the union, right side's edge then left side's,
    and the path moves onto the right side's edges.  Every bar left free
    has erase rank <= r and is erased."""
    pairs: list[Tuple[int, int]] = []
    erased_l: list[int] = []
    erased_r: list[int] = []
    for li, ri, table in tables:
        r = table.rank(delta)
        (match, free), (back, _) = sides = table.unmatched()
        if not table.covers(r, sides):
            return None
        for j in range(len(back)):
            if free[j] == -1:
                while j != -1 and (i := back[j]) != -1:
                    j, match[i] = match[i], j
        pairs.extend((li[i][0], ri[j][0]) for i, j in enumerate(match) if j != -1)
        erased_l.extend(li[i][0] for i, j in enumerate(match) if j == -1)
        erased_r.extend(ri[j][0] for j in set(range(len(ri))).difference(match))
    return Matching(delta, tuple(sorted(pairs)), tuple(sorted(erased_l)), tuple(sorted(erased_r)))


def _distance(tables: Iterable) -> Extended:
    """The largest of the degrees' least thresholds; +inf at the first
    degree with none (its infinite-end signatures differ)."""
    dist: Extended = Fraction(0)
    for _, _, table in tables:
        r = table.least_rank()
        if r == len(table.keys):
            return POS_INF
        dist = max(dist, table.value(r))
    return dist


def delta_matched(
    b1: GradedBarcode, b2: GradedBarcode, delta: Scalar
) -> Tuple[bool, Optional[Matching]]:
    """Certified delta-matching test (closed thresholds), degree by degree."""
    if isinstance(delta, Infinity) or delta < 0:
        raise ValidationError("delta must be finite and >= 0")
    witness = _witness(_degree_tables(b1, b2), delta)
    return witness is not None, witness


def bottleneck(b1: GradedBarcode, b2: GradedBarcode) -> Extended:
    """Exact bottleneck distance: per degree the least threshold with a
    delta-matching, found by `_CostTable.least_rank`; the maximum over
    degrees."""
    return _distance(_degree_tables(b1, b2))


def bottleneck_matching(b1: GradedBarcode, b2: GradedBarcode) -> Tuple[Extended, Optional[Matching]]:
    """The bottleneck distance and its certificate, the merged matching
    `delta_matched` gives at that distance, from the same cost table per
    degree; no matching when the distance is infinite."""
    tables = list(_degree_tables(b1, b2))
    dist = _distance(tables)
    return dist, None if isinstance(dist, Infinity) else _witness(tables, dist)


def interleaving_distance(b1: GradedBarcode, b2: GradedBarcode) -> Extended:
    """The symmetric interleaving distance; equals bottleneck by isometry."""
    return bottleneck(b1, b2)


# ---------------------------------------------------------------------------
# brute-force interleaving oracle


def _hom_exists(src: Interval, tgt: Interval) -> bool:
    """Nonzero interval-module morphism src -> tgt: c <= a < d <= b."""
    a, b = src.lo.value, src.hi.value
    c, d = tgt.lo.value, tgt.hi.value
    return c <= a < d <= b


def _nonempty_triple(a: Interval, b: Interval, c: Interval) -> bool:
    x = a.intersect(b)
    if x is None:
        return False
    return x.intersect(c) is not None


def _solve_f2(rows: list[int], rhs: list[int], nvars: int) -> bool:
    """Solvability of a linear system over F_2 with bitmask rows."""
    aug = [(rows[i] << 1) | rhs[i] for i in range(len(rows))]
    used: set[int] = set()
    for col in range(nvars):
        bit = 1 << (col + 1)
        idx = next((k for k, r in enumerate(aug) if r & bit and k not in used), None)
        if idx is None:
            continue
        used.add(idx)
        for k, r in enumerate(aug):
            if k != idx and r & bit:
                aug[k] ^= aug[idx]
    return all(r != 1 for r in aug)


def brute_interleave(b1: GradedBarcode, b2: GradedBarcode, delta: Scalar) -> bool:
    """Exhaustive search for a delta-interleaving over F_2.

    Enumerates the forward morphism entrywise and solves the two composite
    identities (equal to the canonical 2*delta shifts) as a linear system
    for the backward morphism.  Instance size is capped; this is an oracle,
    not a production distance.
    """
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    d1, d2 = _by_degree(b1), _by_degree(b2)
    for deg in sorted(set(d1) | set(d2)):
        v = [iv for _, iv in d1.get(deg, [])]
        w = [iv for _, iv in d2.get(deg, [])]
        if len(v) > 4 or len(w) > 4:
            raise OracleSizeError("brute_interleave is limited to 4 bars per side per degree")
        if not _interleave_block(v, w, delta):
            return False
    return True


def _interleave_block(v: list[Interval], w: list[Interval], delta: Scalar) -> bool:
    two_delta = 2 * delta
    n1, n2 = len(v), len(w)
    if n1 == 0 and n2 == 0:
        return True
    f_entries = [
        (j, i)
        for j in range(n2)
        for i in range(n1)
        if _hom_exists(v[i], w[j].shift(-delta))
    ]
    g_entries = [
        (i, j)
        for i in range(n1)
        for j in range(n2)
        if _hom_exists(w[j], v[i].shift(-delta))
    ]
    gpos = {e: k for k, e in enumerate(g_entries)}
    nf, ng = len(f_entries), len(g_entries)
    if nf > 16:
        raise OracleSizeError("brute_interleave instance too large")

    def survives(i: Interval) -> bool:
        return i.length > two_delta

    # composite-support indicators
    kappa_v = {}  # (i, j, i2) -> bool for g[i2,j] * f[j,i]
    for j, i in f_entries:
        for (i2, j2) in g_entries:
            if j2 != j:
                continue
            if _nonempty_triple(v[i], w[j].shift(-delta), v[i2].shift(-two_delta)):
                kappa_v[(i, j, i2)] = True
    kappa_w = {}  # (j, i, j2) -> bool for f[j2,i] * g[i,j]
    for i, j in g_entries:
        for (j2, i2) in f_entries:
            if i2 != i:
                continue
            if _nonempty_triple(w[j], v[i].shift(-delta), w[j2].shift(-two_delta)):
                kappa_w[(j, i, j2)] = True

    rhs_v = {(i, i): 1 for i in range(n1) if survives(v[i])}
    rhs_w = {(j, j): 1 for j in range(n2) if survives(w[j])}

    for assignment in range(1 << nf):
        fval = {f_entries[k]: (assignment >> k) & 1 for k in range(nf)}
        rows: list[int] = []
        rhs: list[int] = []
        ok = True
        for i in range(n1):
            for i2 in range(n1):
                mask = 0
                for (ii, j, ii2), _true in kappa_v.items():
                    if ii == i and ii2 == i2 and fval[(j, ii)]:
                        mask ^= 1 << gpos[(i2, j)]
                target = rhs_v.get((i, i2), 0)
                if mask == 0:
                    if target:
                        ok = False
                        break
                else:
                    rows.append(mask)
                    rhs.append(target)
            if not ok:
                break
        if not ok:
            continue
        for j in range(n2):
            for j2 in range(n2):
                mask = 0
                for (jj, i, jj2), _true in kappa_w.items():
                    if jj == j and jj2 == j2 and fval[(j2, i)]:
                        mask ^= 1 << gpos[(i, j)]
                target = rhs_w.get((j, j2), 0)
                if mask == 0:
                    if target:
                        ok = False
                        break
                else:
                    rows.append(mask)
                    rhs.append(target)
            if not ok:
                break
        if not ok:
            continue
        if _solve_f2(rows, rhs, ng):
            return True
    return False


# ---------------------------------------------------------------------------
# cone of a morphism and the torsion criterion


@dataclass(frozen=True)
class MorphismPlan:
    """Degreewise partial matching encoding a morphism v -> w.

    Each pair (src, tgt) indexes the multiplicity-expanded bars and must
    admit a nonzero interval-module morphism: same degree, target left end
    <= source left end < target right end <= source right end.
    """

    pairs: Tuple[Tuple[int, int], ...]

    def validate(self, v: GradedBarcode, w: GradedBarcode) -> None:
        ev, ew = expanded_bars(v), expanded_bars(w)
        seen_s: set[int] = set()
        seen_t: set[int] = set()
        for s, t in self.pairs:
            if not (0 <= s < len(ev) and 0 <= t < len(ew)):
                raise PlanError(f"plan index ({s},{t}) out of range")
            if s in seen_s or t in seen_t:
                raise PlanError("plan indices must form a partial bijection")
            seen_s.add(s)
            seen_t.add(t)
            (si, sd), (ti, td) = ev[s], ew[t]
            if sd != td:
                raise PlanError("matched bars must share a degree")
            if not _hom_exists(si, ti):
                raise PlanError(f"no morphism {si} -> {ti}")


def cone_of_morphism(v: GradedBarcode, w: GradedBarcode, plan: MorphismPlan) -> GradedBarcode:
    """Cone of the planned morphism: coker[-1] + ker, barwise.

    A matched pair [a,b) -> [c,d) contributes ker bar [d,b) (when d < b)
    at the source degree and coker bar [c,a) (when c < a) one degree up;
    unmatched source bars survive into the kernel, unmatched target bars
    into the shifted cokernel.
    """
    plan.validate(v, w)
    ev, ew = expanded_bars(v), expanded_bars(w)
    out: list[GradedBar] = []
    matched_s = {s for s, _ in plan.pairs}
    matched_t = {t for _, t in plan.pairs}
    for s, t in plan.pairs:
        (si, sd), (ti, _) = ev[s], ew[t]
        a, b = si.lo.value, si.hi.value
        c, d = ti.lo.value, ti.hi.value
        ker, coker = _lcro(d, b), _lcro(c, a)
        if ker is not None:
            out.append(GradedBar(_interval(ker), sd, 1))
        if coker is not None:
            out.append(GradedBar(_interval(coker), sd + 1, 1))
    for k, (iv, deg) in enumerate(ev):
        if k not in matched_s:
            out.append(GradedBar(iv, deg, 1))
    for k, (iv, deg) in enumerate(ew):
        if k not in matched_t:
            out.append(GradedBar(iv, deg + 1, 1))
    return canonicalize(GradedBarcode(tuple(out)))


def torsion_bound_check(
    v: GradedBarcode, w: GradedBarcode, plan: MorphismPlan
) -> Tuple[Extended, bool]:
    """Torsion-criterion bound: cone torsion dominates the distance."""
    bound = torsion(cone_of_morphism(v, w, plan))
    dist = interleaving_distance(v, w)
    return bound, dist <= bound
