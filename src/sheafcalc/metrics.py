"""Bottleneck and interleaving distances on graded barcodes.

Distances are computed per degree and combined by maximum (degreewise
summands are orthogonal for graded morphisms).  delta-matching uses closed
thresholds (displacement <= delta, erased length <= 2*delta) so that the
infimum is attained; the strict-inequality definition has the same infimum.

Each degree gets one cost table, built once per call: every bar pair's
cost is the larger of its two end gaps (+inf when only one side of an end
is infinite), and every bar's erase cost is half its length.  The sorted
distinct finite costs plus 0 are the only thresholds where feasibility can
change, so `bottleneck` binary-searches their ranks, rebuilding the
matching graph at each step from integer rank compares, and returns an
exact scalar from that finite set.  Ends that are all Fractions are
scaled to integers over a common denominator first, so the table costs
integer differences.  `delta_matched` builds the same tables and maps
its delta to a rank, so the search and the certificate see the same
graph.  `brute_interleave` exhaustively searches interleaving morphism
pairs over F_2 and exists purely as an acceptance oracle for the
isometry theorem.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import OracleSizeError, PlanError, ValidationError
from .exactnum import POS_INF, Extended, Infinity, Scalar
from .intervals import (
    GradedBar,
    GradedBarcode,
    Interval,
    canonicalize,
    expanded_bars,
)
from .ops import _lcro, torsion


@dataclass(frozen=True)
class Matching:
    """Certificate for a delta-matching.

    Indices refer to the multiplicity-expanded bars of the two canonical
    barcodes (`expanded_bars`); every index appears exactly once across
    pairs and erased lists.
    """

    delta: Scalar
    pairs: Tuple[Tuple[int, int], ...]
    erased_left: Tuple[int, ...]
    erased_right: Tuple[int, ...]


def _end_gap(x, y):
    """|x - y|; 0 for equal infinities, +inf when only one end is finite."""
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        return 0 if x == y else POS_INF
    d = x - y
    return -d if d < 0 else d


def _pair_cost(a: tuple, b: tuple):
    """Least delta at which bars with ends a and b match: the larger end gap."""
    lo = _end_gap(a[0], b[0])
    hi = _end_gap(a[1], b[1])
    if lo is POS_INF or hi is POS_INF:
        return POS_INF
    return hi if hi > lo else lo


def _scaled_ends(bars: Sequence[Interval]) -> Tuple[list[tuple], Optional[int]]:
    """Each bar's (lo, hi), as integers when every finite end is a Fraction.

    Then each finite end x becomes x * scale, with scale twice the lcm of
    the denominators, so that end gaps and half lengths are exact integer
    differences; scale is None, and the ends stay as they are, when some
    end is a PiRational.
    """
    ends = [(iv.lo.value, iv.hi.value) for iv in bars]
    finite = [x for e in ends for x in e if not isinstance(x, Infinity)]
    if not all(isinstance(x, Fraction) for x in finite):
        return ends, None
    scale = 2 * math.lcm(*(x.denominator for x in finite))

    def key(x):
        return x if isinstance(x, Infinity) else x.numerator * (scale // x.denominator)

    return [(key(lo), key(hi)) for lo, hi in ends], scale


class _CostTable:
    """The costs of one degree, as integer ranks into sorted thresholds.

    A pair's cost is the larger of its two end gaps, a bar's erase cost
    half its length.  `cands` holds 0 and every distinct finite cost,
    sorted; a cost ranks at its index there, and an infinite cost at
    len(cands), so the delta-matching graph at cands[r] keeps exactly the
    edges of rank <= r.
    """

    def __init__(self, left: Sequence[Interval], right: Sequence[Interval]):
        ends, scale = _scaled_ends(list(left) + list(right))
        lends, rends = ends[: len(left)], ends[len(left) :]

        def erase_cost(e):
            if isinstance(e[0], Infinity) or isinstance(e[1], Infinity):
                return POS_INF
            return (e[1] - e[0]) // 2 if scale else (e[1] - e[0]) * Fraction(1, 2)

        # number each distinct cost in order of first sight, then renumber
        # by value: one hash per cost and one sort of the distinct ones
        ids: dict = {Fraction(0): 0, POS_INF: 1}
        pair = [[ids.setdefault(_pair_cost(a, b), len(ids)) for b in rends] for a in lends]
        erase_left = [ids.setdefault(erase_cost(a), len(ids)) for a in lends]
        erase_right = [ids.setdefault(erase_cost(b), len(ids)) for b in rends]
        keys = sorted(k for k in ids if k is not POS_INF)
        self.cands: list[Scalar] = [Fraction(k, scale) for k in keys] if scale else keys
        rank = [len(keys)] * len(ids)
        for r, k in enumerate(keys):
            rank[ids[k]] = r
        self.pair = [[rank[k] for k in row] for row in pair]
        self.erase_left = [rank[k] for k in erase_left]
        self.erase_right = [rank[k] for k in erase_right]

    def match(self, r: int) -> Optional[Tuple[list[Tuple[int, int]], list[int], list[int]]]:
        """Matching at threshold rank r on the doubled bipartite graph.

        Left nodes are the left bars then one diagonal node per right bar;
        right nodes are the right bars then one diagonal node per left bar.
        """
        n1, n2 = len(self.erase_left), len(self.erase_right)
        adj: list[list[int]] = []
        for i, row in enumerate(self.pair):
            adj_row = [j for j, c in enumerate(row) if c <= r]
            if self.erase_left[i] <= r:
                adj_row.append(n2 + i)
            adj.append(adj_row)
        diagonal = list(range(n2, n2 + n1))  # diagonal-diagonal is free
        for j, c in enumerate(self.erase_right):
            adj.append([j] + diagonal if c <= r else diagonal)
        match_left = _max_matching(n1 + n2, n2 + n1, adj)
        if match_left is None:
            return None
        pairs = [(i, match_left[i]) for i in range(n1) if match_left[i] < n2]
        erased_l = [i for i in range(n1) if match_left[i] >= n2]
        matched = {j for _, j in pairs}
        erased_r = [j for j in range(n2) if j not in matched]
        return pairs, erased_l, erased_r


def _max_matching(n_left: int, n_right: int, adj: list[list[int]]) -> Optional[list[int]]:
    """Kuhn's augmenting-path matching covering the left side, as match_left.

    Roots are tried in order and each search is a depth-first walk over
    adj in list order, kept on an explicit stack so that long augmenting
    paths cannot exhaust the interpreter's recursion limit.  Returns None
    at the first root with no augmenting path: Kuhn's algorithm never
    matches such a root later, so no matching covers the left side.
    """
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    for root in range(n_left):
        seen = [False] * n_right
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
                    frames.clear()
                else:
                    path.append(owner)
                    frames.append(iter(adj[owner]))
                break
            else:
                frames.pop()
                path.pop()
                if via:
                    via.pop()
        if match_left[root] == -1:
            return None
    return match_left


def _by_degree(b: GradedBarcode) -> dict[int, list[Tuple[int, Interval]]]:
    out: dict[int, list[Tuple[int, Interval]]] = {}
    for idx, (iv, deg) in enumerate(expanded_bars(b)):
        out.setdefault(deg, []).append((idx, iv))
    return out


def _degree_tables(b1: GradedBarcode, b2: GradedBarcode):
    """(left bars, right bars, cost table) per degree, by degree."""
    d1, d2 = _by_degree(b1), _by_degree(b2)
    for deg in sorted(set(d1) | set(d2)):
        li, ri = d1.get(deg, []), d2.get(deg, [])
        yield li, ri, _CostTable([iv for _, iv in li], [iv for _, iv in ri])


def delta_matched(
    b1: GradedBarcode, b2: GradedBarcode, delta: Scalar
) -> Tuple[bool, Optional[Matching]]:
    """Certified delta-matching test (closed thresholds), degree by degree."""
    if isinstance(delta, Infinity) or delta < 0:
        raise ValidationError("delta must be finite and >= 0")
    pairs: list[Tuple[int, int]] = []
    erased_l: list[int] = []
    erased_r: list[int] = []
    for li, ri, table in _degree_tables(b1, b2):
        # the graph at delta is the graph at the largest candidate <= delta
        res = table.match(bisect.bisect_right(table.cands, delta) - 1)
        if res is None:
            return False, None
        p, el, er = res
        pairs.extend((li[i][0], ri[j][0]) for i, j in p)
        erased_l.extend(li[i][0] for i in el)
        erased_r.extend(ri[j][0] for j in er)
    return True, Matching(delta, tuple(sorted(pairs)), tuple(sorted(erased_l)), tuple(sorted(erased_r)))


def bottleneck(b1: GradedBarcode, b2: GradedBarcode) -> Extended:
    """Exact bottleneck distance.

    Per degree, feasibility only changes at the candidate thresholds of
    the cost table, so that degree's distance is the smallest feasible
    candidate, found by binary search on its rank; rank len(cands) stands
    for +inf (no finite delta works: the infinite-end signatures differ).
    The distance is the maximum over degrees.
    """
    dist: Extended = Fraction(0)
    for _, _, table in _degree_tables(b1, b2):
        lo, hi = 0, len(table.cands)
        while lo < hi:
            mid = (lo + hi) // 2
            if table.match(mid) is not None:
                hi = mid
            else:
                lo = mid + 1
        if lo == len(table.cands):
            return POS_INF
        if table.cands[lo] > dist:
            dist = table.cands[lo]
    return dist


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
            out.append(GradedBar(ker, sd, 1))
        if coker is not None:
            out.append(GradedBar(coker, sd + 1, 1))
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


def natural_plan(v: GradedBarcode, w: GradedBarcode) -> MorphismPlan:
    """Greedy 'identity on overlaps' plan used by examples and tests."""
    ev, ew = expanded_bars(v), expanded_bars(w)
    used_t: set[int] = set()
    pairs = []
    for s, (si, sd) in enumerate(ev):
        for t, (ti, td) in enumerate(ew):
            if t in used_t or sd != td:
                continue
            if _hom_exists(si, ti):
                pairs.append((s, t))
                used_t.add(t)
                break
    return MorphismPlan(tuple(pairs))
