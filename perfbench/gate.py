"""Correctness gate: checks each job's captured output outside the timed loop.

Every check rests on the generator's own data and on the repo's separately
coded oracles (fiberwise stalk oracle, quiver RHom oracle, germ oracle,
brute-force interleaving search, Betti ranks, closed-form ball stalks),
never on the code path that produced the output.  Output JSON is parsed
here, not through ``barcode_from_json``.  A check returns a list of
mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

from sheafcalc import GradedBar, GradedBarcode, interval, ops
from sheafcalc import domains, metrics, morse
from sheafcalc.stratmodel import germ_at, rhom_oracle, rhom_sheaf_stalk_oracle
from workloads import PI_ABOVE, PI_BELOW


STALK_SAMPLES = 8        # oracle stalk checks per convolve / hom-star job
SHEAF_SAMPLES = 20       # germ-oracle stalk checks per rhom-sheaf job
BETTI_MAX_SIMPLICES = 150  # largest sublevel complex given to morse.betti_numbers


# -- independent reading of CLI output ----------------------------------------


def _value(v):
    """JSON endpoint -> Fraction, or None for an infinite endpoint."""
    if v in ("+inf", "-inf"):
        return None
    return F(v)


def parse_bars(text: str):
    """Barcode JSON -> [(lo, lo_closed, hi, hi_closed, deg, mult)], None = inf."""
    return [
        (_value(b["lo"]["v"]), b["lo"]["closed"], _value(b["hi"]["v"]), b["hi"]["closed"], b["deg"], b["mult"])
        for b in json.loads(text)["bars"]
    ]


def _contains(bar, t) -> bool:
    lo, lo_c, hi, hi_c = bar[:4]
    if lo is not None and (t < lo or (t == lo and not lo_c)):
        return False
    if hi is not None and (t > hi or (t == hi and not hi_c)):
        return False
    return True


def stalk(bars, t) -> dict:
    out: dict = {}
    for bar in bars:
        if _contains(bar, t):
            out[bar[4]] = out.get(bar[4], 0) + bar[5]
    return out


def sample_points(bars) -> list:
    """Every endpoint, every midpoint between endpoints, and both tails."""
    ev = sorted({v for b in bars for v in (b[0], b[2]) if v is not None})
    if not ev:
        return [F(0)]
    return ev + [(a + b) / 2 for a, b in zip(ev, ev[1:])] + [ev[0] - 1, ev[-1] + 1]


def to_barcode(bars) -> GradedBarcode:
    """Generator bars (lo, hi, deg) as a barcode for the oracles (not merged)."""
    return GradedBarcode(
        tuple(GradedBar(interval(lo, "+inf" if hi is None else hi), deg) for lo, hi, deg in bars)
    )


# -- ops-bilinear -----------------------------------------------------------


def check_stalk_oracle(kind: str, job, text: str, rng: random.Random) -> list:
    """Fiberwise stalk oracle at sampled stratum points of the output.

    This is ``ops.barcode_stalk_via_oracle`` summed over the bar pairs whose
    sum set can reach t; every other pair has an empty fiber cut, where the
    oracle is 0."""
    out = parse_bars(text)
    hom = kind == "hom-star"
    pairs = []
    for x in to_barcode(job.data["f"]).bars:
        i = x.interval.reflect_swap() if hom else x.interval
        for y in to_barcode(job.data["g"]).bars:
            j = y.interval
            lo = None if not (i.lo.finite and j.lo.finite) else i.lo.value + j.lo.value
            hi = None if not (i.hi.finite and j.hi.finite) else i.hi.value + j.hi.value
            deg = y.degree - x.degree if hom else x.degree + y.degree
            pairs.append((lo, hi, x.interval, j, deg))
    pts = sample_points(out)
    errs = []
    for t in rng.sample(pts, min(STALK_SAMPLES, len(pts))):
        want: dict = {}
        for lo, hi, i, j, deg in pairs:
            if (lo is not None and t < lo) or (hi is not None and t > hi):
                continue
            for d, n in ops.stalk_oracle(kind, i, j, t).dims.items():
                want[d + deg] = want.get(d + deg, 0) + n
        want = {k: v for k, v in want.items() if v}
        got = stalk(out, t)
        if got != want:
            errs.append(f"stalk at {t}: got {got}, oracle {want}")
    return errs


def _ranks(*bar_lists) -> dict:
    """Integer rank of every finite endpoint; +inf ranks above them all."""
    vals = sorted({v for bars in bar_lists for lo, hi, _ in bars for v in (lo, hi) if v is not None})
    rank = {v: k for k, v in enumerate(vals)}
    rank[None] = len(vals)
    return rank


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def check_rhom_total(job, text: str, rng: random.Random) -> list:
    """Quiver RHom oracle summed over every bar pair.

    The oracle sees only the order of the four endpoints, so it is asked once
    per order type, on integer ranks that keep that order."""
    f, g = job.data["f"], job.data["g"]
    rank = _ranks(f, g)
    memo: dict = {}
    want: dict = {}
    for lo1, hi1, d1 in f:
        a, b = rank[lo1], rank[hi1]
        for lo2, hi2, d2 in g:
            c, d = rank[lo2], rank[hi2]
            key = (_sign(a - c), _sign(a - d), _sign(b - c), _sign(b - d), hi1 is None, hi2 is None)
            if key not in memo:
                memo[key] = rhom_oracle(interval(a, "+inf" if hi1 is None else b),
                                        interval(c, "+inf" if hi2 is None else d)).dims
            for deg, n in memo[key].items():
                want[deg + d2 - d1] = want.get(deg + d2 - d1, 0) + n
    want = {str(k): v for k, v in sorted(want.items()) if v}
    got = json.loads(text)["dims"]
    return [] if got == want else [f"rhom-total: got {got}, oracle {want}"]


def check_rhom_sheaf(job, text: str, rng: random.Random) -> list:
    """Germ oracle at sampled points; the oracle depends on the germs only,
    so bars are grouped by (germ, degree) and one representative pair per
    group pair is asked."""
    out = parse_bars(text)
    f, g = to_barcode(job.data["f"]).bars, to_barcode(job.data["g"]).bars
    pts = sample_points(out)
    errs = []
    for t in rng.sample(pts, min(SHEAF_SAMPLES, len(pts))):
        groups = []
        for side in (f, g):
            grp: dict = {}
            for x in side:
                key = (germ_at(x.interval, t), x.degree)
                rep, n = grp.get(key, (x, 0))
                grp[key] = (rep, n + 1)
            groups.append(grp)
        want: dict = {}
        for (gx, dx), (x, nx) in groups[0].items():
            if gx is None:
                continue
            for (gy, dy), (y, ny) in groups[1].items():
                for deg, n in rhom_sheaf_stalk_oracle(x.interval, y.interval, t).dims.items():
                    want[deg + dy - dx] = want.get(deg + dy - dx, 0) + n * nx * ny
        want = {k: v for k, v in want.items() if v}
        got = stalk(out, t)
        if got != want:
            errs.append(f"rhom-sheaf stalk at {t}: got {got}, oracle {want}")
    return errs


# -- dist-bottleneck ----------------------------------------------------------


def _canonical_order(bars):
    """Bars in the documented canonical order (degree, lo, hi; +inf last)."""
    return sorted(bars, key=lambda b: (b[2], b[0], b[1] is None, b[1] or 0))


def check_certificate(a, b, text: str) -> list:
    """Every pair within d, every erased bar of length <= 2d, every bar covered once."""
    obj = json.loads(text)
    d = F(obj["bottleneck"])
    w = obj["witness"]
    if F(w["delta"]) != d:
        return [f"witness delta {w['delta']} != distance {d}"]
    left, right = _canonical_order(a), _canonical_order(b)
    errs = []
    used_l = [i for i, _ in w["pairs"]] + w["erased_left"]
    used_r = [j for _, j in w["pairs"]] + w["erased_right"]
    if sorted(used_l) != list(range(len(left))) or sorted(used_r) != list(range(len(right))):
        errs.append("witness does not cover every bar exactly once")
        return errs
    for i, j in w["pairs"]:
        (lo1, hi1, d1), (lo2, hi2, d2) = left[i], right[j]
        ends_ok = (hi1 is None) == (hi2 is None) and (hi1 is None or abs(hi1 - hi2) <= d)
        if d1 != d2 or abs(lo1 - lo2) > d or not ends_ok:
            errs.append(f"pair {i},{j} not within {d}")
    for side, idx in ((left, w["erased_left"]), (right, w["erased_right"])):
        for i in idx:
            lo, hi, _ = side[i]
            if hi is None or hi - lo > 2 * d:
                errs.append(f"erased bar {side[i]} longer than {2 * d}")
    return errs


def check_dist(job, text: str, rng: random.Random) -> list:
    return check_certificate(job.data["a"], job.data["b"], text)


def small_dist_instances(rng: random.Random, count: int = 8):
    """Small pairs (<= 3 bars per degree and side) for the brute-force oracle."""
    out = []
    for _ in range(count):
        a = []
        for deg in (0, 1):
            for _ in range(rng.randint(1, 3)):
                lo = F(rng.randint(0, 12), 2)
                hi = None if rng.random() < 0.15 else lo + F(rng.randint(1, 8), 2)
                a.append((lo, hi, deg))
        b = []
        for lo, hi, deg in a:
            lo2 = lo + F(rng.randint(-2, 2), 2)
            hi2 = None if hi is None else max(hi + F(rng.randint(-2, 2), 2), lo2 + F(1, 2))
            b.append((lo2, hi2, deg))
        out.append((a, b))
    return out


def check_dist_brute(a, b, text: str) -> list:
    """d is feasible and d - 1/1000 is not, by exhaustive interleaving search."""
    errs = check_certificate(a, b, text)
    d = F(json.loads(text)["bottleneck"])
    b1, b2 = to_barcode(a), to_barcode(b)
    if not metrics.brute_interleave(b1, b2, d):
        errs.append(f"brute force finds no {d}-interleaving")
    below = d - F(1, 1000)
    if below >= 0 and metrics.brute_interleave(b1, b2, below):
        errs.append(f"brute force finds a {below}-interleaving below the distance")
    return errs


# -- morse-persistence --------------------------------------------------------


def _sublevel_sweep(values, tris):
    """Betti numbers of the sublevel complexes {max vertex value <= t} of the
    torus at every regular level t, by a sweep over the simplices.

    b0 counts union-find components; a proper subcomplex of the torus has no
    2-cycle, so b2 is 1 exactly when every triangle is present; b1 follows
    from the Euler characteristic.  Yields (t, betti, simplices so far)."""
    edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))})
    simplices = sorted([(v,) for v in range(len(values))] + edges + list(tris),
                       key=lambda s: (max(values[v] for v in s), len(s)))
    levels = sorted(set(values))
    parent = list(range(len(values)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    yield levels[0] - 1, {}, []
    done, counts, components = [], [0, 0, 0], 0
    pos = 0
    for k, level in enumerate(levels):
        while pos < len(simplices) and max(values[v] for v in simplices[pos]) == level:
            s = simplices[pos]
            pos += 1
            done.append(s)
            counts[len(s) - 1] += 1
            if len(s) == 1:
                components += 1
            elif len(s) == 2 and find(s[0]) != find(s[1]):
                parent[find(s[0])] = find(s[1])
                components -= 1
        b2 = 1 if counts[2] == len(tris) else 0
        b1 = components + b2 - (counts[0] - counts[1] + counts[2])
        t = (level + levels[k + 1]) / 2 if k + 1 < len(levels) else level + 1
        yield t, {q: b for q, b in ((0, components), (1, b1), (2, b2)) if b}, done


def check_sublevel(job, text: str, rng: random.Random) -> list:
    """Barcode ranks at every regular level against sublevel Betti numbers;
    morse.betti_numbers confirms the sweep wherever the complex is small."""
    out = parse_bars(text)
    nv = len(job.data["values"])
    errs = []
    for t, want, done in _sublevel_sweep(job.data["values"], job.data["tris"]):
        if 0 < len(done) <= BETTI_MAX_SIMPLICES:
            K = morse.SimplicialComplex(nv, tuple(sorted(done, key=lambda s: (len(s), s))))
            ranks = morse.betti_numbers(K)
            if ranks != want:
                errs.append(f"betti_numbers {ranks} != sweep {want} at {t}")
        got = stalk(out, t)
        if got != want:
            errs.append(f"sublevel ranks at {t}: got {got}, Betti {want}")
    return errs


def _midpoints(values) -> list:
    """One regular level in each stratum between distinct vertex values."""
    ev = sorted(set(values))
    return [ev[0] - 1] + [(a + b) / 2 for a, b in zip(ev, ev[1:])] + [ev[-1] + 1]


def check_sheaf(job, text: str, rng: random.Random) -> list:
    """Stalk q of the sheaf route at a regular level t is H^q(K, {h <= t}),
    which by duality on the closed surface is b_{2-q} of {h >= t}."""
    out = parse_bars(text)
    values = job.data["values"]
    K = morse.SimplicialComplex.from_maximal(len(values), job.data["tris"])
    errs = []
    for t in _midpoints(values):
        betti = morse.betti_numbers(K, 2, {s for s in K.simplices if min(values[v] for v in s) >= t})
        want = {2 - q: b for q, b in betti.items()}
        got = stalk(out, t)
        if got != want:
            errs.append(f"sheaf stalk at {t}: got {got}, superlevel Betti {want}")
    return errs


# -- domain-pi ------------------------------------------------------------------


def action_bin(q: F, rsq: F) -> int:
    """floor(q / rsq) for the level q*pi; exact rational arithmetic."""
    return int(q // rsq)


def fraction_bin(T: F, rsq: F) -> int:
    """floor(T / (pi rsq)) for a rational level T, from both pi bounds."""
    lo, hi = int(T // (PI_ABOVE * rsq)), int(T // (PI_BELOW * rsq))
    if lo != hi:
        raise ValueError(f"level {T} too close to the spectrum of {rsq}")
    return lo


def ellipsoid_degree(n: int, r: F, R: F, q: F) -> int:
    return 2 * (n - 1) * (action_bin(q, R * R) + 1) + 2 * (action_bin(q, r * r) + 1) - n


def ball_degree(n: int, r: F, q: F) -> int:
    return n * (2 * action_bin(q, r * r) + 1)


def _homspace(deg: int) -> dict:
    return {"dims": {str(deg): 1}}


def check_nonsqueeze(job, text: str, rng: random.Random) -> list:
    obj = json.loads(text)
    d = job.data
    errs = []
    if obj["obstructed"] != (d["r1"] > d["r2"]):
        errs.append(f"obstructed={obj['obstructed']} for r1={d['r1']}, r2={d['r2']}")
    if obj["obstructed"] and d["r1"] > d["r2"]:
        q = (d["r1"] ** 2 + d["r2"] ** 2) / 2
        want_ball = _homspace(ball_degree(d["n"], d["r1"], q) - d["n"])
        want_ell = _homspace(ellipsoid_degree(d["n"], d["r2"], d["R"], q) - d["n"])
        if obj["ball_invariant"] != want_ball or obj["ellipsoid_invariant"] != want_ell:
            errs.append(f"invariants {obj['ball_invariant']}, {obj['ellipsoid_invariant']}")
    return errs


def check_invariant(job, text: str, rng: random.Random) -> list:
    """S_T is the stalk degree at T moved down by n (the probe sits n up)."""
    d = job.data
    if job.kind == "ball-invariant":
        deg = ball_degree(d["n"], d["r"], d["q"])
    else:
        deg = ellipsoid_degree(d["n"], d["r"], d["R"], d["q"])
    want = _homspace(deg - d["n"])
    got = json.loads(text)
    return [] if got == want else [f"invariant: got {got}, closed form {want}"]


def _pi_value(v) -> F:
    """A pure multiple of pi in barcode JSON -> its rational coefficient."""
    if isinstance(v, dict):
        if F(v["plus"]) != 0:
            raise ValueError(f"endpoint {v} is not a multiple of pi")
        return F(v["pi"])
    if F(v) != 0:
        raise ValueError(f"endpoint {v} is not a multiple of pi")
    return F(0)


def check_tmax(job, text: str, rng: random.Random) -> list:
    """One [-,-) bar per stratum between spectrum values, degree per closed form."""
    d = job.data
    rsqs = [d["r"] ** 2] if job.kind == "ball-tmax" else [d["r"] ** 2, d["R"] ** 2]
    spec = sorted({m * rsq for rsq in rsqs for m in range(int(d["tmax"] // rsq) + 1)})
    nxt = min((int(spec[-1] // rsq) + 1) * rsq for rsq in rsqs)
    want = set()
    for lo, hi in zip(spec, spec[1:] + [nxt]):
        if lo >= d["tmax"]:
            break
        mid = (lo + hi) / 2
        if job.kind == "ball-tmax":
            deg = ball_degree(d["n"], d["r"], mid)
        else:
            deg = ellipsoid_degree(d["n"], d["r"], d["R"], mid)
        want.add((lo, hi, deg, 1))
    got = {
        (_pi_value(b["lo"]["v"]), _pi_value(b["hi"]["v"]), b["deg"], b["mult"])
        for b in json.loads(text)["bars"]
        if b["lo"]["closed"] and not b["hi"]["closed"]
    }
    if len(got) != len(json.loads(text)["bars"]) or got != want:
        return [f"tmax barcode: {len(got)} bars, closed form {len(want)}"]
    return []


def check_eigen(job, text: str, rng: random.Random) -> list:
    """Ball stalk degree = n * eigen count; the count is 2m+1 in bin m."""
    d = job.data
    count = json.loads(text)["eigen_count"]
    (deg,) = domains.ball_stalk(d["n"], d["r"], d["T"]).dims
    m = fraction_bin(d["T"], d["r"] ** 2)
    if deg != d["n"] * count or count != 2 * m + 1:
        return [f"eigen count {count}: ball stalk degree {deg}, bin {m}"]
    return []


def check_cone(job, text: str, rng: random.Random) -> list:
    d = job.data
    rsq = d["r"] ** 2
    diff = d["n"] * 2 * (fraction_bin(d["T"], d["c"] * rsq) - fraction_bin(d["T"], rsq))
    want = {"dims": {str(diff): 1}} if diff else {"dims": {}}
    got = json.loads(text)
    return [] if got == want else [f"cone rank: got {got}, closed form {want}"]


CHECKS = {
    "convolve": lambda job, text, rng: check_stalk_oracle("proper", job, text, rng),
    "hom-star": lambda job, text, rng: check_stalk_oracle("hom-star", job, text, rng),
    "rhom-total": check_rhom_total,
    "rhom-sheaf": check_rhom_sheaf,
    "dist": check_dist,
    "sublevel": check_sublevel,
    "sheaf": check_sheaf,
    "nonsqueeze": check_nonsqueeze,
    "ball-invariant": check_invariant,
    "ellipsoid-invariant": check_invariant,
    "ball-tmax": check_tmax,
    "ellipsoid-tmax": check_tmax,
    "eigen": check_eigen,
    "cone": check_cone,
}


def check(job, text: str, rng: random.Random) -> list:
    """Mismatch messages for one job's output ([] when correct)."""
    try:
        return CHECKS[job.kind](job, text, rng)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
