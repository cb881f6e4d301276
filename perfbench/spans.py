"""Spans at the layer boundaries, for the traced run only.

A span wraps a public function where one layer reaches it through another,
installed under the name the calling module uses and removed when the run
ends; nothing under ``src/`` changes.  Per-scalar functions (``cmp``,
Fraction arithmetic) are never wrapped: ``probe_cmp`` times them directly.
Spans stay in memory and are turned into per-layer metrics at the end.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from fractions import Fraction as F

from sheafcalc import cli, domains, exactnum, metrics, morse, ops, stratmodel
from sheafcalc.exactnum import PiRational


def _bars_in(args, out):
    return {"in": len(args[0].bars), "out": len(out.bars)}


def _pairs(args, out):
    return {"pairs": len(args[0].bars) * len(args[1].bars)}


def _per_side(args, out):
    return {"size": (args[0].total_mult() + args[1].total_mult()) / 2}


def _simplices(args, out):
    return {"size": len(args[0].simplices)}


def _strata(args, out):
    return {"strata": len(out.bars)}


# (module, attribute, span name, size counts taken at the boundary)
WRAPS = [
    (ops, "canonicalize", "intervals.canonicalize", _bars_in),
    (morse, "canonicalize", "intervals.canonicalize", _bars_in),
    (stratmodel, "canonicalize", "intervals.canonicalize", _bars_in),
    (domains, "canonicalize", "intervals.canonicalize", _bars_in),
    (cli, "barcode_from_json", "intervals.barcode_from_json", None),
    (cli, "barcode_to_json", "intervals.barcode_to_json", None),
    (ops, "convolve", "ops.convolve", _pairs),
    (ops, "hom_star", "ops.hom_star", _pairs),
    (ops, "rhom_sheaf", "ops.rhom_sheaf", _pairs),
    (ops, "rhom_total", "ops.rhom_total", _pairs),
    (metrics, "bottleneck", "metrics.bottleneck", _per_side),
    (metrics, "delta_matched", "metrics.delta_matched", None),
    (morse, "sublevel_barcode", "morse.sublevel_barcode", _simplices),
    (morse, "sheaf_route_barcode", "morse.sheaf_route_barcode", _simplices),
    (morse, "sheaf_route_model", "morse.sheaf_route_model", None),
    (morse, "decompose", "stratmodel.decompose", None),
    (morse, "superlevel_barcode", "morse.superlevel_barcode", None),
    (cli, "domain_barcode", "domains.domain_barcode", _strata),
    (domains, "domain_barcode", "domains.domain_barcode", _strata),
    (domains, "rhom_total", "domains.rhom_total", None),
    (cli, "eigen_count", "domains.eigen_count", None),
    (cli, "inclusion_cone_rank", "domains.inclusion_cone_rank", None),
    (cli, "nonsqueeze_check", "domains.nonsqueeze_check", None),
]

OPS_SPANS = ("ops.convolve", "ops.hom_star", "ops.rhom_sheaf", "ops.rhom_total")


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, job, counts]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.job = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job, {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, counts):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counts is not None:
                self.spans[idx][5] = counts(args, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, counts in WRAPS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, counts))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


# -- per-layer metrics ----------------------------------------------------------


def _dur_ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0 without a range."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list, jobs: int, distinct: int) -> dict:
    """Per-layer metrics from the spans of `jobs` traced jobs.

    Times are per job of the traced loop.  Counts are per job of its first
    pass over the `distinct` jobs of the workload, so they repeat exactly
    for a seed.  A layer the workload does not reach reports 0."""
    first = min(jobs, distinct)
    by: dict = {}
    child_ms: dict = {}
    for idx, s in enumerate(spans):
        by.setdefault(s[0], []).append(idx)
        if s[3] is not None:
            kids = child_ms.setdefault(s[3], {})
            kids[s[0]] = kids.get(s[0], 0.0) + _dur_ms(s)

    def named(name, where=lambda s: True):
        return [spans[i] for i in by.get(name, []) if where(spans[i])]

    def counted(name, where=lambda s: True):
        return named(name, lambda s: s[4] < first and where(s))

    def total(name, where=lambda s: True):
        return sum(_dur_ms(s) for s in named(name, where))

    def self_ms(names, minus):
        return sum(_dur_ms(spans[i]) - child_ms.get(i, {}).get(minus, 0.0) for n in names for i in by.get(n, []))

    def parent_name(s):
        return spans[s[3]][0] if s[3] is not None else None

    def mean_count(name, key):
        vals = [s[5][key] for s in counted(name)]
        return statistics.fmean(vals) if vals else 0.0

    canon = named("intervals.canonicalize")
    bars_in = sum(s[5]["in"] for s in counted("intervals.canonicalize"))
    bars_out = sum(s[5]["out"] for s in counted("intervals.canonicalize"))
    top_sublevel = named("morse.sublevel_barcode", lambda s: parent_name(s) == "job")
    simplices = [s[5]["size"] for name in ("morse.sublevel_barcode", "morse.sheaf_route_barcode")
                 for s in counted(name, lambda s: parent_name(s) == "job")]
    return {
        "intervals.canonicalize_ms": (total("intervals.canonicalize") / jobs, "ms"),
        "intervals.canonicalize_in_bars": (bars_in / first, "count"),
        "intervals.merge_ratio": (bars_out / bars_in if bars_in else 0.0, "ratio"),
        "intervals.from_json_ms": (total("intervals.barcode_from_json") / jobs, "ms"),
        "intervals.to_json_ms": (total("intervals.barcode_to_json") / jobs, "ms"),
        "ops.kernel_ms": (self_ms(OPS_SPANS, "intervals.canonicalize") / jobs, "ms"),
        "ops.pairs": (sum(s[5]["pairs"] for n in OPS_SPANS for s in counted(n)) / first, "count"),
        "metrics.bottleneck_self_ms": (self_ms(["metrics.bottleneck"], "metrics.delta_matched") / jobs, "ms"),
        "metrics.feasibility_ms": (total("metrics.delta_matched") / jobs, "ms"),
        "metrics.feasibility_calls": (len(counted("metrics.delta_matched")) / first, "count"),
        "metrics.bars_per_side": (mean_count("metrics.bottleneck", "size"), "count"),
        "morse.sublevel_ms": (sum(_dur_ms(s) for s in top_sublevel) / jobs, "ms"),
        "morse.simplices": (statistics.fmean(simplices) if simplices else 0.0, "count"),
        "morse.sheaf_model_ms": (total("morse.sheaf_route_model") / jobs, "ms"),
        "stratmodel.decompose_ms": (total("stratmodel.decompose") / jobs, "ms"),
        "morse.two_route_check_ms": (
            total("morse.superlevel_barcode", lambda s: parent_name(s) == "morse.sheaf_route_barcode") / jobs, "ms"),
        "domains.domain_barcode_ms": (total("domains.domain_barcode") / jobs, "ms"),
        "domains.strata": (mean_count("domains.domain_barcode", "strata"), "count"),
        "domains.rhom_total_ms": (total("domains.rhom_total") / jobs, "ms"),
        "domains.eigen_count_ms": (
            (total("domains.eigen_count") + total("domains.inclusion_cone_rank")) / jobs, "ms"),
        "domains.nonsqueeze_ms": (total("domains.nonsqueeze_check") / jobs, "ms"),
        "intervals.canonicalize_exp": (
            _slope([(s[5]["in"], _dur_ms(s)) for s in canon if s[5]["in"] >= 16]), "slope"),
        "metrics.bottleneck_exp": (
            _slope([(s[5]["size"], _dur_ms(s)) for s in named("metrics.bottleneck")]), "slope"),
        "morse.sublevel_exp": (_slope([(s[5]["size"], _dur_ms(s)) for s in top_sublevel]), "slope"),
    }


# -- exactnum.cmp probe ------------------------------------------------------------


def _ns_per_cmp(pairs: list, budget_s: float = 0.1, repeats: int = 5) -> float:
    """Median over repeats of ns per exactnum.cmp call on the given pairs."""
    if not pairs:
        return 0.0
    cmp = exactnum.cmp
    rounds = 1
    while True:  # size one repeat to the budget
        t0 = time.perf_counter()
        for _ in range(rounds):
            for x, y in pairs:
                cmp(x, y)
        dt = time.perf_counter() - t0
        if dt >= budget_s / repeats or rounds >= 1 << 16:
            break
        rounds *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for x, y in pairs:
                cmp(x, y)
        samples.append((time.perf_counter() - t0) / (rounds * len(pairs)) * 1e9)
    return statistics.median(samples)


def probe_cmp(fractions: list, pis: list, seed: int, count: int = 1000) -> dict:
    """ns per exactnum.cmp on endpoint pairs sampled from the workload.

    `fractions` are rational endpoints; `pis` are PiRational endpoints.  The
    pi figure mixes pure-pi pairs and PiRational-against-rational pairs."""
    rng = random.Random(seed)
    frac_pairs = [(rng.choice(fractions), rng.choice(fractions)) for _ in range(count)] if fractions else []
    pi_pairs = []
    if pis:
        pi_pairs = [(rng.choice(pis), rng.choice(pis)) for _ in range(count // 2)]
        if fractions:
            pi_pairs += [(rng.choice(pis), rng.choice(fractions)) for _ in range(count // 2)]
    return {
        "exactnum.cmp_frac_ns": (_ns_per_cmp(frac_pairs), "ns"),
        "exactnum.cmp_pi_ns": (_ns_per_cmp(pi_pairs), "ns"),
    }


def probe_values(jobs: list, outputs: dict) -> tuple:
    """Endpoint scalars of a workload for probe_cmp: every rational in the
    generator data, and every endpoint in the captured outputs."""
    fractions: list = []
    pis: list = []

    def walk(obj, in_output):
        if isinstance(obj, F):
            fractions.append(obj)
        elif isinstance(obj, dict):
            if in_output and set(obj) == {"pi", "plus"}:
                pis.append(PiRational(F(obj["pi"]), F(obj["plus"])))
            elif in_output and set(obj) == {"v", "closed"}:
                if isinstance(obj["v"], dict):
                    walk(obj["v"], True)
                elif obj["v"] not in ("+inf", "-inf"):
                    fractions.append(F(obj["v"]))
            else:
                for v in obj.values():
                    walk(v, in_output)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v, in_output)

    for job in jobs:
        walk(job.data, False)
    for text in outputs.values():
        walk(json.loads(text), True)
    return fractions, pis
