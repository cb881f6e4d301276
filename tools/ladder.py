"""Size ladder: how each heavy subcommand's time grows with its input.

For each kind below, runs one job per step through ``sheafcalc.cli.main``,
each in a fresh Python subprocess, doubling the input size from step to
step until a step takes longer than ``--cap`` seconds.  Inputs come from
the benchmark's generators in ``perfbench/workloads`` and are seeded by
kind and step, so every run sees the same inputs:

    sheaf, sublevel  ``morse sheaf`` / ``morse sublevel`` on an n x n grid
                     torus (``grid_torus``, ``torus_values``); the size is
                     its 6 n^2 simplices, n = 4, 6, 8, 11, 16, 23, ...
    sheaf-distinct   ``morse sheaf`` on the same tori under n^2 distinct
                     shuffled vertex values, one stratum per vertex
    sublevel-distinct  ``morse sublevel`` on the same tori and values
    dist             ``dist`` on a barcode of n bars in one degree and its
                     ``perturb``-ed copy (``tamarkin_bars``), cut or filled
                     up from the first to n bars; size n, up to the n x n
                     pairs that ``metrics.MAX_DIST_PAIRS`` caps
    convolve         ``ops convolve`` of two n-bar barcodes in degrees 0-2
                     (``tamarkin_bars``); size n
    rhom-total       ``ops rhom-total`` of two such barcodes; size n
    ball-tmax        ``domain ball --n 2 --r 1 --tmax (m + 1/2)pi``; the size
                     is the strata count that ``domains.MAX_STRATA`` caps,
                     25 * 2^k, n the barcode's bars
    ellipsoid-tmax   the same for ``domain ellipsoid --n 3 --r 1 --R 2``,
                     whose cap count, (m + 1) + (m // 4 + 1), counts each
                     multiple of 4 pi twice: 20,000 at 16,000 bars

It prints one line per step (kind, n, size, seconds, the step's peak RSS in
MB, and the log-log slope from the step before) and, after each kind's
steps, the least-squares log-log slope of time against size over all of
them.  The seconds time the CLI call alone; the peak RSS is that of the
whole subprocess, interpreter and imports included, read from its own
``VmHWM`` in ``/proc/self/status`` (Linux): ``ru_maxrss`` would start at
the driver's peak, which Linux carries across fork+exec.  A slope near 1 is
linear time, near 2 quadratic.  A morse kind stops before a torus with more
simplices than ``morse.MAX_SIMPLICES``, which the CLI refuses; a domain kind
ends with a step at exactly ``domains.MAX_STRATA`` strata, and ``dist`` with
one at exactly ``metrics.MAX_DIST_PAIRS`` pairs.  This is a
report with no bounds; it exits 1 only if a job fails.  ``--kind`` (repeatable)
runs only the named kinds, so that one kind can run up to a large cap.

    python3 tools/ladder.py --cap 2
    python3 tools/ladder.py --cap 12 --kind sheaf-distinct --kind rhom-total
    python3 tools/ladder.py --cap 2 --root ../other-checkout

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script).  Nothing under ``perfbench/`` is
written to.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

# one step in a fresh interpreter: argv = tools dir, src dir, CLI argv as JSON;
# prints [exit code, seconds in the CLI call, peak RSS in KB]; the peak is the
# process's own VmHWM, as Linux carries ru_maxrss over fork+exec from the driver
STEP = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
from job_digests import run_job
from sheafcalc import cli
start = time.perf_counter()
rc, _ = run_job(cli, json.loads(sys.argv[3]))
sec = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([rc, sec, hwm]))
"""


def run_step(root: str, argv) -> tuple:
    """(exit code, seconds, peak RSS in MB) of one CLI call in a subprocess."""
    tools = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, "-c", STEP, tools, os.path.join(root, "src"), json.dumps(argv)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    rc, sec, rss_kb = json.loads(out)
    return rc, sec, rss_kb / 1024


def morse_step(route, values):
    def step(workloads, rng, k, workdir):
        n = round(4 * 2 ** (k / 2))
        nv, tris = workloads.grid_torus(n)
        path = os.path.join(workdir, "torus.off")
        with open(path, "w") as fh:
            fh.write(workloads.off_text(nv, values(workloads, rng, n), tris))
        return n, 6 * n * n, ["morse", route, path]

    return step


def tent_values(workloads, rng, n):
    return workloads.torus_values(rng, n)


def distinct_values(workloads, rng, n):
    values = list(range(n * n))
    rng.shuffle(values)
    return values


def dist_step(workloads, rng, k, workdir):
    from sheafcalc import metrics

    cap = getattr(metrics, "MAX_DIST_PAIRS", None)  # a checkout older than the cap has none
    n = 25 * 2**k if cap is None else min(25 * 2**k, math.isqrt(cap))
    a = workloads.tamarkin_bars(rng, n, 1, top=40)
    b = (workloads.perturb(rng, a, 1) + a)[:n]
    return n, n, ["dist", workloads.write_barcode(workdir, "a.json", a), workloads.write_barcode(workdir, "b.json", b)]


def ops_step(op):
    def step(workloads, rng, k, workdir):
        n = 25 * 2**k
        paths = [workloads.write_barcode(workdir, f"{x}.json", workloads.tamarkin_bars(rng, n, 3)) for x in "ab"]
        return n, n, ["ops", op, *paths]

    return step


def domain_step(shape, rsqs):
    """`domain <shape>` up to (m + 1/2)pi, the least cutoff of this form
    whose strata count, one per action bin of each squared radius, reaches
    25 * 2^k or the cap."""

    def step(workloads, rng, k, workdir):
        from sheafcalc.domains import MAX_STRATA

        target = min(25 * 2**k, MAX_STRATA)
        count = lambda m: sum(m // rsq + 1 for rsq in rsqs)  # noqa: E731
        m = next(m for m in itertools.count() if count(m) >= target)
        bars = len({j * rsq for rsq in rsqs for j in range(m // rsq + 1)})
        return bars, count(m), ["domain", *shape, "--tmax", f"{2 * m + 1}/2pi"]

    return step


KINDS = {
    "sheaf": morse_step("sheaf", tent_values),
    "sheaf-distinct": morse_step("sheaf", distinct_values),
    "sublevel": morse_step("sublevel", tent_values),
    "sublevel-distinct": morse_step("sublevel", distinct_values),
    "dist": dist_step,
    "convolve": ops_step("convolve"),
    "rhom-total": ops_step("rhom-total"),
    "ball-tmax": domain_step(["ball", "--n", "2", "--r", "1"], (1,)),
    "ellipsoid-tmax": domain_step(["ellipsoid", "--n", "3", "--r", "1", "--R", "2"], (1, 4)),
}


def slope(points) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(sec) for _, sec in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var if var else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--cap", type=float, default=2.0, help="stop a kind after its first step past this many seconds")
    ap.add_argument("--kind", action="append", choices=KINDS, help="run only this kind (repeatable; default: all)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from sheafcalc import domains, metrics, morse

    # a checkout older than a cap has none
    max_simplices = getattr(morse, "MAX_SIMPLICES", math.inf)
    max_pairs = getattr(metrics, "MAX_DIST_PAIRS", math.inf)
    failed = False
    print("kind n size seconds peak_rss_mb step_slope", flush=True)
    for kind in args.kind or KINDS:
        make = KINDS[kind]
        points = []
        workdir = tempfile.mkdtemp(prefix="ladder-")
        try:
            for k in itertools.count():
                n, size, argv_ = make(workloads, random.Random(f"{kind}:{k}"), k, workdir)
                if argv_[0] == "morse" and size > max_simplices:
                    print(f"{kind}: stops before n = {n}, whose {size} simplices pass the cap of {max_simplices}")
                    break
                rc, sec, rss = run_step(root, argv_)
                step = f"{slope(points[-1:] + [(size, sec)]):.2f}" if points else "-"
                points.append((size, sec))
                print(kind, n, size, f"{sec:.4f}", f"{rss:.1f}", step, flush=True)
                if rc != 0:
                    print(f"{kind}: exit {rc} at n = {n}", file=sys.stderr)
                    failed = True
                    break
                if (
                    sec > args.cap
                    or (argv_[0] == "domain" and size >= domains.MAX_STRATA)
                    or (argv_[0] == "dist" and n * n >= max_pairs)
                ):
                    break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{kind} slope {slope(points):.2f} over sizes {points[0][0]}..{points[-1][0]} ({len(points)} steps)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
