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
    dist             ``dist`` on a barcode of n bars in one degree and its
                     ``perturb``-ed copy (``tamarkin_bars``); size n
    convolve         ``ops convolve`` of two n-bar barcodes in degrees 0-2
                     (``tamarkin_bars``); size n
    rhom-total       ``ops rhom-total`` of two such barcodes; size n

It prints one line per step (kind, n, size, seconds, the step's peak RSS in
MB, and the log-log slope from the step before) and, after each kind's
steps, the least-squares log-log slope of time against size over all of
them.  The seconds time the CLI call alone; the peak RSS is that of the
whole subprocess, interpreter and imports included.  A slope near 1 is
linear time, near 2 quadratic.  A morse kind stops before a torus with more
simplices than ``morse.MAX_SIMPLICES``, which the CLI refuses.  This is a
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
# prints [exit code, seconds in the CLI call, peak RSS in KB]
STEP = """
import json, resource, sys, time
sys.path[:0] = sys.argv[1:3]
from job_digests import run_job
from sheafcalc import cli
start = time.perf_counter()
rc, _ = run_job(cli, json.loads(sys.argv[3]))
sec = time.perf_counter() - start
print(json.dumps([rc, sec, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
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
    n = 25 * 2**k
    a = workloads.tamarkin_bars(rng, n, 1, top=40)
    b = workloads.perturb(rng, a, 1)
    return n, n, ["dist", workloads.write_barcode(workdir, "a.json", a), workloads.write_barcode(workdir, "b.json", b)]


def ops_step(op):
    def step(workloads, rng, k, workdir):
        n = 25 * 2**k
        paths = [workloads.write_barcode(workdir, f"{x}.json", workloads.tamarkin_bars(rng, n, 3)) for x in "ab"]
        return n, n, ["ops", op, *paths]

    return step


KINDS = {
    "sheaf": morse_step("sheaf", tent_values),
    "sheaf-distinct": morse_step("sheaf", distinct_values),
    "sublevel": morse_step("sublevel", tent_values),
    "dist": dist_step,
    "convolve": ops_step("convolve"),
    "rhom-total": ops_step("rhom-total"),
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
    from sheafcalc import morse

    max_simplices = getattr(morse, "MAX_SIMPLICES", math.inf)  # a checkout older than the cap has none
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
                if sec > args.cap:
                    break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{kind} slope {slope(points):.2f} over sizes {points[0][0]}..{points[-1][0]} ({len(points)} steps)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
