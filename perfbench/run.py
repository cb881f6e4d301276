"""sheafcalc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ops-bilinear --seed 1 --seconds 20 --trace 0

Every job is one in-process call of ``sheafcalc.cli.main(argv)`` on files
generated from the seed, with stdout captured.  Jobs run as a closed loop
with one client: one process, no extra threads, the next job only after the
previous one returns.  Before the timed loop every distinct job runs once and
its output goes through the correctness gate (gate.py); in the loop every
output must repeat that job's digest byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half with spans at the layer boundaries (spans.py) and prints
the per-layer metrics.  The last stdout line is the JSON result; the line
before it records the environment.  Exit code 2 means the benchmark could
not run (for example, no ``src/sheafcalc`` under the current directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_STARTS = 5          # fresh CLI processes per run; setup_s is their median
TAIL_BEYOND = 10         # job_tail_ms: highest percentile with this many jobs beyond


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(cli, job):
    """One in-process CLI call: (exit code or exception, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except (Exception, SystemExit) as exc:  # a crashing job is counted as failed
        rc = exc
    return rc, out.getvalue(), time.perf_counter() - t0


def reference_pass(cli, gate, jobs, seed, keep_outputs=False):
    """Run every distinct job once and gate it.

    Returns (digests, failed job count, mismatch messages, outputs)."""
    rng = random.Random(seed)
    digests, messages, outputs = {}, [], {}
    failed = 0
    for job in jobs:
        rc, text, _ = run_job(cli, job)
        errs = [f"exit {rc!r}"] if rc != 0 else gate.check(job, text, rng)
        # a wrong output has no digest, so every repeat of it fails too
        digests[job.key] = None if errs else _digest(text)
        if errs:
            failed += 1
            messages.extend(f"{job.key}: {msg}" for msg in errs)
        elif keep_outputs:
            outputs[job.key] = text
    return digests, failed, messages, outputs


def brute_force_pass(cli, gate, seed, workdir):
    """dist-bottleneck only: small instances against the brute-force oracle.

    Returns (jobs run, failed job count, mismatch messages)."""
    rng = random.Random(f"brute:{seed}")
    messages, failed = [], 0
    pairs = gate.small_dist_instances(rng)
    for k, (a, b) in enumerate(pairs):
        pa = workloads.write_barcode(workdir, f"brute-{k}-a.json", a)
        pb = workloads.write_barcode(workdir, f"brute-{k}-b.json", b)
        job = workloads.Job(f"brute-{k}", "dist", ["dist", pa, pb])
        rc, text, _ = run_job(cli, job)
        errs = [f"exit {rc!r}"] if rc != 0 else gate.check_dist_brute(a, b, text)
        if errs:
            failed += 1
            messages.extend(f"{job.key}: {msg}" for msg in errs)
    return len(pairs), failed, messages


def timed_loop(cli, jobs, digests, seconds, tracer=None):
    """Closed loop over the job list for `seconds`.

    Returns a dict: per-job seconds, wall seconds of every complete pass
    over the job list, failed count and total wall seconds."""
    gc.collect()
    times, passes, failed = [], [], 0
    start = pass_start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        job = jobs[k % len(jobs)]
        if tracer is not None:
            tracer.job = k
            root = tracer.begin("job")
        rc, text, dt = run_job(cli, job)
        if tracer is not None:
            tracer.end(root)
        k += 1
        times.append(dt)
        if rc != 0 or _digest(text) != digests[job.key]:
            failed += 1
        now = time.perf_counter()
        if k % len(jobs) == 0:
            passes.append(now - pass_start)
            pass_start = now
        if now >= deadline:
            break
    return {"times": times, "passes": passes, "failed": failed, "wall": now - start}


def jobs_per_s(loop, per_pass):
    """Jobs per second in the median complete pass over the job list.

    Slow spells of the host last seconds; the median pass is immune to a
    few of them.  Falls back to jobs over wall time when no pass completed."""
    if loop["passes"]:
        return per_pass / statistics.median(loop["passes"])
    return len(loop["times"]) / loop["wall"]


def cold_start(root, job, digest):
    """Median wall time of fresh ``python -m sheafcalc.cli`` processes.

    One untimed run first (bytecode and file caches, which an installed CLI
    has).  Returns (median seconds, runs, failures)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "sheafcalc.cli", *job.argv]
    times, failed = [], 0
    for k in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
            ok = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            ok = False
        dt = time.perf_counter() - t0
        failed += not ok
        if k:
            times.append(dt)
    return statistics.median(times), COLD_STARTS + 1, failed


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it."""
    srt = sorted(times)
    if len(srt) <= TAIL_BEYOND:
        return srt[-1], 100.0
    k = len(srt) - TAIL_BEYOND - 1
    return srt[k], 100.0 * (k + 1) / len(srt)


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sheafcalc", "cli.py")):
        print("perfbench: src/sheafcalc not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mpmath
    import sheafcalc
    from sheafcalc import cli

    if not os.path.abspath(sheafcalc.__file__).startswith(src + os.sep):
        print(f"perfbench: imported sheafcalc from {sheafcalc.__file__}, not {src}", file=sys.stderr)
        return 2
    import gate  # gate and spans import sheafcalc, so only once src is on the path

    workdir = os.path.relpath(os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}"), root)
    os.makedirs(workdir)
    try:
        t_setup = time.perf_counter()
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        digests, failed, failures, outputs = reference_pass(cli, gate, jobs, args.seed, keep_outputs=bool(args.trace))
        attempted = len(jobs)
        if args.workload == "dist-bottleneck":
            n, brute_failed, errs = brute_force_pass(cli, gate, args.seed, workdir)
            attempted += n
            failed += brute_failed
            failures += errs
        gate_s = time.perf_counter() - t_setup
        if args.trace:
            result, extra = traced_run(cli, jobs, digests, outputs, args)
        else:
            result, extra = plain_run(cli, jobs, digests, root, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += extra.pop("attempted")
    failed += extra.pop("failed")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "closed_loop_clients": 1,
        "distinct_jobs": len(jobs),
        "gate_s": round(gate_s, 3),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        **extra,
    }
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def plain_run(cli, jobs, digests, root, args):
    loop = timed_loop(cli, jobs, digests, args.seconds)
    times = loop["times"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = workloads.reference_job(args.workload, jobs)
    setup_s, cold_runs, cold_failed = cold_start(root, ref, digests[ref.key])
    tail_s, pct = tail(times)
    metrics = {
        "jobs_per_s": _metric(jobs_per_s(loop, len(jobs)), "jobs/s"),
        "job_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": _metric(tail_s * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    extra = {
        "attempted": len(times) + cold_runs,
        "failed": loop["failed"] + cold_failed,
        "jobs_timed": len(times),
        "passes": len(loop["passes"]),
        "tail_percentile": round(pct, 2),
        "reference_job": ref.key,
    }
    return metrics, extra


def traced_run(cli, jobs, digests, outputs, args):
    import spans

    half = args.seconds / 2
    plain = timed_loop(cli, jobs, digests, half)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = timed_loop(cli, jobs, digests, half, tracer)
    finally:
        tracer.remove()
    n = len(traced["times"])
    layers = spans.layer_metrics(tracer.spans, n, len(jobs))
    layers.update(spans.probe_cmp(*spans.probe_values(jobs, outputs), args.seed))
    # outputs of the reference pass; the loop checked that it repeats them
    layers["cli.bytes_out"] = (statistics.fmean(len(t) for t in outputs.values()) if outputs else 0.0, "bytes")
    overhead = jobs_per_s(plain, len(jobs)) / jobs_per_s(traced, len(jobs)) - 1
    layers["trace.overhead"] = (overhead, "ratio")
    metrics = {name: _metric(v, unit) for name, (v, unit) in sorted(layers.items())}
    extra = {
        "attempted": len(plain["times"]) + n,
        "failed": plain["failed"] + traced["failed"],
        "jobs_timed": n,
        "spans": len(tracer.spans),
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
