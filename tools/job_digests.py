"""Stdout digests of every benchmark job, for byte-identity checks.

For each seed and every workload in ``perfbench/workloads.WORKLOADS``,
writes the workload's inputs with ``perfbench/workloads.make_jobs`` into a
temporary directory, runs every job in-process through ``sheafcalc.cli.main``
and prints one line per job:

    workload seed key exit sha256(stdout)

Run it on two checkouts and diff the outputs; identical lines mean every
job printed the same bytes and exited the same way:

    python3 tools/job_digests.py > after.txt
    python3 tools/job_digests.py --root ../other-checkout > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script).  Nothing under ``perfbench/`` is
written to.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile


def parser(doc=__doc__) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    return ap


def each_job(root: str, seeds):
    """Yield (cli module, workload, seed, job) for every job of every workload.

    Imports ``sheafcalc`` and ``workloads`` from the checkout at root; each
    seed's inputs live in a temporary directory while its jobs are yielded.
    """
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from sheafcalc import cli

    for workload in sorted(workloads.WORKLOADS):
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix="benchmark-jobs-")
            try:
                jobs = workloads.make_jobs(workload, seed, workdir)
                for job in sorted(jobs, key=lambda j: j.key):
                    yield cli, workload, seed, job
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


def run_job(cli, argv) -> tuple:
    """(exit code or exception name, stdout) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        rc = type(exc).__name__
    return rc, out.getvalue()


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    for cli, workload, seed, job in each_job(args.root, args.seeds):
        rc, out = run_job(cli, job.argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        print(workload, seed, job.key, rc, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
