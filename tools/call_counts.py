"""Call counts of every benchmark job, as evidence that host speed cannot move.

For each seed and every workload in ``perfbench/workloads.WORKLOADS``,
writes the workload's inputs with ``perfbench/workloads.make_jobs`` into a
temporary directory, runs every job in-process through ``sheafcalc.cli.main``
under cProfile and prints one line per job kind, summed over its jobs:

    workload seed kind primitive_calls fraction_compares pirational_signs fraction_constructions

``primitive_calls`` counts every non-recursive Python-level call;
``fraction_compares`` counts calls of ``Fraction``'s comparison operators;
``pirational_signs`` counts calls of ``PiRational.sign``, which every
compare of two ``q*pi + s`` values makes; ``fraction_constructions``
counts calls of ``Fraction.__new__``, which every exact rational result
makes.  All four repeat exactly from run to run, so two checkouts compare
without timing noise:

    python3 tools/call_counts.py --seeds 1 > after.txt
    python3 tools/call_counts.py --seeds 1 --root ../other-checkout > before.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script).  ``--kind K`` (repeatable) counts
only the jobs of kind K.  Every selected job runs once, unprofiled, before
the counted pass, so the process's first-use work (imports, caches) is
charged to no job, and a kind reads the same with or without other kinds
beside it.  Nothing under ``perfbench/`` is written to.

``--against ROOT`` counts both checkouts, each in a fresh interpreter, and
prints one line per job kind with, for each of the four counters, the count
at ROOT, the count at ``--root`` and the difference:

    python3 tools/call_counts.py --seeds 1 --against ../parent

    workload seed kind ROOT/root/delta ROOT/root/delta ROOT/root/delta ROOT/root/delta

The trees may sit anywhere: the counts are summed over the profiler's own
entries, and do not depend on a checkout's path.  Summed through
``pstats``, they did.  ``pstats`` merges the entries that share a (file,
line, name) label, as every dataclass's generated ``__init__`` does, and
which count survives depends on the memory layout, so a copy one level
deeper read +116 primitive calls on ``ball-invariant`` with no change to
the code.  Unpack the tree to compare with anywhere, e.g.
``mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent``.
"""

from __future__ import annotations

import cProfile
import os
import subprocess
import sys

from job_digests import each_job, parser, run_job

COMPARES = {"__eq__", "__lt__", "__le__", "__gt__", "__ge__"}


def counts(profile: cProfile.Profile) -> tuple:
    """(primitive calls, Fraction comparison calls, PiRational.sign calls,
    Fraction.__new__ calls) recorded by a profile, summed over its own
    entries, not through ``pstats`` (see above)."""
    acc = [0, 0, 0, 0]
    for entry in profile.getstats():
        n = entry.callcount - entry.reccallcount
        acc[0] += n
        code = entry.code  # a string for a built-in
        if isinstance(code, str):
            continue
        where, name = os.path.basename(code.co_filename), code.co_name
        if where == "fractions.py" and name in COMPARES:
            acc[1] += n
        elif where == "exactnum.py" and name == "sign":
            acc[2] += n
        elif where == "fractions.py" and name == "__new__":
            acc[3] += n
    return tuple(acc)


def count_tree(root: str, args) -> list[str]:
    """This script's output lines for the checkout at root, from a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--root", root, "--seeds", *map(str, args.seeds)]
    for kind in args.kind or ():
        argv += ["--kind", kind]
    return subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()


def compare(before: list[str], after: list[str]) -> list[str]:
    """One line per job kind: before/after/delta of each counter."""
    rows = [{tuple(f[:3]): list(map(int, f[3:])) for f in map(str.split, lines)} for lines in (before, after)]
    out = []
    for key in sorted(rows[0].keys() | rows[1].keys(), key=lambda k: (k[0], int(k[1]), k[2])):
        old, new = (r.get(key, [0] * 4) for r in rows)
        out.append(" ".join([*key, *(f"{a}/{b}/{b - a:+d}" for a, b in zip(old, new))]))
    return out


def main(argv=None) -> int:
    ap = parser(__doc__)
    ap.add_argument("--kind", action="append", help="count only the jobs of this kind (repeatable)")
    ap.add_argument("--against", help="a second checkout to compare with")
    args = ap.parse_args(argv)
    if args.against:
        for line in compare(count_tree(args.against, args), count_tree(args.root, args)):
            print(line)
        return 0

    def selected():
        return (item for item in each_job(args.root, args.seeds) if not args.kind or item[3].kind in args.kind)

    # warm-up: the process's first-use work (imports, caches) would land on whichever job ran first
    for cli, _, _, job in selected():
        run_job(cli, job.argv)
    totals: dict[tuple, list] = {}
    for cli, workload, seed, job in selected():
        profile = cProfile.Profile()
        profile.enable()
        run_job(cli, job.argv)
        profile.disable()
        acc = totals.setdefault((workload, seed, job.kind), [0, 0, 0, 0])
        for k, n in enumerate(counts(profile)):
            acc[k] += n
    for (workload, seed, kind), acc in sorted(totals.items()):
        print(workload, seed, kind, *acc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
