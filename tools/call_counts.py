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
without timing noise (a few dozen calls per job can still differ between
checkouts in different directories, from the interpreter's own ``abc``
caches):

    python3 tools/call_counts.py --seeds 1 > after.txt
    python3 tools/call_counts.py --seeds 1 --root ../other-checkout > before.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script).  Nothing under ``perfbench/`` is
written to.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

from job_digests import each_job, parse_args, run_job

COMPARES = {"__eq__", "__lt__", "__le__", "__gt__", "__ge__"}


def counts(profile: cProfile.Profile) -> tuple:
    """(primitive calls, Fraction comparison calls, PiRational.sign calls,
    Fraction.__new__ calls) recorded by a profile."""
    stats = pstats.Stats(profile)

    def calls(names, filename):
        return sum(
            prim
            for (path, _line, name), (prim, *_rest) in stats.stats.items()
            if name in names and os.path.basename(path) == filename
        )

    return (
        stats.prim_calls,
        calls(COMPARES, "fractions.py"),
        calls({"sign"}, "exactnum.py"),
        calls({"__new__"}, "fractions.py"),
    )


def main(argv=None) -> int:
    args = parse_args(argv, __doc__)
    totals: dict[tuple, list] = {}
    for cli, workload, seed, job in each_job(args.root, args.seeds):
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
