"""Smoke tests of `tools/call_counts.py`: `--against` on the checkout
against itself, and counts that move neither with the hash seed nor with
the other kinds counted beside a kind."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "call_counts.py"


def count(*args, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    argv = [sys.executable, str(TOOL), "--seeds", "1", *args]
    return subprocess.run(argv, check=True, capture_output=True, text=True, env=env).stdout.splitlines()


def test_checkout_against_itself_reads_zero_deltas():
    lines = count("--kind", "convolve", "--against", str(ROOT))
    assert len(lines) == 1
    workload, seed, kind, *counters = lines[0].split()
    assert (workload, seed, kind) == ("ops-bilinear", "1", "convolve")
    # primitive calls, Fraction compares, PiRational signs, Fraction constructions
    triples = [tuple(c.split("/")) for c in counters]
    assert len(triples) == 4 and all(b == a and d == "+0" for a, b, d in triples)
    assert int(triples[0][0]) > 100_000


def test_pi_counts_do_not_move_with_the_hash_seed():
    # rhom_total sorts the PiRational ends of each stratum; a set's order
    # would make the count of its compares depend on the hash seed
    lines = [count("--kind", "ellipsoid-invariant", hash_seed=h) for h in (1, 2)]
    assert len(lines[0]) == 1 and lines[0][0].startswith("domain-pi 1 ellipsoid-invariant ")
    assert int(lines[0][0].split()[5]) > 0  # PiRational signs: the sort ran on π values
    assert lines[0] == lines[1]


def test_a_kind_counts_the_same_beside_another():
    # the warm-up pass charges the process's first-use work to no job
    alone = count("--kind", "hom-star")
    both = count("--kind", "hom-star", "--kind", "convolve")
    assert len(alone) == 1 and alone[0] in both and len(both) == 2
