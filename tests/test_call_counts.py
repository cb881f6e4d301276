"""Smoke test of `tools/call_counts.py --against`: the checkout against itself."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "call_counts.py"


def test_checkout_against_itself_reads_zero_deltas():
    argv = [sys.executable, str(TOOL), "--seeds", "1", "--kind", "convolve", "--against", str(ROOT)]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    assert len(lines) == 1
    workload, seed, kind, *counters = lines[0].split()
    assert (workload, seed, kind) == ("ops-bilinear", "1", "convolve")
    # primitive calls, Fraction compares, PiRational signs, Fraction constructions
    triples = [tuple(c.split("/")) for c in counters]
    assert len(triples) == 4 and all(b == a and d == "+0" for a, b, d in triples)
    assert int(triples[0][0]) > 100_000
