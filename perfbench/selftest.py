"""Tests of the benchmark itself (not part of the repo's pytest suite).

Run from the repository root:

    python3 perfbench/selftest.py

A smoke run of every workload at small sizes checks that each metric named
in BENCHMARK.json is printed with its unit; negative tests check that the
gate and the loop catch wrong answers; a last test checks that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
SMALL = {
    "OPS_MIX": {"convolve": (2, 6, 9), "hom-star": (2, 6, 9), "rhom-sheaf": (2, 10, 14), "rhom-total": (2, 10, 14)},
    "DIST_MIX": (3, 6, 10),
    "MORSE_SUBLEVEL": (2, 5, 6),
    "MORSE_SHEAF": (2, 3, 4),
}


@contextlib.contextmanager
def small_sizes():
    saved = {name: getattr(workloads, name) for name in SMALL}
    try:
        for name, value in SMALL.items():
            setattr(workloads, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


def bench(*argv):
    """run.main in-process: (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(argv))
    return rc, out.getvalue().splitlines()


class SmokeRun(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        expect = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
        with small_sizes():
            for wl in [w["name"] for w in SPEC["workloads"]]:
                for trace in (0, 1):
                    with self.subTest(workload=wl, trace=trace):
                        rc, lines = bench("--workload", wl, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
                        self.assertEqual(rc, 0)
                        result = json.loads(lines[-1])
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"], json.loads(lines[-2])["env"]["failures"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, {m["name"]: m["unit"] for m in expect[trace]})
                        for v in result["metrics"].values():
                            self.assertTrue(math.isfinite(v["value"]))
                        env = json.loads(lines[-2])["env"]
                        for key in ("python", "mpmath", "nproc", "seed", "git_commit"):
                            self.assertIn(key, env)
                        if trace == 0:
                            self.assertIn("tail_percentile", env)

    def test_same_seed_same_inputs(self):
        a, b = (os.path.join(HERE, ".work", f"selftest-{k}") for k in "ab")
        try:
            for d in (a, b):
                os.makedirs(d)
            with small_sizes():
                ja = workloads.make_jobs("ops-bilinear", 7, a)
                jb = workloads.make_jobs("ops-bilinear", 7, b)
            self.assertEqual([j.key for j in ja], [j.key for j in jb])
            self.assertEqual([j.data for j in ja], [j.data for j in jb])
        finally:
            for d in (a, b):
                shutil.rmtree(d, ignore_errors=True)


class GateCatchesWrongAnswers(unittest.TestCase):
    """Capture a correct output, change one value, and expect a mismatch."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import gate
        from sheafcalc import cli

        cls.gate, cls.cli = gate, cli
        cls.workdir = os.path.join(HERE, ".work", f"selftest-gate-{os.getpid()}")
        os.makedirs(cls.workdir)
        cls.jobs = {}
        with small_sizes():
            for wl in workloads.WORKLOADS:
                for job in workloads.make_jobs(wl, 5, cls.workdir):
                    cls.jobs.setdefault(job.kind, job)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def captured(self, kind):
        job = self.jobs[kind]
        rc, text, _ = run.run_job(self.cli, job)
        self.assertEqual(rc, 0)
        self.assertEqual(self.gate.check(job, text, run.random.Random(0)), [])
        return job, json.loads(text)

    def assert_caught(self, job, obj):
        errs = self.gate.check(job, json.dumps(obj), run.random.Random(0))
        self.assertNotEqual(errs, [], f"{job.kind}: changed output passed the gate")

    def test_one_bar_changed_in_a_sublevel_barcode(self):
        job, obj = self.captured("sublevel")
        obj["bars"][0]["deg"] += 1
        self.assert_caught(job, obj)

    def test_one_bar_dropped_from_a_domain_barcode(self):
        job, obj = self.captured("ball-tmax")
        obj["bars"].pop()
        self.assert_caught(job, obj)

    def test_rhom_total_dimension_changed(self):
        job, obj = self.captured("rhom-total")
        deg = next(iter(obj["dims"]))
        obj["dims"][deg] += 1
        self.assert_caught(job, obj)

    def test_bottleneck_distance_lowered(self):
        job, obj = self.captured("dist")
        obj["bottleneck"] = obj["witness"]["delta"] = "0"
        self.assert_caught(job, obj)

    def test_nonsqueeze_verdict_flipped(self):
        job, obj = self.captured("nonsqueeze")
        obj["obstructed"] = not obj["obstructed"]
        self.assert_caught(job, obj)

    def test_loop_counts_digest_mismatch_and_crash(self):
        job = self.jobs["convolve"]
        broken = workloads.Job("missing", "convolve", ["ops", "convolve", "no-such-file.json", "x"])
        digests = {job.key: "not the digest", broken.key: None}
        loop = run.timed_loop(self.cli, [job, broken], digests, 0.01)
        self.assertEqual(loop["failed"], len(loop["times"]))


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        bare = os.path.join(HERE, ".work", f"selftest-bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
