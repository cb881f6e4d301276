"""Smoke tests of the size ladder, `tools/ladder.py`: one kind, one step,
and the `dist` kind's steps up to its cap."""

import importlib.util
import json
import pathlib
import sys

from sheafcalc.metrics import MAX_DIST_PAIRS

LADDER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def test_one_kind_runs_one_step(monkeypatch, capsys):
    ladder = load_ladder()
    assert {"rhom-total", "ball-tmax", "ellipsoid-tmax", "sublevel-distinct"} <= set(ladder.KINDS)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout's src/ and perfbench/ first
    # a cap of 0 s stops the kind after its first step
    assert ladder.main(["--kind", "sublevel", "--cap", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kind n size")
    assert lines[1].split()[:3] == ["sublevel", "4", "96"]
    assert lines[2].startswith("sublevel slope") and len(lines) == 3


def test_dist_kind_ends_with_a_step_at_the_pair_cap(monkeypatch, capsys):
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", list(sys.path))
    sides = []

    def run_step(root, argv):
        # no CLI call: count each step's bars a side and report a fast exit 0
        sides.append(tuple(len(json.loads(pathlib.Path(path).read_text())["bars"]) for path in argv[1:]))
        return 0, 0.001, 1.0

    monkeypatch.setattr(ladder, "run_step", run_step)
    assert ladder.main(["--kind", "dist", "--cap", "60"]) == 0
    steps = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert [int(step[1]) for step in steps] == [25, 50, 100, 200, 400, 800, 1600]
    assert sides == [(n, n) for n in (25, 50, 100, 200, 400, 800, 1600)]
    assert sides[-1][0] * sides[-1][1] == MAX_DIST_PAIRS


def test_step_rss_is_the_step_own_peak(tmp_path):
    # ru_maxrss in the step would start at the driver's peak, carried across
    # fork+exec; the step's own VmHWM does not
    ladder = load_ladder()
    path = tmp_path / "b.json"
    path.write_text('{"bars": [{"deg": 0, "lo": {"closed": true, "v": "0"}, "hi": {"closed": false, "v": "1"}}]}')
    ballast = b"x" * (96 << 20)  # the driver's peak is at least 96 MB
    rc, _, rss = ladder.run_step(str(LADDER.parent.parent), ["barcode", str(path)])
    del ballast
    assert rc == 0 and 5 < rss < 80
