"""Smoke test of the size ladder, `tools/ladder.py`: one kind, one step."""

import importlib.util
import pathlib
import sys

LADDER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_one_kind_runs_one_step(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    assert {"rhom-total", "ball-tmax", "ellipsoid-tmax"} <= set(ladder.KINDS)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout's src/ and perfbench/ first
    # a cap of 0 s stops the kind after its first step
    assert ladder.main(["--kind", "sublevel", "--cap", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kind n size")
    assert lines[1].split()[:3] == ["sublevel", "4", "96"]
    assert lines[2].startswith("sublevel slope") and len(lines) == 3
