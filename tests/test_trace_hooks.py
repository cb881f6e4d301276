"""The benchmark's traced run wraps functions by module and attribute name.

A refactor that drops or renames one of those names (for example the
re-exported `ops.canonicalize`) would break `perfbench/run.py --trace 1`
only; this test makes it fail here instead.
"""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, attr, name, _ in spans.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"
