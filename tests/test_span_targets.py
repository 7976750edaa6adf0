"""The benchmark's traced pass wraps sumprod functions by name; this keeps a
rename or deletion in sumprod from silently dropping one of its spans."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # reads the file only; nothing is installed
    assert spans.TARGETS
    for module, name, *_ in spans.TARGETS:
        mod = importlib.import_module(f"sumprod.{module}")
        assert callable(getattr(mod, name, None)), f"sumprod.{module}.{name}"
    assert set(spans.LAYERS) == {module for module, *_ in spans.TARGETS}
