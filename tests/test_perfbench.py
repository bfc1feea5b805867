"""The benchmark tracer's contract with the package: every name it wraps exists."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{home.__name__}.{attr}" for home, attr, _ in tracing.WRAPPED.values()
               if not callable(getattr(home, attr, None))]
    assert tracing.WRAPPED
    assert missing == []
