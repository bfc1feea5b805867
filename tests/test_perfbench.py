"""The benchmark's contract with the package: every name it wraps or calls exists and works."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name: str, as_name: str | None = None):
    """Import perfbench/<name>.py for this test only, as module `as_name` (default `name`)."""
    spec = importlib.util.spec_from_file_location(as_name or name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = load(monkeypatch, "tracing", "perfbench_tracing")
    missing = [f"{home.__name__}.{attr}" for home, attr, _ in tracing.WRAPPED.values()
               if not callable(getattr(home, attr, None))]
    assert tracing.WRAPPED
    assert missing == []


def test_grids_workload_runs_one_cell(monkeypatch, tmp_path):
    # worker.py imports its siblings by their own names and puts src/ on sys.path
    speed = load(monkeypatch, "speed")
    tracing = load(monkeypatch, "tracing")
    monkeypatch.setattr(sys, "path", sys.path.copy())
    worker = load(monkeypatch, "worker", "perfbench_worker")
    assert (worker.speed, worker.tracing) == (speed, tracing)
    job = {"grids": [{"n_list": [2], "t_list": [3], "target_mean": 100.0,
                      "others_mean": 100.0}], "reps": 1, "seed": 0}
    grids = worker.Grids(job, tmp_path)
    [(table, csv)] = grids.run()
    [cell] = table.cells
    assert (cell.n, cell.t, cell.reps) == (2, 3, 1)
    assert not cell.infeasible
    assert table.cell(3, 2) is cell
    assert csv.splitlines()[1] == f"3,2,{cell.mean:.4f},1.0000,1,0.0000"

    # traced, the engine's calls are all seen through the package's module names
    tracer = tracing.Tracer()
    with tracer.installed():
        [(traced, _)] = grids.run()
    assert traced == table
    names = {span.name for span in tracer.spans}
    assert {"cli.engine", "stats.sample", "model.anonymize", "mcssp.combine",
            "privacy.entropy"} <= names
