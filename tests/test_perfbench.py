"""The benchmark's contract with the package: every name it wraps or calls exists and works."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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


def load_worker(monkeypatch):
    """perfbench/worker.py, with the speed and tracing modules it imports by their own names."""
    speed = load(monkeypatch, "speed")
    tracing = load(monkeypatch, "tracing")
    # worker.py puts src/ on sys.path
    monkeypatch.setattr(sys, "path", sys.path.copy())
    worker = load(monkeypatch, "worker", "perfbench_worker")
    assert (worker.speed, worker.tracing) == (speed, tracing)
    return worker


def run_checked(worker, workload, traced: set[str]) -> None:
    """One plain and one traced pass of a workload, each checked correct; the traced
    pass sees at least the spans named in `traced`."""
    assert workload.check(workload.run(), None) == 0
    tracer = worker.tracing.Tracer(keep=workload.keep)
    with tracer.installed():
        output = workload.run()
    assert workload.check(output, tracer.kept) == 0
    assert traced <= {span.name for span in tracer.spans}


def test_grids_workload_runs_one_cell(monkeypatch, tmp_path):
    worker = load_worker(monkeypatch)
    tracing = worker.tracing
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


def test_solve_workload_runs_a_small_instance(monkeypatch, tmp_path):
    worker = load_worker(monkeypatch)
    inputs = load(monkeypatch, "inputs")
    rng = np.random.Generator(np.random.PCG64(0))
    rows = inputs.exp_readings(rng, 4, 6, inputs.MEAN_WH, inputs.MEAN_WH)
    periods = inputs.shuffle_periods(rng, rows)
    totals = [sum(r) for r in rows]
    job = {"instance_text": inputs.instance_text(periods, totals),
           "expected": inputs.relaxed_reference(periods, totals[0])}
    run_checked(worker, worker.Solve(job, tmp_path), {"cli.main", "mcssp.combine"})


def test_joint_ingest_workload_runs_small_jobs(monkeypatch, tmp_path):
    worker = load_worker(monkeypatch)
    inputs = load(monkeypatch, "inputs")
    for name, value in (("JOINT_BUDGET", 300_000), ("JOINT_CAP", 300_000),
                        ("INGEST_METERS", 5), ("INGEST_PERIODS", 40), ("INGEST_SUB", (3, 8)),
                        ("RANK_SAMPLES", 100)):
        monkeypatch.setattr(inputs, name, value)
    job = {"joint": inputs.joint_job(0), "ingest": inputs.ingest_job(0)}
    run_checked(worker, worker.JointIngest(job, tmp_path),
                {"joint.solve", "ingest.load_readings", "ingest.parse_instance", "stats.rank"})
