"""Run one workload against anonmeter in this fresh process and report one JSON line.

Usage: python3 worker.py JOB_FILE SECONDS TRACE

JOB_FILE holds the inputs and expected outputs that run.py built from the
seed. Passes repeat until SECONDS of passes are spent; every pass's output is
checked, and every untraced pass's time is also scaled to a reference host
speed (speed.py). With TRACE 1, untraced and traced passes alternate and the
traced ones yield the per-layer metrics. Only anonmeter's public functions
and its CLI entry point are called, always through their modules, so that
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from anonmeter import cli, ingest, joint, model, stats  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

# printed entropies carry four decimals
_PRINTED_TOL = 5e-5 + 1e-9
_ENTROPY_TOL = 1e-9


def _close(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


class Solve:
    """`anonmeter solve FILE --meter 1`, in-process, on one 32 x 60 instance."""

    keep = ("mcssp.combine", "privacy.entropy")
    ops = 1

    def __init__(self, job: dict, workdir: Path):
        self.path = workdir / "instance.txt"
        self.path.write_text(job["instance_text"])
        self.expected = job["expected"]
        self.rows = tuple(tuple(r) for r in self.expected["rows"])

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", str(self.path), "--meter", "1"])
        return code, out.getvalue()

    def check(self, output, kept) -> int:
        code, text = output
        e = self.expected
        lines = text.splitlines()
        periods = [float(ln.split(":")[1]) for ln in lines if ln.startswith("  period ")]
        average = [float(ln.split()[2]) for ln in lines if ln.startswith("average entropy:")]
        ok = (code == 0
              and f"consistent selections: N = {e['total']}" in lines
              and _close(periods, e["entropies"], _PRINTED_TOL)
              and _close(average, [e["average"]], _PRINTED_TOL))
        if kept:
            mc, report = kept["mcssp.combine"], kept["privacy.entropy"]
            ok = (ok and mc.total_solutions == e["total"] and mc.counts == self.rows
                  and _close(report.per_period, e["entropies"], _ENTROPY_TOL)
                  and _close([report.average], [e["average"]], _ENTROPY_TOL))
        return 0 if ok else 1


class Grids:
    """run_experiment plus emit_table, serially, over the two acceptance grids."""

    keep = ()

    def __init__(self, job: dict, workdir: Path):
        self.grids = job["grids"]
        self.configs = [
            cli.ExperimentConfig(n_list=tuple(g["n_list"]), t_list=tuple(g["t_list"]),
                                 target_mean=g["target_mean"], others_mean=g["others_mean"],
                                 reps=job["reps"], seed=job["seed"], workers=1)
            for g in self.grids
        ]
        self.ops = 2 * len(self.configs)
        self.c08_mean = None

    def run(self):
        out = []
        for config in self.configs:
            table = cli.run_experiment(config)
            out.append((table, cli.emit_table(table, "csv")))
        return out

    def check(self, output, kept) -> int:
        failed = 0
        for (table, csv), grid in zip(output, self.grids):
            want = grid["cells"]
            failed += not (
                len(table.cells) == len(want)
                and all(c.n == w["n"] and c.t == w["t"] and not c.infeasible
                        and _close(c.values, w["values"], _ENTROPY_TOL)
                        for c, w in zip(table.cells, want)))
            rows = [ln.split(",") for ln in csv.splitlines()[1:]]
            failed += not (
                len(rows) == len(want)
                and all(r[:2] == [str(w["t"]), str(w["n"])] and r[4] == str(len(w["values"]))
                        and abs(float(r[2]) - math.fsum(w["values"]) / len(w["values"]))
                        <= _PRINTED_TOL
                        for r, w in zip(rows, want)))
        # criterion c08's cell: n = 16, t = 15, target mean 500; recorded, not judged
        self.c08_mean = output[-1][0].cell(15, 16).mean
        return failed


class Joint:
    """solve_joint plus agreed_assignments on every instance of the batch."""

    keep = ()

    def __init__(self, job: dict, workdir: Path):
        self.cases = []
        for case in job["instances"]:
            inst = model.AnonymizedInstance(
                n=len(case["totals"]), t=len(case["periods"]),
                periods=tuple(tuple(p) for p in case["periods"]), totals=tuple(case["totals"]))
            e = case["expected"]
            grids = {tuple(tuple(r) for r in g) for g in e["grids"]}
            agreed = {tuple(a) for a in e["agreed"]}
            self.cases.append((inst, e["expansions"], e["raw_count"], grids, agreed))
        self.ops = 2 * len(self.cases)

    def run(self):
        out = []
        for inst, *_ in self.cases:
            sols = joint.solve_joint(inst)
            out.append((sols, joint.agreed_assignments(sols)))
        return out

    def check(self, output, kept) -> int:
        failed = 0
        for (sols, agreed), (_, expansions, raw, grids, cells) in zip(output, self.cases):
            failed += not (sols.exhausted and sols.expansions == expansions
                           and sols.raw_count == raw
                           and {sols.value_grid(s) for s in range(len(sols.solutions))} == grids)
            failed += {(a.meter, a.period, a.value) for a in agreed} != cells
        return failed


class Ingest:
    """kWh CSV -> matrix -> submatrix -> anonymized instance -> text and back; rank readings."""

    keep = ()
    ops = 6

    def __init__(self, job: dict, workdir: Path):
        self.text = job["csv_text"]
        self.subset = job["subset"]
        self.rank_samples = job["rank_samples"]
        e = job["expected"]
        self.rows = tuple(tuple(r) for r in e["rows"])
        self.sub = tuple(tuple(r) for r in e["sub"])
        self.periods = tuple(tuple(p) for p in e["periods"])
        self.totals = tuple(e["totals"])
        self.instance_text = e["instance_text"]
        self.ranking = e["ranking"]

    def run(self):
        s = self.subset
        matrix = ingest.load_readings(self.text)
        sub = ingest.select_submatrix(matrix, s["n"], s["t"], seed=s["seed"])
        inst, _ = model.anonymize(model.build_ground_truth(sub), seed=s["anon_seed"])
        text = ingest.write_instance(inst)
        parsed = ingest.parse_instance(text)
        samples = list(itertools.islice(itertools.chain.from_iterable(matrix.readings),
                                        self.rank_samples))
        return matrix, sub, inst, text, parsed, stats.rank_distributions(samples)

    def check(self, output, kept) -> int:
        matrix, sub, inst, text, parsed, ranked = output
        ranking_ok = len(ranked) == len(self.ranking) and all(
            r.spec.family == w["family"] and abs(r.cvm - w["cvm"]) <= 1e-9 * w["cvm"]
            for r, w in zip(ranked, self.ranking))
        results = [
            matrix.readings == self.rows,
            sub.readings == self.sub,
            inst.periods == self.periods and inst.totals == self.totals,
            text == self.instance_text,
            parsed == inst,
            ranking_ok,
        ]
        return results.count(False)


class JointIngest:
    """The joint batch, then the ingest pipeline: the workload that never calls mcssp."""

    keep = ()

    def __init__(self, job: dict, workdir: Path):
        self.parts = (Joint(job["joint"], workdir), Ingest(job["ingest"], workdir))
        self.ops = sum(part.ops for part in self.parts)

    def run(self):
        return [part.run() for part in self.parts]

    def check(self, output, kept) -> int:
        return sum(part.check(out, kept) for part, out in zip(self.parts, output))


WORKLOADS = {
    "solve-n32-t60": Solve,
    "experiment-grids": Grids,
    "joint-ingest": JointIngest,
}


def peak_rss_mib() -> float:
    """This process's peak resident set, VmHWM.

    Not ru_maxrss: Linux carries that across exec, so it would report the
    parent's footprint when the worker's own is smaller.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, seconds: float, traced: bool) -> dict:
    """Timed passes, alternating with traced ones when `traced`, until `seconds` are spent.

    Untraced passes run under a speed.Sampler: each reports its wall time, less
    the probes that interrupted it, and that time scaled to the reference host
    speed. Traced passes report wall time and spans.
    """
    tracer = tracing.Tracer(keep=workload.keep)
    # Neighbouring load on a shared host slows one CPU at a time for tens of
    # seconds; moving between the allowed CPUs (per pass, or per untraced and
    # traced pair) samples them all instead of whichever one the run started on.
    cpus = sorted(os.sched_getaffinity(0))
    plain: list[float] = []
    walls: list[float] = []
    speeds: list[float] = []
    with_trace: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        use_trace = traced and len(with_trace) < len(plain)
        done = len(plain) + len(with_trace)
        os.sched_setaffinity(0, {cpus[(done // 2 if traced else done) % len(cpus)]})
        tracer.reset()
        sampler = speed.Sampler()
        output = None
        t0 = time.perf_counter()
        try:
            with tracer.installed() if use_trace else sampler:
                t0 = time.perf_counter()
                output = workload.run()
                took = time.perf_counter() - t0
            bad = workload.check(output, tracer.kept if use_trace else None)
        except Exception:  # a failing pass is counted, and the run goes on
            took = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            bad = workload.ops
        output = None  # free this pass's output before the next pass allocates its own
        attempted += workload.ops
        failed += bad
        if use_trace:
            with_trace.append(took)
            layers.append(tracing.layer_metrics(tracer.spans, took))
        else:
            walls.append(took - sampler.inside_s)
            plain.append(sampler.scale(took))
            speeds.append(sampler.speed())
        spent = time.perf_counter() - start
        if (not traced or with_trace) and spent + statistics.median(walls + with_trace) > seconds:
            break
    result = {"attempted": attempted, "failed": failed, "pass_s": plain, "wall_s": walls,
              "speed": speeds, "traced_s": with_trace, "peak_rss_mib": peak_rss_mib()}
    if traced:
        values = {k: float(statistics.median(row[k] for row in layers)) for k in layers[0]}
        values["trace.pass_s"] = statistics.median(with_trace)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(walls)
        result["layers"] = values
        for name, moves in tracing.MOVES.items():
            print(f"  {name} = {values[name]:.6g}  (moves {moves})", file=sys.stderr)
    return result


def main(argv: list[str]) -> int:
    job_file, seconds, trace = argv
    job = json.loads(Path(job_file).read_text())
    workload = WORKLOADS[job["workload"]](job["inputs"], Path(job_file).parent)
    result = measure(workload, float(seconds), trace == "1")
    if isinstance(workload, Grids):
        result["c08_cell_mean_bits"] = workload.c08_mean
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
