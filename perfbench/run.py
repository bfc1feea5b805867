"""anonmeter benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run has three steps:

1. With --trace 0 only, time `setup_s`: fresh interpreters each import
   anonmeter.cli and solve the bundled 3 x 9 demo once, as every CLI
   invocation does. One untimed spawn first fills the bytecode cache. Each
   spawn's wall time is scaled to the reference host speed by speed probes
   run just before and after it on the same CPU (speed.py).
2. Build the workload's inputs from the seed, with the benchmark's own
   generators, and their expected outputs, with reference algorithms that
   share no code with anonmeter (inputs.py). This process never imports
   anonmeter.
3. Run the workload in a fresh, single-threaded worker process
   (worker.py). It repeats passes until S seconds have passed since the run
   began, checks every output, and reports pass times and its own peak RSS.
   `pass_s` is the median pass time scaled to the reference host speed; the
   wall-time median and the host's measured speed are printed beside it.
   With --trace 1 it alternates untraced and traced passes and reports
   per-layer metrics instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. `failed / attempted` is the fail ratio: checked
operations whose output was wrong, that raised, or that tripped a guard.

Every workload runs serially. The parallel grid path (experiment with
workers > 1) is not measured: on a shared 2-core host, six runs of the
n in {8, 16} grid spread from 0.82 to 1.48 s at 2 workers, against 1.64 to
2.25 s serially, a spread wider than any bound here. It needs a workload of
its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 9
RUN_LIMIT_S = 170.0

SETUP_CODE = """
import anonmeter.cli as cli
from anonmeter import demo
mc = cli.marginal_counts(demo.instance(), 0)
cli.entropy_report(mc)
raise SystemExit(0 if mc.total_solutions == 22 else 1)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict[str, str]) -> tuple[float, float, bool]:
    """Median wall time of a fresh interpreter's import and first demo solve.

    Returns it scaled to the reference host speed and as measured. Spawns
    rotate over the allowed CPUs; each child inherits its CPU from this
    process, whose speed probes bracket the spawn there.
    """
    cpus = sorted(os.sched_getaffinity(0))
    scaled, walls = [], []
    ok = True
    try:
        for i in range(SETUP_SPAWNS + 1):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            with speed.Sampler(period_s=None) as sampler:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                      capture_output=True, timeout=60)
                took = time.perf_counter() - t0
            ok = ok and proc.returncode == 0
            if i:
                scaled.append(sampler.scale(took))
                walls.append(took)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(walls), ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.JOBS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be non-negative and seconds positive")
    if not (SRC / "anonmeter" / "cli.py").is_file():
        print(f"perfbench: no anonmeter sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    traced = args.trace == "1"
    env = child_env()
    setup_s, setup_wall_s, setup_ok = (0.0, 0.0, True) if traced else measure_setup(env)
    job = inputs.JOBS[args.workload](args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        job_file = Path(tmp) / "job.json"
        job_file.write_text(json.dumps({"workload": args.workload, "inputs": job}))
        try:
            # set-up timing and input building count against the run's seconds
            budget = max(args.seconds - (time.perf_counter() - started), 0.0)
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_file), str(budget), args.trace],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=RUN_LIMIT_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("perfbench: worker exceeded the run time limit", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.splitlines()[-1])

    passes = res["pass_s"]
    q1, median, q3 = statistics.quantiles(passes, n=4) if len(passes) > 1 else passes * 3
    print(f"{args.workload} seed {args.seed}: pass_s median {median:.4f} s, "
          f"quartiles {q1:.4f}-{q3:.4f} s over {len(passes)} untraced passes; "
          f"fail_ratio {res['failed']}/{res['attempted']}")
    setup_note = "" if traced else f", setup median {setup_wall_s:.4f} s"
    print(f"  wall time: pass median {statistics.median(res['wall_s']):.4f} s{setup_note}; "
          f"host speed median {statistics.median(res['speed']):.3f} of the reference")
    if res.get("c08_cell_mean_bits") is not None:
        print(f"criterion c08 cell (n=16, t=15, target mean 500) mean: "
              f"{res['c08_cell_mean_bits']:.4f} bits")
    if traced:
        values = res["layers"]
    else:
        values = {"setup_s": setup_s, "pass_s": statistics.median(passes),
                  "peak_rss_mib": res["peak_rss_mib"]}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer" if traced else "end_to_end"]}
    correct = job["inputs_ok"] and setup_ok and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
