"""Command-line harness: worked demo, attack runs, fitting, and experiment grids.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource guard exceeded.
Indices printed in reports are 1-based; the Python API is 0-based throughout.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import demo, ingest
from .joint import DEFAULT_WORK_LIMIT, agreed_assignments, solve_joint
from .mcssp import (
    NoSolutionsError,
    ResourceGuard,
    ResourceLimitError,
    enumerate_solutions,
    marginal_counts,
)
from .model import ReadingMatrix, anonymize, build_ground_truth
from .privacy import entropy_report, marginal_probabilities, revealed_positions
from .stats import DistributionSpec, rank_distributions, sample_reading_matrix, unbiased_rate

DEFAULT_MEM_BUDGET_GIB = 4.0
DEFAULT_TIME_BUDGET_S = 600.0


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: which cells to run and how to derive their instances."""

    mode: str = "synthetic"  # "synthetic" | "real-file"
    n_list: tuple[int, ...] = (2, 4, 8, 16, 32)
    t_list: tuple[int, ...] = (15, 30, 60)
    target_mean: float = 100.0
    others_mean: float = 100.0
    reps: int = 20
    seed: int = 0
    target_meter: int = 1  # 1-based, as printed in reports
    format: str = "markdown"  # "csv" | "markdown"
    workers: int = 1
    mem_budget: float = DEFAULT_MEM_BUDGET_GIB  # GiB of solver tables allocated per instance
    time_budget: float = DEFAULT_TIME_BUDGET_S  # seconds per instance
    input_file: str | None = None

    def validate(self) -> None:
        if self.mode not in ("synthetic", "real-file"):
            raise ValueError(f"mode must be synthetic or real-file, got {self.mode!r}")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must hold positive meter counts")
        if not self.t_list or any(t < 1 for t in self.t_list):
            raise ValueError("t_list must hold positive period counts")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (self.target_mean > 0 and self.others_mean > 0):
            raise ValueError("means must be positive")
        if self.target_meter < 1 or self.target_meter > min(self.n_list):
            raise ValueError(
                f"target_meter {self.target_meter} outside 1..{min(self.n_list)}"
            )
        if self.format not in ("csv", "markdown"):
            raise ValueError(f"format must be csv or markdown, got {self.format!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not (self.mem_budget > 0 and self.time_budget > 0):
            raise ValueError("budgets must be positive")
        if self.mode == "real-file" and not self.input_file:
            raise ValueError("real-file mode needs input_file")


_LIST_KEYS = {"n_list", "t_list"}
_INT_KEYS = {"reps", "seed", "target_meter", "workers"}
_FLOAT_KEYS = {"target_mean", "others_mean", "mem_budget", "time_budget"}
_STR_KEYS = {"mode", "format", "input_file"}
_ALL_KEYS = _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file; later lines override earlier ones."""
    config = base or ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key not in _ALL_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            config = replace(config, **{key: _convert_key(key, value)})
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return config


def _convert_key(key: str, value: str):
    if key in _LIST_KEYS:
        items = [v.strip() for v in value.split(",") if v.strip()]
        return tuple(int(v) for v in items)
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """Per-repetition average entropies of one (t, n) cell; empty when guarded out."""

    n: int
    t: int
    values: tuple[float, ...]
    infeasible: bool = False

    @property
    def reps(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return statistics.stdev(self.values)


@dataclass(frozen=True)
class ExperimentTable:
    """Average-entropy grid indexed by (t, n), row-major in CSV order."""

    n_values: tuple[int, ...]
    t_values: tuple[int, ...]
    cells: tuple[CellResult, ...]

    def __post_init__(self):
        for cell in self.cells:
            ceiling = math.log2(cell.n) + 1e-9
            for v in cell.values:
                if not -1e-9 <= v <= ceiling:
                    raise ValueError(f"cell ({cell.t}, {cell.n}) value {v} outside [0, log2 n]")

    def cell(self, t: int, n: int) -> CellResult:
        for c in self.cells:
            if c.t == t and c.n == n:
                return c
        raise KeyError(f"no cell for t={t}, n={n}")


def _rep_seeds(master: int, n: int, t: int, rep: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([master, n, t, rep])
    a, b = ss.generate_state(2, np.uint64)
    return int(a), int(b)


def _single_rep(args: tuple) -> float:
    """One repetition of one cell: derive instance, attack, return average entropy."""
    (mode, source, n, t, rep, target_mean, others_mean, master_seed, meter0,
     mem_budget, time_budget) = args
    mat_seed, anon_seed = _rep_seeds(master_seed, n, t, rep)
    if mode == "synthetic":
        matrix = sample_reading_matrix(
            n,
            t,
            DistributionSpec(family="exponential", mean=target_mean),
            DistributionSpec(family="exponential", mean=others_mean),
            seed=mat_seed,
        )
    else:
        matrix = ingest.select_submatrix(source, n, t, seed=mat_seed)
    inst, _ = anonymize(build_ground_truth(matrix), seed=anon_seed)
    guard = ResourceGuard.from_budgets(mem_budget, time_budget)
    mc = marginal_counts(inst, meter0, guard=guard)
    return entropy_report(mc).average


def run_experiment(
    config: ExperimentConfig, source_matrix: ReadingMatrix | None = None
) -> ExperimentTable:
    """Run every (t, n) cell of the grid, reps times each, and collect cell stats.

    Instance seeds derive from (seed, n, t, rep) alone, so cell values never
    depend on the rest of the grid or on the worker count. A cell whose solve
    trips the memory or wall-clock guard is reported infeasible (no values)
    and the run continues.
    """
    config.validate()
    if config.mode == "real-file" and source_matrix is None:
        source_matrix = ingest.load_readings(Path(config.input_file).read_text())
    if config.mode == "real-file":
        if max(config.n_list) > source_matrix.n or max(config.t_list) > source_matrix.t:
            raise ValueError(
                f"input matrix is {source_matrix.n} x {source_matrix.t}, smaller than "
                f"the largest requested cell"
            )
    meter0 = config.target_meter - 1
    jobs = {}
    for t in config.t_list:
        for n in config.n_list:
            for rep in range(config.reps):
                jobs[(t, n, rep)] = (
                    config.mode, source_matrix, n, t, rep,
                    config.target_mean, config.others_mean, config.seed, meter0,
                    config.mem_budget, config.time_budget,
                )

    results: dict[tuple[int, int, int], float] = {}
    failed_cells: set[tuple[int, int]] = set()
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for key, outcome in zip(jobs, pool.map(_guarded_rep, jobs.values())):
                if outcome is None:
                    failed_cells.add((key[0], key[1]))
                else:
                    results[key] = outcome
    else:
        for key, args in jobs.items():
            if (key[0], key[1]) in failed_cells:
                continue
            try:
                results[key] = _single_rep(args)
            except ResourceLimitError:
                failed_cells.add((key[0], key[1]))

    cells = []
    for t in config.t_list:
        for n in config.n_list:
            if (t, n) in failed_cells:
                cells.append(CellResult(n=n, t=t, values=(), infeasible=True))
            else:
                values = tuple(results[(t, n, rep)] for rep in range(config.reps))
                cells.append(CellResult(n=n, t=t, values=values))
    return ExperimentTable(
        n_values=tuple(config.n_list), t_values=tuple(config.t_list), cells=tuple(cells)
    )


def _guarded_rep(args: tuple) -> float | None:
    try:
        return _single_rep(args)
    except ResourceLimitError:
        return None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def emit_table(table: ExperimentTable, fmt: str) -> str:
    """Render a grid as CSV (one row per cell) or as a markdown table."""
    if fmt == "csv":
        lines = ["t,n,avg_entropy,max_entropy,reps,stddev"]
        for cell in table.cells:
            max_entropy = math.log2(cell.n)
            if cell.infeasible:
                lines.append(f"{cell.t},{cell.n},,{max_entropy:.4f},0,")
            else:
                lines.append(
                    f"{cell.t},{cell.n},{cell.mean:.4f},{max_entropy:.4f},"
                    f"{cell.reps},{cell.stddev:.4f}"
                )
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"format must be csv or markdown, got {fmt!r}")
    header = [""] + [f"n = {n}" for n in table.n_values]
    rows = [header, ["Max. entropy"] + [f"{math.log2(n):.2f}" for n in table.n_values]]
    for t in table.t_values:
        row = [f"t = {t}"]
        for n in table.n_values:
            cell = table.cell(t, n)
            row.append("guard" if cell.infeasible else f"{cell.mean:.2f}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    out = []
    for idx, row in enumerate(rows):
        out.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
        if idx == 0:
            out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(out) + "\n"


def emit_repetitions(table: ExperimentTable) -> str:
    """Per-repetition averages as CSV, full precision (the level-1 values)."""
    lines = ["t,n,rep,avg_entropy"]
    for cell in table.cells:
        for rep, value in enumerate(cell.values):
            lines.append(f"{cell.t},{cell.n},{rep},{value!r}")
    return "\n".join(lines) + "\n"


def _entropy_text(report, dists, reveal: float | None) -> str:
    lines = [
        f"target meter: {report.target_meter + 1}",
        f"consistent selections: N = {report.total_solutions}",
        "per-period entropy (bits):",
    ]
    for j, h in enumerate(report.per_period):
        lines.append(f"  period {j + 1}: {h:.4f}")
    lines.append(f"average entropy: {report.average:.4f} bits")
    lines.append(f"max entropy: {report.max_entropy:.4f} bits")
    if reveal is not None:
        hits = revealed_positions(dists, reveal)
        lines.append(f"positions at probability >= {reveal}:")
        if not hits:
            lines.append("  none")
        for period, pos, p in hits:
            lines.append(f"  period {period + 1}, position {pos + 1}: p = {p:.4f}")
    return "\n".join(lines) + "\n"


def reproduce_example() -> str:
    """Full report over the bundled instance: joint, agreement, relaxed, entropy."""
    inst = demo.instance()
    lines = [
        f"bundled example: {inst.n} meters, {inst.t} periods",
        "totals: " + ", ".join(str(v) for v in inst.totals),
        "",
    ]
    sols = solve_joint(inst)
    lines.append(f"joint solutions (value-distinct): {len(sols.solutions)}")
    for s in range(len(sols.solutions)):
        grid = sols.value_grid(s)
        lines.append(f"  solution {s + 1}:")
        for i, row in enumerate(grid):
            lines.append(f"    meter {i + 1}: " + " + ".join(str(v) for v in row)
                         + f" = {inst.totals[i]}")
    lines.append("")
    lines.append("assignments identical in every joint solution:")
    agreed = agreed_assignments(sols)
    for i in range(inst.n):
        parts = [f"period {a.period + 1} = {a.value}" for a in agreed if a.meter == i]
        lines.append(f"  meter {i + 1}: " + (", ".join(parts) if parts else "none"))
    lines.append("")
    mc = marginal_counts(inst, 0)
    lines.append(f"relaxed attack on meter 1: N = {mc.total_solutions}")
    enum = enumerate_solutions(inst, 0, limit=1000)
    for sel in enum.selections:
        vals = [inst.periods[j][k] for j, k in enumerate(sel)]
        lines.append("  " + " + ".join(str(v) for v in vals) + f" = {mc.target_total}")
    lines.append("")
    report = entropy_report(mc)
    lines.append("per-period entropy for meter 1 (bits):")
    for j, h in enumerate(report.per_period):
        lines.append(f"  period {j + 1}: {h:.4f}")
    lines.append(f"average entropy: {report.average:.4f} bits"
                 f" (max {report.max_entropy:.4f})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse defaults to 2, which we reserve for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _cmd_example(args) -> int:
    print(reproduce_example(), end="")
    return 0


def _cmd_solve(args) -> int:
    inst = ingest.parse_instance(Path(args.instance).read_text())
    meter0 = _meter_index(args.meter, inst.n)
    guard = ResourceGuard.from_budgets(args.mem_budget, args.time_budget)
    mc = marginal_counts(inst, meter0, guard=guard)
    report = entropy_report(mc)
    dists = marginal_probabilities(mc)
    print(_entropy_text(report, dists, args.reveal), end="")
    return 0


def _cmd_joint(args) -> int:
    inst = ingest.parse_instance(Path(args.instance).read_text())
    sols = solve_joint(inst, work_limit=args.work_limit)
    print(f"joint solutions (value-distinct): {len(sols.solutions)}"
          f" ({sols.raw_count} as permutations)")
    for s in range(len(sols.solutions)):
        grid = sols.value_grid(s)
        print(f"  solution {s + 1}:")
        for i, row in enumerate(grid):
            print(f"    meter {i + 1}: " + " ".join(str(v) for v in row))
    if not sols.exhausted:
        print(f"search stopped at the work limit ({sols.expansions} expansions); "
              "results are partial", file=sys.stderr)
        return 3
    if sols.solutions:
        print("assignments identical in every solution:")
        for a in agreed_assignments(sols):
            print(f"  meter {a.meter + 1}, period {a.period + 1}: {a.value} Wh")
    else:
        print("no joint solution: the instance is inconsistent")
    return 0


def _cmd_synth(args) -> int:
    target = DistributionSpec(family="exponential", mean=args.target_mean)
    others = DistributionSpec(family="exponential", mean=args.others_mean)
    matrix = sample_reading_matrix(args.n, args.t, target, others, seed=args.seed)
    text = ingest.write_readings_csv(matrix)
    _write_out(args.out, text)
    return 0


def _cmd_fit(args) -> int:
    raw = [ln.strip() for ln in Path(args.samples).read_text().splitlines()]
    values = [float(v) for v in raw if v]
    ranked = rank_distributions(values)
    print(f"samples: {len(values)}")
    for rank, fit in enumerate(ranked, start=1):
        spec = fit.spec
        if spec.family == "exponential":
            params = f"mean = {spec.mean:.4f} (rate = {unbiased_rate(values):.6g})"
        else:
            params = f"mean = {spec.mean:.4f}, sd = {spec.sd:.4f}"
        print(f"  {rank}. {spec.family}: {params}, W2 = {fit.cvm:.6g}")
    return 0


def _cmd_ingest(args) -> int:
    matrix = ingest.load_readings(Path(args.readings).read_text())
    if args.n is not None or args.t is not None:
        n_sub = args.n if args.n is not None else matrix.n
        t_sub = args.t if args.t is not None else matrix.t
        matrix = ingest.select_submatrix(matrix, n_sub, t_sub, seed=args.subset_seed)
    inst, _ = anonymize(build_ground_truth(matrix), seed=args.seed)
    _write_out(args.out, ingest.write_instance(inst))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig()
    if args.config:
        config = parse_config(Path(args.config).read_text(), base=config)
    overrides = {}
    for key in sorted(_ALL_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = _convert_key(key, value) if isinstance(value, str) else value
    if overrides:
        config = replace(config, **overrides)
    table = run_experiment(config)
    print(emit_table(table, config.format), end="")
    if args.per_rep:
        Path(args.per_rep).write_text(emit_repetitions(table))
    return 3 if any(cell.infeasible for cell in table.cells) else 0


def _meter_index(meter: int, n: int) -> int:
    if not 1 <= meter <= n:
        raise ValueError(f"meter {meter} outside 1..{n}")
    return meter - 1


def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anonmeter",
        description="Measure how much pseudonymized metering data leaks once "
                    "per-meter billing totals are published.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="run the bundled worked example")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("solve", help="relaxed attack on an instance file")
    p.add_argument("instance", help="instance text file")
    p.add_argument("--meter", type=int, default=1, help="target meter, 1-based (default 1)")
    p.add_argument("--reveal", type=_probability, default=None,
                   help="also list positions with probability >= this threshold")
    p.add_argument("--mem-budget", type=_positive_float, default=DEFAULT_MEM_BUDGET_GIB,
                   help="solver table budget in GiB, counting every table a solve "
                        "allocates rather than the peak (default %(default)s)")
    p.add_argument("--time-budget", type=_positive_float, default=DEFAULT_TIME_BUDGET_S,
                   help="solver wall-clock budget in seconds (default %(default)s)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("joint", help="exhaustive joint attack on an instance file")
    p.add_argument("instance", help="instance text file")
    p.add_argument("--work-limit", type=_positive_int, default=DEFAULT_WORK_LIMIT,
                   help="node-expansion cap (default %(default)s)")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("synth", help="generate a synthetic readings CSV")
    p.add_argument("--n", type=int, required=True, help="meter count")
    p.add_argument("--t", type=int, required=True, help="period count")
    p.add_argument("--target-mean", type=float, default=100.0,
                   help="mean Wh of meter 1 (default %(default)s)")
    p.add_argument("--others-mean", type=float, default=100.0,
                   help="mean Wh of the other meters (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="rank candidate distributions for a sample file")
    p.add_argument("samples", help="text file, one value per line")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ingest", help="readings CSV -> anonymized instance file")
    p.add_argument("readings", help="readings CSV (Wh or kWh header)")
    p.add_argument("--seed", type=int, default=0, help="anonymization seed")
    p.add_argument("--n", type=int, default=None, help="meter subset size")
    p.add_argument("--t", type=int, default=None, help="consecutive period window size")
    p.add_argument("--subset-seed", type=int, default=0, help="subset selection seed")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("experiment", help="run an average-entropy grid")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--mode", choices=["synthetic", "real-file"])
    p.add_argument("--n-list", dest="n_list", help="comma-separated meter counts")
    p.add_argument("--t-list", dest="t_list", help="comma-separated period counts")
    p.add_argument("--target-mean", dest="target_mean", type=float)
    p.add_argument("--others-mean", dest="others_mean", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--target-meter", dest="target_meter", type=int)
    p.add_argument("--format", choices=["csv", "markdown"])
    p.add_argument("--workers", type=int)
    p.add_argument("--mem-budget", dest="mem_budget", type=float)
    p.add_argument("--time-budget", dest="time_budget", type=float)
    p.add_argument("--input-file", dest="input_file")
    p.add_argument("--per-rep", dest="per_rep",
                   help="also write per-repetition averages (CSV) to this file")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"anonmeter: guard exceeded: {exc}", file=sys.stderr)
        return 3
    except NoSolutionsError as exc:
        print(f"anonmeter: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"anonmeter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
