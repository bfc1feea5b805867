"""Command-line harness: worked demo, attack runs, fitting, and experiment grids.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource guard exceeded.
Indices printed in reports are 1-based; the Python API is 0-based throughout.
"""

from __future__ import annotations

import argparse
import itertools
import math
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import demo, ingest
from .joint import DEFAULT_WORK_LIMIT, agreed_assignments, solve_joint
from .mcssp import ResourceGuard, ResourceLimitError, marginal_counts
from .model import AnonymizedInstance, ReadingMatrix, anonymize, build_ground_truth
from .privacy import entropy_report, revealed_positions
from .stats import rank_distributions, sample_reading_matrix, unbiased_rate

# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

def _rule(ok, requirement: str) -> dict:
    """Field metadata: the range check that every source of a setting goes through."""
    return {"ok": ok, "requirement": requirement}


_COUNTS = _rule(lambda v: v >= 1, "must be at least 1")
_POSITIVE_FINITE = _rule(lambda v: 0 < v < math.inf, "must be positive and finite")
_PROBABILITY = _rule(lambda v: 0 < v <= 1, "must be in (0, 1]")
_GRID_AXIS = _rule(lambda v: v and min(v) >= 1 and len(set(v)) == len(v),
                   "must be comma-separated distinct positive counts")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: which cells to run and how to derive their instances.

    Each field `foo_bar` is both the config key `foo_bar` and the `experiment`
    flag `--foo-bar`, parsed by its default's type and checked by its rule.
    """

    n_list: tuple[int, ...] = field(default=(2, 4, 8, 16, 32), metadata=_GRID_AXIS)
    t_list: tuple[int, ...] = field(default=(15, 30, 60), metadata=_GRID_AXIS)
    target_mean: float = field(default=100.0, metadata=_POSITIVE_FINITE)
    others_mean: float = field(default=100.0, metadata=_POSITIVE_FINITE)
    reps: int = field(default=20, metadata=_COUNTS)
    seed: int = field(default=0, metadata=_rule(lambda v: v >= 0, "must be non-negative"))
    target_meter: int = field(default=1, metadata=_COUNTS)  # 1-based, as printed in reports
    format: str = field(default="markdown", metadata=_rule(
        lambda v: v in ("csv", "markdown"), "must be csv or markdown"))
    workers: int = field(default=1, metadata=_COUNTS)
    # GiB of solver tables live at once per instance, at the solve's peak
    mem_budget: float = field(default=4.0, metadata=_POSITIVE_FINITE)
    # seconds per instance
    time_budget: float = field(default=600.0, metadata=_POSITIVE_FINITE)
    # a readings CSV to sample instances from; synthetic instances when None
    input_file: str | None = field(default=None, metadata=_rule(
        lambda v: v != "", "must name a readings file"))

    def validate(self) -> None:
        for f in fields(self):
            _check(f.name, f.metadata, getattr(self, f.name), ValueError)
        if self.target_meter > min(self.n_list):
            raise ValueError(
                f"target_meter {self.target_meter} outside 1..{min(self.n_list)}"
            )


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _check(name: str, rule: dict, value, error: type[Exception]):
    if not rule["ok"](value):
        raise error(f"{name} {rule['requirement']}")
    return value


def _field_value(name: str, kind: type, rule: dict, text: str):
    """Parse a config value or flag as kind (tuple: comma-separated ints), then check its rule.

    Raises ArgumentTypeError, which argparse reports as a usage error.
    """
    try:
        if kind is tuple:
            value = tuple(int(v) for v in text.split(",") if v.strip())
        elif kind in (int, float):
            value = kind(text)
        else:
            value = text
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {name} {ingest.quoted(text)}") from None
    return _check(name, rule, value, argparse.ArgumentTypeError)


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file; later lines override earlier ones."""
    config = base or ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(
                f"config line {lineno}: expected key=value, got {ingest.quoted(raw)}")
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {ingest.quoted(key)}")
        f = _FIELDS[key]
        try:
            value = _field_value(key, type(f.default), f.metadata, value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
        config = replace(config, **{key: value})
    return config


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """Per-repetition average entropies of one (t, n) cell; empty when guarded out."""

    n: int
    t: int
    values: tuple[float, ...]

    @property
    def infeasible(self) -> bool:
        return not self.values

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


def _instance(config: ExperimentConfig, source: ReadingMatrix | None, n: int, t: int,
              rep: int) -> AnonymizedInstance:
    """The anonymized instance of one repetition, from (seed, n, t, rep) alone: sampled
    from the readings of `source`, or synthetic when it is None."""
    mat_seed, anon_seed = _rep_seeds(config.seed, n, t, rep)
    if source is None:
        matrix = sample_reading_matrix(n, t, config.target_mean, config.others_mean,
                                       seed=mat_seed)
    else:
        matrix = ingest.select_submatrix(source, n, t, seed=mat_seed)
    inst, _ = anonymize(build_ground_truth(matrix), seed=anon_seed)
    return inst


def _solve(config: ExperimentConfig, inst: AnonymizedInstance) -> float | None:
    """Attack one repetition's instance and return its average entropy, or None when
    the solve trips the memory or wall-clock guard."""
    guard = ResourceGuard.from_budgets(config.mem_budget, config.time_budget)
    try:
        mc = marginal_counts(inst, config.target_meter - 1, guard=guard)
    except ResourceLimitError:
        return None
    return entropy_report(mc).average


def run_experiment(config: ExperimentConfig) -> ExperimentTable:
    """Run every (t, n) cell of the grid, reps times each, and collect cell stats.

    Instances are sampled from the readings in `input_file` when it is set,
    and are synthetic otherwise. This process derives each repetition's
    instance from (seed, n, t, rep) alone, so cell values never depend on
    the rest of the grid or on the worker count; the solves run here, or in
    a pool of min(workers, reps) processes when that is above 1. A cell's
    repetitions run in order, in rounds of that many, whose instances are
    built just before the round; the first one whose solve trips the memory
    or wall-clock guard stops the cell, which is reported infeasible (no
    values), and the run continues.
    """
    config.validate()
    source = None
    if config.input_file is not None:
        source = ingest.load_readings(_read_text(config.input_file))
        if max(config.n_list) > source.n or max(config.t_list) > source.t:
            raise ValueError(
                f"input matrix is {source.n} x {source.t}, smaller than "
                f"the largest requested cell"
            )
    # a pool may start every worker at its first task: start no more than a round uses
    workers = min(config.workers, config.reps)
    if workers > 1:  # imported here, so that serial runs skip its cost
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        cells = tuple(_run_cell(run, workers, config, source, n, t)
                      for t in config.t_list for n in config.n_list)
    return ExperimentTable(
        n_values=tuple(config.n_list), t_values=tuple(config.t_list), cells=cells
    )


def _run_cell(run, workers: int, config: ExperimentConfig, source: ReadingMatrix | None,
              n: int, t: int) -> CellResult:
    values = []
    for start in range(0, config.reps, workers):
        reps = range(start, min(start + workers, config.reps))
        instances = [_instance(config, source, n, t, rep) for rep in reps]
        for value in run(partial(_solve, config), instances):
            if value is None:
                return CellResult(n=n, t=t, values=())
            values.append(value)
    return CellResult(n=n, t=t, values=tuple(values))


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


def _entropy_text(report, mc, reveal: float | None) -> str:
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
        hits = revealed_positions(mc, reveal)
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
    for s, grid in enumerate(sols.grids):
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
    # all 3**9 selections, in lexicographic (period, position) order
    for vals in itertools.product(*inst.periods):
        if sum(vals) == mc.target_total:
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


def _cmd_example(args) -> int:
    print(reproduce_example(), end="")
    return 0


def _cmd_solve(args) -> int:
    inst = ingest.parse_instance(_read_text(args.instance))
    meter0 = _meter_index(args.meter, inst.n)
    guard = ResourceGuard.from_budgets(args.mem_budget, args.time_budget)
    mc = marginal_counts(inst, meter0, guard=guard)
    print(_entropy_text(entropy_report(mc), mc, args.reveal), end="")
    return 0


def _cmd_joint(args) -> int:
    inst = ingest.parse_instance(_read_text(args.instance))
    sols = solve_joint(inst, work_limit=args.work_limit)
    print(f"joint solutions (value-distinct): {len(sols.solutions)}"
          f" ({sols.raw_count} as permutations)")
    for s, grid in enumerate(sols.grids):
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
    matrix = sample_reading_matrix(args.n, args.t, args.target_mean, args.others_mean,
                                   seed=args.seed)
    text = ingest.write_readings_csv(matrix)
    _write_out(args.out, text)
    return 0


def _cmd_fit(args) -> int:
    values = []
    for lineno, raw in enumerate(_read_text(args.samples).splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: invalid sample {ingest.quoted(text)}")
        values.append(value)
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
    matrix = ingest.load_readings(_read_text(args.readings))
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
        config = parse_config(_read_text(args.config), base=config)
    config = replace(config, **{key: value for key, value in vars(args).items()
                                if key in _FIELDS and value is not None})
    table = run_experiment(config)
    print(emit_table(table, config.format), end="")
    if args.per_rep:
        Path(args.per_rep).write_text(emit_repetitions(table))
    return 3 if any(cell.infeasible for cell in table.cells) else 0


def _meter_index(meter: int, n: int) -> int:
    if not 1 <= meter <= n:
        raise ValueError(f"meter {meter} outside 1..{n}")
    return meter - 1


def _read_text(path: str) -> str:
    """An input file's text, decoded as UTF-8 whatever the locale.

    Bytes that are not UTF-8 raise a ValueError naming their line, counted
    as str.splitlines() counts lines.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"line {lineno}: not UTF-8 text") from None


def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        print(text, end="")


def _flag(p, flag: str, kind: type, rule: dict, name: str | None = None, **kwargs) -> None:
    """Add a flag parsed as kind and checked by rule; its errors call it `name` (by default
    the flag's own name)."""
    name = name or flag[2:].replace("-", "_")
    p.add_argument(flag, type=partial(_field_value, name, kind, rule), **kwargs)


def _field_flag(p, flag: str, name: str | None = None, **kwargs) -> None:
    """Add a flag parsed and checked as config field `name` (by default the flag's own
    name), with that field's default unless kwargs give one."""
    f = _FIELDS[name or flag[2:].replace("-", "_")]
    kwargs.setdefault("default", f.default)
    _flag(p, flag, type(f.default), f.metadata, f.name, **kwargs)


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
    _flag(p, "--meter", int, _COUNTS, default=1, help="target meter, 1-based (default 1)")
    _flag(p, "--reveal", float, _PROBABILITY, default=None,
          help="also list positions with probability >= this threshold")
    _field_flag(p, "--mem-budget", help="solver budget in GiB for the live peak of a solve's "
                                        "tables (default %(default)s)")
    _field_flag(p, "--time-budget", help="solver wall-clock budget in seconds (default %(default)s)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("joint", help="exhaustive joint attack on an instance file")
    p.add_argument("instance", help="instance text file")
    _flag(p, "--work-limit", int, _COUNTS, default=DEFAULT_WORK_LIMIT,
          help="node-expansion cap (default %(default)s)")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("synth", help="generate a synthetic readings CSV")
    _flag(p, "--n", int, _COUNTS, required=True, help="meter count")
    _flag(p, "--t", int, _COUNTS, required=True, help="period count")
    _field_flag(p, "--target-mean", help="mean Wh of meter 1 (default %(default)s)")
    _field_flag(p, "--others-mean", help="mean Wh of the other meters (default %(default)s)")
    _field_flag(p, "--seed")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="rank candidate distributions for a sample file")
    p.add_argument("samples", help="text file, one value per line")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ingest", help="readings CSV -> anonymized instance file")
    p.add_argument("readings", help="readings CSV (Wh or kWh header)")
    _field_flag(p, "--seed", help="anonymization seed")
    _flag(p, "--n", int, _COUNTS, default=None, help="meter subset size")
    _flag(p, "--t", int, _COUNTS, default=None, help="consecutive period window size")
    _field_flag(p, "--subset-seed", "seed", help="subset selection seed")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("experiment", help="run an average-entropy grid")
    p.add_argument("--config", help="key=value config file; flags override its values")
    for name, f in _FIELDS.items():  # no defaults: a flag left out keeps the config's value
        _field_flag(p, "--" + name.replace("_", "-"), default=None,
                    help=f.metadata["requirement"])
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
    except (ValueError, OSError) as exc:
        print(f"anonmeter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
