"""Timing wrappers around anonmeter's public functions, and per-layer metrics from their spans.

A wrapper replaces its function under every anonmeter module name that holds
it, so both lookups are caught: module-internal ones (`forward_counts` inside
`marginal_counts`) and imported names (`cli.marginal_counts` in the
experiment engine). Spans stay in memory as (name, start, end, parent);
counts come from each call's arguments and return value. No tracemalloc:
it slows the dictionary-heavy DP by more than an order of magnitude.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import anonmeter
from anonmeter import cli, ingest, joint, mcssp, model, privacy, stats

_MODULES = (anonmeter, cli, ingest, joint, mcssp, model, privacy, stats)

# the program's per-entry cost behind ResourceGuard.from_budgets
_ENTRY_BYTES = 96


def _table_entries(args, kwargs, table) -> dict:
    return {"entries": sum(len(stage) for stage in table.stages)}


def _solve_counts(args, kwargs, mc) -> dict:
    guard = kwargs.get("guard", args[2] if len(args) > 2 else None)
    entries = guard.entries if guard is not None else 0
    ratio = entries / guard.max_entries if guard is not None and guard.max_entries else 0.0
    return {"n_bits": mc.total_solutions.bit_length(), "guard_entries": entries,
            "guard_ratio": ratio}


def _probabilities(args, kwargs, dists) -> dict:
    return {"probabilities": sum(len(d.probabilities) for d in dists)}


def _samples(args, kwargs, ranked) -> dict:
    return {"samples": ranked[0].sample_size}


def _lines(args, kwargs, matrix) -> dict:
    return {"lines": args[0].count("\n")}


def _joint_counts(args, kwargs, sols) -> dict:
    return {"expansions": sols.expansions, "raw": sols.raw_count}


# span name -> (home module, function name, counter over args and result)
WRAPPED = {
    "mcssp.forward": (mcssp, "forward_counts", _table_entries),
    "mcssp.backward": (mcssp, "backward_counts", _table_entries),
    "mcssp.combine": (mcssp, "marginal_counts", _solve_counts),
    "privacy.entropy": (privacy, "entropy_report", None),
    "privacy.probabilities": (privacy, "marginal_probabilities", _probabilities),
    "stats.sample": (stats, "sample_reading_matrix", None),
    "stats.rank": (stats, "rank_distributions", _samples),
    "model.anonymize": (model, "anonymize", None),
    "ingest.load_readings": (ingest, "load_readings", _lines),
    "ingest.select_submatrix": (ingest, "select_submatrix", None),
    "ingest.write_instance": (ingest, "write_instance", None),
    "ingest.parse_instance": (ingest, "parse_instance", None),
    "joint.solve": (joint, "solve_joint", _joint_counts),
    "joint.agreed": (joint, "agreed_assignments", None),
    "cli.engine": (cli, "run_experiment", None),
    "cli.main": (cli, "main", None),
}

_DP = "pass_s on solve-n32-t60 and experiment-grids"
_RSS = "peak_rss_mib on solve-n32-t60"
_GRIDS = "pass_s on experiment-grids"
_JOINT_INGEST = "pass_s on joint-ingest"
# per-layer metric -> the end-to-end metric and workload it should move
# (units and directions are in BENCHMARK.json)
MOVES = {
    "mcssp.forward_s": _DP,
    "mcssp.backward_s": _DP,
    "mcssp.combine_s": _DP,
    "mcssp.calls": _DP,
    "mcssp.table_entries": _RSS,
    "mcssp.guard_estimate_mib": _RSS,
    "mcssp.n_bits_max": _DP,
    "mcssp.guard_entries_ratio": _RSS,
    "mcssp.share": _DP,
    "privacy.entropy_s": _GRIDS,
    "privacy.probabilities": _GRIDS,
    "stats.sample_s": _GRIDS,
    "model.anonymize_s": _GRIDS,
    "stats.rank_s": _JOINT_INGEST,
    "stats.samples_ranked": _JOINT_INGEST,
    "ingest.load_readings_s": _JOINT_INGEST,
    "ingest.lines": _JOINT_INGEST,
    "ingest.select_submatrix_s": _JOINT_INGEST,
    "ingest.write_instance_s": _JOINT_INGEST,
    "ingest.parse_instance_s": _JOINT_INGEST,
    "joint.solve_s": _JOINT_INGEST,
    "joint.agreed_s": _JOINT_INGEST,
    "joint.expansions": _JOINT_INGEST,
    "joint.raw_solutions": _JOINT_INGEST,
    "joint.yield": _JOINT_INGEST,
    "joint.share": _JOINT_INGEST,
    "cli.engine_self_s": _GRIDS,
    "cli.main_self_s": "pass_s on solve-n32-t60",
    "trace.pass_s": "pass_s, as traced",
    "trace.overhead_s": "pass_s, traced minus untraced",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into the tracer's spans, -1 at the top
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the wrapped functions while `installed()` is active."""

    def __init__(self, keep: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self.kept: dict[str, object] = {}  # last return value of each span name in `keep`
        self._keep = keep
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.kept.clear()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if name in self._keep:
                self.kept[name] = result
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (home, attr, counter) in WRAPPED.items():
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, counter)
                for module in _MODULES:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer times and counts of one traced pass of `pass_s` seconds."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    sums = defaultdict(float)
    peaks = defaultdict(float)
    children = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    privacy_s = 0.0
    for idx, s in enumerate(spans):
        took = s.end - s.start
        total[s.name] += took
        own[s.name] += took - children[idx]
        calls[s.name] += 1
        for key, value in s.counts.items():
            sums[key] += value
            peaks[key] = max(peaks[key], value)
        if s.name.startswith("privacy.") and not (
            s.parent >= 0 and spans[s.parent].name.startswith("privacy.")
        ):
            privacy_s += took
    mcssp_s = total["mcssp.forward"] + total["mcssp.backward"] + own["mcssp.combine"]
    joint_s = total["joint.solve"] + total["joint.agreed"]
    return {
        "mcssp.forward_s": total["mcssp.forward"],
        "mcssp.backward_s": total["mcssp.backward"],
        "mcssp.combine_s": own["mcssp.combine"],
        "mcssp.calls": calls["mcssp.combine"],
        "mcssp.table_entries": sums["entries"],
        "mcssp.guard_estimate_mib": peaks["guard_entries"] * _ENTRY_BYTES / 2**20,
        "mcssp.n_bits_max": peaks["n_bits"],
        "mcssp.guard_entries_ratio": peaks["guard_ratio"],
        "mcssp.share": mcssp_s / pass_s,
        "privacy.entropy_s": privacy_s,
        "privacy.probabilities": sums["probabilities"],
        "stats.sample_s": total["stats.sample"],
        "model.anonymize_s": total["model.anonymize"],
        "stats.rank_s": total["stats.rank"],
        "stats.samples_ranked": sums["samples"],
        "ingest.load_readings_s": total["ingest.load_readings"],
        "ingest.lines": sums["lines"],
        "ingest.select_submatrix_s": total["ingest.select_submatrix"],
        "ingest.write_instance_s": total["ingest.write_instance"],
        "ingest.parse_instance_s": total["ingest.parse_instance"],
        "joint.solve_s": total["joint.solve"],
        "joint.agreed_s": total["joint.agreed"],
        "joint.expansions": sums["expansions"],
        "joint.raw_solutions": sums["raw"],
        "joint.yield": sums["raw"] / sums["expansions"] if sums["expansions"] else 0.0,
        "joint.share": joint_s / pass_s,
        "cli.engine_self_s": own["cli.engine"],
        "cli.main_self_s": own["cli.main"],
    }
