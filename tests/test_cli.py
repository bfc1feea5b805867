"""Subcommands, config handling, experiment determinism and exit codes."""

import argparse
import concurrent.futures
import math
from dataclasses import fields, replace

import pytest

import goldens
from anonmeter import cli, demo
from anonmeter.cli import (
    CellResult,
    ExperimentConfig,
    ExperimentTable,
    build_parser,
    emit_repetitions,
    emit_table,
    main,
    parse_config,
    reproduce_example,
    run_experiment,
)
from anonmeter.ingest import parse_instance, write_instance, write_readings_csv
from anonmeter.model import AnonymizedInstance, ReadingMatrix


# ---------------------------------------------------------------------------
# reproduce_example
# ---------------------------------------------------------------------------

def test_example_report_contents():
    report = reproduce_example()
    assert "N = 22" in report
    assert "joint solutions (value-distinct): 3" in report
    assert "period 1: 0.2668" in report
    assert "period 4: 1.5820" in report
    assert "meter 1: period 1 = 362, period 5 = 140, period 6 = 36, period 8 = 83" in report


def test_example_report_golden():
    report = reproduce_example()
    assert report == goldens.EXAMPLE_REPORT
    listed = report.partition("relaxed attack on meter 1: N = 22\n")[2].partition("\n\n")[0]
    rows = [tuple(int(v) for v in line.partition(" = ")[0].split(" + "))
            for line in listed.splitlines()]
    assert len(rows) == 22
    assert set(rows) == goldens.RELAXED_VALUE_ROWS


def test_example_command_exit_code(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "N = 22" in out


# ---------------------------------------------------------------------------
# solve / joint subcommands
# ---------------------------------------------------------------------------

@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "demo.inst"
    path.write_text(write_instance(demo.instance()))
    return str(path)


def test_solve_command(instance_file, capsys):
    assert main(["solve", instance_file, "--meter", "1", "--reveal", "0.95"]) == 0
    out = capsys.readouterr().out
    assert "N = 22" in out
    assert "period 1: 0.2668" in out
    assert "period 1, position 3" in out  # the 21/22 position, 1-based


def test_solve_command_bad_meter_is_data_error(instance_file, capsys):
    assert main(["solve", instance_file, "--meter", "9"]) == 2


def test_solve_missing_file_is_data_error(capsys):
    assert main(["solve", "/nonexistent/file.inst"]) == 2


def test_solve_inconsistent_instance_is_data_error(tmp_path, capsys):
    # conservation holds but meter 1's total is unreachable
    text = "meters 2\nperiods 2\ntotals 13 1\nperiod 1 3 4\nperiod 2 3 4\n"
    path = tmp_path / "bad.inst"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2


def test_solve_no_solution_names_1_based_meter(tmp_path, capsys):
    path = tmp_path / "zero.inst"
    path.write_text("meters 2\nperiods 1\ntotals 0 7\nperiod 1 3 4\n")
    assert main(["solve", str(path), "--meter", "1"]) == 2
    assert capsys.readouterr().err == "anonmeter: no selection over 1 period sums to 0 (meter 1)\n"


def test_solve_fully_identified_period_prints_positive_zero(tmp_path, capsys):
    path = tmp_path / "known.inst"
    path.write_text("meters 2\nperiods 2\ntotals 1 10\nperiod 1 0 9\nperiod 2 1 1\n")
    assert main(["solve", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["  period 1: 0.0000", "  period 2: 1.0000"]


@pytest.mark.parametrize("text, message", [
    ("meters 2\n\nperiods 0\ntotals 0 0\n", "line 3: period count must be at least 1"),
    ("meters 0\nperiods 1\ntotals\nperiod 1\n", "line 1: meter count must be at least 1"),
    ("meters 00\nperiods 0\ntotals\n", "line 1: meter count must be at least 1"),
])
def test_empty_instances_are_refused_on_their_count_line(tmp_path, capsys, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_instance(text)
    path = tmp_path / "empty.inst"
    path.write_text(text)
    for command in ("solve", "joint"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"anonmeter: {message}\n")


def test_solve_guard_exceeded_is_exit_3(instance_file, capsys):
    assert main(["solve", instance_file, "--time-budget", "1e-9"]) == 3


def test_joint_command(instance_file, capsys):
    assert main(["joint", instance_file]) == 0
    out = capsys.readouterr().out
    assert "joint solutions (value-distinct): 3" in out
    assert "meter 1, period 1: 362 Wh" in out


def test_joint_work_limit_exit_3(instance_file, capsys):
    assert main(["joint", instance_file, "--work-limit", "5"]) == 3


def test_usage_error_is_exit_1(capsys):
    assert main(["solve"]) == 1  # missing positional
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    ["joint", "--work-limit", "0"],
    ["solve", "--mem-budget", "-1"],
    ["solve", "--mem-budget", "nan"],
    ["solve", "--mem-budget", "inf"],
    ["solve", "--time-budget", "0"],
    ["solve", "--reveal", "1.5"],
    ["solve", "--reveal", "0"],
    ["ingest", "--seed", "-1"],
    ["ingest", "--subset-seed", "-1"],
    ["ingest", "--n", "0"],
    ["ingest", "--t", "-1"],
    ["solve", "--meter", "0"],
    ["solve", "--meter", "-1"],
])
def test_out_of_range_flags_are_usage_errors(instance_file, capsys, argv):
    assert main([argv[0], instance_file, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[1]}:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "INSTANCE", "--meter", "x"],
    ["solve", "INSTANCE", "--reveal", "x"],
    ["joint", "INSTANCE", "--work-limit", "x"],
    ["synth", "--t", "3", "--n", "x"],
])
def test_non_numeric_flags_name_the_flag_not_its_parser(instance_file, capsys, argv):
    argv = [instance_file if arg == "INSTANCE" else arg for arg in argv]
    assert main(argv) == 1
    flag = argv[-2]
    want = {"--meter": "invalid meter 'x'", "--reveal": "invalid reveal 'x'",
            "--work-limit": "invalid work_limit 'x'", "--n": "invalid n 'x'"}[flag]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"anonmeter {argv[0]}: error: argument {flag}: {want}")


@pytest.mark.parametrize("argv, message", [
    (["solve", "INSTANCE", "--meter", "0"], "argument --meter: meter must be at least 1"),
    (["solve", "INSTANCE", "--reveal", "1.5"], "argument --reveal: reveal must be in (0, 1]"),
    (["solve", "INSTANCE", "--reveal", "nan"], "argument --reveal: reveal must be in (0, 1]"),
    (["joint", "INSTANCE", "--work-limit", "0"],
     "argument --work-limit: work_limit must be at least 1"),
    (["synth", "--t", "3", "--n", "0"], "argument --n: n must be at least 1"),
    (["ingest", "INSTANCE", "--t", "-1"], "argument --t: t must be at least 1"),
    (["ingest", "INSTANCE", "--n", "x"], "argument --n: invalid n 'x'"),
    (["solve", "INSTANCE", "--mem-budget", "0"],
     "argument --mem-budget: mem_budget must be positive and finite"),
], ids=["meter", "reveal", "reveal_nan", "work_limit", "synth_n", "ingest_t", "ingest_n",
        "mem_budget"])
def test_count_and_probability_flags_word_errors_as_field_flags(instance_file, capsys, argv,
                                                                 message):
    argv = [instance_file if arg == "INSTANCE" else arg for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"anonmeter {argv[0]}: error: {message}"


@pytest.mark.parametrize("argv", [
    ["--reps", "0"],
    ["--workers", "0"],
    ["--mem-budget", "inf"],
    ["--mem-budget", "0"],
    ["--time-budget", "inf"],
    ["--time-budget", "nan"],
    ["--n-list", "0"],
    ["--n-list", "2,x"],
    ["--target-meter", "0"],
    ["--seed", "-1"],
    ["--target-mean", "-1"],
    ["--target-mean", "nan"],
    ["--others-mean", "inf"],
])
def test_out_of_range_experiment_flags_are_usage_errors(capsys, argv):
    assert main(["experiment", "--n-list", "2", "--t-list", "3", *argv]) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[0]}:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, key", [
    ("--n-list", "2,4,2", "n_list"),
    ("--t-list", "3,3", "t_list"),
])
def test_repeated_grid_entries_are_refused(tmp_path, capsys, flag, value, key):
    message = f"{key} must be comma-separated distinct positive counts"
    assert main(["experiment", "--n-list", "2", "--t-list", "3", flag, value]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"anonmeter experiment: error: argument {flag}: {message}")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"n_list=2\nt_list=3\n# a repeated entry\n{key} = {value}\n")
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr() == ("", f"anonmeter: config line 4: {message}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(ExperimentConfig(), **{key: (2, 2)}).validate()


@pytest.mark.parametrize("line", ["mem_budget=inf", "time_budget=inf", "time_budget=nan"])
def test_non_finite_config_budgets_are_data_errors(tmp_path, capsys, line):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"n_list=2\nt_list=3\nreps=1\n{line}\n")
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    key = line.partition("=")[0]
    assert capsys.readouterr().err == (
        f"anonmeter: config line 4: {key} must be positive and finite\n")


def test_in_range_flags_still_run(instance_file, capsys):
    assert main(["solve", instance_file, "--reveal", "1", "--mem-budget", "0.5",
                 "--time-budget", "30"]) == 0
    assert main(["joint", instance_file, "--work-limit", "100000"]) == 0


def test_joint_readings_beyond_int64_are_data_errors(tmp_path, capsys):
    big = 2**63
    path = tmp_path / "big.txt"
    path.write_text(write_instance(AnonymizedInstance(n=2, t=1, periods=((big, 0),),
                                                      totals=(big, 0))))
    assert main(["joint", str(path)]) == 2
    assert "2**63" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / fit / ingest subcommands
# ---------------------------------------------------------------------------

def test_synth_readings_beyond_int64_are_data_errors(capsys):
    assert main(["synth", "--n", "2", "--t", "3", "--target-mean", "1e19"]) == 2
    err = capsys.readouterr().err
    assert "2**63" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--target-mean", "inf"],
    ["--others-mean", "nan"],
    ["--seed", "-1"],
    ["--n", "0"],
    ["--t", "0"],
])
def test_out_of_range_synth_flags_are_usage_errors(capsys, argv):
    assert main(["synth", "--n", "2", "--t", "3", *argv]) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[0]}:" in err and "Traceback" not in err


def test_synth_deterministic(capsys):
    assert main(["synth", "--n", "3", "--t", "4", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["synth", "--n", "3", "--t", "4", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("meter_id,period,wh")


def test_fit_command(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(55)
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(str(v) for v in rng.exponential(100.0, size=2000)))
    assert main(["fit", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].strip().startswith("1. exponential")


def test_fit_names_the_line_of_a_non_numeric_sample(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("1.5\n2\n\n x \n3\n")
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr().err == "anonmeter: line 4: invalid sample 'x'\n"


@pytest.mark.parametrize("sample", ["nan", "1e400", "-inf"])
def test_fit_refuses_non_finite_samples(tmp_path, capsys, sample):
    path = tmp_path / "samples.txt"
    path.write_text(f"1.5\n2\n{sample}\n")
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr().err == f"anonmeter: line 3: invalid sample {sample!r}\n"


LONG = "x" * 5000


@pytest.mark.parametrize("argv, text, code, where", [
    (["ingest", "FILE"], f"meter_id,period,kwh\na,1,5\nb,1,{'1' * 4297}.1234\n", 2, "line 3: "),
    (["ingest", "FILE"], f"meter_id,period,wh\n{LONG},1,5\n{LONG},1,6\n", 2, "line 3: "),
    (["ingest", "FILE"], f"meter_id,period,wh\na,1,5\na,2,6\n{LONG},1,7\n", 2,
     "missing reading for meter 'xx"),
    (["solve", "FILE"], f"meters 1\nperiods 1\ntotals {LONG}\nperiod 1 5\n", 2, "line 3: "),
    (["fit", "FILE"], f"1.5\n{LONG}\n", 2, "line 2: "),
    (["experiment", "--config", "FILE"], f"reps=1\n{LONG}\n", 2, "config line 2: "),
    (["experiment", "--config", "FILE"], f"reps=1\n{LONG}=1\n", 2, "config line 2: "),
    (["experiment", "--config", "FILE"], f"reps=1\nseed={LONG}\n", 2, "config line 2: "),
    (["experiment", "--seed", LONG], None, 1, "argument --seed: "),
], ids=["kwh_decimals", "duplicate_meter", "missing_meter", "instance_total", "fit_sample",
        "config_line", "config_key", "config_value", "flag_value"])
def test_refused_input_is_quoted_in_short_lines(tmp_path, capsys, argv, text, code, where):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == code
    err = capsys.readouterr().err
    assert where in err and " characters)" in err  # the cut quote gives the length
    assert max(map(len, err.splitlines())) < 120


def test_ingest_command_round_trips(tmp_path, capsys):
    csv_path = tmp_path / "readings.csv"
    csv_path.write_text(write_readings_csv(ReadingMatrix.from_rows(demo.READINGS)))
    assert main(["ingest", str(csv_path), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    from anonmeter.ingest import parse_instance

    inst = parse_instance(out)
    assert inst.n == 3 and inst.t == 9
    assert sorted(inst.totals) == sorted(demo.TOTALS)


def test_ingest_accepts_crlf_blank_lines_and_padding(tmp_path, capsys):
    clean = write_readings_csv(ReadingMatrix.from_rows(demo.READINGS))
    header, *records = clean.splitlines()
    messy = "\r\n\t\r\n".join([f" {header}\xa0"] + [" \xa0" + " , ".join(ln.split(",")) + "\t"
                                                     for ln in records]) + "\r\n\r\n"
    outputs = []
    for name, text in (("clean.csv", clean), ("messy.csv", messy)):
        path = tmp_path / name
        path.write_bytes(text.encode())
        assert main(["ingest", str(path), "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_ingest_error_names_the_physical_line(tmp_path, capsys):
    path = tmp_path / "readings.csv"
    path.write_text("meter_id,period,wh\na,1,5\n\nb,1,6\n  \n\na,2,x\nb,2,7\n")
    assert main(["ingest", str(path)]) == 2
    assert capsys.readouterr().err == "anonmeter: line 7: invalid Wh reading 'x'\n"


@pytest.mark.parametrize("argv", [
    ["solve", "FILE"], ["joint", "FILE"], ["fit", "FILE"], ["ingest", "FILE"],
    ["experiment", "--config", "FILE"], ["experiment", "--input-file", "FILE"],
], ids=["solve", "joint", "fit", "ingest", "config", "input_file"])
def test_non_utf8_input_names_its_line(tmp_path, capsys, argv):
    # a Latin-1 byte on the third line as str.splitlines() counts lines
    path = tmp_path / "input.txt"
    path.write_bytes(b"meter_id,period,wh\r\na,1,5\rm\xfcller,1,6\n")
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "anonmeter: line 3: not UTF-8 text\n")


@pytest.mark.parametrize("data, lineno", [
    (b"\xfc", 1), (b"ok\n\n\xff\n", 3), (b"ok\r\n\xc3", 2), (b"\xc3\xbc\n\x0b\xfc", 3),
])
def test_non_utf8_line_is_counted_as_splitlines_counts(tmp_path, data, lineno):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^line {lineno}: not UTF-8 text$"):
        cli._read_text(str(path))


def test_ingest_with_subselection(tmp_path, capsys):
    csv_path = tmp_path / "readings.csv"
    csv_path.write_text(write_readings_csv(ReadingMatrix.from_rows(demo.READINGS)))
    assert main(["ingest", str(csv_path), "--n", "2", "--t", "4", "--seed", "3"]) == 0
    from anonmeter.ingest import parse_instance

    inst = parse_instance(capsys.readouterr().out)
    assert inst.n == 2 and inst.t == 4


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

def test_parse_config_overrides_defaults():
    cfg = parse_config("n_list = 2,4\nt_list=3\nreps=2\nseed=9\ntarget_mean=50\n")
    assert cfg.n_list == (2, 4)
    assert cfg.t_list == (3,)
    assert cfg.reps == 2
    assert cfg.seed == 9
    assert cfg.target_mean == 50.0
    assert cfg.others_mean == 100.0  # untouched default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus=1\n")


def test_parse_config_skips_comments_and_blanks():
    cfg = parse_config("# comment\n\nreps=4\n")
    assert cfg.reps == 4


# one non-default spelling per field
FIELD_TEXTS = {
    "n_list": "3, 5", "t_list": "7", "target_mean": "2.5",
    "others_mean": "1e3", "reps": "4", "seed": "9", "target_meter": "2", "format": "csv",
    "workers": "2", "mem_budget": "0.5", "time_budget": "30", "input_file": "data.csv",
}


def test_experiment_flags_are_the_config_fields():
    keys = {f.name for f in fields(ExperimentConfig)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["experiment"]._actions} - {"help"}
    assert dests == keys | {"config", "per_rep"}
    assert set(FIELD_TEXTS) == keys


@pytest.mark.parametrize("key", sorted(FIELD_TEXTS))
def test_flag_and_config_key_parse_alike(tmp_path, monkeypatch, capsys, key):
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentTable(n_values=(), t_values=(), cells=())

    monkeypatch.setattr(cli, "run_experiment", record)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"{key} = {FIELD_TEXTS[key]}\n")
    flag = "--" + key.replace("_", "-")
    assert main(["experiment", flag, FIELD_TEXTS[key]]) == 0
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    from_flag, from_file = seen
    assert from_flag == from_file
    assert getattr(from_flag, key) != getattr(ExperimentConfig(), key)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0).validate()
    with pytest.raises(ValueError, match="^input_file must name a readings file$"):
        ExperimentConfig(input_file="").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(target_meter=3, n_list=(2, 4)).validate()
    for budgets in ({"mem_budget": math.inf}, {"time_budget": math.inf},
                    {"time_budget": math.nan}, {"mem_budget": 0.0}):
        with pytest.raises(ValueError, match="positive and finite"):
            ExperimentConfig(**budgets).validate()


# ---------------------------------------------------------------------------
# run_experiment / emit_table
# ---------------------------------------------------------------------------

SMALL = ExperimentConfig(n_list=(2, 3), t_list=(4,), reps=3, seed=11)


def test_experiment_deterministic():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL)
    assert a == b


def test_experiment_cell_bounds():
    table = run_experiment(SMALL)
    for cell in table.cells:
        assert 0.0 <= cell.mean <= math.log2(cell.n) + 1e-9


def test_experiment_single_meter_cell_is_zero():
    table = run_experiment(ExperimentConfig(n_list=(1,), t_list=(3,), reps=2, seed=1,
                                            target_meter=1))
    assert table.cell(3, 1).mean == 0.0


def test_experiment_cells_independent_of_grid_shape():
    # the same (t, n, rep) triple yields the same value whatever else runs
    wide = run_experiment(ExperimentConfig(n_list=(2, 3), t_list=(4, 5), reps=2, seed=11))
    narrow = run_experiment(ExperimentConfig(n_list=(3,), t_list=(5,), reps=2, seed=11))
    assert wide.cell(5, 3).values == narrow.cell(5, 3).values


def test_experiment_reps_extend_not_reshuffle():
    few = run_experiment(ExperimentConfig(n_list=(2,), t_list=(4,), reps=2, seed=11))
    more = run_experiment(ExperimentConfig(n_list=(2,), t_list=(4,), reps=4, seed=11))
    assert more.cell(4, 2).values[:2] == few.cell(4, 2).values


def test_experiment_workers_do_not_change_output():
    seq = run_experiment(SMALL)
    par = run_experiment(replace(SMALL, workers=2))
    assert seq.cells == par.cells


def test_pool_starts_no_more_workers_than_a_cell_has_repetitions(monkeypatch):
    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for workers, reps, pools in ((6, 2, [2]), (6, 1, []), (2, 3, [2]), (3, 3, [3])):
        started.clear()
        cfg = ExperimentConfig(n_list=(2,), t_list=(3,), reps=reps, workers=workers)
        table = run_experiment(cfg)
        assert started == pools
        assert table == run_experiment(replace(cfg, workers=1))


# charged at their live peak, every repetition fits 1e-4 GiB (1,118 entries),
# the largest, (12, 8) rep 1, at 101,448 bytes; at 8e-5 GiB (894 entries)
# (12, 8) rep 0 fits (71,624 bytes) and rep 1 trips, ending that cell
GUARDED_GRID = ["experiment", "--n-list", "2,3,8", "--t-list", "4,12", "--reps", "3",
                "--seed", "5"]
FITTED_CSV = """\
t,n,avg_entropy,max_entropy,reps,stddev
4,2,0.0000,1.0000,3,0.0000
4,3,0.1667,1.5850,3,0.2887
4,8,1.5881,3.0000,3,0.5551
12,2,0.7934,1.0000,3,0.1877
12,3,1.5283,1.5850,3,0.0467
12,8,2.9610,3.0000,3,0.0431
"""
FITTED_MARKDOWN = """\
|              | n = 2 | n = 3 | n = 8 |
|--------------|-------|-------|-------|
| Max. entropy | 1.00  | 1.58  | 3.00  |
| t = 4        | 0.00  | 0.17  | 1.59  |
| t = 12       | 0.79  | 1.53  | 2.96  |
"""
GUARDED_CSV = """\
t,n,avg_entropy,max_entropy,reps,stddev
4,2,0.0000,1.0000,3,0.0000
4,3,0.1667,1.5850,3,0.2887
4,8,1.5881,3.0000,3,0.5551
12,2,0.7934,1.0000,3,0.1877
12,3,1.5283,1.5850,3,0.0467
12,8,,3.0000,0,
"""
GUARDED_MARKDOWN = """\
|              | n = 2 | n = 3 | n = 8 |
|--------------|-------|-------|-------|
| Max. entropy | 1.00  | 1.58  | 3.00  |
| t = 4        | 0.00  | 0.17  | 1.59  |
| t = 12       | 0.79  | 1.53  | guard |
"""
GUARDED_PER_REP = """\
t,n,rep,avg_entropy
4,2,0,0.0
4,2,1,0.0
4,2,2,0.0
4,3,0,0.5
4,3,1,0.0
4,3,2,0.0
4,8,0,1.084962500721156
4,8,1,1.4959065984842455
4,8,2,2.1835423624332306
12,2,0,0.9445256135450446
12,2,1,0.5833333333333334
12,2,2,0.852247638253222
12,3,0,1.5100045012016077
12,3,1,1.5814497127514082
12,3,2,1.4935826482927226
"""
FITTED_PER_REP = GUARDED_PER_REP + """\
12,8,0,2.911605247915911
12,8,1,2.990865657315522
12,8,2,2.9803929611070696
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_guard_trip_gives_the_same_output_for_any_worker_count(tmp_path, capsys, workers):
    for budget, code, csv, markdown, reps in (
        ("1e-4", 0, FITTED_CSV, FITTED_MARKDOWN, FITTED_PER_REP),
        ("8e-5", 3, GUARDED_CSV, GUARDED_MARKDOWN, GUARDED_PER_REP),
    ):
        for fmt, want in (("csv", csv), ("markdown", markdown)):
            per_rep = tmp_path / f"{fmt}.csv"
            assert main([*GUARDED_GRID, "--mem-budget", budget, "--workers", workers,
                         "--format", fmt, "--per-rep", str(per_rep)]) == code
            assert capsys.readouterr().out == want
            assert per_rep.read_text() == reps


def random_readings_file(path, seed):
    """A 4 x 8 readings CSV of uniform draws below 300 Wh; returns its path."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = [[int(v) for v in rng.integers(0, 300, size=8)] for _ in range(4)]
    path.write_text(write_readings_csv(ReadingMatrix.from_rows(rows)))
    return str(path)


def test_experiment_real_file_mode(tmp_path):
    cfg = ExperimentConfig(n_list=(2, 3), t_list=(4,), reps=2, seed=2,
                           input_file=random_readings_file(tmp_path / "data.csv", 6))
    table = run_experiment(cfg)
    for cell in table.cells:
        assert not cell.infeasible
        assert 0.0 <= cell.mean <= math.log2(cell.n) + 1e-9
    assert run_experiment(replace(cfg, workers=2)) == table


def test_experiment_real_file_too_small_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("meter_id,period,wh\na,1,5\n")
    cfg = ExperimentConfig(n_list=(2,), t_list=(4,), reps=1, seed=0,
                           input_file=str(path))
    with pytest.raises(ValueError, match="smaller"):
        run_experiment(cfg)


def test_experiment_input_file_runs_its_grid(tmp_path, capsys):
    # every meter reads the same in every period: each selection is consistent,
    # so each period's entropy is log2 n, which no synthetic draw gives
    path = tmp_path / "flat.csv"
    path.write_text(write_readings_csv(ReadingMatrix.from_rows([[5] * 3] * 4)))
    assert main(["experiment", "--input-file", str(path), "--n-list", "2,4", "--t-list", "3",
                 "--reps", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "t,n,avg_entropy,max_entropy,reps,stddev\n"
        "3,2,1.0000,1.0000,2,0.0000\n"
        "3,4,2.0000,2.0000,2,0.0000\n")


def test_experiment_missing_input_file_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert main(["experiment", "--input-file", str(missing), "--n-list", "2", "--t-list", "3",
                 "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err


def test_experiment_empty_input_file_is_a_usage_error(capsys):
    assert main(["experiment", "--input-file", "", "--n-list", "2", "--t-list", "3"]) == 1
    assert "input_file must name a readings file" in capsys.readouterr().err


def test_experiment_has_no_mode_setting(tmp_path, capsys):
    assert main(["experiment", "--mode", "real-file"]) == 1
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("mode = real-file\n")
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "config line 1: unknown key 'mode'" in capsys.readouterr().err


def test_experiment_runs_share_no_source(tmp_path):
    grid = ExperimentConfig(n_list=(3, 4), t_list=(6, 8), reps=2, seed=2)
    file_a = replace(grid, input_file=random_readings_file(tmp_path / "a.csv", 6))
    file_b = replace(grid, input_file=random_readings_file(tmp_path / "b.csv", 7))
    first = run_experiment(file_a)
    synthetic = run_experiment(grid)
    other = run_experiment(file_b)
    assert run_experiment(file_a) == first
    assert first != synthetic and first != other


def test_experiment_guarded_cell_marked_infeasible():
    cfg = ExperimentConfig(n_list=(4,), t_list=(6,), reps=2, seed=3, time_budget=1e-9)
    table = run_experiment(cfg)
    cell = table.cell(6, 4)
    assert cell.infeasible
    assert cell.values == ()


@pytest.mark.parametrize("workers", [1, 2])
def test_guard_trip_builds_at_most_one_round_of_instances(monkeypatch, workers):
    built = []
    make_instance = cli._instance

    def instance(config, source, n, t, rep):
        built.append(rep)
        return make_instance(config, source, n, t, rep)

    monkeypatch.setattr(cli, "_instance", instance)
    cfg = ExperimentConfig(n_list=(4,), t_list=(6,), reps=20, seed=3, time_budget=1e-9,
                           workers=workers)
    assert run_experiment(cfg).cell(6, 4).infeasible
    assert built == list(range(workers))


def test_emit_table_csv_golden():
    table = ExperimentTable(
        n_values=(2,), t_values=(15,),
        cells=(CellResult(n=2, t=15, values=(1.0,)),),
    )
    text = emit_table(table, "csv")
    lines = text.splitlines()
    assert lines[0] == "t,n,avg_entropy,max_entropy,reps,stddev"
    assert lines[1] == "15,2,1.0000,1.0000,1,0.0000"


def test_emit_table_markdown_layout():
    table = run_experiment(SMALL)
    text = emit_table(table, "markdown")
    lines = text.splitlines()
    assert "n = 2" in lines[0] and "n = 3" in lines[0]
    assert "Max. entropy" in lines[2]
    assert "t = 4" in lines[3]


def test_emit_repetitions_full_precision():
    table = run_experiment(SMALL)
    text = emit_repetitions(table)
    lines = text.splitlines()
    assert lines[0] == "t,n,rep,avg_entropy"
    # every rep of every cell appears, values repr-round-trip exactly
    assert len(lines) == 1 + sum(c.reps for c in table.cells)
    t, n, rep, value = lines[1].split(",")
    assert float(value) in table.cell(int(t), int(n)).values


def test_experiment_command_csv(capsys, tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("n_list=2\nt_list=3\nreps=2\nseed=4\nformat=csv\n")
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,n,avg_entropy,max_entropy,reps,stddev"
    assert out.splitlines()[1].startswith("3,2,")


def test_experiment_flag_overrides_config(capsys, tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("n_list=2\nt_list=3\nreps=2\nseed=4\nformat=markdown\n")
    assert main(["experiment", "--config", str(cfg_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,n,avg_entropy")


def test_experiment_command_guard_exit_3(capsys):
    code = main(["experiment", "--n-list", "4", "--t-list", "6", "--reps", "1",
                 "--seed", "1", "--time-budget", "1e-9", "--format", "csv"])
    assert code == 3
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "6,4,,2.0000,0,"


def test_experiment_per_rep_export(tmp_path, capsys):
    per_rep = tmp_path / "reps.csv"
    assert main(["experiment", "--n-list", "2", "--t-list", "3", "--reps", "2",
                 "--seed", "4", "--format", "csv", "--per-rep", str(per_rep)]) == 0
    lines = per_rep.read_text().splitlines()
    assert lines[0] == "t,n,rep,avg_entropy"
    assert len(lines) == 3
