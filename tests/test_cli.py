"""Benchmark CLI: the ``--vary`` grid, CSV/JSON outputs, config-file
precedence, exit codes, and reproducibility."""

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from stiefelopt import StiefelSolver, cli
from stiefelopt.cli import _fmt, _parse_vary, main

# The run record's keys after the point's: sim and seed, SolverReport.to_dict(), error.
RUN_COLUMNS = ["sim", "seed", "nitr", "nfe", "nge", "time_s", "fval", "nrmg", "feasi",
               "termination", "name", "converged", "error"]
AGG_COLUMNS = ["nitr", "nfe", "nge", "time_s", "fval", "nrmg", "feasi", "error"]
# A grid over the acceptance rule, and one over the direction mix with beta = 1 - alpha.
MODE_AXIS = ["--vary", "mode=monotone,nonmonotone"]
MIX_AXIS = ["--vary", "alpha=0.5,1", "beta=0.5,0"]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _run_args(tmp_path, *extra):
    return [
        "run",
        "--family", "wopp",
        "--n", "12",
        "--p", "3",
        "--known-solution",
        "--sims", "3",
        "--seed", "0",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


# -- run ---------------------------------------------------------------------------


def test_run_writes_per_run_and_aggregate_tables(tmp_path, capsys):
    assert main(_run_args(tmp_path)) == 0
    out = tmp_path / "out"
    header, rows = _read_csv(out / "runs.csv")
    assert header == RUN_COLUMNS
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [r[1] for r in rows] == ["0", "1", "2"]  # seed = base + sim
    # Known-solution instances report the objective value as the error.
    error, fval = header.index("error"), header.index("fval")
    for row in rows:
        assert float(row[error]) == float(row[fval]) and float(row[fval]) <= 1e-8

    agg_header, agg_rows = _read_csv(out / "aggregate.csv")
    assert agg_header[0] == "stat"
    assert [r[0] for r in agg_rows] == ["min", "mean", "max"]
    nitr_idx = agg_header.index("nitr")
    nitrs = [float(r[2]) for r in rows]
    assert float(agg_rows[0][nitr_idx]) == min(nitrs)
    assert float(agg_rows[1][nitr_idx]) == pytest.approx(sum(nitrs) / len(nitrs))
    assert float(agg_rows[2][nitr_idx]) == max(nitrs)

    captured = capsys.readouterr().out
    assert "procrustes naming" in captured  # dual-naming echo for this family
    assert "aggregate over 3 runs" in captured


def test_run_summary_json_mirrors_the_tables(tmp_path):
    assert main(_run_args(tmp_path)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["points"] == [{}]
    assert summary["config"]["family"] == "wopp"
    assert summary["config"]["n"] == 12 and summary["config"]["p"] == 3
    assert summary["solver_params"]["alpha"] == 1.0
    assert len(summary["runs"]) == 3
    for i, run in enumerate(summary["runs"]):
        assert run["sim"] == i and run["seed"] == i
        assert run["converged"] is True
        assert run["termination"] == "GradTol"
    assert [row["stat"] for row in summary["aggregate"]] == ["min", "mean", "max"]
    header, rows = _read_csv(tmp_path / "out" / "aggregate.csv")
    assert rows == [[_fmt(row[col]) for col in header] for row in summary["aggregate"]]


def test_runs_table_and_summary_runs_are_one_schema(tmp_path):
    assert main(_run_args(tmp_path)) == 0
    header, rows = _read_csv(tmp_path / "out" / "runs.csv")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert header == RUN_COLUMNS
    assert [list(run) for run in summary["runs"]] == [header] * len(rows)
    assert rows == [[_fmt(run[col]) for col in header] for run in summary["runs"]]


def test_run_is_reproducible_except_for_timing(tmp_path):
    assert main(_run_args(tmp_path, "--out", str(tmp_path / "a"))) == 0
    assert main(_run_args(tmp_path, "--out", str(tmp_path / "b"))) == 0
    header, rows_a = _read_csv(tmp_path / "a" / "runs.csv")
    _, rows_b = _read_csv(tmp_path / "b" / "runs.csv")
    drop = header.index("time_s")
    for ra, rb in zip(rows_a, rows_b):
        assert [v for i, v in enumerate(ra) if i != drop] == [
            v for i, v in enumerate(rb) if i != drop
        ]


def test_run_history_table(tmp_path):
    assert main(_run_args(tmp_path, "--history")) == 0
    header, rows = _read_csv(tmp_path / "out" / "history.csv")
    assert header == [
        "k", "fval", "nrmg", "tau", "cval", "relx", "relf", "fastpath",
        "feasibility", "skew_norm", "slope", "nfe",
    ]
    assert rows[0][0] == "0"
    # Row 0 has no incoming step: tau/relx/relf/fastpath are blank.
    assert rows[0][3] == "" and rows[0][5] == "" and rows[0][7] == ""
    assert rows[1][3] != "" and rows[1][7] in {"0", "1"}
    assert [r[0] for r in rows] == [str(k) for k in range(len(rows))]


def test_run_error_column_by_family(tmp_path):
    assert main(["run", "--family", "eig", "--n", "12", "--p", "3", "--sims", "1",
                 "--out", str(tmp_path / "eig")]) == 0
    header, rows = _read_csv(tmp_path / "eig" / "runs.csv")
    assert float(rows[0][header.index("error")]) >= 0.0  # eigenvalue relative error
    # The error is the final iterate's: both runs reach the oracle's eigenvalue sum.
    assert main(["run", "--family", "eig", "--n", "40", "--p", "4", "--mode", "monotone",
                 "--sims", "2", "--out", str(tmp_path / "eig40")]) == 0
    runs = json.loads((tmp_path / "eig40" / "summary.json").read_text())["runs"]
    assert len(runs) == 2 and all(run["converged"] and run["error"] <= 1e-6 for run in runs)
    assert main(["run", "--family", "energy", "--n", "20", "--p", "3", "--sims", "1",
                 "--out", str(tmp_path / "energy")]) == 0
    header, rows = _read_csv(tmp_path / "energy" / "runs.csv")
    assert rows[0][header.index("error")] == ""  # no oracle for this family


def test_run_exit_code_flags_nonconvergence(tmp_path):
    # The iteration cap, and a line search that fails: an outcome, counted like any other.
    capped = main(_run_args(tmp_path, "--max-iters", "1"))
    failed = main(_run_args(tmp_path, "--step-init", "fixed", "--tau0", "1e12", "--max-halvings",
                            "1", "--sims", "2", "--out", str(tmp_path / "failed")))
    assert (capped, failed) == (1, 1)
    runs = json.loads((tmp_path / "failed" / "summary.json").read_text())["runs"]
    assert len(runs) == 2
    assert all((run["termination"], run["nitr"], run["nfe"]) == ("LineSearchFailed", 0, 3)
               for run in runs)


# -- the acceptance rule as a grid axis ------------------------------------------------


def test_mode_axis_runs_both_modes_on_identical_seeds(tmp_path):
    settings = [
        "--family", "wopp",
        "--n", "12",
        "--p", "3",
        "--known-solution",
        "--sims", "2",
        "--seed", "5",
    ]
    assert main(["run", *settings, *MODE_AXIS, "--out", str(tmp_path / "cmp")]) == 0
    header, rows = _read_csv(tmp_path / "cmp" / "runs.csv")
    assert header == ["mode", *RUN_COLUMNS]
    mono = [r[1:] for r in rows if r[0] == "monotone"]
    nonm = [r[1:] for r in rows if r[0] == "nonmonotone"]
    assert len(mono) + len(nonm) == len(rows)
    assert [r[1] for r in mono] == ["5", "6"]
    assert [r[1] for r in mono] == [r[1] for r in nonm]
    header, rows = _read_csv(tmp_path / "cmp" / "aggregate.csv")
    assert header[:2] == ["mode", "stat"]
    assert len(rows) == 6  # two modes x min/mean/max
    assert {r[0] for r in rows} == {"monotone", "nonmonotone"}
    # Only the acceptance rule differs: monotone is the averaged rule at eta = 0
    # with the same trial steps.
    assert main(["run", *settings, "--eta", "0", "--out", str(tmp_path / "eta0")]) == 0
    header, eta0 = _read_csv(tmp_path / "eta0" / "runs.csv")
    drop = header.index("time_s")
    assert [[v for i, v in enumerate(r) if i != drop] for r in mono] == [
        [v for i, v in enumerate(r) if i != drop] for r in eta0
    ]


# -- the direction mix as a grid axis ----------------------------------------------------


def test_mix_axis_walks_the_direction_mix(tmp_path):
    args = [
        "run",
        "--family", "wopp",
        "--n", "12",
        "--p", "3",
        "--known-solution",
        "--seed", "0",
        "--vary", "alpha=0,0.5,1", "beta=1,0.5,0",
        "--out", str(tmp_path / "sweep"),
    ]
    assert main(args) == 0
    header, rows = _read_csv(tmp_path / "sweep" / "runs.csv")
    assert header[:2] == ["alpha", "beta"]
    assert [r[0] for r in rows] == ["0.0", "0.5", "1.0"]
    for row in rows:
        assert float(row[0]) + float(row[1]) == 1.0
        assert row[header.index("termination")] != ""


def test_mix_axis_runs_sims_instances_per_alpha_as_run_rows(tmp_path):
    settings = ["--family", "wopp", "--n", "12", "--p", "3", "--known-solution",
                "--sims", "2", "--seed", "3"]
    assert main(["run", *settings, *MIX_AXIS, "--out", str(tmp_path / "sw")]) == 0
    header, rows = _read_csv(tmp_path / "sw" / "runs.csv")
    assert header == ["alpha", "beta", *RUN_COLUMNS]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        ("0.5", "0.5", "0", "3"), ("0.5", "0.5", "1", "4"),
        ("1.0", "0.0", "0", "3"), ("1.0", "0.0", "1", "4"),
    ]
    # Each alpha's rows are the run rows of that mix on the same seeds.
    for alpha, beta, chunk in (("0.5", "0.5", rows[:2]), ("1", "0", rows[2:])):
        out = tmp_path / f"run_{alpha}"
        assert main(["run", *settings, "--alpha", alpha, "--beta", beta, "--out", str(out)]) == 0
        run_header, run_rows = _read_csv(out / "runs.csv")
        keep = [c for c in RUN_COLUMNS if c != "time_s"]
        assert [[r[header.index(c)] for c in keep] for r in chunk] == [
            [r[run_header.index(c)] for c in keep] for r in run_rows
        ]
        assert all(float(r[header.index("error")]) <= 1e-8 for r in chunk)


def _refusal(argv, capsys):
    """Exit status, stdout and ``error:`` text of a refused ``main(argv)``: an
    instance or grid setting ends in ``SystemExit``, a solver one in status 1."""
    try:
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    except SystemExit as exc:  # SystemExit("error: ...") exits with status 1
        return 1, capsys.readouterr().out, str(exc.code)


@pytest.mark.parametrize(
    "vary, message",
    [(("--vary", "alpha="), "vary needs nonempty"),
     ({"vary": [{"alpha": ["x"]}]}, "alpha must be a real number, got 'x'"),
     ({"vary": [{"alpha": []}]}, "vary needs nonempty"),
     ({"vary": [{"alpha": 0.5}]}, "vary needs nonempty"),
     ({"vary": [{"alpha": [True, 0.5]}]}, "alpha must be a real number, got True")],
    ids=["flag-empty", "config-string", "config-empty", "config-scalar", "config-bool"],
)
def test_bad_alphas_are_rejected_before_any_output(tmp_path, capsys, vary, message):
    out = tmp_path / "out"
    if isinstance(vary, dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(vary))
        vary = ("--config", str(cfg_path))
    code, _, error = _refusal(["run", "--n", "6", "--p", "2", "--out", str(out), *vary], capsys)
    assert code == 1 and "alpha" in error and message in error
    assert not out.exists()


def test_mix_axis_checks_its_own_alpha_beta_not_the_configs(tmp_path, capsys):
    # A config may set alpha = beta = 0, which a run refuses; a grid that
    # sets both at every point replaces them, so it runs.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "wopp", "n": 12, "p": 3, "known_solution": True,
                                    "alpha": 0.0, "beta": 0.0}))
    settings = ["--config", str(cfg_path)]
    grid = ["--vary", "alpha=0.5", "beta=0.5"]
    assert main(["run", *settings, *grid, "--out", str(tmp_path / "sw")]) == 0
    assert main(["run", *settings, "--out", str(tmp_path / "run")]) == 1
    assert "need alpha >= 0, beta >= 0, alpha + beta > 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_mix_axis_rejects_weights_outside_unit_interval(tmp_path, capsys):
    # validate_params checks each point: the second one's beta is negative.
    args = ["run", "--n", "6", "--p", "2", "--vary", "alpha=0,2", "beta=1,-1",
            "--out", str(tmp_path / "x")]
    code, _, error = _refusal(args, capsys)
    assert code == 1 and "got alpha=2.0, beta=-1.0" in error
    assert not (tmp_path / "x").exists()  # rejected before any output is made


def test_parse_vary_forms():
    assert _parse_vary("alpha=0,0.5,1") == ("alpha", [0.0, 0.5, 1.0])
    assert _parse_vary("alpha=0:0.25:1") == ("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    # VALUES are typed like the setting's default, instance settings included;
    # a bool reads as in a config file, and an unknown key's values stay text.
    assert _parse_vary("mode=monotone,nonmonotone") == ("mode", ["monotone", "nonmonotone"])
    assert _parse_vary("max_halvings=3,5") == ("max_halvings", [3, 5])
    assert _parse_vary("n=10,20") == ("n", [10, 20])
    assert _parse_vary("known_solution=false,true") == ("known_solution", [False, True])
    assert _parse_vary("family=wopp,eig") == ("family", ["wopp", "eig"])
    assert _parse_vary("bogus=1,2") == ("bogus", ["1", "2"])
    assert _parse_vary("alpha=") == ("alpha", [])
    for text in ("alpha=x", "max_halvings=1.5", "max_halvings=1:1:3", "alpha=0:1",
                 "known_solution=False"):
        with pytest.raises(ValueError):  # argparse reports it as an invalid --vary value
            _parse_vary(text)
    with pytest.raises(argparse.ArgumentTypeError, match="step"):
        _parse_vary("alpha=0:-0.5:1")
    # A NaN step would end the range at its start; an infinite stop is never passed.
    for text in ("alpha=0:nan:1", "alpha=0:0.1:inf"):
        with pytest.raises(argparse.ArgumentTypeError, match="finite start:step:stop"):
            _parse_vary(text)
    # A step tiny against the span is refused from the point count, before
    # any list is built; a 1e-3 grid on [0, 1] is the largest range taken.
    for text in ("alpha=0:1e-300:1", "tau0=0:0.1:1e300"):
        with pytest.raises(argparse.ArgumentTypeError, match="more than 1001 points"):
            _parse_vary(text)
    assert _parse_vary("beta=0:0.1:1") == ("beta", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                                    0.8, 0.9, 1.0])
    grid = _parse_vary("alpha=0:0.001:1")[1]
    assert len(grid) == 1001 and grid[1] == 0.001 and grid[-1] == 1.0


def test_a_bad_vary_value_exits_via_argparse(tmp_path):
    for text in ("alpha=x", "alpha=0:1", "alpha=0:1e-9:1"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--vary", text, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_vary_axes_cross_with_the_first_outermost(tmp_path):
    settings = ["--family", "wopp", "--n", "12", "--p", "3", "--known-solution", "--sims", "2"]
    out = tmp_path / "grid"
    assert main(["run", *settings, *MODE_AXIS, *MIX_AXIS, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "runs.csv")
    assert header == ["mode", "alpha", "beta", *RUN_COLUMNS]
    assert [r[:4] for r in rows] == [
        [mode, alpha, beta, sim] for mode in ("monotone", "nonmonotone")
        for alpha, beta in (("0.5", "0.5"), ("1.0", "0.0")) for sim in ("0", "1")
    ]
    assert all(float(r[header.index("error")]) <= 1e-8 for r in rows)  # the planted optimum
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["vary"] == [{"mode": ["monotone", "nonmonotone"]},
                                         {"alpha": [0.5, 1.0], "beta": [0.5, 0.0]}]
    # The config form takes the same rule and gives the same rows.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vary": summary["config"]["vary"]}))
    assert main(["run", *settings, "--config", str(cfg_path), "--out", str(tmp_path / "cfg")]) == 0
    assert _without_timing_or_out(out) == _without_timing_or_out(tmp_path / "cfg")


def test_energy_and_eig_counts_do_not_depend_on_the_mix(tmp_path):
    # For energy and eig X^T G is symmetric (F(XQ) = F(X) for orthogonal Q),
    # so the complement part is the canonical one and every alpha + beta = 1
    # takes the same steps.
    mixes = ["alpha=0,0.25,0.5,0.75,1", "beta=1,0.75,0.5,0.25,0"]
    for family, n, p in (("energy", "30", "4"), ("eig", "16", "12")):
        out = tmp_path / family
        assert main(["run", "--family", family, "--n", n, "--p", p, "--sims", "2",
                     *MODE_AXIS, "--vary", *mixes, "--out", str(out)]) == 0
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert len(runs) == 2 * 5 * 2
        by_case = {}
        for run in runs:
            counts = (run["nitr"], run["nfe"], run["termination"])
            by_case.setdefault((run["mode"], run["seed"]), set()).add(counts)
        assert len(by_case) == 4
        assert all(len(counts) == 1 for counts in by_case.values()), (family, by_case)


# -- one instance per seed -------------------------------------------------------------


# A grid and the (n, seed) of each instance it builds, in build order.
_BUILDS = {
    "mode": (MODE_AXIS, [(12, 7), (12, 8)]),
    "mix": (["--vary", "alpha=0,0.5,1", "beta=1,0.5,0"], [(12, 7), (12, 8)]),
    # Two instance settings x two modes: each (setting, seed) is built once.
    "instances": (["--vary", "n=12,16", "p=3,4", *MODE_AXIS], [(12, 7), (16, 7), (12, 8), (16, 8)]),
}


@pytest.mark.parametrize("grid, builds", _BUILDS.values(), ids=list(_BUILDS))
def test_each_seed_builds_one_instance_for_every_point(tmp_path, capsys, monkeypatch, grid,
                                                       builds):
    build, built = cli._build_instance, []

    def counting(cfg, seed):
        built.append((cfg["n"], seed))
        return build(cfg, seed)

    monkeypatch.setattr(cli, "_build_instance", counting)
    assert main(["run", *grid, "--family", "wopp", "--n", "12", "--p", "3", "--known-solution",
                 "--sims", "2", "--seed", "7", "--out", str(tmp_path / "out")]) == 0
    assert built == builds
    # One echo per instance setting, printed when its first seed is built.
    assert capsys.readouterr().out.count("instance:") == len({n for n, _ in builds})


def test_an_instance_grid_gives_the_rows_of_separate_runs(tmp_path):
    settings = ["--family", "wopp", "--known-solution", "--sims", "2"]
    out = tmp_path / "grid"
    assert main(["run", *settings, "--vary", "n=12,16", "p=3,4", *MODE_AXIS,
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "runs.csv")
    assert header == ["n", "p", "mode", *RUN_COLUMNS]
    assert [r[:2] for r in rows] == [["12", "3"]] * 4 + [["16", "4"]] * 4
    keep = [c for c in header[2:] if c != "time_s"]
    separate = []
    for n, p in (("12", "3"), ("16", "4")):
        assert main(["run", *settings, "--n", n, "--p", p, *MODE_AXIS,
                     "--out", str(tmp_path / n)]) == 0
        run_header, run_rows = _read_csv(tmp_path / n / "runs.csv")
        separate += [[r[run_header.index(c)] for c in keep] for r in run_rows]
    assert [[r[header.index(c)] for c in keep] for r in rows] == separate
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 50  # the base, which every point overrides
    assert summary["points"][0] == {"n": 12, "p": 3, "mode": "monotone"}


# -- one schema ----------------------------------------------------------------------------

_WOPP_SETTINGS = ["--family", "wopp", "--n", "12", "--p", "3", "--known-solution",
                  "--sims", "2"]
# Each grid (none, the mode axis, the mix axis, the two crossed) and its point keys.
_GRIDS = {
    "run": ([], []),
    "mode": (MODE_AXIS, ["mode"]),
    "mix": (MIX_AXIS, ["alpha", "beta"]),
    "crossed": ([*MODE_AXIS, *MIX_AXIS], ["mode", "alpha", "beta"]),
    # An instance axis inside a solver one: the files still go point by point.
    "instances": ([*MODE_AXIS, "--vary", "n=12,16", "p=3,4"], ["mode", "n", "p"]),
}


@pytest.mark.parametrize("grid, keys", _GRIDS.values(), ids=list(_GRIDS))
def test_every_grid_writes_the_same_files_and_columns(tmp_path, grid, keys):
    out = tmp_path / "out"
    assert main(["run", *grid, *_WOPP_SETTINGS, "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["aggregate.csv", "runs.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["config", "solver_params", "points", "runs", "aggregate", "versions"]
    points = summary["points"]
    assert [list(point) for point in points] == [keys] * len(points)
    header, rows = _read_csv(out / "runs.csv")
    assert header == [*keys, *RUN_COLUMNS]
    assert len(rows) == 2 * len(points) > 0
    assert rows == [[_fmt(run[col]) for col in header] for run in summary["runs"]]
    header, rows = _read_csv(out / "aggregate.csv")
    assert header == [*keys, "stat", *AGG_COLUMNS]
    assert len(rows) == 3 * len(points)
    assert rows == [[_fmt(row[col]) for col in header] for row in summary["aggregate"]]


@pytest.mark.parametrize("grid", ["mode", "mix", "crossed", "instances"])
def test_history_holds_the_first_run_of_each_point(tmp_path, grid):
    args, keys = _GRIDS[grid]
    out = tmp_path / "out"
    assert main(["run", *args, *_WOPP_SETTINGS, "--history", "--out", str(out)]) == 0
    runs_header, runs = _read_csv(out / "runs.csv")
    header, rows = _read_csv(out / "history.csv")
    assert header[: len(keys) + 1] == [*keys, "k"]
    first_runs = [r for r in runs if r[runs_header.index("sim")] == "0"]
    assert len(first_runs) == len(json.loads((out / "summary.json").read_text())["points"])
    for run in first_runs:
        point = run[: len(keys)]
        trace = [r[len(keys):] for r in rows if r[: len(keys)] == point]
        nitr = int(run[runs_header.index("nitr")])
        assert [r[0] for r in trace] == [str(k) for k in range(nitr + 1)]
        assert trace[-1][1] == run[runs_header.index("fval")]
    assert len(rows) == sum(int(r[runs_header.index("nitr")]) + 1 for r in first_runs)


# -- config files ---------------------------------------------------------------------------


def test_config_file_sets_instance_and_solver_keys(tmp_path):
    config = {
        "family": "wopp",
        "n": 10,
        "p": 2,
        "known_solution": True,
        "sims": 2,
        "alpha": 0.5,
        "beta": 0.5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 10 and summary["config"]["sims"] == 2
    assert summary["solver_params"]["alpha"] == 0.5
    assert summary["solver_params"]["beta"] == 0.5


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 10, "p": 2, "known_solution": True}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--n", "8", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 8  # flag wins over file


def test_unknown_config_key_is_an_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit, match="unknown config key"):
        main(["run", "--config", str(cfg_path)])


@pytest.mark.parametrize("sims", [0, -2])
def test_sims_below_one_is_an_error(tmp_path, sims):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="sims"):
        main(_run_args(tmp_path, "--sims", str(sims)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sims": sims}))
    with pytest.raises(SystemExit, match="sims"):
        main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert not out.exists()  # rejected before any output is made


# Each refused setting (a config file's content, or a tuple of flags) and a
# fragment of the one error line that names it.
_BAD_SETTINGS = {
    "known_solution-string": ({"known_solution": "false"}, "known_solution must be bool"),
    "n-string": ({"n": "12"}, "n must be int"),
    "alpha-string": ({"alpha": "0.5"}, "alpha must be a real number"),
    "tau0-string": ({"tau0": "1e-2"}, "tau0 must be a real number"),
    "seed-float": ({"seed": 1.5}, "seed must be int"),
    "max_halvings-bool": ({"max_halvings": True}, "max_halvings must be an int >= 1"),
    "top-level-list": ([1, 2], "must be a JSON object"),
    "family-unknown": ({"family": "ridge"}, "family must be one of"),
    "mode-unknown": ({"mode": "fast"}, "mode must be one of"),
    "max_iters-float": ({"max_iters": 10.0}, "max_iters must be an int >= 1"),
    "p-above-n": ({"p": 60}, "St(n, p) needs 1 <= p <= n, got n=50, p=60"),
    "ptype-unknown": ({"ptype": 7}, "ptype must be one of"),
    "flags-p-above-n": (("--n", "5", "--p", "6"), "St(n, p) needs 1 <= p <= n, got n=5, p=6"),
    "energy-p-above-n": ({"family": "energy", "n": 5, "p": 6}, "St(n, p) needs 1 <= p <= n"),
    "eig-p-above-n": ({"family": "eig", "n": 5, "p": 6}, "St(n, p) needs 1 <= p <= n"),
    "eig-p-zero": ({"family": "eig", "p": 0}, "St(n, p) needs 1 <= p <= n, got n=50, p=0"),
    "step_init-auto": ({"step_init": "auto"}, "step_init must be one of"),
    "flags-rho1-above-one": (("--rho1", "2"), "rho1 must be in (0, 1), got 2.0"),
    "flags-mu-nan": (("--family", "energy", "--mu", "nan"), "mu must be finite"),
    "vary-mu-nan": (("--family", "energy", "--vary", "mu=1,nan"),
                    "mu must be finite and >= 0, got nan"),
    # A 401-digit integer is a finite JSON number that no float can hold.
    "alpha-int-too-large": ({"alpha": 10**400}, "alpha must be finite"),
    "tau0-int-too-large": ({"tau0": 10**400}, "tau0 must be finite"),
    "mu-int-too-large": ({"family": "energy", "mu": 10**400}, "mu must be finite"),
    "run-alphas": ({"alphas": [0.5]}, "unknown config key 'alphas'"),
    # The BB formula is no setting: BB1 and BB2 alternate by iteration parity.
    "bb_mode-removed": ({"bb_mode": "bb1"}, "unknown config key 'bb_mode'"),
    # A summary.json read as a config gets the same checks as its settings would.
    "summary-bb_mode-removed": ({"config": {}, "solver_params": {"bb_mode": "bb1"}},
                                "unknown config key 'bb_mode'"),
    # The BB residual is no setting: it is the change in the search direction.
    "bb_gradient-removed": ({"bb_gradient": "mixed"}, "unknown config key 'bb_gradient'"),
    "summary-bb_gradient-removed": ({"config": {}, "solver_params": {"bb_gradient": "mixed"}},
                                    "unknown config key 'bb_gradient'"),
    # The shrink factor, the BB clamp and the mean rule's window are constants.
    "delta-removed": ({"delta": 0.5}, "unknown config key 'delta'"),
    "summary-tau_min-removed": ({"config": {}, "solver_params": {"tau_min": 1e-10}},
                                "unknown config key 'tau_min'"),
    "summary-params-list": ({"config": {}, "solver_params": [1]},
                            "as its config and solver_params"),
    # A grid over the run's own keys or unknown ones, a key on two axes, or
    # unequal or empty axes.
    "vary-run-key": (("--vary", "sims=1,2"), "instance and solver settings, each on one axis, "
                                             "got ['sims']"),
    "vary-unknown-key": ({"vary": [{"bogus": [1]}]}, "solver settings, each on one axis, "
                                                     "got ['bogus']"),
    "flags-vary-unknown-key": (("--vary", "bogus=1,2"), "solver settings, each on one axis, "
                                                        "got ['bogus']"),
    "vary-key-twice": (("--vary", "alpha=0.5,1", "--vary", "alpha=0.25"),
                       "each on one axis, got ['alpha']"),
    "vary-key-twice-config": ({"vary": [{"alpha": [0.5, 1], "beta": [0.5, 0]},
                                        {"mode": ["monotone"], "alpha": [0.25]}]},
                              "each on one axis, got ['alpha']"),
    "vary-empty-list": (("--vary", "mode="), "vary needs nonempty {KEY: [values]} lists"),
    "vary-unequal-counts": (("--vary", "alpha=0,1", "beta=1"),
                            "need as many values, got {'alpha': [0.0, 1.0], 'beta': [1.0]}"),
    "vary-empty-axis": ({"vary": [{}]}, "need as many values, got {}"),
    "vary-not-a-list": ({"vary": {"mode": ["monotone"]}}, "vary must be list"),
    # Each point's instance settings get the base config's checks.
    "vary-p-above-n": (("--vary", "p=3,60"), "St(n, p) needs 1 <= p <= n, got n=50, p=60"),
    "vary-ptype-unknown": (("--vary", "ptype=1,7"), "ptype must be one of (1, 2, 3), got 7"),
    "vary-family-unknown": (("--vary", "family=wopp,bogus"), "family must be one of"),
    "vary-n-string": ({"vary": [{"n": [12, "16"]}]}, "n must be int, got '16'"),
    "vary-known_solution-int": (("--vary", "known_solution=1"), "known_solution must be bool"),
    # An int too large for a float reads inf, as the flag reads the same digits.
    "vary-alpha-int-too-large": ({"vary": [{"alpha": [10**400]}]},
                                 "alpha must be finite, got inf"),
    # Larger than any array dimension: refused by name before numpy sees it.
    "n-above-intp": ({"n": 10**41, "p": 3}, f"the largest array dimension, got n={10**41}"),
    # An n x n float64 array of more than intp.max bytes (64-bit bound): refused by
    # name before any instance is built, not by numpy.
    **{
        f"{family}-n-above-square": (
            {"family": family, "n": 10**10, "p": 3},
            f"{family} builds an n x n array, so n must be at most 1073741823, got n={10**10}",
        )
        for family in ("wopp", "eig")
    },
}


@pytest.mark.parametrize("settings, message", _BAD_SETTINGS.values(), ids=list(_BAD_SETTINGS))
def test_bad_settings_are_refused_before_any_output(tmp_path, capsys, settings, message):
    out = tmp_path / "out"
    if not isinstance(settings, tuple):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(settings))
        settings = ["--config", str(cfg_path)]
    code, stdout, error = _refusal(["run", *settings, "--out", str(out)], capsys)
    assert code == 1
    assert "instance:" not in stdout  # no echo of an instance never built
    assert error.startswith("error: ") and error.count("error:") == 1
    assert message in error
    assert not out.exists()


def test_mu_is_checked_only_at_energy_points(tmp_path):
    # The other families ignore mu, so a wopp point runs with any mu.
    code = main(_run_args(tmp_path, "--sims", "1", "--vary", "family=wopp,energy", "mu=nan,1"))
    _, rows = _read_csv(tmp_path / "out" / "runs.csv")
    assert code == 0 and len(rows) == 2


def test_out_of_memory_is_one_error_line_and_no_output(tmp_path, capsys, monkeypatch):
    # A size that passes every check may still not fit: numpy raises
    # MemoryError, which ends the run as one error line, not a traceback.
    message = "Unable to allocate 149. GiB for an array with shape (2, 10000000000)"

    def exhausted(cfg, seed):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_build_instance", exhausted)
    out = tmp_path / "out"
    code = main(["run", "--family", "energy", "--out", str(out)])
    error = capsys.readouterr().err
    assert code == 1
    assert error == f"error: out of memory: {message}\n"
    assert not out.exists()


def test_infinite_solver_setting_is_refused_by_name(tmp_path, capsys):
    # "--alpha inf" parses as a float; the solver's check names the setting
    # before any step is taken or any file written.
    out = tmp_path / "out"
    code = main(["run", "--alpha", "inf", "--out", str(out)])
    error = capsys.readouterr().err
    assert code == 1
    assert error.count("error:") == 1
    assert error.startswith("error: alpha must be finite, got inf")
    assert not out.exists()


def _without_timing_or_out(out):
    """runs.csv rows and summary.json of ``out``, minus ``time_s`` and ``out``."""
    header, rows = _read_csv(out / "runs.csv")
    drop = header.index("time_s")
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["out"]
    for record in [*summary["runs"], *summary["aggregate"]]:
        del record["time_s"]
    return [[v for i, v in enumerate(row) if i != drop] for row in rows], summary


def test_config_vary_values_are_typed_like_the_flags(tmp_path):
    # An int for a float setting is a float, as "--vary alpha=1" parses to 1.0,
    # so both forms lead their rows with 1.0,0.0, not 1,0.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vary": [{"alpha": [1, 0.5], "beta": [0, 0.5]}]}))
    flags = ["--vary", "alpha=1,0.5", "beta=0,0.5"]
    for name, grid in (("cfg", ["--config", str(cfg_path)]), ("flags", flags)):
        assert main(["run", *_WOPP_SETTINGS, *grid, "--out", str(tmp_path / name)]) == 0
    tables = {}
    for name in ("cfg", "flags"):
        header, rows = _read_csv(tmp_path / name / "aggregate.csv")
        drop = header.index("time_s")
        aggregate = [[v for i, v in enumerate(row) if i != drop] for row in rows]
        runs, summary = _without_timing_or_out(tmp_path / name)
        tables[name] = (runs, aggregate, json.dumps(summary["points"]))
    assert tables["cfg"] == tables["flags"]
    assert [row[:2] for row in tables["cfg"][0]] == [["1.0", "0.0"]] * 2 + [["0.5", "0.5"]] * 2


def test_config_file_and_flags_share_one_declaration(tmp_path):
    # "tau0": 1 is an int standing for a float, as "--tau0 1" parses to 1.0.
    settings = {
        "family": "wopp", "n": 10, "p": 3, "ptype": 2, "known_solution": True, "sims": 2,
        "seed": 4, "alpha": 0.5, "beta": 0.5, "tau0": 1, "max_iters": 300,
        "mode": "monotone",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
    assert main(["run", *flags, "--out", str(tmp_path / "flags")]) == 0
    from_file = _without_timing_or_out(tmp_path / "file")
    assert from_file == _without_timing_or_out(tmp_path / "flags")
    assert from_file[1]["solver_params"]["tau0"] == 1.0


def test_each_setting_is_one_flag_and_one_config_key(tmp_path, monkeypatch):
    # Every flag's dest, from the parsed arguments main hands on.
    resolve, parsed = cli._resolve_config, []

    def capture(args):
        parsed.append(args)
        return resolve(args)

    monkeypatch.setattr(cli, "_resolve_config", capture)
    monkeypatch.setattr(cli, "_run_points", lambda *resolved: 0)  # no solve, no output
    main(["run", "--out", str(tmp_path / "out")])
    dests = {k for k in vars(parsed[0]) if k not in ("command", "config")}
    # A config key that is no setting is refused as unknown; any other key
    # with a null value gets past that test and is refused (or overridden) later.
    cfg_path = tmp_path / "cfg.json"
    accepted = set()
    for key in dests:
        cfg_path.write_text(json.dumps({key: None}))
        try:
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            accepted.add(key)
        except SystemExit as exc:
            if "unknown config key" not in str(exc.code):
                accepted.add(key)
    assert accepted == dests
    assert "vary" in dests and "alphas" not in dests


def test_unreadable_config_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="cannot read config"):
        main(["run", "--config", str(tmp_path / "missing.json")])


# A valid value other than the default for every solver parameter.
_NON_DEFAULT = {
    "alpha": "0.5", "beta": "0.5", "mode": "monotone", "epsilon": "1e-5", "tolx": "1e-7",
    "tolf": "1e-11", "max_iters": "50", "rho1": "1e-3", "eta": "0.5", "tau0": "1e-2",
    "step_init": "fixed", "max_halvings": "30",
}


@pytest.mark.parametrize("field", fields(StiefelSolver), ids=lambda f: f.name)
def test_every_solver_parameter_has_a_flag(tmp_path, field):
    value = type(field.default)(_NON_DEFAULT[field.name])
    assert value != field.default
    flag = "--" + field.name.replace("_", "-")
    main(_run_args(tmp_path, "--sims", "1", flag, _NON_DEFAULT[field.name]))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["solver_params"][field.name] == value


def test_solver_flag_outside_its_choices_exits_via_argparse(tmp_path):
    # So does the flag of a removed setting: the BB residual is no setting, and
    # the mean rule's window is a constant.
    for flag in (("--step-init", "full"), ("--bb-gradient", "mixed"), ("--window", "3")):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, *flag))
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


def test_bad_family_flag_exits_via_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--family", "ridge", "--out", str(tmp_path / "x")])


# -- committed tables -------------------------------------------------------------------------

_REPRO = Path(__file__).parent.parent / "repro"
_TABLES = sorted(summary.parent for summary in _REPRO.glob("*/summary.json"))


def _runs(table):
    with open(table / "runs.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _counts(runs):
    return [[run[k] for k in ("nitr", "nfe", "nge", "termination")] for run in runs]


@pytest.mark.parametrize("table", _TABLES, ids=lambda table: table.name)
def test_committed_table_regenerates_from_its_summary(tmp_path, table):
    # Each table under repro/ is the output of --config on its own summary.json.
    summary = json.loads((table / "summary.json").read_text(encoding="utf-8"))
    # Read as a config, a summary refuses a setting that has gone but would give
    # a new one its default: it must name every solver setting.
    assert set(summary["solver_params"]) == {f.name for f in fields(StiefelSolver)}
    code = main(["run", "--config", str(table / "summary.json"), "--out", str(tmp_path)])
    fresh = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    committed, rerun = _runs(table), _runs(tmp_path)
    assert code == (0 if all(run["converged"] == "1" for run in committed) else 1)
    assert fresh["points"] == summary["points"]
    keys = [*summary["points"][0], "sim", "seed", "converged"]
    assert [[run[k] for k in keys] for run in rerun] == [
        [run[k] for k in keys] for run in committed
    ]
    # A run at its oracle's optimum stays there.
    assert all(float(new["error"]) <= 1e-8 for new, old in zip(rerun, committed)
               if old["error"] and float(old["error"]) <= 1e-8)
    # The last bits move with the BLAS kernel and its thread count, and the counts did
    # not; they are held equal under the numpy and scipy that wrote the table.
    if fresh["versions"] == summary.get("versions"):
        assert _counts(rerun) == _counts(committed)


@pytest.mark.parametrize("table", _TABLES, ids=lambda table: table.name)
def test_committed_table_counts_hold_on_one_blas_thread(tmp_path, table):
    # The test above runs at the default BLAS thread count, so on a multi-core
    # host the two together hold the counts across thread counts too.
    summary = json.loads((table / "summary.json").read_text(encoding="utf-8"))
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "stiefelopt.cli", "run", "--config", str(table / "summary.json"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    committed = _runs(table)
    assert done.returncode == (0 if all(run["converged"] == "1" for run in committed) else 1), (
        done.stderr
    )
    fresh = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    if fresh["versions"] != summary.get("versions"):
        pytest.skip("counts are held only under the numpy and scipy that wrote the table")
    assert _counts(_runs(tmp_path)) == _counts(committed)
