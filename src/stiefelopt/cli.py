"""stiefel-bench: seeded benchmark harness.

Subcommands: ``run`` (one family, N seeded simulations), ``compare``
(monotone vs non-monotone on identical seeds), ``sweep`` (alpha grid with
beta = 1 - alpha on one seeded instance).  Settings come from built-in
defaults, optionally a JSON config file, then command-line flags, in that
order of precedence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .linalg import as_generator, random_orthonormal
from .problems import EigProblem, EnergyProblem, WoppProblem
from .solver import StiefelSolver

_INSTANCE_DEFAULTS = {
    "family": "wopp",
    "n": 50,
    "p": 10,
    "ptype": 1,
    "mu": 1.0,
    "known_solution": False,
    "sims": 1,
    "seed": 0,
    "out": "bench_out",
    "history": False,
    "alphas": [0.0, 0.5, 1.0],
}

_SOLVER_KEYS = set(StiefelSolver._PARAM_NAMES)
_RUN_COLUMNS = ["sim", "seed", "nitr", "nfe", "time_s", "fval", "nrmg", "feasi", "error"]
_AGG_COLUMNS = ["nitr", "nfe", "time_s", "fval", "nrmg", "feasi", "error"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def _build_instance(cfg: dict, seed: int):
    """One seeded (problem, x0) pair; the instance and the start share a stream."""
    rng = as_generator(seed)
    family = cfg["family"]
    n, p = cfg["n"], cfg["p"]
    if family == "wopp":
        problem = WoppProblem.generate(
            n, p, ptype=cfg["ptype"], rng=rng,
            known_solution=cfg["known_solution"], seed=seed,
        )
    elif family == "energy":
        problem = EnergyProblem(n, p, mu=cfg["mu"])
    elif family == "eig":
        problem = EigProblem.generate(n, p, rng=rng, seed=seed)
    else:
        raise SystemExit(f"error: unknown family {family!r} (wopp/energy/eig)")
    x0 = random_orthonormal(n, p, rng)
    return problem, x0


def _oracle_error(problem, report):
    """Per-run error column: eigenvalue error, known-optimum gap, or blank."""
    if isinstance(problem, EigProblem) and problem.oracle_eigs is not None:
        return problem.relative_error(report.x)
    if isinstance(problem, WoppProblem) and problem.solution is not None:
        return report.fval  # known optimum value is 0
    return None


def _echo_naming(cfg) -> None:
    n, p = cfg["n"], cfg["p"]
    if cfg["family"] == "wopp":
        print(
            f"instance: wopp ptype={cfg['ptype']} on St({n}, {p}) "
            f"[procrustes naming: m={n}, n={p}, A {n}x{n}, C {p}x{p}, B {n}x{p}]"
        )
    elif cfg["family"] == "energy":
        print(f"instance: energy on St({n}, {p}) with mu={cfg['mu']}")
    else:
        print(f"instance: eig on St({n}, {p})")


def _aggregate(rows: list[dict]) -> list[dict]:
    out = []
    for stat, fn in (("min", min), ("mean", None), ("max", max)):
        agg = {"stat": stat}
        for col in _AGG_COLUMNS:
            values = [row[col] for row in rows]
            if any(v is None for v in values):
                agg[col] = None
            elif fn is None:
                agg[col] = float(sum(values)) / len(values)
            else:
                agg[col] = float(fn(values))
        out.append(agg)
    return out


def _run_batch(cfg: dict, solver: StiefelSolver, label: str = ""):
    rows, reports = [], []
    for sim in range(cfg["sims"]):
        sim_seed = cfg["seed"] + sim
        problem, x0 = _build_instance(cfg, sim_seed)
        report = solver.solve(problem, x0)
        reports.append(report)
        rows.append(
            {
                "sim": sim,
                "seed": sim_seed,
                "nitr": report.nitr,
                "nfe": report.nfe,
                "time_s": report.time_s,
                "fval": report.fval,
                "nrmg": report.nrmg,
                "feasi": report.feasi,
                "error": _oracle_error(problem, report),
            }
        )
        tag = f"[{label}] " if label else ""
        print(
            f"{tag}sim {sim + 1}/{cfg['sims']} seed={sim_seed} "
            f"nitr={report.nitr} nfe={report.nfe} fval={report.fval:.6e} "
            f"nrmg={report.nrmg:.3e} feasi={report.feasi:.3e} {report.termination}"
        )
    return rows, reports


def _print_aggregate(agg_rows, heading: str) -> None:
    print(heading)
    cols = ["stat"] + _AGG_COLUMNS
    print("  " + "  ".join(f"{c:>10}" for c in cols))
    for row in agg_rows:
        cells = [f"{row['stat']:>10}"]
        for col in _AGG_COLUMNS:
            v = row[col]
            cells.append(f"{'':>10}" if v is None else f"{v:>10.4g}")
        print("  " + "  ".join(cells))


def cmd_run(cfg: dict, solver_params: dict) -> int:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _echo_naming(cfg)
    solver = StiefelSolver(**solver_params)
    rows, reports = _run_batch(cfg, solver)
    agg = _aggregate(rows)
    _write_csv(outdir / "runs.csv", _RUN_COLUMNS, rows)
    _write_csv(outdir / "aggregate.csv", ["stat"] + _AGG_COLUMNS, agg)
    if cfg["history"]:
        history = reports[0].to_dict(include_history=True)["history"]
        _write_csv(outdir / "history.csv", list(history[0]), history)
    summary = {
        "config": {k: cfg[k] for k in _INSTANCE_DEFAULTS if k != "alphas"},
        "solver_params": solver.get_params(),
        "runs": [
            dict(report.to_dict(), sim=row["sim"], seed=row["seed"], error=row["error"])
            for row, report in zip(rows, reports)
        ],
        "aggregate": {row["stat"]: {c: row[c] for c in _AGG_COLUMNS} for row in agg},
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    _print_aggregate(agg, f"aggregate over {cfg['sims']} runs -> {outdir}")
    return 0 if all(r.converged for r in reports) else 1


def cmd_compare(cfg: dict, solver_params: dict) -> int:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _echo_naming(cfg)
    all_ok = True
    mode_aggs = {}
    for mode in ("monotone", "nonmonotone"):
        params = dict(solver_params, mode=mode)
        solver = StiefelSolver(**params)
        rows, reports = _run_batch(cfg, solver, label=mode)
        _write_csv(outdir / f"runs_{mode}.csv", _RUN_COLUMNS, rows)
        mode_aggs[mode] = _aggregate(rows)
        all_ok = all_ok and all(r.converged for r in reports)
    compare_rows = [
        dict(row, mode=mode) for mode in mode_aggs for row in mode_aggs[mode]
    ]
    _write_csv(outdir / "compare.csv", ["mode", "stat"] + _AGG_COLUMNS, compare_rows)
    for mode, agg in mode_aggs.items():
        _print_aggregate(agg, f"{mode}:")
    mono_t = next(r["time_s"] for r in mode_aggs["monotone"] if r["stat"] == "mean")
    nonm_t = next(r["time_s"] for r in mode_aggs["nonmonotone"] if r["stat"] == "mean")
    if nonm_t is not None and mono_t is not None and nonm_t > mono_t:
        # Informational only: timing depends on the machine and never gates.
        print(f"note: nonmonotone mean time {nonm_t:.3g}s > monotone {mono_t:.3g}s")
    return 0 if all_ok else 1


def cmd_sweep(cfg: dict, solver_params: dict) -> int:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _echo_naming(cfg)
    alphas = cfg["alphas"]
    if not alphas:
        raise SystemExit("error: sweep needs a nonempty alpha grid")
    if any(a < 0 or a > 1 for a in alphas):
        raise SystemExit("error: sweep alphas must lie in [0, 1]")
    problem, x0 = _build_instance(cfg, cfg["seed"])
    rows = []
    ok = True
    for a in alphas:
        params = dict(solver_params, alpha=a, beta=1.0 - a)
        report = StiefelSolver(**params).solve(problem, x0)
        ok = ok and report.converged
        print(
            f"alpha={a:.3g} beta={1.0 - a:.3g} nitr={report.nitr} "
            f"fval={report.fval:.6e} nrmg={report.nrmg:.3e} {report.termination}"
        )
        rows.append(
            {
                "alpha": a,
                "beta": 1.0 - a,
                "nitr": report.nitr,
                "nfe": report.nfe,
                "time_s": report.time_s,
                "fval": report.fval,
                "nrmg": report.nrmg,
                "feasi": report.feasi,
                "termination": str(report.termination),
            }
        )
    _write_csv(
        outdir / "sweep.csv",
        ["alpha", "beta", "nitr", "nfe", "time_s", "fval", "nrmg", "feasi", "termination"],
        rows,
    )
    print(f"wrote {outdir / 'sweep.csv'}")
    return 0 if ok else 1


def _parse_alphas(text: str) -> list[float]:
    """Either a comma list '0,0.5,1' or a range 'start:step:stop' (inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range form is start:step:stop")
        start, step, stop = (float(s) for s in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be > 0")
        vals, v = [], start
        while v <= stop + 1e-12:
            vals.append(round(v, 12))
            v += step
        return vals
    return [float(s) for s in text.split(",") if s.strip()]


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--family", choices=("wopp", "energy", "eig"), default=None)
    sub.add_argument("--n", type=int, default=None, help="manifold rows")
    sub.add_argument("--p", type=int, default=None, help="manifold columns")
    sub.add_argument("--ptype", type=int, choices=(1, 2, 3), default=None,
                     help="wopp conditioning class")
    sub.add_argument("--mu", type=float, default=None, help="energy coupling weight")
    sub.add_argument("--known-solution", dest="known_solution",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="wopp: build B from a known feasible solution")
    sub.add_argument("--sims", type=int, default=None, help="number of seeded runs")
    sub.add_argument("--seed", type=int, default=None, help="base seed (run i uses seed+i)")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--history", action=argparse.BooleanOptionalAction, default=None,
                     help="also write per-iteration history of the first run")
    # solver overrides
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--eta", type=float, default=None)
    sub.add_argument("--mode", choices=("monotone", "nonmonotone"), default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--tolx", type=float, default=None)
    sub.add_argument("--tolf", type=float, default=None)
    sub.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sub.add_argument("--tau0", type=float, default=None)
    sub.add_argument("--bb-mode", dest="bb_mode", choices=("alternate", "bb1", "bb2"),
                     default=None)
    sub.add_argument("--step-init", dest="step_init", choices=("auto", "fixed", "bb"),
                     default=None)


def _resolve_config(args: argparse.Namespace) -> tuple[dict, dict]:
    """Merge defaults, the JSON config file, and explicit flags."""
    cfg = dict(_INSTANCE_DEFAULTS)
    solver_params: dict = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read config {args.config}: {exc}")
        for key, value in loaded.items():
            if key in _INSTANCE_DEFAULTS:
                cfg[key] = value
            elif key in _SOLVER_KEYS:
                solver_params[key] = value
            else:
                raise SystemExit(f"error: unknown config key {key!r}")
    for key in _INSTANCE_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key in _SOLVER_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            solver_params[key] = flag
    return cfg, solver_params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stiefel-bench",
        description="Seeded benchmarks for the Stiefel-manifold solver.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one family for N seeded simulations"),
        ("compare", "run monotone and nonmonotone modes on identical seeds"),
        ("sweep", "sweep alpha over a grid with beta = 1 - alpha"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common_flags(sub)
        if name == "sweep":
            sub.add_argument("--alphas", type=_parse_alphas, default=None,
                             help="comma list '0,0.5,1' or range '0:0.05:1'")
    args = parser.parse_args(argv)
    cfg, solver_params = _resolve_config(args)
    try:
        if args.command == "run":
            return cmd_run(cfg, solver_params)
        if args.command == "compare":
            return cmd_compare(cfg, solver_params)
        return cmd_sweep(cfg, solver_params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
