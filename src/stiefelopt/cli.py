"""stiefel-bench: seeded benchmark harness.

``run`` solves N seeded instances at every *point* of a grid of instance and
solver settings: the keys of one ``--vary KEY=VALUES ...`` move together,
separate flags cross, the first outermost, and with none there is one empty
point. Each (instance setting, seed) is built once, for every point with that
setting. It writes ``runs.csv`` (header: the run record's keys, as in
``summary.json["runs"]``), ``aggregate.csv``, ``summary.json`` and, with
``--history``, ``history.csv``, rows led by the point's settings. Settings come
from built-in defaults, a JSON config file, then flags, in that order of
precedence; ``_DEFAULTS`` declares each once, as one flag and one config key.
A ``summary.json`` is also a config file: its ``config`` and ``solver_params``,
so ``--config DIR/summary.json`` runs that table's command again.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from .linalg import as_generator, random_orthonormal
from .problems import _FAMILIES, EigProblem, EnergyProblem, WoppProblem, _checked_mu
from .solver import PARAM_CHOICES, StiefelSolver

#: ``key -> (default, help)`` of each setting that is not a solver field.
_SETTINGS = {
    "family": ("wopp", None),
    "n": (50, "manifold rows"),
    "p": (10, "manifold columns"),
    "ptype": (1, "wopp conditioning class"),
    "mu": (1.0, "energy coupling weight"),
    "known_solution": (False, "wopp: build B from a known feasible solution"),
    "sims": (1, "number of seeded runs"),
    "seed": (0, "base seed (run i uses seed+i)"),
    "out": ("bench_out", "output directory"),
    "history": (False, "also write per-iteration history of the first run"),
    "vary": ([], "settings moved together; repeat to cross: n=100,200 p=20,40"),
}
#: The run's own settings, which no point may vary; the other ``_SETTINGS`` are instance ones.
_RUN = ("sims", "seed", "out", "history", "vary")
#: Every setting as ``key -> (default, help)``, each one flag and one config key.
_DEFAULTS = {**_SETTINGS, **{f.name: (f.default, None) for f in fields(StiefelSolver)}}

#: Allowed values of the settings that have them, offered as the flags' choices.
_CHOICES = {"family": tuple(_FAMILIES), "ptype": (1, 2, 3), **PARAM_CHOICES}
#: The largest ``n`` whose ``n x n`` float64 array has a byte count numpy can hold
#: (1073741823 on 64-bit builds); wopp and eig build one.
_SQUARE_MAX_N = math.isqrt(np.iinfo(np.intp).max // 8)
#: The run-record columns that ``aggregate.csv`` reduces to min/mean/max.
_AGG_COLUMNS = ["nitr", "nfe", "nge", "time_s", "fval", "nrmg", "feasi", "error"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def _build_instance(cfg: dict, seed: int):
    """One seeded ``(problem, x0, naming, error)``: the instance and the start
    share a stream, ``naming`` is the ``instance:`` line that describes them,
    and ``error(report)`` is a run's error column (the family's oracle)."""
    rng = as_generator(seed)
    family = cfg["family"]
    n, p = cfg["n"], cfg["p"]
    error = lambda report: None  # no oracle
    if family == "wopp":
        problem = WoppProblem.generate(
            n, p, ptype=cfg["ptype"], rng=rng,
            known_solution=cfg["known_solution"], seed=seed,
        )
        naming = (
            f"instance: wopp ptype={cfg['ptype']} on St({n}, {p}) "
            f"[procrustes naming: m={n}, n={p}, A {n}x{n}, C {p}x{p}, B {n}x{p}]"
        )
        if cfg["known_solution"]:
            error = lambda report: report.fval  # the optimum value is 0
    elif family == "energy":
        problem = EnergyProblem(n, p, mu=cfg["mu"])
        naming = f"instance: energy on St({n}, {p}) with mu={cfg['mu']}"
    else:
        problem = EigProblem.generate(n, p, rng=rng, seed=seed)
        naming = f"instance: eig on St({n}, {p})"
        error = lambda report: problem.relative_error(report.x)
    x0 = random_orthonormal(n, p, rng)
    return problem, x0, naming, error


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


def _run_points(cfg: dict, solver_params: dict, points: list[dict], solvers: list) -> int:
    """Build each (instance setting, seed) once, solve it at every point of that
    setting with the point's solver, and write one set of tables, point by point."""
    labels = [" ".join(f"{k}={_fmt(v)}" for k, v in point.items()) for point in points]
    by_point = [[] for _ in points]  # each point's rows, in sim order
    history = []
    for sim in range(cfg["sims"]):
        seed = cfg["seed"] + sim
        built = {}  # this seed's instance of each instance setting
        for point, solver, label, rows in zip(points, solvers, labels, by_point):
            setting = tuple((k, v) for k, v in point.items() if k in _SETTINGS)
            if setting not in built:
                built[setting] = _build_instance({**cfg, **point}, seed)
                if sim == 0:
                    print(built[setting][2])
            problem, x0, naming, error = built[setting]
            report = solver.solve(problem, x0)
            rows.append({**point, "sim": sim, "seed": seed, **report.to_dict(),
                         "error": error(report)})
            if sim == 0 and cfg["history"]:
                records = report.to_dict(include_history=True)["history"]
                history += [{**point, **record} for record in records]
            tag = f"[{label}] " if label else ""
            print(
                f"{tag}sim {sim + 1}/{cfg['sims']} seed={seed} "
                f"nitr={report.nitr} nfe={report.nfe} fval={report.fval:.6e} "
                f"nrmg={report.nrmg:.3e} feasi={report.feasi:.3e} {report.termination}"
            )
    aggregate = []
    for point, label, rows in zip(points, labels, by_point):
        point_agg = [{**point, **row} for row in _aggregate(rows)]
        aggregate += point_agg
        _print_aggregate(point_agg, f"aggregate over {cfg['sims']} runs {label}".rstrip())
    runs = [row for rows in by_point for row in rows]
    outdir = Path(cfg["out"])
    _write_csv(outdir / "runs.csv", list(runs[0]), runs)
    _write_csv(outdir / "aggregate.csv", list(aggregate[0]), aggregate)
    if history:
        _write_csv(outdir / "history.csv", list(history[0]), history)
    summary = {"config": cfg, "solver_params": solver_params, "points": points,
               "runs": runs, "aggregate": aggregate,
               "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(f"wrote {outdir}")
    return 0 if all(run["converged"] for run in runs) else 1


def _parse_vary(text: str) -> tuple[str, list]:
    """``KEY=VALUES`` as ``(KEY, values)``: a comma list typed like the setting's default
    (a bool as JSON's true/false) or a float range 'start:step:stop'; ``_grid`` vets KEY."""
    key, _, text = text.partition("=")
    default = _DEFAULTS.get(key, ("",))[0]
    if ":" in text and isinstance(default, float):
        start, step, stop = (float(s) for s in text.split(":"))  # ValueError unless three
        if not (math.isfinite(start) and math.isfinite(stop) and 0 < step < math.inf):
            raise argparse.ArgumentTypeError(
                f"range needs a finite start:step:stop with step > 0, got {text!r}"
            )
        last = (stop - start + 1e-12) / step  # index of the last point, before flooring
        if last >= 1001:
            raise argparse.ArgumentTypeError(
                f"range gives more than 1001 points (a 1e-3 grid on [0, 1]), got {text!r}"
            )
        return key, [round(start + i * step, 12) for i in range(math.floor(max(last, -1.0)) + 1)]
    parse = json.loads if isinstance(default, bool) else type(default)
    return key, [parse(s) for s in text.split(",") if s.strip()]


def _grid(vary: list) -> list[dict]:
    """The points of ``vary``, a list of ``{KEY: [values]}`` axes: keys of one axis
    move together, each on one axis; the axes cross, the first outermost. An int for
    a float setting is the float its flag parses from the same text (inf if huge)."""
    points = [{}]
    for axis in vary:
        if not (isinstance(axis, dict) and all(isinstance(v, list) and v for v in axis.values())):
            raise SystemExit(f"error: vary needs nonempty {{KEY: [values]}} lists, got {axis}")
        if bad := sorted(axis.keys() - (_DEFAULTS.keys() - _RUN - points[0].keys())):
            raise SystemExit(f"error: vary takes instance and solver settings, each on one "
                             f"axis, got {bad}")
        if len({len(values) for values in axis.values()}) != 1:  # {}: no values at all
            raise SystemExit(f"error: vary keys moved together need as many values, got {axis}")
        axis = {key: [float(str(v)) if isinstance(_DEFAULTS[key][0], float) and _typed_like(v, 0.0)
                      else v for v in values] for key, values in axis.items()}
        points = [{**p, **dict(zip(axis, row))} for p in points for row in zip(*axis.values())]
    return points


def _typed_like(value, default) -> bool:
    """The type rule of the flags: an int may stand for a float, a bool only for a bool."""
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, bool) == isinstance(default, bool) and isinstance(value, kind)


def _resolve_config(args: argparse.Namespace) -> tuple[dict, dict, list[dict], list]:
    """Merge defaults, the JSON config file, and explicit flags into the base
    config, the solver parameters, the grid's points and each point's solver.
    Every point is checked before any instance is built: its instance and run
    settings here, its solver settings by ``validate_params``."""
    defaults = {key: default for key, (default, _) in _DEFAULTS.items()}
    merged = dict(defaults)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise SystemExit(f"error: config {args.config} must be a JSON object")
        if "solver_params" in loaded:  # a summary.json: its settings, its results ignored
            parts = (loaded.get("config", {}), loaded["solver_params"])
            if not all(isinstance(part, dict) for part in parts):
                raise SystemExit(f"error: summary {args.config} needs JSON objects as its "
                                 "config and solver_params")
            loaded = {**parts[0], **parts[1]}
        for key in loaded:
            if key not in defaults:
                raise SystemExit(f"error: unknown config key {key!r}")
        merged.update(loaded)
    flags = {**vars(args), "vary": args.vary and [dict(axis) for axis in args.vary]}
    merged.update((k, v) for k, v in flags.items() if k in defaults and v is not None)
    base = {key: merged.pop(key) for key in defaults if key in _SETTINGS}
    points = _grid(base["vary"]) if isinstance(base["vary"], list) else [{}]  # else refused below
    solvers = []
    for point in points:
        cfg = {key: point.get(key, value) for key, value in base.items()}
        for key, value in cfg.items():
            if not _typed_like(value, defaults[key]):
                kind = type(defaults[key]).__name__
                raise SystemExit(f"error: {key} must be {kind}, got {value!r}")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise SystemExit(f"error: {key} must be one of {_CHOICES[key]}, got {value!r}")
        if cfg["family"] == "energy":  # the other families ignore mu
            _checked_mu(cfg["mu"])
        if cfg["sims"] < 1:
            raise SystemExit(f"error: sims must be an int >= 1, got {cfg['sims']!r}")
        if not 1 <= cfg["p"] <= cfg["n"]:
            raise SystemExit(f"error: St(n, p) needs 1 <= p <= n, got n={cfg['n']}, p={cfg['p']}")
        if cfg["n"] > np.iinfo(np.intp).max:
            raise SystemExit(
                f"error: n must be at most {np.iinfo(np.intp).max}, the largest array "
                f"dimension, got n={cfg['n']}"
            )
        if cfg["family"] in ("wopp", "eig") and cfg["n"] > _SQUARE_MAX_N:
            raise SystemExit(
                f"error: {cfg['family']} builds an n x n array, so n must be at most "
                f"{_SQUARE_MAX_N}, got n={cfg['n']}"
            )
        solvers.append(StiefelSolver(**{key: point.get(key, v) for key, v in merged.items()}))
        solvers[-1].validate_params()
    return base, merged, points, solvers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stiefel-bench",
        description="Seeded benchmarks for the Stiefel-manifold solver.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = subs.add_parser("run", help="solve N seeded instances at every point of a grid")
    sub.add_argument("--config", help="JSON config file, or a run's summary.json")
    for key, (default, doc) in _DEFAULTS.items():
        if isinstance(default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
        elif key == "vary":
            kind = {"type": _parse_vary, "nargs": "+", "action": "append", "metavar": "KEY=VALUES"}
        else:
            kind = {"type": type(default), "choices": _CHOICES.get(key)}
        sub.add_argument("--" + key.replace("_", "-"), help=doc, **kind)
    args = parser.parse_args(argv)
    try:
        return _run_points(*_resolve_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
