"""Benchmark of ``StiefelSolver.solve`` on three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload energy-tall --seed 0 --seconds 25 --trace 0

The package is imported from the checkout's ``src/`` (it need not be
installed) and the run stops with an error if ``stiefelopt`` resolves to a
file outside the checkout.  BLAS is pinned to one thread before numpy loads,
so the counts repeat exactly for a given seed.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics named in ``BENCHMARK.json``.  The end-to-end times are CPU times of
this process (see ``harness.py``); the wall-clock figures are printed too.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A traced run also writes its spans to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SPEC = CHECKOUT / "BENCHMARK.json"

#: Pinned BLAS thread count (at most ``nproc``): one thread fixes the
#: reduction order, so ``nitr``/``nfe``/``nge`` repeat exactly.
BLAS_THREADS = "1"

#: Set-up is sampled until it has taken this much CPU time (the instance set
#: is built once in any case); ``setup_s`` is the median CPU time to set up
#: one instance.
SETUP_MIN_SECONDS = 0.5


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _import_checkout():
    """Import ``stiefelopt`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import stiefelopt
    except ImportError as err:
        raise SystemExit(f"error: cannot import stiefelopt from {CHECKOUT / 'src'}: {err}")
    location = Path(stiefelopt.__file__).resolve()
    if CHECKOUT not in location.parents:
        raise SystemExit(f"error: stiefelopt resolved to {location}, outside the checkout {CHECKOUT}")
    return stiefelopt


def _load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SystemExit(f"error: cannot read {SPEC}: {err}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = _load_spec()
    _pin_blas_threads()
    stiefelopt = _import_checkout()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(harness.environment(CHECKOUT, stiefelopt), sort_keys=True))

    setup_times: list[float] = []
    instances = [
        harness.timed_build(workload, args.seed + i, setup_times) for i in range(workload.instances)
    ]
    # Set-ups that took less than SETUP_MIN_SECONDS in all are repeated after
    # the first solve of each instance, in equal shares, so that ``setup_s``
    # samples the whole run: on a shared host the speed of small operations
    # drifts over seconds.
    share = max(0.0, SETUP_MIN_SECONDS - sum(setup_times)) / workload.instances

    def resample_setup(i: int) -> None:
        start = len(setup_times)
        while sum(setup_times[start:]) < share:
            harness.timed_build(workload, args.seed + i, setup_times)

    solver = stiefelopt.StiefelSolver(**workload.solver_params)
    harness.run_solve(solver.solve, workload, *instances[0])  # warm-up, discarded

    if args.trace:
        out_dir = CHECKOUT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{args.seed}.csv"
        # Each traced instance is solved twice (untraced, then traced), so a
        # traced run covers the first half of the instances.
        instances = instances[: max(1, len(instances) // 2)]
        outcomes, values, notes, lines = harness.traced_run(
            solver, workload, instances, args.seconds, span_file
        )
        wanted = spec["per_layer"]
    else:
        outcomes = harness.closed_loop(solver, workload, instances, args.seconds, resample_setup)
        values, notes, lines = harness.end_to_end(outcomes, workload.instances, setup_times)
        wanted = spec["end_to_end"]

    for line in lines:
        print(line)
    for m in wanted:
        print(f"{m['name']} {values[m['name']]} {m['unit']} ({notes[m['name']]})")
    for i, o in enumerate(outcomes):
        if o.error is not None:
            print(f"FAILED solve {i} (instance seed {args.seed + i % len(instances)}): {o.error}")
    failed = sum(o.error is not None for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
