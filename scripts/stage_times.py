"""Print the in-process time per point of each pipeline stage of one config.

    python3 scripts/stage_times.py configs/global_scatter.json
    python3 scripts/stage_times.py local_scatter /path/to/other/checkout --rounds 9

CONFIG is a config file, or the name of one in ``configs/``; a random-sweep
config gives its first ``--points`` draws, a grid config its grid points.
The optional ROOT is the checkout whose ``src/`` is timed; it defaults to
the checkout holding this script. Each stage runs over the clean points
(those whose ``evaluate_point`` record carries no error flag) on inputs
prepared beforehand, once per round, the stages interleaved within each
round. One line per stage gives the minimum and the median over the rounds
of its microseconds per point. BLAS runs on one thread, and glibc's heap
thresholds are pinned as the CLI pins them, so the numbers compare with
the benchmark's CLI runs. Stages below about 0.05 ms per point, which a
traced benchmark run cannot resolve, show here.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def _config_path(config: str, root: Path) -> Path:
    path = Path(config)
    return path if path.exists() else root / "configs" / f"{config}.json"


def _stages(points, epsilon):
    """(name, function, one argument tuple per point) of every stage."""
    from triqubit import correlations, global_me, local_me, model, steady_state, sweeps, thermo

    harmonic = points[0].bath_model == model.BATH_HARMONIC
    H = [model.build_hamiltonian(p) for p in points]
    spectra = [model.sector_spectrum(h) for h in H]
    builder = global_me.build_global_generators if harmonic else local_me.build_local_generators
    sols = [steady_state.solve_point(p) for p in points]
    stages = [
        ("model.build_hamiltonian", model.build_hamiltonian, [(p,) for p in points]),
        ("model.sector_spectrum", model.sector_spectrum, [(h,) for h in H]),
        (f"{builder.__module__.split('.')[-1]}.{builder.__name__}", builder,
         [(p,) for p in points]),
    ]
    if harmonic:
        stages += [
            ("global_me.jump_operators", global_me.jump_operators, [(s,) for s in spectra]),
            ("global_me.site_rate_matrices", global_me.site_rate_matrices,
             [(sol.generators,) for sol in sols]),
        ]
    return stages + [
        ("steady_state.solve_point", steady_state.solve_point, [(p,) for p in points]),
        ("thermo.thermo_report", thermo.thermo_report, [(sol, epsilon) for sol in sols]),
        ("correlations.correlation_report", correlations.correlation_report,
         [(sol.rho, sol.params) for sol in sols]),
        ("sweeps.evaluate_point", sweeps.evaluate_point, [(p, epsilon) for p in points]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="config file, or the name of one in configs/")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is timed")
    parser.add_argument("--points", type=int, default=200, help="points of a random sweep")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from triqubit import cli, sweeps

    cli._pin_heap_trim()
    path = _config_path(args.config, root)
    data = json.loads(path.read_text())
    if "n_points" in data:
        cfg = sweeps.GridScanConfig(**data)
        points = sweeps._grid_points(cfg)
    else:
        cfg = sweeps.SweepConfig(**data)
        points = [sweeps.draw_params(cfg, k) for k in range(args.points)]
    clean = [p for p in points
             if not any(f.startswith("error:") for f in sweeps.evaluate_point(p, cfg.epsilon).flags)]
    if not clean:
        print(f"no clean point among {len(points)}", file=sys.stderr)
        return 1
    times: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stages = _stages(clean, cfg.epsilon)
        for _ in range(args.rounds):
            for name, fn, calls in stages:
                start = time.perf_counter_ns()
                for call in calls:
                    fn(*call)
                elapsed = time.perf_counter_ns() - start
                times.setdefault(name, []).append(elapsed / 1e3 / len(calls))
    print(f"# {path.name}: {len(clean)} clean of {len(points)} points, "
          f"{args.rounds} rounds, BLAS on 1 thread, root {root}")
    print(f"{'stage':<40} {'min_us':>10} {'median_us':>10}")
    for name, values in times.items():
        print(f"{name:<40} {min(values):>10.1f} {statistics.median(values):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
