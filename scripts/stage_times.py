"""Print the in-process time per point of each pipeline stage of one config.

    python3 scripts/stage_times.py configs/global_scatter.json
    python3 scripts/stage_times.py local_scatter /path/to/parent /path/to/this --rounds 9

CONFIG is a config file, or the name of one in the ``configs/`` of the
first ROOT; a random-sweep config gives its first ``--points`` draws, a
grid config its grid points. Each ROOT is a checkout whose ``src/`` is
timed; the default is the checkout holding this script. Each root runs in
a child interpreter of its own, on the points that are clean (whose
``evaluate_point`` record carries no error flag) in every root, and the
rounds alternate between the roots, so that drift of the host reads as
spread rather than as a difference between them. Within a round each
stage runs over all points on inputs prepared beforehand, the stages one
after the other. Besides the solve, the stages of the sweeps module show:
``draw_params`` (random configs) or ``_grid_params`` (grid configs) per
point; ``_chunk_records`` per point, the report half of the record body
``_run_records`` (each report kind one stacked pass over a run, of the
grid's chunk size on grid configs and of one point on random configs,
from solutions prepared beforehand, into a Records), next to the
one-point ``thermo_report`` and ``correlation_report``, and after it
``thermo._thermo_rows`` per point, the stacked bookkeeping of those runs
alone on their currents in hand; on grid configs, ``_evaluate_many`` per
point, the whole chunk route that a grid scan takes on one worker, and
``_evaluate_many/2`` per point, the same route at two workers in wall
time, whose note gives the CPU milliseconds and the minor page faults per
scan of the forked process, and ``share_transport`` per scan, the records
of that process's share, evaluated beforehand, encoded as it sends them
and decoded as the invoking process takes them; ``write_records`` per
record, of the records the chunk route hands it, and, on a grid with a
refrigerator window, the boost scan's ``_locate_edge`` per scan, each
round from an empty map of the points it solves. A comment line after
the table gives the number of new solves that search makes; on grid
configs, one per root gives the pool's
fixed cost, the wall milliseconds of one empty two-worker round trip
(fork, pipe, reap, no points) and the minor page faults of its child; and
one per root the peak RSS (``ru_maxrss``) of its child interpreter. The
notes are those of the last round.

With one root, one line per stage gives the minimum and the median over
the rounds of its microseconds per point. With several, each stage that
every root has gets one line per root, with the ratio of its minimum and
of its median to the first root's. BLAS runs on one thread, and glibc's
heap thresholds are pinned as the CLI pins them, so the numbers compare
with the benchmark's CLI runs. Stages below about 0.05 ms per point,
which a traced benchmark run cannot resolve, show here.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def _config_path(config: str, root: Path) -> Path:
    path = Path(config)
    return path if path.exists() else root / "configs" / f"{config}.json"


def _stages(cfg, indices, all_points, out_dir):
    """(name, run, units) of every stage.

    run() covers units points, records or scans and returns a note to print
    after the table, or None.
    """
    from triqubit import correlations, global_me, local_me, model, steady_state, sweeps, thermo

    points = [all_points[k] for k in indices]
    epsilon = cfg.epsilon
    harmonic = points[0].bath_model == model.BATH_HARMONIC
    H = [model.build_hamiltonian(p) for p in points]
    spectra = [model.sector_spectrum(h) for h in H]
    builder = global_me.build_global_generators if harmonic else local_me.build_local_generators
    # a builder that takes a sequence of points gets one point at a time
    build = [([p],) if "points" in inspect.signature(builder).parameters else (p,)
             for p in points]
    sols = [steady_state.solve_point(p) for p in points]
    grid = isinstance(cfg, sweeps.GridScanConfig)
    chunk = sweeps._GRID_CHUNK if grid else 1
    # the records the CLI hands write_records: the chunk route's columns
    written = sweeps._evaluate_many(points, epsilon, 1, chunk)
    if grid:
        draw = ("sweeps._grid_params", sweeps._grid_params, [(cfg, p.B[1]) for p in points])
    else:
        draw = ("sweeps.draw_params", sweeps.draw_params, [(cfg, k) for k in indices])
    calls = [
        draw,
        ("model.build_hamiltonian", model.build_hamiltonian, [(p,) for p in points]),
        ("model.sector_spectrum", model.sector_spectrum, [(h,) for h in H]),
        (f"{builder.__module__.split('.')[-1]}.{builder.__name__}", builder, build),
    ]
    if harmonic:
        calls += [
            ("global_me.jump_operators", global_me.jump_operators, [(s,) for s in spectra]),
            ("global_me.site_rate_matrices", global_me.site_rate_matrices,
             [(sol.generators,) for sol in sols]),
        ]
    calls += [
        ("steady_state.solve_point", steady_state.solve_point, [(p,) for p in points]),
        ("thermo.thermo_report", thermo.thermo_report, [(sol, epsilon) for sol in sols]),
        ("correlations.correlation_report", correlations.correlation_report,
         [(sol.rho, sol.params) for sol in sols]),
        ("sweeps.evaluate_point", sweeps.evaluate_point, [(p, epsilon) for p in points]),
    ]
    stages = [(name, _calling(fn, args), len(args)) for name, fn, args in calls]
    # the report half of the record body, next to the one-point reports:
    # the runs one worker gets, each from its solutions in hand
    runs = math.ceil(len(points) / chunk)
    size = math.ceil(len(points) / runs)
    chunks = [points[start:start + size] for start in range(0, len(points), size)]
    reported = [(run, steady_state.solve_points(run), epsilon) for run in chunks]
    at = [name for name, _, _ in stages].index("correlations.correlation_report") + 1
    stages.insert(at, ("sweeps._chunk_records", _calling(_report_half(sweeps), reported),
                       len(points)))
    # the stacked bookkeeping alone, on each run's currents in hand
    bookkept = [(sols, epsilon, None if harmonic else _current_rows(local_me, sols))
                for _, sols, _ in reported]
    stages.insert(at + 1, ("thermo._thermo_rows", _calling(thermo._thermo_rows, bookkept),
                           len(points)))
    if grid:
        # the grid's chunk route, serial and at the benchmark's two workers
        chunked = [(points, epsilon, 1, chunk)]
        stages.append(("sweeps._evaluate_many", _calling(sweeps._evaluate_many, chunked),
                       len(points)))
        stages.append(("sweeps._evaluate_many/2", _pooled(sweeps._evaluate_many, points, epsilon,
                                                          chunk), len(points)))
        stages.append(("sweeps.share_transport", _transport(sweeps, points, epsilon, chunk), 1))
    path = out_dir / "records.csv"
    stages.append(("sweeps.write_records",
                   lambda: sweeps.write_records(written, path, "stage_times", cfg), len(written)))
    edge = _edge_search(cfg, all_points) if grid else None
    return stages + ([edge] if edge else [])


def _report_half(sweeps):
    """f(points, sols, epsilon): the Records of a run from its solutions sols.

    It is sweeps._run_records on the solutions in hand, its rows taken into
    a Records as a share's are. The stage keeps the name of the function
    it replaced, sweeps._chunk_records, so that the timings of older
    checkouts read side by side with it.
    """
    return lambda points, sols, epsilon: sweeps.Records.from_rows(
        range(len(points)), points, *zip(*sweeps._run_records(points, epsilon, sols)),
        epsilon=epsilon)


def _current_rows(local_me, sols):
    """(q, Q, W, C) of each of sols, from one stack of its local currents."""
    import numpy as np

    columns = local_me._current_columns(np.array([sol.rho for sol in sols]),
                                        [sol.generators for sol in sols])
    return list(zip(*(column.tolist() for column in columns)))


def _transport(sweeps, points, epsilon, chunk):
    """A stage's run(): the pipe's share of the two-worker chunk route, encoded and decoded.

    The share is the runs a forked process takes at two workers, evaluated
    beforehand; a run encodes its records as the forked process does and
    decodes them as the invoking process does.
    """
    runs = 2 * math.ceil(len(points) / (2 * chunk))
    size = math.ceil(len(points) / runs)
    tasks = [(start, points[start:start + size], epsilon) for start in range(0, len(points), size)]
    share = tasks[len(tasks) // 2:]
    records = sweeps._share_records(share)
    share_points = [p for _, run, _ in share for p in run]

    def run():
        sweeps._share_columns(sweeps._share_payload(records), share_points, epsilon)

    return run


def _calling(fn, args):
    """A stage's run(): fn over every argument tuple, with no note."""
    def run():
        for call in args:
            fn(*call)

    return run


def _pooled(evaluate_many, points, epsilon, chunk):
    """A stage's run(): the chunk route at two workers; its note gives the child's costs.

    The CPU and the minor page faults of the forked process are the
    RUSAGE_CHILDREN deltas over the call, which count it once the pool has
    reaped it.
    """
    import resource

    def run():
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        evaluate_many(points, epsilon, 2, chunk)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime) * 1e3
        faults = after.ru_minflt - before.ru_minflt
        return (f"sweeps._evaluate_many/2 children take {cpu:.1f} ms CPU "
                f"and {faults} minor page faults per scan")

    return run


def _round_trip_note(sweeps) -> str:
    """The pool's fixed cost: one empty two-worker round trip, in ms, and its child's faults.

    A round trip forks one share of no runs, reads its pipe to EOF and
    reaps it; its minor page faults are the RUSAGE_CHILDREN delta.
    """
    import resource

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter_ns()
    sweeps._ForkedShare([]).records()
    ms = (time.perf_counter_ns() - start) / 1e6
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return (f"pool fixed cost: an empty two-worker round trip takes {ms:.2f} ms "
            f"and {faults} child minor page faults")


def _edge_search(cfg, points):
    """The boost scan's edge search from the grid's records, or None without a window.

    Each run starts from an empty map of the points it solves, so that it
    solves the same new points every round; its note gives their count.
    """
    from triqubit import sweeps
    from triqubit.thermo import Regime

    grid = [sweeps.evaluate_point(p, cfg.epsilon) for p in points]
    if not any(rec.thermo is not None and rec.thermo.regime is Regime.IV for rec in grid):
        return None
    b2 = [rec.params.B[1] for rec in grid]
    w = [None if rec.thermo is None else rec.thermo.W for rec in grid]

    def run():
        fresh = {}
        sweeps._locate_edge(cfg, b2, w, fresh)
        return f"sweeps._locate_edge makes {len(fresh)} new solves per scan"

    run()  # a first search, so that every timed round finds the same caches warm
    return ("sweeps._locate_edge", run, 1)


def _send(message) -> None:
    print(json.dumps(message), flush=True)


def _child(root: Path, path: Path, n_points: int) -> None:
    """Times one root's stages, one round per "round" line on stdin.

    Writes one JSON line for each request: the number of points and the
    indices of the clean ones, then the stage names for the indices it is
    sent, then each round's microseconds per point of every stage and the
    notes its stages return.
    """
    import resource

    sys.path.insert(0, str(root / "src"))
    from triqubit import cli, sweeps

    cli._pin_heap_trim()
    data = json.loads(path.read_text())
    if "n_points" in data:
        cfg = sweeps.GridScanConfig(**data)
        points = sweeps._grid_points(cfg)
    else:
        cfg = sweeps.SweepConfig(**data)
        points = [sweeps.draw_params(cfg, k) for k in range(n_points)]
    _send({"points": len(points), "clean": [
        k for k, p in enumerate(points)
        if not any(f.startswith("error:") for f in sweeps.evaluate_point(p, cfg.epsilon).flags)]})
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out_dir:
        warnings.simplefilter("ignore")
        line = sys.stdin.readline()
        if not line:  # no point is clean in every root
            return
        stages = _stages(cfg, json.loads(line), points, Path(out_dir))
        _send([name for name, _, _ in stages])
        for _ in sys.stdin:
            times, notes = {}, []
            for name, run, units in stages:
                start = time.perf_counter_ns()
                note = run()
                times[name] = (time.perf_counter_ns() - start) / 1e3 / units
                if note is not None:
                    notes.append(note)
            if isinstance(cfg, sweeps.GridScanConfig):
                notes.append(_round_trip_note(sweeps))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            notes.append(f"child interpreter peak RSS {peak:.1f} MB")
            _send({"times": times, "notes": notes})


def _receive(proc):
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a timing child exited with code {proc.wait()}")
    return json.loads(line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # child mode: --child ROOT CONFIG_PATH N_POINTS
        _child(Path(argv[1]), Path(argv[2]), int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="config file, or the name of one in configs/")
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent],
                        help="checkouts whose src/ is timed, the first the reference")
    parser.add_argument("--points", type=int, default=200, help="points of a random sweep")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.roots]
    path = _config_path(args.config, roots[0]).resolve()
    procs = [subprocess.Popen([sys.executable, __file__, "--child", str(root), str(path),
                               str(args.points)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for root in roots]
    try:
        found = [_receive(proc) for proc in procs]
        n_points = found[0]["points"]
        clean = sorted(set.intersection(*(set(f["clean"]) for f in found)))
        if not clean:
            print(f"no clean point among {n_points}", file=sys.stderr)
            return 1
        for proc in procs:
            proc.stdin.write(json.dumps(clean) + "\n")
            proc.stdin.flush()
        names = [_receive(proc) for proc in procs]
        times = [{name: [] for name in root_names} for root_names in names]
        notes = [[] for _ in roots]
        for _ in range(args.rounds):
            for k, (proc, root_times) in enumerate(zip(procs, times)):
                proc.stdin.write("round\n")
                proc.stdin.flush()
                message = _receive(proc)
                for name, us in message["times"].items():
                    root_times[name].append(us)
                notes[k] = message["notes"]
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    head = f"# {path.name}: {len(clean)} clean of {n_points} points, {args.rounds} rounds, "
    if len(roots) == 1:
        print(f"{head}BLAS on 1 thread, root {roots[0]}")
        print(f"{'stage':<40} {'min_us':>10} {'median_us':>10}")
        for name, values in times[0].items():
            print(f"{name:<40} {min(values):>10.1f} {statistics.median(values):>10.1f}")
        _print_notes(notes)
        return 0
    print(f"{head}BLAS on 1 thread, {len(roots)} roots interleaved")
    for k, root in enumerate(roots):
        print(f"# root {k}: {root}")
    print(f"{'stage':<40} {'root':>4} {'min_us':>10} {'median_us':>10} "
          f"{'min_ratio':>10} {'median_ratio':>12}")
    for name in names[0]:
        if not all(name in root_times for root_times in times):
            continue
        first = times[0][name]
        for k, root_times in enumerate(times):
            values = root_times[name]
            low, mid = min(values), statistics.median(values)
            print(f"{name:<40} {k:>4} {low:>10.1f} {mid:>10.1f} "
                  f"{low / min(first):>10.3f} {mid / statistics.median(first):>12.3f}")
    _print_notes(notes)
    return 0


def _print_notes(notes) -> None:
    for k, root_notes in enumerate(notes):
        for note in root_notes:
            print(f"# root {k}: {note}")


if __name__ == "__main__":
    sys.exit(main())
