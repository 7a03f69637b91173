"""Sweep benchmark for triqubit: end-to-end throughput through the CLI.

Run from the repository root:

    python3 bench/run.py --workload local_scatter --seed 1 --seconds 20 --trace 0

Each workload repeats one seeded CLI sweep (``triqubit.cli.main`` on a config
generated from ``--seed``) back to back for ``--seconds`` seconds, gates every
record it writes, and prints one JSON result line last. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends the first half of the time
untraced and the second half with every public triqubit function wrapped in
a span, and reports the per-layer metrics plus the tracing overhead. Full
details (environment, CSV hashes, per-round numbers, percentiles) go to
``.bench_out/`` under the repository root. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy can be imported anywhere.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED = {var: {"was": os.environ.get(var), "now": "1"} for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
from tracer import Tracer, layer_report, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Records per timed round of a random sweep. Rounds are short so that a run
# holds dozens of them: on a shared machine, interference from other
# processes slows a round for seconds at a time, and only many short rounds
# leave some that ran undisturbed (see README, "Estimators").
SCATTER_SAMPLES = 50
# Records of the untimed reference sweep, which fixes first_law_rel_p50 and
# warms every lazy cache before the first timed round.
REFERENCE_SAMPLES = 200

WORKLOADS = {
    "local_scatter": {"command": "sweep-random", "config": "configs/local_scatter.json", "workers": 1},
    "global_scatter": {"command": "sweep-random", "config": "configs/global_scatter.json", "workers": 1},
    "boost_pool": {"command": "sweep-boost", "config": "configs/boost.json", "workers": 2},
}

MIN_ROUNDS = 3
ORACLE_RECORDS = 3
SETUP_REPEATS = 15


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def seeded_config(workload: str, base: dict, seed: int | None) -> tuple:
    """Config the CLI reads for one round, and the records it must yield.

    seed None gives the reference config: the bundled file's own seed and
    grid. Random sweeps take a 62-bit ``master_seed`` drawn from ``seed``:
    the program seeds point k from ``master_seed XOR k``, so small seeds
    used directly would draw the same points in another order. The boost
    grid keeps its spacing and shifts by a seeded fraction of one step, so
    the refrigerator window and its zero-work edge stay inside the scan.
    """
    data = dict(base)
    if WORKLOADS[workload]["command"] == "sweep-random":
        if seed is None:
            data["n_samples"] = REFERENCE_SAMPLES
        else:
            data["n_samples"] = SCATTER_SAMPLES
            data["master_seed"] = random.Random(seed).getrandbits(62)
        return data, data["n_samples"]
    if seed is not None:
        step = (data["B2_max"] - data["B2_min"]) / (data["n_points"] - 1)
        shift = random.Random(seed).random() * step
        data["B2_min"] += shift
        data["B2_max"] += shift
    return data, data["n_points"] + 1  # grid points plus the edge record


def cpu_seconds() -> float:
    """User+sys CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs CLI rounds of one workload and gates every file they write."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        from triqubit import cli

        self.cli = cli
        self.spec = WORKLOADS[workload]
        self.workload = workload
        self.workers = min(self.spec["workers"], nproc())
        base = json.loads((ROOT / self.spec["config"]).read_text())
        self.work_dir = work_dir
        self.configs = {}
        for label, s in (("reference", None), ("seeded", seed)):
            data, expected = seeded_config(workload, base, s)
            path = work_dir / f"{workload}-{label}.json"
            path.write_text(json.dumps(data, indent=2) + "\n")
            self.configs[label] = (path, expected)
        self.attempted = 0
        self.failed: dict = {}  # (round label, index) -> violations
        self.rounds: list = []

    def round(self, label: str, which: str = "seeded") -> dict:
        cfg_path, expected = self.configs[which]
        csv_path = self.work_dir / f"{self.workload}-{which}.csv"
        # A file left by an earlier round must not stand in for this one's.
        csv_path.unlink(missing_ok=True)
        argv = [
            self.spec["command"],
            "--config", str(cfg_path),
            "--out", str(csv_path),
            "--workers", str(self.workers),
        ]
        out, err = io.StringIO(), io.StringIO()
        cal_before = calibrate.kernel_seconds()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        cal_s = 0.5 * (cal_before + calibrate.kernel_seconds())
        info = self._gate(label, csv_path, expected)
        info.update(label=label, exit_code=code, wall_s=wall, cpu_s=cpu, cal_s=cal_s)
        if code != 0:
            info["stderr"] = err.getvalue()[-2000:]
            for idx in range(expected):
                self.failed.setdefault((label, idx), []).append(f"exit_code:{code}")
        return info

    def _gate(self, label: str, csv_path: Path, expected: int) -> dict:
        self.attempted += expected
        try:
            report = gate.check_file(str(csv_path), expected)
        except (OSError, ValueError, KeyError) as exc:
            for idx in range(expected):
                self.failed[(label, idx)] = [f"unreadable:{exc}"]
            return {"records": 0, "sha256": None, "first_law_rel_max": None, "first_law_rel_p50": None}
        for idx, bad in report["failed"].items():
            self.failed[(label, idx)] = bad
        if self.spec["command"] == "sweep-boost":
            rows = gate.read_rows(str(csv_path))
            if not rows or "edge" not in rows[-1]["flags"].split(";"):
                self.failed[(label, expected - 1)] = ["no_edge_record"]
        return {
            "records": report["records"],
            "sha256": gate.sha256(str(csv_path)),
            "first_law_rel_max": report["first_law_rel_max"],
            "first_law_rel_p50": report["first_law_rel_p50"],
            "warning_records": report["warnings"],
        }

    def timed_rounds(self, seconds: float, prefix: str) -> list:
        rounds = []
        t_end = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < t_end:
            rounds.append(self.round(f"{prefix}{len(rounds)}"))
        self.rounds.extend(rounds)
        return rounds

    def check_hashes(self) -> None:
        """Every seeded round of one invocation must write the same bytes."""
        first = self.rounds[0]["sha256"]
        for info in self.rounds[1:]:
            if info["sha256"] != first:
                for idx in range(self.configs["seeded"][1]):
                    self.failed.setdefault((info["label"], idx), []).append("hash_mismatch")

    def oracle(self, seed: int) -> list:
        """Oracle agreement for a few seeded records, outside any timing."""
        label = self.rounds[-1]["label"]  # the round that wrote the file
        try:
            rows = gate.read_rows(str(self.work_dir / f"{self.workload}-seeded.csv"))
        except (OSError, ValueError) as exc:
            self.failed.setdefault((label, -1), []).append(f"oracle_unreadable:{exc}")
            return []
        solved = [r for r in rows if r["Q1"] != ""]
        picks = random.Random(seed).sample(solved, min(ORACLE_RECORDS, len(solved)))
        results = []
        for row in picks:
            res = gate.oracle_check(row)
            results.append(res)
            if not res["ok"]:
                self.failed.setdefault((label, res["index"]), []).append("oracle")
        return results

    def verdict(self) -> dict:
        """The result line's correctness fields; any failed record fails the run."""
        return {
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": len(self.failed),
        }


def per_record(rounds: list, key: str, scale: float = 1.0) -> list:
    """key per record of each round, rescaled to the reference machine speed."""
    return [
        scale * r[key] / r["records"] * calibrate.REFERENCE_S / r["cal_s"]
        for r in rounds
        if r["records"]
    ]


def setup_times(workload: str, cfg_path: Path) -> list:
    """Import + config parse + first point, each in a fresh interpreter.

    Returns (raw seconds, cal_s) pairs; the calibration kernel runs just
    before and after each probe, as around a timed round.
    """
    probe = BENCH_DIR / "setup_probe.py"
    kind = WORKLOADS[workload]["command"]
    samples = []
    for _ in range(SETUP_REPEATS):
        cal_before = calibrate.kernel_seconds()
        proc = subprocess.run(
            [sys.executable, str(probe), str(ROOT), str(cfg_path), kind],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        cal_s = 0.5 * (cal_before + calibrate.kernel_seconds())
        samples.append((float(proc.stdout.strip().splitlines()[-1]), cal_s))
    return samples


def environment(workers: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead
        buf = io.StringIO()
        with redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "pinned_threads": PINNED,
        "workers": workers,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple:
    """Run one workload; returns (result line, sidecar details)."""
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, work_dir)
    reference = runner.round("reference", which="reference")  # also the warm-up
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    details["environment"] = environment(runner.workers)

    if args.trace:
        plain = runner.timed_rounds(args.seconds / 2.0, "plain")
        tracer = Tracer()
        with tracer.installed():
            traced = runner.timed_rounds(args.seconds / 2.0, "traced")
        wall_plain = statistics.median(per_record(plain, "wall_s"))
        wall_traced = statistics.median(per_record(traced, "wall_s"))
        layers = layer_report(tracer)
        layers["trace.overhead_frac"] = {
            "value": wall_traced / wall_plain - 1.0,
            "unit": "ratio",
            "summary": {"untraced_s_per_record": wall_plain, "traced_s_per_record": wall_traced},
        }
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write_spans(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["span_count"] = len(tracer.start)
        details["layers"] = layers
        metrics = {name: _metric(m["value"], m["unit"]) for name, m in layers.items()}
    else:
        rounds = runner.timed_rounds(args.seconds, "round")
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup = setup_times(args.workload, runner.configs["seeded"][0])
        rates = [1.0 / t for t in per_record(rounds, "wall_s")]
        cpu_ms = per_record(rounds, "cpu_s", 1e3)
        details["setup_s_samples"] = setup
        details["round_stats"] = {
            "points_per_s": summarize(rates),
            "cpu_ms_per_point": summarize(cpu_ms),
            "raw_points_per_s": summarize([r["records"] / r["wall_s"] for r in rounds]),
        }
        metrics = {
            "points_per_s": _metric(statistics.median(rates), "1/s"),
            "cpu_ms_per_point": _metric(statistics.median(cpu_ms), "ms"),
            "setup_s": _metric(
                statistics.median(t * calibrate.REFERENCE_S / c for t, c in setup), "s"
            ),
            "peak_rss_mb": _metric((own + kids) / 1024.0, "MB"),
            "first_law_rel_p50": _metric(reference["first_law_rel_p50"] or 0.0, "ratio"),
        }

    runner.check_hashes()
    details["oracle"] = runner.oracle(args.seed)
    details["reference"] = reference
    details["rounds"] = runner.rounds
    details["csv_sha256"] = sorted({r["sha256"] for r in runner.rounds if r["sha256"]})
    details["failed_records"] = {f"{k[0]}:{k[1]}": v for k, v in sorted(runner.failed.items())}
    details["metrics"] = metrics
    side = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(details, indent=1, default=str) + "\n")

    return {**runner.verdict(), "metrics": metrics}, details


def print_summary(result: dict, details: dict) -> None:
    env = details["environment"]
    print(
        f"# workload={details['workload']} seed={details['seed']} trace={details['trace']} "
        f"workers={env['workers']} nproc={env['nproc']} numpy={env['numpy']} "
        f"scipy={env['scipy']} threads pinned to 1"
    )
    print(f"# csv sha256: {' '.join(details['csv_sha256'])}")
    print(
        f"# records attempted={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed'] / result['attempted']:.6g}"
    )
    for name, m in details.get("layers", {}).items():
        s = m["summary"]
        tail = ""
        if s.get("tail_q") is not None:
            tail = f"  p{s['tail_q']:g}={s['tail']:.6g}"
        n = f"  n={s['n']}" if "n" in s else ""
        print(f"# {name:<42} {m['value']:.6g} {m['unit']}{tail}{n}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        p for p in ("src/triqubit/cli.py", WORKLOADS[args.workload]["config"])
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"bench: cannot find {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, details = run(args)
    print_summary(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
