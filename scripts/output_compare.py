"""Compare the outputs of two checkouts on the bundled configs, byte by byte and number by number.

Runs every output of ``_runs()`` (the ``sweep-random`` CSVs of both
scatter configs at one and two workers, the ``sweep-valve`` and
``sweep-boost`` CSVs at one and two workers, the ``sweep-valve`` CSV of
the harmonic model at two workers and, with J = Delta = 0, at one and
two workers, three more ``sweep-valve`` CSVs at one and two workers whose
rows carry flags (the harmonic grid at gamma = 0.05, where every row
carries the warning of its generator build; the grid from B2 = 0, whose
row 0 is an error and whose first chunk is split into runs of one; and a
near-equilibrium harmonic grid where 99 rows break the first law, a
count that the rate-matrix bits decide), ``point`` stdout
of the point config and of an unclosed harmonic point set over it, and
``validate --samples 200`` stdout of both scatter configs) with the
``src/`` of each checkout, in one subprocess per checkout and both on
ROOT's ``configs/``:

    python3 scripts/output_compare.py /path/to/parent/checkout [ROOT]

ROOT defaults to the checkout holding this script. BLAS runs on one thread
in both subprocesses, so the outputs do not depend on the BLAS build or the
core count. Each output gets one ``side  sha256  exit_code  name`` line per
checkout. Exit codes, the ``# scan=... config=...`` echo line of each CSV,
every non-numeric CSV cell and JSON leaf, and ``validate`` stdout must be
identical. Numeric CSV cells and numeric ``point`` JSON leaves a, b must
agree within 1e-9 * max(|a|, |b|) + 1e-15; ``nullspace_residual`` is
reported but not gated. Prints, per column, the worst ratio |a - b| /
bound and the number of cells whose text differs at all, and each side's
``first_law_rel_p50`` and ``first_law_rel_max`` as ``bench/gate.py``'s
``check_file`` takes them on the benchmark's reference data: records
0-199 of each one-worker ``sweep-random`` CSV, and the ``sweep-boost``
CSV. ROOT's median may not exceed the parent's by more than the metric's
bound in the ``end_to_end`` list of ``BENCHMARK.json``; the maximum, the
first-law tail, is reported but not gated. The last line is
``result: IDENTICAL`` when every output's bytes and exit code match,
``result: PASS`` when the numbers agree within the bound, and ``result:
FAIL`` on any violation, which exits 1. Each checkout takes a few minutes
on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT_ROOT = Path(__file__).resolve().parent.parent
SCATTER = ("local_scatter", "global_scatter")
# the benchmark's reference data for first_law_rel_p50, per workload: the
# output and how many of its first records (None for all); bench/run.py
# sweeps REFERENCE_SAMPLES = 200 records of each scatter config
FIRST_LAW_REFERENCE = {
    "local_scatter": ("sweep-random local_scatter --workers 1", 200),
    "global_scatter": ("sweep-random global_scatter --workers 1", 200),
    "boost_pool": ("sweep-boost boost", None),
}

FIRST_LAW_HEADER = (f"{'first_law_rel':<18} {'p50 parent':>24} {'p50 root':>24} "
                    f"{'max parent':>24} {'max root':>24}")

RTOL, ATOL = 1e-9, 1e-15
UNGATED = frozenset({"nullspace_residual"})


def _runs():
    """(name, cli argv without --out, output kind) for every compared output."""
    for config in SCATTER:
        for workers in (1, 2):
            yield (f"sweep-random {config} --workers {workers}",
                   ["sweep-random", "--config", config, "--workers", str(workers)], "csv")
    yield "sweep-valve valve", ["sweep-valve", "--config", "valve"], "csv"
    # the grid with mixed sector orders, whose chunks the pool solves too
    yield ("sweep-valve valve --workers 2",
           ["sweep-valve", "--config", "valve", "--workers", "2"], "csv")
    # the harmonic grid, whose chunks go through the same stacked solve
    yield ("sweep-valve valve --set bath_model=harmonic --workers 2",
           ["sweep-valve", "--config", "valve", "--set", "bath_model=harmonic",
            "--workers", "2"], "csv")
    # uncoupled, every point is closed but not fully secular, so its
    # solve reads the eigenbasis blocks of the summed dissipator
    for workers in (1, 2):
        yield (f"sweep-valve valve --set bath_model=harmonic --set J=[0,0,0] "
               f"--set Delta=[0,0,0] --workers {workers}",
               ["sweep-valve", "--config", "valve", "--set", "bath_model=harmonic",
                "--set", "J=[0,0,0]", "--set", "Delta=[0,0,0]", "--workers", str(workers)],
               "csv")
    # a harmonic grid whose every row carries its build's warning, a grid
    # with an error row in its first chunk, which is split into runs of one
    # and solved again, and a harmonic grid whose rate-matrix bits decide
    # which rows break the first law, each an error row of its chunk
    for label, sets in (
        ("warned-harmonic", ["bath_model=harmonic", "gamma=[0.05,0.05,0.05]"]),
        ("error-row", ["B2_min=0"]),
        ("first-law-harmonic", ["bath_model=harmonic", "J=[5.49e-4,2.960e-4,4.963e-4]",
                                "Delta=[7.93e-4,9.67e-4,1.69e-4]",
                                "gamma=[8.71e-7,5.76e-7,7.56e-7]", "T=[1.50015,1.5,1.5]",
                                "B2_max=1"]),
    ):
        for workers in (1, 2):
            yield (f"sweep-valve valve {label} --workers {workers}",
                   ["sweep-valve", "--config", "valve",
                    *(arg for value in sets for arg in ("--set", value)),
                    "--workers", str(workers)], "csv")
    yield "sweep-boost boost", ["sweep-boost", "--config", "boost"], "csv"
    yield ("sweep-boost boost --workers 2",
           ["sweep-boost", "--config", "boost", "--workers", "2"], "csv")
    yield "point point", ["point", "--config", "point"], "stdout"
    # an unclosed harmonic point, the one output whose currents read coherences
    yield ("point point unclosed-harmonic",
           ["point", "--config", "point", "--set", "bath_model=harmonic",
            "--set", "B=[0.5,0.5,0.5]", "--set", "J=[0.02,0.02,0.02]",
            "--set", "Delta=[0,0,0]", "--set", "gamma=[1e-4,1e-4,1e-4]"], "stdout")
    for config in SCATTER:
        yield (f"validate {config} --samples 200",
               ["validate", "--config", config, "--samples", "200"], "stdout")


def _collect(src: Path, configs: Path, out_dir: Path) -> None:
    """Write every output of _runs() with this src/ into out_dir, plus exit codes."""
    sys.path.insert(0, str(src))
    from triqubit.cli import main as cli_main

    codes = {}
    for k, (name, args, kind) in enumerate(_runs()):
        config = args.index("--config") + 1
        args[config] = str(configs / f"{args[config]}.json")
        path = out_dir / f"{k}.{kind}"
        if kind == "csv":
            args += ["--out", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes[name] = cli_main(args)
        if kind == "stdout":
            path.write_text(stdout.getvalue())
    (out_dir / "codes.json").write_text(json.dumps(codes))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _leaves(value, path=""):
    """(column, leaf) pairs of a JSON value; list indices are dropped from the column."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path)
    else:
        yield path, value


class Comparison:
    def __init__(self):
        self.worst = {}  # column -> (ratio, output name)
        self.changed = {}  # column -> cells whose text is not byte-identical
        self.errors = []
        self.digested = 0  # outputs whose bytes and exit codes were compared
        self.moved = 0  # of those, outputs whose bytes or exit code differ

    def digests(self, name: str, a: bytes, b: bytes, code_a, code_b) -> None:
        """Print each side's sha256 and exit code of one output, and compare the codes."""
        sides = [(hashlib.sha256(data).hexdigest(), code)
                 for data, code in ((a, code_a), (b, code_b))]
        for side, (digest, code) in zip(("parent", "root"), sides):
            print(f"{side:<6}  {digest}  {code}  {name}")
        self.digested += 1
        self.moved += sides[0] != sides[1]
        self.same(code_a, code_b, f"{name}: exit code")

    def numbers(self, column: str, a: float, b: float, where: str, same_text: bool) -> None:
        self.changed[column] = self.changed.get(column, 0) + (not same_text)
        if a == b or (math.isnan(a) and math.isnan(b)):
            ratio = 0.0
        else:
            ratio = abs(a - b) / (RTOL * max(abs(a), abs(b)) + ATOL)
            if math.isnan(ratio):
                ratio = math.inf
        if ratio > self.worst.get(column, (-1.0, ""))[0]:
            self.worst[column] = (ratio, where)

    def same(self, a, b, what: str) -> None:
        if a != b:
            self.errors.append(f"{what}: {a!r} != {b!r}")

    def unreadable(self, a: str, b: str, what: str) -> None:
        """Names the sizes, not the text, of two outputs that cannot be compared cell by cell."""
        if a != b:
            self.errors.append(f"{what} of {len(a)} and {len(b)} characters, "
                               "not readable on both sides")

    def csv(self, a: str, b: str, name: str) -> None:
        lines_a, lines_b = a.splitlines(), b.splitlines()
        if not lines_a or not lines_b:
            self.unreadable(a, b, f"{name}: CSV")
            return
        self.same(lines_a[0], lines_b[0], f"{name}: config echo")
        rows_a = list(csv.reader(lines_a[1:]))
        rows_b = list(csv.reader(lines_b[1:]))
        self.same(len(rows_a), len(rows_b), f"{name}: row count")
        self.same(rows_a[0], rows_b[0], f"{name}: header")
        header = rows_a[0]
        for k, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            for column, ca, cb in zip(header, ra, rb):
                na, nb = _number(ca), _number(cb)
                if na is None or nb is None:
                    self.same(ca, cb, f"{name}: row {k} {column}")
                else:
                    self.numbers(column, na, nb, f"{name} row {k}", ca == cb)

    def point(self, a: str, b: str, name: str) -> None:
        try:
            leaves_a, leaves_b = (list(_leaves(json.loads(text))) for text in (a, b))
        except json.JSONDecodeError:
            # a run that stops before its report prints nothing
            self.unreadable(a, b, f"{name}: stdout")
            return
        self.same([c for c, _ in leaves_a], [c for c, _ in leaves_b], f"{name}: JSON layout")
        for (column, va), (_, vb) in zip(leaves_a, leaves_b):
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb))
            if numeric:
                self.numbers(f"point.{column}", float(va), float(vb), name, repr(va) == repr(vb))
            else:
                self.same(va, vb, f"{name}: {column}")

    def first_law(self, workload: str, parent, root, bound: float) -> None:
        """Prints both sides' (p50, max) of first_law_rel, the pairs of first_law_figures.

        Fails when root's p50 exceeds parent's by more than bound,
        relatively; the max is not gated.
        """
        (p50_a, max_a), (p50_b, max_b) = parent, root
        print(f"{workload:<18} {p50_a!r:>24} {p50_b!r:>24} {max_a!r:>24} {max_b!r:>24}")
        if p50_a is not None and p50_b is not None and p50_b > p50_a * (1.0 + bound):
            self.errors.append(f"first_law_rel_p50 {workload}: root {p50_b!r} > parent "
                               f"{p50_a!r} * (1 + {bound!r})")

    def report(self) -> int:
        failed = list(self.errors)
        for column, (ratio, where) in sorted(self.worst.items()):
            gated = column.split(".")[-1] not in UNGATED
            note = "" if gated else "  (not gated)"
            print(f"{column:<40} {ratio:10.3e} {self.changed[column]:7d} changed  {where}{note}")
            if gated and ratio > 1.0:
                failed.append(f"{column}: ratio {ratio:.3e} at {where}")
        for line in failed:
            print(f"VIOLATION {line}")
        if failed:
            verdict = "FAIL"
        else:
            verdict = "IDENTICAL" if self.digested and not self.moved else "PASS"
        print(f"result: {verdict}")
        return 1 if failed else 0


def _read(out_dir: Path, k: int, kind: str) -> bytes:
    path = out_dir / f"{k}.{kind}"
    return path.read_bytes() if path.exists() else b""


@functools.lru_cache(maxsize=None)
def _bench_gate():
    path = SCRIPT_ROOT / "bench" / "gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def first_law_figures(data: bytes, records, scratch: Path) -> tuple:
    """bench/gate.py's (first_law_rel_p50, first_law_rel_max) of a CSV's first records records.

    records None takes all of them. scratch is the path the cut CSV is
    written to for check_file. Returns (None, None) for an empty output.
    """
    if not data:
        return None, None
    # the config echo line and the header come first
    lines = data.splitlines(keepends=True)[: None if records is None else 2 + records]
    scratch.write_bytes(b"".join(lines))
    checked = _bench_gate().check_file(str(scratch), len(lines) - 2)
    return checked["first_law_rel_p50"], checked["first_law_rel_max"]


def first_law_bound() -> float:
    """The relative bound of first_law_rel_p50 among BENCHMARK.json's end_to_end metrics."""
    metrics = json.loads((SCRIPT_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "first_law_rel_p50")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:  # child mode: --collect SRC CONFIGS OUT_DIR
        _collect(*(Path(a) for a in argv[1:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("root", nargs="?", type=Path,
                        default=SCRIPT_ROOT,
                        help="checkout whose configs/ both runs use (default: this one)")
    args = parser.parse_args(argv)
    root, parent = args.root.resolve(), args.parent.resolve()

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "parent", Path(tmp) / "root")
        procs = []
        for out_dir, checkout in zip(dirs, (parent, root)):
            out_dir.mkdir()
            cmd = [sys.executable, __file__, "--collect",
                   str(checkout / "src"), str(root / "configs"), str(out_dir)]
            procs.append(subprocess.Popen(cmd, env=env))
        if any([proc.wait() for proc in procs]):
            print("error: an output run crashed", file=sys.stderr)
            return 2

        comparison = Comparison()
        codes = [json.loads((d / "codes.json").read_text()) for d in dirs]
        outputs = {}
        for k, (name, cli_args, kind) in enumerate(_runs()):
            outputs[name] = [_read(d, k, kind) for d in dirs]
            comparison.digests(name, *outputs[name], codes[0][name], codes[1][name])
            a, b = (data.decode() for data in outputs[name])
            if kind == "csv":
                comparison.csv(a, b, name)
            elif cli_args[0] == "point":
                comparison.point(a, b, name)
            else:
                comparison.same(a, b, f"{name}: stdout")

        print(FIRST_LAW_HEADER)
        bound = first_law_bound()
        for workload, (name, records) in FIRST_LAW_REFERENCE.items():
            comparison.first_law(workload, *(
                first_law_figures(data, records, Path(tmp) / "first_law.csv")
                for data in outputs[name]), bound)
        return comparison.report()


if __name__ == "__main__":
    sys.exit(main())
