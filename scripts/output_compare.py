"""Compare the outputs of two checkouts on the bundled configs, number by number.

Runs every output of ``scripts/output_digest.py`` (the ``sweep-random`` CSVs
of both scatter configs at one and two workers, the ``sweep-valve`` and
``sweep-boost`` CSVs, ``point`` stdout and ``validate --samples 200`` stdout
of both scatter configs) with the ``src/`` of each checkout, in one
subprocess per checkout and both on ROOT's ``configs/``:

    python3 scripts/output_compare.py /path/to/parent/checkout [ROOT]

ROOT defaults to the checkout holding this script. Exit codes, the
``# scan=... config=...`` echo line of each CSV, every non-numeric CSV cell
and JSON leaf, and ``validate`` stdout must be identical. Numeric CSV cells
and numeric ``point`` JSON leaves a, b must agree within
1e-9 * max(|a|, |b|) + 1e-15; ``nullspace_residual`` is reported but not
gated. Prints, per column, the worst ratio |a - b| / bound and the number of
cells whose text differs at all, and exits 1 on any violation. Each
checkout takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from output_digest import _runs

RTOL, ATOL = 1e-9, 1e-15
UNGATED = frozenset({"nullspace_residual"})


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

    def csv(self, a: str, b: str, name: str) -> None:
        lines_a, lines_b = a.splitlines(), b.splitlines()
        if not lines_a or not lines_b:
            self.same(a, b, f"{name}: CSV")
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
        leaves_a = list(_leaves(json.loads(a)))
        leaves_b = list(_leaves(json.loads(b)))
        self.same([c for c, _ in leaves_a], [c for c, _ in leaves_b], f"{name}: JSON layout")
        for (column, va), (_, vb) in zip(leaves_a, leaves_b):
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb))
            if numeric:
                self.numbers(f"point.{column}", float(va), float(vb), name, repr(va) == repr(vb))
            else:
                self.same(va, vb, f"{name}: {column}")

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
        print(f"result: {'FAIL' if failed else 'PASS'}")
        return 1 if failed else 0


def _read(out_dir: Path, k: int, kind: str) -> str:
    path = out_dir / f"{k}.{kind}"
    return path.read_text() if path.exists() else ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:  # child mode: --collect SRC CONFIGS OUT_DIR
        _collect(*(Path(a) for a in argv[1:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
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
        for k, (name, cli_args, kind) in enumerate(_runs()):
            comparison.same(codes[0][name], codes[1][name], f"{name}: exit code")
            a, b = (_read(d, k, kind) for d in dirs)
            if kind == "csv":
                comparison.csv(a, b, name)
            elif cli_args[0] == "point":
                comparison.point(a, b, name)
            else:
                comparison.same(a, b, f"{name}: stdout")
        return comparison.report()


if __name__ == "__main__":
    sys.exit(main())
