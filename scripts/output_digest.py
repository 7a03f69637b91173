"""Print one sha256 per output of the bundled configs, for byte-identity checks.

Runs every config in ``configs/`` through ``triqubit.cli.main`` in this
process and prints one ``sha256  exit_code  name`` line per output: the
``sweep-random`` CSVs of both scatter configs at one and two workers, the
``sweep-valve`` CSV, the ``sweep-boost`` CSV at one and two workers,
``point`` stdout and ``validate --samples 200`` stdout of both scatter
configs.

    python3 scripts/output_digest.py > change.txt
    python3 scripts/output_digest.py /path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional argument is the root of the checkout whose ``src/`` and
``configs/`` are used; it defaults to the checkout holding this script.
BLAS runs on one thread, so the digests do not depend on the BLAS build or
the core count. Each run takes a few minutes on one core.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SCATTER = ("local_scatter", "global_scatter")


def _runs():
    """(name, cli argv without --out, output kind) for every digested output."""
    for config in SCATTER:
        for workers in (1, 2):
            yield (f"sweep-random {config} --workers {workers}",
                   ["sweep-random", "--config", config, "--workers", str(workers)], "csv")
    yield "sweep-valve valve", ["sweep-valve", "--config", "valve"], "csv"
    yield "sweep-boost boost", ["sweep-boost", "--config", "boost"], "csv"
    yield ("sweep-boost boost --workers 2",
           ["sweep-boost", "--config", "boost", "--workers", "2"], "csv")
    yield "point point", ["point", "--config", "point"], "stdout"
    for config in SCATTER:
        yield (f"validate {config} --samples 200",
               ["validate", "--config", config, "--samples", "200"], "stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and configs/ are digested")
    root = parser.parse_args(argv).root.resolve()
    sys.path.insert(0, str(root / "src"))
    from triqubit.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for name, args, kind in _runs():
            config = args.index("--config") + 1
            args[config] = str(root / "configs" / f"{args[config]}.json")
            if kind == "csv":
                out.unlink(missing_ok=True)
                args += ["--out", str(out)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(args)
            if kind == "csv":
                data = out.read_bytes() if out.exists() else b""
            else:
                data = stdout.getvalue().encode()
            print(f"{hashlib.sha256(data).hexdigest()}  {code}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
