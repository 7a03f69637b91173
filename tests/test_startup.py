"""Start-up and memory of the command line, each in a fresh interpreter.

A fresh interpreter is the only place where the modules a command loads,
and the allocator settings it runs under, are its own.
"""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# every BLAS/OpenMP pool on one thread, as bench/run.py runs the program
ONE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# runs the CLI commands of argv[1] (a JSON list of argument lists) in order,
# with their stdout discarded, and prints the modules of the comma-separated
# packages argv[2] loaded after each command as one JSON list per line
_COMMANDS = """
import contextlib, io, json, sys
from triqubit import cli
packages = sys.argv[2].split(",")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    print(json.dumps(sorted(m for m in sys.modules for package in packages
                            if m == package or m.startswith(package + "."))))
"""

# runs the CLI commands of argv[1] (a JSON list of argument lists) in order
# in this one process and prints the minor page faults of each, as a JSON
# list, and whether scipy was loaded
_FAULTS = """
import contextlib, io, json, resource, sys
from triqubit import cli
counts = []
for argv in json.loads(sys.argv[1]):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": counts, "scipy": "scipy" in sys.modules}))
"""


def _fresh_python(script: str, *args: str, env: dict = None) -> list:
    """stdout lines of script run in a new interpreter on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_no_command_loads_scipy(tmp_path):
    commands = [
        ["sweep-random", "--config", str(CONFIGS / f"{name}.json"), "--samples", "3",
         "--out", str(tmp_path / f"{name}.csv")]
        for name in ("local_scatter", "global_scatter")
    ]
    commands.append(["point", "--config", str(CONFIGS / "point.json")])
    boosts = [tmp_path / f"boost{workers}.csv" for workers in (1, 2)]
    commands += [["sweep-boost", "--config", str(CONFIGS / "boost.json"),
                  "--workers", str(workers), "--out", str(out)]
                 for workers, out in zip((1, 2), boosts)]
    loaded = [json.loads(line)
              for line in _fresh_python(_COMMANDS, json.dumps(commands), "scipy")]
    assert loaded == [[]] * len(commands)
    for out in boosts:
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert "edge" in rows[-1]["flags"].split(";")


def test_no_command_loads_a_process_pool_library(tmp_path):
    # --workers forks with os.fork and reads pipes: neither concurrent.futures
    # (which loads logging) nor multiprocessing is needed, at any worker count
    scatter = str(CONFIGS / "local_scatter.json")
    commands = [["point", "--config", str(CONFIGS / "point.json")]]
    for workers in ("1", "2"):
        commands += [
            ["sweep-random", "--config", scatter, "--samples", "3", "--workers", workers,
             "--out", str(tmp_path / f"random{workers}.csv")],
            ["validate", "--config", scatter, "--samples", "3", "--workers", workers],
            ["sweep-valve", "--config", str(CONFIGS / "valve.json"), "--set", "n_points=6",
             "--workers", workers, "--out", str(tmp_path / f"valve{workers}.csv")],
            ["sweep-boost", "--config", str(CONFIGS / "boost.json"), "--set", "n_points=12",
             "--workers", workers, "--out", str(tmp_path / f"boost{workers}.csv")],
        ]
    loaded = [json.loads(line) for line in _fresh_python(
        _COMMANDS, json.dumps(commands), "concurrent,logging,multiprocessing")]
    assert loaded == [[]] * len(commands)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc parameters")
def test_harmonic_points_do_not_grow_and_trim_the_heap(tmp_path):
    # a harmonic random sweep takes next to no minor faults per point, with
    # the pinned heap thresholds and without them alike: this guards the
    # per-point path against a heap that grows and trims each point; the
    # pin itself is held by the boost test below
    # the difference of a 120-point and a 20-point run, so that warm-up cancels
    commands = [["sweep-random", "--config", str(CONFIGS / "global_scatter.json"),
                 "--samples", str(samples), "--out", str(tmp_path / "g.csv")]
                for samples in (20, 120)]
    result = json.loads(_fresh_python(_FAULTS, json.dumps(commands), env=ONE_THREAD)[-1])
    assert not result["scipy"]
    small, large = result["faults"]
    assert (large - small) / 100 < 10, result


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc parameters")
def test_repeated_grid_scans_do_not_grow_and_trim_the_heap(tmp_path):
    # at glibc's dynamic thresholds each chunked run of a grid scan grows
    # the heap and trims it again, some 33 minor faults per record on every
    # scan after the first; with the thresholds pinned, next to none
    out = tmp_path / "boost.csv"
    command = ["sweep-boost", "--config", str(CONFIGS / "boost.json"), "--workers", "1",
               "--out", str(out)]
    counts = json.loads(_fresh_python(_FAULTS, json.dumps([command] * 5), env=ONE_THREAD)[-1])
    records = len(list(csv.DictReader(out.read_text().splitlines()[1:])))
    assert sum(counts["faults"][2:]) < 3 * records, counts
