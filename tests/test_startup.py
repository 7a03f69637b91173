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
# with their stdout discarded, and prints the modules of package argv[2]
# loaded after each command as one JSON list per line
_COMMANDS = """
import contextlib, io, json, sys
from triqubit import cli
package = sys.argv[2]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    print(json.dumps(sorted(m for m in sys.modules
                            if m == package or m.startswith(package + "."))))
"""

# minor page faults per point of a harmonic sweep: the difference of a
# 120-point and a 20-point run of argv[1], so that warm-up cancels
_FAULTS = """
import contextlib, io, json, resource, sys
from triqubit import cli
def faults(samples):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep-random", "--config", sys.argv[1], "--samples", str(samples),
                         "--out", sys.argv[2]])
    assert code == 0, code
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
small = faults(20)
large = faults(120)
print(json.dumps({"per_point": (large - small) / 100, "scipy": "scipy" in sys.modules}))
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


def test_only_a_process_pool_loads_concurrent_futures(tmp_path):
    # concurrent.futures loads logging; a serial run needs neither
    scatter = str(CONFIGS / "local_scatter.json")
    commands = [
        ["point", "--config", str(CONFIGS / "point.json")],
        ["sweep-random", "--config", scatter, "--samples", "3", "--workers", "1",
         "--out", str(tmp_path / "serial.csv")],
        ["sweep-random", "--config", scatter, "--samples", "2", "--workers", "2",
         "--out", str(tmp_path / "pooled.csv")],
    ]
    loaded = [json.loads(line)
              for line in _fresh_python(_COMMANDS, json.dumps(commands), "concurrent")]
    assert loaded[:2] == [[], []]
    assert "concurrent.futures" in loaded[2]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc parameters")
def test_harmonic_points_do_not_grow_and_trim_the_heap(tmp_path):
    # without fixed thresholds each harmonic point grows the heap and trims
    # it again, at some 50 to 100 minor faults per point; with them, next to none
    out = _fresh_python(_FAULTS, str(CONFIGS / "global_scatter.json"), str(tmp_path / "g.csv"),
                        env=ONE_THREAD)
    result = json.loads(out[-1])
    assert not result["scipy"]
    assert result["per_point"] < 10, result
