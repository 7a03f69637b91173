"""Set-up time of a fresh interpreter: import, config parse, first point.

Usage: python3 bench/setup_probe.py ROOT CONFIG COMMAND

COMMAND is the CLI subcommand the config belongs to (sweep-random or
sweep-boost). Prints the elapsed seconds as its last line. The clock starts
before triqubit (and with it numpy and scipy) is imported.
"""

import sys
import time

t0 = time.perf_counter()
root, config_path, command = sys.argv[1:4]
sys.path.insert(0, f"{root}/src")

import json  # noqa: E402

from triqubit import cli  # noqa: E402,F401  (the entry point users import)
from triqubit import GridScanConfig, SweepConfig, draw_params, evaluate_point, sweeps  # noqa: E402

with open(config_path) as fh:
    data = json.load(fh)
if command == "sweep-random":
    cfg = SweepConfig(**data)
    params = draw_params(cfg, 0)
else:
    cfg = GridScanConfig(**data)
    params = sweeps._grid_params(cfg, cfg.B2_min)  # the scan's first grid point
ev = evaluate_point(params, epsilon=cfg.epsilon)
elapsed = time.perf_counter() - t0
if ev.thermo is None:
    sys.exit(f"first point failed: {ev.flags}")
print(f"{elapsed!r}")
