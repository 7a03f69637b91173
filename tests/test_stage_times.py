"""scripts/stage_times.py: per-stage in-process timings of one config."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STAGES = {
    "global_scatter": ["model.build_hamiltonian", "model.sector_spectrum",
                       "global_me.build_global_generators", "global_me.jump_operators",
                       "global_me.site_rate_matrices"],
    "local_scatter": ["model.build_hamiltonian", "model.sector_spectrum",
                      "local_me.build_local_generators"],
}
COMMON = ["steady_state.solve_point", "thermo.thermo_report",
          "correlations.correlation_report", "sweeps.evaluate_point"]


@pytest.mark.parametrize("config", sorted(STAGES))
def test_stage_times_prints_one_line_per_stage(config):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"), config,
         "--points", "3", "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0].startswith(f"# {config}.json: 3 clean of 3 points, 1 rounds")
    assert out[1].split() == ["stage", "min_us", "median_us"]
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows] == STAGES[config] + COMMON
    for _, low, mid in rows:
        assert 0.0 < float(low) <= float(mid)
