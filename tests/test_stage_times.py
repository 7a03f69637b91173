"""scripts/stage_times.py: per-stage in-process timings of one config."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STAGES = {
    "global_scatter": ["sweeps.draw_params", "model.build_hamiltonian", "model.sector_spectrum",
                       "global_me.build_global_generators", "global_me.jump_operators",
                       "global_me.site_rate_matrices"],
    "local_scatter": ["sweeps.draw_params", "model.build_hamiltonian", "model.sector_spectrum",
                      "local_me.build_local_generators"],
}
# the two report passes of the record body, then its whole report half,
# which keeps the name it had as _chunk_records, so that older checkouts
# time it side by side
COMMON = ["steady_state.solve_point", "correlations._correlation_rows", "thermo._thermo_rows",
          "sweeps._chunk_records", "sweeps.evaluate_point", "sweeps.write_records"]


@pytest.mark.parametrize("config", sorted(STAGES))
def test_stage_times_prints_one_line_per_stage(config):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"), config,
         "--points", "3", "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0].startswith(f"# {config}.json: 3 clean of 3 points, 1 rounds")
    assert out[1].split() == ["stage", "min_us", "median_us"]
    rows = [line.split() for line in out[2:-1]]
    assert [row[0] for row in rows] == STAGES[config] + COMMON
    for _, low, mid in rows:
        assert 0.0 < float(low) <= float(mid)
    _check_peak_rss_note(out[-1], 0)


def _check_peak_rss_note(note, root):
    # the child interpreter's ru_maxrss after its last round, in MB
    assert note.startswith(f"# root {root}: child interpreter peak RSS ")
    assert note.endswith(" MB")
    assert 10.0 < float(note.split()[-2]) < 10_000.0


def test_two_roots_alternate_and_print_ratios_to_the_first():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"), "global_scatter",
         str(ROOT), str(ROOT), "--points", "3", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0] == ("# global_scatter.json: 3 clean of 3 points, 2 rounds, "
                      "BLAS on 1 thread, 2 roots interleaved")
    assert out[1:3] == [f"# root 0: {ROOT}", f"# root 1: {ROOT}"]
    assert out[3].split() == ["stage", "root", "min_us", "median_us", "min_ratio", "median_ratio"]
    rows = [line.split() for line in out[4:-2]]
    for root, note in enumerate(out[-2:]):
        _check_peak_rss_note(note, root)
    stages = STAGES["global_scatter"] + COMMON
    assert [(row[0], row[1]) for row in rows] == [(s, k) for s in stages for k in "01"]
    # the ratios of the unrounded times, against the times printed to 0.1 us
    for first, other in zip(rows[::2], rows[1::2]):
        assert first[4:] == ["1.000", "1.000"]
        assert float(other[4]) == pytest.approx(float(other[2]) / float(first[2]), rel=1e-2)
        assert float(other[5]) == pytest.approx(float(other[3]) / float(first[3]), rel=1e-2)


def test_boost_grid_times_the_edge_search_and_counts_its_solves(tmp_path):
    config = tmp_path / "boost.json"
    data = json.loads((ROOT / "configs" / "boost.json").read_text())
    config.write_text(json.dumps(dict(data, n_points=6)))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"), str(config), "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0].startswith("# boost.json: 6 clean of 6 points, 2 rounds")
    rows = [line.split() for line in out[2:-4]]
    # the chunk route per point, the pipe's share of a two-worker scan per
    # scan, and write_records per record of the chunk route
    assert [row[0] for row in rows] == (
        ["sweeps._grid_params", "model.build_hamiltonian", "model.sector_spectrum",
         "local_me.build_local_generators"]
        + COMMON[:-1] + ["sweeps._evaluate_many", "sweeps._evaluate_many/2",
                         "sweeps.share_transport", "sweeps.write_records",
                         "sweeps._locate_edge"])
    for _, low, mid in rows:
        assert 0.0 < float(low) <= float(mid)
    # the forked process of the two-worker route: its CPU and its minor
    # page faults per scan
    pool_note, edge_note, trip_note, rss_note = out[-4:]
    assert pool_note.startswith("# root 0: sweeps._evaluate_many/2 children take ")
    assert pool_note.endswith(" minor page faults per scan")
    words = pool_note.split()
    assert words[-9:-6] == ["ms", "CPU", "and"]
    assert float(words[-10]) >= 0.0
    # forking alone faults in pages of the child: it cannot read 0
    assert int(words[-6]) > 0
    assert edge_note.startswith("# root 0: sweeps._locate_edge makes ")
    assert int(edge_note.split()[-5]) > 0
    # the pool's fixed cost: one empty two-worker round trip and the minor
    # page faults of its child, which forking alone makes nonzero
    assert trip_note.startswith(
        "# root 0: pool fixed cost: an empty two-worker round trip takes ")
    words = trip_note.split()
    assert words[-7:-5] == ["ms", "and"] and words[-4:] == ["child", "minor", "page", "faults"]
    assert 0.0 < float(words[-8]) < 10_000.0
    assert int(words[-5]) > 0
    _check_peak_rss_note(rss_note, 0)
