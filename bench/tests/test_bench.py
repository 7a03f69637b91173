"""Tests of the benchmark's own machinery: tracer, seeding, gate, boost window.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_report, self_times, summarize  # noqa: E402

from triqubit import GridScanConfig, Regime, algebra, boost_scan, cli, model, sweeps  # noqa: E402


def _span(name, start, end, parent):
    return (name, start, end, parent, -1)


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        _span("a.leaf", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_summary_tail_has_ten_samples_beyond_it():
    assert summarize(list(range(100)))["tail_q"] == 90.0
    assert summarize(list(range(1000)))["tail_q"] == 99.0
    assert summarize(list(range(5)))["tail_q"] is None
    assert summarize([])["n"] == 0


def _base(workload):
    return json.loads((ROOT / run.WORKLOADS[workload]["config"]).read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seeded_inputs_are_reproducible(workload):
    base = _base(workload)
    first = run.seeded_config(workload, base, 7)
    assert run.seeded_config(workload, base, 7) == first
    assert run.seeded_config(workload, base, 8) != first
    # the reference config ignores the seed
    assert run.seeded_config(workload, base, None) == run.seeded_config(workload, base, None)


def test_neighbouring_seeds_draw_different_points():
    base = _base("local_scatter")
    drawn = []
    for seed in (1, 2):
        cfg = sweeps.SweepConfig(**run.seeded_config("local_scatter", base, seed)[0])
        drawn.append({sweeps.draw_params(cfg, k).B for k in range(cfg.n_samples)})
    assert not drawn[0] & drawn[1]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A 6-record local sweep written by the CLI, with its lines."""
    tmp = tmp_path_factory.mktemp("gate")
    data, _ = run.seeded_config("local_scatter", _base("local_scatter"), 11)
    data["n_samples"] = 6
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp / "out.csv"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["sweep-random", "--config", str(cfg), "--out", str(out)]) == 0
    return out, out.read_text().splitlines(keepends=True)


def _rewrite(path, lines):
    path.write_text("".join(lines))
    return str(path)


def test_gate_accepts_clean_output(small_csv):
    path, _ = small_csv
    report = gate.check_file(str(path), 6)
    assert report["records"] == 6 and report["failed"] == {}
    assert 0.0 < report["first_law_rel_p50"] <= report["first_law_rel_max"] <= gate.FIRST_LAW_TOL


def test_gate_rejects_flipped_heat_sign(small_csv, tmp_path):
    _, lines = small_csv
    header = lines[1].rstrip("\n").split(",")
    cells = lines[4].rstrip("\n").split(",")  # record with sample_index 2
    col = header.index("Q1")
    cells[col] = repr(-float(cells[col]))
    bad = lines[:4] + [",".join(cells) + "\n"] + lines[5:]
    report = gate.check_file(_rewrite(tmp_path / "flip.csv", bad), 6)
    assert list(report["failed"]) == [2]
    assert "first_law" in report["failed"][2]


def test_gate_rejects_missing_and_duplicate_records(small_csv, tmp_path):
    _, lines = small_csv
    dropped = gate.check_file(_rewrite(tmp_path / "drop.csv", lines[:-1]), 6)
    assert dropped["failed"] == {5: ["index"]}
    doubled = gate.check_file(_rewrite(tmp_path / "dup.csv", lines + lines[-1:]), 6)
    assert doubled["failed"] == {5: ["index"]}


def test_gate_rejects_error_flag(small_csv, tmp_path):
    _, lines = small_csv
    header = lines[1].rstrip("\n").split(",")
    cells = lines[2].rstrip("\n").split(",")
    cells[header.index("flags")] = "error:DegenerateSteadyStateError"
    report = gate.check_file(_rewrite(tmp_path / "err.csv", lines[:2] + [",".join(cells) + "\n"] + lines[3:]), 6)
    assert report["failed"] == {0: ["error:DegenerateSteadyStateError"]}


def test_oracle_agrees_with_clean_records(small_csv):
    path, _ = small_csv
    for row in gate.read_rows(str(path))[:2]:
        assert gate.oracle_check(row)["ok"]


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_boost_shift_keeps_window_and_edge(seed):
    data, expected = run.seeded_config("boost_pool", _base("boost_pool"), seed)
    records = boost_scan(GridScanConfig(**data))
    assert len(records) == expected
    assert any(r.thermo is not None and r.thermo.regime is Regime.IV for r in records)
    assert "edge" in records[-1].flags


class _FailingCli:
    """Stands in for triqubit.cli: exits 2 without writing, as on a DomainError."""

    @staticmethod
    def main(argv):
        return 2


def test_failed_cli_round_is_not_judged_by_a_stale_file(tmp_path):
    runner = run.Runner("local_scatter", 3, tmp_path)
    cfg_path, _ = runner.configs["seeded"]
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "n_samples": 4}))
    runner.configs["seeded"] = (cfg_path, 4)
    good = runner.round("round0")
    assert good["exit_code"] == 0 and runner.verdict()["correct"]
    runner.cli = _FailingCli
    bad = runner.round("round1")  # the CSV from round0 is still on disk before this call
    assert bad["exit_code"] == 2 and bad["records"] == 0
    verdict = runner.verdict()
    assert not verdict["correct"]
    assert verdict == {"correct": False, "attempted": 8, "failed": 4}
    assert all("exit_code:2" in runner.failed[("round1", idx)] for idx in range(4))


def _count_calls(codes: dict):
    """Profile hook counting Python-level executions of the given code objects."""
    counts = dict.fromkeys(codes, 0)
    by_code = {code: name for name, code in codes.items()}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            counts[by_code[frame.f_code]] += 1

    return counts, hook


def test_tracer_counts_match_an_independent_count_and_program_is_restored():
    original = model.build_hamiltonian
    data, _ = run.seeded_config("local_scatter", _base("local_scatter"), 5)
    cfg = sweeps.SweepConfig(**{**data, "n_samples": 3})
    counts, hook = _count_calls({
        "sweeps.evaluate_point": sweeps.evaluate_point.__code__,
        "algebra.embed_pauli": algebra.embed_pauli.__code__,
        "model.interaction_hamiltonian": model.interaction_hamiltonian.__code__,
    })
    tracer = Tracer()
    with tracer.installed():
        assert model.build_hamiltonian is not original
        sys.setprofile(hook)
        try:
            sweeps.random_sweep(cfg)
        finally:
            sys.setprofile(None)
    assert model.build_hamiltonian is original
    layers = layer_report(tracer)
    points = counts["sweeps.evaluate_point"]
    assert points == 3
    assert layers["sweeps.evaluate_point.ms_p50"]["summary"]["n"] == points
    for layer in ("algebra.embed_pauli", "model.interaction_hamiltonian"):
        assert counts[layer] > 0
        assert layers[f"{layer}.calls_per_point"]["value"] == counts[layer] / points
    assert layers["global_me.jump_operators.self_ms"]["value"] == 0.0
    assert layers["steady_state.solve_point.self_ms"]["value"] > 0.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(layers) | {"trace.overhead_frac"}
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in declared if m["name"] in layers)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "local_scatter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
