"""Every record written without an error flag passes the benchmark's gate.

bench/gate.py applies validate's invariants to the CSV cells as written and
fails a row that breaks one. A report that breaks a law must therefore
become an error row, never a clean row the gate rejects.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from triqubit.sweeps import (
    GridScanConfig,
    SweepConfig,
    boost_scan,
    draw_params,
    evaluate_point,
    write_records,
)

import oracles
from conftest import HARMONIC_TAIL

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

_spec = importlib.util.spec_from_file_location("bench_gate", ROOT / "bench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

TAIL_IDS = [f"harmonic-tail-{index}" for _, index in HARMONIC_TAIL]
CASES = [
    pytest.param("global_scatter", seed, [index], id=name)
    for (seed, index), name in zip(HARMONIC_TAIL, TAIL_IDS)
] + [
    pytest.param(name, random.Random(s).getrandbits(62), list(range(50)), id=f"{name}-{s}")
    for name in ("local_scatter", "global_scatter")
    for s in (1, 2)
]


def _clean_rows_breaking_the_gate(path):
    rows = gate.read_rows(str(path))
    assert rows
    clean = {
        row["sample_index"]: gate.record_violations(row)
        for row in rows
        if not any(f.startswith("error:") for f in row["flags"].split(";"))
    }
    return {index: broken for index, broken in clean.items() if broken}


@pytest.mark.parametrize("name,seed,indices", CASES)
def test_clean_scatter_records_pass_the_gate(name, seed, indices, tmp_path):
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = SweepConfig(**dict(data, master_seed=seed, n_samples=max(indices) + 1))
    # row k is the record of indices[k]
    records = oracles.stacked(
        [evaluate_point(draw_params(cfg, k), epsilon=cfg.epsilon) for k in indices])
    path = tmp_path / "records.csv"
    write_records(records, path, "random", cfg)
    assert _clean_rows_breaking_the_gate(path) == {}


@pytest.mark.parametrize("seed,index", HARMONIC_TAIL, ids=TAIL_IDS)
def test_first_law_tail_points_are_clean_records_the_oracle_confirms(seed, index, tmp_path):
    # the subtraction-free populations and edge-form currents make them
    # clean records with no flag
    data = json.loads((CONFIGS / "global_scatter.json").read_text())
    cfg = SweepConfig(**dict(data, master_seed=seed, n_samples=index + 1))
    rec = evaluate_point(draw_params(cfg, index), epsilon=cfg.epsilon)
    path = tmp_path / "records.csv"
    write_records(oracles.stacked([rec]), path, "random", cfg)
    (row,) = gate.read_rows(str(path))
    assert row["flags"] == ""
    assert gate.record_violations(row) == []
    assert gate.first_law_rel(row) < 1e-13
    assert gate.oracle_check(row)["ok"]


def test_clean_boost_records_pass_the_gate(tmp_path):
    cfg = GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text()))
    path = tmp_path / "records.csv"
    write_records(boost_scan(cfg), path, "boost", cfg)
    assert _clean_rows_breaking_the_gate(path) == {}
