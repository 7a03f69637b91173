"""End-to-end command-line checks through main(argv)."""

import csv
import json
from pathlib import Path

import pytest

from triqubit import DomainError, cli, sweeps, thermo
from triqubit.cli import main
from triqubit.sweeps import GridScanConfig, boost_scan, write_records

from conftest import BOOST, LOCAL_SCATTER, VALVE, break_mi_bound

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the command that runs each bundled config, with its small-size arguments
BUNDLED = {
    "point": ["point"],
    "local_scatter": ["validate", "--samples", "3"],
    "global_scatter": ["validate", "--samples", "3"],
    "valve": ["sweep-valve", "--set", "n_points=3"],
    "boost": ["sweep-boost", "--set", "n_points=4"],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def point_config(tmp_path, **overrides):
    payload = dict(
        bath_model="repeated_interaction",
        B=(0.6, 1.2, 1.8),
        J=list(LOCAL_SCATTER["J"]),
        Delta=list(LOCAL_SCATTER["Delta"]),
        T=(1.0, 2.0, 3.0),
        gamma=(0.5, 0.5, 0.5),
    )
    payload.update(overrides)
    return write_json(tmp_path / "point.json", payload)


def sweep_config(tmp_path, **overrides):
    payload = dict(
        bath_model="repeated_interaction",
        J=list(LOCAL_SCATTER["J"]),
        Delta=list(LOCAL_SCATTER["Delta"]),
        B_range=(0.5, 3.0),
        gamma_range=(0.1, 1.0),
        n_samples=5,
        master_seed=3,
    )
    payload.update(overrides)
    return write_json(tmp_path / "sweep.json", payload)


def test_point_json_report(tmp_path, capsys):
    # fields proportional to temperatures: a stationary equilibrium point
    code = main(["point", "--config", point_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["thermo"]["regime"] == "Unclassified"
    assert payload["config"]["bath_model"] == "repeated_interaction"
    assert payload["flags"] == []
    assert all(abs(q) < 1e-12 for q in payload["thermo"]["Q"])
    assert payload["nullspace_residual"] < 1e-10


def test_point_set_override_and_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "point", "--config", point_config(tmp_path),
        "--set", "B=[0.9, 2.7, 4.1]",
        "--out", str(out_path),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["config"]["B"] == [0.9, 2.7, 4.1]
    assert payload["thermo"]["regime"] != "Unclassified"
    assert json.loads(printed) == payload


def test_point_scalar_triple_stands_for_all_three_sites(tmp_path, capsys):
    # the rule of the sweep configs: a scalar is the same value on every site
    printed = []
    for value in ("0.5", "[0.5,0.5,0.5]"):
        assert main(["point", "--config", str(CONFIGS / "point.json"),
                     "--set", f"gamma={value}"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert json.loads(printed[0])["config"]["gamma"] == [0.5, 0.5, 0.5]


def test_point_solver_failure_exit_code(tmp_path, capsys):
    code = main([
        "point", "--config", point_config(tmp_path, B=(0.0, 1.0, 1.0)),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["thermo"] is None
    assert payload["flags"] == ["error:DomainError"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1"])
def test_point_rejects_an_epsilon_the_sweep_configs_reject(tmp_path, capsys, value):
    # as SweepConfig and GridScanConfig do: a DomainError before any solve
    code = main(["point", "--config", point_config(tmp_path), "--set", f"epsilon={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "epsilon must be positive and finite" in captured.err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"bath_model": "harmonic", "Bmax": 2})
    code = main(["point", "--config", cfg])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_set_syntax(tmp_path, capsys):
    code = main(["point", "--config", point_config(tmp_path), "--set", "B:1"])
    assert code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["point", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, override", [
    ("sweep-random", "local_scatter", "J=abc"),
    ("point", "point", 'B=["a",1,2]'),
    ("sweep-random", "local_scatter", 'B_range=["x",1]'),
    ("sweep-random", "local_scatter", "discard_rule=abc"),
    ("sweep-random", "local_scatter", "min_field=abc"),
    ("sweep-valve", "valve", "B1=abc"),
    ("sweep-valve", "valve", "B1=[1]"),
    ("sweep-valve", "valve", "n_points=true"),
    ("sweep-random", "local_scatter", "n_samples=true"),
    ("sweep-random", "local_scatter", "master_seed=true"),
    ("point", "point", "gamma=[true,0.5,0.5]"),
    ("sweep-random", "local_scatter", "min_field=true"),
    ("sweep-valve", "valve", "B1=true"),
])
def test_non_numeric_config_entry_is_a_config_error(tmp_path, capsys, command, config, override):
    # a DomainError naming the key, exit code 2, before anything is written
    out_path = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--set", override,
            "--out", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + override.partition("=")[0] + " must be ")
    assert not out_path.exists()


HUGE = "1" + "0" * 400  # an integer far outside the range of a double


@pytest.mark.parametrize("command, config, override", [
    ("point", "point", f"B=[{HUGE},1,2]"),
    ("sweep-random", "local_scatter", f"min_field={HUGE}"),
    ("sweep-valve", "valve", f"B1={HUGE}"),
], ids=["point-B", "sweep-random-min_field", "sweep-valve-B1"])
def test_config_integer_beyond_a_double_is_a_config_error(tmp_path, capsys, command, config,
                                                           override):
    out_path = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--set", override,
            "--out", str(out_path)]
    assert main(argv) == 2
    key = override.partition("=")[0]
    assert capsys.readouterr().err == (
        f"error: {key} must be a real number within the range of a double\n")
    assert not out_path.exists()


def test_sweep_random_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "sweep-random", "--config", sweep_config(tmp_path),
        "--out", str(out_path), "--samples", "4", "--seed", "9",
    ])
    assert code == 0
    assert "wrote 4 records" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert len(rows) == 5  # header plus four records
    assert rows[0][0] == "sample_index"
    # the echo line carries the overridden seed and sample count
    assert '"master_seed":9' in lines[0]
    assert '"n_samples":4' in lines[0]


@pytest.mark.parametrize("command, config", [
    ("sweep-random", "local_scatter"), ("sweep-boost", "boost"), ("validate", "local_scatter"),
])
def test_workers_below_one_is_rejected(tmp_path, capsys, command, config):
    out_path = tmp_path / "out.csv"
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--workers", "0"]
    if command != "validate":
        argv += ["--out", str(out_path)]
    assert main(argv) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command, config, driver", [
    ("sweep-random", "local_scatter", "random_sweep"), ("sweep-valve", "valve", "valve_sweep"),
    ("sweep-boost", "boost", "boost_scan"),
])
def test_an_unwritable_out_fails_before_the_sweep(tmp_path, monkeypatch, capsys, command,
                                                  config, driver):
    seen = []  # whether a file stood at --out when the driver ran

    def spy(cfg, workers):
        seen.append(out.exists())
        raise DomainError("stopped by the test")

    monkeypatch.setattr(sweeps, driver, spy)
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--out"]
    out = tmp_path / "missing" / "out.csv"
    assert main(argv + [str(out)]) == 2
    assert "cannot write records" in capsys.readouterr().err
    assert seen == [] and not out.parent.exists()
    # a writable --out is checked without leaving a file behind
    out = tmp_path / "out.csv"
    assert main(argv + [str(out)]) == 2
    assert "stopped by the test" in capsys.readouterr().err
    assert seen == [False] and not out.exists()


def test_an_unwritable_out_fails_before_the_point_is_solved(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "evaluate_point", lambda *args, **kwargs: calls.append(args))
    argv = ["point", "--config", str(CONFIGS / "point.json"), "--out", "/nonexistent/x.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # a point writes a JSON report, not records
    assert "cannot write the report to '/nonexistent/x.json'" in err and "records" not in err
    assert calls == []


def test_sweep_valve_flags_failures(tmp_path, capsys):
    cfg = write_json(tmp_path / "valve.json", dict(
        bath_model="repeated_interaction",
        J=list(VALVE["J"]), Delta=list(VALVE["Delta"]),
        B1=VALVE["B1"], B3=VALVE["B3"],
        B2_min=0.0, B2_max=1.0, n_points=2,
        gamma=(0.5, 0.5, 0.5),
    ))
    out_path = tmp_path / "valve.csv"
    code = main(["sweep-valve", "--config", cfg, "--out", str(out_path)])
    captured = capsys.readouterr()
    # the B2 = 0 point cannot be solved, and that must surface in the exit code
    assert code == 1
    assert "sample_index 0" in captured.err
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[-1] == "combination"


def test_sweep_boost_empty_window(tmp_path, capsys):
    cfg = write_json(tmp_path / "boost.json", dict(
        bath_model="repeated_interaction",
        J=list(LOCAL_SCATTER["J"]), Delta=list(LOCAL_SCATTER["Delta"]),
        B1=1.31, B3=3.57,
        B2_min=0.1, B2_max=0.3, n_points=2,
        gamma=(0.645, 0.780, 0.934),
    ))
    out_path = tmp_path / "boost.csv"
    code = main(["sweep-boost", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    assert "empty refrigerator window" in capsys.readouterr().out
    assert len(out_path.read_text().splitlines()) == 2


def test_an_empty_boost_window_keeps_the_boost_columns(tmp_path, capsys):
    # the header-only CSV of a window with no absorption refrigerator still
    # names the boost scan's extra columns, which its empty Records carries
    out_path = tmp_path / "boost.csv"
    code = main(["sweep-boost", "--config", str(CONFIGS / "boost.json"),
                 "--set", "B2_min=0.5", "--set", "B2_max=0.6", "--set", "n_points=5",
                 "--out", str(out_path)])
    assert code == 0
    assert "empty refrigerator window" in capsys.readouterr().out
    echo, header = out_path.read_text().splitlines()
    assert echo.startswith("# scan=boost config=")
    assert header.endswith(",flags,cop_norm,cop_w_norm,cop_otto_norm")


def test_sweep_boost_matches_library_output(tmp_path, capsys):
    payload = dict(
        bath_model="repeated_interaction",
        J=list(BOOST["J"]), Delta=list(BOOST["Delta"]),
        B1=BOOST["B1"], B3=BOOST["B3"],
        B2_min=2.95, B2_max=3.05, n_points=3,
        gamma=list(BOOST["gamma"]),
    )
    out_path = tmp_path / "boost.csv"
    code = main(["sweep-boost", "--config", write_json(tmp_path / "boost.json", payload),
                 "--out", str(out_path)])
    assert code == 0
    assert "wrote 4 records" in capsys.readouterr().out
    cfg = GridScanConfig(**payload)
    lib_path = tmp_path / "lib.csv"
    write_records(boost_scan(cfg), lib_path, "boost", cfg)
    assert out_path.read_bytes() == lib_path.read_bytes()
    rows = list(csv.DictReader(out_path.read_text().splitlines()[1:]))
    assert [row["flags"] for row in rows] == ["", "", "", "edge"]


def test_sweep_commands_look_up_their_driver_when_they_run(tmp_path, monkeypatch, capsys):
    # a wrapper put on the sweeps module after import, as a tracer does,
    # sees the command's call
    calls = []
    real = sweeps.boost_scan
    monkeypatch.setattr(sweeps, "boost_scan", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = write_json(tmp_path / "boost.json", dict(BOOST, bath_model="repeated_interaction",
                                                   B2_min=2.95, B2_max=3.05, n_points=3))
    out = tmp_path / "boost.csv"
    assert main(["sweep-boost", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1 and out.exists()


def test_validate_passes_on_local_sweep(tmp_path, capsys):
    code = main([
        "validate", "--config", sweep_config(tmp_path), "--samples", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert "First Law" in out and "continuity" in out


def test_validate_fails_when_a_law_breaks(monkeypatch, capsys):
    honest = thermo._harmonic_heat_currents
    monkeypatch.setattr(
        thermo, "_harmonic_heat_currents", lambda sol: tuple(-q for q in honest(sol))
    )
    code = main([
        "validate", "--config", str(CONFIGS / "global_scatter.json"), "--samples", "3",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    # a report that breaks a law is an error row, which fails every check
    for name in ("First Law", "Second Law", "MI-bound"):
        assert f"{name:<20} 0/3 FAIL" in lines
    assert f"{'solver failures':<20} 3/3" in lines
    assert lines[-1] == "result: FAIL"


def _law_lines(config, passed, total):
    """validate's line of each law of config's bath model, passed of total records passing it."""
    local = config == "local_scatter"
    status = "pass" if passed == total else "FAIL"
    return [f"{name:<20} {passed}/{total} {status}" for name in thermo.LAWS
            if local or name not in thermo.LOCAL_LAWS]


@pytest.mark.parametrize("config", ["local_scatter", "global_scatter"])
def test_validate_passes_a_record_with_reports_and_fails_one_without(monkeypatch, capsys, config):
    # the record body has judged every law of every point: validate counts
    # a record with reports under each law of its model as passing, and an
    # error record as failing each of them
    real = cli.random_sweep

    def sweep(cfg, workers):
        records = real(cfg, workers)
        for k in (2, 5):
            records.empty[k] = True
            records.flags[k] = ("error:NumericalConsistencyError",) + records.flags[k]
        return records

    monkeypatch.setattr(cli, "random_sweep", sweep)
    argv = ["validate", "--config", str(CONFIGS / f"{config}.json"), "--samples", "8"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    laws = _law_lines(config, 6, 8)
    assert lines[:len(laws)] == laws
    assert lines[len(laws)] == f"{'solver failures':<20} 2/8"
    assert lines[-1] == "result: FAIL"


def test_validate_counts_a_point_below_its_mi_bound_under_every_law(monkeypatch, capsys):
    # the body makes the point an error row, as bench/gate.py judges it
    cfg = sweeps.SweepConfig(**json.loads((CONFIGS / "local_scatter.json").read_text()))
    break_mi_bound(monkeypatch, sweeps.draw_params(cfg, 2))
    argv = ["validate", "--config", str(CONFIGS / "local_scatter.json"), "--samples", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == _law_lines("local_scatter", 4, 5) + [
        f"{'solver failures':<20} 1/5", f"{'discarded':<20} 0/5", "result: FAIL"]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_bundled_config_runs_clean(name, tmp_path, capsys):
    command, *extra = BUNDLED[name]
    argv = [command, "--config", str(CONFIGS / f"{name}.json"), *extra]
    if command.startswith("sweep"):
        argv += ["--out", str(tmp_path / f"{name}.csv")]
    assert main(argv) == 0, capsys.readouterr().err
