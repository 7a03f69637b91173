"""Deterministic draws, sweep drivers, CSV round-trips."""

import csv
import itertools
import json
import math
import os
import random
import signal
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from triqubit import (
    DegenerateSteadyStateError, DomainError, ModelParams, algebra, correlations, global_me,
    local_me, model, solve_point, steady_state, sweeps, thermo,
)
from triqubit.sweeps import (
    BASE_COLUMNS,
    BOOST_COLUMNS,
    VALVE_COLUMNS,
    GridScanConfig,
    SplitMix64,
    SweepConfig,
    SweepRecord,
    boost_scan,
    draw_params,
    evaluate_point,
    random_sweep,
    valve_sweep,
    write_records,
)
from triqubit.thermo import DEFAULT_EPSILON, Regime

import oracles
from conftest import (
    BOOST, GLOBAL_SCATTER, LOCAL_SCATTER, MASTER_SEED, VALVE, break_mi_bound, global_point,
    local_point,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_splitmix64_reference_vector():
    # published first output for seed 0
    rng = SplitMix64(0)
    assert rng.next_uint64() == 0xE220A8397B1DCDAF


def test_splitmix64_uniform_law():
    rng = SplitMix64(42)
    draws = [rng.uniform(2.0, 5.0) for _ in range(4000)]
    assert all(2.0 <= x < 5.0 for x in draws)
    assert abs(np.mean(draws) - 3.5) < 0.05
    # degenerate range collapses to the endpoint exactly
    assert SplitMix64(7).uniform(1.25, 1.25) == 1.25


def sample_cfg(**overrides):
    base = dict(
        bath_model="repeated_interaction",
        J=LOCAL_SCATTER["J"],
        Delta=LOCAL_SCATTER["Delta"],
        B_range=(0.5, 3.0),
        gamma_range=(0.1, 1.0),
        n_samples=4,
        master_seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_draw_params_deterministic_and_ordered():
    cfg = sample_cfg()
    a = draw_params(cfg, 3)
    b = draw_params(cfg, 3)
    assert a.B == b.B and a.gamma == b.gamma
    assert draw_params(cfg, 4).B != a.B
    # draw order is B1 B2 B3 then gamma1..3 from the per-index stream
    rng = SplitMix64(11 ^ 3)
    expect_B = tuple(rng.uniform(0.5, 3.0) for _ in range(3))
    expect_g = tuple(rng.uniform(0.1, 1.0) for _ in range(3))
    assert a.B == expect_B
    assert a.gamma == expect_g


def test_draw_params_fixed_values_pass_through():
    cfg = sample_cfg(B=(1.0, 2.0, 3.0), B_range=None)
    p = draw_params(cfg, 0)
    assert p.B == (1.0, 2.0, 3.0)
    assert p.J == cfg.J and p.T == cfg.T


def test_min_field_redraws():
    cfg = sample_cfg(B_range=(0.0, 1.0), min_field=0.5, n_samples=1)
    for k in range(200):
        assert min(draw_params(cfg, k).B) >= 0.5


def test_redraw_exhaustion_raises():
    # the floor sits exactly at the top of the range, unreachable by a
    # half-open uniform draw
    cfg = sample_cfg(B_range=(0.0, 1e-3), n_samples=1)
    with pytest.raises(DomainError):
        draw_params(cfg, 0)


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        sample_cfg(n_samples=0)
    with pytest.raises(DomainError):
        sample_cfg(B=(1.0, 1.0, 1.0))  # both B and B_range
    with pytest.raises(DomainError):
        sample_cfg(B_range=None)  # neither
    with pytest.raises(DomainError):
        sample_cfg(gamma_range=(-2.0, 0.0))
    with pytest.raises(DomainError):
        sample_cfg(B_range=(1e-6, 5e-4))  # entirely below min_field
    with pytest.raises(DomainError):
        sample_cfg(epsilon=0.0)
    with pytest.raises(DomainError):
        sample_cfg(bath_model="squeezed")
    with pytest.raises(DomainError):
        sample_cfg(discard_rule=-1.0)
    with pytest.raises(DomainError):
        sample_cfg(master_seed=1.5)


def test_sweep_configs_keep_their_epsilon_as_a_float():
    # a numeric string, as `--set epsilon=.01` passes it, is checked and
    # stored as the number, so the sweep classifies with it
    cfg = sample_cfg(epsilon=".01", n_samples=2)
    assert type(cfg.epsilon) is float and cfg.epsilon == 0.01
    assert all(rec.thermo is not None for rec in random_sweep(cfg))
    grid = GridScanConfig(
        bath_model="repeated_interaction",
        J=VALVE["J"], Delta=VALVE["Delta"],
        B1=VALVE["B1"], B3=VALVE["B3"],
        B2_min=1.0, B2_max=2.0, n_points=2,
        gamma=(0.5, 0.5, 0.5), epsilon="0.01",
    )
    assert type(grid.epsilon) is float and grid.epsilon == 0.01
    assert all(rec.thermo is not None for rec in valve_sweep(grid))
    with pytest.raises(DomainError):
        sample_cfg(epsilon="tight")


def test_effective_discard_rule_defaults():
    assert sample_cfg().effective_discard_rule == 0.0
    harmonic = sample_cfg(
        bath_model="harmonic", gamma=(1e-6,) * 3, gamma_range=None
    )
    assert harmonic.effective_discard_rule == 100.0
    assert sample_cfg(discard_rule=7.0).effective_discard_rule == 7.0


def test_discard_flags():
    # threshold 100 * 1e-2 = 1 covers the whole field range
    cfg = sample_cfg(
        bath_model="harmonic",
        B_range=(0.0, 1.0),
        gamma=(1e-2,) * 3,
        gamma_range=None,
        n_samples=4,
    )
    for rec in random_sweep(cfg):
        assert "discarded" in rec.flags
    # threshold 1e-4 sits below min_field, so nothing is discarded
    cfg2 = sample_cfg(
        bath_model="harmonic",
        B_range=(0.0, 1.0),
        gamma=(1e-6,) * 3,
        gamma_range=None,
        n_samples=4,
    )
    for rec in random_sweep(cfg2):
        assert "discarded" not in rec.flags


def test_evaluate_point_error_flag():
    p = ModelParams(
        B=(0.0, 1.0, 1.0), J=(0.1, 0.1, 0.1), Delta=(0.1, 0.1, 0.1),
        T=(1.0, 2.0, 3.0), gamma=(0.5, 0.5, 0.5),
        bath_model="repeated_interaction",
    )
    ev = evaluate_point(p)
    assert isinstance(ev, SweepRecord) and ev.params == p
    assert ev.flags == ("error:DomainError",)
    assert ev.thermo is None and ev.correlations is None and ev.residual is None


@pytest.mark.parametrize("p, reported", [
    (local_point(B=(0.9, 1.7, 2.6)), True),
    (global_point(B=(0.37, 0.61, 0.83)), True),
    (local_point(B=(0.0, 1.0, 1.0)), False),  # a switched-off field: error:DomainError
], ids=["local", "harmonic", "error"])
def test_a_records_reports_are_those_of_its_point_alone(p, reported):
    # a record built by evaluate_point, or read off a sweep's columns,
    # builds its reports from its row on first read
    for rec in (evaluate_point(p), sweeps._evaluate_many([p], DEFAULT_EPSILON, 1)[0]):
        if not reported:
            assert rec.flags == ("error:DomainError",)
            assert rec.thermo is None and rec.correlations is None
            continue
        sol = solve_point(p)
        [co] = correlations._correlation_rows(sol.rho[None], (p,))
        [(cells, broken)] = thermo._thermo_rows([sol], DEFAULT_EPSILON, [(co[:3], co[3:6])])
        assert broken == ()
        # repr spells every float to its last bit
        assert repr(rec.thermo) == repr(thermo._thermo_view(cells, p, DEFAULT_EPSILON))
        assert repr(rec.correlations) == repr(correlations._correlation_view(co))
        assert rec.thermo is rec.thermo and rec.correlations is rec.correlations


def test_a_random_sweep_builds_no_report_on_its_way_to_the_csv(tmp_path, monkeypatch):
    built = []

    def counted(name):
        view = getattr(sweeps, name)
        return lambda *args: built.append(name) or view(*args)

    for name in ("_thermo_view", "_correlation_view"):
        monkeypatch.setattr(sweeps, name, counted(name))
    for config in ("local_scatter", "global_scatter"):
        cfg = SweepConfig(**{**json.loads((CONFIGS / f"{config}.json").read_text()),
                             "n_samples": 3})
        records = random_sweep(cfg)
        write_records(records, tmp_path / "records.csv", "random", cfg)
        assert built == []
    # a record builds each report where it is read, once
    rec = records[0]
    assert rec.thermo is rec.thermo and rec.correlations is rec.correlations
    assert built == ["_thermo_view", "_correlation_view"]


@pytest.mark.parametrize("p", [
    ModelParams(B=(1.0, 2.0, 3.0), J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                T=(1.0, 2.0, 3.0), gamma=(1e200,) * 3, bath_model="repeated_interaction"),
    global_point(B=(0.37, 0.61, 0.83), T=(1e300,) * 3),
    # 2 B_1 / T_1 = 2e-298 gives a finite occupation of 5e297
    ModelParams(B=(1e-300, 1.0, 2.0), J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                T=(1e-2, 2.0, 3.0), gamma=(0.5, 0.5, 0.5), bath_model="repeated_interaction"),
], ids=["local-huge-rates", "harmonic-hot-baths", "local-huge-occupation"])
def test_overflowing_residual_is_a_consistency_error_record(p):
    # the rates overflow the generator norm to inf; the point is one error
    # record, not an exception out of the sweep, and no numpy overflow
    # warning rides along
    ev = evaluate_point(p)
    assert ev.flags == ("error:NumericalConsistencyError",)
    assert ev.thermo is None and ev.correlations is None and ev.residual is None


def test_underflowing_bose_argument_is_a_domain_error_record():
    # 2 B_1 / T_1 = 2e-330 underflows to 0, where 1/expm1 would divide by zero
    p = ModelParams(B=(1e-300, 1.0, 2.0), J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                    T=(1e30, 2.0, 3.0), gamma=(0.5, 0.5, 0.5), bath_model="repeated_interaction")
    records = sweeps._evaluate_many([p], DEFAULT_EPSILON, 1)
    assert len(records) == 1 and records[0].flags == ("error:DomainError",)


def test_overflowing_bose_occupation_is_a_domain_error_record():
    # 2 B_1 / T_1 = 2e-310 is positive, but 1/expm1 of it overflows to inf
    p = ModelParams(B=(1e-300, 1.0, 2.0), J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                    T=(1e10, 2.0, 3.0), gamma=(0.5, 0.5, 0.5), bath_model="repeated_interaction")
    assert evaluate_point(p).flags == ("error:DomainError",)


def test_overflowing_rates_leave_no_bare_runtime_warning():
    # numpy's overflow warnings from rate and generator assembly used to
    # ride along as warn:RuntimeWarning next to the error flag at gamma = 1e300
    grid = itertools.product(
        ("harmonic", "repeated_interaction"),
        ((1e-300, 1.0, 2.0), (1.0, 2.0, 3.0), (1e-8,) * 3, (1e8, 1.0, 2.0), (1e300, 1.0, 2.0)),
        (1e-300, 1e-20, 0.5, 1e300),
        (1e-300, 1.0, 1e300),
    )
    for bath_model, B, gamma, t1 in grid:
        p = ModelParams(B=B, J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                        T=(t1, 2.0, 3.0), gamma=(gamma,) * 3, bath_model=bath_model)
        flags = evaluate_point(p).flags
        assert "warn:RuntimeWarning" not in flags, (bath_model, B, gamma, t1, flags)
        if gamma == 1e300:
            errors = [f for f in flags if f.startswith("error:")]
            assert len(errors) == 1, (bath_model, B, t1, flags)


@pytest.mark.filterwarnings("ignore::triqubit.errors.SecularValidityWarning")
@pytest.mark.parametrize("bath_model", ["harmonic", "repeated_interaction"])
def test_overflowing_bath_rates_are_a_domain_error_naming_the_site(bath_model):
    # the occupations of bath 1 reach ~1e300, so gamma (1 + n) overflows there
    p = ModelParams(B=(1.0, 2.0, 3.0), J=LOCAL_SCATTER["J"], Delta=LOCAL_SCATTER["Delta"],
                    T=(1e300, 2.0, 3.0), gamma=(1e10, 1.0, 1.0), bath_model=bath_model)
    with pytest.raises(DomainError, match="site 1: rates overflow"):
        solve_point(p)


def test_cold_bath_sweeps_yield_one_record_per_index():
    # 2B/T reaches ~1e5 at the coldest decade, far past where e^(2B/T)
    # overflows a double; the sweep must still finish, one record per index.
    # Currents there are roundoff of either sign: Unclassified, not errors
    for bath_model, base in (
        ("repeated_interaction", dict(LOCAL_SCATTER, gamma_range=(0.1, 1.0))),
        ("harmonic", GLOBAL_SCATTER),
    ):
        for decade in range(-4, 2):
            t = 10.0**decade
            cfg = SweepConfig(**{
                **base, "T": (t, 2.0 * t, 3.0 * t), "bath_model": bath_model,
                "B_range": (0.5, 4.5), "n_samples": 3, "master_seed": MASTER_SEED,
            })
            records = random_sweep(cfg)
            assert [rec.index for rec in records] == [0, 1, 2]
            flags = [f for rec in records for f in rec.flags]
            assert not [f for f in flags if f.startswith("error:")], (bath_model, decade, flags)


def test_harmonic_cold_bath_roundoff_currents_are_unclassified():
    # the population-route currents here are ~-1e-153, all of one sign:
    # roundoff under the absolute floor, not a first-law violation
    p = global_point(B=(0.37, 0.61, 0.83), T=(1e-4, 2e-4, 3e-4))
    rec = evaluate_point(p)
    assert not [f for f in rec.flags if f.startswith("error:")], rec.flags
    assert rec.thermo.regime is Regime.UNCLASSIFIED
    floor = 1e-12 * max(p.gamma) * (1.0 + max(p.B))
    assert max(abs(q) for q in rec.thermo.Q) <= floor


@pytest.mark.parametrize("model_name, base", [
    ("repeated_interaction", dict(LOCAL_SCATTER, gamma_range=(0.1, 1.0), B_range=(0.5, 4.5))),
    ("harmonic", dict(GLOBAL_SCATTER, B_range=(0.0, 1.0))),
])
def test_sweeps_keep_the_memoized_operators_parameter_free(model_name, base):
    # a float parameter in any cache key would grow these caches per point
    caches = (algebra._embedded, model._pair_strings, model._sector_layout,
              local_me._unit_dissipators, local_me._site_stacks, local_me._action_gathers,
              local_me._lowering_jumps, global_me._site_couplings)
    for cache in caches + (model.liouville_block_groups, local_me._transform_gathers):
        cache.cache_clear()
    cfg = SweepConfig(**{**base, "bath_model": model_name, "n_samples": 20,
                         "master_seed": MASTER_SEED})
    assert len(random_sweep(cfg)) == 20
    # 3 sites x 5 axes, 3 pairs, 1 register size, at most one template set
    # and one of each set of site stacks
    sizes = [cache.cache_info().currsize for cache in caches]
    assert sizes[0] <= 15 and sizes[1:3] == [3, 1] and max(sizes[3:]) <= 1, sizes
    # the block layouts are keyed by the energy ordering of the magnetization
    # labels: at most one entry per ordering the sweep met, plus the
    # computational basis's own
    orderings = {tuple(model.sector_spectrum(model.build_hamiltonian(draw_params(cfg, k)))
                       .sectors.tolist()) for k in range(20)}
    by_labels = (model.liouville_block_groups, local_me._transform_gathers)
    sizes = [cache.cache_info().currsize for cache in by_labels]
    assert max(sizes) <= len(orderings) + 1, (sizes, len(orderings))
    if model_name == "repeated_interaction":
        assert sizes[0] >= 1, sizes
    else:  # the fully secular harmonic points read no layout keyed by the labels
        assert sizes == [0, 0], sizes


def test_random_sweep_repeatable_csv(tmp_path):
    cfg = sample_cfg(n_samples=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(random_sweep(cfg), p1, "random", cfg)
    write_records(random_sweep(cfg), p2, "random", cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    cfg = sample_cfg(n_samples=5)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_records(random_sweep(cfg, workers=1), p1, "random", cfg)
    write_records(random_sweep(cfg, workers=2), p2, "random", cfg)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("workers, cpus, expected", [
    (4096, 64, [4]),  # no more workers than points, this process one of them
    (4096, 3, [2]),  # nor than usable CPUs
    (2, 64, [1]),
    (4096, 1, []),  # one CPU: serial, no pool
])
def test_pool_size_is_capped_by_points_and_cpus(tmp_path, monkeypatch, workers, cpus, expected):
    forked = []  # the tasks of each forked share

    class InProcessShare:
        """_ForkedShare stand-in: evaluates its share here, starts no process."""

        def __init__(self, tasks):
            forked.append(tasks)
            self._records = sweeps._share_records(tasks)

        def records(self):
            return self._records

        def kill(self):
            pass

    cfg = SweepConfig(**{**LOCAL_SCATTER, "bath_model": "repeated_interaction",
                         "B_range": (0.5, 4.5), "gamma": (0.5, 0.5, 0.5),
                         "n_samples": 5, "master_seed": MASTER_SEED})
    serial = tmp_path / "serial.csv"
    write_records(random_sweep(cfg, workers=1), serial, "random", cfg)
    monkeypatch.setattr(sweeps, "_ForkedShare", InProcessShare)
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: cpus)
    pooled = tmp_path / "pooled.csv"
    write_records(random_sweep(cfg, workers=workers), pooled, "random", cfg)
    # one _evaluate_many call, which forks workers - 1 shares
    assert ([len(forked)] if forked else []) == expected
    assert pooled.read_bytes() == serial.read_bytes()
    # this process ran the first tasks itself; the forked shares got the rest
    starts = [start for tasks in forked for start, _, _ in tasks]
    assert 0 not in starts
    assert bool(starts) == bool(expected) and starts == list(range(5 - len(starts), 5))


class Unpicklable(Exception):
    """An exception that pickles but does not load: its __init__ takes two arguments."""

    def __init__(self, where, what):
        super().__init__(f"{what} at run {where}")


def _fork_two_shares(monkeypatch, run):
    """_evaluate_many on 4 points at 2 real workers, run(task, real) in place of each run.

    This process evaluates the runs that start at 0 and 1, one forked
    process those at 2 and 3. Returns the call's exception, and checks
    that no child process is left.
    """
    real = sweeps._evaluate_chunk
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sweeps, "_evaluate_chunk", lambda task: run(task, real))
    points = [draw_params(sample_cfg(), k) for k in range(4)]
    with pytest.raises(BaseException) as caught:
        sweeps._evaluate_many(points, DEFAULT_EPSILON, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return caught.value


def _raise_in_the_fork(make):
    """A run() that raises make(start) in place of the runs of the forked share."""
    def run(task, real):
        if task[0] >= 2:
            raise make(task[0])
        return real(task)

    return run


def test_a_forked_share_that_raises_raises_here(monkeypatch):
    error = _fork_two_shares(monkeypatch, _raise_in_the_fork(
        lambda start: DomainError(f"injected at run {start}")))
    assert type(error) is DomainError and str(error) == "injected at run 2"
    # an exception that does not load comes back as its traceback's text
    error = _fork_two_shares(monkeypatch, _raise_in_the_fork(
        lambda start: Unpicklable(start, "injected")))
    assert type(error) is RuntimeError
    assert str(error).startswith("a forked sweep worker failed:\nTraceback")
    assert str(error).endswith("Unpicklable: injected at run 2\n")


@pytest.mark.parametrize("end, named", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["exit", "signal"])
def test_a_forked_share_that_dies_names_its_exit_status(monkeypatch, end, named):
    def run(task, real):
        if task[0] >= 2:
            end()
        return real(task)

    error = _fork_two_shares(monkeypatch, run)
    assert type(error) is RuntimeError
    assert str(error) == f"a forked sweep worker {named} before it sent its records"


def test_a_failing_own_share_kills_and_reaps_the_forked_ones(monkeypatch):
    def run(task, real):
        if task[0] >= 2:
            time.sleep(120)  # killed long before it wakes
        raise KeyboardInterrupt

    start = time.monotonic()
    assert type(_fork_two_shares(monkeypatch, run)) is KeyboardInterrupt
    assert time.monotonic() - start < 60


def test_valve_sweep_labels_and_error_point():
    cfg = GridScanConfig(
        bath_model="repeated_interaction",
        J=VALVE["J"], Delta=VALVE["Delta"],
        B1=VALVE["B1"], B3=VALVE["B3"],
        B2_min=0.0, B2_max=2.0, n_points=5,
        gamma=(0.5, 0.5, 0.5),
    )
    records = valve_sweep(cfg)
    assert [rec.index for rec in records] == list(range(5))
    # the B2 = 0 point cannot build its bath and is flagged, not dropped
    assert records[0].flags == ("error:DomainError",)
    assert records[0].extra["combination"] == ""
    for rec in records[1:]:
        assert rec.flags == ()
        assert rec.extra["combination"] in {
            "Q1>0,Q3>0", "Q1>0,Q3<0", "Q1<0,Q3>0", "Q1<0,Q3<0", "indeterminate",
        }


# --- grid scans in chunks: one stacked solve per sector order ---

def _flip_harmonic_currents(monkeypatch, b2s):
    """Every heat current of the harmonic points at the fields B2 in b2s flipped: a second-law breach."""
    honest = thermo._harmonic_heat_currents
    monkeypatch.setattr(thermo, "_harmonic_heat_currents", lambda sol: (
        tuple(-q for q in honest(sol)) if sol.params.B[1] in b2s else honest(sol)))


def _fail_past_the_grid(monkeypatch, cfg):
    """Every solve past the end of cfg's grid, as the edge search makes them, fails."""
    solve = sweeps.solve_point

    def failing(p):
        if p.B[1] > cfg.B2_max:
            raise DegenerateSteadyStateError("injected failure")
        return solve(p)

    monkeypatch.setattr(sweeps, "solve_point", failing)


# id: (config, overrides, the flags some record must carry)
CSV_CASES = {
    "boost": ("boost", {}, ("edge",)),
    "valve": ("valve", {}, ()),
    "valve-harmonic": ("valve", {"bath_model": "harmonic"}, ()),
    # the zero-field point cannot build its bath
    "valve-zero-field": ("valve", {"B2_min": 0.0, "n_points": 40}, ("error:DomainError",)),
    # every point warns, and two of them break the second law
    "valve-harmonic-warned": ("valve", {"bath_model": "harmonic", "gamma": [0.05] * 3,
                                        "n_points": 40},
                              ("error:NumericalConsistencyError", "warn:SecularValidityWarning")),
    # equal outer fields and uniform exchange: every point warns, and rows
    # 0, 2 and 4 raise after their build warned
    "valve-harmonic-clustering": ("valve", {"bath_model": "harmonic", "J": [0.01] * 3,
                                            "Delta": [0.0] * 3, "B1": 0.01, "B3": 0.01,
                                            "B2_min": 0.01, "B2_max": 0.05, "n_points": 9,
                                            "gamma": [1e-5] * 3},
                                  ("error:ClusteringError", "warn:ZeroModeWarning")),
    # every solve past the grid fails, so the edge search finds no edge
    "boost-edge-failed": ("boost", {"n_points": 20}, ("edge_failed",)),
    "random": ("local_scatter", {"n_samples": 30, "discard_rule": 2.0}, ("discarded",)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(CSV_CASES))
def test_grid_csv_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, case, workers):
    # the bytes write_records takes from the columns are those csv.writer
    # writes of each record's cells (oracles.record_row), at every chunk size
    # and worker count. Three workers run on three CPUs, whatever the host
    # has: a pool of two forked processes beside this one
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: 3)
    config, overrides, flags = CSV_CASES[case]
    data = {**json.loads((CONFIGS / f"{config}.json").read_text()), **overrides}
    if config == "local_scatter":
        cfg, driver, columns = SweepConfig(**data), random_sweep, ()
    else:
        cfg = GridScanConfig(**data)
        driver, columns = {"boost": (boost_scan, BOOST_COLUMNS),
                           "valve": (valve_sweep, VALVE_COLUMNS)}[config]
    if case == "valve-harmonic-warned":
        grid = sweeps._grid_points(cfg)
        _flip_harmonic_currents(monkeypatch, {grid[3].B[1], grid[30].B[1]})
    if case == "boost-edge-failed":
        _fail_past_the_grid(monkeypatch, cfg)
    written = []
    for chunk in (1, 7, 64):
        # a forked pool's workers see the constant as the parent sets it
        monkeypatch.setattr(sweeps, "_GRID_CHUNK", chunk)
        records = driver(cfg, workers=workers)
        path = tmp_path / f"{chunk}.csv"
        write_records(records, path, config, cfg, extra_columns=columns)
        written.append(path.read_bytes())
        assert written[-1] == oracles.csv_text(list(records), config, cfg, columns).encode()
    assert written[1] == written[0] and written[2] == written[0]
    seen = {flag for rec in records for flag in rec.flags}
    assert set(flags) <= seen, seen
    if config == "valve":  # the labels hold commas: csv.writer quotes them
        assert b'"Q1' in written[0]
    if case == "valve-harmonic-warned":
        assert [rec.index for rec in records if rec.thermo is None] == [3, 30]
    if case == "valve-harmonic-clustering":
        # the error first, then the warning its build issued, on its own index
        assert [rec.flags for rec in records[:3]] == [
            ("error:ClusteringError", "warn:ZeroModeWarning"), ("warn:ZeroModeWarning",),
            ("error:ClusteringError", "warn:ZeroModeWarning")]


def _sector_order(p):
    return tuple(model.sector_spectrum(model.build_hamiltonian(p)).sectors.tolist())


def _assert_solved_alone(run):
    """solve_points(run) returns for each point the solution solve_point returns for it."""
    for p, sol in zip(run, steady_state.solve_points(run), strict=True):
        alone = solve_point(p)
        assert np.array_equal(sol.rho, alone.rho)
        assert np.array_equal(sol.rho_eig, alone.rho_eig)
        assert sol.residual == alone.residual
        assert np.array_equal(sol.populations, alone.populations)
        assert sol.population_closed == alone.population_closed


def _harmonic_run():
    """Harmonic points of several sector orders: 40 fully secular, 40 closed, 8 unclosed."""
    cfg = SweepConfig(**json.loads((CONFIGS / "global_scatter.json").read_text()))
    secular = [draw_params(cfg, k) for k in range(40)]
    # uncoupled, a site's flip is one cluster of four transitions that
    # share no row or column: closed, not fully secular
    closed = [replace(p, J=(0.0,) * 3, Delta=(0.0,) * 3) for p in secular]
    unclosed = [ModelParams(B=(b,) * 3, J=(j,) * 3, Delta=(0.0,) * 3, T=(1.0, 2.0, 3.0),
                            gamma=(1e-7,) * 3, bath_model="harmonic")
                for b in (1e-3, 0.1, 1.0, 3.0) for j in (1e-4, 1e-2)]
    run = [p for trio in itertools.zip_longest(secular, closed, unclosed) for p in trio if p]
    kinds = [global_me.site_rate_matrices(steady_state._build_generators([p])[0])[1:]
             for p in run]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        (True, True): 40, (True, False): 40, (False, False): 8}
    assert len({_sector_order(p) for p in run}) > 1
    return run


def test_stacked_solves_keep_the_bits_of_one_point_solves():
    cfg = SweepConfig(**{**json.loads((CONFIGS / "local_scatter.json").read_text()),
                         "n_samples": 300})
    points = [draw_params(cfg, k) for k in range(cfg.n_samples)]
    groups = {}
    for p in points:
        groups.setdefault(_sector_order(p), []).append(p)
    assert len(groups) > 1
    for group in groups.values():
        for start in range(0, len(group), 64):
            _assert_solved_alone(group[start:start + 64])
    # harmonic points go in one call, whatever their kind and sector order
    _assert_solved_alone(_harmonic_run())


def _report_passes(sols, epsilon):
    """The rows of each report pass of the record body over sols, the local currents' too."""
    rhos = np.array([sol.rho for sol in sols])
    co = correlations._correlation_rows(rhos, [sol.params for sol in sols])
    passes = [co, thermo._thermo_rows(sols, epsilon, [(row[:3], row[3:6]) for row in co])]
    if sols[0].params.bath_model == "repeated_interaction":
        columns = local_me._current_columns(rhos, [sol.generators for sol in sols])
        passes.append(list(zip(*(column.tolist() for column in columns))))
    return passes


def _assert_reported_alone(run, epsilon=DEFAULT_EPSILON):
    """The report passes over run's solutions give the rows of a stack of each point alone."""
    sols = steady_state.solve_points(run)
    stacked = _report_passes(sols, epsilon)
    assert [broken for _, broken in stacked[1]] == [()] * len(run)
    alone = [_report_passes([sol], epsilon) for sol in sols]
    for kind, rows in enumerate(stacked):
        assert len(rows) == len(run)
        # repr spells every float to its last bit, signed zeros included
        assert [repr(row) for row in rows] == [repr(passes[kind][0]) for passes in alone]


def test_stacked_reports_keep_the_bits_of_one_point_reports():
    cfg = SweepConfig(**{**json.loads((CONFIGS / "local_scatter.json").read_text()),
                         "n_samples": 300})
    groups = {}
    for p in (draw_params(cfg, k) for k in range(cfg.n_samples)):
        groups.setdefault(_sector_order(p), []).append(p)
    assert len(groups) > 1
    for group in groups.values():
        for start in range(0, len(group), 64):
            _assert_reported_alone(group[start:start + 64])
    boost = GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text()))
    _assert_reported_alone(sweeps._grid_points(boost), boost.epsilon)
    valve = GridScanConfig(**json.loads((CONFIGS / "valve.json").read_text()))
    _assert_reported_alone(sweeps._grid_points(replace(valve, bath_model="harmonic")))


def test_solve_points_of_no_points_is_empty():
    assert steady_state.solve_points([]) == []


def test_one_solve_takes_one_bath_model():
    points = [draw_params(sample_cfg(), 0), global_point(B=(0.37, 0.61, 0.83))]
    for run in (points, points[::-1]):
        with pytest.raises(DomainError, match="one bath model"):
            steady_state.solve_points(run)


def _valve_chunk():
    """Clean points of the bundled valve grid, the last of another sector order than the rest."""
    cfg = GridScanConfig(**json.loads((CONFIGS / "valve.json").read_text()))
    grid = sweeps._grid_points(cfg)
    points = grid[:8] + grid[-1:]
    orders = [_sector_order(p) for p in points]
    assert len(set(orders[:-1])) == 1 and orders[-1] != orders[0]
    return cfg, points


def test_a_point_below_its_mi_bound_is_an_error_row_on_its_own_index(monkeypatch):
    # the record body judges the MI bound with the other laws: alone, and
    # inside a chunk that is solved once and not split, the point is an
    # error row and its neighbours keep their rows
    cfg, points = _valve_chunk()
    alone = [replace(evaluate_point(p, cfg.epsilon), index=k) for k, p in enumerate(points)]
    assert not any(rec.flags for rec in alone)
    broken = 4
    break_mi_bound(monkeypatch, points[broken])
    rec = evaluate_point(points[broken], cfg.epsilon)
    assert rec.flags == ("error:NumericalConsistencyError",)
    assert rec.row == (None,) * len(sweeps.VALUE_COLUMNS) and rec.thermo is None
    solves = []
    real = steady_state.solve_points
    monkeypatch.setattr(sweeps, "solve_points", lambda run: solves.append(len(run)) or real(run))
    monkeypatch.setattr(sweeps, "solve_point", None)
    records = sweeps._evaluate_many(points, cfg.epsilon, 1, len(points))
    assert solves == [len(points)]
    for k, rec in enumerate(records):
        if k == broken:
            assert rec.index == k and rec.flags == ("error:NumericalConsistencyError",)
            assert rec.row == (None,) * len(sweeps.VALUE_COLUMNS)
        else:
            assert rec == alone[k]


def test_a_chunk_of_two_sector_orders_is_solved_stacked(monkeypatch):
    cfg, points = _valve_chunk()
    alone = [replace(evaluate_point(p, cfg.epsilon), index=k) for k, p in enumerate(points)]
    # no point is solved on its own, and the run is not split into runs of one
    monkeypatch.setattr(sweeps, "solve_point", None)
    runs = []
    body = sweeps._run_records

    def spy(run, *args):
        runs.append(len(run))
        return body(run, *args)

    monkeypatch.setattr(sweeps, "_run_records", spy)
    records = sweeps._evaluate_many(points, cfg.epsilon, 1, len(points))
    assert records == alone and not any(rec.flags for rec in records)
    assert runs == [len(points)]


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_and_warnings_in_a_chunk_stay_on_their_own_index(monkeypatch, workers):
    # at two workers this process takes points 0-4, and one forked process
    # points 5-8, which inherits the stand-ins patched in below
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: 2)
    cfg, points = _valve_chunk()
    overflowing = ModelParams(B=(1.0, 2.0, 3.0), J=LOCAL_SCATTER["J"],
                              Delta=LOCAL_SCATTER["Delta"], T=(1.0, 2.0, 3.0),
                              gamma=(1e200,) * 3, bath_model="repeated_interaction")
    failing = {
        2: (sweeps._grid_params(cfg, 0.0), ("error:DomainError",)),
        4: (overflowing, ("error:NumericalConsistencyError",)),
        7: (overflowing, ("error:NumericalConsistencyError",)),
    }
    for k, (p, _) in failing.items():
        points[k] = p
    # a warning the rates of one point raise, in the stacked pass and alone
    warned = points[6]
    real = local_me.local_rates

    def rates(p):
        if p == warned:
            warnings.warn("injected", RuntimeWarning)
        return real(p)

    monkeypatch.setattr(local_me, "local_rates", rates)
    records = sweeps._evaluate_many(points, cfg.epsilon, workers, len(points))
    assert [rec.index for rec in records] == list(range(len(points)))
    for k, rec in enumerate(records):
        assert rec == replace(evaluate_point(points[k], cfg.epsilon), index=k)
        if k in failing:
            assert rec.flags == failing[k][1] and rec.thermo is None
        elif k == 6:
            assert rec.flags == ("warn:RuntimeWarning",) and rec.thermo is not None
        else:
            assert rec.flags == ()
    # a report that raises for one point of a clean chunk: the records are
    # rebuilt from the stacked solutions, and no point is solved again
    monkeypatch.undo()
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: 2)
    cfg, points = _valve_chunk()
    broken = {points[3].B, points[6].B}
    real = thermo._current_floor

    def current_floor(p):
        if p.B in broken:
            raise DomainError("injected")
        return real(p)

    monkeypatch.setattr(thermo, "_current_floor", current_floor)
    alone = [replace(evaluate_point(p, cfg.epsilon), index=k) for k, p in enumerate(points)]
    solved = []
    solve = steady_state._solve_points

    def spy(run):
        solved.extend(run)
        return solve(run)

    monkeypatch.setattr(steady_state, "_solve_points", spy)
    records = sweeps._evaluate_many(points, cfg.epsilon, workers, len(points))
    assert records == alone
    assert [rec.flags for rec in records] == [
        ("error:DomainError",) if k in (3, 6) else () for k in range(len(points))]
    for k in (3, 6):
        assert records[k].thermo is None and records[k].correlations is None
    # the stacked solve is not redone: each point of this process's share
    # is solved once (the forked process's solves are not seen here)
    assert solved == points[:math.ceil(len(points) / workers)]


def test_a_warned_grid_is_solved_once_and_a_failed_run_once_more(monkeypatch):
    # a harmonic point's build warnings are flags of its own record, so a
    # grid whose every point warns is solved once; a run whose stacked solve
    # raises is split into runs of one, which solve their points again
    monkeypatch.setattr(sweeps, "_GRID_CHUNK", 64)
    valve = json.loads((CONFIGS / "valve.json").read_text())
    solved = []
    real = steady_state._solve_points

    def spy(points):
        solved.extend(points)
        return real(points)

    monkeypatch.setattr(steady_state, "_solve_points", spy)
    cfg = GridScanConfig(**{**valve, "bath_model": "harmonic", "gamma": [0.05] * 3})
    warned = valve_sweep(cfg, workers=1)
    assert len(warned) == len(solved) == 200
    assert warned.flags == [("warn:SecularValidityWarning",)] * 200
    solved.clear()
    zero_field = valve_sweep(GridScanConfig(**{**valve, "B2_min": 0.0}), workers=1)
    assert len(zero_field) == 200 and len(solved) <= 250
    assert zero_field.flags[0] == ("error:DomainError",)


def test_boost_scan_empty_outside_window():
    cfg = GridScanConfig(
        bath_model="repeated_interaction",
        J=BOOST["J"], Delta=BOOST["Delta"],
        B1=BOOST["B1"], B3=BOOST["B3"],
        B2_min=0.1, B2_max=0.5, n_points=3,
        gamma=BOOST["gamma"],
    )
    assert boost_scan(cfg) == []


def test_boost_scan_appends_edge():
    cfg = GridScanConfig(
        bath_model="repeated_interaction",
        J=BOOST["J"], Delta=BOOST["Delta"],
        B1=BOOST["B1"], B3=BOOST["B3"],
        B2_min=2.95, B2_max=3.05, n_points=3,
        gamma=BOOST["gamma"],
    )
    records = boost_scan(cfg)
    assert len(records) == 4
    for rec in records[:3]:
        assert rec.thermo.regime is Regime.IV
        assert rec.extra["cop_norm"] is not None
    edge = records[3]
    assert "edge" in edge.flags
    assert abs(edge.thermo.W) < 1e-9 * max(abs(q) for q in edge.thermo.Q)
    # the three performance measures merge at the zero-work edge
    e = edge.extra
    assert abs(e["cop_norm"] - e["cop_w_norm"]) < 1e-6 * e["cop_norm"]
    assert abs(e["cop_norm"] - e["cop_otto_norm"]) < 1e-6 * e["cop_norm"]


def test_boost_edge_search_solves_each_b2_once(monkeypatch):
    # the Brent root search opens on two bracket ends whose work the grid or
    # the secant probe has already solved, and the edge it returns is a
    # point it solved
    cfg = GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text()))
    solved = []
    real = steady_state._solve_points

    def spy(points):
        # the grid's stacked solves and the search's one-point solves meet here
        solved.extend(params.B[1] for params in points)
        return real(points)

    monkeypatch.setattr(steady_state, "_solve_points", spy)
    records = boost_scan(cfg)
    assert len(solved) == len(set(solved)) == cfg.n_points + 5
    edge = records[-1]
    assert edge.index == cfg.n_points and edge.params.B[1] in solved[cfg.n_points:]
    monkeypatch.undo()
    fresh = evaluate_point(edge.params, epsilon=cfg.epsilon)
    assert edge.flags == fresh.flags + ("edge",)
    assert (edge.thermo, edge.correlations, edge.residual) == (
        fresh.thermo, fresh.correlations, fresh.residual)


# the zero-work edge of configs/boost.json, as the step-by-step search found it
BOOST_EDGE_B2 = 3.3277271647192781


def _bench_run():
    import sys

    bench = str(CONFIGS.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import run

    return run


@pytest.mark.parametrize("shift", [None, 1, 2, 3, 4, 5])
def test_boost_edge_lies_on_the_zero_of_w(shift):
    # the bundled grid (None) and the benchmark's shifted grids
    base = json.loads((CONFIGS / "boost.json").read_text())
    data, expected = _bench_run().seeded_config("boost_pool", base, shift)
    records = boost_scan(GridScanConfig(**data))
    assert len(records) == expected
    edge = records[-1]
    assert "edge" in edge.flags
    assert abs(edge.thermo.W) <= 1e-15
    assert abs(edge.params.B[1] - BOOST_EDGE_B2) <= 1e-13


W_CELL = sweeps.VALUE_COLUMNS.index("W")


def _fake_work(monkeypatch, cfg, w_of_b2):
    """The grid's B2 and work w_of_b2(B2), and the map of the B2 solved past it; every later
    solve is logged, its record a row whose only number is W."""
    b2 = [p.B[1] for p in sweeps._grid_points(cfg)]
    probes = []

    def fake(params, epsilon):
        probes.append(params.B[1])
        row = [None] * len(sweeps.VALUE_COLUMNS)
        row[W_CELL] = w_of_b2(params.B[1])
        return SimpleNamespace(params=params, row=tuple(row), flags=())

    monkeypatch.setattr(sweeps, "evaluate_point", fake)
    return (b2, [w_of_b2(x) for x in b2]), {}, probes


def _grid_cfg(b2_min, b2_max, n_points):
    return GridScanConfig(bath_model="repeated_interaction", J=BOOST["J"],
                          Delta=BOOST["Delta"], B1=BOOST["B1"], B3=BOOST["B3"],
                          B2_min=b2_min, B2_max=b2_max, n_points=n_points,
                          gamma=BOOST["gamma"])


def test_edge_search_probes_just_past_the_secant_root(monkeypatch):
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(monkeypatch, cfg, lambda b2: b2 - 3.4)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    assert probes[0] == pytest.approx(3.3 + 1.01 * 0.1, rel=1e-14)
    assert edge == pytest.approx(3.4, abs=1e-12)


def test_edge_search_steps_one_grid_spacing_where_w_does_not_rise(monkeypatch):
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(
        monkeypatch, cfg, lambda b2: -1.0 if b2 <= 3.3 + 1e-9 else b2 - 3.35)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    step = (cfg.B2_max - cfg.B2_min) / (cfg.n_points - 1)
    assert probes[0] == cfg.B2_max + step
    assert edge == pytest.approx(3.35, abs=1e-12)


def test_edge_search_steps_one_grid_spacing_from_a_single_point(monkeypatch):
    # one grid point has no second point for a secant, and its grid has no
    # spacing: the step is 5% of 1 + B2
    cfg = _grid_cfg(3.05, 3.05, 1)
    grid, solved, probes = _fake_work(monkeypatch, cfg, lambda b2: b2 - 3.1)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    assert probes[0] == 3.05 + 0.05 * (1.0 + 3.05)
    assert edge == pytest.approx(3.1, abs=1e-12)


def test_edge_search_probe_below_the_edge_becomes_the_lower_end(monkeypatch):
    # W is concave, so the secant of the last two grid points undershoots
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(monkeypatch, cfg, lambda b2: (b2 - 2.0) ** 0.5 - 1.2)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    first, second = probes[:2]
    assert cfg.B2_max < first < 3.44
    # the next secant starts from the probe and the last grid point
    w_grid, w_first = grid[1][-1], solved[first].row[W_CELL]
    assert second == pytest.approx(
        first + 1.01 * w_first * (first - cfg.B2_max) / (w_grid - w_first), rel=1e-14)
    assert edge == pytest.approx(3.44, abs=1e-12)
    assert len(probes) == len(set(probes))


def test_edge_search_caps_the_probe_where_w_is_nearly_flat(monkeypatch):
    # W rises by 1e-7 over the last grid interval, so the secant root lies
    # some 100 units away: the probe stops at 16 grid steps, past the edge
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(
        monkeypatch, cfg, lambda b2: 1e-6 * (b2 - 3.3) - 1e-3 if b2 <= 3.3 else b2 - 4.0)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    step = (cfg.B2_max - cfg.B2_min) / (cfg.n_points - 1)
    assert probes[0] == cfg.B2_max + 16 * step
    assert edge == pytest.approx(4.0, abs=1e-12)


def test_edge_search_floors_the_probe_where_w_rises_steeply(monkeypatch):
    # W climbs from -1e3 to -1e-9 over the last grid interval, so the secant
    # root lies 1e-13 away: the probe goes at least 1/64 of a grid step
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(
        monkeypatch, cfg, lambda b2: -1e-9 - 1e4 * (3.3 - b2) if b2 <= 3.3 else b2 - 3.3001)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    step = (cfg.B2_max - cfg.B2_min) / (cfg.n_points - 1)
    assert probes[0] == cfg.B2_max + step / 64
    assert edge == pytest.approx(3.3001, abs=1e-12)


def test_edge_search_takes_a_probe_at_zero_work_as_the_edge(monkeypatch):
    # W is exactly zero on [3.35, 3.45], where the first secant probe lands
    cfg = _grid_cfg(2.9, 3.3, 5)
    grid, solved, probes = _fake_work(
        monkeypatch, cfg, lambda b2: min(b2 - 3.35, 0.0) if b2 < 3.45 else b2 - 3.45)
    edge = sweeps._locate_edge(cfg, *grid, solved)
    assert len(probes) == 1 and edge == probes[0] and 3.35 < edge < 3.45


def test_boost_edge_search_failure_keeps_the_scan(monkeypatch):
    # every solve above the grid fails, so the search past the grid end
    # cannot bracket the edge; the grid records must survive
    cfg = GridScanConfig(
        bath_model="repeated_interaction",
        J=BOOST["J"], Delta=BOOST["Delta"],
        B1=BOOST["B1"], B3=BOOST["B3"],
        B2_min=2.95, B2_max=3.05, n_points=3,
        gamma=BOOST["gamma"],
    )
    solve = sweeps.solve_point

    def failing_above_grid(p):
        if p.B[1] > cfg.B2_max:
            raise DegenerateSteadyStateError("injected failure")
        return solve(p)

    monkeypatch.setattr(sweeps, "solve_point", failing_above_grid)
    records = boost_scan(cfg)
    assert [rec.index for rec in records] == [0, 1, 2]
    assert [rec.flags for rec in records] == [(), (), ("edge_failed",)]
    assert all(rec.thermo.regime is Regime.IV for rec in records)
    assert records[2].extra["cop_norm"] is not None


def _brent_families(rng):
    """(family, f, a, b, xtol) brackets of one sign change, seeded by rng."""
    def tanh(r, s):
        return lambda x: math.tanh(s * (x - r))

    def cubic(r, s):
        return lambda x: (x - r) ** 3 + s * (x - r)

    def expm1(r, s):
        return lambda x: math.expm1(s * (x - r))

    def damped_sine(r, s):
        return lambda x: math.exp(-0.3 * x) * math.sin(s * (x - r))

    def near_double(r, s):
        # roots at r -+ sqrt(d), a hair apart: the bracket holds the upper one
        return lambda x: (x - r) ** 2 - s * 1e-12

    def underflowing(r, s):
        # values near 1e-300, whose interpolation denominators underflow to 0
        return lambda x: 1e-300 * math.tanh(s * (x - r)) + 1e-310 * (x - r) ** 3

    for family in (tanh, cubic, expm1, damped_sine, near_double, underflowing):
        for _ in range(400):
            r, s = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 2.0)
            if family is near_double:
                root = r + math.sqrt(s * 1e-12)
                a, b = r + rng.random() * (root - r), root + 10.0 ** rng.uniform(-6.0, 0.5)
            elif family is damped_sine:
                half = 0.99 * math.pi / s
                a, b = r - rng.uniform(0.01, 1.0) * half, r + rng.uniform(0.01, 1.0) * half
            else:
                a, b = r - 10.0 ** rng.uniform(-6.0, 1.0), r + 10.0 ** rng.uniform(-6.0, 1.0)
                if family is expm1:  # keep exp(s (x - r)) finite
                    b = min(b, r + 700.0 / s)
            if rng.random() < 0.5:
                a, b = b, a
            xtol = 1e-12 if rng.random() < 0.5 else 10.0 ** rng.uniform(-15.0, -3.0)
            yield family.__name__, family(r, s), a, b, xtol


def _logged(solver, f, a, b, xtol):
    """The root solver returns (as its hex) or the exception type it raises, and
    the hex of every abscissa at which it evaluates f."""
    calls = []

    def logged(x):
        calls.append(x.hex())
        return f(x)

    try:
        outcome = solver(logged, a, b, xtol=xtol).hex()
    except (ValueError, RuntimeError) as exc:
        outcome = type(exc)
    return outcome, calls


def test_brent_root_takes_the_steps_of_brentq():
    # the oracle is the compiled brentq of scipy, a test-only dependency: the
    # same root bits from the same sequence of evaluated abscissae
    from scipy.optimize import brentq

    corpus = list(_brent_families(random.Random(20280)))
    assert len(corpus) >= 2000
    for family, f, a, b, xtol in corpus:
        ours = _logged(sweeps._brent_root, f, a, b, xtol)
        assert ours == _logged(brentq, f, a, b, xtol), (family, a, b, xtol)
        assert isinstance(ours[0], str), (family, a, b, xtol)


@pytest.mark.parametrize("zero_at", ["a", "b"])
def test_brent_root_returns_an_end_where_f_is_zero(zero_at):
    a, b = 1.0, 3.0
    root = a if zero_at == "a" else b
    calls = []
    f = lambda x: calls.append(x) or x - root
    assert sweeps._brent_root(f, a, b, xtol=1e-12) == root
    assert calls == [a, b]


def test_brent_root_refuses_ends_of_one_sign_and_nan():
    with pytest.raises(ValueError, match="different signs"):
        sweeps._brent_root(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)
    # -0.0 and 1.0 differ in sign bit, but the end at a zero is returned first
    assert sweeps._brent_root(lambda x: -0.0 if x < 0 else 1.0, -1.0, 2.0, xtol=1e-12) == -1.0
    with pytest.raises(ValueError, match="NaN"):
        sweeps._brent_root(lambda x: x if x > 0 else math.nan, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        sweeps._brent_root(lambda x: math.nan if abs(x) < 1.0 else x, -2.0, 3.0, xtol=1e-12)


def test_brent_root_stops_after_100_iterations():
    # a unit step at 0 can only be bisected, and xtol = 1e-300 asks for
    # about 1000 halvings: two end values and 100 steps, then RuntimeError
    calls = []
    step = lambda x: calls.append(x) or (1.0 if x > 0 else -1.0)
    with pytest.raises(RuntimeError, match="100 iterations"):
        sweeps._brent_root(step, -1.0, 2.0, xtol=1e-300)
    assert len(calls) == 102


def test_brent_root_lets_the_error_of_f_through():
    error = DomainError("steady-state solve failed")

    def f(x):
        if 0.0 < x < 2.0:
            raise error
        return x - 1.0

    with pytest.raises(DomainError) as raised:
        sweeps._brent_root(f, 0.0, 4.0, xtol=1e-12)
    assert raised.value is error


def test_write_records_round_trip(tmp_path):
    cfg = sample_cfg(n_samples=3)
    records = random_sweep(cfg)
    path = tmp_path / "out.csv"
    write_records(records, path, "random", cfg)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# scan=random config=")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == list(BASE_COLUMNS)
    assert len(rows) == 1 + len(records)
    for rec, row in zip(records, rows[1:]):
        got = dict(zip(BASE_COLUMNS, row))
        assert int(got["sample_index"]) == rec.index
        # 17 significant digits reproduce the doubles bit for bit
        assert float(got["W"]) == rec.thermo.W
        assert float(got["Q1"]) == rec.thermo.Q[0]
        assert float(got["B2"]) == rec.params.B[1]
        assert got["regime"] == rec.thermo.regime.value
        assert float(got["I12"]) == rec.correlations.I[(1, 2)]


def test_write_records_empty_and_extra_columns(tmp_path):
    cfg = GridScanConfig(
        bath_model="repeated_interaction",
        J=VALVE["J"], Delta=VALVE["Delta"],
        B1=VALVE["B1"], B3=VALVE["B3"],
        B2_min=1.0, B2_max=1.0, n_points=1,
        gamma=(0.5, 0.5, 0.5),
    )
    records = valve_sweep(cfg)
    path = tmp_path / "valve.csv"
    write_records(records, path, "valve", cfg, extra_columns=VALVE_COLUMNS)
    lines = path.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == list(BASE_COLUMNS + VALVE_COLUMNS)
    assert rows[1][-1] in {"Q1>0,Q3<0", "Q1<0,Q3>0", "Q1>0,Q3>0",
                           "Q1<0,Q3<0", "indeterminate"}

    empty = tmp_path / "empty.csv"
    write_records([], empty, "boost", cfg, extra_columns=BOOST_COLUMNS)
    lines = empty.read_text().splitlines()
    assert len(lines) == 2
    assert next(csv.reader([lines[1]])) == list(BASE_COLUMNS + BOOST_COLUMNS)


def test_a_cell_that_holds_a_carriage_return_reads_back_whole(tmp_path):
    # csv.writer quotes a cell with '\r' in it, as it quotes one with '\n'
    cfg = GridScanConfig(bath_model="repeated_interaction", J=VALVE["J"], Delta=VALVE["Delta"],
                         B1=VALVE["B1"], B3=VALVE["B3"], B2_min=1.0, B2_max=1.0, n_points=1,
                         gamma=(0.5, 0.5, 0.5))
    records = valve_sweep(cfg)
    records.extra["combination"] = ["a\rb"]
    path = tmp_path / "valve.csv"
    write_records(records, path, "valve", cfg, extra_columns=VALVE_COLUMNS)
    with open(path, newline="") as fh:
        fh.readline()  # the config echo
        rows = list(csv.DictReader(fh))
    assert [row["combination"] for row in rows] == ["a\rb"]


@pytest.mark.parametrize("value, cell", [
    (None, ""),
    (True, "true"),
    (False, "false"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (Regime.IV, "IV"),
    (Regime.UNCLASSIFIED, "Unclassified"),
    (0.1, "0.10000000000000001"),
    (np.float64(0.1), "0.10000000000000001"),
    (-0.0, "-0"),
    (np.float64(-0.0), "-0"),
    (1e-300, "1e-300"),
    (1.0 / 3.0, "0.33333333333333331"),
    (float("inf"), "inf"),
    (float("nan"), "nan"),
    (7, "7"),
    (np.int64(7), "7"),
    ("Q1>0,Q3<0", "Q1>0,Q3<0"),
])
def test_every_kind_of_cell_has_one_spelling(value, cell):
    assert sweeps._fmt(value) == cell


def test_written_rows_spell_every_kind_of_cell(tmp_path):
    # discarded rows, an error row, boost extras of every kind, and numpy
    # scalars in the cells that usually hold floats
    cfg = sample_cfg(n_samples=4, discard_rule=1e6)
    records = random_sweep(cfg)
    assert all("discarded" in rec.flags for rec in records)
    boost = boost_scan(GridScanConfig(
        bath_model="repeated_interaction", J=BOOST["J"], Delta=BOOST["Delta"],
        B1=BOOST["B1"], B3=BOOST["B3"], B2_min=2.95, B2_max=3.05, n_points=3,
        gamma=BOOST["gamma"]))
    error = SweepRecord(len(records), records[0].params, (None,) * len(sweeps.VALUE_COLUMNS),
                        ("error:LinAlgError", "warn:RuntimeWarning"))
    mixed = replace(
        records[1], row=(*records[1].row[:-1], np.float64(records[1].residual)),
        extra={"cop_norm": np.float64(0.25), "cop_w_norm": 3, "cop_otto_norm": np.bool_(True)})
    rows = [*records, *boost, error, mixed]
    path = tmp_path / "records.csv"
    write_records(rows, path, "boost", cfg, extra_columns=BOOST_COLUMNS)
    with open(path, newline="") as fh:
        cells = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(cells) == len(rows)
    for rec, row in zip(rows, cells):
        assert row["flags"] == ";".join(rec.flags)
        for key in BOOST_COLUMNS:
            value = (rec.extra or {}).get(key)
            if isinstance(value, float):  # 17 significant digits read back exactly
                assert float(row[key]) == value
    assert [row["flags"] for row in cells[:4]] == ["discarded"] * 4
    assert cells[-2]["Q1"] == cells[-2]["regime"] == "" and cells[-2]["sample_index"] == "4"
    assert cells[-1]["nullspace_residual"] == cells[1]["nullspace_residual"]
    assert float(cells[-1]["nullspace_residual"]) == records[1].residual
    assert [cells[-1][key] for key in BOOST_COLUMNS] == ["0.25", "3", "true"]
    assert cells[4]["regime"] in {r.value for r in Regime}
