"""Deterministic draws, sweep drivers, CSV round-trips."""

import concurrent.futures
import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from triqubit import (
    DegenerateSteadyStateError, DomainError, ModelParams, algebra, global_me, local_me, model,
    solve_point, sweeps,
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

from conftest import BOOST, GLOBAL_SCATTER, LOCAL_SCATTER, MASTER_SEED, VALVE, global_point

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
              local_me._unit_dissipators, local_me._site_stacks, local_me._flip_gathers,
              local_me._lowering_jumps, global_me._site_couplings)
    for cache in caches + (model.liouville_block_groups, global_me._jump_support,
                           global_me._block_gathers, local_me._transform_gathers):
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
    by_labels = (model.liouville_block_groups, global_me._jump_support,
                 global_me._block_gathers, local_me._transform_gathers)
    sizes = [cache.cache_info().currsize for cache in by_labels]
    # the fully secular harmonic points read only the jump support
    used = 0 if model_name == "repeated_interaction" else 1
    assert max(sizes) <= len(orderings) + 1 and sizes[used] >= 1, (sizes, len(orderings))


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
    (4096, 64, [5]),  # no more processes than points
    (4096, 3, [3]),  # nor than usable CPUs
    (2, 64, [2]),
    (4096, 1, []),  # one CPU: serial, no pool
])
def test_pool_size_is_capped_by_points_and_cpus(tmp_path, monkeypatch, workers, cpus, expected):
    sizes = []

    class SerialPool:
        """ProcessPoolExecutor stand-in: records max_workers, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    cfg = SweepConfig(**{**LOCAL_SCATTER, "bath_model": "repeated_interaction",
                         "B_range": (0.5, 4.5), "gamma": (0.5, 0.5, 0.5),
                         "n_samples": 5, "master_seed": MASTER_SEED})
    serial = tmp_path / "serial.csv"
    write_records(random_sweep(cfg, workers=1), serial, "random", cfg)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweeps, "_cpu_count", lambda: cpus)
    pooled = tmp_path / "pooled.csv"
    write_records(random_sweep(cfg, workers=workers), pooled, "random", cfg)
    assert sizes == expected
    assert pooled.read_bytes() == serial.read_bytes()


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
    # brentq opens on two bracket ends whose work the grid or the extension
    # step has already solved, and the edge it returns is a point it solved
    cfg = GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text()))
    solved = []
    real = sweeps.evaluate_point

    def spy(params, epsilon):
        solved.append(params.B[1])
        return real(params, epsilon=epsilon)

    monkeypatch.setattr(sweeps, "evaluate_point", spy)
    records = boost_scan(cfg)
    assert len(solved) == len(set(solved)) == cfg.n_points + 13
    edge = records[-1]
    assert edge.index == cfg.n_points and edge.params.B[1] in solved[cfg.n_points:]
    fresh = real(edge.params, epsilon=cfg.epsilon)
    assert edge.flags == fresh.flags + ("edge",)
    assert (edge.thermo, edge.correlations, edge.residual) == (
        fresh.thermo, fresh.correlations, fresh.residual)


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
