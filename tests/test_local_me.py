"""Repeated-interaction generator: rates, currents, work bookkeeping."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from triqubit import ModelParams, build_liouvillian, local_me, solve_point
from triqubit.algebra import lindblad_superop, trace_distance, vec, with_daggers
from triqubit.algebra import checked_trace
from triqubit.errors import DomainError, NumericalConsistencyError
from triqubit.global_me import bose_occupation
from triqubit.local_me import (
    _site_matrices,
    build_local_generators,
    local_heat_current,
    local_rates,
)
from triqubit.model import basis_magnetizations, interaction_hamiltonian, liouville_block_groups
from triqubit.sweeps import GridScanConfig, SweepConfig, _grid_points, draw_params

from conftest import assert_same_bits, local_point
from oracles import bath_sz, interqubit_current, magnetization_current_closed_form

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_points(name, n):
    cfg = SweepConfig(**json.loads((CONFIGS / f"{name}.json").read_text()))
    return [draw_params(cfg, k) for k in range(n)]


def _boost_grid():
    return _grid_points(GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text())))


def _currents(rho, gen):
    """(q, Q, W, C) of one state, C in FLOWS order: a stack of one of the local current pass."""
    return tuple(column[0].tolist() for column in local_me._current_columns(rho[None], (gen,)))


def _product_gibbs(B, T):
    singles = []
    for b, t in zip(B, T):
        g = np.diag([np.exp(-b / t), np.exp(b / t)]).astype(complex)
        singles.append(g / np.trace(g).real)
    return np.kron(np.kron(singles[0], singles[1]), singles[2])


def test_rates_detailed_balance():
    p = local_point(B=(0.8, 1.5, 2.2))
    rates = local_rates(p)
    assert [r.shape for r in rates] == [(2, 1)] * 3
    for site in (1, 2, 3):
        b, t, gamma = p.B[site - 1], p.T[site - 1], p.gamma[site - 1]
        n = bose_occupation(2.0 * b, t)
        assert abs(n - 1.0 / np.expm1(2.0 * b / t)) < 1e-15
        down, up = rates[site - 1][:, 0]
        assert down == gamma * (1.0 + n) and up == gamma * n
        assert abs(down / up - np.exp(2.0 * b / t)) < 1e-12
        assert abs(bath_sz(n) + np.tanh(b / t)) < 1e-15


def test_rates_need_positive_field():
    p = local_point(B=(0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match="site 1 needs B > 0"):
        local_rates(p)


def test_uncoupled_fixed_point_is_product_gibbs():
    p = local_point(B=(0.5, 1.3, 2.1), J=(0.0, 0.0, 0.0), Delta=(0.0, 0.0, 0.0))
    gibbs = _product_gibbs(p.B, p.T)
    assert np.linalg.norm(build_liouvillian(p) @ vec(gibbs)) < 1e-12
    sol = solve_point(p)
    assert trace_distance(sol.rho, gibbs) < 1e-12
    _, Q, W, _ = _currents(sol.rho, sol.generators)
    assert max(abs(q) for q in Q) < 1e-14
    assert abs(W) < 1e-14


def test_proportional_fields_keep_product_gibbs():
    # with B_i/T_i constant the product Gibbs state commutes with H and is
    # annihilated by every local bath, coupling or not
    p = local_point(B=(0.6, 1.2, 1.8), gamma=(0.3, 0.7, 0.2))
    sol = solve_point(p)
    assert trace_distance(sol.rho, _product_gibbs(p.B, p.T)) < 1e-10
    _, Q, _, _ = _currents(sol.rho, sol.generators)
    assert max(abs(q) for q in Q) < 1e-12


def test_work_routes_agree():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    sol = solve_point(p)
    w = _currents(sol.rho, sol.generators)[2]
    heats = [local_heat_current(sol.rho, p, s) for s in (1, 2, 3)]
    scale = max(abs(w), max(abs(q) for q in heats))
    assert abs(w + sum(heats)) < 1e-10 * scale


def test_heat_current_is_field_times_magnetization_current():
    p = local_point(B=(1.1, 0.5, 3.3), gamma=(0.6, 0.25, 0.9))
    sol = solve_point(p)
    q_sites = _currents(sol.rho, sol.generators)[0]
    for site in (1, 2, 3):
        q = q_sites[site - 1]
        assert abs(local_heat_current(sol.rho, p, site) - p.B[site - 1] * q) < 1e-12


def test_magnetization_current_routes_agree():
    p = local_point(B=(1.1, 0.5, 3.3), gamma=(0.6, 0.25, 0.9))
    sol = solve_point(p)
    q_sites = _currents(sol.rho, sol.generators)[0]
    for site in (1, 2, 3):
        a = q_sites[site - 1]
        b = magnetization_current_closed_form(sol.rho, p, site)
        assert abs(a - b) < 1e-10 * max(1e-300, abs(a), abs(b)) + 1e-14


def test_equal_fields_exchange_no_work():
    # Q_i = b * q_i and the q_i sum to zero, so W = -sum Q vanishes
    p = local_point(B=(1.4, 1.4, 1.4), gamma=(0.2, 0.5, 0.8))
    sol = solve_point(p)
    q, Q, W, _ = _currents(sol.rho, sol.generators)
    scale = max(abs(v) for v in Q)
    assert scale > 1e-8  # heat genuinely flows
    assert abs(W) < 1e-10 * scale
    assert abs(sum(q)) < 1e-10 * max(abs(v) for v in q)


def test_interqubit_antisymmetry_and_validation():
    p = local_point(B=(0.9, 2.7, 4.1))
    sol = solve_point(p)
    for j, i in ((2, 1), (3, 1), (3, 2)):
        assert abs(interqubit_current(sol.rho, p, j, i) + interqubit_current(sol.rho, p, i, j)) < 1e-14
    with pytest.raises(DomainError):
        interqubit_current(sol.rho, p, 2, 2)


def test_current_set_consistency():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    sol = solve_point(p)
    q, Q, W, C = _currents(sol.rho, sol.generators)
    assert_allclose(Q, [b * v for b, v in zip(p.B, q)], atol=1e-13)
    scale = max(abs(W), max(abs(v) for v in Q))
    assert abs(W + sum(Q)) < 1e-10 * scale
    assert len(C) == len(local_me.FLOWS)


def test_current_set_rejects_wrong_model():
    p = local_point(B=(0.9, 2.7, 4.1))
    sol = solve_point(p)
    q = ModelParams(
        B=p.B, J=p.J, Delta=p.Delta, T=p.T, gamma=p.gamma, bath_model="harmonic"
    )
    with pytest.raises(DomainError, match="applies to the repeated_interaction model"):
        _currents(sol.rho, dataclasses.replace(sol.generators, params=q))


def test_generator_is_trace_preserving():
    p = local_point(B=(0.9, 2.7, 4.1))
    L = build_liouvillian(p)
    u = vec(np.eye(8, dtype=complex))
    assert np.linalg.norm(u @ L) < 1e-12 * np.linalg.norm(L)


def _bits(a):
    """The raw bits of a complex array, so that signed zeros count."""
    return np.ascontiguousarray(a).view(np.uint64)


def _rate_pair_cases():
    rng = np.random.default_rng(20260819)
    down = 10.0 ** rng.uniform(-4.0, 2.0, size=(2000, 3))
    up = down * rng.uniform(0.0, 1.0, size=(2000, 3))
    edge = []
    for r_down in (0.37, 1.0, 2.5e-3, 41.0):
        edge += [
            (r_down, 0.0),
            (r_down, 5e-324),
            (r_down, 1e-310),
            (r_down, r_down),
            (r_down, np.nextafter(r_down, 0.0)),
            (r_down, np.nextafter(np.nextafter(r_down, 0.0), 0.0)),
        ]
    edge = np.array(edge)
    return (np.concatenate([down, np.repeat(edge[:, :1], 3, axis=1)]),
            np.concatenate([up, np.repeat(edge[:, 1:], 3, axis=1)]))


def test_template_sums_equal_lindblad_superop_bit_for_bit():
    # the blocks r_down T_down + r_up T_up that build_local_generators sums
    # against the same blocks of the dissipator Generators.dissipators
    # builds, lindblad_superop of sigma_-^i and its adjoint, on 2000 random
    # rate pairs per site and on r_up = 0, subnormal r_up and r_up one or
    # two ulps below r_down
    down, up = _rate_pair_cases()
    groups = liouville_block_groups(basis_magnetizations(3))
    for d, u in zip(down, up):
        got = [d[:, None, None] * t_down + u[:, None, None] * t_up
               for t_down, t_up in local_me._unit_dissipators()]
        for site, jumps in zip((1, 2, 3), local_me._lowering_jumps()):
            want = lindblad_superop(with_daggers(jumps), (d[site - 1], u[site - 1]))
            for blocks, index in zip(got, groups, strict=True):
                cut = want[np.ix_(index[0], index[0])]
                assert_array_equal(_bits(blocks[0, site - 1]), _bits(cut))


def _per_site_dissipators(p):
    """The bath dissipators as lindblad_superop built them one site at a time."""
    out = []
    for site, rates in zip((1, 2, 3), local_rates(p)):
        out.append(lindblad_superop(_site_matrices(site)[:2], tuple(rates[:, 0])))
    return out


def _per_block_eigen_blocks(gen):
    """The eigenbasis blocks built one dm block at a time from the per-site dissipators.

    They come in the layout of local_me._eigen_blocks, one stack of the
    dm >= 0 row per index stack of the spectrum's liouville_block_groups;
    the computational-basis rows of each block are found from its dm alone.
    """
    stacked = np.stack(_per_site_dissipators(gen.params))
    V = gen.spectrum.vectors
    W = np.kron(V.conj(), V)
    basis_dm, eigen_dm = (
        (m[:, None] - m[None, :]).reshape(-1, order="F")
        for m in (np.array(basis_magnetizations(3)), gen.spectrum.sectors)
    )
    out = []
    for indices in gen.spectrum.liouville_block_groups:
        blocks = []
        for index in indices[:1]:
            r = np.flatnonzero(basis_dm == eigen_dm[index[0]])
            W_B = W[np.ix_(r, index)]
            blocks.append((W_B.conj().T @ stacked[:, r[:, None], r] @ W_B).sum(axis=0))
        out.append(np.stack(blocks))
    return out


LOCAL_POINTS = _config_points("local_scatter", 20) + _boost_grid()[::24]
LOCAL_IDS = [f"local-{k}" for k in range(20)] + [f"boost-{k}" for k in range(0, 120, 24)]


@pytest.mark.parametrize("p", LOCAL_POINTS, ids=LOCAL_IDS)
def test_local_generators_keep_the_bits_of_the_per_site_build(p):
    [gen] = build_local_generators([p])
    for got, want in zip(gen.dissipators, _per_site_dissipators(p), strict=True):
        assert_array_equal(_bits(got), _bits(want))
    want = _per_block_eigen_blocks(gen)
    blocks = local_me._eigen_blocks([gen])
    assert len(blocks) == len(want)
    for got, ref in zip(blocks, want):
        assert_array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("p", LOCAL_POINTS, ids=LOCAL_IDS)
def test_current_set_keeps_the_bits_of_the_per_site_route(p):
    sol = solve_point(p)
    q, Q, W, C = _currents(sol.rho, sol.generators)
    actions = [local_me._dissipator_action(p, s, sol.rho) for s in (1, 2, 3)]
    sz = [_site_matrices(s)[4] for s in (1, 2, 3)]
    want_q = [checked_trace(sz[s - 1], actions[s - 1], "q") for s in (1, 2, 3)]
    want_w = checked_trace(interaction_hamiltonian(p), sum(actions[1:], actions[0]), "W")
    assert repr(q) == repr(want_q)
    assert repr(Q) == repr([local_heat_current(sol.rho, p, s) for s in (1, 2, 3)])
    assert repr(W) == repr(want_w)
    assert repr(C) == repr([interqubit_current(sol.rho, p, j, i) for j, i in local_me.FLOWS])


@pytest.mark.parametrize("p", LOCAL_POINTS, ids=LOCAL_IDS)
def test_gathered_dissipator_actions_keep_the_bits_of_the_matrix_products(p):
    # the stacked actions pick entries of rho where the one-site route
    # multiplies 0/1 Pauli matrices; signed zeros included, on the steady
    # state, its negation and all-zero states of either sign
    rho = solve_point(p).rho
    rates = local_me.local_rates(p)
    for state in (rho, -rho, rho.conj(), 0.0 * rho, -0.0 * rho):
        got = local_me._dissipator_actions([rates], state[None])
        for s in (1, 2, 3):
            assert_same_bits(got[0, s - 1], local_me._dissipator_action(p, s, state))


def test_a_stack_raises_as_its_first_unreal_point_raises_alone():
    # a state that is not Hermitian leaves an imaginary residue in the work
    # power and the expectations: the stacked check of a run raises with the
    # message of its first such point on its own
    sols = [solve_point(p) for p in LOCAL_POINTS[:3]]
    skewed = sols[1].rho + 1e-3j * (1.0 - np.eye(8))
    with pytest.raises(NumericalConsistencyError, match="work power has imaginary") as alone:
        _currents(skewed, sols[1].generators)
    rhos = np.array([sols[0].rho, skewed, sols[2].rho])
    with pytest.raises(NumericalConsistencyError) as stacked:
        local_me._current_columns(rhos, [sol.generators for sol in sols])
    assert str(stacked.value) == str(alone.value)
