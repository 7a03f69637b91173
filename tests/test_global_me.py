"""Harmonic-bath generator: jump clustering, dissipators, rate matrices."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from triqubit import (
    ModelParams,
    build_global_generators,
    build_liouvillian,
    bose_occupation,
    solve_point,
)
from triqubit.algebra import embed_pauli, trace_distance, vec
from triqubit.errors import ClusteringError, DomainError, SecularValidityWarning, ZeroModeWarning
from triqubit.global_me import global_dissipator, jump_operators, site_rate_matrices
from triqubit.model import build_hamiltonian, sector_spectrum, total_sz

from conftest import global_point


def _uncoupled(B=(0.3, 0.7, 1.1), gamma=(1e-4, 2e-4, 1.5e-4)):
    return ModelParams(
        B=B, J=(0.0, 0.0, 0.0), Delta=(0.0, 0.0, 0.0),
        T=(1.0, 2.0, 3.0), gamma=gamma, bath_model="harmonic",
    )


def test_bose_occupation_value():
    assert abs(bose_occupation(2.0, 2.0) - 1.0 / (np.e - 1.0)) < 1e-15
    with pytest.raises(DomainError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_occupation(1.0, 0.0)


def test_bose_occupation_cold_bath():
    # below the overflow point the value is exactly 1/expm1; past it the
    # occupation is e^(-x) instead of an OverflowError
    assert bose_occupation(708.0, 1.0) == 1.0 / np.expm1(708.0)
    assert bose_occupation(800.0, 1.0) == np.exp(-800.0)
    assert bose_occupation(1.0, 1e-6) == 0.0


def test_uncoupled_jumps_are_lowering_operators():
    p = _uncoupled()
    spectrum = sector_spectrum(build_hamiltonian(p))
    for site in (1, 2, 3):
        js = jump_operators(spectrum, site)
        assert_allclose(js.frequencies, [2.0 * p.B[site - 1]], atol=1e-14)
        assert_allclose(js.operators[0], embed_pauli(3, "minus", site), atol=1e-13)


def test_jump_completeness_and_lowering():
    # the clusters plus the zero part reassemble sigma_x of the site, and
    # every cluster operator lowers the total magnetization by exactly 2
    p = global_point(B=(0.37, 0.61, 0.83))
    spectrum = sector_spectrum(build_hamiltonian(p))
    S = total_sz()
    for site in (1, 2, 3):
        js = jump_operators(spectrum, site)
        assert np.all(np.diff(js.frequencies) > 0)
        assert_allclose(js.reconstruct(), embed_pauli(3, "x", site), atol=1e-10)
        for op in js.operators:
            assert np.linalg.norm(S @ op - op @ S + 2.0 * op) < 1e-10


def test_zero_mode_warning():
    # B1 = D12 + D13 makes one site-1 flip cost zero energy
    p = ModelParams(
        B=(0.5, 1.0, 2.0), J=(0.0, 0.0, 0.0), Delta=(0.2, 0.3, 0.1),
        T=(1.0, 2.0, 3.0), gamma=(1e-3,) * 3, bath_model="harmonic",
    )
    spectrum = sector_spectrum(build_hamiltonian(p))
    with pytest.warns(ZeroModeWarning):
        js = jump_operators(spectrum, 1)
    assert np.linalg.norm(js.zero_part) > 1.0


def test_cluster_diameter_guard():
    # a complete ruler makes the positive differences one long chain, so a
    # tolerance just above the unit step merges a span far wider than itself
    E = 0.1 * np.array([0.0, 1.0, 2.0, 11.0, 15.0, 18.0, 21.0, 23.0])
    spectrum = sector_spectrum(np.diag(E).astype(complex))
    with pytest.raises(ClusteringError):
        jump_operators(spectrum, 1, degeneracy_tol=0.105)


def test_secular_warning_at_large_gamma():
    p = global_point(B=(0.37, 0.61, 0.83), gamma=(0.05, 0.05, 0.05))
    with pytest.warns(SecularValidityWarning):
        build_global_generators(p)


def test_dissipator_validation():
    p = _uncoupled()
    spectrum = sector_spectrum(build_hamiltonian(p))
    js = jump_operators(spectrum, 1)
    with pytest.raises(DomainError):
        global_dissipator(js, 0.0, 1.0)
    with pytest.raises(DomainError):
        global_dissipator(js, 1e-3, -1.0)


def test_generator_is_trace_preserving():
    p = global_point(B=(0.22, 0.51, 0.94))
    L = build_liouvillian(p)
    u = vec(np.eye(8, dtype=complex))
    assert np.linalg.norm(u @ L) < 1e-12 * np.linalg.norm(L)


def test_uncoupled_steady_state_is_product_gibbs():
    p = _uncoupled()
    sol = solve_point(p)
    singles = []
    for b, t in zip(p.B, p.T):
        g = np.diag([np.exp(-b / t), np.exp(b / t)]).astype(complex)
        singles.append(g / np.trace(g).real)
    prod = np.kron(np.kron(singles[0], singles[1]), singles[2])
    assert trace_distance(sol.rho, prod) < 1e-12


def test_equal_temperature_gibbs_fixed_point():
    p = ModelParams(
        B=(0.4, 0.9, 1.3), J=(0.2, 0.15, 0.1), Delta=(0.05, 0.1, 0.07),
        T=(2.0, 2.0, 2.0), gamma=(1e-4, 1e-4, 1e-4), bath_model="harmonic",
    )
    H = build_hamiltonian(p)
    gibbs = expm(-H / 2.0)
    gibbs /= np.trace(gibbs).real
    L = build_liouvillian(p)
    scale = np.linalg.norm(L, 2)
    assert np.linalg.norm(L @ vec(gibbs)) < 1e-12 * scale
    sol = solve_point(p)
    assert trace_distance(sol.rho, gibbs) < 1e-8


def test_rate_matrices_detailed_balance_and_column_sums():
    p = ModelParams(
        B=(0.4, 0.9, 1.3), J=(0.2, 0.15, 0.1), Delta=(0.05, 0.1, 0.07),
        T=(1.0, 2.0, 3.0), gamma=(1e-4, 1e-4, 1e-4), bath_model="harmonic",
    )
    gen = build_global_generators(p)
    mats, closed = site_rate_matrices(gen)
    assert closed
    for m, t in zip(mats, p.T):
        # each bath alone drives the populations toward its own Gibbs state
        pg = np.exp(-gen.spectrum.energies / t)
        pg /= pg.sum()
        assert np.linalg.norm(m.astype(float) @ pg) < 1e-16
        # probability conservation at the extended-precision floor
        colsum = float(np.abs(m.sum(axis=0)).max())
        assert colsum < 1e-15 * float(np.abs(m).max())


def test_rate_matrix_signs():
    p = _uncoupled()
    gen = build_global_generators(p)
    mats, _ = site_rate_matrices(gen)
    for m in mats:
        md = m.astype(float)
        assert np.all(np.diag(md) <= 0.0)
        off = md - np.diag(np.diag(md))
        assert np.all(off >= 0.0)
