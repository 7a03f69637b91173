"""Null-space solver, eigenbasis pipeline, and the propagation oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from triqubit import (
    build_liouvillian,
    evolve_oracle,
    relaxation_time,
    solve_point,
    solve_steady_state,
    steady_state_via_evolution,
)
from triqubit.algebra import (
    coherent_superop,
    dissipator_superop,
    herm,
    pauli,
    trace_distance,
    unvec,
    vec,
)
from triqubit.errors import DegenerateSteadyStateError, DomainError

from conftest import global_point, local_point


def _amplitude_damping(gamma=0.8, nbar=0.3):
    return gamma * (1.0 + nbar) * dissipator_superop(pauli("minus")) + gamma * nbar * dissipator_superop(pauli("plus"))


def test_single_qubit_thermal_fixed_point():
    gamma, nbar = 0.8, 0.3
    L = _amplitude_damping(gamma, nbar)
    out = solve_steady_state(L)
    expected = np.diag([nbar, 1.0 + nbar]) / (1.0 + 2.0 * nbar)
    assert_allclose(out.rho, expected.astype(complex), atol=1e-12)
    assert out.nullspace_dim == 1
    # slowest decay is the coherence channel at half the population rate
    assert abs(relaxation_time(L) - 2.0 / (gamma * (1.0 + 2.0 * nbar))) < 1e-9


def test_solver_rejects_non_generator():
    rng = np.random.default_rng(0)
    L = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    with pytest.raises(DomainError):
        solve_steady_state(L)
    with pytest.raises(DomainError):
        solve_steady_state(np.zeros((5, 5)))


def test_coherent_generator_is_degenerate():
    p = local_point(B=(0.9, 2.7, 4.1))
    from triqubit.model import build_hamiltonian

    with pytest.raises(DegenerateSteadyStateError):
        solve_steady_state(coherent_superop(build_hamiltonian(p)))


def test_coherent_spectrum_is_imaginary():
    from triqubit.model import build_hamiltonian

    p = local_point(B=(0.9, 2.7, 4.1))
    L = coherent_superop(build_hamiltonian(p))
    ev = np.linalg.eigvals(L)
    assert float(np.abs(ev.real).max()) < 1e-12 * float(np.abs(ev).max())


def test_solve_point_state_properties():
    for p in (
        local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
        global_point(B=(0.37, 0.61, 0.83)),
    ):
        sol = solve_point(p)
        rho = sol.rho
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.norm(rho - rho.conj().T) < 1e-12
        assert float(np.linalg.eigvalsh(rho).min()) > -1e-12
        assert sol.nullspace_dim == 1
        L = build_liouvillian(p)
        assert np.linalg.norm(L @ vec(rho)) < 1e-10 * np.linalg.norm(L, 2)


def test_solve_point_population_branch():
    sol = solve_point(global_point(B=(0.37, 0.61, 0.83)))
    assert sol.population_closed
    assert sol.populations is not None
    pops = sol.populations.astype(float)
    assert abs(pops.sum() - 1.0) < 1e-15
    assert pops.min() >= 0.0
    # the eigenbasis state is exactly diagonal on this branch
    off = sol.rho_eig - np.diag(np.diag(sol.rho_eig))
    assert np.linalg.norm(off) == 0.0


def test_build_liouvillian_dispatch():
    from triqubit.local_me import build_local_generators
    from triqubit import build_global_generators

    def assembled(gen):
        d1, d2, d3 = gen.dissipators
        return coherent_superop(gen.H) + d1 + d2 + d3

    pl = local_point(B=(0.9, 2.7, 4.1))
    assert_allclose(build_liouvillian(pl), assembled(build_local_generators(pl)), atol=0)
    pg = global_point(B=(0.37, 0.61, 0.83))
    assert_allclose(build_liouvillian(pg), assembled(build_global_generators(pg)), atol=0)


def test_oracle_matches_matrix_exponential():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    L = build_liouvillian(p)
    rho0 = np.eye(8, dtype=complex) / 8.0
    t = 2.0
    dt = 0.05 / np.linalg.norm(L, 2)
    got = evolve_oracle(L, rho0, t, dt)
    want = herm(unvec(expm(t * L) @ vec(rho0)))
    assert trace_distance(got, want) < 1e-9


def test_oracle_guards():
    p = local_point(B=(0.9, 2.7, 4.1))
    L = build_liouvillian(p)
    rho0 = np.eye(8, dtype=complex) / 8.0
    with pytest.raises(DomainError):
        evolve_oracle(L, rho0, -1.0, 1e-3)
    with pytest.raises(DomainError):
        evolve_oracle(L, rho0, 1.0, 0.0)
    with pytest.raises(DomainError):
        evolve_oracle(L, rho0, 1.0, 1.0)  # dt * ||L|| above the stability budget


def test_evolution_agrees_with_nullspace():
    for p in (
        local_point(B=(1.7, 0.4, 2.9), gamma=(0.9, 0.33, 0.51)),
        global_point(B=(0.81, 0.29, 0.66)),
    ):
        sol = solve_point(p)
        evo = steady_state_via_evolution(build_liouvillian(p))
        assert trace_distance(sol.rho, evo.rho) < 1e-8
        assert evo.method == "evolution"


def test_relaxation_time_needs_decay():
    from triqubit.model import build_hamiltonian

    p = local_point(B=(0.9, 2.7, 4.1))
    with pytest.raises(DomainError):
        relaxation_time(coherent_superop(build_hamiltonian(p)))
    with pytest.raises(DomainError):
        relaxation_time(np.zeros((4, 4)))
