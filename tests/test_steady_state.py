"""Null-space solver, eigenbasis pipeline, and the propagation oracle."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from triqubit import (
    build_global_generators,
    build_liouvillian,
    evaluate_point,
    evolve_oracle,
    global_heat_current,
    relaxation_time,
    solve_point,
    solve_steady_state,
    steady_state_via_evolution,
)
from triqubit import steady_state
from triqubit.algebra import (
    coherent_superop,
    herm,
    lindblad_superop,
    pauli,
    trace_distance,
    unvec,
    vec,
)
from triqubit.errors import DegenerateSteadyStateError, DomainError
from triqubit.sweeps import SweepConfig, draw_params

from conftest import UNCLOSED_HARMONIC, global_point, local_point


def _amplitude_damping(gamma=0.8, nbar=0.3):
    return lindblad_superop((pauli("minus"), pauli("plus")), (gamma * (1.0 + nbar), gamma * nbar))


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


@pytest.mark.parametrize("name", ["local_scatter", "global_scatter"])
def test_state_has_no_cross_sector_coherence(name):
    # both generators are block-diagonal in the magnetization difference, so
    # the solve keeps every coherence between sectors exactly zero
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = SweepConfig(**json.loads(path.read_text()))
    for k in range(20):
        sol = solve_point(draw_params(cfg, k))
        sectors = sol.generators.spectrum.sectors
        assert np.all(sol.rho_eig[sectors[:, None] != sectors[None, :]] == 0.0), k


@pytest.mark.parametrize("p", [
    local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
    local_point(B=(1.7, 0.4, 2.9), gamma=(0.9, 0.33, 0.51)),
    global_point(B=(0.37, 0.61, 0.83)),
    global_point(B=(0.81, 0.29, 0.66)),
], ids=["local-a", "local-b", "global-a", "global-b"])
def test_computational_basis_solve_matches_solve_point(p):
    out = solve_steady_state(build_liouvillian(p))
    assert out.nullspace_dim == 1
    assert trace_distance(out.rho, solve_point(p).rho) < 1e-12


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


def test_unclosed_harmonic_point_end_to_end():
    sol = solve_point(UNCLOSED_HARMONIC)
    assert sol.population_closed is False
    assert sol.populations is None
    rec = evaluate_point(UNCLOSED_HARMONIC)
    assert rec.flags == ()
    Q = rec.thermo.Q
    assert rec.thermo.first_law_residual < 1e-10 * max(abs(q) for q in Q)

    oracle = steady_state_via_evolution(build_liouvillian(UNCLOSED_HARMONIC)).rho
    assert trace_distance(sol.rho, oracle) < 1e-8
    gen = build_global_generators(UNCLOSED_HARMONIC)
    q_oracle = [global_heat_current(oracle, gen.H, d) for d in gen.dissipators]
    # the heat-current rule of bench/gate.py's oracle check
    q_tol = max(
        1e-6 * max(abs(q) for q in Q),
        1e-8 * max(UNCLOSED_HARMONIC.gamma) * float(np.linalg.norm(gen.H, 2)),
    )
    assert max(abs(a - b) for a, b in zip(q_oracle, Q)) <= q_tol


def test_wrong_population_state_falls_back_to_the_full_solve(monkeypatch):
    p = global_point(B=(0.37, 0.61, 0.83))
    monkeypatch.setattr(steady_state, "_refined_population", lambda mats, energies: None)
    full = solve_point(p)
    assert full.population_closed and full.populations is None

    uniform = np.full(8, 1.0 / 8.0, dtype=np.longdouble)
    monkeypatch.setattr(steady_state, "_refined_population", lambda mats, energies: uniform)
    sol = solve_point(p)
    assert sol.population_closed and sol.populations is None
    assert_array_equal(sol.rho, full.rho)
    assert sol.residual == full.residual


@pytest.mark.parametrize("p", [local_point(B=(0.9, 2.7, 4.1)), global_point(B=(0.37, 0.61, 0.83))],
                         ids=["local", "global"])
def test_point_solution_pickles_with_its_lazy_dissipators(p):
    # a solution can cross a process boundary before or after its
    # computational-basis dissipators are built
    sol = solve_point(p)
    before = pickle.loads(pickle.dumps(sol))
    dissipators = sol.generators.dissipators
    after = pickle.loads(pickle.dumps(sol))
    for copy in (before, after):
        assert_array_equal(copy.rho, sol.rho)
        for got, want in zip(copy.generators.dissipators, dissipators):
            assert_array_equal(got, want)
