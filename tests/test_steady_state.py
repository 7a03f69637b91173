"""Null-space solver, eigenbasis pipeline, and the propagation oracle."""

import json
import math
import pickle
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from triqubit import (
    ModelParams,
    build_global_generators,
    build_liouvillian,
    evaluate_point,
    evolve_oracle,
    global_heat_current,
    relaxation_time,
    solve_point,
    steady_state_via_evolution,
)
from triqubit import global_me, local_me, steady_state, sweeps
from triqubit.algebra import (
    CLD,
    coherent_superop,
    herm,
    lindblad_superop,
    pauli,
    trace_distance,
    unvec,
    vec,
    with_daggers,
)
from triqubit.errors import (
    ClusteringError,
    DegenerateSteadyStateError,
    DomainError,
    TriqubitError,
    ZeroModeWarning,
)
from triqubit.global_me import site_rate_matrices
from triqubit.sweeps import GridScanConfig, SweepConfig, _grid_points, draw_params, random_sweep

from conftest import (
    UNCLOSED_HARMONIC,
    assert_same_bits,
    cut_eigen_blocks,
    eigen_blocks,
    global_point,
    local_point,
    swapped_positions,
    whole_eigen_blocks,
)
from oracles import solve_steady_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_points(name, n):
    cfg = SweepConfig(**json.loads((CONFIGS / f"{name}.json").read_text()))
    return [draw_params(cfg, k) for k in range(n)]


def _amplitude_damping(gamma=0.8, nbar=0.3):
    return lindblad_superop((pauli("minus"), pauli("plus")), (gamma * (1.0 + nbar), gamma * nbar))


def test_single_qubit_thermal_fixed_point():
    gamma, nbar = 0.8, 0.3
    L = _amplitude_damping(gamma, nbar)
    out = solve_steady_state(L)
    expected = np.diag([nbar, 1.0 + nbar]) / (1.0 + 2.0 * nbar)
    assert_allclose(out.rho, expected.astype(complex), atol=1e-12)
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
    for k, p in enumerate(_config_points(name, 20)):
        sol = solve_point(p)
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
    assert trace_distance(out.rho, solve_point(p).rho) < 1e-12


def test_build_liouvillian_dispatch():
    from triqubit.local_me import build_local_generators
    from triqubit import build_global_generators

    def assembled(gen):
        d1, d2, d3 = gen.dissipators
        return coherent_superop(gen.H) + d1 + d2 + d3

    pl = local_point(B=(0.9, 2.7, 4.1))
    assert_allclose(build_liouvillian(pl), assembled(build_local_generators([pl])[0]), atol=0)
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


def test_relaxation_time_needs_decay():
    from triqubit.model import build_hamiltonian

    p = local_point(B=(0.9, 2.7, 4.1))
    with pytest.raises(DomainError):
        relaxation_time(coherent_superop(build_hamiltonian(p)))
    with pytest.raises(DomainError):
        relaxation_time(np.zeros((4, 4)))


def _uniform_harmonic(b, j, gamma):
    return ModelParams(B=(b, b, b), J=(j, j, j), Delta=(0.0, 0.0, 0.0), T=(1.0, 2.0, 3.0),
                       gamma=(gamma, gamma, gamma), bath_model="harmonic")


# unclosed harmonic points: equal fields and weak uniform exchange, from
# nearly degenerate levels to well separated ones; b = j is refused below
UNCLOSED_POINTS = [pytest.param(UNCLOSED_HARMONIC, id="UNCLOSED_HARMONIC")] + [
    pytest.param(_uniform_harmonic(b, j, gamma), id=f"b{b}-j{j}-gamma{gamma}")
    for b in (1e-3, 1e-2, 0.1, 1.0, 3.0) for j in (1e-4, 1e-2) for gamma in (1e-7, 1e-5)
    if b != j
]


@pytest.mark.parametrize("p", UNCLOSED_POINTS)
def test_unclosed_harmonic_point_end_to_end(p):
    sol = solve_point(p)
    assert sol.population_closed is False
    assert sol.populations is None
    rec = evaluate_point(p)
    assert rec.flags == ()
    Q = rec.thermo.Q
    q_max = max(abs(q) for q in Q)
    assert rec.thermo.first_law_residual < 1e-10 * q_max
    # the eigenbasis currents against the 64 x 64 dissipators on the same state
    gen = sol.generators
    q_dense = [global_heat_current(sol.rho, gen.H, d) for d in gen.dissipators]
    assert max(abs(a - b) for a, b in zip(q_dense, Q)) <= 1e-11 * q_max

    L = build_liouvillian(p)
    oracle = steady_state_via_evolution(L).rho
    # the oracle's one-step map holds the dissipation as h gamma, h =
    # 0.05 / ||L||, against entries of order one: its own roundoff moves
    # the state by some eps ||L|| / gamma, up to 5.6 times that here
    td = max(1e-8, 100 * np.finfo(float).eps * float(np.linalg.norm(L, 2)) / min(p.gamma))
    assert trace_distance(sol.rho, oracle) < td
    q_oracle = [global_heat_current(oracle, gen.H, d) for d in gen.dissipators]
    # the heat-current rule of bench/gate.py's oracle check, whose state
    # error of trace distance 1e-8 moves a current by at most 1e-8 gamma ||H||
    q_tol = max(1e-6 * q_max, td * max(p.gamma) * float(np.linalg.norm(gen.H, 2)))
    assert max(abs(a - b) for a, b in zip(q_oracle, Q)) <= q_tol


@pytest.mark.parametrize("gamma", [1e-7, 1e-5])
def test_a_cluster_of_both_dm_signs_is_refused(gamma):
    # at b = j, levels of different magnetization cross: some Bohr clusters
    # hold transitions of both dm = +2 and dm = -2, which couple the
    # magnetization-difference blocks that the block solve keeps apart
    # (its state would miss the evolution oracle's by 2.3e-4 in trace
    # distance), and the discarded zero-frequency part carries weight
    p = _uniform_harmonic(1e-2, 1e-2, gamma)
    with pytest.warns(ZeroModeWarning), pytest.raises(ClusteringError, match="dm = \\+2"):
        solve_point(p)
    rec = evaluate_point(p)
    assert rec.flags == ("error:ClusteringError", "warn:ZeroModeWarning")
    assert rec.thermo is None and rec.correlations is None and rec.residual is None


def test_wrong_population_state_falls_back_to_the_full_solve(monkeypatch):
    p = global_point(B=(0.37, 0.61, 0.83))
    monkeypatch.setattr(steady_state, "_gth_population", lambda M: None)
    full = solve_point(p)
    assert full.population_closed and full.populations is None

    uniform = np.full(8, 1.0 / 8.0, dtype=np.longdouble)
    monkeypatch.setattr(steady_state, "_gth_population", lambda M: uniform)
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
    assert "dissipators" in vars(after.generators)
    for clone in (before, after):
        assert_array_equal(clone.rho, sol.rho)
        assert clone.population_closed is sol.population_closed
        if sol.populations is not None:
            assert_same_bits(clone.populations, sol.populations)
        for got, want in zip(clone.generators.dissipators, dissipators, strict=True):
            assert_array_equal(got, want)


# --- the block solve against the whole 64 x 64 eigenbasis generator ---

def _eigen_coherent(gen):
    E = gen.spectrum.energies
    return (-1j * (E[:, None] - E[None, :])).reshape(-1, order="F")


def _full_eigen_dissipators(gen):
    """Per-term 64 x 64 eigenbasis dissipators, built as before the blocks."""
    p = gen.params
    if p.bath_model == "harmonic":
        ops, rates = [], []
        for js, gamma, T in zip(gen.jumps, p.gamma, p.T):
            down, up = global_me.thermal_rates(js.site, js.frequencies.tolist(), gamma, T)
            ops.append(with_daggers(js.amplitudes))
            rates += [down, up]
        return [lindblad_superop(np.concatenate(ops), np.concatenate(rates))]
    V = gen.spectrum.vectors
    W = np.kron(V.conj(), V)
    return [W.conj().T @ D @ W for D in gen.dissipators]


def _full_solve(p):
    """(rho, rho_eig, population route) from the 64 x 64 generator: full SVD, full solve."""
    gen = steady_state._build_generators([p])[0]
    V = gen.spectrum.vectors
    lam = _eigen_coherent(gen)
    eigen = _full_eigen_dissipators(gen)
    L = reduce(np.add, eigen, np.diag(lam))
    s = np.linalg.svd(L, compute_uv=False)
    assert np.sum(s <= steady_state._NULL_TOL * s[0]) == 1
    diag_ld = lam.astype(CLD)
    offdiag_ld = reduce(np.add, eigen).astype(CLD)
    res_ref = math.inf
    if p.bath_model == "harmonic":
        mats, closed, _ = site_rate_matrices(gen)
        gth = steady_state._gth_population(sum(mats)) if closed else None
        if gth is not None:
            x_ref = vec(np.diag(gth.astype(complex)))
            res_ref = float(np.linalg.norm(
                steady_state._residual(diag_ld, offdiag_ld, x_ref).astype(complex)))
    floor = 1e-12 * float(s[0])
    population = False
    if res_ref > floor:
        x, res = steady_state._trace_one_state(L[None], np.arange(0, 64, 9),
                                               diag_ld[None, :, None], offdiag_ld[None])
        x, res = x[0, :, 0], res[0]
    if res_ref <= floor or res_ref <= res:
        x, population = x_ref, True
    rho_eig = steady_state._finalize_state(x[None])[0]
    if population:
        rho_eig = np.diag(np.diag(rho_eig))
    return herm(V @ rho_eig @ V.conj().T), rho_eig, population


_BOOST_GRID = _grid_points(GridScanConfig(**json.loads((CONFIGS / "boost.json").read_text())))
PINNED_POINTS = (
    _config_points("local_scatter", 20)
    + _config_points("global_scatter", 20)
    + _BOOST_GRID[::12]
    + [UNCLOSED_HARMONIC]
)
PINNED_IDS = (
    [f"local-{k}" for k in range(20)] + [f"global-{k}" for k in range(20)]
    + [f"boost-{k}" for k in range(0, 120, 12)] + ["unclosed"]
)


@pytest.mark.parametrize("p", PINNED_POINTS, ids=PINNED_IDS)
def test_block_solve_keeps_the_bits_of_the_full_solve(p):
    rho, rho_eig, population = _full_solve(p)
    sol = solve_point(p)
    assert (sol.populations is not None) == population
    assert_array_equal(sol.rho, rho)
    assert_array_equal(sol.rho_eig, rho_eig)


def _assembled(gen):
    """The 64 x 64 eigenbasis generator put together from its blocks and their mirrors."""
    L = np.diag(_eigen_coherent(gen))
    for indices, blocks in zip(gen.spectrum.liouville_block_groups, whole_eigen_blocks(gen)):
        for index, D in zip(indices, blocks):
            L[np.ix_(index, index)] += D
    return L


@pytest.mark.parametrize("p", [
    local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
    UNCLOSED_HARMONIC,
], ids=["local", "unclosed"])
def test_certificate_sees_the_singular_values_of_every_block(monkeypatch, p):
    seen = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        seen.append(real_svd(a, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(np.linalg, "svd", svd)
    gen = solve_point(p).generators
    monkeypatch.undo()
    # one call per stack of same-size blocks, whose one dm >= 0 block also
    # stands for its -dm mirror: every one of the 64 is seen
    groups = gen.spectrum.liouville_block_groups
    assert len(seen) == len(groups)
    got = np.sort(np.concatenate([np.tile(s.ravel(), index.shape[0])
                                  for s, index in zip(seen, groups, strict=True)]))
    want = np.sort(np.linalg.svd(_assembled(gen), compute_uv=False))
    assert got.size == 64
    assert np.abs(got - want).max() <= 1e-12 * want[-1]


MIRROR_POINTS = (
    _config_points("local_scatter", 50) + _config_points("global_scatter", 50)
    + [UNCLOSED_HARMONIC]
)
MIRROR_IDS = [f"local-{k}" for k in range(50)] + [f"global-{k}" for k in range(50)] + ["unclosed"]


@pytest.mark.parametrize("p", MIRROR_POINTS, ids=MIRROR_IDS)
def test_each_minus_dm_block_mirrors_its_plus_dm_block(p):
    # the certificate counts the singular values of each dm > 0 block twice
    # instead of decomposing its -dm mirror; check the mirror identity on
    # the whole eigenbasis generator of the computational-basis dissipators,
    # a route that shares no block with the builders
    gen = steady_state._build_generators([p])[0]
    V = gen.spectrum.vectors
    W = np.kron(V.conj(), V)
    L = np.diag(_eigen_coherent(gen)) + W.conj().T @ sum(gen.dissipators) @ W
    scale = float(np.linalg.norm(L, 2))
    for index in gen.spectrum.liouville_block_groups[1:]:
        plus = L[np.ix_(index[0], index[0])]
        swapped = swapped_positions(index[0])
        minus = L[np.ix_(swapped, swapped)]
        assert np.abs(minus - plus.conj()).max() <= 1e-14 * scale
        s_plus, s_minus = (np.linalg.svd(b, compute_uv=False) for b in (plus, minus))
        assert np.abs(s_plus - s_minus).max() <= 1e-14 * s_plus[0]


@pytest.mark.parametrize("p", [
    local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
    UNCLOSED_HARMONIC,
], ids=["local", "unclosed"])
def test_a_singular_off_diagonal_block_fails_the_certificate(monkeypatch, p):
    # the dm = 0 block alone still has a one-dimensional null space, so a
    # certificate that looked only there would pass this generator
    gen = steady_state._build_generators([p])[0]
    blocks = list(eigen_blocks(gen))
    # the first block of the second stack, dm = 2
    index, D = gen.spectrum.liouville_block_groups[1][0], blocks[1][0]
    u, s, vh = np.linalg.svd(np.diag(_eigen_coherent(gen)[index]) + D)
    blocks[1] = blocks[1].copy()
    blocks[1][0] = D - s[-1] * np.outer(u[:, -1], vh[-1])
    # a harmonic solve cuts each point's blocks, a local one builds them as
    # stacks over its points
    monkeypatch.setattr(global_me, "_eigen_blocks", lambda gen: tuple(blocks))
    monkeypatch.setattr(local_me, "_eigen_blocks", lambda gens: tuple(blocks))
    with pytest.raises(DegenerateSteadyStateError):
        solve_point(p)


# --- the Pauli route of fully secular harmonic points ---

def _deny_secular(monkeypatch):
    """Sends every harmonic point through the block route, as if it were not fully secular."""
    real = steady_state.site_rate_matrices
    monkeypatch.setattr(steady_state, "site_rate_matrices", lambda gen: real(gen)[:2] + (False,))


def _capture_null_scale(monkeypatch, edit=None):
    """Records the (singular values, weights) of every certificate; edit may change them first."""
    seen = []
    real = steady_state._null_scale

    def spy(singular_values, weights):
        if edit is not None:
            singular_values = edit(singular_values)
        seen.append((singular_values, weights))
        return real(singular_values, weights)

    monkeypatch.setattr(steady_state, "_null_scale", spy)
    return seen


def test_pauli_certificate_sees_the_singular_values_of_the_whole_generator(monkeypatch):
    p = global_point(B=(0.37, 0.61, 0.83))
    seen = _capture_null_scale(monkeypatch)
    cut = cut_eigen_blocks(monkeypatch)
    gen = solve_point(p).generators
    monkeypatch.undo()
    assert cut == []
    # the rate matrix's 8 and the 56 coherence moduli, each counted once
    [(singular_values, weights)] = seen
    assert weights == (1, 1) and [s.size for s in singular_values] == [8, 56]
    got = np.sort(np.concatenate(singular_values))
    want = np.sort(np.linalg.svd(_assembled(gen), compute_uv=False))
    assert np.abs(got - want).max() <= 1e-12 * want[-1]


def _rank_deficient_rate_matrix(monkeypatch):
    # removing the second smallest singular value of the summed matrix
    # keeps its column sums, since the left null vector is the trace
    real = steady_state.site_rate_matrices

    def site_rate_matrices(gen):
        mats, closed, secular = real(gen)
        M = sum(mats).astype(float)
        u, s, vh = np.linalg.svd(M)
        first = mats[0] - (s[-2] * np.outer(u[:, -2], vh[-2])).astype(np.longdouble)
        return (first,) + mats[1:], closed, secular

    monkeypatch.setattr(steady_state, "site_rate_matrices", site_rate_matrices)


def _null_coherence(monkeypatch):
    def edit(singular_values):
        if len(singular_values) != 2:  # a block certificate
            return singular_values
        moduli = singular_values[1].copy()
        moduli[7] = 0.0
        return [singular_values[0], moduli]

    _capture_null_scale(monkeypatch, edit)


@pytest.mark.parametrize("break_generator", [_rank_deficient_rate_matrix, _null_coherence],
                         ids=["rate-matrix", "coherence"])
def test_a_null_pauli_mode_fails_the_certificate(monkeypatch, break_generator):
    p = global_point(B=(0.37, 0.61, 0.83))
    break_generator(monkeypatch)
    with pytest.raises(DegenerateSteadyStateError):
        solve_point(p)


def test_fully_secular_point_makes_one_small_svd_and_builds_no_block(monkeypatch):
    shapes = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    cut = cut_eigen_blocks(monkeypatch)
    sol = solve_point(global_point(B=(0.37, 0.61, 0.83)))
    assert shapes == [(8, 8)]
    assert cut == []
    assert sol.population_closed and sol.populations is not None
    # the block route certifies one stack of blocks per size
    block_shapes = [(1, 20, 20), (1, 15, 15), (1, 6, 6), (1, 1, 1)]
    shapes.clear()
    sol = solve_point(UNCLOSED_HARMONIC)
    assert shapes == block_shapes and len(cut) == 1 and cut[-1] is sol.generators
    # a secular point without populations falls back to it
    monkeypatch.setattr(steady_state, "_gth_population", lambda M: None)
    shapes.clear()
    sol = solve_point(global_point(B=(0.37, 0.61, 0.83)))
    assert shapes == [(8, 8)] + block_shapes and len(cut) == 2 and cut[-1] is sol.generators
    assert sol.population_closed and sol.populations is None


@pytest.mark.filterwarnings("ignore::triqubit.errors.SecularValidityWarning")
def test_every_bundled_harmonic_point_is_fully_secular(monkeypatch):
    # the module docstring's claim: every global_scatter point is fully
    # secular, and such a point is solved on its Pauli rate matrix; a few
    # points warn that gamma is not small against their Bohr spacings
    cfg = SweepConfig(**json.loads((CONFIGS / "global_scatter.json").read_text()))
    points = [draw_params(cfg, k) for k in range(cfg.n_samples)]
    assert len(points) == 1000
    for k, p in enumerate(points):
        assert site_rate_matrices(build_global_generators(p))[2], k
    cut = cut_eigen_blocks(monkeypatch)
    for k, p in enumerate(points[:200]):
        solve_point(p)
        assert cut == [], k


@pytest.mark.parametrize("T", [0.05, 0.02, 0.01, 0.005])
def test_gth_populations_are_entrywise_gibbs_at_one_cold_temperature(T):
    # with one temperature for every bath the stationary state is the Gibbs
    # state; at T = 0.005 it spans some 300 orders of magnitude, down to
    # subnormal doubles, and each population keeps its own relative accuracy:
    # the amplitudes are exact zeros off each cluster's transitions, so no
    # stray rate feeds the smallest populations
    sol = solve_point(global_point(B=(0.37, 0.61, 0.83), T=(T, T, T)))
    assert sol.populations is not None
    E = sol.generators.spectrum.energies.astype(np.longdouble)
    gibbs = np.exp(-(E - E.min()) / T)
    gibbs /= gibbs.sum()
    assert np.abs(sol.populations / gibbs - 1.0).max() <= 1e-12


def _two_closed_classes(M):
    """M without its rates between the states 0-3 and 4-7, diagonal reset to minus the column sums."""
    classes = np.arange(8) < 4
    out = np.where(classes[:, None] == classes[None, :], M, 0.0).astype(np.longdouble)
    diag = np.arange(8)
    out[diag, diag] = 0.0
    out[diag, diag] = -out.sum(axis=0)
    return out


def test_gth_population_refuses_a_reducible_chain(monkeypatch):
    p = global_point(B=(0.37, 0.61, 0.83))
    mats = site_rate_matrices(build_global_generators(p))[0]
    M = _two_closed_classes(sum(mats))
    assert steady_state._gth_population(sum(mats)) is not None
    assert steady_state._gth_population(M) is None
    assert steady_state._gth_population(np.zeros((8, 8), dtype=np.longdouble)) is None
    # the point of such rate matrices: the Pauli certificate sees both
    # classes, and the block route, whose certificate reads the true
    # blocks, solves without the population state
    real = steady_state.site_rate_matrices
    monkeypatch.setattr(steady_state, "site_rate_matrices", lambda gen: (
        tuple(_two_closed_classes(m) for m in real(gen)[0]),) + real(gen)[1:])
    with pytest.raises(DegenerateSteadyStateError):
        solve_point(p)
    _deny_secular(monkeypatch)
    sol = solve_point(p)
    assert sol.population_closed and sol.populations is None
    monkeypatch.setattr(steady_state, "_gth_population", lambda M: None)
    full = solve_point(p)
    assert_array_equal(sol.rho, full.rho)
    assert sol.residual == full.residual


def _solved_records(points, monkeypatch):
    """evaluate_point's record and solve_point's solution of every point."""
    sols = []
    real = sweeps.solve_point
    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "solve_point", lambda p: sols.append(real(p)) or sols[-1])
        records = [evaluate_point(p) for p in points]
    return records, sols


def test_pauli_route_keeps_the_bits_of_the_block_route(monkeypatch):
    points = _config_points("global_scatter", 1000)
    # every one of them is fully secular, and solved without its blocks
    cut = cut_eigen_blocks(monkeypatch)
    records, sols = _solved_records(points, monkeypatch)
    assert len(sols) == len(points) and cut == []
    _deny_secular(monkeypatch)
    block_records, block_sols = _solved_records(points, monkeypatch)
    assert len(cut) == len(points)
    assert all(gen is sol.generators for gen, sol in zip(cut, block_sols, strict=True))
    for k, (rec, sol, block_rec, block_sol) in enumerate(
            zip(records, sols, block_records, block_sols, strict=True)):
        assert rec.flags == block_rec.flags, k
        assert rec.thermo.Q == block_rec.thermo.Q, k
        assert sol.population_closed is block_sol.population_closed is True, k
        for got, want in ((sol.rho, block_sol.rho), (sol.rho_eig, block_sol.rho_eig),
                          (sol.populations, block_sol.populations)):
            assert_same_bits(got, want)


WEAK_DAMPING = dict(B=(0.4, 0.9, 1.6), J=(0.3, 0.2, 0.25), Delta=(0.1, 0.2, 0.3),
                    T=(1.0, 2.0, 3.0), bath_model="harmonic")


def _verdict(p):
    try:
        solve_point(p)
    except (TriqubitError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("exponent", range(6, 15))
def test_pauli_verdict_is_the_block_verdict_at_weak_damping(monkeypatch, exponent):
    p = ModelParams(gamma=(10.0**-exponent,) * 3, **WEAK_DAMPING)
    assert site_rate_matrices(build_global_generators(p))[2]
    verdict = _verdict(p)
    _deny_secular(monkeypatch)
    assert verdict is _verdict(p)
    # s_2 of the rate matrix is about 0.1 gamma, against sigma_max ~ ||H||
    assert verdict is (None if exponent <= 9 else DegenerateSteadyStateError)


def test_local_sweep_factors_nothing_larger_than_the_zero_block(monkeypatch):
    shapes = []
    for name in ("svd", "solve"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    cfg = SweepConfig(**dict(json.loads((CONFIGS / "local_scatter.json").read_text()),
                             n_samples=20))
    records = random_sweep(cfg)
    assert len(records) == 20
    assert not [f for rec in records for f in rec.flags if f.startswith("error:")]
    # the matrices are the last two axes; a leading axis runs over points
    assert (20, 20) in [shape[-2:] for shape in shapes]
    assert max(max(shape[-2:]) for shape in shapes) == 20


def test_local_point_makes_one_numpy_call_per_stage(monkeypatch):
    # per local point: one SVD per block size (20, 15, 6, 1), one eigh per
    # sector size (1, 3), four refinement solves, one eigvalsh for the
    # state's positivity and three in correlation_report (pair entropies,
    # single-site entropies, partial transposes), no partial trace (the
    # reductions are gathers), one interaction Hamiltonian, and no
    # lindblad_superop once the unit-rate templates exist
    from triqubit import algebra, correlations, local_me, model
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    evaluate_point(p)  # builds the process-wide templates
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for name in ("svd", "eigh", "eigvalsh", "solve"):
        count(np.linalg, name)
    # under every name they are called by
    count(correlations, "partial_trace")
    for module in (model, local_me):
        count(module, "interaction_hamiltonian")
    for module in (algebra, local_me, model):
        count(module, "lindblad_superop")
    rec = evaluate_point(p)
    assert rec.flags == ()
    assert calls == {"svd": 4, "eigh": 2, "eigvalsh": 4, "solve": 4,
                     "interaction_hamiltonian": 1}
