"""Harmonic-bath generator: jump clustering, dissipators, rate matrices."""

import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from triqubit import (
    ModelParams,
    build_global_generators,
    build_liouvillian,
    bose_occupation,
    solve_point,
)
from triqubit import algebra, global_me, local_me, model, steady_state, sweeps
from triqubit.algebra import (
    coherent_superop,
    embed_pauli,
    lindblad_superop,
    trace_distance,
    vec,
    with_daggers,
)
from triqubit.errors import ClusteringError, DomainError, SecularValidityWarning, ZeroModeWarning
from triqubit.global_me import jump_operators, site_rate_matrices
from triqubit.local_me import build_local_generators
from triqubit.model import Spectrum, basis_magnetizations, build_hamiltonian, sector_spectrum
from triqubit.sweeps import SweepConfig, draw_params, evaluate_point, random_sweep

from conftest import (
    MASTER_SEED,
    UNCLOSED_HARMONIC,
    assert_same_bits,
    cut_eigen_blocks,
    global_point,
    local_point,
    whole_eigen_blocks,
)
from oracles import reconstruct, total_sz


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


def test_bose_occupation_underflowing_argument():
    # omega / T = 0 in floating point is outside the domain; every x > 0
    # with a finite occupation keeps the value 1/expm1(x)
    with pytest.raises(DomainError):
        bose_occupation(2e-300, 1e30)
    assert bose_occupation(1e-300, 1.0) == 1.0 / math.expm1(1e-300)
    # below 1/DBL_MAX the occupation itself overflows, also outside the domain
    with pytest.raises(DomainError, match="overflows"):
        bose_occupation(5e-324, 1.0)


def test_uncoupled_jumps_are_lowering_operators():
    p = _uncoupled()
    spectrum = sector_spectrum(build_hamiltonian(p))
    V = spectrum.vectors
    for site, js in zip((1, 2, 3), jump_operators(spectrum)):
        assert js.site == site
        assert_allclose(js.frequencies, [2.0 * p.B[site - 1]], atol=1e-14)
        assert_allclose(V @ js.amplitudes[0] @ V.conj().T, embed_pauli(3, "minus", site),
                        atol=1e-13)


def test_jump_completeness_and_lowering():
    # the clusters plus the zero part reassemble sigma_x of the site, in
    # the eigenbasis and mapped back, and every cluster operator lowers the
    # total magnetization by exactly 2
    p = global_point(B=(0.37, 0.61, 0.83))
    spectrum = sector_spectrum(build_hamiltonian(p))
    V = spectrum.vectors
    S = total_sz()
    for site, js in zip((1, 2, 3), jump_operators(spectrum)):
        sx = embed_pauli(3, "x", site)
        assert np.all(np.diff(js.frequencies) > 0)
        assert_allclose(reconstruct(js), V.conj().T @ sx @ V, atol=1e-10)
        assert np.abs(V @ reconstruct(js) @ V.conj().T - sx).max() <= 1e-13
        for op in V @ js.amplitudes @ V.conj().T:
            assert np.linalg.norm(S @ op - op @ S + 2.0 * op) < 1e-10


def test_zero_mode_warning():
    # B1 = D12 + D13 makes one site-1 flip cost zero energy
    p = ModelParams(
        B=(0.5, 1.0, 2.0), J=(0.0, 0.0, 0.0), Delta=(0.2, 0.3, 0.1),
        T=(1.0, 2.0, 3.0), gamma=(1e-3,) * 3, bath_model="harmonic",
    )
    spectrum = sector_spectrum(build_hamiltonian(p))
    with pytest.warns(ZeroModeWarning):
        js = jump_operators(spectrum)[0]
    assert np.linalg.norm(js.zero_part) > 1.0


def test_a_zero_hamiltonian_has_no_positive_frequency():
    # B = J = Delta = 0: every energy is 0, so tol = 1e-9 max |E| is 0, and
    # no gap is positive, as none was under the old floor of 1e-9. Every
    # flip is a zero mode, and the point is the degenerate error it was
    p = _uncoupled(B=(0.0, 0.0, 0.0), gamma=(1e-3,) * 3)
    spectrum = sector_spectrum(build_hamiltonian(p))
    assert not spectrum.energies.any()
    with pytest.warns(ZeroModeWarning):
        jumps = jump_operators(spectrum)
    assert [js.frequencies.size for js in jumps] == [0, 0, 0]
    assert evaluate_point(p).flags == ("error:DegenerateSteadyStateError", "warn:ZeroModeWarning")


def test_cluster_diameter_guard():
    # steps of g just below the tolerance 1e-9 chain the differences near 1,
    # 1 - 3g to 1 + 12g, into one cluster fifteen steps wide
    g = 0.9e-9
    E = np.array([0.0, g, 2 * g, 3 * g, 1.0, 1.0 + 4 * g, 1.0 + 8 * g, 1.0 + 12 * g])
    spectrum = Spectrum(energies=E, vectors=np.eye(8, dtype=complex),
                        sectors=np.array(basis_magnetizations()))
    with pytest.raises(ClusteringError, match="change the fields B or the couplings"):
        jump_operators(spectrum)


def test_secular_warning_at_large_gamma():
    p = global_point(B=(0.37, 0.61, 0.83), gamma=(0.05, 0.05, 0.05))
    with pytest.warns(SecularValidityWarning):
        build_global_generators(p)


def test_secular_warning_is_one_flag_on_a_complete_record():
    # gamma = 0.05 is not small against this point's Bohr-frequency spacings
    p = ModelParams(B=(0.4, 0.9, 1.6), J=(0.3, 0.2, 0.25), Delta=(0.1, 0.2, 0.3),
                    T=(1.0, 2.0, 3.0), gamma=(0.05,) * 3, bath_model="harmonic")
    rec = evaluate_point(p)
    assert rec.flags == ("warn:SecularValidityWarning",)
    assert rec.thermo is not None
    # each site warns once per point, also when the computational-basis
    # dissipators are built from the rates the builder derived
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_liouvillian(p)
    assert [w.category for w in caught] == [SecularValidityWarning] * 3


def test_a_solve_issues_each_build_warning_once_and_keeps_it():
    # equal outer fields and uniform exchange: zero-frequency parts on sites
    # 1 and 3, and Bohr frequencies too close for gamma on every site
    p = ModelParams(B=(0.01, 0.5, 0.01), J=(0.01,) * 3, Delta=(0.0,) * 3,
                    T=(1.0, 2.0, 3.0), gamma=(1e-5,) * 3, bath_model="harmonic")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_point(p)
    kept = sol.generators.build_warnings
    assert [type(w) for w in kept] == [ZeroModeWarning] * 2 + [SecularValidityWarning] * 3
    # the caller sees each once: the kept warnings are the ones it caught
    assert len(caught) == len(kept) and all(w.message is k for w, k in zip(caught, kept))
    assert evaluate_point(p).flags == ("warn:ZeroModeWarning", "warn:SecularValidityWarning")


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
    mats, closed, _ = site_rate_matrices(gen)
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
    mats = site_rate_matrices(gen)[0]
    for m in mats:
        md = m.astype(float)
        assert np.all(np.diag(md) <= 0.0)
        off = md - np.diag(np.diag(md))
        assert np.all(off >= 0.0)


# --- the batched build against per-site and per-cluster references ---

def _scatter_config(config="global_scatter", **overrides):
    path = Path(__file__).resolve().parent.parent / "configs" / f"{config}.json"
    return SweepConfig(**dict(json.loads(path.read_text()), **overrides))


def _scatter_points(n, **overrides):
    cfg = _scatter_config(**overrides)
    return [draw_params(cfg, k) for k in range(n)]


def _per_site_jump_operators(spectrum, site):
    """(frequencies, amplitudes, zero_part, zero_norm) of one site.

    The per-site route that jump_operators replaced, kept as its bit
    oracle: its own clustering, one pair of 8 x 8 products per site, and
    the keep rule and the zero-mode norm taken in the eigenbasis.
    """
    E, V, d = spectrum.energies, spectrum.vectors, spectrum.dim
    tol = 1e-9 * float(np.max(np.abs(E)))
    sx_eig = V.conj().T @ embed_pauli(3, "x", site) @ V
    diff = E[None, :] - E[:, None]
    a_idx, b_idx = np.nonzero(diff > tol)
    vals = diff[a_idx, b_idx]
    order = np.argsort(vals, kind="stable")
    a_idx, b_idx, vals = a_idx[order], b_idx[order], vals[order]
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > tol)
    counts = np.diff(starts, append=vals.size)
    amps = np.zeros((starts.size, d, d), dtype=complex)
    amps[np.repeat(np.arange(starts.size), counts), a_idx, b_idx] = sx_eig[a_idx, b_idx]
    keep = np.linalg.norm(amps, axis=(1, 2)) > 1e-12 * np.sqrt(d)
    freqs = (np.add.reduceat(vals, starts) / counts)[keep] if starts.size else vals
    zero_part = np.where(np.abs(diff) <= tol, sx_eig, 0.0)
    return freqs, amps[keep], zero_part, float(np.linalg.norm(zero_part, "fro"))


def _reference_jumps(spectrum, site):
    """(frequencies, amplitudes, operators), one amplitude matrix per Bohr cluster.

    A cluster is kept where its computational-basis operator V A V^dag has
    weight, the rule jump_operators takes in the eigenbasis.
    """
    E, V, d = spectrum.energies, spectrum.vectors, spectrum.dim
    tol = 1e-9 * float(np.max(np.abs(E)))
    sx_eig = V.conj().T @ embed_pauli(3, "x", site) @ V
    diff = E[None, :] - E[:, None]
    a_idx, b_idx = np.nonzero(diff > tol)
    vals = diff[a_idx, b_idx]
    order = np.argsort(vals, kind="stable")
    a_idx, b_idx, vals = a_idx[order], b_idx[order], vals[order]
    freqs, amps, ops = [], [], []
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop < len(vals) and vals[stop] - vals[stop - 1] <= tol:
            continue
        rows, cols = a_idx[start:stop], b_idx[start:stop]
        amp = np.zeros((d, d), dtype=complex)
        amp[rows, cols] = sx_eig[rows, cols]
        op = V @ amp @ V.conj().T
        if np.linalg.norm(op, "fro") > 1e-12 * np.sqrt(d):
            freqs.append(float(vals[start:stop].mean()))
            amps.append(amp)
            ops.append(op)
        start = stop
    return np.asarray(freqs), amps, ops


def _reference_rate_matrices(p, site_jumps):
    """Rate matrices and closure, accumulated one cluster at a time."""
    mats, closed = [], True
    for (freqs, amps, _), gamma, T in zip(site_jumps, p.gamma, p.T):
        M = np.zeros((8, 8), dtype=np.longdouble)
        for omega, amp in zip(freqs, amps):
            mags = np.abs(amp)
            nz = mags > 1e-12 * max(float(mags.max()), 1e-300)
            if np.any(nz.sum(axis=0) > 1) or np.any(nz.sum(axis=1) > 1):
                closed = False
            g = mags.astype(np.longdouble) ** 2
            nbar = bose_occupation(omega, T)
            M += (gamma * (1.0 + nbar)) * g
            M += (gamma * nbar) * g.T
        M -= np.diag(M.sum(axis=0))
        mats.append(M)
    return mats, closed


def _einsum_lindblad(ops, rates):
    a = np.asarray(ops)
    d = a.shape[1]
    sand = np.einsum("w,wij,wkl->ikjl", rates, a.conj(), a).reshape(d * d, d * d)
    anti = np.einsum("w,wji,wjk->ik", rates, a.conj(), a)
    eye = np.eye(d, dtype=complex)
    return sand - 0.5 * (np.kron(eye, anti) + np.kron(anti.T, eye))


# B1 = D12 + D13 makes one site-1 flip cost zero energy
ZERO_MODE = ModelParams(
    B=(0.5, 1.0, 2.0), J=(0.0, 0.0, 0.0), Delta=(0.2, 0.3, 0.1),
    T=(1.0, 2.0, 3.0), gamma=(1e-3,) * 3, bath_model="harmonic",
)
# the first draw with every energy and rate times 2**-20, energies near
# 1e-6: a clustering tolerance with an absolute floor would cluster it
# differently from the draw itself
FIRST_DRAW = _scatter_points(1)[0]
SCALED_DRAW = replace(FIRST_DRAW, **{name: tuple(2.0 ** -20 * v for v in getattr(FIRST_DRAW, name))
                                     for name in ("B", "J", "Delta", "T", "gamma")})
BIT_PIN_POINTS = (
    _scatter_points(60) + _scatter_points(60, master_seed=MASTER_SEED)
    + [UNCLOSED_HARMONIC, ZERO_MODE, SCALED_DRAW]
)
BIT_PIN_IDS = (
    [f"scatter-{k}" for k in range(60)] + [f"seed2-{k}" for k in range(60)]
    + ["unclosed", "zero-mode", "scatter-0-scaled"]
)


@pytest.mark.parametrize("p", BIT_PIN_POINTS, ids=BIT_PIN_IDS)
def test_batched_jumps_and_rate_matrices_keep_their_bits(p):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen = build_global_generators(p)
    spectrum, V = gen.spectrum, gen.spectrum.vectors
    oracle = [_per_site_jump_operators(spectrum, site) for site in (1, 2, 3)]
    zero_mode_sites = [
        str(w.message).split(":")[0] for w in caught if w.category is ZeroModeWarning
    ]
    assert zero_mode_sites == [f"site {s}" for s, o in zip((1, 2, 3), oracle) if o[3] > 1e-10]
    assert bool(zero_mode_sites) == (p is ZERO_MODE)
    E = spectrum.energies
    tol = 1e-9 * float(np.max(np.abs(E)))
    diff = E[None, :] - E[:, None]
    for site, js, want in zip((1, 2, 3), gen.jumps, oracle):
        assert js.site == site
        for got, ref in zip((js.frequencies, js.amplitudes, js.zero_part), want):
            assert_same_bits(got, ref)
        # each amplitude is sx_eig at its cluster's transitions, 0.0 elsewhere
        sx_eig = V.conj().T @ embed_pauli(3, "x", site) @ V
        for omega, amp in zip(js.frequencies, js.amplitudes):
            own = np.abs(diff - omega) <= tol
            assert_same_bits(amp[own], sx_eig[own])
            assert np.all(amp[~own] == 0.0)
    # and the same bits from a direct call, one JumpSet per site
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroModeWarning)
        direct_jumps = jump_operators(spectrum)
    for js, direct in zip(gen.jumps, direct_jumps):
        assert_same_bits(direct.amplitudes, js.amplitudes)
        assert_same_bits(direct.zero_part, js.zero_part)
    ref = [_reference_jumps(spectrum, site) for site in (1, 2, 3)]
    for js, ops, (freqs, amps, ref_ops) in zip(gen.jumps, gen.jump_ops, ref):
        assert_array_equal(js.frequencies, freqs)
        assert_array_equal(js.amplitudes, np.asarray(amps).reshape(-1, 8, 8))
        assert_array_equal(ops, np.asarray(ref_ops).reshape(-1, 8, 8))
    mats, closed, _ = site_rate_matrices(gen)
    ref_mats, ref_closed = _reference_rate_matrices(p, ref)
    assert closed == ref_closed == (p is not UNCLOSED_HARMONIC)
    for m, m_ref in zip(mats, ref_mats):
        assert_same_bits(m, m_ref)
    # the dm >= 0 eigenbasis blocks are cut, bit for bit, from the one
    # summed superoperator of the per-site amplitudes
    ops, rates = [], []
    for (freqs, amps, _, _), gamma, T in zip(oracle, p.gamma, p.T):
        nbar = np.array([bose_occupation(w, T) for w in freqs])
        ops += [amps, np.conj(np.transpose(amps, (0, 2, 1)))]
        rates += [gamma * (1.0 + nbar), gamma * nbar]
    summed = lindblad_superop(np.concatenate(ops), np.concatenate(rates))
    groups = spectrum.liouville_block_groups
    cut = global_me._eigen_blocks([gen])
    assert len(cut) == len(groups)
    for stacked, blocks in zip(groups, cut):
        assert blocks.shape == (1,) + stacked.shape[1:] * 2
        assert_same_bits(blocks[0], summed[np.ix_(stacked[0], stacked[0])])
    # the eigenbasis blocks and their -dm mirrors tile the
    # computational-basis generator, transformed, and it has nothing
    # between them
    W = np.kron(V.conj(), V)
    summed = gen.dissipators[0] + gen.dissipators[1] + gen.dissipators[2]
    assembled = np.zeros((64, 64), dtype=complex)
    for stacked, blocks in zip(groups, whole_eigen_blocks(gen)):
        for index, block in zip(stacked, blocks):
            assembled[np.ix_(index, index)] = block
    assert_array_equal(np.sort(np.concatenate([i.ravel() for i in groups])), np.arange(64))
    assert np.abs(assembled - W.conj().T @ summed @ W).max() <= 1e-12 * max(p.gamma)


def test_harmonic_eigenvectors_are_unitary_to_the_last_bit():
    # eigh leaves V^dag V off the identity by up to 5 eps on these points;
    # the builder's Newton step takes it to 1 eps, keeps each eigenvector in
    # its magnetization sector and still diagonalizes H
    labels = np.array(basis_magnetizations())
    eps = np.finfo(float).eps
    raw = []
    for p in BIT_PIN_POINTS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroModeWarning)
            gen = build_global_generators(p)
        V, E = gen.spectrum.vectors, gen.spectrum.energies
        assert np.abs(V.conj().T @ V - np.eye(8)).max() <= eps
        assert np.all(V[labels[:, None] != gen.spectrum.sectors[None, :]] == 0.0)
        scale = max(1.0, float(np.abs(E).max()))
        assert np.abs(V.conj().T @ gen.H @ V - np.diag(E)).max() <= 1e-14 * scale
        V0 = sector_spectrum(gen.H).vectors
        raw.append(np.abs(V0.conj().T @ V0 - np.eye(8)).max())
    assert max(raw) > 4 * eps


def test_harmonic_point_makes_one_pass_per_stage(monkeypatch):
    # one clustering for the three sites, and one Bose occupation per kept
    # cluster and site, shared by the generator and the rate matrices
    points = _scatter_points(5)
    clusters = [sum(len(js.frequencies) for js in build_global_generators(p).jumps)
                for p in points]
    calls = {"jump_operators": 0, "bose_occupation": 0}
    for name in calls:
        real = getattr(global_me, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(global_me, name, counted)
    for p, n in zip(points, clusters):
        calls.update(jump_operators=0, bose_occupation=0)
        rec = evaluate_point(p)
        assert rec.thermo is not None and not rec.flags
        assert calls == {"jump_operators": 1, "bose_occupation": n}


def test_lindblad_superop_matches_the_einsum_form():
    from triqubit.local_me import _site_matrices, local_rates

    # local sigma-minus/sigma-plus sites: bit for bit, signed zeros included
    for p in (local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
              local_point(B=(1.7, 0.4, 2.9), gamma=(0.9, 0.33, 0.51))):
        rates = local_rates(p)
        for site in (1, 2, 3):
            args = (_site_matrices(site)[:2], tuple(rates[site - 1][:, 0]))
            got, want = lindblad_superop(*args), _einsum_lindblad(*args)
            assert_array_equal(got, want)
            for part in ("real", "imag"):
                assert_array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))
    # a 30-jump harmonic site: the matmul rounds differently, within 1e-15
    p = _scatter_points(1)[0]
    gen = build_global_generators(p)
    js, lowering = gen.jumps[0], gen.jump_ops[0]
    ops = np.concatenate([lowering, np.conj(np.transpose(lowering, (0, 2, 1)))])
    nbar = np.array([bose_occupation(w, p.T[0]) for w in js.frequencies])
    rates = p.gamma[0] * np.concatenate([1.0 + nbar, nbar])
    assert len(ops) == 30
    want = _einsum_lindblad(ops, rates)
    assert np.abs(lindblad_superop(ops, rates) - want).max() <= 1e-15 * np.abs(want).max()


def test_solved_points_build_no_computational_basis_dissipator(monkeypatch):
    # Generators.dissipators is the only caller of model's lindblad_superop
    calls = []
    real = model.lindblad_superop
    monkeypatch.setattr(
        model, "lindblad_superop", lambda *args: calls.append(args) or real(*args)
    )
    eye = np.eye(8)
    transforms = []

    def watch(real):
        def kron(a, b):
            # kron(conj(V), V) is the only 8 x 8 kron without an identity factor
            if np.shape(a) == np.shape(b) == (8, 8):
                if not (np.array_equal(a, eye) or np.array_equal(b, eye)):
                    transforms.append((a, b))
            return real(a, b)
        return kron

    monkeypatch.setattr(np, "kron", watch(np.kron))
    records = random_sweep(_scatter_config(n_samples=20))
    assert len(records) == 20 and not any(r.flags for r in records)
    assert calls == [] and transforms == []
    # the local builder gathers its W_B blocks from V and conj(V) instead
    local = random_sweep(_scatter_config("local_scatter", n_samples=20))
    assert len(local) == 20 and not any(r.flags for r in local)
    assert calls == [] and transforms == []
    # nor do the points the blocks solve, whose currents read the
    # coherences too: an unclosed point, and a closed one whose population
    # state is refused
    solved = []
    solve = sweeps.solve_point
    monkeypatch.setattr(sweeps, "solve_point", lambda p: solved.append(solve(p)) or solved[-1])
    assert evaluate_point(UNCLOSED_HARMONIC).flags == ()
    monkeypatch.setattr(steady_state, "_gth_population", lambda M: None)
    assert evaluate_point(global_point(B=(0.37, 0.61, 0.83))).flags == ()
    assert [sol.population_closed for sol in solved] == [False, True]
    assert [sol.populations for sol in solved] == [None, None]
    assert calls == [] and transforms == []
    for sol in solved:
        assert "jump_ops" not in vars(sol.generators)
        assert "dissipators" not in vars(sol.generators)

    # asked for, the dissipators are still the per-bath 64 x 64 ones
    gen = build_global_generators(records[0].params)
    dissipators = gen.dissipators
    assert len(calls) == 3 and gen.dissipators is dissipators
    assert all(d.shape == (64, 64) for d in dissipators)
    L = coherent_superop(gen.H) + dissipators[0] + dissipators[1] + dissipators[2]
    u = vec(np.eye(8, dtype=complex))
    assert np.linalg.norm(u @ L) < 1e-12 * np.linalg.norm(L)
    assert_array_equal(L, build_liouvillian(records[0].params))


def _spy_on_superop_builders(monkeypatch) -> list:
    """The names of lindblad_superop and coherent_superop, in call order.

    Each is spied on under every name the package imports it as.
    """
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("lindblad_superop", "coherent_superop"):
        real = getattr(algebra, name)
        for module in [m for key, m in sys.modules.items()
                       if key == "triqubit" or key.startswith("triqubit.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy(name, real))
    return calls


def test_fully_secular_points_call_no_lindblad_superop(monkeypatch):
    # a fully secular point is solved on its Pauli rate matrix, without
    # the 64 x 64 summed superoperator: no lindblad_superop, and no
    # coherent_superop, the package's other 64 x 64 builder
    calls = _spy_on_superop_builders(monkeypatch)
    points = _scatter_points(10)
    for p in points:
        rec = evaluate_point(p)
        assert rec.thermo is not None and not rec.flags
    gen = build_global_generators(points[0])
    assert site_rate_matrices(gen)[1]
    assert calls == [] and "dissipators" not in vars(gen)
    # asked for, the dissipators are the per-bath 64 x 64 superoperators
    dissipators = gen.dissipators
    assert calls == ["lindblad_superop"] * 3
    assert [d.shape for d in dissipators] == [(64, 64)] * 3
    V = gen.spectrum.vectors
    for d, ops, js, (down, up) in zip(dissipators, gen.jump_ops, gen.jumps, gen.jump_rates):
        assert_same_bits(ops, V @ js.amplitudes @ V.conj().T)
        assert_array_equal(d, lindblad_superop(with_daggers(ops), np.concatenate([down, up])))


def test_a_closed_point_that_is_not_fully_secular_calls_lindblad_superop_once(monkeypatch):
    # at J = Delta = 0 each Bohr cluster holds the four flips of one site:
    # closed, but not fully secular, so the solve reads the eigenbasis
    # blocks, cut from one summed superoperator of all three baths
    calls = _spy_on_superop_builders(monkeypatch)
    cut = cut_eigen_blocks(monkeypatch)
    p = _uncoupled()
    _, closed, secular = site_rate_matrices(build_global_generators(p))
    assert closed and not secular and calls == []
    sol = solve_point(p)
    assert calls == ["lindblad_superop"] and len(cut) == 1 and cut[0] is sol.generators


def test_heat_generator_diagonal_is_the_edge_sum_of_the_rate_matrices():
    # G_i[b, b] = sum_a (e_a - e_b) M_i[a, b], so the edge sum of the
    # population route is the diagonal of G_i applied to the populations
    sol = solve_point(_scatter_points(1)[0])
    assert sol.populations is not None
    e = sol.generators.spectrum.energies.astype(np.longdouble)
    flows = (e[:, None] - e[None, :]) * np.stack(sol.rate_matrices)
    diagonal = np.diagonal(global_me._heat_generators(sol.generators), axis1=1, axis2=2)
    assert diagonal.dtype == np.clongdouble and np.all(diagonal.imag == 0.0)
    gross = np.abs(flows).sum(axis=1)
    tol = 16 * np.finfo(np.longdouble).eps * gross
    assert np.all(np.abs(diagonal.real - flows.sum(axis=1)) <= tol)


def test_computational_basis_jumps_are_built_on_first_access_only(monkeypatch):
    # a fully secular point is solved without its computational-basis
    # jumps or dissipators
    solved = []
    real = sweeps.solve_point
    monkeypatch.setattr(sweeps, "solve_point", lambda p: solved.append(real(p)) or solved[-1])
    p = _scatter_points(1)[0]
    assert evaluate_point(p).thermo is not None
    gen = solved[0].generators
    assert site_rate_matrices(gen)[2]
    assert "jump_ops" not in vars(gen) and "dissipators" not in vars(gen)
    # on first access, each bath's jumps are its amplitudes mapped by V,
    # with the bits of the per-matrix products
    V = gen.spectrum.vectors
    for ops, js in zip(gen.jump_ops, gen.jumps, strict=True):
        assert ops.shape == js.amplitudes.shape
        for op, amp in zip(ops, js.amplitudes, strict=True):
            assert_same_bits(op, V @ amp @ V.conj().T)
    assert "dissipators" not in vars(gen)
    # and the dissipators keep the bits of the rule on the per-cluster
    # operators V A V^dag, each cluster kept by its computational-basis norm
    for d, site, (down, up) in zip(gen.dissipators, (1, 2, 3), gen.jump_rates, strict=True):
        ops = np.asarray(_reference_jumps(gen.spectrum, site)[2]).reshape(-1, 8, 8)
        assert_same_bits(d, lindblad_superop(with_daggers(ops), np.concatenate([down, up])))
    # the local model's jumps are its sigma_-^i, also built on first access
    [local] = build_local_generators([local_point(B=(0.9, 2.7, 4.1))])
    assert "jump_ops" not in vars(local)
    assert local.jump_ops is local_me._lowering_jumps()


SUPPORT_POINTS = _scatter_points(200) + [UNCLOSED_HARMONIC, ZERO_MODE]


@pytest.mark.parametrize("p", SUPPORT_POINTS,
                         ids=[f"scatter-{k}" for k in range(200)] + ["unclosed", "zero-mode"])
def test_jump_amplitudes_vanish_off_the_one_flip_support(p):
    # every jump flips one spin, so <a|A|b> is exactly 0.0 unless
    # |m(a) - m(b)| = 2: only those transitions carry a rate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroModeWarning)
        gen = build_global_generators(p)
    m = gen.spectrum.sectors
    off = np.abs(m[:, None] - m[None, :]) != 2
    assert off.sum() == 34
    for js in gen.jumps:
        assert js.amplitudes.size and np.all(js.amplitudes[:, off] == 0.0)
        assert np.any(js.amplitudes[:, ~off] != 0.0)


@pytest.mark.parametrize("p, closed, secular", [
    (_scatter_points(1)[0], True, True),
    (_uncoupled(), True, False),
    (UNCLOSED_HARMONIC, False, False),
], ids=["scatter", "uncoupled", "unclosed"])
def test_a_fully_secular_point_has_one_transition_per_cluster(monkeypatch, p, closed, secular):
    # uncoupled, each flip of a site has one Bohr frequency for all four
    # states of the other two sites: four transitions, no shared row or
    # column, in one cluster
    gen = build_global_generators(p)
    assert site_rate_matrices(gen)[1:] == (closed, secular)
    transitions = [int(np.sum(np.abs(a) > 1e-12 * np.abs(a).max()))
                   for js in gen.jumps for a in js.amplitudes]
    assert (set(transitions) == {1}) is secular
    # the solve cuts the eigen blocks only where the point is not fully secular
    cut = cut_eigen_blocks(monkeypatch)
    sol = solve_point(p)
    assert bool(cut) is not secular
    # and only those blocks build the dense amplitude stacks
    assert all(("amplitudes" in vars(js)) is not secular for js in sol.generators.jumps)
    assert (sol.populations is not None) is closed
