"""Hamiltonian assembly, magnetization structure, sector diagonalization."""

import dataclasses
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from triqubit import ModelParams, build_hamiltonian, sector_spectrum
from triqubit.algebra import embed_pauli, lindblad_superop
from triqubit.errors import DomainError
from triqubit.global_me import build_global_generators, site_rate_matrices, thermal_rates
from triqubit.local_me import build_local_generators
from triqubit.model import (
    basis_magnetizations,
    interaction_hamiltonian,
    liouville_block_groups,
    local_field_hamiltonian,
)

from conftest import UNCLOSED_HARMONIC, assert_same_bits, global_point, local_point
from oracles import total_sz


def test_params_validation():
    with pytest.raises(DomainError):
        local_point(B=(-0.1, 1.0, 1.0))
    with pytest.raises(DomainError):
        local_point(B=(1.0, 1.0, 1.0), T=(0.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        local_point(B=(1.0, 1.0, 1.0), gamma=(0.0, 0.5, 0.5))
    with pytest.raises(DomainError):
        local_point(B=(1.0, 1.0, 1.0), bath_model="dephasing")
    with pytest.raises(DomainError):
        local_point(B=(1.0, 1.0))


def test_pair_value_is_order_insensitive():
    p = local_point(B=(1.0, 2.0, 3.0), J=(0.1, 0.2, 0.3), Delta=(4.0, 5.0, 6.0))
    assert p.pair_value("J", 1, 2) == 0.1
    assert p.pair_value("J", 2, 1) == 0.1
    assert p.pair_value("J", 3, 1) == 0.2
    assert p.pair_value("Delta", 3, 2) == 6.0


def test_hamiltonian_is_hermitian_and_traceless():
    p = local_point(B=(0.4, 1.1, 2.3), gamma=(0.3, 0.4, 0.5))
    H = build_hamiltonian(p)
    assert_allclose(H, H.conj().T, atol=1e-14)
    assert abs(np.trace(H)) < 1e-13


def test_uncoupled_equal_fields_spectrum():
    p = local_point(B=(1.0, 1.0, 1.0), J=(0.0, 0.0, 0.0), Delta=(0.0, 0.0, 0.0))
    spectrum = sector_spectrum(build_hamiltonian(p))
    assert_allclose(spectrum.energies, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-14)


def test_magnetization_is_conserved():
    p = local_point(B=(0.7, 1.9, 0.2), Delta=(0.5, -0.3, 0.8))
    H = build_hamiltonian(p)
    S = total_sz()
    assert np.linalg.norm(H @ S - S @ H) < 1e-13


def test_cross_sector_blocks_vanish():
    p = local_point(B=(0.7, 1.9, 0.2))
    H = build_hamiltonian(p)
    m = np.array(basis_magnetizations())
    for a in range(8):
        for b in range(8):
            if m[a] != m[b]:
                assert H[a, b] == 0.0


def test_magnetization_sectors_enumeration():
    assert basis_magnetizations() == (3, 1, 1, -1, 1, -1, -1, -3)
    # the labels are the diagonal of the total magnetization
    np.testing.assert_array_equal(np.diag(total_sz()).real, basis_magnetizations())
    assert basis_magnetizations(2) == (2, 0, 0, -2)


def test_sector_spectrum_reconstructs():
    p = local_point(B=(0.31, 0.77, 1.21), Delta=(0.2, -0.1, 0.45))
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    V, E = spectrum.vectors, spectrum.energies
    assert np.all(np.diff(E) >= 0)
    assert_allclose(V @ np.diag(E) @ V.conj().T, H, atol=1e-12)
    assert_allclose(V.conj().T @ V, np.eye(8), atol=1e-12)


def test_sector_labels_match_eigenvectors():
    p = local_point(B=(0.31, 0.77, 1.21))
    spectrum = sector_spectrum(build_hamiltonian(p))
    S = total_sz()
    for k in range(8):
        v = spectrum.vectors[:, k]
        m = (v.conj() @ S @ v).real
        assert abs(m - spectrum.sectors[k]) < 1e-12


def test_field_plus_interaction_split():
    p = local_point(B=(0.5, 0.9, 1.4), Delta=(0.1, 0.2, 0.3))
    assert_allclose(
        local_field_hamiltonian(p) + interaction_hamiltonian(p),
        build_hamiltonian(p),
        atol=0,
    )


def _kron_reference_hamiltonian(p):
    """H assembled from fresh np.kron products, in build_hamiltonian's order."""
    def site_op(op, site):
        out = np.array([[1.0 + 0.0j]])
        for s in (1, 2, 3):
            out = np.kron(out, op if s == site else np.eye(2, dtype=complex))
        return out

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    field = np.zeros((8, 8), dtype=complex)
    for site in (1, 2, 3):
        field += p.B[site - 1] * site_op(z, site)
    inter = np.zeros((8, 8), dtype=complex)
    for (i, j), coupling, zz in zip(((1, 2), (1, 3), (2, 3)), p.J, p.Delta):
        exchange = site_op(x, i) @ site_op(x, j) + site_op(y, i) @ site_op(y, j)
        inter += coupling * exchange + zz * (site_op(z, i) @ site_op(z, j))
    return field + inter


@pytest.mark.parametrize("p", [
    local_point(B=(0.4, 1.1, 2.3)),
    local_point(B=(0.31, 0.77, 1.21), J=(0.0, 0.5, 0.0), Delta=(0.2, -0.1, 0.45)),
    local_point(B=(3.7, 1e-3, 0.9), J=(1e-9, 2.5, 0.3), Delta=(-0.8, 0.0, 1e6)),
    global_point(B=(0.37, 0.61, 0.83)),
])
def test_build_hamiltonian_matches_kron_reference(p):
    H = build_hamiltonian(p)
    np.testing.assert_array_equal(H, _kron_reference_hamiltonian(p))
    # a second build from the memoized strings is the same array bit for bit
    np.testing.assert_array_equal(build_hamiltonian(p), H)


def test_sector_spectrum_rejects_cross_sector_and_nonhermitian_input():
    H = build_hamiltonian(local_point(B=(0.31, 0.77, 1.21)))
    scale = np.max(np.abs(H))
    m = basis_magnetizations()
    for a in range(8):
        for b in range(a + 1, 8):
            same = m[a] == m[b]
            for size, rejected in ((1e-11, not same), (1e-13, False)):
                bad = H.copy()
                bad[a, b] += size * scale
                bad[b, a] += size * scale
                if rejected:
                    with pytest.raises(DomainError, match="across magnetization sectors"):
                        sector_spectrum(bad)
                else:
                    sector_spectrum(bad)
    skew = H.copy()
    skew[1, 2] += 1e-6 * scale
    with pytest.raises(DomainError, match="not Hermitian"):
        sector_spectrum(skew)
    # other register sizes get their own layout
    two = np.diag([2.0, 0.5, -0.5, -2.0]).astype(complex)
    two[1, 2] = two[2, 1] = 0.25
    assert_allclose(sector_spectrum(two).sectors, [-2, 0, 0, 2])


@pytest.mark.parametrize("build, p", [
    (build_local_generators, local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))),
    (build_global_generators, global_point(B=(0.37, 0.61, 0.83))),
], ids=["local", "global"])
def test_block_groups_tile_the_liouville_space(build, p):
    gen = build(p)
    for labels in (gen.spectrum.sectors, np.array(basis_magnetizations())):
        groups = liouville_block_groups(tuple(labels.tolist()))
        dm = (labels[:, None] - labels[None, :]).reshape(-1, order="F")
        # every vec position once, each block all positions of one dm, ascending
        np.testing.assert_array_equal(np.sort(np.concatenate([g.ravel() for g in groups])),
                                      np.arange(64))
        for indices in groups:
            for index in indices:
                np.testing.assert_array_equal(index, np.flatnonzero(dm == dm[index[0]]))
        assert [int(dm[index[0]]) for indices in groups for index in indices] == [
            0, 2, -2, 4, -4, 6, -6]
        assert [g.shape for g in groups] == [(1, 20), (2, 15), (2, 6), (2, 1)]
    # the builders hand over the dm >= 0 row of each stack
    assert [b.shape for b in gen.eigen_blocks] == [
        (1, n, n) for _, n in (g.shape for g in gen.spectrum.liouville_block_groups)]


@pytest.mark.parametrize("p", [
    local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15)),
    global_point(B=(0.37, 0.61, 0.83)),
    UNCLOSED_HARMONIC,
], ids=["local", "closed-harmonic", "unclosed-harmonic"])
def test_generators_are_plain_data_with_one_dissipator_rule(p):
    harmonic = p.bath_model == "harmonic"
    gen = (build_global_generators if harmonic else build_local_generators)(p)
    if harmonic:
        assert site_rate_matrices(gen)[1] is (p is not UNCLOSED_HARMONIC)
    for f in dataclasses.fields(gen):
        assert not callable(getattr(gen, f.name)), f.name
    # each bath's lowering jumps and rate rows, from the parameters
    if harmonic:
        jumps = [js.operators for js in gen.jumps]
        rates = [thermal_rates(js.site, js.frequencies.tolist(), g, t)
                 for js, g, t in zip(gen.jumps, p.gamma, p.T)]
    else:
        jumps = [embed_pauli(3, "minus", site)[None] for site in (1, 2, 3)]
        rates = [thermal_rates(site, (2.0 * b,), g, t)
                 for site, b, g, t in zip((1, 2, 3), p.B, p.gamma, p.T)]
    want = []
    for ops, (down, up) in zip(jumps, rates, strict=True):
        assert ops.shape[1:] == (8, 8) and down.shape == up.shape == (len(ops),)
        raising = [op.conj().T for op in ops]
        want.append(lindblad_superop([*ops, *raising], [*down, *up]))
    copy = pickle.loads(pickle.dumps(gen))
    for record in (gen, copy):
        for got, ops in zip(record.jump_ops, jumps, strict=True):
            assert_same_bits(got, ops)
        for got, rows in zip(record.jump_rates, rates, strict=True):
            assert_same_bits(got, rows)
        for got, ref in zip(record.dissipators, want, strict=True):
            assert_same_bits(got, ref)
