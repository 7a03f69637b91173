"""Harmonic-bath (global) master equation in the secular approximation.

Each qubit couples to its own bosonic bath through sigma_x. The dissipator is
built from jump operators of the full system Hamiltonian: for every positive
Bohr frequency omega,

    A_omega = sum_{E_b - E_a = omega} P_a sigma_x^i P_b,

and bath i contributes

    L_i[rho] = sum_omega gamma_i (1 + n(omega, T_i)) D[A_omega]
             + gamma_i n(omega, T_i) D[A_omega^dag],

with n the Bose occupation. thermal_rates gives these rates; it is the one
rate rule of both bath models, and local_me takes it at the bare splittings
2 B_i. Heat currents are Q_i = Tr(H L_i[rho]).

Nearly equal Bohr frequencies are merged into clusters; the zero-frequency
part is discarded (with a warning when it carries weight) because it does not
enter the secular generator.

The three baths share the Bohr frequencies of H, so jump_operators clusters
them once for all sites. The solver works in the eigenbasis of H, where
each A_omega is sigma_x^i at its cluster's transitions and zero elsewhere,
so the jumps are kept there; Generators.jump_ops maps them to the
computational basis only on first access, for the 64 x 64 dissipators.
build_global_generators takes the eigenvectors V one Newton step toward
unitarity first, so that both maps agree to roundoff.
Every jump flips one spin, so its amplitudes <a|A_omega|b> vanish exactly
unless |m(a) - m(b)| = 2, 30 of the 64 entries for three qubits.
site_rate_matrices reads that support of the amplitudes, and the rates
of build_global_generators, for the Pauli rate matrices of the
population solve. Where some cluster holds more than one transition, the
solve also reads the dm >= 0 magnetization-difference blocks of the
summed dissipator, which Generators.eigen_blocks builds on first access
from the same support, entry by entry as lindblad_superop would build
the whole 64 x 64 superoperator, keeping its bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .algebra import (
    CLD,
    checked_trace,
    embed_pauli,
    unvec,
    vec,
    with_daggers,
)
from .errors import (
    ClusteringError,
    DomainError,
    SecularValidityWarning,
    ZeroModeWarning,
)
from .model import (
    Generators,
    ModelParams,
    Spectrum,
    block_entry_positions,
    build_hamiltonian,
    sector_spectrum,
)


def bose_occupation(omega: float, T: float) -> float:
    """Mean occupation 1/(exp(omega/T) - 1) of a bath mode."""
    if omega <= 0.0:
        raise DomainError(f"bose_occupation needs omega > 0, got {omega}")
    if T <= 0.0:
        raise DomainError(f"bose_occupation needs T > 0, got {T}")
    x = omega / T
    if x == 0.0:
        raise DomainError(f"bose_occupation: omega/T = {omega}/{T} underflows to 0")
    # 1/(e^x - 1) = e^-x / (1 - e^-x): past x ~ 709.78 e^x overflows, while
    # 1 - e^-x already rounds to 1 from x ~ 37 on; below x ~ 5.6e-309,
    # 1/x overflows
    n = 1.0 / math.expm1(x) if x < 709.0 else math.exp(-x)
    if not math.isfinite(n):
        raise DomainError(f"bose_occupation: omega/T = {omega}/{T} overflows the occupation")
    return n


@dataclass(frozen=True)
class JumpSet:
    """Clustered jump operators of one site, in the eigenbasis of H.

    frequencies are the ascending cluster centers (all > tol of
    jump_operators). amplitudes[k] is the jump that lowers the system
    energy by frequencies[k]: the entries <a|sigma_x^site|b> at the
    cluster's transitions, E_b - E_a in the cluster, and exactly 0.0
    elsewhere. V amplitudes[k] V^dag is the jump in the computational
    basis. zero_part is the discarded |E_b - E_a| <= tol component of
    sigma_x^site, also in the eigenbasis.
    """

    site: int
    frequencies: np.ndarray
    amplitudes: np.ndarray
    zero_part: np.ndarray


@lru_cache(maxsize=None)
def _site_couplings(n_sites: int) -> np.ndarray:
    """Read-only (n_sites, d, d) stack of the coupling operators sigma_x^i."""
    out = np.stack([embed_pauli(n_sites, "x", site) for site in range(1, n_sites + 1)])
    out.setflags(write=False)
    return out


def _sandwich(left: np.ndarray, X: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ X[k] @ right for each matrix of the (n, d, d) stack X.

    Two matrix products in all, a (d, n d) wide one and an (n d, d) tall
    one. Each entry is the same length-d dot product as in the per-matrix
    products, and it keeps their bits (pinned by the tests).
    """
    n, d, _ = X.shape
    wide = left @ X.transpose(1, 0, 2).reshape(d, n * d)
    tall = wide.reshape(d, n, d).transpose(1, 0, 2).reshape(n * d, d)
    return (tall @ right).reshape(n, d, d)


def jump_operators(spectrum: Spectrum) -> tuple:
    """Clustered Fourier components of sigma_x^i under the system Hamiltonian.

    Returns one JumpSet per site, site 1 first. The Bohr frequencies are
    those of the one Hamiltonian, so one clustering serves every site, and
    the one basis change, of the three sigma_x^i into the eigenbasis, is
    one _sandwich. Frequencies closer than tol = 1e-9 max(1, max |E|)
    merge into one cluster, a cluster wider than 10 tol raises
    ClusteringError, and the frequencies within tol of zero are discarded.
    A cluster is kept for a site where its amplitudes' Frobenius norm
    exceeds 1e-12 sqrt(d).
    """
    E = spectrum.energies
    V = spectrum.vectors
    d = spectrum.dim
    n_sites = d.bit_length() - 1
    tol = 1e-9 * max(1.0, float(np.max(np.abs(E))))
    sx_eig = _sandwich(V.conj().T, _site_couplings(n_sites), V)

    diff = E[None, :] - E[:, None]  # diff[a, b] = E_b - E_a
    pos = diff > tol
    a_idx, b_idx = np.nonzero(pos)
    vals = diff[a_idx, b_idx]
    order = np.argsort(vals, kind="stable")
    a_idx, b_idx, vals = a_idx[order], b_idx[order], vals[order]

    # clusters are the runs of ascending values separated by gaps > tol
    new_run = np.empty(vals.size, dtype=bool)
    new_run[:1] = True
    np.greater(vals[1:] - vals[:-1], tol, out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1], ends[-1:] = starts[1:], vals.size
    counts = ends - starts
    diameters = vals[ends - 1] - vals[starts]
    wide = np.flatnonzero(diameters > 10.0 * tol)
    if wide.size:
        k = wide[0]
        raise ClusteringError(
            f"Bohr frequency cluster near {vals[starts[k]]:.6g} has diameter "
            f"{diameters[k]:.3e} > 10 * tolerance = {10 * tol:.3e}; "
            "change the fields B or the couplings J and Delta to separate these "
            "Bohr frequencies"
        )
    n_c = starts.size
    # each cluster's amplitudes are sx_eig at its own transitions and
    # exactly 0.0 elsewhere; the zero parts hold the |E_b - E_a| <= tol rest
    amps = np.zeros((n_sites, n_c, d, d), dtype=complex)
    amps[:, np.repeat(np.arange(n_c), counts), a_idx, b_idx] = sx_eig[:, a_idx, b_idx]
    zero_parts = np.where(np.abs(diff) <= tol, sx_eig, 0.0)
    # drop the clusters that carry no weight for a site; V is unitary, so
    # the Frobenius norm is that of the computational-basis operator
    keep = np.linalg.norm(amps, axis=(2, 3)) > 1e-12 * math.sqrt(d)
    freqs = np.add.reduceat(vals, starts) / counts if n_c else vals
    out = []
    for site, site_keep, site_amps, zero_part in zip(range(1, n_sites + 1), keep, amps, zero_parts):
        zero_norm = float(np.linalg.norm(zero_part, "fro"))
        if zero_norm > 1e-10:
            warnings.warn(
                f"site {site}: discarded zero-frequency component with norm {zero_norm:.3e}",
                ZeroModeWarning,
                stacklevel=2,
            )
        out.append(JumpSet(
            site=site,
            frequencies=freqs[site_keep],
            amplitudes=site_amps[site_keep],
            zero_part=zero_part,
        ))
    return tuple(out)


def thermal_rates(site: int, omegas, gamma: float, T: float):
    """Down and up rates gamma (1 + n(omega)) and gamma n(omega) of one bath.

    The one rate rule of both bath models: omegas, a sequence of floats,
    are the site's cluster frequencies on the harmonic model and its bare
    splitting 2 B_i on the repeated_interaction model. Returns a (2, k)
    array, the down rates in row 0 and the up rates in row 1, one per omega.
    """
    nbar = [bose_occupation(w, T) for w in omegas]
    down = [gamma * (1.0 + n) for n in nbar]
    if not all(map(math.isfinite, down)):
        raise DomainError(
            f"bath of site {site}: rates overflow (gamma = {gamma}, n up to {max(nbar)})"
        )
    return np.array([down, [gamma * n for n in nbar]])


def _warn_if_not_secular(jumps: JumpSet, gamma: float) -> None:
    """Warns where gamma is not small against the site's Bohr spacings, so not secular."""
    freqs = jumps.frequencies
    if freqs.size >= 2:
        min_gap = float((freqs[1:] - freqs[:-1]).min())
        if gamma >= 0.1 * min_gap:
            warnings.warn(
                f"site {jumps.site}: gamma = {gamma:.3e} is not small against the "
                f"minimum Bohr-frequency spacing {min_gap:.3e}; the secular "
                "approximation is questionable here",
                SecularValidityWarning,
                stacklevel=3,
            )


def global_heat_current(rho_ss: np.ndarray, H: np.ndarray, dissipator: np.ndarray) -> float:
    """Q_i = Tr(H L_i[rho]); extended-precision accumulation."""
    w = dissipator.astype(CLD) @ vec(rho_ss).astype(CLD)
    return checked_trace(H, unvec(w), "heat current")


# the two values of an identity's entries, as kron(eye, A) multiplies them
_EYE_ENTRIES = np.array([[1.0], [0.0]], dtype=complex)


# one entry per ordering of the magnetization labels, as for
# liouville_block_groups
@lru_cache(maxsize=None)
def _jump_support(labels: tuple) -> tuple:
    """Read-only index maps of the |dm| = 2 support of the jump amplitudes.

    labels[k] is the magnetization of eigenstate k. A jump flips one spin,
    so its amplitudes <a|A_omega|b> are exactly zero unless |m(a) - m(b)|
    is 2: s = 30 of the 64 entries for three qubits. Returns (flat, where,
    swap, pairs). flat holds the ascending positions a d + b of the support
    in a flattened d x d matrix, and where the support index of each
    position, s off the support. swap holds the support index of each
    position's transpose b d + a, and pairs the two support indices of
    each pair of positions that share a row or a column.
    """
    m = np.asarray(labels)
    d = m.size
    rows, cols = np.nonzero(np.abs(m[:, None] - m[None, :]) == 2)
    where = np.full(d * d, rows.size, dtype=np.int16)
    where[rows * d + cols] = np.arange(rows.size)
    same = (rows[:, None] == rows[None, :]) | (cols[:, None] == cols[None, :])
    out = (rows * d + cols, where, where[cols * d + rows], np.stack(np.nonzero(np.triu(same, 1))))
    for arr in out:
        arr.setflags(write=False)
    return out


# int16 keeps each entry to a few KiB
@lru_cache(maxsize=None)
def _block_gathers(labels: tuple) -> tuple:
    """Read-only flat gathers of the dm >= 0 blocks of a summed dissipator.

    Returns (sand, kron, blocks) for the entries of the blocks as
    block_entry_positions(labels, labels) lists them, with its spans as
    blocks. Block entry (a + d b, c + d e), |a><b| from |c><e|, is entry
    (i d + k, j d + l) of lindblad_superop with (i, j, k, l) = (b, e, a, c).
    sand gathers its sandwich term from the flattened Gram matrix of the
    _jump_support positions, padded by a zero row and column for the pairs
    off the support. kron[0] gathers eye[i, j] A[k, l] and kron[1]
    A^T[i, j] eye[k, l] from the flattened (2, d, d) stack of 1 A and 0 A.
    """
    d = len(labels)
    flat, where = _jump_support(labels)[:2]
    s = flat.size
    i, j, k, l, blocks = block_entry_positions(labels, labels)
    off_eye = np.stack([i != j, k != l]).astype(np.int16)
    out = (where[i * d + j] * (s + 1) + where[k * d + l],
           off_eye * (d * d) + np.stack([k * d + l, j * d + i]))
    for arr in out:
        arr.setflags(write=False)
    return out + (blocks,)


def build_global_generators(p: ModelParams) -> Generators:
    """Harmonic-bath generator: the jumps of each bath and their thermal rates."""
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    # one Newton step toward the polar factor, in extended precision, makes
    # V unitary to the last bit: the jumps are taken in the eigenbasis and
    # mapped back by V, with V^dag standing in for its inverse both ways
    V = spectrum.vectors.astype(np.clongdouble)
    spectrum = replace(spectrum, vectors=(1.5 * V - 0.5 * V @ (V.conj().T @ V)).astype(complex))
    jumps = jump_operators(spectrum)
    rates = []
    for js, gamma, T in zip(jumps, p.gamma, p.T):
        _warn_if_not_secular(js, gamma)
        rates.append(thermal_rates(js.site, js.frequencies.tolist(), gamma, T))
    return Generators(params=p, H=H, spectrum=spectrum, jump_rates=tuple(rates), jumps=jumps)


def _eigen_blocks(gen: Generators) -> tuple:
    """Generators.eigen_blocks of a harmonic point, from the jump amplitudes.

    The dm >= 0 blocks are built entry by entry as lindblad_superop would
    build the whole summed superoperator of the jump amplitudes, from the
    same operands in the same order, so they keep its bits. Its sandwich
    term is nonzero only between two support positions of the amplitudes,
    and there it is one (s, w) by (w, s) product over the w jumps.
    """
    labels = tuple(gen.spectrum.sectors.tolist())
    flat = _jump_support(labels)[0]
    sand, kron, blocks = _block_gathers(labels)
    # each bath's jumps and then their daggers, at its down and then its up
    # rates
    a = np.concatenate([with_daggers(js.amplitudes) for js in gen.jumps])
    w, d = a.shape[:2]
    scaled = np.concatenate(gen.jump_rates, axis=None)[:, None, None] * a.conj()
    anti = scaled.reshape(w * d, d).T @ a.reshape(w * d, d)
    s = flat.size
    gram = np.zeros((s + 1, s + 1), dtype=complex)
    gram[:s, :s] = scaled.reshape(w, d * d)[:, flat].T @ a.reshape(w, d * d)[:, flat]
    eye_anti = (_EYE_ENTRIES * anti.reshape(1, -1)).ravel()
    entries = gram.ravel().take(sand) - 0.5 * (eye_anti.take(kron[0]) + eye_anti.take(kron[1]))
    # the dm >= 0 half, row 0 of each stack; see Generators.eigen_blocks
    return tuple(entries[start:stop].reshape(shape) for start, stop, shape in blocks)


def site_rate_matrices(gen: Generators):
    """Per-bath Pauli rate matrices on eigenbasis populations.

    Returns (mats, closed, secular). mats[i] is the real d x d matrix giving
    bath i's contribution to dp/dt = sum_i M_i p for diagonal (eigenbasis)
    states. closed is True when no cluster operator has two nonzero entries
    sharing a row or a column, in which case the population sector
    decouples exactly from the coherences and the steady populations solve
    (sum_i M_i) p = 0. secular is True when every cluster operator has a
    single nonzero entry, one transition a <- b; then the generator is
    the Pauli rate matrix sum_i M_i on the populations and diagonal on the
    coherences. An entry counts as nonzero above 1e-12 of its cluster's
    largest.
    The three baths are one stack over the support of the amplitudes,
    each site's clusters in the leading slots of a zero-padded cluster
    axis, with the rates of gen.jump_rates; off the support every term is
    exactly zero. Each off-diagonal entry is the sum of the clusters' down
    terms plus the sum of their up terms, in extended precision. The
    diagonal, minus each column's sum, serves the certificate and the
    blocks; the populations and the heat currents read only the
    off-diagonal rates.
    """
    counts = np.array([len(js.frequencies) for js in gen.jumps])
    d = gen.spectrum.dim
    flat, _, swap, pairs = _jump_support(tuple(gen.spectrum.sectors.tolist()))
    slot = np.arange(counts.max()) < counts[:, None]
    mags = np.zeros(slot.shape + flat.shape)
    mags[slot] = np.abs(np.concatenate([js.amplitudes for js in gen.jumps]).reshape(-1, d * d)[:, flat])
    down, up = np.zeros((2,) + slot.shape)
    down[slot], up[slot] = (np.concatenate(r) for r in zip(*gen.jump_rates))
    cut = 1e-12 * np.maximum(mags.max(axis=2), 1e-300)
    nz = mags > cut[:, :, None]
    closed = not np.any(nz[:, :, pairs[0]] & nz[:, :, pairs[1]])
    secular = bool(np.all(nz.sum(axis=2)[slot] == 1))
    g = mags.astype(np.longdouble) ** 2
    # gains land strictly off the diagonal: the support, where a jump
    # flips one spin, holds no diagonal entry
    M = np.zeros((len(counts), d * d), dtype=np.longdouble)
    M[:, flat] = (down[:, :, None] * g).sum(axis=1) + (up[:, :, None] * g[:, :, swap]).sum(axis=1)
    M = M.reshape(-1, d, d)
    diag = np.arange(d)
    M[:, diag, diag] -= M.sum(axis=1)
    return tuple(M), closed, secular
