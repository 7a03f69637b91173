"""Harmonic-bath (global) master equation in the secular approximation.

Each qubit couples to its own bosonic bath through sigma_x. The dissipator is
built from jump operators of the full system Hamiltonian: for every positive
Bohr frequency omega,

    A_omega = sum_{E_b - E_a = omega} P_a sigma_x^i P_b,

and bath i contributes

    L_i[rho] = sum_omega gamma_i (1 + n(omega, T_i)) D[A_omega]
             + gamma_i n(omega, T_i) D[A_omega^dag],

with n the Bose occupation. Heat currents are Q_i = Tr(H L_i[rho]).

Nearly equal Bohr frequencies are merged into clusters; the zero-frequency
part is discarded (with a warning when it carries weight) because it does not
enter the secular generator.

The three baths share the Bohr frequencies of H, so jump_operators clusters
them once for all sites. The solver works in the eigenbasis of H.
build_global_generators builds the summed dissipator there, from the jump
amplitudes <a|A_omega|b>, with one lindblad_superop call, and cuts out
its dm >= 0 magnetization-difference blocks; the per-bath computational-basis
dissipators are built only on first access to Generators.dissipators.
site_rate_matrices reads the same amplitudes, and the rates the builder
computed, for the Pauli rate matrices of the population solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .algebra import (
    CLD,
    checked_real,
    embed_pauli,
    lindblad_superop,
    trace_product,
    unvec,
    vec,
)
from .errors import (
    ClusteringError,
    DomainError,
    SecularValidityWarning,
    ZeroModeWarning,
)
from .model import Generators, ModelParams, Spectrum, build_hamiltonian, sector_spectrum


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
    """Clustered jump operators of one site.

    frequencies are the ascending cluster centers (all > degeneracy_tol);
    operators[k] lowers the system energy by frequencies[k], in the
    computational basis, and amplitudes[k] is the same operator mapped back
    to the eigenbasis of H, V^dag operators[k] V. zero_part is the discarded
    |E_b - E_a| <= degeneracy_tol component of sigma_x^site.
    """

    site: int
    frequencies: np.ndarray
    operators: np.ndarray
    amplitudes: np.ndarray
    zero_part: np.ndarray
    degeneracy_tol: float

    def reconstruct(self) -> np.ndarray:
        """sum_omega (A_omega + A_omega^dag) + zero_part; equals sigma_x^site.

        A test oracle: the tests check with it that the clustering loses no
        part of the coupling operator.
        """
        out = self.zero_part.astype(complex).copy()
        for op in self.operators:
            out += op + op.conj().T
        return out


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


def jump_operators(spectrum: Spectrum, degeneracy_tol: float = None) -> tuple:
    """Clustered Fourier components of sigma_x^i under the system Hamiltonian.

    Returns one JumpSet per site, site 1 first. The Bohr frequencies are
    those of the one Hamiltonian, so one clustering serves every site, and
    each basis change of all the sites' clusters is one _sandwich.
    """
    E = spectrum.energies
    V = spectrum.vectors
    Vh = V.conj().T
    d = spectrum.dim
    n_sites = d.bit_length() - 1
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(1.0, float(np.max(np.abs(E))))
    sx_eig = _sandwich(Vh, _site_couplings(n_sites), V)

    diff = E[None, :] - E[:, None]  # diff[a, b] = E_b - E_a
    pos = diff > degeneracy_tol
    a_idx, b_idx = np.nonzero(pos)
    vals = diff[a_idx, b_idx]
    order = np.argsort(vals, kind="stable")
    a_idx, b_idx, vals = a_idx[order], b_idx[order], vals[order]

    # clusters are the runs of ascending values separated by gaps > tol
    new_run = np.empty(vals.size, dtype=bool)
    new_run[:1] = True
    np.greater(vals[1:] - vals[:-1], degeneracy_tol, out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1], ends[-1:] = starts[1:], vals.size
    counts = ends - starts
    diameters = vals[ends - 1] - vals[starts]
    wide = np.flatnonzero(diameters > 10.0 * degeneracy_tol)
    if wide.size:
        k = wide[0]
        raise ClusteringError(
            f"Bohr frequency cluster near {vals[starts[k]]:.6g} has diameter "
            f"{diameters[k]:.3e} > 10 * degeneracy_tol = {10 * degeneracy_tol:.3e}; "
            "tighten degeneracy_tol or separate the parameters"
        )
    n_c = starts.size
    # per site, the amplitudes of each cluster and, last, the discarded
    # |E_b - E_a| <= tol part, all mapped to the computational basis at once
    amps = np.zeros((n_sites, n_c + 1, d, d), dtype=complex)
    amps[:, np.repeat(np.arange(n_c), counts), a_idx, b_idx] = sx_eig[:, a_idx, b_idx]
    amps[:, n_c] = np.where(np.abs(diff) <= degeneracy_tol, sx_eig, 0.0)
    ops = _sandwich(V, amps.reshape(-1, d, d), Vh).reshape(amps.shape)
    zero_parts, ops = ops[:, n_c], ops[:, :n_c]
    # drop the clusters that carry no weight for a site: the Frobenius
    # norm, as np.linalg.norm takes it over the last two axes
    keep = np.sqrt(np.add.reduce((ops.conj() * ops).real, axis=(2, 3))) > 1e-12 * math.sqrt(d)
    freqs = np.add.reduceat(vals, starts) / counts if n_c else vals
    kept = ops[keep]
    # mapped back from the operators rather than copied from sx_eig: the
    # rate matrices keep the rounding of that round trip, and the
    # first-law residuals of solved points are pinned to it
    amplitudes = _sandwich(Vh, kept, V)
    out = []
    stop = 0
    for site, site_keep, zero_part in zip(range(1, n_sites + 1), keep, zero_parts):
        zero_norm = float(np.linalg.norm(zero_part, "fro"))
        if zero_norm > 1e-10:
            warnings.warn(
                f"site {site}: discarded zero-frequency component with norm {zero_norm:.3e}",
                ZeroModeWarning,
                stacklevel=2,
            )
        start, stop = stop, stop + int(site_keep.sum())
        out.append(JumpSet(
            site=site,
            frequencies=freqs[site_keep],
            operators=kept[start:stop],
            amplitudes=amplitudes[start:stop],
            zero_part=zero_part,
            degeneracy_tol=float(degeneracy_tol),
        ))
    return tuple(out)


def _check_bath(jumps: JumpSet, gamma: float, T: float) -> None:
    """Domain checks of one bath, and the secular-validity warning.

    Warns when gamma is not small against the spacing of the site's Bohr
    frequencies, where the secular approximation is questionable.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if T <= 0.0:
        raise DomainError(f"T must be > 0, got {T}")
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


def _bath_rates(jumps: JumpSet, gamma: float, T: float):
    """Down and up rates gamma (1 + n) and gamma n of each of the site's jumps."""
    nbar = [bose_occupation(w, T) for w in jumps.frequencies.tolist()]
    n_max = max(nbar, default=0.0)
    if not math.isfinite(gamma * (1.0 + n_max)):  # the largest rate
        raise DomainError(
            f"bath of site {jumps.site}: rates overflow (gamma = {gamma}, n up to {n_max})"
        )
    nbar = np.array(nbar)
    return gamma * (1.0 + nbar), gamma * nbar


def _with_daggers(ops: np.ndarray) -> np.ndarray:
    return np.concatenate([ops, np.conj(np.transpose(ops, (0, 2, 1)))])


def global_dissipator(jumps: JumpSet, gamma: float, T: float) -> np.ndarray:
    """Superoperator of bath `jumps.site` at rate gamma and temperature T."""
    _check_bath(jumps, gamma, T)
    down, up = _bath_rates(jumps, gamma, T)
    return lindblad_superop(_with_daggers(jumps.operators), np.concatenate([down, up]))


def global_heat_current(rho_ss: np.ndarray, H: np.ndarray, dissipator: np.ndarray) -> float:
    """Q_i = Tr(H L_i[rho]); extended-precision accumulation."""
    w = dissipator.astype(CLD) @ vec(rho_ss).astype(CLD)
    val = trace_product(H.astype(CLD), unvec(w))
    scale = float(np.linalg.norm(H, "fro")) * float(np.linalg.norm(w).astype(float))
    return checked_real(val, scale, "heat current")


def build_global_generators(p: ModelParams) -> Generators:
    """Harmonic-bath generator, with the summed dissipator built in the eigenbasis.

    The per-bath computational-basis dissipators are built on first access
    to Generators.dissipators.
    """
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    jumps = jump_operators(spectrum)
    ops, rates = [], []
    for js, gamma, T in zip(jumps, p.gamma, p.T):
        _check_bath(js, gamma, T)
        rates.append(_bath_rates(js, gamma, T))
        ops.append(_with_daggers(js.amplitudes))
    # each bath's down rates, then its up rates, in the order of ops
    summed = lindblad_superop(np.concatenate(ops), np.concatenate(sum(rates, ())))
    return Generators(
        params=p,
        H=H,
        spectrum=spectrum,
        # the dm >= 0 half, row 0 of each stack; see Generators.eigen_blocks
        eigen_blocks=tuple(summed[index[:1, :, None], index[:1, None, :]]
                           for index in spectrum.liouville_block_groups),
        build_dissipators=partial(_site_dissipators, jumps, p),
        jumps=jumps,
        jump_rates=tuple(rates),
    )


def _site_dissipators(jumps: tuple, p: ModelParams) -> tuple:
    return tuple(global_dissipator(js, gamma, T) for js, gamma, T in zip(jumps, p.gamma, p.T))


def site_rate_matrices(gen: Generators):
    """Per-bath Pauli rate matrices on eigenbasis populations.

    Returns (mats, closed). mats[i] is the real d x d matrix giving bath i's
    contribution to dp/dt = sum_i M_i p for diagonal (eigenbasis) states.
    closed is True when no cluster operator has two nonzero entries sharing a
    row or a column, in which case the population sector decouples exactly
    from the coherences and the steady populations solve (sum_i M_i) p = 0.
    The three baths are one stack, each site's clusters in the leading
    slots of a zero-padded cluster axis, with the rates of gen.jump_rates.
    """
    counts = np.array([len(js.frequencies) for js in gen.jumps])
    d = gen.spectrum.dim
    slot = np.arange(counts.max()) < counts[:, None]
    mags = np.zeros(slot.shape + (d, d))
    mags[slot] = np.abs(np.concatenate([js.amplitudes for js in gen.jumps]))
    down, up = np.zeros((2,) + slot.shape)
    down[slot], up[slot] = (np.concatenate(r) for r in zip(*gen.jump_rates))
    cut = 1e-12 * np.maximum(mags.max(axis=(2, 3)), 1e-300)
    nz = mags > cut[:, :, None, None]
    closed = all(nz.sum(axis=axis, dtype=np.uint8).max(initial=0) <= 1 for axis in (2, 3))
    g = mags.astype(np.longdouble) ** 2
    # accumulate in extended precision, each cluster's down term and then
    # its up term, in the order of the clusters (a sum over the cluster
    # axis adds the slices one after the other, and the padding adds exact
    # zeros), and set the loss diagonal once at the end, so each column
    # sums to zero at the longdouble floor; the first law of a solved
    # point rides on that cancellation. Gains land strictly off the
    # diagonal: a jump lowers the total magnetization, so it never
    # connects a level to itself
    terms = np.empty((len(counts), 2 * slot.shape[1], d, d), dtype=np.longdouble)
    terms[:, 0::2] = down[:, :, None, None] * g
    terms[:, 1::2] = up[:, :, None, None] * g.swapaxes(2, 3)
    M = terms.sum(axis=1)
    diag = np.arange(d)
    M[:, diag, diag] -= M.sum(axis=1)
    return tuple(M), closed
