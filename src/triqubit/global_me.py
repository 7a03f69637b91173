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

The solver works in the eigenbasis of H. build_global_generators builds the
summed dissipator there, from the jump amplitudes <a|A_omega|b>, with one
lindblad_superop call, and cuts it into its magnetization-difference blocks;
the per-bath computational-basis dissipators are built only on first access
to Generators.dissipators. site_rate_matrices
reads the same amplitudes for the Pauli rate matrices of the population
solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

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
    # 1/(e^x - 1) = e^-x / (1 - e^-x): past x ~ 709.78 e^x overflows, while
    # 1 - e^-x already rounds to 1 from x ~ 37 on
    return 1.0 / math.expm1(x) if x < 709.0 else math.exp(-x)


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


def jump_operators(spectrum: Spectrum, site: int, degeneracy_tol: float = None) -> JumpSet:
    """Clustered Fourier components of sigma_x^site under the system Hamiltonian."""
    E = spectrum.energies
    V = spectrum.vectors
    d = spectrum.dim
    n_sites = d.bit_length() - 1
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(1.0, float(np.max(np.abs(E))))
    sx = embed_pauli(n_sites, "x", site)
    sx_eig = V.conj().T @ sx @ V

    diff = E[None, :] - E[:, None]  # diff[a, b] = E_b - E_a
    pos = diff > degeneracy_tol
    a_idx, b_idx = np.nonzero(pos)
    vals = diff[a_idx, b_idx]
    order = np.argsort(vals, kind="stable")
    a_idx, b_idx, vals = a_idx[order], b_idx[order], vals[order]

    # clusters are the runs of ascending values separated by gaps > tol
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > degeneracy_tol)
    counts = np.diff(starts, append=vals.size)
    diameters = vals[starts + counts - 1] - vals[starts]
    wide = np.flatnonzero(diameters > 10.0 * degeneracy_tol)
    if wide.size:
        k = wide[0]
        raise ClusteringError(
            f"Bohr frequency cluster near {vals[starts[k]]:.6g} has diameter "
            f"{diameters[k]:.3e} > 10 * degeneracy_tol = {10 * degeneracy_tol:.3e}; "
            "tighten degeneracy_tol or separate the parameters"
        )
    amps = np.zeros((starts.size, d, d), dtype=complex)
    amps[np.repeat(np.arange(starts.size), counts), a_idx, b_idx] = sx_eig[a_idx, b_idx]
    ops = V @ amps @ V.conj().T
    # drop the clusters that carry no weight for this site
    keep = np.linalg.norm(ops, axis=(1, 2)) > 1e-12 * math.sqrt(d)
    freqs = (np.add.reduceat(vals, starts) / counts)[keep] if starts.size else vals
    ops = ops[keep]

    zero_amp = np.where(np.abs(diff) <= degeneracy_tol, sx_eig, 0.0)
    zero_part = V @ zero_amp @ V.conj().T
    zero_norm = float(np.linalg.norm(zero_part, "fro"))
    if zero_norm > 1e-10:
        warnings.warn(
            f"site {site}: discarded zero-frequency component with norm {zero_norm:.3e}",
            ZeroModeWarning,
            stacklevel=2,
        )
    return JumpSet(
        site=site,
        frequencies=freqs,
        operators=ops,
        # mapped back from the operators rather than copied from sx_eig: the
        # rate matrices keep the rounding of that round trip, and the
        # first-law residuals of solved points are pinned to it
        amplitudes=V.conj().T @ ops @ V,
        zero_part=zero_part,
        degeneracy_tol=float(degeneracy_tol),
    )


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
        min_gap = float(np.diff(freqs).min())
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
    nbar = np.array([bose_occupation(w, T) for w in jumps.frequencies])
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
    jumps = tuple(jump_operators(spectrum, site) for site in (1, 2, 3))
    ops, rates = [], []
    for js, gamma, T in zip(jumps, p.gamma, p.T):
        _check_bath(js, gamma, T)
        down, up = _bath_rates(js, gamma, T)
        ops.append(_with_daggers(js.amplitudes))
        rates += [down, up]
    summed = lindblad_superop(np.concatenate(ops), np.concatenate(rates))
    return Generators(
        params=p,
        H=H,
        spectrum=spectrum,
        eigen_blocks={
            dm: (index, summed[np.ix_(index, index)])
            for dm, index in spectrum.liouville_blocks.items()
        },
        build_dissipators=partial(_site_dissipators, jumps, p),
        jumps=jumps,
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
    """
    mats = []
    closed = True
    for jumps, gamma, T in zip(gen.jumps, gen.params.gamma, gen.params.T):
        mags = np.abs(jumps.amplitudes)
        cut = 1e-12 * np.maximum(mags.max(axis=(1, 2)), 1e-300)
        nz = mags > cut[:, None, None]
        if np.any(nz.sum(axis=1) > 1) or np.any(nz.sum(axis=2) > 1):
            closed = False
        g = mags.astype(np.longdouble) ** 2
        down, up = _bath_rates(jumps, gamma, T)
        # accumulate in extended precision, each cluster's down term and then
        # its up term, in the order of the clusters (a sum over the leading
        # axis adds the slices one after the other), and set the loss
        # diagonal once at the end, so each column sums to zero at the
        # longdouble floor; the first law of a solved point rides on that
        # cancellation. Gains land strictly off the diagonal: a jump lowers
        # the total magnetization, so it never connects a level to itself
        terms = np.empty((2 * len(g),) + g.shape[1:], dtype=np.longdouble)
        terms[0::2] = down[:, None, None] * g
        terms[1::2] = up[:, None, None] * np.transpose(g, (0, 2, 1))
        M = terms.sum(axis=0)
        M -= np.diag(M.sum(axis=0))
        mats.append(M)
    return tuple(mats), closed
