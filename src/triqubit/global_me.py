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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CLD,
    embed_pauli,
    trace_product,
    unvec,
    vec,
)
from .errors import (
    ClusteringError,
    DomainError,
    NumericalConsistencyError,
    SecularValidityWarning,
    ZeroModeWarning,
)
from .model import ModelParams, Spectrum, build_hamiltonian, sector_spectrum


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
    """Clustered jump operators of one site, in the computational basis.

    frequencies are the ascending cluster centers (all > degeneracy_tol);
    operators[k] lowers the system energy by frequencies[k]. zero_part is the
    discarded |E_b - E_a| <= degeneracy_tol component of sigma_x^site.
    """

    site: int
    frequencies: np.ndarray
    operators: tuple
    zero_part: np.ndarray
    degeneracy_tol: float

    def items(self):
        return zip(self.frequencies, self.operators)

    def reconstruct(self) -> np.ndarray:
        """sum_omega (A_omega + A_omega^dag) + zero_part; equals sigma_x^site."""
        out = self.zero_part.astype(complex).copy()
        for op in self.operators:
            out += op + op.conj().T
        return out


def _cluster_sorted(values: np.ndarray, tol: float):
    """Group ascending values into runs separated by gaps > tol."""
    clusters = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > tol:
            clusters.append((start, k))
            start = k
    return clusters


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

    freqs = []
    ops = []
    for start, stop in _cluster_sorted(vals, degeneracy_tol):
        diameter = vals[stop - 1] - vals[start]
        if diameter > 10.0 * degeneracy_tol:
            raise ClusteringError(
                f"Bohr frequency cluster near {vals[start]:.6g} has diameter "
                f"{diameter:.3e} > 10 * degeneracy_tol = {10 * degeneracy_tol:.3e}; "
                "tighten degeneracy_tol or separate the parameters"
            )
        amp = np.zeros((d, d), dtype=complex)
        rows = a_idx[start:stop]
        cols = b_idx[start:stop]
        amp[rows, cols] = sx_eig[rows, cols]
        op = V @ amp @ V.conj().T
        if np.linalg.norm(op, "fro") <= 1e-12 * math.sqrt(d):
            continue  # cluster carries no weight for this site
        freqs.append(float(vals[start:stop].mean()))
        ops.append(op)

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
        frequencies=np.asarray(freqs),
        operators=tuple(ops),
        zero_part=zero_part,
        degeneracy_tol=float(degeneracy_tol),
    )


def global_dissipator(jumps: JumpSet, gamma: float, T: float) -> np.ndarray:
    """Superoperator of bath `jumps.site` at rate gamma and temperature T."""
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
                stacklevel=2,
            )
    if freqs.size == 0:
        d = jumps.zero_part.shape[0]
        return np.zeros((d * d, d * d), dtype=complex)

    d = jumps.operators[0].shape[0]
    down = np.stack(jumps.operators)
    nbar = np.array([bose_occupation(w, T) for w in freqs])
    stacked = np.concatenate([down, np.conj(np.transpose(down, (0, 2, 1)))])
    coeff = np.concatenate([gamma * (1.0 + nbar), gamma * nbar])

    sand = np.einsum("w,wij,wkl->ikjl", coeff, stacked.conj(), stacked).reshape(d * d, d * d)
    anti = np.einsum("w,wji,wjk->ik", coeff, stacked.conj(), stacked)
    eye = np.eye(d, dtype=complex)
    return sand - 0.5 * (np.kron(eye, anti) + np.kron(anti.T, eye))


def global_heat_current(rho_ss: np.ndarray, H: np.ndarray, dissipator: np.ndarray) -> float:
    """Q_i = Tr(H L_i[rho]); extended-precision accumulation."""
    w = dissipator.astype(CLD) @ vec(rho_ss).astype(CLD)
    val = trace_product(H.astype(CLD), unvec(w))
    scale = float(np.linalg.norm(H, "fro")) * float(np.linalg.norm(w).astype(float))
    if abs(val.imag) > 1e-10 * max(scale, 1e-300):
        raise NumericalConsistencyError(
            f"heat current has imaginary residue {val.imag:.3e} at scale {scale:.3e}"
        )
    return val.real


@dataclass(frozen=True)
class GlobalGenerators:
    """Assembled harmonic-bath generator pieces for one parameter point."""

    params: ModelParams
    H: np.ndarray
    spectrum: Spectrum
    jumps: tuple
    dissipators: tuple


def build_global_generators(p: ModelParams) -> GlobalGenerators:
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    jumps = tuple(jump_operators(spectrum, site) for site in (1, 2, 3))
    dissipators = tuple(
        global_dissipator(jumps[site - 1], p.gamma[site - 1], p.T[site - 1])
        for site in (1, 2, 3)
    )
    return GlobalGenerators(params=p, H=H, spectrum=spectrum, jumps=jumps, dissipators=dissipators)


def site_rate_matrices(gen: GlobalGenerators):
    """Per-bath Pauli rate matrices on eigenbasis populations.

    Returns (mats, closed). mats[i] is the real d x d matrix giving bath i's
    contribution to dp/dt = sum_i M_i p for diagonal (eigenbasis) states.
    closed is True when no cluster operator has two nonzero entries sharing a
    row or a column, in which case the population sector decouples exactly
    from the coherences and the steady populations solve (sum_i M_i) p = 0.
    """
    V = gen.spectrum.vectors
    d = gen.spectrum.dim
    mats = []
    closed = True
    for jumps, gamma, T in zip(gen.jumps, gen.params.gamma, gen.params.T):
        # accumulate in extended precision and set the loss diagonal once at
        # the end, so each column sums to zero at the longdouble floor; the
        # first law of a solved point rides on that cancellation
        M = np.zeros((d, d), dtype=np.longdouble)
        for omega, op in jumps.items():
            amp = V.conj().T @ op @ V
            mags = np.abs(amp)
            cut = 1e-12 * max(float(mags.max()), 1e-300)
            nz = mags > cut
            if np.any(nz.sum(axis=0) > 1) or np.any(nz.sum(axis=1) > 1):
                closed = False
            g = mags.astype(np.longdouble) ** 2
            nbar = bose_occupation(omega, T)
            # gains land strictly off the diagonal: the jump lowers the
            # total magnetization, so it never connects a level to itself
            M += (gamma * (1.0 + nbar)) * g
            M += (gamma * nbar) * g.T
        M -= np.diag(M.sum(axis=0))
        mats.append(M)
    return tuple(mats), closed

