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
Each JumpSet lists its site's transitions a <- b with their amplitudes
<a|sigma_x^i|b>, nonzero only where |m(a) - m(b)| = 2: every jump flips
one spin. site_rate_matrices reads them, with the rates of
build_global_generators, for the Pauli rate matrices of the population
solve. Where some cluster holds more than one nonzero transition, the
solve also reads the dm >= 0 magnetization-difference blocks of the
summed dissipator, which Generators.eigen_blocks cuts on first access
from lindblad_superop of the dense jumps, JumpSet.amplitudes, themselves
built on first access.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    CLD,
    LD,
    checked_trace,
    embed_pauli,
    lindblad_superop,
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
    """Clustered jump operators of one site, as the list of their transitions.

    frequencies are the ascending cluster centers (all > tol of
    jump_operators). Transition t, in cluster order, is a <- b for a =
    lower[t] and b = upper[t], E_b - E_a in cluster cluster[t], with the
    eigenbasis amplitude values[t] = <a|sigma_x^site|b>. amplitudes[k],
    built on first access, is the eigenbasis jump that lowers the energy
    by frequencies[k]: values at its transitions and exactly 0.0
    elsewhere; V amplitudes[k] V^dag is the jump in the computational
    basis. zero_part is the discarded |E_b - E_a| <= tol component of
    sigma_x^site, also in the eigenbasis.
    """

    site: int
    frequencies: np.ndarray
    cluster: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray
    zero_part: np.ndarray

    @cached_property
    def amplitudes(self) -> np.ndarray:
        d = self.zero_part.shape[0]
        out = np.zeros((self.frequencies.size, d, d), dtype=complex)
        out[self.cluster, self.lower, self.upper] = self.values
        return out

    def nonzero(self) -> np.ndarray:
        """Mask of the transitions whose |value| exceeds 1e-12 of their cluster's largest."""
        mags = np.abs(self.values)
        largest = np.zeros(self.frequencies.size)
        np.maximum.at(largest, self.cluster, mags)
        return mags > 1e-12 * np.maximum(largest, 1e-300)[self.cluster]


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
    # every transition's values; the zero parts hold the |E_b - E_a| <= tol rest
    gathered = sx_eig[:, a_idx, b_idx]
    zero_parts = np.where(np.abs(diff) <= tol, sx_eig, 0.0)
    # drop the clusters that carry no weight for a site, by the Frobenius norm
    # of their gathered amplitudes, that of the computational-basis operator
    sq = np.abs(gathered) ** 2
    keep = np.sqrt(np.add.reduceat(sq, starts, axis=1) if n_c else sq) > 1e-12 * math.sqrt(d)
    freqs = np.add.reduceat(vals, starts) / counts if n_c else vals
    # each site keeps the transitions of its kept clusters, each numbered
    # among the site's kept clusters
    cluster = np.repeat(np.arange(n_c), counts)
    kept = keep[:, cluster]
    renumbered = (np.cumsum(keep, axis=1) - 1)[:, cluster]
    out = []
    for site, site_keep, t, clusters, values, zero_part in zip(
            range(1, n_sites + 1), keep, kept, renumbered, gathered, zero_parts):
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
            cluster=clusters[t],
            lower=a_idx[t],
            upper=b_idx[t],
            values=values[t],
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
    """Q_i = Tr(H L_i[rho]) in extended precision; the oracle of bench/gate.py and the tests."""
    w = dissipator.astype(CLD) @ vec(rho_ss).astype(CLD)
    return checked_trace(H, unvec(w), "heat current")


def _heat_generators(gen: Generators) -> np.ndarray:
    """G_i = D_i^dag[H] of each bath in the eigenbasis, a (3, d, d) clongdouble stack.

    G_i[b, c] = sum_k r_k sum_a conj(A_k[a, b]) A_k[a, c] (e_a - (e_b + e_c) / 2)
    over bath i's jumps and their daggers, in extended precision with the
    energy differences formed first; G_i[b, b] = sum_a (e_a - e_b) M_i[a, b].
    """
    e = gen.spectrum.energies.astype(LD)
    gaps = e[:, None, None] - 0.5 * (e[None, :, None] + e[None, None, :])
    amps = [with_daggers(js.amplitudes) for js in gen.jumps]
    return np.stack([np.einsum("k,kab,kac,abc->bc", r.ravel(), a.conj(), a, gaps)
                     for a, r in zip(amps, gen.jump_rates)])


def build_global_generators(p: ModelParams) -> Generators:
    """Harmonic-bath generator: the jumps of each bath and their thermal rates."""
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    # one Newton step toward the polar factor, in extended precision, makes
    # V unitary to the last bit: the jumps are taken in the eigenbasis and
    # mapped back by V, with V^dag standing in for its inverse both ways
    V = spectrum.vectors.astype(CLD)
    spectrum = replace(spectrum, vectors=(1.5 * V - 0.5 * V @ (V.conj().T @ V)).astype(complex))
    jumps = jump_operators(spectrum)
    rates = []
    for js, gamma, T in zip(jumps, p.gamma, p.T):
        _warn_if_not_secular(js, gamma)
        rates.append(thermal_rates(js.site, js.frequencies.tolist(), gamma, T))
    return Generators(params=p, H=H, spectrum=spectrum, jump_rates=tuple(rates), jumps=jumps)


def _eigen_blocks(gen: Generators) -> tuple:
    """Generators.eigen_blocks of a harmonic point, from the jump amplitudes.

    The dm >= 0 blocks are cut from lindblad_superop of the jumps of all
    three baths and their daggers, the 64 x 64 summed dissipator in the
    eigenbasis. Only points that are not fully secular read them.

    A cluster with nonzero transitions (JumpSet.nonzero) at both dm =
    m(a) - m(b) = +2 and -2 couples the dm blocks, which these blocks keep
    apart: it raises ClusteringError.
    """
    m = gen.spectrum.sectors
    for js in gen.jumps:
        nz = js.nonzero()
        raising = (m[js.lower] > m[js.upper])[nz]
        mixed = np.intersect1d(js.cluster[nz][raising], js.cluster[nz][~raising])
        if mixed.size:
            raise ClusteringError(
                f"site {js.site}: the Bohr frequency cluster near "
                f"{js.frequencies[mixed[0]]:.6g} holds transitions of both dm = +2 and "
                "dm = -2, which couple the magnetization-difference blocks; change the "
                "fields B or the couplings J and Delta to separate these Bohr frequencies"
            )
    # each bath's jumps and then their daggers, at its down and then its up
    # rates
    summed = lindblad_superop(np.concatenate([with_daggers(js.amplitudes) for js in gen.jumps]),
                              np.concatenate(gen.jump_rates, axis=None))
    # the dm >= 0 half, row 0 of each stack; see Generators.eigen_blocks
    return tuple(summed[index[:1, :, None], index[:1, None, :]]
                 for index in gen.spectrum.liouville_block_groups)


def site_rate_matrices(gen: Generators):
    """Per-bath Pauli rate matrices on eigenbasis populations.

    Returns (mats, closed, secular). mats[i] is the real d x d matrix giving
    bath i's contribution to dp/dt = sum_i M_i p for diagonal (eigenbasis)
    states. closed is True when no cluster has two nonzero transitions
    (JumpSet.nonzero) sharing their lower or their upper state, in which
    case the population sector decouples exactly from the coherences and
    the steady populations solve (sum_i M_i) p = 0. secular is True when
    every cluster has a single nonzero transition a <- b; then the
    generator is the Pauli rate matrix sum_i M_i on the populations and
    diagonal on the coherences.
    Each transition a <- b of a cluster with rates (down, up) of
    gen.jump_rates and amplitude v gives M_i[a, b] = down |v|^2 and M_i[b,
    a] = up |v|^2, one product in extended precision: no two transitions
    share a position. The diagonal, minus each column's sum, serves the
    certificate and the blocks; the populations and the heat currents read
    only the off-diagonal rates.
    """
    d = gen.spectrum.dim
    M = np.zeros((len(gen.jumps), d, d), dtype=LD)
    closed = secular = True
    for M_i, js, (down, up) in zip(M, gen.jumps, gen.jump_rates):
        g = np.abs(js.values).astype(LD) ** 2
        M_i[js.lower, js.upper] = down[js.cluster] * g
        M_i[js.upper, js.lower] = up[js.cluster] * g
        nz = js.nonzero()
        cluster = js.cluster[nz]
        per_cluster = np.bincount(cluster, minlength=js.frequencies.size)
        secular = secular and bool(np.all(per_cluster == 1))
        # only a cluster with two nonzero transitions can share a state;
        # ends numbers each (cluster, lower) and (cluster, upper) pair
        if closed and per_cluster.max(initial=0) > 1:
            ends = np.concatenate([cluster * 2 * d + js.lower[nz],
                                   cluster * 2 * d + d + js.upper[nz]])
            closed = bool(np.bincount(ends).max() <= 1)
    diag = np.arange(d)
    M[:, diag, diag] -= M.sum(axis=1)
    return tuple(M), closed, secular
