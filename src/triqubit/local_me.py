"""Repeated-interaction (local) master equation and its steady-state currents.

Each qubit exchanges excitations with its own bath through local jump
operators sigma_-^i and sigma_+^i at rates fixed by the bare splitting 2 B_i:

    D_i[rho] = gamma_i (n_i + 1) D[sigma_-^i] + gamma_i n_i D[sigma_+^i],
    n_i = 1/(exp(2 B_i / T_i) - 1).

Bookkeeping at the steady state:

    q_i = Tr(sigma_z^i D_i[rho])          bath magnetization current
    Q_i = Tr(B_i sigma_z^i D_i[rho])      heat current, equal to B_i q_i
    W   = Tr(H_int sum_i D_i[rho])        work power, equal to -sum_i Q_i
    C_{j,i} = 2 J_ij <sx^j sy^i - sx^i sy^j>   interqubit magnetization current

Traces over dissipator outputs are accumulated in extended precision: near
detailed balance they are tiny differences of terms of size gamma*n*rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    CLD,
    dissipator_superop,
    embed_pauli,
    expectation,
    trace_product,
)
from .errors import DomainError, NumericalConsistencyError
from .global_me import bose_occupation
from .model import (
    N_SITES,
    ModelParams,
    build_hamiltonian,
    interaction_hamiltonian,
)


@dataclass(frozen=True)
class LocalRates:
    """Thermal rates of one local bath."""

    site: int
    gamma: float
    n_up: float  # Bose occupation at the splitting 2 B_i

    @property
    def down_rate(self) -> float:
        return self.gamma * (self.n_up + 1.0)

    @property
    def up_rate(self) -> float:
        return self.gamma * self.n_up

    @property
    def bath_sz(self) -> float:
        """Magnetization the bath drives its qubit toward, -1/(1 + 2 n)."""
        return -1.0 / (1.0 + 2.0 * self.n_up)


def local_rates(p: ModelParams, site: int) -> LocalRates:
    b = p.B[site - 1]
    if b <= 0.0:
        raise DomainError(
            f"local bath of site {site} needs B > 0 (splitting 2B sets the rates), got {b}"
        )
    return LocalRates(
        site=site,
        gamma=p.gamma[site - 1],
        n_up=bose_occupation(2.0 * b, p.T[site - 1]),
    )


@lru_cache(maxsize=None)
def _site_matrices(site: int):
    sm = embed_pauli(N_SITES, "minus", site)
    sp = embed_pauli(N_SITES, "plus", site)
    return sm, sp, sp @ sm, sm @ sp, embed_pauli(N_SITES, "z", site)


@lru_cache(maxsize=None)
def _jump_superops(site: int):
    sm, sp, _, _, _ = _site_matrices(site)
    return dissipator_superop(sm), dissipator_superop(sp)


@lru_cache(maxsize=None)
def _pair_flow_observable(j: int, i: int) -> np.ndarray:
    """sigma_x^j sigma_y^i - sigma_x^i sigma_y^j (Hermitian)."""
    return (
        embed_pauli(N_SITES, "x", j) @ embed_pauli(N_SITES, "y", i)
        - embed_pauli(N_SITES, "x", i) @ embed_pauli(N_SITES, "y", j)
    )


def local_dissipator(p: ModelParams, site: int) -> np.ndarray:
    """64x64 superoperator of bath `site`."""
    rates = local_rates(p, site)
    k_minus, k_plus = _jump_superops(site)
    return rates.down_rate * k_minus + rates.up_rate * k_plus


def _dissipator_action(p: ModelParams, site: int, rho: np.ndarray) -> np.ndarray:
    """D_i[rho] as an 8x8 clongdouble matrix."""
    rates = local_rates(p, site)
    sm, sp, spsm, smsp, _ = _site_matrices(site)
    r = rho.astype(CLD)
    down = sm @ r @ sp - 0.5 * (spsm @ r + r @ spsm)
    up = sp @ r @ sm - 0.5 * (smsp @ r + r @ smsp)
    return rates.down_rate * down + rates.up_rate * up


def _real_trace(obs: np.ndarray, mat_ld: np.ndarray, what: str) -> float:
    val = trace_product(obs.astype(CLD), mat_ld)
    scale = float(np.linalg.norm(obs, "fro")) * float(np.linalg.norm(mat_ld).astype(float))
    if abs(val.imag) > 1e-10 * max(scale, 1e-300):
        raise NumericalConsistencyError(
            f"{what} has imaginary residue {val.imag:.3e} at scale {scale:.3e}"
        )
    return val.real


def magnetization_current_closed_form(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """gamma (1 + 2n) (<sigma_z>_bath - <sigma_z>_i); equals local_current_set's q_i."""
    rates = local_rates(p, site)
    sz = expectation(rho_ss, _site_matrices(site)[4])
    return rates.gamma * (1.0 + 2.0 * rates.n_up) * (rates.bath_sz - sz)


def local_heat_current(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """Q_i = Tr(B_i sigma_z^i D_i[rho]), one site at a time; a test oracle."""
    action = _dissipator_action(p, site, rho_ss)
    h_site = p.B[site - 1] * _site_matrices(site)[4]
    return _real_trace(h_site, action, f"Q_{site}")


def _check_work_routes(w: float, heats, p: ModelParams) -> None:
    # the two routes share roundoff of order eps * ||H|| * ||D||, which
    # dominates when the currents themselves are numerically zero
    floor = 1e-13 * max(p.gamma) * (
        float(np.linalg.norm(interaction_hamiltonian(p), "fro"))
        + max(p.B) * math.sqrt(8.0)
    )
    scale = max(abs(w), max(abs(q) for q in heats))
    if abs(w + sum(heats)) > max(1e-10 * scale, floor, 1e-300):
        raise NumericalConsistencyError(
            f"work power routes disagree: {w!r} vs {-sum(heats)!r}"
        )


def interqubit_current(rho_ss: np.ndarray, p: ModelParams, j: int, i: int) -> float:
    """C_{j,i}, magnetization flowing from qubit j to qubit i."""
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError(f"need two distinct sites in 1..3, got ({j}, {i})")
    coupling = p.pair_value("J", i, j)
    return 2.0 * coupling * expectation(rho_ss, _pair_flow_observable(j, i))


@dataclass(frozen=True)
class CurrentSet:
    """All steady-state currents of a repeated-interaction point.

    C holds the interqubit currents keyed (from_site, to_site) for the pairs
    (2,1), (3,1), (3,2); the reversed directions follow by antisymmetry.
    """

    Q: tuple
    W: float
    q: tuple
    C: dict


def local_current_set(rho_ss: np.ndarray, p: ModelParams) -> CurrentSet:
    """Currents and work power of one steady state, sharing dissipator work."""
    if p.bath_model != "repeated_interaction":
        raise DomainError("local_current_set applies to the repeated_interaction model")
    actions = [_dissipator_action(p, s, rho_ss) for s in (1, 2, 3)]
    q = tuple(
        _real_trace(_site_matrices(s)[4], actions[s - 1], f"q_{s}") for s in (1, 2, 3)
    )
    Q = tuple(
        _real_trace(p.B[s - 1] * _site_matrices(s)[4], actions[s - 1], f"Q_{s}")
        for s in (1, 2, 3)
    )
    w = _real_trace(interaction_hamiltonian(p), actions[0] + actions[1] + actions[2], "work power")
    _check_work_routes(w, Q, p)
    c = {
        (j, i): interqubit_current(rho_ss, p, j, i)
        for (j, i) in ((2, 1), (3, 1), (3, 2))
    }
    return CurrentSet(Q=Q, W=w, q=q, C=c)


@dataclass(frozen=True)
class LocalGenerators:
    """Assembled repeated-interaction generator pieces for one point."""

    params: ModelParams
    H: np.ndarray
    dissipators: tuple


def build_local_generators(p: ModelParams) -> LocalGenerators:
    H = build_hamiltonian(p)
    dissipators = tuple(local_dissipator(p, site) for site in (1, 2, 3))
    return LocalGenerators(params=p, H=H, dissipators=dissipators)
