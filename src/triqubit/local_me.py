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

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .algebra import (
    CLD,
    checked_real,
    embed_pauli,
    expectation,
    kron,
    lindblad_superop,
    trace_product,
)
from .errors import DomainError
from .global_me import bose_occupation
from .model import (
    N_SITES,
    Generators,
    ModelParams,
    basis_magnetizations,
    build_hamiltonian,
    interaction_hamiltonian,
    liouville_blocks,
    sector_spectrum,
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
def _pair_flow_observable(j: int, i: int) -> np.ndarray:
    """sigma_x^j sigma_y^i - sigma_x^i sigma_y^j (Hermitian)."""
    return (
        embed_pauli(N_SITES, "x", j) @ embed_pauli(N_SITES, "y", i)
        - embed_pauli(N_SITES, "x", i) @ embed_pauli(N_SITES, "y", j)
    )


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
    return checked_real(val, scale, what)


def magnetization_current_closed_form(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """gamma (1 + 2n) (<sigma_z>_bath - <sigma_z>_i); equals local_current_set's q_i.

    Nothing in the package calls it: the tests keep it as a closed-form
    oracle for the dissipator-trace route.
    """
    rates = local_rates(p, site)
    sz = expectation(rho_ss, _site_matrices(site)[4])
    return rates.gamma * (1.0 + 2.0 * rates.n_up) * (rates.bath_sz - sz)


def local_heat_current(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """Q_i = Tr(B_i sigma_z^i D_i[rho]), one site at a time; a test oracle."""
    action = _dissipator_action(p, site, rho_ss)
    h_site = p.B[site - 1] * _site_matrices(site)[4]
    return _real_trace(h_site, action, f"Q_{site}")


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
    c = {
        (j, i): interqubit_current(rho_ss, p, j, i)
        for (j, i) in ((2, 1), (3, 1), (3, 2))
    }
    return CurrentSet(Q=Q, W=w, q=q, C=c)


def build_local_generators(p: ModelParams) -> Generators:
    H = build_hamiltonian(p)
    spectrum = sector_spectrum(H)
    dissipators = tuple(
        lindblad_superop(_site_matrices(r.site)[:2], (r.down_rate, r.up_rate))
        for r in (local_rates(p, site) for site in (1, 2, 3))
    )
    stacked = np.stack(dissipators)
    V = spectrum.vectors
    W = kron(V.conj(), V)  # vec(V X V^dag) = W vec(X)
    rows = liouville_blocks(basis_magnetizations(N_SITES))
    blocks = {}
    for dm, index in spectrum.liouville_blocks.items():
        # W maps each block onto the computational-basis block of the same
        # dm, so W_B^dag D[R_B, R_B] W_B is the dm block of W^dag D W; the
        # bath sum runs over the leading axis, one bath after the other
        r = rows[dm]
        W_B = W[np.ix_(r, index)]
        blocks[dm] = (index, (W_B.conj().T @ stacked[:, r[:, None], r] @ W_B).sum(axis=0))
    return Generators(
        params=p,
        H=H,
        spectrum=spectrum,
        eigen_blocks=blocks,
        build_dissipators=partial(tuple, dissipators),
    )
