"""Repeated-interaction (local) master equation and its steady-state currents.

Each qubit exchanges excitations with its own bath through local jump
operators sigma_-^i and sigma_+^i at the rates of global_me.thermal_rates, the
one rate rule of both bath models, taken at the bare splitting 2 B_i:

    D_i[rho] = gamma_i (n_i + 1) D[sigma_-^i] + gamma_i n_i D[sigma_+^i],
    n_i = 1/(exp(2 B_i / T_i) - 1).

Bookkeeping at the steady state:

    q_i = Tr(sigma_z^i D_i[rho])          bath magnetization current
    Q_i = Tr(B_i sigma_z^i D_i[rho])      heat current, equal to B_i q_i
    W   = Tr(H_int sum_i D_i[rho])        work power, equal to -sum_i Q_i
    C_{j,i} = 2 J_ij <sx^j sy^i - sx^i sy^j>   interqubit magnetization current

Traces over dissipator outputs are accumulated in extended precision: near
detailed balance they are tiny differences of terms of size gamma*n*rho.

Every bath dissipator is r_down D[sigma_-^i] + r_up D[sigma_+^i]. Its
eigenbasis blocks are assembled from the unit-rate blocks of its site, cut
once per process; the sum is bitwise equal to the same blocks of
lindblad_superop((sigma_-^i, sigma_+^i), (r_down, r_up)), the superoperator
Generators.dissipators builds. The three sites' work is done as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    CLD,
    checked_real,
    checked_trace,
    embed_pauli,
    lindblad_superop,
)
from .errors import DomainError
from .global_me import thermal_rates
from .model import (
    N_SITES,
    SITES,
    Generators,
    ModelParams,
    basis_magnetizations,
    block_entry_positions,
    interaction_hamiltonian,
    liouville_block_groups,
    local_field_hamiltonian,
    sector_spectrum,
)

# the interqubit currents C_{j,i}, keyed (from_site, to_site)
FLOWS = ((2, 1), (3, 1), (3, 2))


def local_rates(p: ModelParams) -> tuple:
    """The three baths' (2, 1) rate rows, thermal_rates at each 2 B_i."""
    rates = []
    for site, b, gamma, T in zip(SITES, p.B, p.gamma, p.T):
        if b <= 0.0:
            raise DomainError(
                f"local bath of site {site} needs B > 0 (splitting 2B sets the rates), got {b}"
            )
        rates.append(thermal_rates(site, (2.0 * b,), gamma, T))
    return tuple(rates)


def _site_axis_rates(rates: tuple) -> np.ndarray:
    """(down, up) of local_rates' rows, each a (3, 1, 1) array over the site axis."""
    return np.array(rates)[..., None].swapaxes(0, 1)


@lru_cache(maxsize=None)
def _site_matrices(site: int):
    sm = embed_pauli(N_SITES, "minus", site)
    sp = embed_pauli(N_SITES, "plus", site)
    return sm, sp, sp @ sm, sm @ sp, embed_pauli(N_SITES, "z", site)


@lru_cache(maxsize=None)
def _lowering_jumps() -> tuple:
    """Read-only (1, 8, 8) stacks of sigma_-^i, the jumps of the three local baths."""
    return tuple(_site_matrices(site)[0][None] for site in SITES)


@lru_cache(maxsize=None)
def _pair_flow_observable(j: int, i: int) -> np.ndarray:
    """sigma_x^j sigma_y^i - sigma_x^i sigma_y^j (Hermitian)."""
    return (
        embed_pauli(N_SITES, "x", j) @ embed_pauli(N_SITES, "y", i)
        - embed_pauli(N_SITES, "x", i) @ embed_pauli(N_SITES, "y", j)
    )


@lru_cache(maxsize=None)
def _site_stacks() -> tuple:
    """Read-only (sz, flows, flow_norms) of the three sites and the three flows.

    sz stacks sigma_z^i over the sites, flows the _pair_flow_observable of
    FLOWS, and flow_norms holds their Frobenius norms.
    """
    sz = np.stack([_site_matrices(s)[4] for s in SITES])
    flows = np.stack([_pair_flow_observable(j, i) for j, i in FLOWS])
    for arr in (sz, flows):
        arr.setflags(write=False)
    return sz, flows, tuple(np.linalg.norm(f, "fro") for f in flows)


@lru_cache(maxsize=None)
def _unit_dissipators() -> tuple:
    """Unit-rate blocks of D[sigma_-^i] and D[sigma_+^i] of the three sites, cut once.

    Returns one (down, up) per index stack of liouville_block_groups of the
    computational basis: the (1, 3, n, n) stacks over the sites of the
    blocks of lindblad_superop((sigma_-^i,), (1,)) and
    lindblad_superop((sigma_+^i,), (1,)) at the dm >= 0 row index[:1] of
    that stack. Every array is read-only; the 64 x 64 superoperators they
    are cut from are not kept.
    """
    full = np.array([
        [lindblad_superop((_site_matrices(site)[k],), (1.0,)) for site in SITES]
        for k in (0, 1)
    ])
    groups = []
    for index in liouville_block_groups(basis_magnetizations(N_SITES)):
        rows = index[:1]
        cut = full[:, :, rows[:, :, None], rows[:, None, :]].transpose(0, 2, 1, 3, 4)
        down, up = np.ascontiguousarray(cut[0]), np.ascontiguousarray(cut[1])
        for arr in (down, up):
            arr.setflags(write=False)
        groups.append((down, up))
    return tuple(groups)


@lru_cache(maxsize=None)
def _flip_gathers() -> tuple:
    """Read-only index and mask stacks that apply D[sigma_-^i] and D[sigma_+^i] by gathers.

    Returns (flip, jump, left, right). flip[i] maps each basis state to the
    one with site i + 1 flipped. jump[0, i] marks the entries (a, c) where
    both states have that site down, jump[1, i] where both have it up;
    left[k, i] and right[k, i] mark the rows and the columns of the states
    with the site up (k = 0) or down (k = 1). So sigma_-^i X sigma_+^i and
    sigma_+^i X sigma_-^i are X[flip[i]][:, flip[i]] masked by jump[0, i]
    and jump[1, i], and sigma_+^i sigma_-^i X + X sigma_+^i sigma_-^i is X
    masked by left[0, i] plus X masked by right[0, i].
    """
    states = np.arange(2**N_SITES)
    bits = np.array([1 << (N_SITES - site) for site in SITES])[:, None]
    flip = states ^ bits
    is_down = (states & bits) != 0
    spins = np.stack([is_down, ~is_down])
    arrays = (flip, spins[:, :, :, None] & spins[:, :, None, :],
              ~spins[:, :, :, None], ~spins[:, :, None, :])
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _dissipator_actions(rates: tuple, rho: np.ndarray) -> np.ndarray:
    """D_i[rho] of the three sites at local_rates' rows, as a (3, 8, 8) clongdouble stack.

    Every product with a 0/1 Pauli matrix only picks or masks entries of
    rho, so it is a gather here. It keeps the bits of the matrix products
    of _dissipator_action, whose sums start at +0 and so turn a -0 entry
    into +0; the + 0.0 does the same.
    """
    flip, jump, left, right = _flip_gathers()
    r = rho.astype(CLD) + 0.0
    jumped = np.where(jump, r[flip[:, :, None], flip[:, None, :]], 0)
    anti = np.where(left, r, 0) + np.where(right, r, 0)
    lowered, raised = jumped - 0.5 * anti
    down, up = _site_axis_rates(rates)
    return down * lowered + up * raised


def _dissipator_action(p: ModelParams, site: int, rho: np.ndarray) -> np.ndarray:
    """D_i[rho] of one site as an 8x8 clongdouble matrix; the oracle route."""
    down_rate, up_rate = local_rates(p)[site - 1][:, 0]
    sm, sp, spsm, smsp, _ = _site_matrices(site)
    r = rho.astype(CLD)
    down = sm @ r @ sp - 0.5 * (spsm @ r + r @ spsm)
    up = sp @ r @ sm - 0.5 * (smsp @ r + r @ smsp)
    return down_rate * down + up_rate * up


def local_heat_current(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """Q_i = Tr(B_i sigma_z^i D_i[rho]), one site at a time; the oracle route.

    bench/gate.py's oracle check calls it, which keeps it in the package.
    """
    action = _dissipator_action(p, site, rho_ss)
    h_site = p.B[site - 1] * _site_matrices(site)[4]
    return checked_trace(h_site, action, f"Q_{site}")


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


def local_current_set(rho_ss: np.ndarray, gen: Generators) -> CurrentSet:
    """Currents and work power of one steady state, sharing dissipator work.

    gen is the point's build_local_generators record, whose H_int and bath
    rates (jump_rates) the currents reuse. The three site actions, the
    seven traces behind q, Q and W, and the three interqubit expectations
    are each one stacked computation; every value is bitwise equal to the
    one-site-at-a-time route of local_heat_current and of the tests'
    interqubit_current oracle.
    """
    p, H_int = gen.params, gen.H_int
    if p.bath_model != "repeated_interaction":
        raise DomainError("local_current_set applies to the repeated_interaction model")
    actions = _dissipator_actions(gen.jump_rates, rho_ss)
    sz, flows, flow_norms = _site_stacks()
    # observables q_1..3, Q_1..3, W against the actions they trace
    obs = np.concatenate([sz, np.array(p.B)[:, None, None] * sz, H_int[None]])
    mats = np.concatenate([actions, actions, (actions[0] + actions[1] + actions[2])[None]])
    traces = (obs.astype(CLD) * mats.swapaxes(1, 2)).reshape(len(obs), -1).sum(axis=1)
    scales = np.linalg.norm(obs, axis=(1, 2)) * np.linalg.norm(mats, axis=(1, 2)).astype(float)
    names = [f"q_{s}" for s in SITES] + [f"Q_{s}" for s in SITES] + ["work power"]
    values = [checked_real(complex(t), float(sc), name)
              for t, sc, name in zip(traces, scales, names)]
    expect = np.trace(flows @ rho_ss, axis1=1, axis2=2)
    rho_norm = np.linalg.norm(rho_ss, "fro")
    c = {
        (j, i): 2.0 * p.pair_value("J", i, j)
        * checked_real(complex(e), float(norm * rho_norm), "expectation")
        for (j, i), e, norm in zip(FLOWS, expect, flow_norms)
    }
    return CurrentSet(Q=tuple(values[3:6]), W=values[6], q=tuple(values[:3]), C=c)


# int16 keeps each entry, one per ordering of the labels, to a few KiB
@lru_cache(maxsize=None)
def _transform_gathers(labels: tuple) -> tuple:
    """Read-only flat gathers of the dm >= 0 blocks W_B of W = kron(conj(V), V).

    vec(V X V^dag) = W vec(X), and W maps the eigenbasis block at the vec
    positions index[0] of liouville_block_groups(labels) onto the
    computational-basis block of the same dm; the eigenbasis labels permute
    the basis labels, so both layouts hold the same differences in the same
    order. W[i d + k, j d + l] is conj(V[i, j]) V[k, l]. Returns (left,
    right, spans): the flat positions i d + j and k d + l of the entries
    of the four W_B, as block_entry_positions lists them, and its spans.
    """
    d = len(labels)
    i, j, k, l, spans = block_entry_positions(basis_magnetizations(N_SITES), labels)
    left, right = i * d + j, k * d + l
    for arr in (left, right):
        arr.setflags(write=False)
    return left, right, spans


def build_local_generators(p: ModelParams) -> Generators:
    H_int = interaction_hamiltonian(p)
    H = local_field_hamiltonian(p) + H_int  # build_hamiltonian(p), keeping H_int
    return Generators(
        params=p,
        H=H,
        spectrum=sector_spectrum(H),
        jump_ops=_lowering_jumps(),
        jump_rates=local_rates(p),
        H_int=H_int,
    )


def _eigen_blocks(gen: Generators) -> tuple:
    """Generators.eigen_blocks of a repeated_interaction point."""
    down, up = _site_axis_rates(gen.jump_rates)
    V = gen.spectrum.vectors
    left, right, spans = _transform_gathers(tuple(gen.spectrum.sectors.tolist()))
    # each entry the product kron(conj(V), V) takes, in its operand order
    entries = V.conj().ravel().take(left) * V.ravel().take(right)
    blocks = []
    for (t_down, t_up), (start, stop, shape) in zip(_unit_dissipators(), spans):
        # W_B^dag D[R_B, R_B] W_B is the dm block of W^dag D W; the bath
        # sum runs over the site axis, one bath after the other. Only the
        # dm >= 0 row is built; see Generators.eigen_blocks
        W_B = entries[start:stop].reshape(shape)
        D = down * t_down + up * t_up
        blocks.append((W_B.conj().swapaxes(1, 2)[:, None] @ D @ W_B[:, None]).sum(axis=1))
    return tuple(blocks)
