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

The currents of a run of states are one pass over their stack,
_current_columns, which thermo._thermo_rows takes on this model.
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
    BATH_REPEATED_INTERACTION,
    N_SITES,
    SITES,
    Generators,
    ModelParams,
    Spectrum,
    basis_magnetizations,
    interaction_hamiltonian,
    liouville_block_groups,
    local_field_hamiltonian,
    sector_spectrum,
)

# the interqubit currents C_{j,i}, keyed (from_site, to_site)
FLOWS = ((2, 1), (3, 1), (3, 2))
# what _current_columns checks, in the order of its seven traces and three
# interqubit expectations
_CHECKED_NAMES = (tuple(f"q_{s}" for s in SITES) + tuple(f"Q_{s}" for s in SITES)
                  + ("work power",) + ("expectation",) * len(FLOWS))


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
    """Read-only (sz, sz_norms, flows, flow_norms) of the three sites and the three flows.

    sz stacks sigma_z^i over the sites, flows the _pair_flow_observable of
    FLOWS; sz_norms and flow_norms hold their Frobenius norms, as
    _current_columns and np.linalg.norm(f, "fro") take them.
    """
    sz = np.stack([_site_matrices(s)[4] for s in SITES])
    flows = np.stack([_pair_flow_observable(j, i) for j, i in FLOWS])
    for arr in (sz, flows):
        arr.setflags(write=False)
    sz_norms = np.linalg.norm(sz, axis=(1, 2)).tolist()
    return sz, sz_norms, flows, tuple(np.linalg.norm(f, "fro") for f in flows)


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
def _action_gathers() -> tuple:
    """Read-only (3, 8, 8) index stacks that apply D[sigma_-^i] and D[sigma_+^i] by gathers.

    Returns (lower, upper): positions in the (192,) row [X, 0 - X, 0 - X/2]
    of a flattened 8x8 X. Entry (a, c) of sigma_-^i X sigma_+^i - {sigma_+^i
    sigma_-^i, X}/2 is X[a', c'] where both states have site i down (a'
    and c' the states with it flipped), -X[a, c] where both have it up and
    -X[a, c]/2 where they differ; lower[i - 1] lists those entries, and
    upper[i - 1] those of the sigma_+^i term, with up and down swapped.
    """
    d = 2**N_SITES
    states = np.arange(d)
    bits = np.array([1 << (N_SITES - site) for site in SITES])[:, None]
    flipped = states ^ bits
    down = ((states & bits) != 0)[:, :, None]
    both_down, both_up = down & down.swapaxes(1, 2), ~down & ~down.swapaxes(1, 2)
    flip = flipped[:, :, None] * d + flipped[:, None, :]
    own = states[:, None] * d + states[None, :]
    negated, halved = d * d + own, 2 * d * d + own
    lower = np.where(both_down, flip, np.where(both_up, negated, halved))
    upper = np.where(both_up, flip, np.where(both_down, negated, halved))
    for arr in (lower, upper):
        arr.setflags(write=False)
    return lower, upper


def _dissipator_actions(rates, rhos: np.ndarray) -> np.ndarray:
    """D_i[rho] of the three sites of each state of an (N, 8, 8) stack, as (N, 3, 8, 8) clongdouble.

    rates[k] holds local_rates' rows of rhos[k]. Every product with a 0/1
    Pauli matrix only picks or masks entries of rho, so each entry of D_i[rho]
    is down * L + up * R with L and R each one of rho[flip], 0 - rho and
    0 - rho/2, gathered from one row of the three (_action_gathers). It
    keeps the bits of the matrix products of _dissipator_action, whose sums
    start at +0 and so turn a -0 entry into +0; the + 0.0 does the same.
    """
    lower, upper = _action_gathers()
    r = rhos.astype(CLD).reshape(len(rhos), -1) + 0.0
    terms = np.concatenate([r, 0.0 - r, 0.0 - 0.5 * r], axis=1)
    # (2, N, 3, 1, 1): down and up rates of each point and site
    down, up = np.asarray(rates)[..., None].transpose(2, 0, 1, 3, 4)
    return down * terms.take(lower, axis=1) + up * terms.take(upper, axis=1)


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


def _current_columns(rhos: np.ndarray, gens) -> tuple:
    """(q, Q, W, C) of each state of an (N, 8, 8) stack rhos, gens[k] the generators of rhos[k].

    q, Q and C are (N, 3) arrays, C in FLOWS order, and W is (N,). The site
    actions, the seven traces behind q, Q and W, their scales, the norms of
    the states and the three interqubit expectations are each one
    computation over the stack, and so is the check that each trace and
    expectation is real; the first one that is not raises, as
    algebra.checked_real does. Every value is the one the stack of that
    point alone gives, and bitwise that of the one-site-at-a-time route of
    local_heat_current and of the tests' interqubit_current oracle.
    """
    for gen in gens:
        if gen.params.bath_model != BATH_REPEATED_INTERACTION:
            raise DomainError("the local current pass applies to the repeated_interaction model")
    n = len(gens)
    actions = _dissipator_actions([gen.jump_rates for gen in gens], rhos)
    sz, sz_norms, flows, flow_norms = _site_stacks()
    # observables q_1..3, Q_1..3, W against the actions they trace
    obs = np.empty((n, 7, 8, 8), dtype=complex)
    obs[:, :3] = sz
    obs[:, 3:6] = np.array([gen.params.B for gen in gens])[:, :, None, None] * sz
    for k, gen in enumerate(gens):
        obs[k, 6] = gen.H_int
    mats = np.empty((n, 7, 8, 8), dtype=CLD)
    mats[:, :3] = mats[:, 3:6] = actions
    mats[:, 6] = actions[:, 0] + actions[:, 1] + actions[:, 2]
    traces = (obs.astype(CLD) * mats.swapaxes(2, 3)).reshape(n, 7, -1).sum(axis=2)
    # each scale the product of the two factors' Frobenius norms; q_i and
    # Q_i share their action's
    mat_norms = np.linalg.norm(mats[:, 3:], axis=(2, 3)).astype(float)
    trace_scales = np.concatenate(
        [sz_norms * mat_norms[:, :3], np.linalg.norm(obs[:, 3:], axis=(2, 3)) * mat_norms], axis=1)
    expect = np.trace(flows @ rhos[:, None], axis1=2, axis2=3)
    rho_norms = np.linalg.norm(rhos, axis=(1, 2))[:, None]
    values = np.concatenate([traces.astype(complex), expect], axis=1)
    scales = np.concatenate([trace_scales, np.array(flow_norms) * rho_norms], axis=1)
    unreal = np.abs(values.imag) > 1e-10 * scales
    if unreal.any():
        k, m = np.argwhere(unreal)[0]
        checked_real(complex(values[k, m]), float(scales[k, m]), _CHECKED_NAMES[m])
    real = values.real
    # the pairs of FLOWS are those of PAIRS, the order of J
    J = np.array([gen.params.J for gen in gens])
    return real[:, :3], real[:, 3:6], real[:, 6], 2.0 * J * real[:, 7:]


# int16 keeps each entry, one per ordering of the labels, to a few KiB
@lru_cache(maxsize=None)
def _transform_gathers(labels: tuple) -> tuple:
    """Read-only flat gathers of the dm >= 0 blocks W_B of W = kron(conj(V), V).

    vec(V X V^dag) = W vec(X), and W maps the eigenbasis block at the vec
    positions index[0] of liouville_block_groups(labels) onto the
    computational-basis block of the same dm; the eigenbasis labels permute
    the basis labels, so both layouts hold the same differences in the same
    order. Entry (r, c) of W, r = i d + k and c = j d + l, is conj(V[i, j])
    V[k, l]. Returns (left, right, spans): the flat positions i d + j and
    k d + l in V of the entries of the four W_B, each block row-major and
    one after the other, and the (start, stop, shape) of each block's run
    of entries, shape (1, n, n).
    """
    d = len(labels)
    rows, cols = ([index[0].astype(np.int16) for index in liouville_block_groups(order)]
                  for order in (basis_magnetizations(N_SITES), labels))
    i, k = divmod(np.concatenate([np.repeat(r, c.size) for r, c in zip(rows, cols)]), d)
    j, l = divmod(np.concatenate([np.tile(c, r.size) for r, c in zip(rows, cols)]), d)
    left, right = i * d + j, k * d + l
    for arr in (left, right):
        arr.setflags(write=False)
    stops = np.cumsum([c.size**2 for c in cols]).tolist()
    return left, right, tuple((stop - c.size**2, stop, (1, c.size, c.size))
                              for c, stop in zip(cols, stops))


def build_local_generators(points) -> list:
    """Generators of a sequence of repeated_interaction points, one record each.

    Each H is built on its own; their spectra come from one sector_spectrum
    call on the stack of them, whose records hold views of its arrays.
    """
    H_int = [interaction_hamiltonian(p) for p in points]
    # build_hamiltonian(p), keeping H_int
    H = np.array([local_field_hamiltonian(p) + h for p, h in zip(points, H_int)])
    spectra = sector_spectrum(H)
    return [
        Generators(
            params=p,
            H=H[k],
            spectrum=Spectrum(spectra.energies[k], spectra.vectors[k], spectra.sectors[k]),
            jump_rates=local_rates(p),
            H_int=H_int[k],
        )
        for k, p in enumerate(points)
    ]


def _eigen_blocks(gens) -> tuple:
    """The dm >= 0 eigen blocks of repeated_interaction points that share one sector order.

    Returns one (N, n, n) stack per index stack of liouville_block_groups,
    N = len(gens), in the layout of global_me._eigen_blocks: [k] is the
    block of gens[k] at the vec positions index[0], with the bits of a
    stack of that point alone.
    """
    # (2, N, 3, 1, 1): down and up rates of each point and site
    down, up = np.array([gen.jump_rates for gen in gens])[..., None].transpose(2, 0, 1, 3, 4)
    V = np.array([gen.spectrum.vectors for gen in gens]).reshape(len(gens), -1)
    left, right, spans = _transform_gathers(tuple(gens[0].spectrum.sectors.tolist()))
    # each entry the product kron(conj(V), V) takes, in its operand order
    entries = V.conj().take(left, axis=1) * V.take(right, axis=1)
    blocks = []
    for (t_down, t_up), (start, stop, shape) in zip(_unit_dissipators(), spans):
        # W_B^dag D[R_B, R_B] W_B is the dm block of W^dag D W; the bath
        # sum runs over the site axis, one bath after the other. Only the
        # dm >= 0 row is built; see global_me._eigen_blocks
        W_B = entries[:, start:stop].reshape(-1, *shape)
        D = down * t_down + up * t_up
        blocks.append((W_B.conj().swapaxes(2, 3) @ D @ W_B).sum(axis=1))
    return tuple(blocks)
