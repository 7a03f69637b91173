"""Three-qubit thermal machine model: parameters, Hamiltonian, spectrum.

The system Hamiltonian (hbar = k_B = 1) is

    H = sum_i B_i sigma_z^i
        + sum_{i<j} J_ij (sigma_x^i sigma_x^j + sigma_y^i sigma_y^j)
        + sum_{i<j} D_ij sigma_z^i sigma_z^j

Qubit i couples to its own bath at temperature T_i with rate gamma_i. The
exchange form of the coupling conserves total magnetization, [H, sum_i
sigma_z^i] = 0, so H is block diagonal in the four magnetization sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import embed_pauli, lindblad_superop, num_qubits, with_daggers
from .errors import DomainError

N_SITES = 3
SITES = (1, 2, 3)
PAIRS = ((1, 2), (1, 3), (2, 3))

BATH_HARMONIC = "harmonic"
BATH_REPEATED_INTERACTION = "repeated_interaction"
BATH_MODELS = (BATH_HARMONIC, BATH_REPEATED_INTERACTION)


def as_number(name: str, value, integer: bool = False):
    """value as a float, or as it is when integer is set and it is an int.

    Anything else, a bool included, raises DomainError; numeric strings pass as reals.
    """
    if integer:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int too large for a double
            raise DomainError(
                f"{name} must be a real number within the range of a double"
            ) from None
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def as_reals(name: str, value, size: int) -> tuple:
    """A sequence of size reals as a tuple of floats, each through as_number."""
    try:  # a string iterates, but holds no reals
        out = () if isinstance(value, str) else tuple(as_number(name, x) for x in value)
    except TypeError:
        out = ()
    if len(out) != size:
        raise DomainError(f"{name} must be a sequence of {size} reals, got {value!r}")
    return out


def _triple(name, value, minimum=None, strict=False):
    """Three finite reals, each >= minimum (> where strict); a scalar stands for all three."""
    out = as_reals(name, (value,) * 3 if np.isscalar(value) else value, 3)
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{name} entries must be finite, got {out}")
    if minimum is not None:
        for x in out:
            if x < minimum or (strict and x == minimum):
                op = ">" if strict else ">="
                raise DomainError(f"{name} entries must be {op} {minimum}, got {out}")
    return out


@dataclass(frozen=True)
class ModelParams:
    """Full parameter point.

    B, T, gamma are per-site (1, 2, 3); J and Delta are per-pair in the fixed
    order (1,2), (1,3), (2,3).
    """

    B: tuple
    J: tuple
    Delta: tuple
    T: tuple
    gamma: tuple
    bath_model: str

    def __post_init__(self):
        object.__setattr__(self, "B", _triple("B", self.B, minimum=0.0))
        object.__setattr__(self, "J", _triple("J", self.J, minimum=0.0))
        object.__setattr__(self, "Delta", _triple("Delta", self.Delta))
        object.__setattr__(self, "T", _triple("T", self.T, minimum=0.0, strict=True))
        object.__setattr__(self, "gamma", _triple("gamma", self.gamma, minimum=0.0, strict=True))
        if self.bath_model not in BATH_MODELS:
            raise DomainError(
                f"bath_model must be one of {BATH_MODELS}, got {self.bath_model!r}"
            )

    def pair_value(self, which: str, i: int, j: int) -> float:
        """J or Delta for an unordered site pair."""
        key = (min(i, j), max(i, j))
        return getattr(self, which)[PAIRS.index(key)]


def local_field_hamiltonian(p: ModelParams) -> np.ndarray:
    h = np.zeros((8, 8), dtype=complex)
    for site in range(1, 4):
        h += p.B[site - 1] * embed_pauli(N_SITES, "z", site)
    return h


@lru_cache(maxsize=None)
def _pair_strings(i: int, j: int) -> tuple:
    """Read-only (sx^i sx^j + sy^i sy^j, sz^i sz^j) of one coupled pair."""
    sxsx = embed_pauli(N_SITES, "x", i) @ embed_pauli(N_SITES, "x", j)
    sysy = embed_pauli(N_SITES, "y", i) @ embed_pauli(N_SITES, "y", j)
    exchange = sxsx + sysy
    szsz = embed_pauli(N_SITES, "z", i) @ embed_pauli(N_SITES, "z", j)
    for op in (exchange, szsz):
        op.setflags(write=False)
    return exchange, szsz


def interaction_hamiltonian(p: ModelParams) -> np.ndarray:
    h = np.zeros((8, 8), dtype=complex)
    for (i, j), coupling, zz in zip(PAIRS, p.J, p.Delta):
        exchange, szsz = _pair_strings(i, j)
        h += coupling * exchange + zz * szsz
    return h


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """System Hamiltonian, 8x8 Hermitian, block diagonal in magnetization."""
    return local_field_hamiltonian(p) + interaction_hamiltonian(p)


def basis_magnetizations(n_sites: int = N_SITES) -> tuple:
    """Total magnetization of each computational basis state.

    Basis index bit b_i = 0 means sigma_z = +1 on site i; site 1 is the most
    significant bit. The labels run over n, n-2, ..., -n.
    """
    return tuple(n_sites - 2 * bin(idx).count("1") for idx in range(2**n_sites))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with magnetization labels.

    energies are ascending; vectors[:, k] is the eigenvector of energies[k];
    sectors[k] is its total-magnetization quantum number.
    """

    energies: np.ndarray
    vectors: np.ndarray
    sectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def liouville_block_groups(self) -> tuple:
        """The block layout of the eigenbasis vec positions; see liouville_block_groups."""
        return liouville_block_groups(tuple(self.sectors.tolist()))


@dataclass(frozen=True)
class Generators:
    """Lindblad generator pieces of one parameter point, the same record for either bath model.

    Bath i + 1 is sum_k r_k D[A_k] over its lowering jumps jump_ops[i], a
    (k, d, d) stack in the computational basis, and their adjoints, at the
    (2, k) rate rows jump_rates[i] of global_me.thermal_rates, down then up.
    jump_ops is built on first access: sigma_-^i on the
    repeated_interaction model, and on the harmonic model each site's
    JumpSet amplitudes A mapped to V A V^dag. dissipators
    builds each bath as lindblad_superop(with_daggers(jump_ops[i]),
    jump_rates[i].ravel()) on first access, for build_liouvillian and
    bench/gate.py's oracle check; neither the solve nor the heat currents
    read either.

    jumps holds the harmonic model's per-site JumpSets and is empty on the
    repeated_interaction model. H_int is the interaction part of H on the
    repeated_interaction model, whose work current needs it, and None on
    the harmonic model. build_warnings are the warnings a harmonic point's
    build issued (global_me.build_global_generators), in order.
    """

    params: ModelParams
    H: np.ndarray
    spectrum: Spectrum
    jump_rates: tuple
    jumps: tuple = ()
    H_int: np.ndarray = field(default=None, repr=False)
    build_warnings: tuple = ()

    @cached_property
    def jump_ops(self) -> tuple:
        from .local_me import _lowering_jumps  # local_me imports this module

        if self.params.bath_model == BATH_HARMONIC:
            V = self.spectrum.vectors
            return tuple(V @ js.amplitudes @ V.conj().T for js in self.jumps)
        return _lowering_jumps()

    @cached_property
    def dissipators(self) -> tuple:
        return tuple(lindblad_superop(with_daggers(ops), rows.ravel())
                     for ops, rows in zip(self.jump_ops, self.jump_rates))


# one entry per ordering of the magnetization labels: at most 1120 for three
# qubits
@lru_cache(maxsize=None)
def liouville_block_groups(labels: tuple) -> tuple:
    """Vec positions of the magnetization-difference blocks of a Liouville space.

    labels[k] is the total magnetization of basis state k, and the vec
    position a + d b (column stacking) of |a><b| carries the difference
    dm = m(a) - m(b). The blocks, dm = 0 first and then +2, -2, +4, ...,
    are stacked by size as _positions_by_size stacks them, so
    X[index[:, :, None], index[:, None, :]] cuts every block of one size
    out of a Liouville-space matrix X with one gather. The dm = 0 block is
    the largest and sits alone in the first stack. A generator that
    conserves the magnetization difference has no entries between blocks,
    and its steady state lives in the dm = 0 block.
    """
    m = np.asarray(labels)
    dm = (m[:, None] - m[None, :]).reshape(-1, order="F")
    return _positions_by_size(dm, sorted(set(dm.tolist()), key=lambda v: (abs(v), -v)))


def _positions_by_size(labels: np.ndarray, values) -> tuple:
    """Read-only (k, n) stacks of where each of values sits in labels, one per count n.

    Row j of a stack holds the ascending positions of one value; the values
    keep their order within a stack, and the stacks come in the order of
    their first value.
    """
    by_size: dict = {}
    for value in values:
        index = np.flatnonzero(labels == value)
        by_size.setdefault(index.size, []).append(index)
    groups = tuple(np.stack(members) for members in by_size.values())
    for index in groups:
        index.setflags(write=False)
    return groups


@lru_cache(maxsize=None)
def _sector_layout(n: int) -> tuple:
    """Constant index layout of sector_spectrum for an n-qubit register.

    Returns (cross, labels, groups). cross holds the read-only positions
    of the entries of a flattened dim x dim matrix that join two different
    magnetization sectors; labels[k] is the magnetization of column k of
    the unsorted spectrum, whose sectors run in descending m. groups holds
    one (rows, place, cols) per sector size, for the sectors of that size
    stacked in descending m: rows gathers their (k, s, s) stack of blocks
    out of a flattened H, place scatters their eigenvectors into a
    flattened eigenvector matrix and cols their eigenvalues into the
    unsorted spectrum.
    """
    label = np.array(basis_magnetizations(n))
    dim = label.size
    cross = np.flatnonzero(label[:, None] != label[None, :])
    labels = np.sort(label)[::-1]
    sectors = sorted(set(label.tolist()), reverse=True)
    groups = tuple(
        (idx[:, :, None] * dim + idx[:, None, :],
         (idx[:, :, None] * dim + cols[:, None, :]).ravel(), cols.ravel())
        for idx, cols in zip(*(_positions_by_size(x, sectors) for x in (label, labels)))
    )
    for arr in (cross, labels):
        arr.setflags(write=False)
    return cross, labels, groups


def sector_spectrum(H: np.ndarray) -> Spectrum:
    """Diagonalize magnetization-conserving Hamiltonians sector by sector.

    H is one d x d matrix, or an (N, d, d) stack of them, whose Spectrum
    then holds (N, d) energies and sectors and (N, d, d) vectors. The
    sectors of one size go through one stacked eigh call over the whole
    stack, which returns the same bits as one call per sector and matrix.
    """
    stack = H[None] if H.ndim == 2 else H
    n = num_qubits(stack[0])
    cross, labels, groups = _sector_layout(n)
    count, dim = stack.shape[:2]
    flat = stack.reshape(count, -1)
    skew = stack - stack.conj().swapaxes(1, 2)
    # the model builds exactly Hermitian matrices with exact zeros across
    # sectors (exchange-form couplings), which skip the norms
    if np.count_nonzero(skew) or np.count_nonzero(flat.take(cross, axis=1)):
        scale = np.abs(flat).max(axis=1)
        skew = skew.view(float).reshape(count, -1)
        if (np.sqrt(np.einsum("ki,ki->k", skew, skew)) > 1e-12 * scale * dim).any():
            raise DomainError("H is not Hermitian")
        if (np.abs(flat.take(cross, axis=1)).max(axis=1, initial=0.0) > 1e-12 * scale).any():
            raise DomainError("H has matrix elements across magnetization sectors")

    energies = np.empty((count, dim))
    vectors = np.zeros((count, dim * dim), dtype=complex)
    for rows, place, cols in groups:
        w, v = np.linalg.eigh(flat.take(rows, axis=1))
        vectors[:, place] = v.reshape(count, -1)
        energies[:, cols] = w.reshape(count, -1)
    order = np.argsort(energies, kind="stable")
    points = np.arange(count)[:, None]
    energies, sectors = energies[points, order], labels[order]
    vectors = vectors.reshape(count, dim, dim)[points, :, order]  # eigenvectors as rows
    vectors = np.ascontiguousarray(vectors.swapaxes(1, 2))
    if H.ndim == 2:
        energies, vectors, sectors = energies[0], vectors[0], sectors[0]
    return Spectrum(energies=energies, vectors=vectors, sectors=sectors)
