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

from dataclasses import dataclass

import numpy as np

from .algebra import embed_pauli, num_qubits
from .errors import DomainError

N_SITES = 3
PAIRS = ((1, 2), (1, 3), (2, 3))

BATH_HARMONIC = "harmonic"
BATH_REPEATED_INTERACTION = "repeated_interaction"
BATH_MODELS = (BATH_HARMONIC, BATH_REPEATED_INTERACTION)


def _triple(name, value, minimum=None, strict=False):
    try:
        out = tuple(float(x) for x in value)
    except TypeError:
        raise DomainError(f"{name} must be a sequence of 3 reals") from None
    if len(out) != 3:
        raise DomainError(f"{name} must have exactly 3 entries, got {len(out)}")
    if any(not np.isfinite(x) for x in out):
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


def interaction_hamiltonian(p: ModelParams) -> np.ndarray:
    h = np.zeros((8, 8), dtype=complex)
    for (i, j), coupling, zz in zip(PAIRS, p.J, p.Delta):
        sxsx = embed_pauli(N_SITES, "x", i) @ embed_pauli(N_SITES, "x", j)
        sysy = embed_pauli(N_SITES, "y", i) @ embed_pauli(N_SITES, "y", j)
        szsz = embed_pauli(N_SITES, "z", i) @ embed_pauli(N_SITES, "z", j)
        h += coupling * (sxsx + sysy) + zz * szsz
    return h


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """System Hamiltonian, 8x8 Hermitian, block diagonal in magnetization."""
    return local_field_hamiltonian(p) + interaction_hamiltonian(p)


def total_sz(n_sites: int = N_SITES) -> np.ndarray:
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for site in range(1, n_sites + 1):
        out += embed_pauli(n_sites, "z", site)
    return out


def magnetization_sectors(n_sites: int = N_SITES) -> dict:
    """Map from total magnetization m to the basis indices of its sector.

    Basis index bit b_i = 0 means sigma_z = +1 on site i; site 1 is the most
    significant bit. m runs over n, n-2, ..., -n.
    """
    sectors: dict = {}
    for idx in range(2**n_sites):
        m = n_sites - 2 * bin(idx).count("1")
        sectors.setdefault(m, []).append(idx)
    return sectors


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


def sector_spectrum(H: np.ndarray) -> Spectrum:
    """Diagonalize a magnetization-conserving Hamiltonian sector by sector."""
    n = num_qubits(H)
    scale = max(float(np.max(np.abs(H))), 1e-300)
    if np.linalg.norm(H - H.conj().T, "fro") > 1e-12 * scale * H.shape[0]:
        raise DomainError("H is not Hermitian")
    sectors = magnetization_sectors(n)
    # block diagonality is exact for exchange-form couplings
    for ma, idx_a in sectors.items():
        for mb, idx_b in sectors.items():
            if ma == mb:
                continue
            block = H[np.ix_(idx_a, idx_b)]
            if np.max(np.abs(block)) > 1e-12 * scale:
                raise DomainError("H has matrix elements across magnetization sectors")

    dim = 2**n
    energies = np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    labels = np.empty(dim, dtype=int)
    col = 0
    for m in sorted(sectors, reverse=True):
        idx = sectors[m]
        vals, vecs = np.linalg.eigh(H[np.ix_(idx, idx)])
        for k in range(len(idx)):
            energies[col] = vals[k]
            vectors[np.ix_(idx, [col])] = vecs[:, [k]]
            labels[col] = m
            col += 1
    order = np.argsort(energies, kind="stable")
    return Spectrum(energies=energies[order], vectors=vectors[:, order], sectors=labels[order])
