"""Pauli algebra, tensor embeddings and superoperator plumbing for qubit registers.

Operators are plain complex numpy arrays. Density matrices are vectorized by
column stacking, vec(rho) = rho.reshape(-1, order="F"), under which

    vec(A rho B) = (B^T kron A) vec(rho).

Every superoperator built in this package follows that convention.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalConsistencyError

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, raises <sigma_z>
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|, lowers <sigma_z>
I2 = np.eye(2, dtype=complex)

_PAULI = {"x": SX, "y": SY, "z": SZ, "plus": SP, "minus": SM}


def pauli(axis: str) -> np.ndarray:
    """Single-qubit operator for axis in {x, y, z, plus, minus}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise DomainError(f"unknown Pauli axis {axis!r}") from None


def num_qubits(op: np.ndarray) -> int:
    """Number of qubits of a square operator, validating the 2^n dimension."""
    d = op.shape[0]
    if op.ndim != 2 or op.shape[1] != d:
        raise DomainError(f"operator must be square, got shape {op.shape}")
    n = d.bit_length() - 1
    if d != 2**n:
        raise DomainError(f"dimension {d} is not a power of two")
    return n


def embed_pauli(n_sites: int, axis: str, site: int) -> np.ndarray:
    """Single-site operator embedded into an n_sites register.

    Sites are 1-based; site 1 is the leftmost (most significant) tensor factor.
    The result is built once per (n_sites, axis, site) and shared by every
    caller, so it is read-only; copy it before writing into it.
    """
    if not 1 <= site <= n_sites:
        raise DomainError(f"site {site} outside 1..{n_sites}")
    return _embedded(n_sites, axis, site)


@lru_cache(maxsize=None)
def _embedded(n_sites: int, axis: str, site: int) -> np.ndarray:
    op = pauli(axis)
    out = np.array([[1.0 + 0.0j]])
    for s in range(1, n_sites + 1):
        out = np.kron(out, op if s == site else I2)
    out.setflags(write=False)
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DomainError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def lindblad_superop(ops, rates) -> np.ndarray:
    """Superoperator of sum_k r_k D[A_k], D[A] = A . A^dag - (1/2){A^dag A, .}.

    ops is a sequence of d x d jump operators A_k, rates the matching r_k.
    """
    a = np.asarray(ops)
    w, d = a.shape[:2]
    scaled = np.asarray(rates)[:, None, None] * a.conj()  # r_k conj(A_k)
    # sum_k r_k conj(A_k) kron A_k and sum_k r_k A_k^dag A_k, each as one
    # matrix product over the stacked jumps
    sand = (scaled.reshape(w, d * d).T @ a.reshape(w, d * d)).reshape(d, d, d, d)
    sand = sand.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    anti = scaled.reshape(w * d, d).T @ a.reshape(w * d, d)
    eye = np.eye(d, dtype=complex)
    return sand - 0.5 * (np.kron(eye, anti) + np.kron(anti.T, eye))


def with_daggers(ops: np.ndarray) -> np.ndarray:
    """The (k, d, d) stack ops followed by the adjoint of each of its matrices."""
    return np.concatenate([ops, np.conj(np.transpose(ops, (0, 2, 1)))])


def coherent_superop(H: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i[H, rho]."""
    eye = np.eye(H.shape[0], dtype=complex)
    return -1j * (np.kron(eye, H) - np.kron(H.T, eye))


# 80-bit extended precision; used to accumulate traces whose terms cancel
# almost completely (near-detailed-balance dissipator applications). The
# package spells the extended types only by these two names.
LD = np.longdouble
CLD = np.clongdouble


def checked_trace(obs: np.ndarray, mat_ld: np.ndarray, what: str) -> float:
    """Real Tr(obs @ mat_ld) of a clongdouble mat_ld, summed without forming the product.

    checked_real checks it at the scale of the two factors' Frobenius norms.
    """
    val = complex((obs.astype(CLD) * mat_ld.T).sum())
    scale = float(np.linalg.norm(obs, "fro")) * float(np.linalg.norm(mat_ld).astype(float))
    return checked_real(val, scale, what)


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced operator on the 1-based sites in `keep`, in ascending site order."""
    n = num_qubits(rho)
    keep = tuple(sorted(set(int(s) for s in keep)))
    if not keep:
        raise DomainError("keep must name at least one site")
    if keep[0] < 1 or keep[-1] > n:
        raise DomainError(f"keep sites {keep} outside 1..{n}")
    t = rho.reshape((2,) * (2 * n))
    row = list(range(n))
    # traced-out sites share the row label in the column slot, kept sites get fresh ones
    col = [(n + i) if (i + 1) in keep else i for i in range(n)]
    out = [i for i in range(n) if (i + 1) in keep] + [n + i for i in range(n) if (i + 1) in keep]
    red = np.einsum(t, row + col, out)
    d = 2 ** len(keep)
    return red.reshape((d, d))


def partial_transpose(rho: np.ndarray, site: int) -> np.ndarray:
    """Transpose on one 1-based site only."""
    n = num_qubits(rho)
    if not 1 <= site <= n:
        raise DomainError(f"site {site} outside 1..{n}")
    t = rho.reshape((2,) * (2 * n)).copy()
    t = np.swapaxes(t, site - 1, n + site - 1)
    return t.reshape(rho.shape)


def checked_real(val: complex, scale: float, what: str) -> float:
    """Real part of a trace that must be real; raises if |Im| > 1e-10 * scale.

    scale bounds the size of the terms summed into val, e.g. the product of
    the Frobenius norms of the two factors of the trace.
    """
    if abs(val.imag) > 1e-10 * scale:
        raise NumericalConsistencyError(
            f"{what} has imaginary residue {val.imag:.3e} at scale {scale:.3e}"
        )
    return val.real


def herm(rho: np.ndarray) -> np.ndarray:
    """Hermitian part (rho + rho^dag)/2, of one matrix or of each of a stack."""
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b (inputs are hermitized first).

    The acceptance tests (tests/test_acceptance.py) call it, which keeps it
    in the package.
    """
    diff = herm(a) - herm(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
