"""Reference implementations that only the tests call.

Each is a second route to something the package computes another way, or a
check the package has no use for. They live here so that src/triqubit holds
only what the sweeps, the CLI, bench/gate.py and the acceptance tests call;
tests/test_src_callers.py keeps it that way.
"""

import math

import numpy as np

from triqubit.algebra import CLD, checked_real, embed_pauli
from triqubit.errors import DomainError
from triqubit.global_me import bose_occupation
from triqubit.local_me import _pair_flow_observable, _site_matrices
from triqubit.model import N_SITES, ModelParams
from triqubit.steady_state import (
    SteadyStateResult,
    _finalize_state,
    _trace_one_state,
    _unique_null_scale,
)


def total_sz(n_sites: int = N_SITES) -> np.ndarray:
    """Total magnetization sum_i sigma_z^i.

    The tests check with it that H conserves magnetization, that the sector
    labels are right and that each jump lowers it by 2.
    """
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for site in range(1, n_sites + 1):
        out += embed_pauli(n_sites, "z", site)
    return out


def reconstruct(jumps) -> np.ndarray:
    """sum_omega (A_omega + A_omega^dag) + zero_part of a JumpSet; equals sigma_x^site.

    The tests check with it that the clustering loses no part of the
    coupling operator.
    """
    out = jumps.zero_part.astype(complex).copy()
    for op in jumps.operators:
        out += op + op.conj().T
    return out


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Real expectation value Tr(obs rho); raises if the imaginary residue is large."""
    val = complex(np.trace(obs @ rho))
    scale = float(np.linalg.norm(obs, "fro") * np.linalg.norm(rho, "fro"))
    return checked_real(val, scale, "expectation")


def bath_sz(n: float) -> float:
    """Magnetization a local bath of Bose occupation n drives its qubit toward, -1/(1 + 2 n)."""
    return -1.0 / (1.0 + 2.0 * n)


def magnetization_current_closed_form(rho_ss: np.ndarray, p: ModelParams, site: int) -> float:
    """gamma (1 + 2n) (<sigma_z>_bath - <sigma_z>_i); equals local_current_set's q_i.

    A closed-form oracle for the dissipator-trace route.
    """
    n = bose_occupation(2.0 * p.B[site - 1], p.T[site - 1])
    sz = expectation(rho_ss, _site_matrices(site)[4])
    return p.gamma[site - 1] * (1.0 + 2.0 * n) * (bath_sz(n) - sz)


def interqubit_current(rho_ss: np.ndarray, p: ModelParams, j: int, i: int) -> float:
    """C_{j,i}, magnetization flowing from qubit j to qubit i."""
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError(f"need two distinct sites in 1..3, got ({j}, {i})")
    coupling = p.pair_value("J", i, j)
    return 2.0 * coupling * expectation(rho_ss, _pair_flow_observable(j, i))


def solve_steady_state(L: np.ndarray) -> SteadyStateResult:
    """Unique steady state of a trace-preserving generator.

    Runs solve_point's null-space certificate and refinement on one whole
    generator in any basis.
    """
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    if L.ndim != 2 or L.shape[1] != d2 or d * d != d2:
        raise DomainError(f"generator shape {L.shape} is not a vectorized square map")
    on_diag = np.arange(0, d2, d + 1)  # vec positions of the trace
    _unique_null_scale([L[None]], (1,), on_diag)
    x, res = _trace_one_state(L, on_diag, np.zeros(d2, dtype=CLD), L.astype(CLD))
    return SteadyStateResult(rho=_finalize_state(x), residual=res)
