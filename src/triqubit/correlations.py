"""Pairwise information measures and entanglement flags for 3-qubit states.

All entropies and bounds are in nats. The X-form residual measures how far a
pair reduction deviates from the pattern with support only on the diagonal
and the inner (2,3) anti-diagonal pair; corner (1,4) coherences count toward
the residual, they are not part of the pattern.

The reports of a run of states are one pass over their stack,
_correlation_rows, whose mutual informations and bounds the record body
sweeps._run_records hands to the law checks of thermo._thermo_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import herm, partial_trace, partial_transpose
from .errors import DomainError
from .model import N_SITES, PAIRS, SITES

_EIG_FLOOR = -1e-10  # eigenvalues below this are treated as corrupt input
_PPT_FLOOR = -1e-10  # a partial transpose's least eigenvalue below this is negative


def _entropies(states: np.ndarray) -> np.ndarray:
    """-Tr(rho ln rho) of one state or of each of a stack, in one eigvalsh call.

    0 ln 0 = 0: the log is taken only where an eigenvalue is positive, so a
    zero eigenvalue raises no RuntimeWarning; a nonpositive eigenvalue adds
    a zero term.
    """
    lam = np.linalg.eigvalsh(states)
    lo = float(lam.min())
    if lo < _EIG_FLOOR:
        raise DomainError(f"state has negative eigenvalue {lo:.3e}")
    logs = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return -(lam * logs).sum(axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr(rho ln rho) with the 0 ln 0 = 0 convention."""
    return float(_entropies(rho))


def mutual_information(rho: np.ndarray, i: int, j: int) -> float:
    """Quantum mutual information S_i + S_j - S_ij of qubits i and j (nats).

    bench/gate.py's oracle check calls it, which keeps it in the package.
    """
    if i == j:
        raise DomainError("mutual information needs two distinct sites")
    s_i = von_neumann_entropy(partial_trace(rho, (i,)))
    s_j = von_neumann_entropy(partial_trace(rho, (j,)))
    s_ij = von_neumann_entropy(partial_trace(rho, (min(i, j), max(i, j))))
    return s_i + s_j - s_ij


# 4x4 boolean mask of the X pattern: diagonal plus the (2,3)/(3,2) pair
_X_PATTERN = np.zeros((4, 4), dtype=bool)
_X_PATTERN[np.arange(4), np.arange(4)] = True
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True


@dataclass(frozen=True)
class XStateAnalysis:
    residual: float
    eigenvalues: tuple
    r23_modulus: float


def x_state_analysis(rho_pair: np.ndarray) -> XStateAnalysis:
    """Closed-form spectrum of a two-qubit state assuming the X pattern.

    residual is the Frobenius norm of every entry outside the pattern; the
    closed-form eigenvalues are only meaningful when it is small. The
    acceptance tests (tests/test_acceptance.py) call it, which keeps it in
    the package.
    """
    if rho_pair.shape != (4, 4):
        raise DomainError(f"expected a 4x4 two-qubit state, got shape {rho_pair.shape}")
    scale = float(np.linalg.norm(rho_pair, "fro"))
    if float(np.linalg.norm(rho_pair - rho_pair.conj().T, "fro")) > 1e-10 * scale:
        raise DomainError("two-qubit state is not Hermitian")
    residual = float(np.linalg.norm(rho_pair[~_X_PATTERN]))
    r11, r22, r33, r44 = (float(rho_pair[m, m].real) for m in range(4))
    r23 = complex(rho_pair[1, 2])
    disc = math.sqrt((r22 - r33) ** 2 + 4.0 * abs(r23) ** 2)
    eigenvalues = (r11, 0.5 * (r22 + r33 + disc), 0.5 * (r22 + r33 - disc), r44)
    return XStateAnalysis(residual=residual, eigenvalues=eigenvalues, r23_modulus=abs(r23))


def mi_lower_bound(C_ij: float, J_ij: float) -> float:
    """Least mutual information compatible with an interqubit current C_ij.

    Evaluated on the minimizing equal-population X state, whose inner
    coherence satisfies |r23| = |C|/(8J): the bound is
    (xi+ ln xi+ + xi- ln xi-)/4 with xi = 1 +/- |C|/(2J).
    """
    if J_ij <= 0.0:
        raise DomainError("coupling J must be positive for the current bound")
    x = abs(float(C_ij)) / (2.0 * float(J_ij))
    if x > 1.0 + 1e-12:
        raise DomainError(f"|C|/(2J) = {x:.6f} exceeds 1: inconsistent current/coupling pair")
    x = min(x, 1.0)
    xi_plus = 1.0 + x
    xi_minus = 1.0 - x
    total = xi_plus * math.log(xi_plus)
    if xi_minus > 0.0:
        total += xi_minus * math.log(xi_minus)
    return 0.25 * total


@dataclass(frozen=True)
class PptCheck:
    min_eigenvalue: float
    is_negative: bool


def ppt_check(rho: np.ndarray, site: int) -> PptCheck:
    """Partial-transpose test on one site against the other two.

    A negative eigenvalue of the partial transpose certifies entanglement
    across that cut; min_eigenvalue within -1e-10 of zero counts as positive.
    bench/gate.py's oracle check calls it, which keeps it in the package.
    """
    lam_min = float(np.linalg.eigvalsh(partial_transpose(rho, site)).min())
    return PptCheck(min_eigenvalue=lam_min, is_negative=lam_min < _PPT_FLOOR)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise information metrics of one 3-qubit state."""

    I: dict
    x_form_residual: dict
    mi_bound: dict
    r23: dict
    ppt_negative: tuple
    ppt_min_eigenvalues: tuple


@lru_cache(maxsize=None)
def _reduction_gathers() -> tuple:
    """Read-only indices into rho.ravel() of every reduction _correlation_rows takes.

    Returns (pairs, sites, cuts). pairs[:, k, a, c] lists the entries of
    rho whose sum is partial_trace(rho, PAIRS[k])[a, c], one per value of
    the traced site; sites[:, k] does the same for the one-site reduction
    of site k + 1, the two traced sites' values with the later site
    running fastest; cuts[k] is partial_transpose(rho, k + 1). Each comes
    from reshuffling the positions of rho themselves. The traced values
    lead, so that each term of a sum is one contiguous block of a gather.
    """
    n = N_SITES
    positions = np.arange(4**n).reshape((2,) * (2 * n))  # row bits, then column bits

    def traced(keep):
        gone = [s for s in SITES if s not in keep]
        axes = [s - 1 for s in keep] + [n + s - 1 for s in keep]
        axes += [s - 1 for s in gone] + [n + s - 1 for s in gone]
        d, m = 2 ** len(keep), 2 ** len(gone)
        # kept row, kept column, then the traced row and column, equal
        terms = positions.transpose(axes).reshape(d, d, m, m).diagonal(axis1=2, axis2=3)
        return np.moveaxis(terms, -1, 0)

    pairs = np.stack([traced(pair) for pair in PAIRS], axis=1)
    sites = np.stack([traced((site,)) for site in SITES], axis=1)
    cuts = np.stack([positions.swapaxes(site - 1, n + site - 1).reshape(2**n, 2**n)
                     for site in SITES])
    for arr in (pairs, sites, cuts):
        arr.setflags(write=False)
    return pairs, sites, cuts


# the columns of a run's correlation reports, one row per point, in PAIRS and
# SITES order; up to ppt3 they are the CSV's correlation columns in its order
CORRELATION_COLUMNS = (
    "I12", "I13", "I23", "mibound12", "mibound13", "mibound23",
    "xres12", "xres13", "xres23", "ppt1", "ppt2", "ppt3",
    "r23re12", "r23re13", "r23re23", "r23im12", "r23im13", "r23im23",
)


def _correlation_rows(rhos: np.ndarray, params) -> list:
    """The correlation reports of an (N, 8, 8) stack rhos, as rows of CORRELATION_COLUMNS.

    params[k] is that of rhos[k]. Each bound's current is reconstructed
    from the state itself as C = 8 J Im(r23), so the bounds stay meaningful
    for both bath models; a pair with J = 0 carries no current and gets a
    zero bound. The three pair reductions, the three
    single-site reductions and the three partial transposes of every state
    are each one gather of the flattened stack at the cached indices of
    _reduction_gathers, and each kind goes through one eigvalsh call. The
    X-form residual is np.linalg.norm's own sqrt(x.real . x.real + x.imag .
    x.imag), as dot products of all the pairs at once. The mutual
    informations and the bounds are taken point by point. Every number is
    the one the stack of that state alone gives, and bitwise that of
    mutual_information, x_state_analysis and ppt_check.
    """
    if rhos.shape[1:] != (2**N_SITES, 2**N_SITES):
        raise DomainError(f"expected a {N_SITES}-qubit state, got shape {rhos.shape[1:]}")
    pair_index, site_index, cut_index = _reduction_gathers()
    flat = rhos.reshape(len(rhos), -1)
    # + 0.0 turns a sum of -0.0 terms into the +0.0 that np.einsum's
    # partial trace, summing from +0.0, gives
    pairs = flat.take(pair_index, axis=1).sum(axis=1) + 0.0
    s_pair = _entropies(pairs).tolist()
    s_site = _entropies(flat.take(site_index, axis=1).sum(axis=1) + 0.0).tolist()
    lam_min = np.linalg.eigvalsh(flat.take(cut_index, axis=1)).min(axis=2).tolist()
    hermitian = herm(pairs)
    # (N, 3, 1, 10) rows against (N, 3, 10, 1) columns: one dot product per pair
    outside = hermitian[:, :, None, ~_X_PATTERN]
    re, im = outside.real, outside.imag
    residual = np.sqrt(re @ re.swapaxes(2, 3) + im @ im.swapaxes(2, 3)).reshape(-1, 3).tolist()
    r23 = hermitian[:, :, 1, 2]
    rows = []
    for p, s_pair_k, s_site_k, lam_k, residual_k, re_k, im_k in zip(
            params, s_pair, s_site, lam_min, residual, r23.real.tolist(), r23.imag.tolist()):
        mi, bounds = [], []
        for (i, j), s_ij, im_ij in zip(PAIRS, s_pair_k, im_k):
            mi.append(s_site_k[i - 1] + s_site_k[j - 1] - s_ij)
            J = p.pair_value("J", i, j)
            bounds.append(mi_lower_bound(8.0 * J * im_ij, J) if J > 0.0 else 0.0)
        rows.append(mi + bounds + residual_k + lam_k + re_k + im_k)
    return rows


def _correlation_view(cells) -> CorrelationReport:
    """The CorrelationReport of one row of CORRELATION_COLUMNS, as a list of floats."""
    lam = cells[9:12]
    return CorrelationReport(
        I=dict(zip(PAIRS, cells[0:3])),
        x_form_residual=dict(zip(PAIRS, cells[6:9])),
        mi_bound=dict(zip(PAIRS, cells[3:6])),
        r23=dict(zip(PAIRS, map(complex, cells[12:15], cells[15:18]))),
        ppt_negative=tuple(v < _PPT_FLOOR for v in lam),
        ppt_min_eigenvalues=tuple(lam),
    )
