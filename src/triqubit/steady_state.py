"""Steady-state extraction and the independent evolution oracle.

Both generators conserve the magnetization difference m(a) - m(b) of
|a><b| (Buca and Prosen, New J. Phys. 14, 073007, 2012), so in the
eigenbasis of H the vectorized generator L splits into exact blocks, one
per difference: 20 + 2*15 + 2*6 + 2*1 for three qubits. Every Lindblad
generator preserves Hermiticity, L(X^dag) = L(X)^dag, so the -dm block is
the +dm block conjugated, on the swapped positions |b><a| of its |a><b|,
and has the same singular values. The builders therefore hand over only
the dm >= 0 half, one block per stack of Spectrum.liouville_block_groups.
SVDs of those four blocks, singular values only and one call per stack,
certify that the null space of L is one-dimensional: each dm > 0 singular
value counts twice, for its mirror, and sigma_max is the largest of them.
The state and the trace functional live in the 20-dimensional dm = 0
block L_0, and the state solves it with row 0 replaced by the trace
functional,

    A x = e_0,    A = L_0 with row 0 set to vec(I)^H,

by mixed-precision iterative refinement (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 12): started from zero, four
double-precision solves of A, each on a residual evaluated in 80-bit
precision. Every coherence between magnetization sectors is exactly zero.
The harmonic model's population solve on the summed 8x8 rate matrix, tried
first whenever the secular clusters decouple, runs through the same loop;
its state is taken without the block solve when its residual sits at the
roundoff floor. In the eigenbasis the coherent part of the generator is
exactly diagonal, so the residual evaluation error scales with the
dissipative rates instead of ||H||, and row 0 is the ground-state balance.

A fully secular harmonic point, each of whose Bohr-frequency clusters
holds a single transition, needs no block at all: its generator is the
8x8 Pauli rate matrix on the populations and diagonal on the 56
coherences. One SVD of the rate matrix and the moduli of that diagonal
certify it by the same rule, its residual is taken on the rate matrix,
and its blocks are never built. Every bundled harmonic point is of this
kind; the block route stays for the others and as the fallback.

The evolution oracle, steady_state_via_evolution on the computational-basis
generator of build_liouvillian, shares none of that solve. It stays in the
package because bench/gate.py and the acceptance tests call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CLD, coherent_superop, herm, unvec, vec
from .errors import (
    DegenerateSteadyStateError,
    DomainError,
    NumericalConsistencyError,
)
from .global_me import build_global_generators, site_rate_matrices
from .local_me import build_local_generators
from .model import BATH_HARMONIC, Generators, ModelParams

_NULL_TOL = 1e-10  # singular values below _NULL_TOL * sigma_max count as null
_FLOOR = 1e-12  # a residual below _FLOOR * sigma_max is at the roundoff floor


@dataclass(frozen=True)
class SteadyStateResult:
    """A steady state of a whole generator and the norm of L vec(rho)."""

    rho: np.ndarray
    residual: float


def _check_trace_preserving(trace_rows, parts, weights) -> None:
    """Raises unless the columns of trace_rows sum to zero at the generator's scale.

    trace_rows are the generator's rows at the positions of the trace
    functional; the scale is the Frobenius norm of the generator, which
    is made of parts, each counted weights[i] times.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.linalg.norm(trace_rows.sum(axis=0)))
        scale = float(np.sqrt(sum(w * np.vdot(b, b).real for w, b in zip(weights, parts))))
    if not math.isfinite(scale):
        raise NumericalConsistencyError(f"generator norm is not finite ({scale})")
    if defect > 1e-10 * max(scale, 1e-300):
        raise DomainError(f"generator is not trace-preserving (defect {defect:.3e})")


def _residual(diag_ld: np.ndarray, offdiag_ld: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L @ x in extended precision, with L split as diag(diag_ld) + offdiag_ld."""
    x_ld = x.astype(CLD)
    return diag_ld * x_ld + offdiag_ld @ x_ld


def _refine(A: np.ndarray, b: np.ndarray, apply) -> np.ndarray:
    """Solve A x = b by iterative refinement; x accumulates in b's dtype.

    Starts from zero and takes four double-precision solves of A, each on
    the residual b - apply(x) that apply evaluates in extended precision.
    A singular A raises np.linalg.LinAlgError.
    """
    x = np.zeros_like(b)
    for _ in range(4):
        x = x + np.linalg.solve(A, (b - apply(x)).astype(A.dtype)).astype(b.dtype)
    return x


def _trace_one_state(L: np.ndarray, on_diag: np.ndarray, diag_ld: np.ndarray,
                     offdiag_ld: np.ndarray):
    """Trace-one null vector of L and the norm of its residual L @ x.

    Row 0 of L is replaced by the trace functional, which is one at the
    positions on_diag; the other rows keep their residual from _residual on
    the extended-precision split of L.
    """
    d2 = L.shape[0]
    A = L.astype(complex)
    A[0] = 0.0
    A[0, on_diag] = 1.0
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0

    def apply(x):
        r = _residual(diag_ld, offdiag_ld, x)
        r[0] = x[on_diag].sum(dtype=CLD)
        return r

    x = _refine(A, b, apply)
    return x, float(np.linalg.norm(_residual(diag_ld, offdiag_ld, x).astype(complex)))


def _finalize_state(x: np.ndarray) -> np.ndarray:
    rho = herm(unvec(x))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-14:
        raise DegenerateSteadyStateError("null vector is traceless; cannot normalize")
    rho = rho / tr
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -1e-10:
        raise NumericalConsistencyError(f"steady state has negative eigenvalue {lo:.3e}")
    return rho


def _unique_null_scale(blocks, weights, on_diag: np.ndarray) -> float:
    """sigma_max of a trace-preserving generator whose null space is one-dimensional.

    The generator is given by its diagonal blocks, stacked by size, and is
    zero outside them. Each block of blocks[i] counts weights[i] times: for
    itself and for the mirror blocks that share its singular values and its
    norm. blocks[0][0] holds the trace functional, which is one at its
    positions on_diag. The singular values are taken with one SVD call per
    stack; _null_scale counts them.
    """
    _check_trace_preserving(blocks[0][0][on_diag], blocks, weights)
    # a stacked call returns the same bits as one call per block
    return _null_scale([np.linalg.svd(b, compute_uv=False).ravel() for b in blocks], weights)


def _pauli_scale(M: np.ndarray, energies: np.ndarray) -> float:
    """sigma_max of a fully secular generator whose null space is one-dimensional.

    M is the summed longdouble rate matrix. Such a generator is, in the
    eigenbasis of H, the Pauli rate matrix M on the populations and
    diagonal on the coherences (Breuer and Petruccione, The Theory of Open
    Quantum Systems, 2002):

        L |a><c| = (-i (E_a - E_c) - (G_a + G_c) / 2) |a><c|,  G_a = -M_aa,

    so its singular values are those of the real d x d matrix M and the
    moduli of the d (d - 1) coherence eigenvalues, each coherence and its
    mirror |c><a| counted apart. _null_scale counts them as it counts the
    blocks' singular values; the columns of M carry the trace functional.
    """
    # an overflow leaves a non-finite norm, which the check reports
    with np.errstate(over="ignore", invalid="ignore"):
        M = M.astype(float)
        loss = -np.diagonal(M)
        omega = energies[:, None] - energies[None, :]
        coherent = -1j * omega - 0.5 * (loss[:, None] + loss[None, :])
        moduli = np.abs(coherent[~np.eye(energies.size, dtype=bool)])
    _check_trace_preserving(M, (M, moduli), (1, 1))
    return _null_scale([np.linalg.svd(M, compute_uv=False), moduli], (1, 1))


def _null_scale(singular_values, weights) -> float:
    """sigma_max, the largest of singular_values, when one of them is null.

    Each value of singular_values[i] counts weights[i] times. Values below
    _NULL_TOL * sigma_max count as null; a null space of any dimension
    other than one raises.
    """
    s = singular_values
    sigma_max = float(max(x.max() for x in s))
    if sigma_max == 0.0:
        raise DegenerateSteadyStateError("zero generator: every state is steady")
    dim = sum(w * int(np.sum(x <= _NULL_TOL * sigma_max)) for w, x in zip(weights, s))
    if dim == 0:
        smallest = min(x.min() for x in s)
        raise NumericalConsistencyError(
            f"no null vector within tolerance (smallest singular value {smallest:.3e})"
        )
    if dim > 1:
        raise DegenerateSteadyStateError(f"steady state is degenerate (null dimension {dim})")
    return sigma_max


def _build_generators(p: ModelParams) -> Generators:
    # a bath whose rates overflow is a DomainError of its builder
    with np.errstate(over="ignore", invalid="ignore"):
        if p.bath_model == BATH_HARMONIC:
            return build_global_generators(p)
        return build_local_generators(p)


def build_liouvillian(p: ModelParams) -> np.ndarray:
    """Full 64x64 generator in the computational basis, for the oracle.

    bench/gate.py and the acceptance tests call it; the solve does not.
    """
    gen = _build_generators(p)
    return coherent_superop(gen.H) + gen.dissipators[0] + gen.dissipators[1] + gen.dissipators[2]


@dataclass(frozen=True)
class PointSolution:
    """Solved steady state of one parameter point, with generator context."""

    params: ModelParams
    generators: Generators
    rho: np.ndarray
    rho_eig: np.ndarray = field(repr=False)
    residual: float = 0.0
    nullspace_dim: int = 1
    populations: np.ndarray = None  # set when the harmonic population solve applies
    rate_matrices: tuple = None  # per-site 8x8 rate matrices, harmonic model
    population_closed: bool = None


def solve_point(p: ModelParams) -> PointSolution:
    """Build generators for a parameter point and solve in the eigenbasis.

    A fully secular harmonic point is certified and solved on its Pauli
    rate matrix alone, when its population state has a residual at the
    roundoff floor. Every other point goes through the blocks: every
    magnetization-difference block is certified, the -dm ones through
    their dm mirrors, and the state is solved in the dm = 0 block, which
    holds it and the trace functional.
    """
    gen = _build_generators(p)
    rate_matrices = closed = solved = None
    if p.bath_model == BATH_HARMONIC:
        rate_matrices, closed, secular = site_rate_matrices(gen)
        if secular:
            solved = _pauli_state(sum(rate_matrices), gen.spectrum.energies)
    if solved is None:
        solved = _block_state(gen, rate_matrices if closed else None)
    x, res, populations = solved
    if not math.isfinite(res):
        raise NumericalConsistencyError(f"steady-state residual is not finite ({res})")
    rho_eig = _finalize_state(x)
    V = gen.spectrum.vectors
    rho = herm(V @ rho_eig @ V.conj().T)
    return PointSolution(
        params=p,
        generators=gen,
        rho=rho,
        rho_eig=rho_eig,
        residual=res,
        nullspace_dim=1,
        populations=populations,
        rate_matrices=rate_matrices,
        population_closed=closed,
    )


def _pauli_state(M: np.ndarray, energies: np.ndarray):
    """(vec rho, residual, populations) of a fully secular point, or None.

    Certifies the generator with _pauli_scale and takes the populations of
    _refined_population; its residual is |M p| in extended precision. The
    coherences of the state are exactly zero. Returns None, for the block
    solve, when there are no populations or their residual is above the
    roundoff floor of the block solve.
    """
    sigma_max = _pauli_scale(M, energies)
    populations = _refined_population(M, energies)
    if populations is None:
        return None
    res = float(np.linalg.norm((M @ populations).astype(float)))
    if res > _FLOOR * sigma_max:
        return None
    return vec(np.diag(populations.astype(complex))), res, populations


def _block_state(gen: Generators, rate_matrices):
    """(vec rho, residual, populations) from the eigen blocks of gen.

    rate_matrices, the harmonic model's when its clusters are closed and
    None otherwise, offer the population state first; populations is None
    unless it is taken.
    """
    E = gen.spectrum.energies
    lam = (-1j * (E[:, None] - E[None, :])).reshape(-1, order="F")
    groups = gen.spectrum.liouville_block_groups
    blocks = []
    for index, D in zip(groups, gen.eigen_blocks):
        # the coherent part is diagonal: a zero stack with lam on its
        # diagonals, plus D, as np.diag(lam[index[0]]) + D[0] is
        coherent = np.zeros_like(D)
        diag = np.arange(index.shape[1])
        coherent[:, diag, diag] = lam[index[:1]]
        blocks.append(coherent + D)
    index, D = groups[0][0], gen.eigen_blocks[0][0]
    # index is ascending and starts at vec position 0, the ground-state
    # population, whose row the trace functional replaces
    on_diag = np.flatnonzero(index % (E.size + 1) == 0)
    # each block of a stack of k rows stands for itself and its k - 1 mirrors
    sigma_max = _unique_null_scale(blocks, [g.shape[0] for g in groups], on_diag)
    diag_ld = lam[index].astype(CLD)
    offdiag_ld = D.astype(CLD)

    populations = refined = None
    res_ref = math.inf  # residual of the population state, when there is one
    if rate_matrices is not None:
        refined = _refined_population(sum(rate_matrices), E)
        if refined is not None:
            x_ref = vec(np.diag(refined.astype(complex)))[index]
            res_ref = float(np.linalg.norm(_residual(diag_ld, offdiag_ld, x_ref).astype(complex)))
    # the diagonal form is exact for closed clusters: at the roundoff floor
    # it needs no generic solve, and above it, it is used unless its
    # residual is materially worse than the generic solve's (which would
    # mean the closure call was wrong)
    floor = _FLOOR * sigma_max
    if res_ref > floor:
        x, res = _trace_one_state(blocks[0][0], on_diag, diag_ld, offdiag_ld)
    if refined is not None and (res_ref <= floor or res_ref <= res):
        x, res, populations = x_ref, res_ref, refined
    x_full = np.zeros(E.size**2, dtype=complex)
    x_full[index] = x
    return x_full, res, populations


def _dropped_row(energies: np.ndarray) -> int:
    """The balance row a population solve replaces by the trace functional.

    The enforced rows balance to the arithmetic's floor, so whatever
    column-sum defect the rate matrices carry lands entirely on the dropped
    one; it is parked on the level nearest zero energy, where it perturbs
    the energy balance least.
    """
    return int(np.argmin(np.abs(energies)))


def _refined_population(M: np.ndarray, energies: np.ndarray):
    """Extended-precision stationary populations of the summed longdouble rate matrix M.

    Solves the trace-bordered 8x8 balance equations with _refine on
    longdouble residuals. The population residual then sits at the
    longdouble floor, orders of magnitude below what the 64x64 solve can
    reach, which is what lets per-bath heat currents cancel to the
    first-law tolerance even when transport is very weak. Returns None
    when the system is singular or the result is not a distribution.
    """
    d = M.shape[0]
    k = _dropped_row(energies)
    A = M.copy()
    A[k, :] = 1.0
    b = np.zeros(d, dtype=np.longdouble)
    b[k] = 1.0
    A_dbl = A.astype(float)
    try:
        p = _refine(A_dbl, b, lambda v: A @ v)
    except np.linalg.LinAlgError:
        return None
    r = b - A @ p
    row_scale = float(np.abs(A_dbl).sum(axis=1).max())
    if float(np.linalg.norm(r.astype(float))) > 1e-13 * max(row_scale, 1e-300):
        return None
    if float(p.min().astype(float)) < -1e-12:
        return None
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def evolve_oracle(L: np.ndarray, rho0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Propagate vec(rho' ) = L vec(rho) with fixed-step classical 4th order.

    The one-step map is the degree-4 Taylor polynomial of exp(h L), exactly
    the RK4 update for a linear system; it is applied through binary powering
    so the step count (up to ~1e9 at weak damping) costs only log2(n) matrix
    products. The exact flow leaves the trace functional invariant, and each
    squaring re-attaches it to the powered map; without that, the roundoff
    in vec(I)^H L accumulates linearly over the full evolution time.
    """
    if t_final <= 0.0 or dt <= 0.0:
        raise DomainError("t_final and dt must be positive")
    norm2 = float(np.linalg.norm(L, 2))
    if dt * norm2 > 0.1 * (1.0 + 1e-9):
        raise DomainError(f"dt * ||L|| = {dt * norm2:.3e} exceeds the stability budget 0.1")
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    n_steps = max(1, int(math.ceil(t_final / dt)))
    h = t_final / n_steps
    hL = h * L
    eye = np.eye(d2, dtype=complex)
    P = eye + hL @ (eye + hL @ (eye / 2.0 + hL @ (eye / 6.0 + hL / 24.0)))

    u = vec(np.eye(d, dtype=complex))

    def retrace(M):
        M -= np.outer(u, u @ M - u) / d
        return M

    P = retrace(P)
    v = vec(rho0).astype(complex)
    tr0 = float(np.trace(rho0).real)
    n = n_steps
    while n:
        if n & 1:
            v = P @ v
        n >>= 1
        if n:
            P = retrace(P @ P)
    rho = herm(unvec(v))
    drift = abs(float(np.trace(rho).real) - tr0)
    if drift > 1e-9:
        raise NumericalConsistencyError(f"trace drifted by {drift:.3e} during evolution")
    return rho


def relaxation_time(L: np.ndarray) -> float:
    """1/gap of the slowest decaying mode, excluding the steady mode."""
    norm2 = float(np.linalg.norm(L, 2))
    if norm2 == 0.0:
        raise DomainError("zero generator has no relaxation time")
    ev = np.linalg.eigvals(L)
    decaying = ev[np.abs(ev) > 1e-12 * norm2]
    rates = -decaying.real
    rates = rates[rates > 1e-14 * norm2]
    if rates.size == 0:
        raise DomainError("generator has no decaying mode")
    return 1.0 / float(rates.min())


def steady_state_via_evolution(
    L: np.ndarray, rho0: np.ndarray = None, t_final: float = None, dt: float = None
) -> SteadyStateResult:
    """Independent steady-state estimate by long-time propagation."""
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    if rho0 is None:
        rho0 = np.eye(d, dtype=complex) / d
    if t_final is None:
        t_final = 50.0 * relaxation_time(L)
    if dt is None:
        dt = 0.05 / float(np.linalg.norm(L, 2))
    rho = evolve_oracle(L, rho0, t_final, dt)
    res = float(np.linalg.norm(L @ vec(rho)))
    return SteadyStateResult(rho=rho, residual=res)
