"""Steady-state extraction and the independent evolution oracle.

The steady state is the null vector of the vectorized generator, found by SVD
and then polished by Newton iterations on the trace-bordered system

    [ L ] x = [0]      with residuals evaluated in 80-bit precision.
    [ t ]     [1]

Polishing matters: the raw SVD vector carries an error of order
eps * ||L|| / gap along the slowest decaying mode, which is what heat-current
sums inherit. The package pipeline additionally works in the eigenbasis of H,
where the coherent part of the generator is exactly diagonal, so the residual
evaluation error scales with the dissipative rates instead of ||H||; for the
harmonic model the population sector is re-solved exactly from the 8x8 rate
matrix whenever it decouples.
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
from .model import BATH_HARMONIC, ModelParams, Spectrum, sector_spectrum

_NULL_TOL = 1e-10  # singular values below _NULL_TOL * sigma_max count as null


@dataclass(frozen=True)
class SteadyStateResult:
    rho: np.ndarray
    residual: float
    nullspace_dim: int
    method: str  # "nullspace" or "evolution"


def _check_trace_preserving(L: np.ndarray, d: int) -> None:
    tvec = vec(np.eye(d, dtype=complex))
    defect = float(np.linalg.norm(tvec.conj() @ L))
    if defect > 1e-10 * max(float(np.linalg.norm(L, "fro")), 1e-300):
        raise DomainError(f"generator is not trace-preserving (defect {defect:.3e})")


def _residual(diag_ld: np.ndarray, offdiag_ld: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L @ x in extended precision, with L split as diag(diag_ld) + offdiag_ld."""
    x_ld = x.astype(CLD)
    return diag_ld * x_ld + offdiag_ld @ x_ld


def _newton_polish(L: np.ndarray, v0: np.ndarray, diag_ld: np.ndarray, offdiag_ld: np.ndarray):
    """Refine a null-vector candidate; returns (x, residual_norm).

    Residuals come from _residual on the clongdouble split of L. In the
    eigenbasis pipeline the diagonal is the coherent part, and the split
    keeps the evaluation error proportional to the dissipative rates.
    """
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    tvec = vec(np.eye(d, dtype=complex))
    # scale the trace row into the singular-value range of L for a balanced QR
    row_scale = max(float(np.linalg.norm(L, "fro")) / math.sqrt(d2), 1e-300)
    row = (tvec.conj() * row_scale).astype(complex)
    J = np.vstack([L, row[None, :]])
    q, r = np.linalg.qr(J)

    row_ld = row.astype(CLD)

    # start from the trace-normalized candidate
    tr0 = tvec.conj() @ v0
    x = v0 / tr0

    def full_residual(xv):
        return _residual(diag_ld, offdiag_ld, xv), row_ld @ xv.astype(CLD) - row_scale

    best_x = x
    best_norm = None
    for _ in range(8):
        top, bottom = full_residual(x)
        norm = float(np.sqrt((np.abs(top) ** 2).sum() + abs(bottom) ** 2).astype(float))
        if best_norm is None or norm < best_norm:
            best_norm, best_x = norm, x
        elif norm >= best_norm:
            break
        f = np.concatenate([top.astype(complex), [complex(bottom)]])
        try:
            step = np.linalg.solve(r, q.conj().T @ f)
        except np.linalg.LinAlgError:
            break
        x = x - step
    top, bottom = full_residual(best_x)
    res = float(np.linalg.norm(top.astype(complex)))
    return best_x, res


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


def _null_vector(L: np.ndarray):
    """Unique null vector of a trace-preserving generator, by SVD.

    Returns (v, sigma_max). Singular values below _NULL_TOL * sigma_max
    count as null; a null space of any dimension other than one raises.
    """
    _check_trace_preserving(L, int(round(math.sqrt(L.shape[0]))))
    s, vh = np.linalg.svd(L)[1:]
    sigma_max = float(s[0])
    if sigma_max == 0.0:
        raise DegenerateSteadyStateError("zero generator: every state is steady")
    dim = int(np.sum(s <= _NULL_TOL * sigma_max))
    if dim == 0:
        raise NumericalConsistencyError(
            f"no null vector within tolerance (smallest singular value {s[-1]:.3e})"
        )
    if dim > 1:
        raise DegenerateSteadyStateError(f"steady state is degenerate (null dimension {dim})")
    return vh[-1].conj(), sigma_max


def solve_steady_state(L: np.ndarray) -> SteadyStateResult:
    """Unique steady state of a trace-preserving generator via SVD null space."""
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    if L.ndim != 2 or L.shape[1] != d2 or d * d != d2:
        raise DomainError(f"generator shape {L.shape} is not a vectorized square map")
    v, _ = _null_vector(L)
    x, res = _newton_polish(L, v, np.zeros(d2, dtype=CLD), L.astype(CLD))
    return SteadyStateResult(rho=_finalize_state(x), residual=res, nullspace_dim=1, method="nullspace")


def _build_generators(p: ModelParams):
    if p.bath_model == BATH_HARMONIC:
        return build_global_generators(p)
    return build_local_generators(p)


def build_liouvillian(p: ModelParams) -> np.ndarray:
    """Full 64x64 generator in the computational basis, for the oracle."""
    gen = _build_generators(p)
    return coherent_superop(gen.H) + gen.dissipators[0] + gen.dissipators[1] + gen.dissipators[2]


@dataclass(frozen=True)
class PointSolution:
    """Solved steady state of one parameter point, with generator context."""

    params: ModelParams
    generators: object  # GlobalGenerators or LocalGenerators
    spectrum: Spectrum
    rho: np.ndarray
    rho_eig: np.ndarray = field(repr=False)
    residual: float = 0.0
    nullspace_dim: int = 1
    method: str = "nullspace"
    populations: np.ndarray = None  # set when the harmonic population solve applies
    rate_matrices: tuple = None  # per-site 8x8 rate matrices, harmonic model
    population_closed: bool = None


def solve_point(p: ModelParams) -> PointSolution:
    """Build generators for a parameter point and solve in the eigenbasis."""
    gen = _build_generators(p)
    spectrum = gen.spectrum if p.bath_model == BATH_HARMONIC else sector_spectrum(gen.H)
    V = spectrum.vectors
    E = spectrum.energies
    W = np.kron(V.conj(), V)  # vec(V X V^dag) = W vec(X)
    diss_eig = [W.conj().T @ D @ W for D in gen.dissipators]
    lam = (-1j * (E[:, None] - E[None, :])).reshape(-1, order="F")
    L_eig = np.diag(lam) + diss_eig[0] + diss_eig[1] + diss_eig[2]
    v, sigma_max = _null_vector(L_eig)
    diag_ld = lam.astype(CLD)
    offdiag_ld = (diss_eig[0] + diss_eig[1] + diss_eig[2]).astype(CLD)
    x, res = _newton_polish(L_eig, v, diag_ld, offdiag_ld)

    populations = None
    rate_matrices = None
    closed = None
    if p.bath_model == BATH_HARMONIC:
        rate_matrices, closed = site_rate_matrices(gen)
        if closed:
            refined = _refined_population(rate_matrices, x, spectrum.energies)
            if refined is not None:
                x_ref = vec(np.diag(refined.astype(complex)))
                top = _residual(diag_ld, offdiag_ld, x_ref)
                res_ref = float(np.linalg.norm(top.astype(complex)))
                # the diagonal form is exact for closed clusters; use it
                # unless its residual is materially worse than the generic
                # solve (which would mean the closure call was wrong)
                if res_ref <= max(res, 1e-12 * sigma_max):
                    x, res = x_ref, res_ref
                    populations = refined

    rho_eig = _finalize_state(x)
    if populations is not None:
        # keep the exactly diagonal form; _finalize_state only rescaled it
        rho_eig = np.diag(np.diag(rho_eig))
    rho = herm(V @ rho_eig @ V.conj().T)
    return PointSolution(
        params=p,
        generators=gen,
        spectrum=spectrum,
        rho=rho,
        rho_eig=rho_eig,
        residual=res,
        nullspace_dim=1,
        method="nullspace",
        populations=populations,
        rate_matrices=rate_matrices,
        population_closed=closed,
    )


def _refined_population(rate_matrices, x: np.ndarray, energies: np.ndarray):
    """Extended-precision stationary populations of the summed rate matrix.

    Solves the trace-bordered 8x8 balance equations by iterative refinement
    (double-precision factor, longdouble residuals), seeded from the
    diagonal of the solved state. The population residual then sits at the
    longdouble floor, orders of magnitude below what the 64x64 solve can
    reach, which is what lets per-bath heat currents cancel to the
    first-law tolerance even when transport is very weak. Returns None
    when the system is singular or the result is not a distribution.
    """
    M = sum(m.astype(np.longdouble) for m in rate_matrices)
    d = M.shape[0]
    p0 = np.real(np.diag(unvec(x)))
    total = float(p0.sum())
    if not np.isfinite(total) or abs(total) < 1e-14:
        return None
    # the enforced rows balance to the longdouble floor, so whatever
    # column-sum defect the matrices carry lands entirely on the dropped
    # one; park it on the level nearest zero energy, where it perturbs
    # the energy balance least
    k = int(np.argmin(np.abs(energies)))
    A = M.copy()
    A[k, :] = 1.0
    b = np.zeros(d, dtype=np.longdouble)
    b[k] = 1.0
    A_dbl = A.astype(float)
    p = (p0 / total).astype(np.longdouble)
    for _ in range(4):
        r = b - A @ p
        try:
            delta = np.linalg.solve(A_dbl, r.astype(float))
        except np.linalg.LinAlgError:
            return None
        p = p + delta.astype(np.longdouble)
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
    return SteadyStateResult(rho=rho, residual=res, nullspace_dim=None, method="evolution")
