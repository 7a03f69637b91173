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
The harmonic model's populations, tried first whenever the secular
clusters decouple, come instead from GTH state reduction of the summed 8x8
rate matrix, which never subtracts; that state is taken without the block
solve when its residual sits at the roundoff floor. In the eigenbasis the
coherent part of the generator is exactly diagonal, so the residual
evaluation error scales with the dissipative rates instead of ||H||, and
row 0 is the ground-state balance.

A fully secular harmonic point, each of whose Bohr-frequency clusters
holds a single transition, needs no block at all: its generator is the
8x8 Pauli rate matrix on the populations and diagonal on the 56
coherences. One SVD of the rate matrix and the moduli of that diagonal
certify it by the same rule, its residual is taken on the rate matrix,
and its blocks are never built. Every bundled harmonic point is of this
kind; the block route stays for the others and as the fallback.

solve_points solves a run of points of one bath model; solve_point is a
run of one. The points whose sorted spectra carry the same magnetization
labels, and so share one block layout, go through the block route as
(N, ...) stacks, and V rho V^dag is one stack over the run; a harmonic
point brings its own eigen blocks, its clustering being its own. Each
stacked step returns for every point the bits it returns for that point
alone, and every check is made per point.

The evolution oracle, steady_state_via_evolution on the computational-basis
generator of build_liouvillian, shares none of that solve. It stays in the
package because bench/gate.py and the acceptance tests call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import local_me
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
    """Raises unless each point's trace rows sum to zero at its generator's scale.

    trace_rows[k] are the rows of point k's generator at the positions of
    the trace functional; the scale is the Frobenius norm of that
    generator, which is made of parts[i][k], each counted weights[i] times.
    Each point is checked as it would be alone, and the first that fails
    raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for k, defect in enumerate(trace_rows.sum(axis=1)):
            defect = float(np.linalg.norm(defect))
            squares = (w * np.vdot(b[k], b[k]).real for w, b in zip(weights, parts))
            scale = float(np.sqrt(sum(squares)))
            if not math.isfinite(scale):
                raise NumericalConsistencyError(f"generator norm is not finite ({scale})")
            if defect > 1e-10 * max(scale, 1e-300):
                raise DomainError(f"generator is not trace-preserving (defect {defect:.3e})")


def _residual(diag_ld: np.ndarray, offdiag_ld: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L @ x in extended precision, with L split as diag(diag_ld) + offdiag_ld.

    On stacks, x and diag_ld hold column vectors, (N, n, 1), for the (N, n,
    n) stack offdiag_ld.
    """
    x_ld = x.astype(CLD)
    return diag_ld * x_ld + offdiag_ld @ x_ld


def _refine(A: np.ndarray, b: np.ndarray, apply) -> np.ndarray:
    """Solve A x = b by iterative refinement; x accumulates in b's dtype.

    Starts from zero and takes four double-precision solves of A, each on
    the residual b - apply(x) that apply evaluates in extended precision.
    A singular A raises np.linalg.LinAlgError. A stack of A takes a stack
    of column vectors b, (N, n, 1).
    """
    x = np.zeros_like(b)
    for _ in range(4):
        x = x + np.linalg.solve(A, (b - apply(x)).astype(A.dtype)).astype(b.dtype, copy=False)
    return x


def _norms(r: np.ndarray) -> list:
    """The 2-norm of each of a stack of vectors, as one np.linalg.norm call on it returns it."""
    return [float(np.linalg.norm(v)) for v in r.astype(complex)]


def _trace_one_state(L: np.ndarray, on_diag: np.ndarray, diag_ld: np.ndarray,
                     offdiag_ld: np.ndarray):
    """Trace-one null vectors of a stack of L and the norms of their residuals L @ x.

    Row 0 of each L is replaced by the trace functional, which is one at
    the positions on_diag; the other rows keep their residual from
    _residual on the extended-precision split of L. x comes as a stack of
    column vectors, as diag_ld does.
    """
    A = L.astype(complex)
    A[:, 0] = 0.0
    A[:, 0, on_diag] = 1.0
    b = np.zeros(diag_ld.shape, dtype=complex)
    b[:, 0] = 1.0

    def apply(x):
        r = _residual(diag_ld, offdiag_ld, x)
        r[:, 0] = x.take(on_diag, axis=1).sum(axis=1, dtype=CLD)
        return r

    x = _refine(A, b, apply)
    return x, _norms(_residual(diag_ld, offdiag_ld, x))


def _finalize_state(x: np.ndarray) -> np.ndarray:
    """The (N, d, d) states of a stack of vec rho, each Hermitian with trace one."""
    d = math.isqrt(x.shape[1])
    rho = herm(x.reshape(-1, d, d).swapaxes(1, 2))  # unvec of each
    tr = rho.trace(axis1=1, axis2=2).real
    if np.count_nonzero(abs(tr) < 1e-14):
        raise DegenerateSteadyStateError("null vector is traceless; cannot normalize")
    rho = rho / tr[:, None, None]
    lo = np.minimum.reduce(np.linalg.eigvalsh(rho), axis=1)
    if np.count_nonzero(lo < -1e-10):
        raise NumericalConsistencyError(
            f"steady state has negative eigenvalue {lo[lo < -1e-10][0]:.3e}")
    return rho


def _unique_null_scale(blocks, weights, on_diag: np.ndarray) -> np.ndarray:
    """sigma_max of each of a stack of generators, all trace-preserving with a 1-d null space.

    Each generator is given by its diagonal blocks, one of each size, and
    is zero outside them: blocks[i] stacks the points' blocks of the i-th
    size, point k's at [k]. Each block of blocks[i] counts weights[i]
    times: for itself and for the mirror blocks that share its singular
    values and its norm. blocks[0] holds the trace functional, which is
    one at its positions on_diag. The singular values are taken with one
    SVD call per stack; _null_scale counts them.
    """
    _check_trace_preserving(blocks[0].take(on_diag, axis=1), blocks, weights)
    # a stacked call returns the same bits as one call per block
    return _null_scale([np.linalg.svd(b, compute_uv=False) for b in blocks], weights)


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
    _check_trace_preserving(M[None], (M[None], moduli[None]), (1, 1))
    return float(_null_scale([np.linalg.svd(M, compute_uv=False), moduli], (1, 1)))


def _null_scale(singular_values, weights) -> np.ndarray:
    """sigma_max, the largest of singular_values, of each point when one of them is null.

    singular_values[i] is a (..., m_i) array, its leading axes over the
    points, whose values each count weights[i] times. Values below
    _NULL_TOL * sigma_max count as null; a null space of any dimension
    other than one raises.
    """
    values = np.concatenate(singular_values, axis=-1)
    sigma_max = np.maximum.reduce(values, axis=-1)
    null = values <= _NULL_TOL * sigma_max[..., None]
    dim = null @ np.array(weights).repeat([x.shape[-1] for x in singular_values])
    if not np.count_nonzero((dim != 1) | (sigma_max == 0.0)):
        return sigma_max
    if np.count_nonzero(sigma_max == 0.0):
        raise DegenerateSteadyStateError("zero generator: every state is steady")
    if np.count_nonzero(dim == 0):
        raise NumericalConsistencyError(
            f"no null vector within tolerance (smallest singular value {values.min():.3e})"
        )
    raise DegenerateSteadyStateError(f"steady state is degenerate (null dimension {dim.max()})")


def _build_generators(points) -> list:
    """The Generators of a sequence of points of one bath model, one record each."""
    if len({p.bath_model for p in points}) > 1:
        raise DomainError("the points of one solve must share one bath model")
    # a bath whose rates overflow is a DomainError of its builder
    with np.errstate(over="ignore", invalid="ignore"):
        if points[0].bath_model == BATH_HARMONIC:
            return [build_global_generators(p) for p in points]
        return build_local_generators(points)


def build_liouvillian(p: ModelParams) -> np.ndarray:
    """Full 64x64 generator in the computational basis, for the oracle.

    bench/gate.py and the acceptance tests call it; the solve does not.
    """
    gen = _build_generators([p])[0]
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
    """Build generators for a parameter point and solve in the eigenbasis; see solve_points."""
    # the shared route is private, so that bench/tracer.py, which wraps the
    # public functions, times the whole solve of a point as solve_point's
    return _solve_points([p])[0]


def solve_points(points) -> list:
    """Solve a sequence of parameter points in the eigenbasis, one PointSolution each.

    The points share one bath model; a mix raises DomainError. A fully
    secular harmonic point is certified and solved on its Pauli rate
    matrix alone, when its population state has a residual at the
    roundoff floor. Every other point goes through the blocks: every
    magnetization-difference block is certified, the -dm ones through
    their dm mirrors, and the state is solved in the dm = 0 block, which
    holds it and the trace functional, or taken from the populations of
    a closed harmonic point. The points that share a sector order (the
    magnetization labels of the sorted spectrum), and so one block
    layout, go through every step of the block solve as one stack. Each
    step returns for each point the bits it returns for that point alone,
    and a check that fails for any point raises for the whole call.
    """
    return _solve_points(points)


def _solve_points(points) -> list:
    if not points:
        return []
    gens = _build_generators(points)
    rates = [(None, None)] * len(gens)  # (rate_matrices, population_closed) of each point
    solved = [None] * len(gens)  # (vec rho_eig, residual, populations) of each point
    runs: dict = {}
    for k, gen in enumerate(gens):
        if gen.params.bath_model == BATH_HARMONIC:
            rate_matrices, closed, secular = site_rate_matrices(gen)
            rates[k] = rate_matrices, closed
            if secular:
                solved[k] = _pauli_state(sum(rate_matrices), gen.spectrum.energies)
        if solved[k] is None:
            runs.setdefault(gen.spectrum.sectors.tobytes(), []).append(k)
    for members in runs.values():
        states = _block_states([gens[k] for k in members], [rates[k] for k in members])
        for k, state in zip(members, states):
            solved[k] = state
    x, res, populations = zip(*solved)
    for value in res:
        if not math.isfinite(value):
            raise NumericalConsistencyError(f"steady-state residual is not finite ({value})")
    rho_eig = _finalize_state(np.array(x))
    V = np.array([gen.spectrum.vectors for gen in gens])
    rho = herm(V @ rho_eig @ V.conj().swapaxes(1, 2))
    return [
        PointSolution(params=gen.params, generators=gen, rho=rho[k], rho_eig=rho_eig[k],
                      residual=res[k], populations=populations[k],
                      rate_matrices=rates[k][0], population_closed=rates[k][1])
        for k, gen in enumerate(gens)
    ]


def _pauli_state(M: np.ndarray, energies: np.ndarray):
    """(vec rho, residual, populations) of a fully secular point, or None.

    Certifies the generator with _pauli_scale and takes the populations of
    _gth_population; its residual is |M p| in extended precision. The
    coherences of the state are exactly zero. Returns None, for the block
    solve, when the chain is reducible or the residual is above the
    roundoff floor of the block solve.
    """
    sigma_max = _pauli_scale(M, energies)
    populations = _gth_population(M)
    if populations is None:
        return None
    res = float(np.linalg.norm((M @ populations).astype(float)))
    if res > _FLOOR * sigma_max:
        return None
    return vec(np.diag(populations.astype(complex))), res, populations


def _block_states(gens, rates):
    """(vec rho, residual, populations) of each of points that share one block layout.

    gens are the points' Generators, of one bath model and one sector
    order, and rates[k] is point k's (rate_matrices, population_closed).
    A closed harmonic point's summed rate matrix offers its population
    state first; populations is None unless that state is taken.
    """
    count, d = len(gens), gens[0].spectrum.dim
    groups = gens[0].spectrum.liouville_block_groups
    energies = np.array([gen.spectrum.energies for gen in gens])
    # as in Generators.eigen_blocks, whose blocks a harmonic point keeps;
    # local ones are built as stacks over the points
    with np.errstate(over="ignore", invalid="ignore"):
        if gens[0].params.bath_model == BATH_HARMONIC:
            eigen_blocks = [np.concatenate(b) for b in zip(*(gen.eigen_blocks for gen in gens))]
        else:
            eigen_blocks = local_me._eigen_blocks(gens)
    # each point's -i (E_a - E_b) at the vec position a + d b
    lam = (-1j * (energies[:, None, :] - energies[:, :, None])).reshape(count, -1)
    blocks = []
    for index, D in zip(groups, eigen_blocks):
        # the coherent part is diagonal: a zero stack with lam on its
        # diagonals, plus D, as np.diag(lam[index[0]]) + D[0] is
        coherent = np.zeros_like(D)
        coherent.reshape(count, -1)[:, ::index.shape[1] + 1] = lam.take(index[0], axis=1)
        blocks.append(coherent + D)
    index = groups[0][0]
    # index is ascending and starts at vec position 0, the ground-state
    # population, whose row the trace functional replaces
    on_diag = np.flatnonzero(index % (d + 1) == 0)
    # each block of a stack of k rows stands for itself and its k - 1 mirrors
    floor = _FLOOR * _unique_null_scale(blocks, [g.shape[0] for g in groups], on_diag)
    diag_ld = lam.take(index, axis=1)[:, :, None].astype(CLD)
    offdiag_ld = eigen_blocks[0].astype(CLD)

    x = np.zeros((count, index.size, 1), dtype=complex)
    res = [math.inf] * count  # residual of each population state, where there is one
    populations = [None] * count
    for k, (rate_matrices, closed) in enumerate(rates):
        gth = _gth_population(sum(rate_matrices)) if closed else None
        if gth is not None:
            x[k] = vec(np.diag(gth.astype(complex)))[index, None]
            res[k] = _norms(_residual(diag_ld[k:k + 1], offdiag_ld[k:k + 1], x[k:k + 1]))[0]
            populations[k] = gth
    # the diagonal form is exact for closed clusters: at the roundoff floor
    # it needs no generic solve, and above it, it is used unless its
    # residual is materially worse than the generic solve's (which would
    # mean the closure call was wrong); without a population state, res is
    # inf and the generic solve runs, on the stack of the points that need it
    generic = [k for k in range(count) if res[k] > floor[k]]
    if generic:
        rows = slice(None) if len(generic) == count else generic  # views where it can
        x_gen, res_gen = _trace_one_state(blocks[0][rows], on_diag, diag_ld[rows],
                                          offdiag_ld[rows])
        for k, xk, r in zip(generic, x_gen, res_gen):
            if populations[k] is None or not res[k] <= r:
                x[k], res[k], populations[k] = xk, r, None
    x_full = np.zeros((count, d * d), dtype=complex)
    x_full[:, index] = x[..., 0]
    return list(zip(x_full, res, populations))


def _gth_population(M: np.ndarray):
    """Stationary populations of the summed longdouble rate matrix M, or None if reducible.

    GTH state reduction (Grassmann, Taksar and Heyman, Oper. Res. 33, 1107,
    1985) on the off-diagonal rates alone: each pivot is a sum of rates
    out of the state it eliminates, so nothing is ever subtracted and every
    population keeps a small relative error (O'Cinneide, Numer. Math. 65,
    109, 1993). A pivot that is not positive leaves a state with no way
    back to the rest, a reducible chain: returns None.
    """
    d = M.shape[0]
    P = M.T.copy()  # P[b, a]: rate of the jump b -> a; the diagonal is never read
    for k in range(d - 1, 0, -1):
        pivot = np.add.reduce(P[k, :k])
        if not pivot > 0.0:
            return None
        into = P[:k, k]  # a view: the scaled rates into k stay for the back-substitution
        into /= pivot
        P[:k, :k] += into[:, None] * P[k, :k]
    p = np.ones(d, dtype=P.dtype)
    for k in range(1, d):
        p[k] = p[:k] @ P[:k, k]
    return p / np.add.reduce(p)


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
