"""Steady-state thermodynamics: operating regimes, figures of merit, submachines.

Sign conventions. Q[i] > 0 means heat flows out of bath i into the machine;
W > 0 means work is injected into the machine (negative W is work extracted).
At steady state the repeated-interaction model satisfies W = -sum(Q), the
harmonic model satisfies sum(Q) = 0 and exchanges no work at all.

The two-reservoir decomposition uses the opposite orientation, which is what
makes its bookkeeping algebraic: Q_ij > 0 is heat dumped INTO bath i by the
pair device (i,j), and W_ij > 0 is work produced by it, so that
W_12 + W_13 + W_23 + W = 0 and W_ij = -Q_ij - Q_ji hold identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algebra import LD, checked_real
from .errors import DomainError, ImpossibleCurrentsError, NumericalConsistencyError
from .global_me import _heat_generators
from .local_me import CurrentSet, _current_sets, local_current_set
from .model import BATH_HARMONIC, PAIRS, ModelParams, as_number
from .steady_state import PointSolution

DEFAULT_EPSILON = 1e-6  # relative zero band for sign classification
_FIRST_LAW_RTOL = 1e-10  # |W + sum Q| allowed per unit of max(|Q_i|, |W|)


class Regime(enum.Enum):
    """Operating regimes named by the sign pattern of (Q1, Q2, Q3, W).

    The roman-numeral labels are part of the CLI/CSV vocabulary. IV is the
    absorption refrigerator: heat out of the coldest bath, driven by the
    hottest bath, with no work input.
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    IX = "IX"
    X = "X"
    UNCLASSIFIED = "Unclassified"


# sign pattern of (Q1, Q2, Q3) -> (regime for W > 0, regime for W <= 0)
_SIGN_TABLE = {
    (1, -1, -1): (Regime.I, None),
    (1, 1, -1): (Regime.II, None),
    (1, -1, 1): (Regime.III, Regime.IV),
    (-1, 1, -1): (Regime.V, Regime.VI),
    (-1, 1, 1): (Regime.VII, Regime.VIII),
    (-1, -1, 1): (Regime.IX, Regime.X),
}

# the regimes open to the workless harmonic model; tests/test_acceptance.py
# imports it, which keeps it in the package
HARMONIC_REGIMES = frozenset({Regime.IV, Regime.VI, Regime.VIII, Regime.X})


def checked_epsilon(epsilon) -> float:
    """epsilon as a float; raises DomainError unless it is positive and finite."""
    value = as_number("epsilon", epsilon)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"epsilon must be positive and finite, got {value}")
    return value


def classify_regime(Q, W: float, epsilon: float = DEFAULT_EPSILON) -> Regime:
    """Classify a steady state by the signs of its heat currents and work.

    Values within epsilon * max(|Q|, |W|) of zero are treated as zero: a
    near-zero heat current makes the point Unclassified, a near-zero W falls
    into the workless branch of the table.
    """
    epsilon = checked_epsilon(epsilon)
    q1, q2, q3 = (float(q) for q in Q)
    w = float(W)
    scale = max(abs(q1), abs(q2), abs(q3), abs(w))
    if scale == 0.0:
        return Regime.UNCLASSIFIED
    band = epsilon * scale
    if min(abs(q1), abs(q2), abs(q3)) <= band:
        return Regime.UNCLASSIFIED
    signs = tuple(1 if q > 0.0 else -1 for q in (q1, q2, q3))
    if signs == (1, 1, 1) or signs == (-1, -1, -1):
        raise ImpossibleCurrentsError(
            "heat currents cannot all share one sign: magnetization exchanged "
            "with the baths must balance at steady state"
        )
    with_work, without_work = _SIGN_TABLE[signs]
    regime = with_work if w > band else without_work
    return regime if regime is not None else Regime.UNCLASSIFIED


def entropy_production(Q, T) -> float:
    """Total entropy production rate -sum_i Q_i / T_i."""
    if any(t <= 0.0 for t in T):
        raise DomainError("bath temperatures must be positive")
    return -math.fsum(float(q) / float(t) for q, t in zip(Q, T))


@dataclass(frozen=True)
class CopMetrics:
    cop: Optional[float]
    cop_w: Optional[float]
    cop_max: Optional[float]
    cop_otto: Optional[float]


def cop_metrics(Q, W: float, T, B) -> CopMetrics:
    """Refrigeration figures of merit; metrics with vanishing denominators are None.

    cop_w credits the work the machine itself produces (W < 0) back to the
    driving heat. cop_max depends only on temperature ratios and bounds cop
    for any absorption refrigerator; cop_otto plays the same role in terms of
    field ratios when the produced work drives an auxiliary two-level chiller
    between baths 1 and 2.
    """
    q1, _, q3 = (float(q) for q in Q)
    w = float(W)
    t1, t2, t3 = (float(t) for t in T)
    b1, b2, b3 = (float(b) for b in B)

    cop = q1 / q3 if q3 != 0.0 else None
    denom_w = q3 + w
    cop_w = q1 / denom_w if denom_w != 0.0 else None
    cop_max = t1 * (t3 - t2) / (t3 * (t2 - t1)) if (t2 != t1 and t3 != 0.0) else None
    cop_otto = b1 * (b3 - b2) / (b3 * (b2 - b1)) if (b2 != b1 and b3 != 0.0) else None
    return CopMetrics(cop=cop, cop_w=cop_w, cop_max=cop_max, cop_otto=cop_otto)


class Role(enum.Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    ACCELERATOR = "accelerator"
    IDLE = "idle"


@dataclass(frozen=True)
class SubmachineFigures:
    """Two-reservoir device carried by one coupled pair.

    Q_ij is the heat the device dumps into bath i, Q_ji into bath j; W_ij is
    the work it produces. W_ij = -Q_ij - Q_ji holds bitwise because W_ij is
    stored as that very combination.
    """

    pair: tuple
    C_ij: float
    W_ij: float
    Q_ij: float
    Q_ji: float
    role: Role
    efficiency_or_cop: Optional[float]


def continuity_residuals(currents: CurrentSet) -> tuple:
    """Per-site imbalance between the bath current and the pair currents.

    Vanishes at a steady state: whatever magnetization a bath pushes into
    a site must leave through the two couplings.
    """
    c21 = currents.C[(2, 1)]
    c31 = currents.C[(3, 1)]
    c32 = currents.C[(3, 2)]
    q1, q2, q3 = currents.q
    return (q1 + c21 + c31, q2 - c21 + c32, q3 - c31 - c32)


def submachine_report(currents: CurrentSet, B, T, epsilon: float = DEFAULT_EPSILON) -> tuple:
    """Decompose a repeated-interaction steady state into pair devices.

    Roles follow the signs: a device producing work is an engine; one
    consuming work is a refrigerator when it drains heat from the colder
    bath of its pair and an accelerator when it pushes heat into it. A
    device whose work is inside the zero band idles with efficiency 0.
    """
    figures = []
    for i, j in PAIRS:
        bi, bj = float(B[i - 1]), float(B[j - 1])
        c_ij = -currents.C[(j, i)]  # keys are (source, destination), source > destination
        q_ij = -bi * c_ij
        q_ji = bj * c_ij  # = -bj * C_ji by antisymmetry
        w_ij = -q_ij - q_ji
        b_lo, b_hi = min(bi, bj), max(bi, bj)
        cold_q = q_ij if float(T[i - 1]) <= float(T[j - 1]) else q_ji

        scale = max(abs(q_ij), abs(q_ji), abs(w_ij))
        if scale == 0.0 or abs(w_ij) <= epsilon * scale:
            role, figure = Role.IDLE, 0.0
        elif w_ij > 0.0:
            role, figure = Role.ENGINE, 1.0 - b_lo / b_hi
        elif cold_q < 0.0:
            role, figure = Role.REFRIGERATOR, b_lo / (b_hi - b_lo)
        else:
            role, figure = Role.ACCELERATOR, None
        figures.append(
            SubmachineFigures(
                pair=(i, j), C_ij=c_ij, W_ij=w_ij, Q_ij=q_ij, Q_ji=q_ji,
                role=role, efficiency_or_cop=figure,
            )
        )
    return tuple(figures)


def otto_conditions_and_trapezoid(B, T) -> bool:
    """Whether the field ratios (B1/B3, B2/B3) lie inside the Otto trapezoid.

    For a pair (i, j) with T_i < T_j, an ideal two-level machine cycling
    between the fields refrigerates for B_i/B_j below T_i/T_j and works as
    an engine between that ratio and 1. The trapezoid combines the
    refrigerator window of (2,3) with the engine window of (1,2): a
    necessary condition for the three-qubit absorption refrigerator.
    """
    if any(b <= 0.0 for b in B) or any(t <= 0.0 for t in T):
        raise DomainError("fields and temperatures must be positive")
    x1 = float(B[0]) / float(B[2])
    x2 = float(B[1]) / float(B[2])
    return (x2 > (float(T[1]) / float(T[0])) * x1) and (float(T[1]) / float(T[2]) < x2 < 1.0)


@dataclass(frozen=True)
class ThermoReport:
    """Complete thermodynamic account of one solved steady state."""

    Q: tuple
    W: float
    S_dot: float
    regime: Regime
    cop: Optional[float]
    cop_w: Optional[float]
    cop_max: Optional[float]
    cop_otto: Optional[float]
    currents: Optional[CurrentSet]
    submachines: Optional[tuple]
    inside_trapezoid: bool
    first_law_residual: float
    magnetization_residual: Optional[float]


def _harmonic_heat_currents(sol: PointSolution):
    """Q_i = Tr(G_i rho) of the harmonic model in the eigenbasis, in longdouble.

    The populations p enter as the edge sum sum_{a != b} (e_a - e_b) M_i[a, b]
    p_b, G_i's diagonal (global_me._heat_generators), which reads no diagonal
    of M_i: with the subtraction-free populations of the solve the currents
    cancel to the first law even where the gross flows exceed max|Q_i| by
    orders of magnitude. Without those, p is the state's diagonal and its
    coherences add Re sum_{b != c} G_i[b, c] rho[c, b].
    """
    rho, p = sol.rho_eig, sol.populations
    e = sol.generators.spectrum.energies.astype(LD)
    # the diagonal gaps are exactly zero, which drops the loss terms
    flows = (e[:, None] - e[None, :]) * np.stack(sol.rate_matrices)
    Q = (flows * (np.diagonal(rho).real if p is None else p)).sum(axis=(1, 2))
    if p is None:
        G = _heat_generators(sol.generators)
        coherent = (G * (rho * (1.0 - np.eye(e.size))).T).sum(axis=(1, 2))
        scales = np.linalg.norm(G.astype(complex), axis=(1, 2)) * np.linalg.norm(rho)
        Q += [checked_real(q, s, "heat current") for q, s in zip(coherent, scales)]
    return tuple(float(q) for q in Q)


def _current_floor(p: ModelParams) -> float:
    """Absolute roundoff of the heat currents of either model.

    At cold baths every current can sit at this floor, with a sign that
    carries no information.
    """
    return 1e-12 * max(p.gamma) * (1.0 + max(p.B))


# the laws invariant_violations checks, in the order it names them; the
# two in LOCAL_LAWS apply to the repeated_interaction model alone
LAWS = ("First Law", "Second Law", "current-constraint", "continuity", "MI-bound")
LOCAL_LAWS = LAWS[2:4]


def invariant_violations(report: ThermoReport, params: ModelParams, correlations=None) -> tuple:
    """Names of the laws a steady-state report breaks; () when it breaks none.

    The one definition of each invariant and its tolerance. thermo_report
    raises on any of them; the validate command counts them per record.

        First Law           |W + sum Q| <= 1e-10 max(|Q_i|, |W|)
        Second Law          S_dot >= -max(1e-9 sum |Q_i|/T_i, floor/min T)
        current-constraint  |sum q| <= 1e-10 max |q_i|       (local model)
        continuity          site residuals <= 1e-9 max(|q|, |C|)  (local model)
        MI-bound            I_ij >= bound_ij - 1e-10  (correlations given)

    floor is the absolute roundoff of the heat currents. When every |Q_i|
    is at or below it the currents are roundoff of either sign, and the
    conservation laws are not checked. A genuine second-law violation would
    be of the order of the entropy flows |Q_i|/T_i themselves. Each check
    is written as the condition that holds, so a NaN breaks it.
    """
    floor = _current_floor(params)
    q_scale = max(abs(q) for q in report.Q)
    flows = math.fsum(abs(q) / float(t) for q, t in zip(report.Q, params.T))
    roundoff = q_scale <= floor
    first, second, constraint, continuity, mi_bound = LAWS
    holds = {
        first: roundoff or (
            report.first_law_residual <= _FIRST_LAW_RTOL * max(q_scale, abs(report.W))
        ),
        second: report.S_dot >= -max(1e-9 * flows, floor / min(params.T)),
    }
    cs = report.currents
    if cs is not None:
        scale_q = max(abs(v) for v in cs.q)
        scale_c = max(scale_q, *(abs(v) for v in cs.C.values()))
        holds[constraint] = roundoff or report.magnetization_residual <= 1e-10 * scale_q
        holds[continuity] = (
            roundoff or max(abs(r) for r in continuity_residuals(cs)) <= 1e-9 * scale_c
        )
    if correlations is not None:
        holds[mi_bound] = all(
            correlations.I[pair] >= correlations.mi_bound[pair] - 1e-10 for pair in PAIRS
        )
    return tuple(name for name, ok in holds.items() if not ok)


def thermo_report(sol: PointSolution, epsilon: float = DEFAULT_EPSILON) -> ThermoReport:
    """Heat currents, work, entropy production, figures of merit and regime.

    Raises NumericalConsistencyError naming every law of
    invariant_violations the currents break, before the regime is read off
    their signs.
    """
    currents = None
    if sol.params.bath_model != BATH_HARMONIC:
        currents = local_current_set(sol.rho, sol.generators)
    return _thermo_report(sol, currents, epsilon)


def _thermo_reports(sols, epsilon: float) -> list:
    """thermo_report of each of sols, which share one bath model, in order.

    The local currents of all of them are one _current_sets stack; the
    bookkeeping on them is made per point.
    """
    if sols[0].params.bath_model == BATH_HARMONIC:
        currents = [None] * len(sols)
    else:
        currents = _current_sets(np.array([sol.rho for sol in sols]),
                                 [sol.generators for sol in sols])
    return [_thermo_report(sol, cs, epsilon) for sol, cs in zip(sols, currents)]


def _thermo_report(sol: PointSolution, currents: Optional[CurrentSet],
                   epsilon: float) -> ThermoReport:
    """thermo_report of sol, whose local currents are given (None on the harmonic model)."""
    p = sol.params
    if currents is None:
        Q = _harmonic_heat_currents(sol)
        W = 0.0  # the harmonic generator exchanges no work by construction
        submachines = None
        first_law = abs(math.fsum(Q))
        mag_residual = None
    else:
        Q = currents.Q
        W = currents.W
        submachines = submachine_report(currents, p.B, p.T, epsilon)
        first_law = abs(W + math.fsum(Q))
        mag_residual = abs(math.fsum(currents.q))

    metrics = cop_metrics(Q, W, p.T, p.B)
    if all(b > 0.0 for b in p.B):
        inside = otto_conditions_and_trapezoid(p.B, p.T)
    else:
        inside = False  # a switched-off field is outside every window
    report = ThermoReport(
        Q=tuple(float(q) for q in Q),
        W=float(W),
        S_dot=entropy_production(Q, p.T),
        regime=Regime.UNCLASSIFIED,
        cop=metrics.cop,
        cop_w=metrics.cop_w,
        cop_max=metrics.cop_max,
        cop_otto=metrics.cop_otto,
        currents=currents,
        submachines=submachines,
        inside_trapezoid=inside,
        first_law_residual=first_law,
        magnetization_residual=mag_residual,
    )
    broken = invariant_violations(report, p)
    if broken:
        raise NumericalConsistencyError(
            f"steady state breaks {', '.join(broken)}: "
            f"Q = {report.Q}, W = {report.W!r}, S_dot = {report.S_dot:.3e}"
        )
    if min(abs(q) for q in report.Q) <= _current_floor(p):
        return report
    return replace(report, regime=classify_regime(report.Q, report.W, epsilon))
