"""Steady-state thermodynamics: operating regimes, figures of merit, submachines.

Sign conventions. Q[i] > 0 means heat flows out of bath i into the machine;
W > 0 means work is injected into the machine (negative W is work extracted).
At steady state the repeated-interaction model satisfies W = -sum(Q), the
harmonic model satisfies sum(Q) = 0 and exchanges no work at all.

The two-reservoir decomposition uses the opposite orientation, which is what
makes its bookkeeping algebraic: Q_ij > 0 is heat dumped INTO bath i by the
pair device (i,j), and W_ij > 0 is work produced by it, so that
W_12 + W_13 + W_23 + W = 0 and W_ij = -Q_ij - Q_ji hold identically.

The bookkeeping of a run of points, the figures of merit, the entropy
production, the invariant checks and the regime, is one pass over the run's
currents (_thermo_rows) that writes the rows of THERMO_COLUMNS, with no
object per point; thermo_report is a run of one, and a ThermoReport is built
from a row only where a caller reads it, its submachine figures with it.
tests/oracles.py keeps the scalar functions the pass took over
(cop_metrics, entropy_production, otto_conditions_and_trapezoid), and
tests/test_thermo.py holds every field of every report to them bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import LD, checked_real
from .errors import DomainError, ImpossibleCurrentsError, NumericalConsistencyError
from .global_me import _heat_generators
from .local_me import FLOWS, CurrentSet, _current_columns, local_current_set
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


# every Regime in its code order: the regime column of a run holds codes
REGIMES = tuple(Regime)
_REGIME_CODES = {regime: code for code, regime in enumerate(REGIMES)}

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


def _continuity(q, C) -> tuple:
    """Site imbalances (q1 + C21 + C31, q2 - C21 + C32, q3 - C31 - C32), C in FLOWS order."""
    q1, q2, q3 = q
    c21, c31, c32 = C
    return (q1 + c21 + c31, q2 - c21 + c32, q3 - c31 - c32)


def continuity_residuals(currents: CurrentSet) -> tuple:
    """Per-site imbalance between the bath current and the pair currents.

    Vanishes at a steady state: whatever magnetization a bath pushes into
    a site must leave through the two couplings.
    """
    return _continuity(currents.q, [currents.C[flow] for flow in FLOWS])


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


# the columns of a run's thermo reports, one row per point; up to "inside"
# they are the CSV's thermo columns in its order. regime holds the point's
# code in REGIMES, inside 1.0 or 0.0. A harmonic point leaves the local
# currents and the magnetization residual empty (None), and so does a figure
# of merit with a vanishing denominator
THERMO_COLUMNS = (
    "Q1", "Q2", "Q3", "W", "Sdot", "q1", "q2", "q3", "C21", "C31", "C32",
    "regime", "cop", "cop_w", "cop_max", "cop_otto", "inside",
    "first_law_residual", "magnetization_residual",
)


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


# the laws _broken_laws checks, in the order it names them; the two in
# LOCAL_LAWS apply to the repeated_interaction model alone
LAWS = ("First Law", "Second Law", "current-constraint", "continuity", "MI-bound")
LOCAL_LAWS = LAWS[2:4]


def _broken_laws(Q, W, S_dot, first_law, T, floor, flows, local=None, bounds=None) -> tuple:
    """Names of the laws of LAWS a point breaks, in that order; the one definition of each.

        First Law           |W + sum Q| <= 1e-10 max(|Q_i|, |W|)
        Second Law          S_dot >= -max(1e-9 sum |Q_i|/T_i, floor/min T)
        current-constraint  |sum q| <= 1e-10 max |q_i|       (local model)
        continuity          site residuals <= 1e-9 max(|q|, |C|)  (local model)
        MI-bound            I_ij >= bound_ij - 1e-10  (correlations given)

    floor is _current_floor and flows sum |Q_i|/T_i. local is (q, C in
    FLOWS order, magnetization residual) of the local model and bounds (I,
    mi_bound) in PAIRS order; a law whose inputs are not given holds. When
    every |Q_i| is at or below the floor the currents are roundoff of
    either sign, and the conservation laws are not checked. A genuine
    second-law violation would be of the order of the entropy flows
    |Q_i|/T_i themselves. Each check is written as the condition that
    holds, so a NaN breaks it.
    """
    first, second, constraint, continuity, mi_bound = LAWS
    q_scale = max(abs(v) for v in Q)
    roundoff = q_scale <= floor
    holds = {
        first: roundoff or first_law <= _FIRST_LAW_RTOL * max(q_scale, abs(W)),
        second: S_dot >= -max(1e-9 * flows, floor / min(T)),
    }
    if local is not None:
        q, C, magnetization = local
        scale_q = max(abs(v) for v in q)
        scale_c = max(scale_q, *(abs(v) for v in C))
        holds[constraint] = roundoff or magnetization <= 1e-10 * scale_q
        holds[continuity] = roundoff or max(abs(r) for r in _continuity(q, C)) <= 1e-9 * scale_c
    if bounds is not None:
        holds[mi_bound] = all(i >= b - 1e-10 for i, b in zip(*bounds))
    return tuple(name for name, ok in holds.items() if not ok)


def thermo_report(sol: PointSolution, epsilon: float = DEFAULT_EPSILON) -> ThermoReport:
    """Heat currents, work, entropy production, figures of merit and regime.

    A run of one of _thermo_rows; the local currents are local_current_set's.
    Raises NumericalConsistencyError naming every law of _broken_laws the
    currents break, before the regime is read off their signs.
    """
    currents = None
    if sol.params.bath_model != BATH_HARMONIC:
        cs = local_current_set(sol.rho, sol.generators)
        currents = [(cs.q, cs.Q, cs.W, [cs.C[flow] for flow in FLOWS])]
    [(cells, broken)] = _thermo_rows([sol], epsilon, currents)
    if broken:
        raise NumericalConsistencyError(
            f"steady state breaks {', '.join(broken)}: Q = {tuple(cells[:3])}, "
            f"W = {cells[3]!r}, S_dot = {cells[4]:.3e}"
        )
    return _thermo_view(cells, sol.params, epsilon)


def _thermo_rows(sols, epsilon: float, currents=None) -> list:
    """thermo_report of each of sols, which share one bath model, as rows of THERMO_COLUMNS.

    Returns one (cells, broken) per point: cells its row, None where the
    report leaves None, and broken the names of the laws it breaks, in the
    order of LAWS; a point that breaks one has no report, and thermo_report
    raises for it. currents holds (q, Q, W, C) of each point, C in FLOWS
    order; on the local model, when it is not given, the currents of all of
    sols are one local_me._current_columns stack. The bookkeeping is one pass
    over the run's currents, with no object per point: each figure, check
    and regime is that of the point alone. A point, the first in order,
    whose currents above the floor all share one sign raises
    ImpossibleCurrentsError.
    """
    params = [sol.params for sol in sols]
    if params[0].bath_model == BATH_HARMONIC:
        # the harmonic generator exchanges no work by construction
        currents = [(None, _harmonic_heat_currents(sol), 0.0, None) for sol in sols]
    elif currents is None:
        columns = _current_columns(np.array([sol.rho for sol in sols]),
                                   [sol.generators for sol in sols])
        currents = zip(*(column.tolist() for column in columns))
    rows = []
    for p, (q, Q, W, C) in zip(params, currents):
        (t1, t2, t3), (b1, b2, b3) = p.T, p.B
        q1, q2, q3 = Q
        ratios = (q1 / t1, q2 / t2, q3 / t3)
        S_dot = -math.fsum(ratios)
        first_law = abs(W + math.fsum(Q))
        floor = _current_floor(p)
        magnetization = None if q is None else abs(math.fsum(q))
        broken = _broken_laws(Q, W, S_dot, first_law, p.T, floor, math.fsum(map(abs, ratios)),
                              None if q is None else (q, C, magnetization))
        regime = Regime.UNCLASSIFIED
        if not broken and min(abs(q1), abs(q2), abs(q3)) > floor:
            regime = classify_regime(Q, W, epsilon)
        denom_w = q3 + W
        # the Otto trapezoid of (B1/B3, B2/B3): the refrigerator window of
        # (2,3) with the engine window of (1,2), a necessary condition for the
        # absorption refrigerator; a switched-off field is outside
        inside = (b1 > 0.0 and b2 > 0.0 and b3 > 0.0
                  and b2 / b3 > (t2 / t1) * (b1 / b3) and t2 / t3 < b2 / b3 < 1.0)
        # the figures of merit, None where a denominator vanishes: cop_w
        # credits the work the machine produces (W < 0) back to the driving
        # heat; cop_max bounds cop by the temperature ratios, cop_otto by
        # the field ratios of an auxiliary two-level chiller between baths
        # 1 and 2 that the produced work drives
        rows.append(([
            q1, q2, q3, W, S_dot, *(q or (None,) * 3), *(C or (None,) * 3),
            _REGIME_CODES[regime],
            q1 / q3 if q3 != 0.0 else None,
            q1 / denom_w if denom_w != 0.0 else None,
            t1 * (t3 - t2) / (t3 * (t2 - t1)) if (t2 != t1 and t3 != 0.0) else None,
            b1 * (b3 - b2) / (b3 * (b2 - b1)) if (b2 != b1 and b3 != 0.0) else None,
            float(inside), first_law, magnetization,
        ], broken))
    return rows


def _thermo_view(cells, params: ModelParams, epsilon: float) -> ThermoReport:
    """The ThermoReport of one row of THERMO_COLUMNS, cells its values with None where empty."""
    (Q1, Q2, Q3, W, S_dot, q1, q2, q3, c21, c31, c32, regime, cop, cop_w, cop_max, cop_otto,
     inside, first_law, magnetization) = cells
    currents = submachines = None
    if q1 is not None:
        currents = CurrentSet(Q=(Q1, Q2, Q3), W=W, q=(q1, q2, q3),
                              C=dict(zip(FLOWS, (c21, c31, c32))))
        submachines = submachine_report(currents, params.B, params.T, epsilon)
    return ThermoReport(
        Q=(Q1, Q2, Q3), W=W, S_dot=S_dot, regime=REGIMES[int(regime)],
        cop=cop, cop_w=cop_w, cop_max=cop_max, cop_otto=cop_otto,
        currents=currents, submachines=submachines, inside_trapezoid=inside == 1.0,
        first_law_residual=first_law, magnetization_residual=magnetization,
    )
