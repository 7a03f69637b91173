"""Reference implementations that only the tests call.

Each is a second route to something the package computes another way, or a
check the package has no use for. They live here so that src/triqubit holds
only what the sweeps, the CLI, bench/gate.py and the acceptance tests call;
tests/test_src_callers.py keeps it that way.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from triqubit.algebra import CLD, checked_real, embed_pauli
from triqubit.errors import DomainError
from triqubit.global_me import bose_occupation
from triqubit.local_me import FLOWS, _pair_flow_observable, _site_matrices
from triqubit.model import N_SITES, PAIRS, ModelParams
from triqubit.steady_state import (
    SteadyStateResult,
    _finalize_state,
    _trace_one_state,
    _unique_null_scale,
)
from triqubit.thermo import Regime, _broken_laws, _current_floor


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
    """sum_omega (A_omega + A_omega^dag) + zero_part of a JumpSet, in the eigenbasis.

    It equals V^dag sigma_x^site V. The tests check with it that the
    clustering loses no part of the coupling operator.
    """
    out = jumps.zero_part.astype(complex).copy()
    for amp in jumps.amplitudes:
        out += amp + amp.conj().T
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
    """gamma (1 + 2n) (<sigma_z>_bath - <sigma_z>_i); equals q_i of local_me._current_columns.

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
    # the solve's steps take stacks of points: here a stack of one
    _unique_null_scale([L[None]], (1,), on_diag)
    x, res = _trace_one_state(L[None], on_diag, np.zeros((1, d2, 1), dtype=CLD),
                              L[None].astype(CLD))
    return SteadyStateResult(rho=_finalize_state(x[..., 0])[0], residual=res[0])


# --- the scalar figures of merit, entropy production and trapezoid test:
# thermo._thermo_rows takes them inline in one pass over a run, and
# tests/test_thermo.py holds it to these bit for bit


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


# --- the laws one report breaks: the validate command checks them on a
# sweep's columns, and tests/test_thermo.py checks each law on a report


def invariant_violations(report, params: ModelParams, correlations=None) -> tuple:
    """Names of the laws a steady-state report breaks; () when it breaks none.

    The laws and their tolerances are thermo._broken_laws', checked on
    this one report: the local laws when it carries currents, the MI bound
    when correlations are given.
    """
    flows = math.fsum(abs(q) / t for q, t in zip(report.Q, params.T))
    local = bounds = None
    cs = report.currents
    if cs is not None:
        local = (cs.q, [cs.C[flow] for flow in FLOWS], report.magnetization_residual)
    if correlations is not None:
        bounds = ([correlations.I[pair] for pair in PAIRS],
                  [correlations.mi_bound[pair] for pair in PAIRS])
    return _broken_laws(report.Q, report.W, report.S_dot, report.first_law_residual,
                        params.T, _current_floor(params), flows, local, bounds)


# --- the CSV row of one record, cell by cell: sweeps.write_records formats
# whole columns at once, and tests/test_sweeps.py holds its bytes to this row
# written by csv.writer


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # most cells
        return f"{float(value):.17g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, Regime):
        return value.value
    return str(value)


def record_row(rec, extra_columns) -> list:
    """The CSV cells of a SweepRecord, then its extras of extra_columns."""
    p = rec.params
    th = rec.thermo
    co = rec.correlations
    cells = [str(rec.index), p.bath_model]
    cells += [_fmt(v) for v in (*p.B, *p.J, *p.Delta, *p.T, *p.gamma)]
    if th is None:
        cells += [""] * 17
    else:
        cells += [_fmt(v) for v in (*th.Q, th.W, th.S_dot)]
        if th.currents is None:
            cells += [""] * 6
        else:
            c = th.currents.C
            cells += [_fmt(v) for v in (*th.currents.q, c[(2, 1)], c[(3, 1)], c[(3, 2)])]
        cells.append(th.regime.value)
        cells += [_fmt(v) for v in (th.cop, th.cop_w, th.cop_max, th.cop_otto)]
        cells.append(_fmt(th.inside_trapezoid))
    if co is None:
        cells += [""] * 12
    else:
        cells += [_fmt(co.I[pair]) for pair in PAIRS]
        cells += [_fmt(co.mi_bound[pair]) for pair in PAIRS]
        cells += [_fmt(co.x_form_residual[pair]) for pair in PAIRS]
        cells += [_fmt(v) for v in co.ppt_min_eigenvalues]
    cells.append(_fmt(rec.residual))
    cells.append(";".join(rec.flags))
    for name in extra_columns:
        cells.append(_fmt(rec.extra.get(name)))
    return cells


def csv_text(records, scan_name: str, config, extra_columns=()) -> str:
    """The whole CSV file write_records writes for records, row by row through csv.writer."""
    import csv
    import io

    from triqubit.sweeps import BASE_COLUMNS, config_echo

    out = io.StringIO()
    out.write(config_echo(scan_name, config) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BASE_COLUMNS + tuple(extra_columns))
    for rec in records:
        writer.writerow(record_row(rec, extra_columns))
    return out.getvalue()
