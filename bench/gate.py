"""Correctness gate applied to every CSV the benchmark makes the CLI write.

Per record it applies the invariants ``triqubit validate`` checks (first and
second law, mutual-information bound, and on the repeated-interaction model
the magnetization constraint and continuity), with the same tolerances, to
the values as written. Per file it checks that every index appears exactly
once. ``oracle_check`` compares a few records against the independent
long-time-propagation oracle.

triqubit is imported inside the functions that need it: the benchmark
imports this module before it has put the program's source tree on the path.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics

FIRST_LAW_TOL = 1e-10
SECOND_LAW_TOL = 1e-12
MAGNETIZATION_TOL = 1e-10
CONTINUITY_TOL = 1e-9
MI_TOL = 1e-10

# Oracle agreement. Acceptance test 07 holds the oracle to a trace distance
# of 1e-8 from the solver's state. A state error of trace distance d moves a
# pair mutual information or a partial-transpose eigenvalue by O(d), and a
# heat current by at most about d * gamma * ||H||; the relative term covers
# the points whose currents are large.
ORACLE_TD = 1e-8
ORACLE_Q_RTOL = 1e-6


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def read_rows(path: str) -> list:
    """CSV rows as dicts, skipping the leading config-echo comment line."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# scan="):
            raise ValueError(f"{path}: missing config-echo line")
        return list(csv.DictReader(fh))


def _f(row: dict, key: str) -> float:
    return float(row[key])


def first_law_rel(row: dict) -> float:
    """|W + sum Q| / max(|Q_i|, |W|), summed as the program sums it."""
    q = [_f(row, k) for k in ("Q1", "Q2", "Q3")]
    w = _f(row, "W")
    scale = max(*(abs(v) for v in q), abs(w), 1e-300)
    return abs(w + math.fsum(q)) / scale


def record_violations(row: dict) -> list:
    """Names of the invariants a CSV record breaks; [] when it is sound."""
    flags = [f for f in row["flags"].split(";") if f]
    errors = [f for f in flags if f.startswith("error:")]
    if errors:
        return errors
    bad = []
    if first_law_rel(row) > FIRST_LAW_TOL:
        bad.append("first_law")
    if _f(row, "Sdot") < -SECOND_LAW_TOL:
        bad.append("second_law")
    for pair in ("12", "13", "23"):
        if _f(row, "I" + pair) < _f(row, "mibound" + pair) - MI_TOL:
            bad.append("mi_bound" + pair)
    if row["bath_model"] == "repeated_interaction":
        q = [_f(row, k) for k in ("q1", "q2", "q3")]
        c21, c31, c32 = (_f(row, k) for k in ("C21", "C31", "C32"))
        scale_q = max(*(abs(v) for v in q), 1e-300)
        if abs(math.fsum(q)) > MAGNETIZATION_TOL * scale_q:
            bad.append("magnetization")
        scale_c = max(scale_q, abs(c21), abs(c31), abs(c32))
        residuals = (q[0] + c21 + c31, q[1] - c21 + c32, q[2] - c31 - c32)
        if max(abs(r) for r in residuals) > CONTINUITY_TOL * scale_c:
            bad.append("continuity")
    return bad


def check_file(path: str, expected: int) -> dict:
    """Gate one CSV: per-record invariants and one record per index.

    Returns {"records", "failed": {index: [violations]}, "first_law_rel_max",
    "first_law_rel_p50", "warnings"}; the first-law figures are taken over
    the records without an error flag. Indices missing from 0..expected-1,
    duplicated, or out of range are reported under their index with "index"
    as the violation.
    """
    rows = read_rows(path)
    failed: dict = {}
    seen: dict = {}
    residuals = []
    warns = 0
    for row in rows:
        idx = int(row["sample_index"])
        seen[idx] = seen.get(idx, 0) + 1
        bad = record_violations(row)
        if seen[idx] > 1 or not 0 <= idx < expected:
            bad.append("index")
        if bad:
            failed[idx] = bad
        if not any(f.startswith("error:") for f in bad):
            residuals.append(first_law_rel(row))
        warns += any(f.startswith("warn:") for f in row["flags"].split(";"))
    for idx in range(expected):
        if idx not in seen:
            failed[idx] = ["index"]
    return {
        "records": len(rows),
        "failed": failed,
        "first_law_rel_max": max(residuals, default=0.0),
        "first_law_rel_p50": statistics.median(residuals) if residuals else 0.0,
        "warnings": warns,
    }


def row_params(row: dict):
    from triqubit import ModelParams

    def triple(*keys):
        return tuple(_f(row, k) for k in keys)

    return ModelParams(
        bath_model=row["bath_model"],
        B=triple("B1", "B2", "B3"),
        J=triple("J12", "J13", "J23"),
        Delta=triple("D12", "D13", "D23"),
        T=triple("T1", "T2", "T3"),
        gamma=triple("g1", "g2", "g3"),
    )


def oracle_check(row: dict) -> dict:
    """Compare one record with the long-time-propagation oracle.

    The oracle state comes from ``steady_state_via_evolution`` on the
    computational-basis generator, never from the production solver. Its
    heat currents, pair mutual informations and partial-transpose minimum
    eigenvalues are set against the record.
    """
    import numpy as np

    from triqubit import build_hamiltonian, build_liouvillian, steady_state_via_evolution
    from triqubit.correlations import mutual_information, ppt_check
    from triqubit.global_me import build_global_generators, global_heat_current
    from triqubit.local_me import local_heat_current

    p = row_params(row)
    rho = steady_state_via_evolution(build_liouvillian(p)).rho
    if p.bath_model == "harmonic":
        gen = build_global_generators(p)
        q_oracle = [global_heat_current(rho, gen.H, d) for d in gen.dissipators]
    else:
        q_oracle = [local_heat_current(rho, p, site) for site in (1, 2, 3)]
    h_norm = float(np.linalg.norm(build_hamiltonian(p), 2))
    q_rec = [_f(row, k) for k in ("Q1", "Q2", "Q3")]
    q_err = max(abs(a - b) for a, b in zip(q_oracle, q_rec))
    q_tol = max(
        ORACLE_Q_RTOL * max(abs(v) for v in q_rec),
        ORACLE_TD * max(p.gamma) * h_norm,
    )
    state_err = max(
        *(
            abs(mutual_information(rho, i, j) - _f(row, f"I{i}{j}"))
            for i, j in ((1, 2), (1, 3), (2, 3))
        ),
        *(abs(ppt_check(rho, s).min_eigenvalue - _f(row, f"ppt{s}")) for s in (1, 2, 3)),
    )
    return {
        "index": int(row["sample_index"]),
        "q_abs_err": q_err,
        "q_tol": q_tol,
        "state_abs_err": state_err,
        "ok": q_err <= q_tol and state_err <= 2.0 * ORACLE_TD,
    }
