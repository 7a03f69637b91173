"""Regime classification, performance metrics, submachines, trapezoid."""

import json
import math
import random
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from triqubit import (
    Regime, classify_regime, correlations, evaluate_point, local_me, solve_point, sweeps, thermo,
)
from triqubit.errors import DomainError, ImpossibleCurrentsError, NumericalConsistencyError
from triqubit.local_me import FLOWS, CurrentSet
from triqubit.sweeps import SweepConfig, draw_params
from triqubit.thermo import (
    DEFAULT_EPSILON, HARMONIC_REGIMES, Role, ThermoReport, continuity_residuals,
    submachine_report,
)

from conftest import BOOST, HARMONIC_TAIL, UNCLOSED_HARMONIC, VALVE, global_point, local_point
from oracles import (
    cop_metrics, entropy_production, invariant_violations, otto_conditions_and_trapezoid,
)


def _broken(sol, epsilon=DEFAULT_EPSILON):
    """The laws sol breaks, as the record body's one pass judges them on its correlations."""
    [co] = correlations._correlation_rows(sol.rho[None], (sol.params,))
    [(_, broken)] = thermo._thermo_rows([sol], epsilon, [(co[:3], co[3:6])])
    return broken


# one representative (Q1, Q2, Q3, W) per labeled regime
REGIME_CASES = [
    ((1.0, -0.4, -0.8), 0.2, Regime.I),
    ((1.0, 0.4, -1.8), 0.4, Regime.II),
    ((1.0, -2.4, 0.8), 0.6, Regime.III),
    ((0.3, -0.5, 0.4), -0.2, Regime.IV),
    ((-1.0, 2.4, -0.8), 0.6, Regime.V),
    ((-1.0, 2.4, -1.0), -0.4, Regime.VI),
    ((-0.1, 0.4, 0.2), 0.5, Regime.VII),
    ((-1.0, 0.4, 0.2), -0.4, Regime.VIII),
    ((-1.0, -0.4, 0.8), 0.6, Regime.IX),
    ((-1.0, -0.4, 1.0), -0.4, Regime.X),
]


@pytest.mark.parametrize("Q,W,expected", REGIME_CASES)
def test_regime_table(Q, W, expected):
    assert classify_regime(Q, W) is expected
    # the classification is scale invariant
    s = 1e-9
    assert classify_regime(tuple(q * s for q in Q), W * s) is expected


def test_regime_zero_work_joins_workless_branch():
    assert classify_regime((0.3, -0.5, 0.4), 0.0) is Regime.IV
    assert classify_regime((-1.0, 0.4, 0.2), 0.0) is Regime.VIII


def test_regime_patterns_without_workless_row():
    assert classify_regime((1.0, -0.4, -0.8), -0.2) is Regime.UNCLASSIFIED
    assert classify_regime((1.0, 0.4, -1.8), -0.4) is Regime.UNCLASSIFIED


def test_regime_impossible_sign_patterns():
    with pytest.raises(ImpossibleCurrentsError):
        classify_regime((1.0, 1.0, 1.0), -3.0)
    with pytest.raises(ImpossibleCurrentsError):
        classify_regime((-0.2, -0.4, -0.1), 5.0)


def test_regime_near_zero_band():
    # a current inside epsilon * scale cannot be signed
    assert classify_regime((1e-7, -1.0, 1.0), 1.0) is Regime.UNCLASSIFIED
    assert classify_regime((0.0, 0.0, 0.0), 0.0) is Regime.UNCLASSIFIED
    # widening epsilon swallows otherwise classifiable points
    assert classify_regime((0.3, -0.5, 0.4), -0.2, epsilon=0.9) is Regime.UNCLASSIFIED
    for epsilon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            classify_regime((1.0, -1.0, 1.0), 0.0, epsilon=epsilon)


def test_entropy_production_value_and_validation():
    s = entropy_production((1.0, -0.5, 0.25), (1.0, 2.0, 3.0))
    assert abs(s - (-1.0 + 0.25 - 0.25 / 3.0)) < 1e-15
    with pytest.raises(DomainError):
        entropy_production((1.0, 0.0, 0.0), (1.0, -2.0, 3.0))


def test_cop_metrics_formulas():
    m = cop_metrics((0.2, -0.5, 0.3), -0.1, (1.0, 2.0, 3.0), (1.31, 3.0, 3.57))
    assert abs(m.cop - 0.2 / 0.3) < 1e-15
    assert abs(m.cop_w - 0.2 / 0.2) < 1e-15
    assert abs(m.cop_max - 1.0 / 3.0) < 1e-15
    assert abs(m.cop_otto - 1.31 * 0.57 / (3.57 * 1.69)) < 1e-15


def test_cop_metrics_none_on_vanishing_denominators():
    m = cop_metrics((0.2, -0.5, 0.0), 0.0, (1.0, 1.0, 3.0), (2.0, 2.0, 3.0))
    assert m.cop is None
    assert m.cop_w is None
    assert m.cop_max is None
    assert m.cop_otto is None


def test_zero_work_merges_cop_and_cop_w():
    m = cop_metrics((0.2, -0.5, 0.3), 0.0, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert m.cop == m.cop_w


def test_trapezoid_membership():
    # coordinates are (B1/B3, B2/B3)
    assert otto_conditions_and_trapezoid((0.3, 0.7, 1.0), (1.0, 2.0, 3.0)) is True
    assert otto_conditions_and_trapezoid((0.3, 0.5, 1.0), (1.0, 2.0, 3.0)) is False
    # below the lower horizontal edge
    assert otto_conditions_and_trapezoid((0.2, 0.6, 1.0), (1.0, 2.0, 3.0)) is False
    with pytest.raises(DomainError):
        otto_conditions_and_trapezoid((0.0, 0.5, 1.0), (1.0, 2.0, 3.0))


def test_continuity_residuals_balance():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    rep = evaluate_point(p).thermo
    scale = max(abs(q) for q in rep.currents.q)
    assert max(abs(r) for r in continuity_residuals(rep.currents)) < 1e-9 * scale


def test_submachine_decomposition():
    p = local_point(
        B=(BOOST["B1"], 3.0, BOOST["B3"]), gamma=BOOST["gamma"],
        J=BOOST["J"], Delta=BOOST["Delta"],
    )
    rep = evaluate_point(p).thermo
    assert rep.regime is Regime.IV
    subs = {f.pair: f for f in rep.submachines}
    assert set(subs) == {(1, 2), (1, 3), (2, 3)}
    for f in subs.values():
        # stored as the exact combination, so this identity is bitwise
        assert f.W_ij == -f.Q_ij - f.Q_ji
    # the pair works sum to the total work the machine absorbs
    total = sum(f.W_ij for f in subs.values())
    scale = max(abs(rep.W), max(abs(q) for q in rep.Q))
    assert abs(total + rep.W) < 1e-10 * scale
    # the (1,3) device produces work here; its efficiency is set by the
    # field ratio alone
    f13 = subs[(1, 3)]
    assert f13.role is Role.ENGINE
    assert abs(f13.efficiency_or_cop - (1.0 - p.B[0] / p.B[2])) < 1e-12


def test_all_refrigerator_submachines():
    # every pair absorbs work at this point, and each cop is the exact
    # field-ratio expression
    p = local_point(
        B=(VALVE["B1"], 1.0, VALVE["B3"]), gamma=(0.5, 0.5, 0.5),
        J=VALVE["J"], Delta=VALVE["Delta"],
    )
    rep = evaluate_point(p).thermo
    subs = {f.pair: f for f in rep.submachines}
    for (i, j), f in subs.items():
        assert f.role is Role.REFRIGERATOR
        lo, hi = sorted((p.B[i - 1], p.B[j - 1]))
        assert abs(f.efficiency_or_cop - lo / (hi - lo)) < 1e-12


def test_thermo_report_local_laws():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    rep = evaluate_point(p).thermo
    scale = max(abs(rep.W), max(abs(q) for q in rep.Q))
    assert rep.first_law_residual < 1e-10 * scale
    assert rep.magnetization_residual < 1e-10 * scale
    assert rep.S_dot > -1e-12
    assert abs(rep.S_dot - entropy_production(rep.Q, p.T)) == 0.0


def test_thermo_report_global_shape():
    rep = evaluate_point(global_point(B=(0.37, 0.61, 0.83))).thermo
    assert rep.W == 0.0
    assert rep.currents is None
    assert rep.submachines is None
    assert rep.magnetization_residual is None
    assert rep.regime in HARMONIC_REGIMES or rep.regime is Regime.UNCLASSIFIED
    assert rep.first_law_residual < 1e-10 * max(abs(q) for q in rep.Q)


def test_entropy_production_compensated_sum():
    # the huge terms cancel exactly; a naive left-to-right sum would
    # swallow the remaining unit entirely
    s = entropy_production((1e100, -1e100, 1.0), (1.0, 1.0, 1.0))
    assert s == -1.0


def test_sign_flipped_harmonic_entropy_production_is_caught(monkeypatch):
    # a weak-damping harmonic point has S_dot ~ 1e-11, far below any
    # absolute cut: the second-law check scales with the flows |Q_i|/T_i
    path = Path(__file__).resolve().parent.parent / "configs" / "global_scatter.json"
    p = draw_params(SweepConfig(**json.loads(path.read_text())), 0)
    assert 0.0 < evaluate_point(p).thermo.S_dot < 1e-9
    honest = thermo._harmonic_heat_currents
    monkeypatch.setattr(thermo, "_harmonic_heat_currents", lambda s: tuple(-q for q in honest(s)))
    assert _broken(solve_point(p)) == ("Second Law",)
    rec = evaluate_point(p)
    assert rec.flags[0] == "error:NumericalConsistencyError" and rec.thermo is None


@lru_cache(maxsize=None)
def _solved_case(model):
    """(params, thermo report, correlation report) of one real point per model."""
    if model == "local":
        p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    else:
        path = Path(__file__).resolve().parent.parent / "configs" / "global_scatter.json"
        p = draw_params(SweepConfig(**json.loads(path.read_text())), 0)
    rec = evaluate_point(p)
    return p, rec.thermo, rec.correlations


def _break(name, rep, co):
    """rep and co with only the field that invariant `name` reads broken."""
    if name == "First Law":
        return replace(rep, first_law_residual=1e-8 * max(abs(q) for q in rep.Q)), co
    if name == "Second Law":
        return replace(rep, S_dot=-rep.S_dot), co
    if name == "current-constraint":
        scale_q = max(abs(v) for v in rep.currents.q)
        return replace(rep, magnetization_residual=1e-8 * scale_q), co
    if name == "continuity":
        C = dict(rep.currents.C)
        C[(2, 1)] += 1e-6 * max(abs(v) for v in (*rep.currents.q, *C.values()))
        return replace(rep, currents=replace(rep.currents, C=C)), co
    I = dict(co.I)
    I[(1, 3)] = co.mi_bound[(1, 3)] - 1e-8
    return rep, replace(co, I=I)


LOCAL_LAWS = ("First Law", "Second Law", "current-constraint", "continuity", "MI-bound")
HARMONIC_LAWS = ("First Law", "Second Law", "MI-bound")


@pytest.mark.parametrize(
    "model,name", [("local", n) for n in LOCAL_LAWS] + [("harmonic", n) for n in HARMONIC_LAWS]
)
def test_each_invariant_fires_on_its_own_field(model, name):
    p, rep, co = _solved_case(model)
    assert invariant_violations(rep, p, co) == ()
    bad_rep, bad_co = _break(name, rep, co)
    assert invariant_violations(bad_rep, p, bad_co) == (name,)


def test_tiny_negative_harmonic_entropy_production_breaks_the_second_law():
    # an absolute cut S_dot >= -1e-12 passes this, yet a harmonic S_dot is
    # ~6e-12 at the median: the cut has to scale with the flows |Q_i|/T_i
    p, rep, co = _solved_case("harmonic")
    assert invariant_violations(replace(rep, S_dot=-5e-13), p, co) == ("Second Law",)


def test_currents_under_the_floor_are_exempt_from_conservation():
    p, rep, _ = _solved_case("local")
    floor = 1e-12 * max(p.gamma) * (1.0 + max(p.B))
    broken, _ = _break("continuity", replace(rep, magnetization_residual=1.0), None)

    def at(level):
        return replace(
            broken, Q=tuple(math.copysign(level, q) for q in rep.Q), W=0.0,
            first_law_residual=level,
        )

    assert invariant_violations(at(floor), p) == ()
    assert invariant_violations(at(2.0 * floor), p) == (
        "First Law", "current-constraint", "continuity",
    )


def test_thermo_report_raises_when_the_work_misses_the_first_law(monkeypatch):
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    honest = thermo._current_columns

    def shifted(rhos, gens):
        q, Q, W, C = honest(rhos, gens)
        return q, Q, W + 1e-8 * np.abs(Q).max(axis=1), C

    monkeypatch.setattr(thermo, "_current_columns", shifted)
    assert _broken(solve_point(p)) == ("First Law",)
    # the record body makes the point an error row
    rec = evaluate_point(p)
    assert rec.flags == ("error:NumericalConsistencyError",) and rec.thermo is None


def test_coherence_currents_must_be_real():
    # off the population route the currents read the state's coherences;
    # coherences that are not Hermitian leave an imaginary residue
    sol = solve_point(UNCLOSED_HARMONIC)
    assert sol.populations is None
    assert thermo._harmonic_heat_currents(sol) == evaluate_point(UNCLOSED_HARMONIC).thermo.Q
    off = 1.0 - np.eye(8)
    skewed = replace(sol, rho_eig=sol.rho_eig + 1e-3j * off)
    with pytest.raises(NumericalConsistencyError, match="heat current has imaginary residue"):
        thermo._harmonic_heat_currents(skewed)


@pytest.mark.filterwarnings("ignore::triqubit.errors.SecularValidityWarning")
def test_no_harmonic_draw_misses_the_first_law_by_more_than_1e_12():
    # the first 2000 global_scatter draws at one master seed, and the three
    # tiny-field tail points, whose gross energy flows through the levels
    # exceed max|Q_i| by up to some 1e10: the subtraction-free populations
    # and the edge-form currents keep every sum Q within 1e-12 max|Q_i|,
    # on the float currents the records carry
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "global_scatter.json").read_text())
    cfg = SweepConfig(**dict(data, master_seed=random.Random(1).getrandbits(62), n_samples=2000))
    points = [draw_params(cfg, k) for k in range(2000)] + [
        draw_params(SweepConfig(**dict(data, master_seed=seed, n_samples=index + 1)), index)
        for seed, index in HARMONIC_TAIL
    ]
    missed = {}
    for k, p in enumerate(points):
        Q = thermo._harmonic_heat_currents(solve_point(p))
        scale = max(map(abs, Q))
        if scale > thermo._current_floor(p) and abs(math.fsum(Q)) > 1e-12 * scale:
            missed[k] = abs(math.fsum(Q)) / scale
    assert missed == {}


def _oracle_report(sol, epsilon):
    """(report, broken laws) of sol, its bookkeeping taken one scalar function at a time.

    The route the report of one point took before the bookkeeping of a run
    became one pass over its rows: the oracles cop_metrics,
    otto_conditions_and_trapezoid and entropy_production, then
    submachine_report and classify_regime, on the point's own currents, a
    stack of one of the local current pass.
    """
    p = sol.params
    if p.bath_model == "harmonic":
        currents, Q, W = None, thermo._harmonic_heat_currents(sol), 0.0
        submachines, first_law, magnetization = None, abs(math.fsum(Q)), None
    else:
        q, Q, W, C = (column[0].tolist()
                      for column in local_me._current_columns(sol.rho[None], (sol.generators,)))
        currents = CurrentSet(Q=tuple(Q), W=W, q=tuple(q), C=dict(zip(FLOWS, C)))
        submachines = submachine_report(currents, p.B, p.T, epsilon)
        first_law, magnetization = abs(W + math.fsum(Q)), abs(math.fsum(currents.q))
    metrics = cop_metrics(Q, W, p.T, p.B)
    report = ThermoReport(
        Q=tuple(Q), W=W, S_dot=entropy_production(Q, p.T), regime=Regime.UNCLASSIFIED,
        cop=metrics.cop, cop_w=metrics.cop_w, cop_max=metrics.cop_max,
        cop_otto=metrics.cop_otto, currents=currents, submachines=submachines,
        inside_trapezoid=(otto_conditions_and_trapezoid(p.B, p.T)
                          if all(b > 0.0 for b in p.B) else False),
        first_law_residual=first_law, magnetization_residual=magnetization,
    )
    broken = invariant_violations(report, p)
    if not broken and min(abs(q) for q in Q) > thermo._current_floor(p):
        report = replace(report, regime=classify_regime(Q, W, epsilon))
    return report, broken


def _solved(points):
    """The solutions of the points of points that solve."""
    sols = []
    for p in points:
        try:
            sols.append(solve_point(p))
        except (DomainError, NumericalConsistencyError):
            pass
    return sols


def _bookkeeping_runs():
    """Runs of up to 64 solutions: the bundled valve grid on both models, the boost grid,
    520 local_scatter draws, points with None figures and idle pairs, currents at the floor,
    and a boost run in which the states of two points are not steady."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    points = []
    for name, overrides in (("valve", {}), ("valve", {"bath_model": "harmonic"}), ("boost", {})):
        data = {**json.loads((configs / f"{name}.json").read_text()), **overrides}
        points.append(sweeps._grid_points(sweeps.GridScanConfig(**data)))
    cfg = SweepConfig(**json.loads((configs / "local_scatter.json").read_text()))
    points.append([draw_params(cfg, k) for k in range(520)])
    # T1 = T2 and B1 = B2: no cop_max nor cop_otto, an idle (1, 2) pair
    points.append([local_point(B=(1.0, 1.0, 2.0), T=(1.0, 1.0, 3.0)),
                   local_point(B=(0.8, 0.8, 2.5), gamma=(0.3, 0.6, 0.9))])
    points.append([global_point(B=(0.37, 0.61, 0.83), T=(1e-4, 2e-4, 3e-4)),
                   global_point(B=(0.5, 0.5, 0.9), T=(1.0, 1.0, 3.0))])
    runs = [sols[k:k + 64] for sols in map(_solved, points) for k in range(0, len(sols), 64)]
    boost = list(runs[-5])
    assert boost[0].params.bath_model == "repeated_interaction"
    boost[5] = replace(boost[5], rho=np.eye(8, dtype=complex) / 8)
    boost[40] = replace(boost[40], rho=np.diag([0.5, 0.2, 0.1, 0.1, 0.05, 0.03, 0.01, 0.01]) + 0j)
    return runs + [boost]


@pytest.mark.filterwarnings("ignore::triqubit.errors.SecularValidityWarning")
def test_stacked_bookkeeping_keeps_the_bits_of_the_scalar_oracles(monkeypatch):
    # every run goes through one stacked pass of the record body: none is
    # split into runs of one, and each field of each report is the oracles'
    body, lengths, runs = sweeps._run_records, [], []

    def spy(points, *args):
        runs.append(len(points))
        return body(points, *args)

    monkeypatch.setattr(sweeps, "_run_records", spy)
    seen = {"roles": set(), "regimes": set(), "none_cops": 0, "at_floor": 0, "broken": []}
    for run in _bookkeeping_runs():
        points = [sol.params for sol in run]
        lengths.append(len(run))
        records = sweeps.Records.from_rows(
            range(len(run)), points, *zip(*sweeps._run_records(points, DEFAULT_EPSILON, run)))
        for k, (sol, rec) in enumerate(zip(run, records)):
            report, broken = _oracle_report(sol, DEFAULT_EPSILON)
            # a harmonic point's build warnings are flags of its record
            warned = tuple(dict.fromkeys(
                f"warn:{type(w).__name__}" for w in sol.generators.build_warnings))
            # the run of one of the point gives its record
            alone = sweeps.Records.from_rows(
                [k], [sol.params], *zip(*body([sol.params], DEFAULT_EPSILON, [sol])))
            assert repr(alone[0]) == repr(rec)
            if broken:
                seen["broken"].append(k)
                assert rec.flags == ("error:NumericalConsistencyError",) + warned
                assert rec.thermo is None and rec.correlations is None and rec.residual is None
                assert _broken(sol) == broken
                continue
            # repr spells every float to its last bit, signed zeros included
            assert repr(rec.thermo) == repr(report)
            assert rec.flags == warned
            seen["roles"] |= {f.role for f in report.submachines or ()}
            seen["regimes"].add(report.regime)
            seen["none_cops"] += None in (report.cop, report.cop_w, report.cop_max,
                                          report.cop_otto)
            at_floor = min(map(abs, report.Q)) <= thermo._current_floor(sol.params)
            seen["at_floor"] += at_floor and report.regime is Regime.UNCLASSIFIED
    assert runs == lengths
    assert seen["roles"] == set(Role)
    assert len(seen["regimes"]) >= 4 and seen["none_cops"] and seen["at_floor"]
    # the two points of the last run whose states are not steady, each on its own index
    assert seen["broken"] == [5, 40]
