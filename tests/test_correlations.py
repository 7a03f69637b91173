"""Entropies, mutual information, X-form analysis, PPT flags."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from triqubit import DomainError, correlations, evaluate_point, solve_point
from triqubit.algebra import herm, partial_trace, partial_transpose
from triqubit.correlations import (
    mi_lower_bound,
    mutual_information,
    ppt_check,
    von_neumann_entropy,
    x_state_analysis,
)
from triqubit.model import PAIRS, SITES
from triqubit.sweeps import SweepConfig, draw_params

from conftest import assert_same_bits, local_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def bell_pair_state():
    # maximally entangled pair on sites 1,2 with site 3 in |0>
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[6] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def ghz_state():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(ghz_state()) < 1e-12
    assert abs(von_neumann_entropy(np.eye(2) / 2.0) - math.log(2.0)) < 1e-14
    assert abs(von_neumann_entropy(np.eye(8) / 8.0) - 3.0 * math.log(2.0)) < 1e-13


def test_entropy_rejects_negative_eigenvalue():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(DomainError):
        von_neumann_entropy(bad)


def test_mutual_information_bell_pair():
    rho = bell_pair_state()
    assert abs(mutual_information(rho, 1, 2) - 2.0 * math.log(2.0)) < 1e-12
    # site 3 is uncorrelated with either half of the pair
    assert mutual_information(rho, 1, 3) < 1e-12
    assert mutual_information(rho, 2, 3) < 1e-12
    with pytest.raises(DomainError):
        mutual_information(rho, 2, 2)


def test_mutual_information_product_state():
    rho = np.eye(1)
    for w in ((0.7, 0.3), (0.5, 0.5), (0.9, 0.1)):
        rho = np.kron(rho, np.diag(w))
    rho = rho.astype(complex)
    for i, j in PAIRS:
        assert abs(mutual_information(rho, i, j)) < 1e-13


def test_ppt_ghz_all_cuts():
    rho = ghz_state()
    for site in (1, 2, 3):
        check = ppt_check(rho, site)
        assert check.is_negative
        assert abs(check.min_eigenvalue + 0.5) < 1e-12


def test_ppt_bell_pair_cuts():
    rho = bell_pair_state()
    assert ppt_check(rho, 1).is_negative
    assert ppt_check(rho, 2).is_negative
    # the third qubit factors out, so that cut stays positive
    assert not ppt_check(rho, 3).is_negative


def test_x_state_closed_form_eigenvalues():
    rho = np.diag([0.35, 0.25, 0.2, 0.2]).astype(complex)
    rho[1, 2] = 0.1 * np.exp(0.7j)
    rho[2, 1] = np.conj(rho[1, 2])
    analysis = x_state_analysis(rho)
    assert analysis.residual == 0.0
    assert abs(analysis.r23_modulus - 0.1) < 1e-15
    exact = np.sort(np.array(analysis.eigenvalues))
    direct = np.linalg.eigvalsh(rho)
    assert np.max(np.abs(exact - direct)) < 1e-14


def test_x_state_residual_counts_corners():
    rho = np.diag([0.35, 0.25, 0.2, 0.2]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.1
    rho[0, 3] = rho[3, 0] = 1e-3
    analysis = x_state_analysis(rho)
    assert abs(analysis.residual - math.sqrt(2.0) * 1e-3) < 1e-18


def test_x_state_analysis_validation():
    with pytest.raises(DomainError):
        x_state_analysis(np.eye(8) / 8.0)
    bad = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    bad[1, 2] = 0.1  # no conjugate partner
    with pytest.raises(DomainError):
        x_state_analysis(bad)


def test_mi_lower_bound_endpoints():
    assert mi_lower_bound(0.0, 0.5) == 0.0
    # saturated current: bound reaches (ln 2)/2
    assert abs(mi_lower_bound(1.0, 0.5) - 0.5 * math.log(2.0)) < 1e-14
    values = [mi_lower_bound(c, 0.5) for c in np.linspace(0.0, 1.0, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert mi_lower_bound(-0.3, 0.5) == mi_lower_bound(0.3, 0.5)


def test_mi_lower_bound_validation():
    with pytest.raises(DomainError):
        mi_lower_bound(0.1, 0.0)
    with pytest.raises(DomainError):
        mi_lower_bound(0.1, -0.2)
    with pytest.raises(DomainError):
        mi_lower_bound(1.1, 0.5)


def test_mi_bound_tight_on_equal_population_x_state():
    # the minimizing state itself: uniform diagonal, inner coherence x/4;
    # its mutual information equals the bound identically
    J = 0.6
    for x in (0.3, 0.7, 1.0):
        rho = np.diag([0.25] * 4).astype(complex)
        rho[1, 2] = rho[2, 1] = x / 4.0
        s_pair = von_neumann_entropy(rho)
        mi = 2.0 * math.log(2.0) - s_pair
        assert abs(mi - mi_lower_bound(2.0 * J * x, J)) < 1e-12


def test_correlation_report_solved_point():
    p = local_point(B=(0.8, 1.7, 2.9), gamma=(0.5, 0.5, 0.5))
    rep = evaluate_point(p).correlations
    assert set(rep.I) == set(PAIRS)
    for pair in PAIRS:
        assert rep.x_form_residual[pair] < 1e-10
        assert rep.I[pair] >= rep.mi_bound[pair] - 1e-10
        assert isinstance(rep.r23[pair], complex)
    assert len(rep.ppt_negative) == 3
    assert len(rep.ppt_min_eigenvalues) == 3


def test_correlation_report_zero_coupling_pair():
    # J = 0 on (1,3) carries no interqubit current, so its bound is zero
    p = local_point(
        B=(0.8, 1.7, 2.9), gamma=(0.5, 0.5, 0.5),
        J=(0.9, 0.0, 0.7), Delta=(0.12, 0.26, 0.61),
    )
    rep = evaluate_point(p).correlations
    assert rep.mi_bound[(1, 3)] == 0.0
    assert rep.mi_bound[(1, 2)] > 0.0
    assert rep.I[(1, 3)] >= 0.0


def test_correlation_report_rejects_a_state_of_another_size():
    # the cached gathers index an 8 x 8 state; any other shape would be
    # read out of place
    p = local_point(B=(0.8, 1.7, 2.9))
    for d in (4, 16):
        with pytest.raises(DomainError):
            correlations._correlation_rows(np.eye(d, dtype=complex)[None] / d, (p,))


def _per_pair_entropy(rho):
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log(lam)).sum())


def _per_pair_report(rho, params):
    """The numbers of a correlation report one pair and one cut at a time."""
    out = {"I": {}, "xres": {}, "bound": {}, "r23": {}}
    for i, j in PAIRS:
        reduced = herm(partial_trace(rho, (i, j)))
        s_i = _per_pair_entropy(partial_trace(rho, (i,)))
        s_j = _per_pair_entropy(partial_trace(rho, (j,)))
        s_ij = _per_pair_entropy(partial_trace(rho, (i, j)))
        out["I"][(i, j)] = s_i + s_j - s_ij
        assert out["I"][(i, j)] == mutual_information(rho, i, j)
        out["xres"][(i, j)] = x_state_analysis(reduced).residual
        out["r23"][(i, j)] = complex(reduced[1, 2])
        J = params.pair_value("J", i, j)
        out["bound"][(i, j)] = (
            mi_lower_bound(8.0 * J * float(reduced[1, 2].imag), J) if J > 0.0 else 0.0
        )
    checks = [ppt_check(rho, site) for site in (1, 2, 3)]
    out["ppt"] = tuple(c.min_eigenvalue for c in checks)
    out["negative"] = tuple(c.is_negative for c in checks)
    return out


def _scatter_points(name, n):
    cfg = SweepConfig(**json.loads((CONFIGS / f"{name}.json").read_text()))
    return [draw_params(cfg, k) for k in range(n)]


# cold baths: a near-pure state whose pair reductions have exact zero eigenvalues
COLD = local_point(B=(0.9, 2.7, 4.1), T=(1e-3, 1e-3, 1e-3))
REPORT_POINTS = (
    _scatter_points("local_scatter", 20) + _scatter_points("global_scatter", 20) + [COLD]
)
REPORT_IDS = [f"local-{k}" for k in range(20)] + [f"global-{k}" for k in range(20)] + ["cold"]


@pytest.mark.parametrize("p", REPORT_POINTS, ids=REPORT_IDS)
def test_correlation_report_keeps_the_bits_of_the_per_pair_route(p):
    rho = solve_point(p).rho
    [row] = correlations._correlation_rows(rho[None], (p,))
    rep = correlations._correlation_view(row)
    want = _per_pair_report(rho, p)
    assert repr(rep.I) == repr(want["I"])
    assert repr(rep.x_form_residual) == repr(want["xres"])
    assert repr(rep.mi_bound) == repr(want["bound"])
    assert repr(rep.r23) == repr(want["r23"])
    assert repr(rep.ppt_min_eigenvalues) == repr(want["ppt"])
    assert rep.ppt_negative == want["negative"]


def test_report_takes_its_reductions_as_gathers(monkeypatch):
    # one eigvalsh per reduction kind (pairs, sites, partial transposes)
    # and none of the per-pair route's reductions
    from triqubit import algebra, correlations
    p = local_point(B=(0.8, 1.7, 2.9), gamma=(0.5, 0.5, 0.5))
    rho = solve_point(p).rho
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    count(np.linalg, "eigvalsh")
    count(np, "einsum")
    for module in (algebra, correlations):
        for name in ("partial_trace", "partial_transpose"):
            count(module, name)
    count(correlations, "x_state_analysis")
    correlations._correlation_rows(rho[None], (p,))
    assert calls == {"eigvalsh": 3}


def test_gathered_reductions_keep_the_bits_of_partial_trace():
    # random states spanning 40 decades, with signed zeros: the gathers
    # sum the traced entries in np.einsum's order, from +0.0
    pair_index, site_index, cut_index = correlations._reduction_gathers()
    rng = np.random.default_rng(14)
    for trial in range(200):
        parts = rng.standard_normal((2, 8, 8)) * 10.0 ** rng.integers(-20, 20, (2, 8, 8))
        parts[rng.random((2, 8, 8)) < 0.3] = 0.0
        parts[rng.random((2, 8, 8)) < 0.3] = -0.0
        rho = np.empty((8, 8), dtype=complex)
        rho.real, rho.imag = parts  # keeps the signs of the zeros
        flat = rho.reshape(1, -1)
        pairs = correlations._traced_sum(flat[:, pair_index])[0]
        sites = correlations._traced_sum(flat[:, site_index])[0]
        for k, pair in enumerate(PAIRS):
            assert_same_bits(pairs[k], partial_trace(rho, pair))
        for k, site in enumerate(SITES):
            assert_same_bits(sites[k], partial_trace(rho, (site,)))
            assert_same_bits(flat[0, cut_index[k]], partial_transpose(rho, site))


def test_zero_eigenvalues_raise_no_warning():
    rho = solve_point(COLD).rho
    assert any(0.0 in np.linalg.eigvalsh(partial_trace(rho, pair)) for pair in PAIRS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        correlations._correlation_rows(rho[None], (COLD,))
    rec = evaluate_point(COLD)
    assert rec.correlations is not None
    assert not [f for f in rec.flags if f.startswith("warn:")]
