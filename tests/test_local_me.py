"""Repeated-interaction generator: rates, currents, work bookkeeping."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from triqubit import ModelParams, build_liouvillian, solve_point
from triqubit.algebra import trace_distance, vec
from triqubit.errors import DomainError
from triqubit.local_me import (
    interqubit_current,
    local_current_set,
    local_heat_current,
    local_rates,
    magnetization_current_closed_form,
)

from conftest import local_point


def _product_gibbs(B, T):
    singles = []
    for b, t in zip(B, T):
        g = np.diag([np.exp(-b / t), np.exp(b / t)]).astype(complex)
        singles.append(g / np.trace(g).real)
    return np.kron(np.kron(singles[0], singles[1]), singles[2])


def test_rates_detailed_balance():
    p = local_point(B=(0.8, 1.5, 2.2))
    for site in (1, 2, 3):
        r = local_rates(p, site)
        b, t = p.B[site - 1], p.T[site - 1]
        assert abs(r.n_up - 1.0 / np.expm1(2.0 * b / t)) < 1e-15
        assert abs(r.down_rate / r.up_rate - np.exp(2.0 * b / t)) < 1e-12
        assert abs(r.bath_sz + np.tanh(b / t)) < 1e-15


def test_rates_need_positive_field():
    p = local_point(B=(0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        local_rates(p, 1)


def test_uncoupled_fixed_point_is_product_gibbs():
    p = local_point(B=(0.5, 1.3, 2.1), J=(0.0, 0.0, 0.0), Delta=(0.0, 0.0, 0.0))
    gibbs = _product_gibbs(p.B, p.T)
    assert np.linalg.norm(build_liouvillian(p) @ vec(gibbs)) < 1e-12
    sol = solve_point(p)
    assert trace_distance(sol.rho, gibbs) < 1e-12
    cs = local_current_set(sol.rho, p)
    assert max(abs(q) for q in cs.Q) < 1e-14
    assert abs(cs.W) < 1e-14


def test_proportional_fields_keep_product_gibbs():
    # with B_i/T_i constant the product Gibbs state commutes with H and is
    # annihilated by every local bath, coupling or not
    p = local_point(B=(0.6, 1.2, 1.8), gamma=(0.3, 0.7, 0.2))
    sol = solve_point(p)
    assert trace_distance(sol.rho, _product_gibbs(p.B, p.T)) < 1e-10
    cs = local_current_set(sol.rho, p)
    assert max(abs(q) for q in cs.Q) < 1e-12


def test_work_routes_agree():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    sol = solve_point(p)
    w = local_current_set(sol.rho, p).W
    heats = [local_heat_current(sol.rho, p, s) for s in (1, 2, 3)]
    scale = max(abs(w), max(abs(q) for q in heats))
    assert abs(w + sum(heats)) < 1e-10 * scale


def test_heat_current_is_field_times_magnetization_current():
    p = local_point(B=(1.1, 0.5, 3.3), gamma=(0.6, 0.25, 0.9))
    sol = solve_point(p)
    cs = local_current_set(sol.rho, p)
    for site in (1, 2, 3):
        q = cs.q[site - 1]
        assert abs(local_heat_current(sol.rho, p, site) - p.B[site - 1] * q) < 1e-12


def test_magnetization_current_routes_agree():
    p = local_point(B=(1.1, 0.5, 3.3), gamma=(0.6, 0.25, 0.9))
    sol = solve_point(p)
    cs = local_current_set(sol.rho, p)
    for site in (1, 2, 3):
        a = cs.q[site - 1]
        b = magnetization_current_closed_form(sol.rho, p, site)
        assert abs(a - b) < 1e-10 * max(1e-300, abs(a), abs(b)) + 1e-14


def test_equal_fields_exchange_no_work():
    # Q_i = b * q_i and the q_i sum to zero, so W = -sum Q vanishes
    p = local_point(B=(1.4, 1.4, 1.4), gamma=(0.2, 0.5, 0.8))
    sol = solve_point(p)
    cs = local_current_set(sol.rho, p)
    scale = max(abs(q) for q in cs.Q)
    assert scale > 1e-8  # heat genuinely flows
    assert abs(cs.W) < 1e-10 * scale
    assert abs(sum(cs.q)) < 1e-10 * max(abs(v) for v in cs.q)


def test_interqubit_antisymmetry_and_validation():
    p = local_point(B=(0.9, 2.7, 4.1))
    sol = solve_point(p)
    for j, i in ((2, 1), (3, 1), (3, 2)):
        assert abs(interqubit_current(sol.rho, p, j, i) + interqubit_current(sol.rho, p, i, j)) < 1e-14
    with pytest.raises(DomainError):
        interqubit_current(sol.rho, p, 2, 2)


def test_current_set_consistency():
    p = local_point(B=(0.9, 2.7, 4.1), gamma=(0.4, 0.8, 0.15))
    sol = solve_point(p)
    cs = local_current_set(sol.rho, p)
    assert_allclose(cs.Q, [b * q for b, q in zip(p.B, cs.q)], atol=1e-13)
    scale = max(abs(cs.W), max(abs(q) for q in cs.Q))
    assert abs(cs.W + sum(cs.Q)) < 1e-10 * scale
    assert set(cs.C) == {(2, 1), (3, 1), (3, 2)}


def test_current_set_rejects_wrong_model():
    p = local_point(B=(0.9, 2.7, 4.1))
    sol = solve_point(p)
    q = ModelParams(
        B=p.B, J=p.J, Delta=p.Delta, T=p.T, gamma=p.gamma, bath_model="harmonic"
    )
    with pytest.raises(DomainError):
        local_current_set(sol.rho, q)


def test_generator_is_trace_preserving():
    p = local_point(B=(0.9, 2.7, 4.1))
    L = build_liouvillian(p)
    u = vec(np.eye(8, dtype=complex))
    assert np.linalg.norm(u @ L) < 1e-12 * np.linalg.norm(L)
