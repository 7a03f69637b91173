"""Operator and superoperator building blocks, checked against index oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import triqubit
from triqubit.algebra import (
    CLD,
    LD,
    checked_trace,
    coherent_superop,
    embed_pauli,
    herm,
    lindblad_superop,
    num_qubits,
    partial_trace,
    partial_transpose,
    pauli,
    trace_distance,
    unvec,
    vec,
)
from triqubit.errors import DomainError, NumericalConsistencyError

from oracles import expectation


def _random_matrix(rng, d=8):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _random_state(rng, d=8):
    a = _random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_algebra():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    assert_allclose(x @ x, np.eye(2), atol=1e-15)
    assert_allclose(x @ y - y @ x, 2j * z, atol=1e-15)
    assert_allclose(y @ z - z @ y, 2j * x, atol=1e-15)
    # minus annihilates the excited (bit 1, sigma_z = -1) level and fills it
    minus, plus = pauli("minus"), pauli("plus")
    assert_allclose(minus, np.array([[0, 0], [1, 0]], dtype=complex), atol=0)
    assert_allclose(plus, minus.conj().T, atol=0)
    assert_allclose(z @ minus, -minus, atol=1e-15)


def test_pauli_unknown_axis():
    with pytest.raises(DomainError):
        pauli("w")


def test_embed_positions():
    # site 1 is the most significant tensor factor
    z1 = embed_pauli(3, "z", 1)
    z3 = embed_pauli(3, "z", 3)
    assert_allclose(np.diag(z1), [1, 1, 1, 1, -1, -1, -1, -1], atol=0)
    assert_allclose(np.diag(z3), [1, -1, 1, -1, 1, -1, 1, -1], atol=0)
    with pytest.raises(DomainError):
        embed_pauli(3, "z", 4)


def test_embeddings_are_shared_and_read_only():
    z2 = embed_pauli(3, "z", 2)
    assert embed_pauli(3, "z", 2) is z2
    with pytest.raises(ValueError):
        z2[0, 0] = 5.0
    with pytest.raises(ValueError):
        z2 *= 2.0
    assert_allclose(np.diag(z2), [1, 1, -1, -1, 1, 1, -1, -1], atol=0)
    x = pauli("x")
    x[0, 0] = 5.0  # pauli() hands out a private, writable copy
    assert pauli("x")[0, 0] == 0.0


def test_embedded_sites_commute():
    x1 = embed_pauli(3, "x", 1)
    y2 = embed_pauli(3, "y", 2)
    assert_allclose(x1 @ y2, y2 @ x1, atol=1e-15)


def test_num_qubits_validation():
    assert num_qubits(np.eye(8)) == 3
    with pytest.raises(DomainError):
        num_qubits(np.eye(6))
    with pytest.raises(DomainError):
        num_qubits(np.zeros((4, 8)))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    a = _random_matrix(rng)
    assert_allclose(unvec(vec(a)), a, atol=0)
    # column stacking: the first d entries are the first column
    assert_allclose(vec(a)[:8], a[:, 0], atol=0)


def _dissipator_direct(c, rho):
    return c @ rho @ c.conj().T - 0.5 * (c.conj().T @ c @ rho + rho @ c.conj().T @ c)


def test_dissipator_superop_matches_definition():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = _random_matrix(rng)
        rho = _random_state(rng)
        assert_allclose(
            unvec(lindblad_superop([c], [1.0]) @ vec(rho)), _dissipator_direct(c, rho), atol=1e-12
        )


def test_lindblad_superop_sums_jumps_at_their_rates():
    rng = np.random.default_rng(11)
    rates = (0.3, 1.7, 0.05)
    for _ in range(20):
        ops = [_random_matrix(rng) for _ in rates]
        rho = _random_state(rng)
        direct = sum(r * _dissipator_direct(c, rho) for r, c in zip(rates, ops))
        assert_allclose(unvec(lindblad_superop(ops, rates) @ vec(rho)), direct, atol=1e-12)


def test_coherent_superop_matches_commutator():
    rng = np.random.default_rng(3)
    h = herm(_random_matrix(rng))
    rho = _random_state(rng)
    assert_allclose(
        unvec(coherent_superop(h) @ vec(rho)), -1j * (h @ rho - rho @ h), atol=1e-12
    )


def test_dissipator_traceless_columns():
    # trace preservation of the generator: vec(I)^H D = 0
    rng = np.random.default_rng(4)
    c = _random_matrix(rng)
    u = vec(np.eye(8, dtype=complex))
    assert np.linalg.norm(u @ lindblad_superop([c], [1.0])) < 1e-12 * np.linalg.norm(c) ** 2


def _partial_trace_oracle(rho, keep):
    # direct index-sum definition, one bit at a time
    n = 3
    keep = sorted(keep)
    traced = [s for s in range(1, n + 1) if s not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(8):
        for col in range(8):
            rbits = [(row >> (n - s)) & 1 for s in range(1, n + 1)]
            cbits = [(col >> (n - s)) & 1 for s in range(1, n + 1)]
            if any(rbits[s - 1] != cbits[s - 1] for s in traced):
                continue
            r_out = 0
            c_out = 0
            for s in keep:
                r_out = (r_out << 1) | rbits[s - 1]
                c_out = (c_out << 1) | cbits[s - 1]
            out[r_out, c_out] += rho[row, col]
    return out


@pytest.mark.parametrize("keep", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
def test_partial_trace_against_oracle(keep):
    rng = np.random.default_rng(5)
    rho = _random_state(rng)
    got = partial_trace(rho, keep)
    assert_allclose(got, _partial_trace_oracle(rho, keep), atol=1e-13)
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(6)
    singles = [_random_state(rng, 2) for _ in range(3)]
    rho = np.kron(np.kron(singles[0], singles[1]), singles[2])
    for site in (1, 2, 3):
        assert_allclose(partial_trace(rho, (site,)), singles[site - 1], atol=1e-13)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(7)
    rho = _random_state(rng)
    for site in (1, 2, 3):
        pt = partial_transpose(rho, site)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert_allclose(partial_transpose(pt, site), rho, atol=0)


def test_partial_transpose_entangled_pair():
    # maximally entangled two-qubit state: transposed spectrum hits -1/2
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    lam = np.linalg.eigvalsh(partial_transpose(rho, 1))
    assert abs(lam.min() + 0.5) < 1e-12


def test_expectation_against_index_sum():
    rng = np.random.default_rng(8)
    rho = _random_state(rng)
    obs = herm(_random_matrix(rng))
    oracle = sum(rho[i, j] * obs[j, i] for i in range(8) for j in range(8))
    assert abs(expectation(rho, obs) - oracle.real) < 1e-12
    assert abs(checked_trace(rho, obs.astype(CLD), "trace") - oracle.real) < 1e-12


def test_expectation_rejects_nonhermitian_observable():
    rng = np.random.default_rng(9)
    rho = _random_state(rng)
    with pytest.raises(NumericalConsistencyError):
        expectation(rho, _random_matrix(rng))


def test_trace_distance_extremes():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(up, down) - 1.0) < 1e-12
    assert trace_distance(up, up) == 0.0


def test_herm_projects():
    rng = np.random.default_rng(10)
    a = _random_matrix(rng)
    h = herm(a)
    assert_allclose(h, h.conj().T, atol=0)



# numpy's extended types under every name they go by
_EXTENDED = {"longdouble", "clongdouble", "longfloat", "clongfloat", "longcomplex",
             "float96", "float128", "complex192", "complex256"}


def test_the_extended_types_are_spelled_only_in_algebra():
    # LD and CLD are the one name each of the extended types: the rest of
    # the package imports them, so a change of extended type is a change
    # of algebra.py
    assert (LD, CLD) == (np.longdouble, np.clongdouble)
    package = Path(triqubit.__file__).parent
    spelled = []
    for path in sorted(package.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in _EXTENDED:
                spelled.append(f"{path.name}:{node.lineno}: {name}")
    assert spelled == []
