"""Fixed calibration kernel that tracks how fast the machine runs right now.

On a shared machine other tenants slow this process by tens of percent for
seconds to minutes at a time, and CPU time inflates with wall time, so raw
throughput from two runs a minute apart can differ by a third. The
benchmark times this kernel just before and just after every round and
rescales the round's timings to a machine on which the kernel takes
``REFERENCE_S`` seconds. The kernel mimics one sweep point's instruction
mix: small complex linear algebra through LAPACK, extended-precision numpy
loops outside BLAS, tiny Kronecker products and plain Python loops. It uses
no triqubit code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030  # nominal kernel time; fixes the unit of rescaled timings
_REPEATS = 20


def _inputs():
    rng = np.random.default_rng(20191003)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return a, h + h.conj().T, rng.standard_normal(64).astype(np.clongdouble)


_A, _H, _X = _inputs()
_A_LD = _A.astype(np.clongdouble)
_P = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kernel() -> float:
    """Run the kernel once and return a checksum (keeps the work observable)."""
    total = 0.0
    for _ in range(_REPEATS):
        s = np.linalg.svd(_A, compute_uv=False)
        q, r = np.linalg.qr(np.vstack([_A, _A[:1]]))
        w = np.linalg.eigvalsh(_H)
        y = _A_LD @ _X
        m = _A.conj().T @ _A @ _A
        op = np.array([[1.0 + 0.0j]])
        for k in range(3):
            op = np.kron(op, _P if k == 1 else np.eye(2))
        acc = 0.0
        for i in range(400):
            acc += (i % 7) * 0.5
        total += float(s[0] + abs(r[0, 0]) + w[0] + abs(complex(y[0])) + abs(m[0, 0]) + op.real.sum() + acc)
    return total


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
