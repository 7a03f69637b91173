"""Shared parameter sets for the test suite.

Two scatter configurations (one per bath model), the valve grid setup, and
the boost window setup. Kept as plain dicts so tests can override fields.
"""

import numpy as np
from numpy.testing import assert_array_equal

from triqubit import ModelParams

# weak-damping harmonic setup: random fields drawn from (0, 1)
GLOBAL_SCATTER = dict(
    J=(5.49e-4, 2.960e-4, 4.963e-4),
    Delta=(7.93e-4, 9.67e-4, 1.69e-4),
    gamma=(8.71e-7, 5.76e-7, 7.56e-7),
    T=(1.0, 2.0, 3.0),
)

# strong-coupling repeated-interaction setup: random fields and rates
LOCAL_SCATTER = dict(
    J=(0.981, 0.775, 0.757),
    Delta=(0.124, 0.256, 0.611),
    T=(1.0, 2.0, 3.0),
)

# heat-valve grid: B2 is the knob, everything else pinned
VALVE = dict(
    J=(0.407, 0.322, 0.243),
    Delta=(0.631, 0.705, 0.476),
    B1=0.4,
    B3=1.6,
    gamma=(1e-6, 1e-6, 1e-6),
    T=(1.0, 2.0, 3.0),
)

# composite-refrigerator window scan
BOOST = dict(
    J=LOCAL_SCATTER["J"],
    Delta=LOCAL_SCATTER["Delta"],
    B1=1.31,
    B3=3.57,
    gamma=(0.645, 0.780, 0.934),
    T=(1.0, 2.0, 3.0),
)

# pinned master seed for every deterministic sweep in the suite
MASTER_SEED = 20260819

# harmonic point whose secular clusters do not decouple (equal fields, weak
# uniform exchange), so its solve takes the full 64x64 route
UNCLOSED_HARMONIC = ModelParams(
    B=(0.5, 0.5, 0.5), J=(0.02, 0.02, 0.02), Delta=(0.0, 0.0, 0.0),
    T=(1.0, 2.0, 3.0), gamma=(1e-4, 1e-4, 1e-4), bath_model="harmonic",
)


def local_point(B, gamma=(0.5, 0.5, 0.5), **overrides) -> ModelParams:
    kw = dict(LOCAL_SCATTER, B=B, gamma=gamma, bath_model="repeated_interaction")
    kw.update(overrides)
    return ModelParams(**kw)


def global_point(B, **overrides) -> ModelParams:
    kw = dict(GLOBAL_SCATTER, B=B, bath_model="harmonic")
    kw.update(overrides)
    return ModelParams(**kw)


def assert_same_bits(got, want):
    """Equal dtypes, shapes and values, and equal signs of every zero.

    Compares values rather than raw bytes, so it also serves longdouble
    arrays, whose storage carries padding bytes.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    parts = (got.real, want.real, got.imag, want.imag) if got.dtype.kind == "c" else (got, want)
    for g, w in zip(parts[::2], parts[1::2]):
        assert_array_equal(g, w)
        assert_array_equal(np.signbit(g), np.signbit(w))


def swapped_positions(index, d=8):
    """Vec positions b + d a of |b><a| for the positions a + d b in index."""
    return (index % d) * d + index // d


def whole_eigen_blocks(gen):
    """Generators.eigen_blocks completed to every row of liouville_block_groups.

    The builders hand over the dm >= 0 row of each stack; the -dm row is its
    Hermiticity mirror, the block conjugated on the swapped positions,
    reordered to the ascending positions of index[1].
    """
    out = []
    for index, half in zip(gen.spectrum.liouville_block_groups, gen.eigen_blocks, strict=True):
        assert half.shape[0] == 1
        rows = [half[0]]
        if index.shape[0] == 2:
            swapped = swapped_positions(index[0], gen.spectrum.dim)
            order = np.argsort(swapped)
            assert_array_equal(swapped[order], index[1])
            rows.append(half[0][np.ix_(order, order)].conj())
        out.append(np.stack(rows))
    return out
