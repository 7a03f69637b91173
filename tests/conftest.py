"""Shared parameter sets for the test suite.

Two scatter configurations (one per bath model), the valve grid setup, and
the boost window setup. Kept as plain dicts so tests can override fields.
"""

import numpy as np
from numpy.testing import assert_array_equal

from triqubit import ModelParams, correlations, global_me, local_me, solve_point

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

# (master seed, index) of three global_scatter draws with one field near
# 1.1e-3 to 1.8e-3: their gross energy flows through the levels exceed
# max|Q_i| by up to some 1e10, the hardest known first-law cases
HARMONIC_TAIL = [(2827956119220495982, 230), (858442059008659882, 1931),
                 (3272349822893091107, 29)]


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


def eigen_blocks(gen):
    """The dm >= 0 eigen blocks of one point, from its bath model's builder, one stack each."""
    return (global_me if gen.params.bath_model == "harmonic" else local_me)._eigen_blocks([gen])


def cut_eigen_blocks(monkeypatch):
    """The Generators of the harmonic points whose eigen blocks are cut from now on, in order."""
    cut, real = [], global_me._eigen_blocks
    monkeypatch.setattr(global_me, "_eigen_blocks", lambda gens: cut.extend(gens) or real(gens))
    return cut


def whole_eigen_blocks(gen):
    """The eigen blocks of a point completed to every row of liouville_block_groups.

    The builders hand over the dm >= 0 row of each stack; the -dm row is its
    Hermiticity mirror, the block conjugated on the swapped positions,
    reordered to the ascending positions of index[1].
    """
    out = []
    for index, half in zip(gen.spectrum.liouville_block_groups, eigen_blocks(gen), strict=True):
        assert half.shape[0] == 1
        rows = [half[0]]
        if index.shape[0] == 2:
            swapped = swapped_positions(index[0], gen.spectrum.dim)
            order = np.argsort(swapped)
            assert_array_equal(swapped[order], index[1])
            rows.append(half[0][np.ix_(order, order)].conj())
        out.append(np.stack(rows))
    return out


def break_mi_bound(monkeypatch, p):
    """Raise the (1, 3) MI bound of p's steady state to I13 + 1e-9, past the law's 1e-10 slack.

    The stand-in for correlations.mi_lower_bound knows the point by its
    (1, 3) current C = 8 J Im(r23), which no other point of a run shares;
    every other bound is the real one.
    """
    [row] = correlations._correlation_rows(solve_point(p).rho[None], (p,))
    column = correlations.CORRELATION_COLUMNS.index
    J13 = p.pair_value("J", 1, 3)
    key = (8.0 * J13 * row[column("r23im13")], J13)
    assert key[0] != 0.0
    real = correlations.mi_lower_bound
    monkeypatch.setattr(correlations, "mi_lower_bound",
                        lambda C, J: row[column("I13")] + 1e-9 if (C, J) == key else real(C, J))
