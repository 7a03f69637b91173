"""Seed-deterministic batch experiments over the three-qubit machine.

Three drivers cover the standard studies: ``random_sweep`` scatters points
over field/rate ranges, ``valve_sweep`` walks a B2 grid at fixed everything
else, and ``boost_scan`` walks a B2 grid inside the absorption-refrigerator
window and locates its zero-work edge. All of them share one record shape
and one CSV layout.

Reproducibility contract: every sample index gets its own tiny generator
seeded from (master_seed XOR index), so the drawn parameters depend only on
the config, never on execution order. Point evaluations are pure, which
makes the output byte-identical for any worker count. N workers are N
processes evaluating points, this one included: N workers make N - 1
os.fork calls, each child evaluating its share of the runs and sending
back the columns of its records, raw int64, float64 and bool buffers and
a flags list, as one pickle on a pipe of its own; one worker forks none.
No process pool library is loaded, and where there is no os.fork the runs
are evaluated in this process.

Every driver returns its records as Records: columns, one row per record,
that index as SweepRecords. A record is its row of VALUE_COLUMNS: a
SweepRecord builds its thermo and correlation reports from the row on
first read, so a sweep builds no report on its way to the CSV.
write_records, the valve labels, the boost extras and the edge search read
the columns and rows.

Every record is made by one body, _run_records, from a run of points.
Grid scans of either bath model solve their points in chunks:
_evaluate_many gives each task a run of up to _GRID_CHUNK consecutive
points, and steady_state.solve_points solves the points of a run that
share a sector order as one stack, each with the bits it gets alone, so
the output does not depend on the chunk size either. The currents and
correlations of a run are then taken as (N, ...) stacks as well, with
the same bits, and its thermodynamic bookkeeping is one pass over them
(thermo._thermo_rows) straight into the run's rows. A point whose
currents break a law is an error row, and a harmonic point's build
warnings are flags of its own row. A run that raises, or warns in any
other way, is split into runs of one, so each failure and warning lands
on its own index. Random sweeps stay one evaluate_point call, a run of
one, per point, for the benchmark's tracer counts a point as one such
call (ROADMAP item 1).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .correlations import (
    CORRELATION_COLUMNS, CorrelationReport, _correlation_rows, _correlation_view,
)
from .errors import DomainError, NumericalConsistencyError, TriqubitError
from .model import (
    BATH_HARMONIC,
    BATH_REPEATED_INTERACTION,
    PAIRS,
    ModelParams,
    _triple,
    as_number,
    as_reals,
)
from .steady_state import solve_point, solve_points
from .thermo import (
    DEFAULT_EPSILON, REGIMES, THERMO_COLUMNS, Regime, ThermoReport, _thermo_rows, _thermo_view,
    checked_epsilon,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# the most points of a grid scan that go through one stacked solve; the
# stacks of 64 points take a few MB
_GRID_CHUNK = 64

# rejection sampling must terminate even on a misconfigured range
_MAX_REDRAWS = 1000
# the least positive double: a draw reaches it exactly when it is > 0
_LEAST_POSITIVE = math.ulp(0.0)


class SplitMix64:
    """Minimal 64-bit mixing generator for per-index parameter draws.

    Chosen over a library generator because the whole algorithm fits in a
    dozen lines and is trivially portable, so the determinism contract does
    not hang on any external implementation detail.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float, high: float) -> float:
        # 53-bit draw in [0, 1); degenerate ranges return low exactly
        x = (self.next_uint64() >> 11) * 2.0**-53
        return low + (high - low) * x


def _as_range(value, name: str) -> tuple:
    pair = as_reals(name, value, 2)
    if not all(map(math.isfinite, pair)) or pair[0] > pair[1]:
        raise DomainError(f"{name} must satisfy low <= high with finite bounds")
    return pair


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a random-parameter sweep.

    Fields and dissipation rates are either fixed (``B``, ``gamma``) or
    sampled uniformly from a range (``B_range``, ``gamma_range``); exactly
    one of each pair must be given. Sampled fields below ``min_field`` are
    redrawn, and points with min(B) < discard_rule * max(gamma) are flagged
    "discarded" but still evaluated. A discard_rule of None means 100 for
    the harmonic-bath model and off for the repeated-interaction model.
    """

    bath_model: str
    J: tuple
    Delta: tuple
    T: tuple = (1.0, 2.0, 3.0)
    B: Optional[tuple] = None
    B_range: Optional[tuple] = None
    gamma: Optional[tuple] = None
    gamma_range: Optional[tuple] = None
    n_samples: int = 1
    master_seed: int = 0
    discard_rule: Optional[float] = None
    min_field: float = 1e-3
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.bath_model not in (BATH_HARMONIC, BATH_REPEATED_INTERACTION):
            raise DomainError(f"unknown bath_model {self.bath_model!r}")
        object.__setattr__(self, "J", _triple("J", self.J))
        object.__setattr__(self, "Delta", _triple("Delta", self.Delta))
        object.__setattr__(self, "T", _triple("T", self.T))
        if (self.B is None) == (self.B_range is None):
            raise DomainError("exactly one of B and B_range must be given")
        if (self.gamma is None) == (self.gamma_range is None):
            raise DomainError("exactly one of gamma and gamma_range must be given")
        if self.B is not None:
            object.__setattr__(self, "B", _triple("B", self.B))
        else:
            object.__setattr__(self, "B_range", _as_range(self.B_range, "B_range"))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _triple("gamma", self.gamma))
        else:
            object.__setattr__(
                self, "gamma_range", _as_range(self.gamma_range, "gamma_range")
            )
            if self.gamma_range[1] <= 0.0:
                raise DomainError("gamma_range must reach positive rates")
        if as_number("n_samples", self.n_samples, integer=True) < 1:
            raise DomainError("n_samples must be a positive integer")
        as_number("master_seed", self.master_seed, integer=True)
        object.__setattr__(self, "min_field", as_number("min_field", self.min_field))
        if not (math.isfinite(self.min_field) and self.min_field > 0.0):
            raise DomainError("min_field must be positive")
        if self.B_range is not None and self.B_range[1] < self.min_field:
            raise DomainError("B_range lies entirely below min_field")
        if self.discard_rule is not None:
            ratio = as_number("discard_rule", self.discard_rule)
            if not math.isfinite(ratio) or ratio < 0.0:
                raise DomainError("discard_rule must be a nonnegative ratio")
            object.__setattr__(self, "discard_rule", ratio)
        object.__setattr__(self, "epsilon", checked_epsilon(self.epsilon))

    @property
    def effective_discard_rule(self) -> float:
        if self.discard_rule is not None:
            return self.discard_rule
        return 100.0 if self.bath_model == BATH_HARMONIC else 0.0


@dataclass(frozen=True)
class GridScanConfig:
    """Configuration of a B2 grid scan with all other parameters fixed."""

    bath_model: str
    J: tuple
    Delta: tuple
    B1: float
    B3: float
    B2_min: float
    B2_max: float
    n_points: int
    gamma: tuple
    T: tuple = (1.0, 2.0, 3.0)
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.bath_model not in (BATH_HARMONIC, BATH_REPEATED_INTERACTION):
            raise DomainError(f"unknown bath_model {self.bath_model!r}")
        for name in ("J", "Delta", "T", "gamma"):
            object.__setattr__(self, name, _triple(name, getattr(self, name)))
        for name in ("B1", "B3", "B2_min", "B2_max"):
            value = as_number(name, getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.B2_min > self.B2_max:
            raise DomainError("B2_min must not exceed B2_max")
        if as_number("n_points", self.n_points, integer=True) < 1:
            raise DomainError("n_points must be a positive integer")
        object.__setattr__(self, "epsilon", checked_epsilon(self.epsilon))


def _draw_at_least(rng: SplitMix64, low: float, high: float, floor: float) -> float:
    """Uniform draw from [low, high), redrawn until it is >= floor."""
    value = rng.uniform(low, high)
    for _ in range(_MAX_REDRAWS):
        if value >= floor:
            return value
        value = rng.uniform(low, high)
    raise DomainError(f"could not draw a value >= {floor} from [{low}, {high}]")


def draw_params(cfg: SweepConfig, index: int) -> ModelParams:
    """Draw the parameter point for one sample index.

    Draw order is fixed (B1, B2, B3, then gamma1..3) so that the mapping
    index -> point is part of the determinism contract.
    """
    rng = SplitMix64((cfg.master_seed ^ index) & _MASK64)
    if cfg.B is not None:
        B = cfg.B
    else:
        lo, hi = cfg.B_range
        B = tuple(_draw_at_least(rng, lo, hi, cfg.min_field) for _ in range(3))
    if cfg.gamma is not None:
        gamma = cfg.gamma
    else:
        lo, hi = cfg.gamma_range
        gamma = tuple(_draw_at_least(rng, lo, hi, _LEAST_POSITIVE) for _ in range(3))
    return ModelParams(
        bath_model=cfg.bath_model, B=B, J=cfg.J, Delta=cfg.Delta, T=cfg.T, gamma=gamma
    )


# the numbers of a record, one row per record: its thermo report's columns,
# its correlation report's and its null-space residual
VALUE_COLUMNS = THERMO_COLUMNS + CORRELATION_COLUMNS + ("nullspace_residual",)
_THERMO = slice(0, len(THERMO_COLUMNS))
_CORRELATIONS = slice(len(THERMO_COLUMNS), len(THERMO_COLUMNS) + len(CORRELATION_COLUMNS))
_Q1, _W, _REGIME, _INSIDE = (VALUE_COLUMNS.index(name) for name in ("Q1", "W", "regime", "inside"))
# the row of a record without reports
_EMPTY_ROW = (None,) * len(VALUE_COLUMNS)


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point, read off its row: reports, residual, flags and scan-specific extras.

    row holds the numbers of the record, a tuple of VALUE_COLUMNS with None
    in the empty cells. thermo and correlations are built from it on first
    read, None where the row has no such report, the submachine roles read
    in the zero band epsilon; residual is its last cell.
    """

    index: int
    params: ModelParams
    row: tuple
    flags: tuple
    extra: Mapping[str, object] = field(default_factory=dict)
    epsilon: float = DEFAULT_EPSILON

    @cached_property
    def thermo(self) -> Optional[ThermoReport]:
        cells = self.row[_THERMO]
        return None if cells[0] is None else _thermo_view(cells, self.params, self.epsilon)

    @cached_property
    def correlations(self) -> Optional[CorrelationReport]:
        cells = self.row[_CORRELATIONS]
        return None if cells[0] is None else _correlation_view(cells)

    @property
    def residual(self) -> Optional[float]:
        return self.row[-1]


def evaluate_point(params: ModelParams, epsilon: float = DEFAULT_EPSILON) -> SweepRecord:
    """Solve one point into its record, never letting failures escape.

    A run of one of _run_records: failures become "error:<Name>" flags
    on an empty row, warnings "warn:<Name>" flags on an otherwise
    complete record, so a sweep yields one record per index. The record
    carries index 0.
    """
    [(row, flags)] = _run_records([params], epsilon)
    return SweepRecord(0, params, row, flags, {}, epsilon)


class Records(Sequence):
    """Evaluated points as columns, read as a sequence of SweepRecords.

    Row k is one record: index[k], params[k], flags[k], the numbers of its
    reports and its residual in values[k] (VALUE_COLUMNS), and
    extra[name][k] for each scan-specific column. empty[k] marks the cells
    that the record leaves None, where values[k] holds NaN: every thermo
    cell of a record without a thermo report, and so on for its correlation
    report and its residual. epsilon is the zero band its submachine roles
    are read with.
    Indexing gives the SweepRecord of row k, which builds its reports only
    when they are read; write_records, the scan labels and the edge search
    read the columns.
    """

    def __init__(self, index, params, values, empty, flags, extra=None,
                 epsilon: float = DEFAULT_EPSILON):
        self.index = np.asarray(index, dtype=np.int64)
        self.params = list(params)
        self.values = values
        self.empty = empty
        self.flags = list(flags)
        self.extra = dict(extra or {})
        self.epsilon = epsilon

    @classmethod
    def from_rows(cls, index, params, rows, flags, extra=None,
                  epsilon: float = DEFAULT_EPSILON) -> "Records":
        """Records whose numbers are rows of VALUE_COLUMNS, None in the empty cells."""
        shape = (len(rows), len(VALUE_COLUMNS))
        return cls(index, params, np.array(rows, dtype=float).reshape(shape),
                   np.array([[v is None for v in row] for row in rows], dtype=bool).reshape(shape),
                   flags, extra, epsilon)

    @classmethod
    def from_records(cls, records, extra_columns: Sequence = (),
                     epsilon: float = DEFAULT_EPSILON) -> "Records":
        """The rows of a sequence of SweepRecords stacked, with their extras of extra_columns."""
        records = list(records)
        return cls.from_rows(
            [rec.index for rec in records], [rec.params for rec in records],
            [rec.row for rec in records], [tuple(rec.flags) for rec in records],
            {name: [rec.extra.get(name) for rec in records] for name in extra_columns},
            epsilon,
        )

    @classmethod
    def concat(cls, parts: Sequence) -> "Records":
        """The rows of each of parts, one or more, in order; the extra columns are the first's."""
        return cls(
            np.concatenate([part.index for part in parts]),
            [p for part in parts for p in part.params],
            np.concatenate([part.values for part in parts]),
            np.concatenate([part.empty for part in parts]),
            [f for part in parts for f in part.flags],
            {name: [v for part in parts for v in part.extra[name]] for name in parts[0].extra},
            parts[0].epsilon,
        )

    def take(self, rows: Sequence) -> "Records":
        """The rows of the indices rows, in that order."""
        return Records(
            self.index[rows], [self.params[k] for k in rows], self.values[rows],
            self.empty[rows], [self.flags[k] for k in rows],
            {name: [column[k] for k in rows] for name, column in self.extra.items()},
            self.epsilon,
        )

    def reported(self) -> np.ndarray:
        """(N,) bool: which records carry a thermo report."""
        return ~self.empty[:, _Q1]

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        row = tuple(None if gap else v
                    for v, gap in zip(self.values[k].tolist(), self.empty[k].tolist()))
        return SweepRecord(int(self.index[k]), self.params[k], row, self.flags[k],
                           {name: column[k] for name, column in self.extra.items()}, self.epsilon)

    def __eq__(self, other):
        if isinstance(other, (Records, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _run_records(points: Sequence, epsilon: float, sols=None) -> list:
    """The (row, flags) of each record of a run of points; the one place a record is made.

    row is a tuple of VALUE_COLUMNS, None where empty. The run is one
    solve_points call (solve_point for one point) unless its solutions sols
    are given, then one stacked pass of each report kind; a point that
    breaks a law of thermo.LAWS is an error:NumericalConsistencyError row.
    Flags are the error, then the warnings as first seen, each once; a
    harmonic point's Generators.build_warnings are its own. A run of one
    flags a TriqubitError or LinAlgError and lets other exceptions through.
    A longer run that raises, or warns with anything but build warnings, is
    split into runs of one, which keep sols unless the solve failed.
    """
    solved = None  # how many warnings the solve issued, once it returned
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if sols is None:
                sols = [solve_point(points[0])] if len(points) == 1 else solve_points(points)
            solved = len(caught)
            thermo = _thermo_rows(sols, epsilon)
            correlations = _correlation_rows(np.array([sol.rho for sol in sols]), points)
            error = None
        except Exception as exc:
            if len(points) == 1 and not isinstance(exc, (TriqubitError, np.linalg.LinAlgError)):
                raise
            error = exc
    held = set()  # the build warnings of sols, when the solve returned them
    if caught and solved is not None:
        held = {id(m) for sol in sols for m in sol.generators.build_warnings}
    stray = [w.category for w in caught if id(w.message) not in held]
    if len(points) > 1 and (error is not None or stray):
        clean = solved is not None and all(id(w.message) in held for w in caught[:solved])
        return [_run_records([p], epsilon, [sols[k]] if clean else None)[0]
                for k, p in enumerate(points)]
    if error is not None:  # a run of one
        built = () if solved is None else sols[0].generators.build_warnings
        return [(_EMPTY_ROW, _flags(type(error), [*map(type, built), *stray]))]
    return [(_EMPTY_ROW if broken else (*cells, *co, sol.residual),
             _flags(NumericalConsistencyError if broken else None,
                    [*map(type, sol.generators.build_warnings), *stray]))
            for (cells, broken), co, sol in zip(thermo, correlations, sols)]


def _flags(error: Optional[type], categories: list) -> tuple:
    """error:<Name> of the class error unless None, then warn:<Name> of each category once."""
    if error is None and not categories:
        return ()
    names = [] if error is None else [f"error:{error.__name__}"]
    return tuple(dict.fromkeys(names + [f"warn:{c.__name__}" for c in categories]))


def _evaluate_chunk(task) -> list:
    """The (row, flags) of each point of one chunk (start, points, epsilon), in order.

    A chunk of one point, as random sweeps make them, is one evaluate_point call.
    """
    _, points, epsilon = task
    if len(points) == 1:
        rec = evaluate_point(points[0], epsilon)
        return [(rec.row, rec.flags)]
    return _run_records(points, epsilon)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _share_records(tasks: Sequence) -> Records:
    """The records of the runs tasks (start, points, epsilon), in order, indexed from each start."""
    pairs = [pair for task in tasks for pair in _evaluate_chunk(task)]
    return Records.from_rows(
        [start + k for start, points, _ in tasks for k in range(len(points))],
        [p for _, points, _ in tasks for p in points],
        [row for row, _ in pairs], [flags for _, flags in pairs],
        epsilon=tasks[0][2] if tasks else DEFAULT_EPSILON)


def _share_payload(records: Records) -> bytes:
    """The pickle of a share's records a forked share sends: ("records", their columns).

    The columns are the index and the numbers of the records, as raw int64,
    float64 and bool buffers, and their flags; the parameters are the
    invoking process's own, and a share's records have no extra columns.
    """
    return pickle.dumps(("records", (records.index, records.values, records.empty, records.flags)),
                        protocol=pickle.HIGHEST_PROTOCOL)


def _share_columns(reply: bytes, points: Sequence, epsilon: float) -> Records:
    """The records of points a forked share's reply holds; raises the failure it holds instead."""
    kind, value = pickle.loads(reply)
    if kind == "error":
        raise value
    if kind == "traceback":
        raise RuntimeError(f"a forked sweep worker failed:\n{value}")
    index, values, empty, flags = value
    return Records(index, points, values, empty, flags, epsilon=epsilon)


def _share_reply(tasks: Sequence) -> bytes:
    """The pickle a forked share sends: its _share_payload, or its failure."""
    try:
        return _share_payload(_share_records(tasks))
    except BaseException as exc:  # the invoking process raises it
        try:
            reply = pickle.dumps(("error", exc))
            pickle.loads(reply)  # some exceptions pickle but do not load
            return reply
        except Exception:
            import traceback

            return pickle.dumps(("traceback", "".join(traceback.format_exception(exc))))


class _ForkedShare:
    """A share of the runs, evaluated in a forked process that pipes back one pickle.

    The forked process holds the runs already, so nothing is sent to it.
    It writes ("records", the columns of its records) or, if its share
    raises, ("error", the exception), or ("traceback", its text) when the
    exception does not pickle, and exits 0 once the whole pickle is
    written. It leaves through os._exit in every case, so it never returns
    into the caller's stack nor flushes the stdio buffers it inherited.
    """

    def __init__(self, tasks: Sequence):
        self.points = [params for _, points, _ in tasks for params in points]
        self.epsilon = tasks[0][2] if tasks else DEFAULT_EPSILON
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read)
                with os.fdopen(write, "wb") as pipe:
                    pipe.write(_share_reply(tasks))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def records(self) -> Records:
        """The share's records, once the process is reaped; raises its failure.

        A process that ends without its whole reply raises RuntimeError
        naming its exit status or signal.
        """
        with self.pipe:
            reply = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            ended = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise RuntimeError(f"a forked sweep worker {ended} before it sent its records")
        return _share_columns(reply, self.points, self.epsilon)

    def kill(self) -> None:
        """Kill and reap the process unless records() has reaped it."""
        self.pipe.close()
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _evaluate_many(points: Sequence, epsilon: float, workers: int, chunk: int = 1) -> Records:
    """Records of points[k] at index k, in index order, on up to `workers` processes.

    The points go in runs of at most chunk, each run one task, as few
    runs as that allows, rounded up to a multiple of the workers, of as
    even a size as they can be. A run of one point is one evaluate_point
    call; random sweeps pass chunk 1, for the benchmark's tracer counts a
    point as one evaluate_point call. A longer run is one _run_records
    call: one solve_points call, which stacks the points that share a
    sector order, and one stacked pass of each report kind, split into
    runs of one where it raises or warns. A record does not depend on the
    run it is in: each stacked step returns the bits of the point alone.
    Each run gives the (row, flags) of its points, and each share's rows
    are stacked into one Records.

    This process is one of the workers: the runs go in `workers` shares
    of consecutive runs, and this process evaluates the first,
    len(tasks) // workers runs, itself. Each other share is one
    _ForkedShare, one os.fork and one os.pipe, so `workers` 2 forks one
    process; they are forked before this process starts on its own
    share. Then each pipe is read to EOF, its process reaped and its
    columns joined to the parameters this process holds, and the failure
    of a share is raised here. If this process's own share
    raises, KeyboardInterrupt included, every process still running is
    killed and reaped: none outlives the call. No more workers run than
    there are points or usable CPUs, and where there is no os.fork the
    runs are evaluated here, one after the other.
    """
    workers = max(1, min(workers, len(points), _cpu_count()))
    runs = workers * math.ceil(len(points) / (workers * chunk))
    size = math.ceil(len(points) / runs) if runs else 1
    tasks = [(start, points[start:start + size], epsilon)
             for start in range(0, len(points), size)]
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return _share_records(tasks)
    bounds = [k * len(tasks) // workers for k in range(workers + 1)]
    shares = []
    try:
        for k in range(1, workers):
            shares.append(_ForkedShare(tasks[bounds[k]:bounds[k + 1]]))
        parts = [_share_records(tasks[:bounds[1]])]
        parts += [share.records() for share in shares]
    finally:
        for share in shares:
            share.kill()
    return Records.concat(parts)


def random_sweep(cfg: SweepConfig, workers: int = 1) -> Records:
    """Evaluate n_samples independently drawn points, in index order.

    Each point is its own run, one evaluate_point call, and is not stacked
    with others: the benchmark's tracer takes a point to be one such call,
    and test_tracer_counts_match_an_independent_count_and_program_is_restored
    in bench/tests/test_bench.py pins that on a random sweep. Random sweeps
    can take longer runs once the tracer has a chunk boundary (ROADMAP item 1).
    """
    points = [draw_params(cfg, k) for k in range(cfg.n_samples)]
    records = _evaluate_many(points, cfg.epsilon, workers)
    ratio = cfg.effective_discard_rule
    if ratio > 0.0:
        records.flags = [flags + ("discarded",) if min(p.B) < ratio * max(p.gamma) else flags
                         for flags, p in zip(records.flags, records.params)]
    return records


def _grid_params(cfg: GridScanConfig, b2: float) -> ModelParams:
    return ModelParams(
        bath_model=cfg.bath_model,
        B=(cfg.B1, float(b2), cfg.B3),
        J=cfg.J,
        Delta=cfg.Delta,
        T=cfg.T,
        gamma=cfg.gamma,
    )


def _grid_points(cfg: GridScanConfig) -> list:
    return [_grid_params(cfg, b2) for b2 in np.linspace(cfg.B2_min, cfg.B2_max, cfg.n_points)]


COMBINATION_INDETERMINATE = "indeterminate"
# the label of each sign pattern 2 [Q1 > 0] + [Q3 > 0], then the indeterminate
# one and that of a record without a thermo report
_COMBINATIONS = np.array(
    ["Q1<0,Q3<0", "Q1<0,Q3>0", "Q1>0,Q3<0", "Q1>0,Q3>0", COMBINATION_INDETERMINATE, ""],
    dtype=object)


def _combination_labels(records: Records, epsilon: float) -> list:
    """The signs of Q1 and Q3 of each record; indeterminate within epsilon of the larger."""
    q1, q3 = records.values[:, _Q1], records.values[:, VALUE_COLUMNS.index("Q3")]
    scale = np.maximum(np.abs(q1), np.abs(q3))
    signed = (scale != 0.0) & (np.abs(q1) > epsilon * scale) & (np.abs(q3) > epsilon * scale)
    code = np.select([~records.reported(), ~signed], [5, 4], 2 * (q1 > 0.0) + (q3 > 0.0))
    return _COMBINATIONS[code].tolist()


def _grid_records(cfg: GridScanConfig, workers: int) -> Records:
    """The records of the grid points of cfg, in runs of up to _GRID_CHUNK that solve_points stacks."""
    return _evaluate_many(_grid_points(cfg), cfg.epsilon, workers, _GRID_CHUNK)


def valve_sweep(cfg: GridScanConfig, workers: int = 1) -> Records:
    """Scan B2 and label each point by the signs of the outer heat currents."""
    records = _grid_records(cfg, workers)
    records.extra["combination"] = _combination_labels(records, cfg.epsilon)
    return records


def _boost_extras(records: Records) -> list:
    """cop, cop_w and cop_otto over cop_max of each absorption refrigerator, None elsewhere.

    A figure that is None, and every figure of a record whose cop_max is
    None or zero, is None. One list per column of BOOST_COLUMNS.
    """
    cop_max = VALUE_COLUMNS.index("cop_max")
    normed = (records.reported() & (records.values[:, _REGIME] == REGIMES.index(Regime.IV))
              & ~records.empty[:, cop_max] & (records.values[:, cop_max] != 0.0))
    extras = []
    for name in ("cop", "cop_w", "cop_otto"):
        k = VALUE_COLUMNS.index(name)
        with np.errstate(all="ignore"):
            ratios = records.values[:, k] / records.values[:, cop_max]
        keep = normed & ~records.empty[:, k]
        extras.append([r if ok else None for r, ok in zip(ratios.tolist(), keep.tolist())])
    return extras


# relative tolerance 4 eps and iteration cap of the reference brentq
_BRENT_RTOL = 4 * 2.0 ** -52
_BRENT_MAXITER = 100


def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """The root of f in [a, b] by Brent's method (Brent, 1973, ch. 4).

    This is the zeroin iteration of the classic brentq routine with its
    default rtol (4 eps) and maxiter (100): it evaluates f at the same
    abscissae and returns the same bits, which tests/test_sweeps.py checks
    against that routine. An end where f is exactly 0 is returned; ends
    whose values have the same sign bit, or a NaN value of f, raise
    ValueError, and no convergence within maxiter steps raises RuntimeError.
    An exception raised by f propagates.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot converge.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # cur becomes the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # an underflowed denominator: C's infinite or NaN step bisects too
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


def _locate_edge(cfg: GridScanConfig, b2: Sequence, w: Sequence, solved: dict) -> Optional[float]:
    """Return the B2 where the work power crosses zero above the window.

    b2 and w are the grid's B2 and work power, w[k] None where point k has
    no thermo report. Starts from the last nonpositive-work grid point and
    brackets the sign change: inside the grid at the next positive-work
    point, past the grid end by probes. Each probe lies slightly past the
    secant root of the two highest points solved below the edge, or one grid
    step up when there is no second point or W does not rise between them; a
    probe below the edge becomes the bracket's lower end. Every B2 is solved
    at most once: the grid's work is read off w, and solved maps each other
    B2 the search solves to its evaluate_point record. A B2 that has no thermo
    report ends the search with DomainError.
    """
    grid = dict(zip(b2, w))
    below = [k for k, wk in enumerate(w) if wk is not None and wk <= 0.0]
    if not below:
        return None
    a, wa = b2[below[-1]], w[below[-1]]
    if wa == 0.0:
        return a

    def work(x):
        if x in grid:
            value = grid[x]
        else:
            if x not in solved:
                solved[x] = evaluate_point(_grid_params(cfg, x), epsilon=cfg.epsilon)
            value = solved[x].row[_W]
        if value is None:
            raise DomainError(
                f"steady-state solve failed at B2={x!r} while locating the zero-work edge"
            )
        return value

    for bk, wk in zip(b2, w):
        if wk is not None and bk > a and wk > 0.0:
            return _brent_root(work, a, bk, xtol=1e-12)
    step = (cfg.B2_max - cfg.B2_min) / max(cfg.n_points - 1, 1)
    if step <= 0.0:
        step = max(0.05 * (1.0 + abs(a)), 1e-3)
    a0, w0 = (b2[below[-2]], w[below[-2]]) if len(below) > 1 else (None, None)
    for _ in range(50):
        if a0 is not None and wa > w0:
            # 1% past the secant root, so that it brackets the edge when
            # W is close to linear over the last interval; clamped so
            # that a steep W cannot stall the search nor a flat one
            # throw it far past the edge
            distance = min(max(1.01 * wa * (a - a0) / (w0 - wa), step / 64), 16 * step)
        else:
            distance = step
        b = a + distance
        wb = work(b)
        if wb > 0.0:
            return _brent_root(work, a, b, xtol=1e-12)
        if wb == 0.0:
            return b
        a0, w0, a, wa = a, wa, b, wb
    return None


def boost_scan(cfg: GridScanConfig, workers: int = 1) -> Records:
    """Scan the refrigerator window and append its zero-work edge point.

    Returns no records when no grid point is an absorption refrigerator
    (the window is empty for the given fields). The edge search reads the
    grid's columns and solves no B2 twice; if a solve fails during it, the
    last nonpositive-work grid record is flagged "edge_failed" and no edge
    is appended.
    """
    records = _grid_records(cfg, workers)
    reported = records.reported()
    if not (reported & (records.values[:, _REGIME] == REGIMES.index(Regime.IV))).any():
        return records.take([])
    b2 = [p.B[1] for p in records.params]
    w = [wk if ok else None for wk, ok in zip(records.values[:, _W].tolist(), reported.tolist())]
    solved = {}
    try:
        edge = _locate_edge(cfg, b2, w, solved)
    except DomainError:
        last = max(k for k, wk in enumerate(w) if wk is not None and wk <= 0.0)
        records.flags[last] += ("edge_failed",)
        edge = None
    if edge is not None:
        grid = {value: k for k, value in enumerate(b2)}
        if edge in grid:
            row = records.take([grid[edge]])
        else:
            row = Records.from_records([solved[edge]], epsilon=cfg.epsilon)
        row.index[:] = len(records)
        row.flags[0] += ("edge",)
        records = Records.concat([records, row])
    records.extra = dict(zip(BOOST_COLUMNS, _boost_extras(records)))
    return records


BASE_COLUMNS = (
    "sample_index",
    "bath_model",
    "B1", "B2", "B3",
    "J12", "J13", "J23",
    "D12", "D13", "D23",
    "T1", "T2", "T3",
    "g1", "g2", "g3",
    "Q1", "Q2", "Q3",
    "W", "Sdot",
    "q1", "q2", "q3",
    "C21", "C31", "C32",
    "regime",
    "cop", "cop_w", "cop_max", "cop_otto",
    "inside_trapezoid",
    "I12", "I13", "I23",
    "mibound12", "mibound13", "mibound23",
    "xres12", "xres13", "xres23",
    "ppt1", "ppt2", "ppt3",
    "nullspace_residual",
    "flags",
)

VALVE_COLUMNS = ("combination",)
BOOST_COLUMNS = ("cop_norm", "cop_w_norm", "cop_otto_norm")


def _fmt(value) -> str:
    """The CSV spelling of one cell: floats to 17 significant digits, None empty."""
    if isinstance(value, (float, np.floating)):  # most cells
        return f"{float(value):.17g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, Regime):
        return value.value
    return str(value)


def _quoted(cell: str) -> str:
    """cell as csv.writer writes it at its defaults: quoted when it holds ',', '"' or a line break."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


# the CSV cells that spell a number of VALUE_COLUMNS; the regime is spelled by name
_NUMBER_CELLS = [name for name in BASE_COLUMNS if name in VALUE_COLUMNS and name != "regime"]
_NUMBER_SLOTS = [BASE_COLUMNS.index(name) for name in _NUMBER_CELLS]
_NUMBER_VALUES = [VALUE_COLUMNS.index(name) for name in _NUMBER_CELLS]
_REGIME_CELLS = np.array([regime.value for regime in REGIMES] + [""], dtype=object)
_INSIDE_CELLS = np.array(["false", "true", ""], dtype=object)


# the most rows write_records formats at once, which bounds the cell objects
# a large sweep holds while it is written
_CSV_BLOCK = 64
# the bit of each number cell in the key of a row's pattern of empty cells
_GAP_BITS = 1 << np.arange(len(_NUMBER_CELLS), dtype=np.int64)


def _row_format(gaps: int, n_extra: int) -> str:
    """The %-format of a CSV row whose number cells are empty where the bits of gaps are set."""
    slots = ["%d", "%s"] + ["%.17g"] * 15 + ["%s"] * (len(BASE_COLUMNS) - 17 + n_extra)
    for k, slot in enumerate(_NUMBER_SLOTS):
        slots[slot] = "%.0s" if gaps >> k & 1 else "%.17g"  # %.0s spells its value as nothing
    return ",".join(slots) + "\n"


def _csv_rows(records: Records, extra_columns: Sequence) -> str:
    """The CSV rows of records, as csv.writer writes the cells _fmt spells.

    Each row is one %-format of all its cells, one format per pattern of
    empty number cells, so every float goes through '%.17g' once.
    """
    n = len(records)
    cells = np.empty((n, len(BASE_COLUMNS) + len(extra_columns)), dtype=object)
    cells[:, 0] = records.index
    cells[:, 1] = [p.bath_model for p in records.params]
    cells[:, 2:17] = [(*p.B, *p.J, *p.Delta, *p.T, *p.gamma) for p in records.params]
    cells[:, _NUMBER_SLOTS] = records.values[:, _NUMBER_VALUES]
    reported = records.reported()
    cells[:, BASE_COLUMNS.index("regime")] = _REGIME_CELLS[
        np.where(reported, records.values[:, _REGIME], len(REGIMES)).astype(int)]
    cells[:, BASE_COLUMNS.index("inside_trapezoid")] = _INSIDE_CELLS[
        np.where(reported, records.values[:, _INSIDE], 2).astype(int)]
    cells[:, BASE_COLUMNS.index("flags")] = [_quoted(";".join(flags)) for flags in records.flags]
    for k, name in enumerate(extra_columns, start=len(BASE_COLUMNS)):
        cells[:, k] = [_quoted(_fmt(v)) for v in records.extra.get(name, [None] * n)]
    gaps = (records.empty[:, _NUMBER_VALUES] @ _GAP_BITS).tolist()
    formats = {key: _row_format(key, len(extra_columns)) for key in set(gaps)}
    return "".join([formats[key] % tuple(row) for key, row in zip(gaps, cells.tolist())])


def config_echo(scan_name: str, config) -> str:
    """One-line comment embedding the exact configuration of a scan."""
    payload = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return f"# scan={scan_name} config={payload}"


def write_records(records, path, scan_name: str, config, extra_columns: Sequence = ()) -> None:
    """Write records as CSV behind a config-echo comment line.

    records is a Records, as the sweeps return them, or any sequence of
    SweepRecords, whose rows are stacked into one first; the cells are
    read off the columns, and no report is built. Column order is fixed;
    floats carry 17 significant digits so parsing the file back reproduces
    every value bit for bit.
    """
    if not isinstance(records, Records):
        records = Records.from_records(records, extra_columns)
    columns = BASE_COLUMNS + tuple(extra_columns)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(config_echo(scan_name, config) + "\n" + ",".join(map(_quoted, columns)) + "\n")
            for start in range(0, len(records), _CSV_BLOCK):
                block = records.take(range(start, min(start + _CSV_BLOCK, len(records))))
                fh.write(_csv_rows(block, extra_columns))
    except OSError as exc:
        raise DomainError(f"cannot write records to {path!r}: {exc}") from exc
