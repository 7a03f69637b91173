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
back its records as one pickle on a pipe of its own, and one worker
forks none. No process pool library is loaded, and where there is no
os.fork the runs are evaluated in this process.

Grid scans of either bath model solve their points in chunks:
_evaluate_many gives each task a run of up to _GRID_CHUNK consecutive
points, and steady_state.solve_points solves the points of a run that
share a sector order as one stack, each with the bits it gets alone, so
the output does not depend on the chunk size either. The currents and
correlations of a run are then taken as (N, ...) stacks as well, with
the same bits. A run whose stacked solve raises or warns is redone point
by point; a run whose stacked reports raise or warn has each record
rebuilt on its own from its solution. So each failure and warning lands
on its own index. Random sweeps stay one evaluate_point call per point,
because the benchmark's tracer counts a point as one such call (ROADMAP
item 1).
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .correlations import CorrelationReport, _correlation_reports, correlation_report
from .errors import DomainError, TriqubitError
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
    DEFAULT_EPSILON, Regime, ThermoReport, _thermo_reports, checked_epsilon, thermo_report,
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


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point: its reports, residual, flags and scan-specific extras."""

    index: int
    params: ModelParams
    thermo: Optional[ThermoReport]
    correlations: Optional[CorrelationReport]
    residual: Optional[float]
    flags: tuple
    extra: Mapping[str, object] = field(default_factory=dict)


def evaluate_point(params: ModelParams, epsilon: float = DEFAULT_EPSILON) -> SweepRecord:
    """Solve one point and build both reports, never letting failures escape.

    Solver and consistency failures become "error:<Name>" flags with empty
    reports; warnings become "warn:<Name>" flags on an otherwise complete
    record. A sweep therefore always yields one record per index. The
    record carries index 0; the sweep drivers renumber it.
    """
    return _record(params, epsilon)


def _record(params: ModelParams, epsilon: float, sol=None) -> SweepRecord:
    """evaluate_point's record of params, built on its PointSolution sol when one is given."""
    flags: list = []
    thermo = correlations = residual = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if sol is None:
                sol = solve_point(params)
            thermo = thermo_report(sol, epsilon=epsilon)
            correlations = correlation_report(sol.rho, params)
            residual = sol.residual
        except (TriqubitError, np.linalg.LinAlgError) as exc:
            flags.append(f"error:{type(exc).__name__}")
    for entry in caught:
        name = f"warn:{entry.category.__name__}"
        if name not in flags:
            flags.append(name)
    return SweepRecord(0, params, thermo, correlations, residual, tuple(flags))


def _stacked_records(points: Sequence, epsilon: float) -> Optional[list]:
    """The records of points from one solve_points call, or None if that call raised or warned.

    The reports of the run are built from the solutions by _chunk_records,
    as stacks; a failure or a warning there costs no new solve.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sols = solve_points(points)
        except Exception:  # any failure: each point is redone on its own
            return None
    if caught:
        return None
    return _chunk_records(points, sols, epsilon)


def _chunk_records(points: Sequence, sols: Sequence, epsilon: float) -> list:
    """The records of points from their solutions sols, each report kind one stacked pass.

    If a stacked report raises or warns, every record is rebuilt on its
    own from its solution, as evaluate_point builds it, so that each
    failure and warning lands on its own record.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thermos = _thermo_reports(sols, epsilon)
            reports = _correlation_reports(np.array([sol.rho for sol in sols]), points)
        stacked = not caught
    except Exception:  # any failure: each record is rebuilt on its own
        stacked = False
    if not stacked:
        return [_record(params, epsilon, sol) for params, sol in zip(points, sols)]
    return [SweepRecord(0, params, thermo, correlations, sol.residual, ())
            for params, sol, thermo, correlations in zip(points, sols, thermos, reports)]


def _evaluate_chunk(task) -> list:
    """The records of one chunk (start, points, epsilon), at indices start, start + 1, ..."""
    start, points, epsilon = task
    records = _stacked_records(points, epsilon) if len(points) > 1 else None
    if records is None:
        records = [evaluate_point(params, epsilon=epsilon) for params in points]
    return [replace(rec, index=start + k) for k, rec in enumerate(records)]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _share_records(tasks: Sequence) -> dict:
    """The records of the runs tasks, keyed by run start."""
    return {task[0]: _evaluate_chunk(task) for task in tasks}


def _share_reply(tasks: Sequence) -> bytes:
    """The pickle a forked share sends: its records by run start, or its failure."""
    try:
        return pickle.dumps(("records", _share_records(tasks)))
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
    It writes ("records", records by run start) or, if its share raises,
    ("error", the exception), or ("traceback", its text) when the
    exception does not pickle, and exits 0 once the whole pickle is
    written. It leaves through os._exit in every case, so it never returns
    into the caller's stack nor flushes the stdio buffers it inherited.
    """

    def __init__(self, tasks: Sequence):
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

    def records(self) -> dict:
        """The share's records by run start, once the process is reaped; raises its failure.

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
        kind, value = pickle.loads(reply)
        if kind == "error":
            raise value
        if kind == "traceback":
            raise RuntimeError(f"a forked sweep worker failed:\n{value}")
        return value

    def kill(self) -> None:
        """Kill and reap the process unless records() has reaped it."""
        self.pipe.close()
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _evaluate_many(points: Sequence, epsilon: float, workers: int, chunk: int = 1) -> list:
    """Records of points[k] at index k, in index order, on up to `workers` processes.

    The points go in runs of at most chunk, each run one task, as few
    runs as that allows, rounded up to a multiple of the workers, of as
    even a size as they can be. A run of one point is one evaluate_point
    call; random sweeps pass chunk 1, for the benchmark's tracer counts a
    point as one evaluate_point call. A longer run is one solve_points
    call, which stacks the points that share a sector order, and one
    stacked pass of each report kind (_chunk_records). If the solve
    raises or warns, the run is redone point by point through
    evaluate_point; if a stacked report does, each record is rebuilt from
    its solution. So every failure and warning lands on its own index. A
    record does not depend on the run it is in: each stacked step returns
    the bits of the point alone.

    This process is one of the workers: the runs go in `workers` shares
    of consecutive runs, and this process evaluates the first,
    len(tasks) // workers runs, itself. Each other share is one
    _ForkedShare, one os.fork and one os.pipe, so `workers` 2 forks one
    process; they are forked before this process starts on its own
    share. Then each pipe is read to EOF and its process reaped, and the
    failure of a share is raised here. If this process's own share
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
        return [rec for task in tasks for rec in _evaluate_chunk(task)]
    bounds = [k * len(tasks) // workers for k in range(workers + 1)]
    shares = []
    try:
        for k in range(1, workers):
            shares.append(_ForkedShare(tasks[bounds[k]:bounds[k + 1]]))
        by_start = _share_records(tasks[:bounds[1]])
        for share in shares:
            by_start.update(share.records())
    finally:
        for share in shares:
            share.kill()
    return [rec for recs in by_start.values() for rec in recs]


def random_sweep(cfg: SweepConfig, workers: int = 1) -> list:
    """Evaluate n_samples independently drawn points, in index order.

    Each point is its own run, one evaluate_point call, and is not stacked
    with others: the benchmark's tracer takes a point to be one such call,
    and test_tracer_counts_match_an_independent_count_and_program_is_restored
    in bench/tests/test_bench.py pins that on a random sweep. Random sweeps
    can take chunks once the tracer has a chunk boundary (ROADMAP item 1).
    """
    points = [draw_params(cfg, k) for k in range(cfg.n_samples)]
    ratio = cfg.effective_discard_rule
    return [
        replace(rec, flags=rec.flags + ("discarded",))
        if ratio > 0.0 and min(rec.params.B) < ratio * max(rec.params.gamma)
        else rec
        for rec in _evaluate_many(points, cfg.epsilon, workers)
    ]


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


def _combination_label(thermo: Optional[ThermoReport], epsilon: float) -> str:
    if thermo is None:
        return ""
    q1, _, q3 = thermo.Q
    scale = max(abs(q1), abs(q3))
    if scale == 0.0 or abs(q1) <= epsilon * scale or abs(q3) <= epsilon * scale:
        return COMBINATION_INDETERMINATE
    return "Q1{}0,Q3{}0".format(">" if q1 > 0 else "<", ">" if q3 > 0 else "<")


def _grid_records(cfg: GridScanConfig, workers: int) -> list:
    """The records of the grid points of cfg, in runs of up to _GRID_CHUNK that solve_points stacks."""
    return _evaluate_many(_grid_points(cfg), cfg.epsilon, workers, _GRID_CHUNK)


def valve_sweep(cfg: GridScanConfig, workers: int = 1) -> list:
    """Scan B2 and label each point by the signs of the outer heat currents."""
    return [
        replace(rec, extra={"combination": _combination_label(rec.thermo, cfg.epsilon)})
        for rec in _grid_records(cfg, workers)
    ]


def _boost_extras(thermo: Optional[ThermoReport]) -> dict:
    extras = {"cop_norm": None, "cop_w_norm": None, "cop_otto_norm": None}
    if thermo is None or thermo.regime is not Regime.IV:
        return extras
    if thermo.cop_max is None or thermo.cop_max == 0.0:
        return extras
    for key, value in (
        ("cop_norm", thermo.cop),
        ("cop_w_norm", thermo.cop_w),
        ("cop_otto_norm", thermo.cop_otto),
    ):
        if value is not None:
            extras[key] = value / thermo.cop_max
    return extras


def _solved_at(cfg: GridScanConfig, b2: float, solved: dict) -> SweepRecord:
    """The record at B2 = b2; solved maps each B2 already solved in the scan to its record."""
    if b2 not in solved:
        solved[b2] = evaluate_point(_grid_params(cfg, b2), epsilon=cfg.epsilon)
    return solved[b2]


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


def _locate_edge(cfg: GridScanConfig, records: list, solved: dict) -> Optional[float]:
    """Return the B2 where the work power crosses zero above the window.

    Starts from the last nonpositive-work grid point and brackets the sign
    change: inside the grid at the next positive-work point, past the grid
    end by probes. Each probe lies slightly past the secant root of the two
    highest points solved below the edge, or one grid step up when there is
    no second point or W does not rise between them; a probe below the edge
    becomes the bracket's lower end. Every B2 is solved at most once: solved
    maps each B2 already solved in the scan to its record, and gains the
    points the search solves. A solve that fails during the search ends it
    without an edge: the last nonpositive-work grid record is replaced in
    `records` by a copy flagged "edge_failed", and None is returned.
    """
    below = [
        k for k, rec in enumerate(records) if rec.thermo is not None and rec.thermo.W <= 0.0
    ]
    if not below:
        return None
    low = records[below[-1]]
    a, wa = low.params.B[1], low.thermo.W
    if wa == 0.0:
        return a

    def work(b2):
        thermo = _solved_at(cfg, b2, solved).thermo
        if thermo is None:
            raise DomainError(
                f"steady-state solve failed at B2={b2!r} while locating the zero-work edge"
            )
        return thermo.W

    try:
        for rec in records:
            if rec.thermo is not None and rec.params.B[1] > a and rec.thermo.W > 0.0:
                return _brent_root(work, a, rec.params.B[1], xtol=1e-12)
        step = (cfg.B2_max - cfg.B2_min) / max(cfg.n_points - 1, 1)
        if step <= 0.0:
            step = max(0.05 * (1.0 + abs(a)), 1e-3)
        prev = records[below[-2]] if len(below) > 1 else None
        a0, w0 = (prev.params.B[1], prev.thermo.W) if prev is not None else (None, None)
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
    except DomainError:
        records[below[-1]] = replace(low, flags=low.flags + ("edge_failed",))
    return None


def boost_scan(cfg: GridScanConfig, workers: int = 1) -> list:
    """Scan the refrigerator window and append its zero-work edge point.

    Returns an empty list when no grid point is an absorption refrigerator
    (the window is empty for the given fields). The edge search reuses the
    grid's records and solves no B2 twice.
    """
    grid = _grid_records(cfg, workers)
    records = [replace(rec, extra=_boost_extras(rec.thermo)) for rec in grid]
    if not any(
        rec.thermo is not None and rec.thermo.regime is Regime.IV for rec in records
    ):
        return []
    solved = {rec.params.B[1]: rec for rec in grid}
    edge = _locate_edge(cfg, records, solved)
    if edge is not None:
        rec = _solved_at(cfg, edge, solved)
        records.append(
            replace(
                rec, index=len(records), flags=rec.flags + ("edge",),
                extra=_boost_extras(rec.thermo),
            )
        )
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
    if isinstance(value, (float, np.floating)):  # most cells
        return f"{float(value):.17g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, Regime):
        return value.value
    return str(value)


def _record_row(rec: SweepRecord, extra_columns: Sequence) -> list:
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


def config_echo(scan_name: str, config) -> str:
    """One-line comment embedding the exact configuration of a scan."""
    payload = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return f"# scan={scan_name} config={payload}"


def write_records(records, path, scan_name: str, config, extra_columns: Sequence = ()) -> None:
    """Write records as CSV behind a config-echo comment line.

    Column order is fixed; floats carry 17 significant digits so parsing
    the file back reproduces every value bit for bit.
    """
    columns = BASE_COLUMNS + tuple(extra_columns)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(config_echo(scan_name, config) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for rec in records:
                writer.writerow(_record_row(rec, extra_columns))
    except OSError as exc:
        raise DomainError(f"cannot write records to {path!r}: {exc}") from exc
