"""In-memory span tracer that wraps the public functions of ``triqubit``.

The program stays unedited: ``Tracer.installed()`` replaces every public
function of every loaded ``triqubit`` module by a wrapper that records one
span (name, start, end, parent span, point id) per call, and puts the
originals back on exit. A function imported by name into another module
(``from .model import build_hamiltonian``) is replaced there too, because
the patch swaps every module attribute that *is* the original object.

A point is one ``sweeps.evaluate_point`` call; spans opened inside it carry
its id, spans outside carry -1. Spans live in flat arrays until
``write_spans`` dumps them at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time
from array import array

PACKAGE = "triqubit"
POINT_SPAN = "sweeps.evaluate_point"

# Private functions wrapped in addition to the public ones: the pool phase of
# a sweep has no public boundary of its own.
EXTRA_BOUNDARIES = ("sweeps._evaluate_many",)


class Tracer:
    """Span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.point = array("q")
        self._stack: list = []
        self._point_stack: list = []
        self._next_point = 0
        self.population_attempted = 0
        self.population_taken = 0
        self.write_calls: list = []  # (span id, records, bytes) per write_records call

    # -- recording -------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.point.append(self._point_stack[-1] if self._point_stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        is_point = name == POINT_SPAN
        hook = self._hooks().get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_point:
                tracer._point_stack.append(tracer._next_point)
                tracer._next_point += 1
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                if is_point:
                    tracer._point_stack.pop()
            if hook is not None:
                hook(sid, result, args)
            return result

        return traced

    def _hooks(self) -> dict:
        return {
            "steady_state.solve_point": self._on_solve_point,
            "sweeps.write_records": self._on_write_records,
        }

    def _on_solve_point(self, sid, sol, args) -> None:
        if sol.population_closed:
            self.population_attempted += 1
            if sol.populations is not None:
                self.population_taken += 1

    def _on_write_records(self, sid, result, args) -> None:
        records, path = args[0], args[1]
        self.write_calls.append((sid, len(records), os.path.getsize(path)))

    # -- patching ----------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's functions for the duration of the block."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}  # id(original) -> wrapper
        for modname, mod in modules.items():
            short = modname[len(PACKAGE) + 1:]
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                label = f"{short}.{attr}"
                if attr.startswith("_") and label not in EXTRA_BOUNDARIES:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(label, obj))
        patched = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- analysis ------------------------------------------------------------
    def spans(self):
        """Spans as (name, start, end, parent, point) tuples, in open order."""
        names = self.names
        return [
            (names[self.name_id[k]], self.start[k], self.end[k], self.parent[k], self.point[k])
            for k in range(len(self.start))
        ]

    def write_spans(self, path: str) -> None:
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "point"],
            "spans": self.spans(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of (name, start, end, parent, point); parent is
    an index into the same sequence or -1. Child intervals are clipped to
    the parent and merged, so overlapping children are not counted twice.
    """
    children: dict = {}
    for k, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(k, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values) -> dict:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_q": None, "tail": None}
    tail_q = next((q for q in TAIL_PERCENTILES if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9), None)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q is not None else None,
    }


# Per-layer metrics of the traced run. Names are "<module>.<function>.<what>".
SELF_MS_LAYERS = (
    "model.build_hamiltonian",
    "model.sector_spectrum",
    "local_me.build_local_generators",
    "local_me.local_current_set",
    "global_me.jump_operators",
    "global_me.global_dissipator",
    "global_me.site_rate_matrices",
    "steady_state.solve_point",
    "thermo.thermo_report",
    "correlations.correlation_report",
    "sweeps.draw_params",
)
COUNTED_LAYERS = ("algebra.embed_pauli", "model.interaction_hamiltonian")


def layer_report(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    Returns {metric: {"value", "unit", "summary"}}, where summary is the
    distribution the value was taken from (see ``summarize``). Self times
    are summed per point and the per-point sums summarized; a layer that
    runs outside any point (``draw_params``) is summarized per call. A
    layer that never ran reports 0 with n = 0.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    by_name: dict = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(k)
    points = by_name.get(POINT_SPAN, [])
    point_ids = [spans[k][4] for k in points]
    out: dict = {}

    def put(name, value, unit, samples=None):
        out[name] = {
            "value": float(value),
            "unit": unit,
            "summary": summarize(samples if samples is not None else [value]),
        }

    for layer in SELF_MS_LAYERS:
        inside: dict = {}
        outside = []
        for k in by_name.get(layer, ()):
            point = spans[k][4]
            if point >= 0:
                inside[point] = inside.get(point, 0.0) + selfs[k] * 1e3
            else:
                outside.append(selfs[k] * 1e3)
        samples = [inside.get(p, 0.0) for p in point_ids] if inside else outside
        put(f"{layer}.self_ms", summarize(samples)["p50"], "ms", samples)

    for layer in COUNTED_LAYERS:
        calls = sum(1 for k in by_name.get(layer, ()) if spans[k][4] >= 0)
        put(f"{layer}.calls_per_point", calls / len(points) if points else 0.0, "count")

    latencies = [(spans[k][2] - spans[k][1]) * 1e3 for k in points]
    put("sweeps.evaluate_point.ms_p50", summarize(latencies)["p50"], "ms", latencies)
    put(
        "sweeps.evaluate_point.ms_p99",
        percentile(latencies, 99.0) if latencies else 0.0,
        "ms",
        latencies,
    )

    per_record = [
        (spans[sid][2] - spans[sid][1]) * 1e3 / n for sid, n, _ in tracer.write_calls if n
    ]
    put("sweeps.write_records.ms_per_record", summarize(per_record)["p50"], "ms", per_record)
    records = sum(n for _, n, _ in tracer.write_calls)
    written = sum(b for _, _, b in tracer.write_calls)
    put("sweeps.write_records.bytes_per_record", written / records if records else 0.0, "B")

    attempted = tracer.population_attempted
    put(
        "steady_state.population_refine_frac",
        tracer.population_taken / attempted if attempted else 0.0,
        "ratio",
    )
    out["steady_state.population_refine_frac"]["summary"]["n"] = attempted

    serial_n, serial_s, pool_s = _boost_phases(spans, by_name)
    put("sweeps.serial_evals", summarize(serial_n)["p50"], "count", serial_n)
    put("sweeps.serial_s", summarize(serial_s)["p50"], "s", serial_s)
    put("sweeps.pool_phase_s", summarize(pool_s)["p50"], "s", pool_s)
    return out


def _boost_phases(spans, by_name):
    """Per boost scan: serial evaluate_point calls, their seconds, pool seconds.

    A point is serial when no ``_evaluate_many`` span lies between it and
    its scan; with a pool the parent records no pooled points at all.
    """
    scans = {k: [0, 0.0, 0.0] for k in by_name.get("sweeps.boost_scan", ())}
    pool_name = "sweeps._evaluate_many"
    for k in by_name.get(POINT_SPAN, []) + by_name.get(pool_name, []):
        name, start, end, parent, _ = spans[k]
        node, pooled = parent, False
        while node >= 0 and node not in scans:
            pooled = pooled or spans[node][0] == pool_name
            node = spans[node][3]
        if node < 0:
            continue
        if name == pool_name:
            scans[node][2] += end - start
        elif not pooled:
            scans[node][0] += 1
            scans[node][1] += end - start
    rows = list(scans.values())
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
