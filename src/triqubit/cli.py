"""Command-line front end: single-point reports, sweeps, and validation.

Subcommands
    point        solve one parameter point and print a JSON report
    sweep-random random parameter sweep to CSV
    sweep-valve  B2 grid scan with heat-flow combination labels
    sweep-boost  refrigerator-window scan with normalized performance
    validate     run the invariant suite over a random sweep

Configs are flat JSON objects whose keys mirror the dataclass fields of
ModelParams, SweepConfig, and GridScanConfig. --set KEY=VALUE overrides a
key in place; unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from enum import Enum

import numpy as np

from . import sweeps
from .errors import DomainError, TriqubitError
from .model import BATH_REPEATED_INTERACTION, ModelParams
from .sweeps import GridScanConfig, SweepConfig, evaluate_point, random_sweep, write_records
from .thermo import DEFAULT_EPSILON, LAWS, LOCAL_LAWS, checked_epsilon

_POINT_KEYS = frozenset(f.name for f in fields(ModelParams)) | {"epsilon"}

_DEFAULT_T = (1.0, 2.0, 3.0)

# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _load_config(path: str, allowed: frozenset) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config {path!r} must hold a JSON object")
    for key in data:
        if key not in allowed:
            raise DomainError(f"unknown config key {key!r} in {path!r}")
    return data


def _apply_overrides(data: dict, pairs, allowed: frozenset) -> None:
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise DomainError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in allowed:
            raise DomainError(f"unknown config key {key!r} in --set")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings like bath_model=harmonic
        data[key] = value


def _jsonify(value):
    """Recursively coerce report structures into JSON-serializable form."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_jsonify_key(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _jsonify_key(key):
    if isinstance(key, tuple):
        return "".join(str(k) for k in key)
    return str(key)


def _cmd_point(args) -> int:
    data = _load_config(args.config, _POINT_KEYS)
    _apply_overrides(data, args.set, _POINT_KEYS)
    epsilon = checked_epsilon(data.pop("epsilon", DEFAULT_EPSILON))
    data.setdefault("T", _DEFAULT_T)
    params = ModelParams(**data)
    if args.out:  # before the solve, so that an unwritable --out costs no point
        _check_writable(args.out, "the report")
    ev = evaluate_point(params, epsilon=epsilon)
    payload = {
        "config": {**_jsonify(asdict(params)), "epsilon": epsilon},
        "thermo": _jsonify(asdict(ev.thermo)) if ev.thermo is not None else None,
        "correlations": (
            _jsonify(asdict(ev.correlations)) if ev.correlations is not None else None
        ),
        "nullspace_residual": ev.residual,
        "flags": list(ev.flags),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out!r}: {exc}") from exc
    print(text)
    return 0 if ev.thermo is not None else 1


def _failed_indices(records) -> list:
    """The indices of the error records of a sweep's Records, read off its flags."""
    return [index for index, flags in enumerate(records.flags)
            if any(f.startswith("error:") for f in flags)]


def _report_failures(records) -> int:
    failed = _failed_indices(records)
    if failed:
        shown = ", ".join(str(i) for i in failed[:10])
        more = "" if len(failed) <= 10 else f" (+{len(failed) - 10} more)"
        print(f"solver failures at sample_index {shown}{more}", file=sys.stderr)
    return len(failed)


def _sweep_config(args, cls):
    """Config of class cls from --config, then --set, then --seed/--samples."""
    allowed = frozenset(f.name for f in fields(cls))
    data = _load_config(args.config, allowed)
    _apply_overrides(data, args.set, allowed)
    if getattr(args, "seed", None) is not None:
        data["master_seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        data["n_samples"] = args.samples
    return cls(**data)


# sweep command -> (config class, name of the driver in sweeps, scan name);
# the driver is looked up when the command runs, so a wrapper put on the
# sweeps module (a tracer, a test spy) sees the call
_SWEEPS = {
    "sweep-random": (SweepConfig, "random_sweep", "random"),
    "sweep-valve": (GridScanConfig, "valve_sweep", "valve"),
    "sweep-boost": (GridScanConfig, "boost_scan", "boost"),
}


def _check_writable(path, what: str) -> None:
    """Raise DomainError, naming what the command writes, unless path opens for writing.

    A file made to check is removed.
    """
    try:
        try:
            with open(path, "x"):
                pass
        except FileExistsError:
            with open(path, "a"):
                pass
        else:
            os.remove(path)
    except OSError as exc:
        raise DomainError(f"cannot write {what} to {path!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    cls, driver, scan_name = _SWEEPS[args.command]
    cfg = _sweep_config(args, cls)
    # before the sweep, so that an unwritable --out costs no point
    _check_writable(args.out, "records")
    records = getattr(sweeps, driver)(cfg, workers=args.workers)
    write_records(records, args.out, scan_name, cfg)
    if not records:  # only a boost scan over an empty window yields none
        print(f"empty refrigerator window; wrote header-only {args.out}")
        return 0
    failures = _report_failures(records)
    print(f"wrote {len(records)} records to {args.out}")
    return 1 if failures else 0


def _cmd_validate(args) -> int:
    cfg = _sweep_config(args, SweepConfig)
    records = random_sweep(cfg, workers=args.workers)
    local = cfg.bath_model == BATH_REPEATED_INTERACTION
    # the record body judges every law: a record with reports passes them
    # all, and one without fails them all
    passed = int(records.reported().sum())
    all_pass = passed == len(records)
    for name in LAWS:
        if local or name not in LOCAL_LAWS:
            print(f"{name:<20} {passed}/{len(records)} {'pass' if all_pass else 'FAIL'}")
    failures = len(_failed_indices(records))
    discarded = sum(1 for flags in records.flags if "discarded" in flags)
    print(f"{'solver failures':<20} {failures}/{len(records)}")
    print(f"{'discarded':<20} {discarded}/{len(records)}")
    print(f"result: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def _add_common(sub, out_required: bool):
    sub.add_argument("--config", required=True, help="path to a JSON config")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    if out_required:
        sub.add_argument("--out", required=True, help="output CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqubit",
        description="Steady-state analysis of a three-qubit thermal machine",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("point", help="solve one parameter point, print JSON")
    _add_common(p, out_required=False)
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(handler=_cmd_point)

    for name, help_text, handler, out_required, random in (
        ("sweep-random", "random parameter sweep to CSV", _cmd_sweep, True, True),
        ("sweep-valve", "B2 grid scan with flow labels", _cmd_sweep, True, False),
        ("sweep-boost", "refrigerator window scan", _cmd_sweep, True, False),
        ("validate", "run the invariant suite on a config", _cmd_validate, False, True),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common(p, out_required=out_required)
        if random:
            p.add_argument("--seed", type=int, help="override master_seed")
            p.add_argument("--samples", type=int, help="override n_samples")
        p.add_argument("--workers", type=int, default=1,
                       help="processes that evaluate points, this one included "
                            "(2 forks one; default 1, at most the points and usable CPUs; "
                            "serial where os.fork does not exist)")
        p.set_defaults(handler=handler)

    return parser


def _pin_heap_trim() -> None:
    """Fix glibc's heap trim and mmap thresholds for the whole run.

    The chunked runs of a grid scan allocate stacks of temporaries over
    their points. At glibc's dynamic defaults each run grows the heap for
    them and trims it again on free: sweep-boost at one worker then takes
    some 33 more minor page faults per record, and a process that repeats
    the scan pays them again each time. The processes that --workers forks
    are os.fork children of this one, so they always inherit the setting.
    Where there is no mallopt, nothing is set.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # 64 MiB
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # 32 MiB, glibc's upper limit on 64-bit


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _pin_heap_trim()
    try:
        if getattr(args, "workers", 1) < 1:
            raise DomainError(f"--workers must be at least 1, got {args.workers}")
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TriqubitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
