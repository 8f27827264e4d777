"""Command-line front end: run the verification pipeline, write the JSON
report and optional CSV dumps, and reflect the outcome in the exit code
(0 pass, 1 any failed check, 2 usage or configuration error)."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import RicciForgeError
from .fmt17 import render_block
from .grids import DEFAULT_POINTS, T_MAX, GridSpec
from .paramgen import OVERRIDE_NAMES
from .verify import (CASCADE_ARTIFACTS, cascade_artifacts, report_to_json,
                     run_verification)

MIN_GRID = 100
# rows stacked, rendered and written per step of a CSV dump: bounds the
# table, the renderer's temporaries and the text held at once
CSV_BLOCK_ROWS = 1_024


@dataclass
class RunConfig:
    n: int = None
    p: int = None
    overrides: dict = field(default_factory=dict)
    grid_points: int = DEFAULT_POINTS
    out_report: str = None
    out_profile_csv: str = None
    out_curvature_csv: str = None
    out_boundary_csv: str = None
    verbosity: str = "normal"


class UsageError(Exception):
    pass


def _override(name: str, raw, where: str = "") -> tuple[str, float]:
    """``(name, value)`` of one override; ``where`` names its source in the
    error for an unknown name."""
    if name not in OVERRIDE_NAMES:
        raise UsageError(f"unknown override {name!r}{where}; valid names: "
                         f"{', '.join(OVERRIDE_NAMES)}")
    try:
        return name, float(raw)
    except (TypeError, ValueError):
        raise UsageError(f"override {name!r} needs a numeric value, got {raw!r}")


def _parse_override(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise UsageError(f"--set expects NAME=VALUE, got {text!r}")
    name, _, raw = text.partition("=")
    return _override(name.strip(), raw)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ricci-forge",
        description="Certify the squashed punctured-sphere construction for a "
                    "given dimension and number of removed discs.")
    # each flag's dest is the RunConfig field it sets
    ap.add_argument("--dim", dest="n", type=int, metavar="DIM",
                    help="ambient sphere dimension n (>= 3)")
    ap.add_argument("--punctures", dest="p", type=int, metavar="PUNCTURES",
                    help="number of removed discs p (>= 1)")
    ap.add_argument("--grid", dest="grid_points", type=int, metavar="GRID",
                    help=f"grid resolution (default {DEFAULT_POINTS})")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="pin a constant (repeatable); names: "
                         + ", ".join(OVERRIDE_NAMES))
    ap.add_argument("--out", dest="out_report", metavar="OUT",
                    help="path of the JSON report")
    ap.add_argument("--profile-csv", dest="out_profile_csv", metavar="PROFILE_CSV",
                    help="dump the warping profile as CSV")
    ap.add_argument("--curvature-csv", dest="out_curvature_csv",
                    metavar="CURVATURE_CSV", help="dump curvature samples as CSV")
    ap.add_argument("--boundary-csv", dest="out_boundary_csv",
                    metavar="BOUNDARY_CSV", help="dump boundary metric samples as CSV")
    ap.add_argument("--config", help="JSON config file mirroring the flags")
    g = ap.add_mutually_exclusive_group()
    g.add_argument("--quiet", dest="verbosity", action="store_const", const="quiet",
                   help="suppress the summary")
    g.add_argument("--verbose", dest="verbosity", action="store_const",
                   const="verbose",
                   help="also print parameters and each stage's time")
    return ap


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path!r}: {e}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise UsageError(f"unknown config key(s) {unknown}; valid: {sorted(known)}")
    return data


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        data = _load_config(args.config)
        for key, value in data.items():
            if key == "overrides":
                if not isinstance(value, dict):
                    raise UsageError("config 'overrides' must be an object")
                cfg.overrides.update(_override(name, raw, " in config")
                                     for name, raw in value.items())
            else:
                setattr(cfg, key, value)
    for f in fields(RunConfig):
        given = getattr(args, f.name)
        if f.name == "overrides":
            # --set merges over the config's overrides by name
            cfg.overrides.update(_parse_override(item) for item in given)
        elif given not in (None, ""):
            # a given flag wins; an omitted one or an empty path keeps the
            # config's value
            setattr(cfg, f.name, given)

    if cfg.n is None or cfg.p is None:
        raise UsageError("--dim and --punctures are required (or set n/p in --config)")
    for field_name in ("n", "p", "grid_points"):
        value = getattr(cfg, field_name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"{field_name} must be an integer, got {value!r}")
    if cfg.n < 3:
        raise UsageError(f"--dim must be >= 3, got {cfg.n}")
    if cfg.p < 1:
        raise UsageError(f"--punctures must be >= 1, got {cfg.p}")
    if cfg.grid_points < MIN_GRID:
        raise UsageError(f"--grid must be >= {MIN_GRID}, got {cfg.grid_points}")
    if cfg.verbosity not in ("quiet", "normal", "verbose"):
        raise UsageError(f"verbosity must be quiet/normal/verbose, got {cfg.verbosity!r}")
    for field_name in _OUTPUTS:
        value = getattr(cfg, field_name)
        if value is not None and not isinstance(value, str):
            raise UsageError(f"{field_name} must be a path string, got {value!r}")
    return cfg


def _check_writable(path: str):
    if os.path.isdir(path):
        raise UsageError(f"output path is a directory: {path!r}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise UsageError(f"output path not writable: {path!r}")


def _tmp_path(path: str) -> str:
    """A fresh temporary file name in the directory of ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    return os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")


def _write_new(tmp: str, chunks):
    """Write the str pieces of ``chunks`` to the new file ``tmp``, created
    with mode 0o666 less the umask, as ``open`` would; the file is removed
    when writing fails."""
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except BaseException:
        os.unlink(tmp)
        raise


def _publish(tmp: str, path: str):
    """Move the written file ``tmp`` onto ``path``, or remove it."""
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write(path: str, chunks):
    """Write the str pieces of ``chunks`` to ``path`` through a temporary
    file in the same directory, so the path holds all of it or none."""
    tmp = _tmp_path(path)
    _write_new(tmp, chunks)
    _publish(tmp, path)


def _csv(header: str, cols):
    """CSV text of equal-length float columns under ``header``, as pieces
    of one block of rows each: every cell is ``%.17g`` and a non-finite
    value is an empty cell. Trailing columns that are empty on every row of
    a block are not rendered: their cells are appended to each row as
    commas."""
    yield header + "\n"
    for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
        block = [col[start:start + CSV_BLOCK_ROWS] for col in cols]
        width = len(block)
        while width and not np.isfinite(block[width - 1]).any():
            width -= 1
        text = (render_block(np.column_stack(block[:width])) if width
                else "\n" * len(block[0]))
        tail = "," * (len(block) - max(width, 1))
        yield text.replace("\n", tail + "\n") if tail else text


def _profile_columns(artifacts):
    t = artifacts["t_grid"]
    return (t, *artifacts["profile"].jet(t))


def _curvature_columns(artifacts):
    c = artifacts["curvature"]
    return (c.t, c.ric_tt, c.ric_xx, c.ric_ss, c.pc_circle, c.pc_sphere,
            c.ki_ys, c.ki_ss)


def _boundary_columns(artifacts):
    s, b, b1, b2 = artifacts["boundary"].samples.T
    with np.errstate(divide="ignore", invalid="ignore"):
        return s, b, b1, b2, -b2 / b, (1.0 - b1**2) / b**2


# Each CSV dump: the RunConfig field of its path, its header, the report
# artifacts it reads, and its columns, read from those artifacts. A dump
# that reads only ``CASCADE_ARTIFACTS`` needs no check, so a forked child
# can render it while this process certifies.
DUMPS = (
    ("out_profile_csv", "t,R,R1,R2", ("profile", "t_grid"), _profile_columns),
    ("out_curvature_csv", "t,ric_TT,ric_XX,ric_SS,pc_circle,pc_sphere,ki_YS,ki_SS",
     ("curvature",), _curvature_columns),
    ("out_boundary_csv", "s,B,B1,B2,K_rad,K_tan", ("boundary",), _boundary_columns),
)
_OUTPUTS = ("out_report", *(key for key, *_ in DUMPS))


def _render(dump, artifacts):
    """The CSV text pieces of one ``DUMPS`` entry, read from ``artifacts``."""
    _, header, _, columns = dump
    return _csv(header, columns(artifacts))


def _report_json(report):
    return [report_to_json(report)]


def _write_outputs(outputs, write=_atomic_write) -> bool:
    """``write(path, pieces())`` for each ``(path, pieces)`` of ``outputs``,
    in order; False, with the error on stderr, at the first that cannot be
    written."""
    try:
        for path, pieces in outputs:
            write(path, pieces())
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return False
    return True


def _dump_outputs(cfg: RunConfig, dumps, artifacts):
    """The ``_write_outputs`` entries of ``dumps``, rendered from
    ``artifacts`` to their configured paths."""
    return [(getattr(cfg, d[0]), functools.partial(_render, d, artifacts))
            for d in dumps]


def _stage(cfg: RunConfig, staged) -> int:
    """The forked child's work: build the cascade artifacts and write each
    ``(path, tmp, dump)`` of ``staged`` to its temporary file ``tmp``, in
    order. Returns 0, or 2 once a file cannot be written. Artifacts that
    cannot be built (a ``RicciForgeError``, such as a rejected cascade)
    stage nothing and return 0: the report names that failure."""
    try:
        artifacts = cascade_artifacts(cfg.n, cfg.p, cfg.overrides or None,
                                      cfg.grid_points)
    except RicciForgeError:
        return 0
    outputs = [(tmp, functools.partial(_render, dump, artifacts))
               for _, tmp, dump in staged]
    return 0 if _write_outputs(outputs, _write_new) else 2


def _collect(pid: int, staged, built):
    """Reap the forked child, then move each staged file of a dump in
    ``built`` (the dumps whose artifacts the report holds) onto its path
    and remove the others. Returns whether the child and every move
    succeeded, and the dumps of ``built`` that a cleanly exited child
    staged nothing for, for this process to write."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        print(f"error: the forked writer ended by signal {-code}", file=sys.stderr)
    ok, unstaged = code == 0, []
    for path, tmp, dump in staged:
        # a child ended by a signal may leave a file half written
        if code >= 0 and dump in built and os.path.exists(tmp):
            try:
                _publish(tmp, path)
            except OSError as e:
                print(f"error: cannot write output: {e}", file=sys.stderr)
                ok = False
        else:
            if os.path.exists(tmp):
                os.unlink(tmp)
            if code == 0 and dump in built:
                unstaged.append(dump)
    return ok, unstaged


def _fork_writer(work):
    """Fork a child that runs ``work()`` and exits with the code it
    returns, or 2 after putting the traceback of an exception it raises on
    stderr; the child's pid, or None where this platform or this moment
    cannot fork. The child works on a copy-on-write image of this process,
    and it ends in ``os._exit``: returning or raising would run the
    caller's teardown and flush inherited stdio buffers a second time."""
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    # what the child prints must not carry text this process has buffered
    sys.stderr.flush()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads (numpy's idle
            # BLAS pool) forks, as a lock held by one may never be released
            # in the child. This child never calls BLAS: it selects the
            # cascade and evaluates profile jets and boundary samples by
            # elementwise numpy arithmetic, renders them and writes files.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded",
                DeprecationWarning)
            pid = fork()
    except OSError:
        return None
    if pid:
        return pid
    code = 2
    try:
        try:
            code = work()
        except BaseException:
            traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _print_summary(report, cfg: RunConfig):
    if cfg.verbosity == "quiet":
        return
    if cfg.verbosity == "verbose" and report.params is not None:
        print("parameters:")
        for key, value in report.params.as_dict().items():
            print(f"  {key} = {value!r}")
        if "rho" in report.artifacts:
            lo, hi = report.artifacts["rho"]
            bm = report.artifacts["boundary"]
            print(f"  rho interval = ({lo!r}, {hi!r}), default rho = "
                  f"{bm.rho_default()!r}")
    if cfg.verbosity == "verbose":
        print("stages:")
        for label, seconds in report.artifacts["trace"]:
            print(f"  {label}: {seconds * 1e3:.3f} ms")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        margin = "n/a" if c.margin is None else f"{c.margin:.6g}"
        line = f"[{status}] {c.name}: margin={margin}"
        if c.at is not None and math.isfinite(c.at):
            line += f" at={c.at:.6g}"
        if c.cause and not c.passed:
            line += f"  ({c.cause})"
        print(line)
    print(f"overall: {'pass' if report.overall else 'fail'}")


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        seen = {}
        for field_name in _OUTPUTS:
            path = getattr(cfg, field_name)
            if path:
                _check_writable(path)
                # two outputs on one file: one would silently overwrite the
                # other, in an order decided by which process ends last
                real = os.path.realpath(path)
                if real in seen:
                    raise UsageError(f"output paths {seen[real]!r} and {path!r} "
                                     "name the same file")
                seen[real] = path
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    # With two or more dumps, a forked child writes those that read only
    # cascade artifacts to temporary files while this process certifies and
    # writes the report and the other dumps; this process then publishes
    # each staged file whose artifacts its own report built. Without a fork,
    # this process writes them all.
    requested = [dump for dump in DUMPS if getattr(cfg, dump[0])]
    staged = []
    if len(requested) >= 2:
        staged = [(getattr(cfg, d[0]), _tmp_path(getattr(cfg, d[0])), d)
                  for d in requested if set(d[2]) <= set(CASCADE_ARTIFACTS)]
    pid = _fork_writer(functools.partial(_stage, cfg, staged)) if staged else None
    if pid is None:
        staged = []
    built, ok, child_ok, unstaged = [], False, True, []
    try:
        report = run_verification(
            cfg.n, cfg.p, cfg.overrides or None,
            grid=GridSpec(points=cfg.grid_points, lo=0.0, hi=T_MAX),
        )
        for dump in requested:
            if all(key in report.artifacts for key in dump[2]):
                built.append(dump)
            else:
                # a failing stage ended the run before this dump's data was
                # built
                print(f"warning: {getattr(cfg, dump[0])} not written: the run "
                      f"failed before its {' and '.join(dump[2])} artifacts "
                      "were built", file=sys.stderr)
        forked = [dump for *_, dump in staged]
        outputs = []
        if cfg.out_report:
            outputs.append((cfg.out_report, functools.partial(_report_json, report)))
        ok = _write_outputs(outputs + _dump_outputs(
            cfg, [d for d in built if d not in forked], report.artifacts))
    finally:
        if pid is not None:
            # the child has already put its own errors on stderr
            child_ok, unstaged = _collect(pid, staged, built)
    ok = ok and child_ok and _write_outputs(
        _dump_outputs(cfg, unstaged, report.artifacts))
    if not ok:
        return 2

    _print_summary(report, cfg)
    return 0 if report.overall else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
