"""Command-line front end: run the verification pipeline, write the JSON
report and optional CSV dumps, and reflect the outcome in the exit code
(0 pass, 1 any failed check, 2 usage or configuration error)."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import RicciForgeError
from .grids import GridSpec
from .paramgen import OVERRIDE_NAMES
from .verify import report_to_json, run_verification

MIN_GRID = 100
# rows rendered per step of a CSV dump: bounds the Python floats held at once
CSV_BLOCK_ROWS = 4_096


@dataclass
class RunConfig:
    n: int = None
    p: int = None
    overrides: dict = field(default_factory=dict)
    grid_points: int = 10_000
    out_report: str = None
    out_profile_csv: str = None
    out_curvature_csv: str = None
    out_boundary_csv: str = None
    verbosity: str = "normal"


_OUTPUT_FIELDS = ("out_report", "out_profile_csv", "out_curvature_csv",
                  "out_boundary_csv")


class UsageError(Exception):
    pass


def _override_value(name: str, raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise UsageError(f"override {name!r} needs a numeric value, got {raw!r}")


def _parse_override(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise UsageError(f"--set expects NAME=VALUE, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if name not in OVERRIDE_NAMES:
        raise UsageError(
            f"unknown override {name!r}; valid names: {', '.join(OVERRIDE_NAMES)}")
    return name, _override_value(name, raw)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ricci-forge",
        description="Certify the squashed punctured-sphere construction for a "
                    "given dimension and number of removed discs.")
    ap.add_argument("--dim", type=int, help="ambient sphere dimension n (>= 3)")
    ap.add_argument("--punctures", type=int, help="number of removed discs p (>= 1)")
    ap.add_argument("--grid", type=int, help="grid resolution (default 10000)")
    ap.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                    help="pin a constant (repeatable); names: "
                         + ", ".join(OVERRIDE_NAMES))
    ap.add_argument("--out", help="path of the JSON report")
    ap.add_argument("--profile-csv", help="dump the warping profile as CSV")
    ap.add_argument("--curvature-csv", help="dump curvature samples as CSV")
    ap.add_argument("--boundary-csv", help="dump boundary metric samples as CSV")
    ap.add_argument("--config", help="JSON config file mirroring the flags")
    g = ap.add_mutually_exclusive_group()
    g.add_argument("--quiet", action="store_true", help="suppress the summary")
    g.add_argument("--verbose", action="store_true", help="also print parameters")
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
                for name, raw in value.items():
                    if name not in OVERRIDE_NAMES:
                        raise UsageError(
                            f"unknown override {name!r} in config; valid names: "
                            f"{', '.join(OVERRIDE_NAMES)}")
                    cfg.overrides[name] = _override_value(name, raw)
            else:
                setattr(cfg, key, value)
    if args.dim is not None:
        cfg.n = args.dim
    if args.punctures is not None:
        cfg.p = args.punctures
    if args.grid is not None:
        cfg.grid_points = args.grid
    for item in args.set:
        name, value = _parse_override(item)
        cfg.overrides[name] = value
    if args.out:
        cfg.out_report = args.out
    if args.profile_csv:
        cfg.out_profile_csv = args.profile_csv
    if args.curvature_csv:
        cfg.out_curvature_csv = args.curvature_csv
    if args.boundary_csv:
        cfg.out_boundary_csv = args.boundary_csv
    if args.quiet:
        cfg.verbosity = "quiet"
    elif args.verbose:
        cfg.verbosity = "verbose"

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
    for field_name in _OUTPUT_FIELDS:
        value = getattr(cfg, field_name)
        if value is not None and not isinstance(value, str):
            raise UsageError(f"{field_name} must be a path string, got {value!r}")
    return cfg


def _check_writable(path: str):
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise UsageError(f"output path not writable: {path!r}")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, cols) -> str:
    """CSV text of equal-length float columns under ``header``: every cell
    is ``%.17g`` and a non-finite value is an empty cell.

    Rows are rendered a block at a time, one ``%`` format per row. A finite
    ``%.17g`` holds only digits, '-', '.', 'e' and '+', so in a block that
    holds a non-finite value the 'nan', 'inf' and '-inf' tokens are deleted
    from its text.
    """
    table = np.column_stack(cols)
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    parts = [header]
    for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        text = "\n".join([row_fmt % tuple(row) for row in block.tolist()])
        if not np.isfinite(block).all():
            text = text.replace("-inf", "").replace("inf", "").replace("nan", "")
        parts.append(text)
    return "\n".join(parts) + "\n"


def _profile_csv(report) -> str:
    profile = report.artifacts["profile"]
    ts = report.artifacts["t_grid"]
    return _csv("t,R,R1,R2",
                (ts, *profile.jet(ts)))


def _curvature_csv(report) -> str:
    curv = report.artifacts["curvature"]
    return _csv("t,ric_TT,ric_XX,ric_SS,pc_circle,pc_sphere,ki_YS,ki_SS",
                (curv.t, curv.ric_tt, curv.ric_xx, curv.ric_ss,
                 curv.pc_circle, curv.pc_sphere, curv.ki_ys, curv.ki_ss))


def _boundary_csv(report) -> str:
    bm = report.artifacts["boundary"]
    s, b, b1, b2 = bm.samples.T
    with np.errstate(divide="ignore", invalid="ignore"):
        k_rad = -b2 / b
        k_tan = (1.0 - b1**2) / b**2
    return _csv("s,B,B1,B2,K_rad,K_tan", (s, b, b1, b2, k_rad, k_tan))


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
        for field_name in _OUTPUT_FIELDS:
            path = getattr(cfg, field_name)
            if path:
                _check_writable(path)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        report = run_verification(
            cfg.n, cfg.p, cfg.overrides or None,
            grid=GridSpec(points=cfg.grid_points, lo=0.0, hi=math.pi / 2),
        )
    except RicciForgeError as e:
        # run_verification converts expected failures into failing reports;
        # anything escaping is a usage-level problem
        print(f"error: {e}", file=sys.stderr)
        return 2

    wants_csv = cfg.out_profile_csv or cfg.out_curvature_csv or cfg.out_boundary_csv
    if wants_csv and "profile" not in report.artifacts:
        print("warning: pipeline failed before the profile was built; "
              "CSV dumps skipped", file=sys.stderr)
    try:
        if cfg.out_report:
            _atomic_write(cfg.out_report, report_to_json(report))
        if "profile" in report.artifacts:
            if cfg.out_profile_csv:
                _atomic_write(cfg.out_profile_csv, _profile_csv(report))
            if cfg.out_curvature_csv:
                _atomic_write(cfg.out_curvature_csv, _curvature_csv(report))
            if cfg.out_boundary_csv:
                _atomic_write(cfg.out_boundary_csv, _boundary_csv(report))
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2

    _print_summary(report, cfg)
    return 0 if report.overall else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
