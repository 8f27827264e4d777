import itertools
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ricci_forge import DomainError, cli, verify
from ricci_forge.cli import (
    CSV_BLOCK_ROWS, MIN_GRID, RunConfig, _atomic_write, _csv, run)
from ricci_forge.fmt17 import render_block
from ricci_forge.grids import GridSpec
from ricci_forge.verify import STAGES, report_to_json, run_verification


def _run_full(tmp_path, grid=1_000, extra=()):
    out = tmp_path / "report.json"
    prof = tmp_path / "profile.csv"
    curv = tmp_path / "curvature.csv"
    bdry = tmp_path / "boundary.csv"
    code = run([
        "--dim", "3", "--punctures", "3", "--grid", str(grid),
        "--out", str(out), "--profile-csv", str(prof),
        "--curvature-csv", str(curv), "--boundary-csv", str(bdry),
        "--quiet", *extra,
    ])
    return code, out, prof, curv, bdry


@pytest.fixture
def render_log(tmp_path_factory, monkeypatch):
    """Record ``(pid, dump field)`` of every ``cli._render`` call, the
    forked child's included, as one line appended to a file per call;
    returns a function that reads the records back."""
    path = tmp_path_factory.mktemp("renders") / "log"
    path.touch()
    real = cli._render

    def render(dump, artifacts):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {dump[0]}\n")
        return real(dump, artifacts)

    monkeypatch.setattr(cli, "_render", render)
    return lambda: [(int(pid), name) for pid, name in
                    map(str.split, path.read_text().splitlines())]


def _split(records):
    """The dump fields rendered by this process and by other processes."""
    here = os.getpid()
    return ([name for pid, name in records if pid == here],
            sorted(name for pid, name in records if pid != here))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    code, out, prof, curv, bdry = _run_full(tmp)
    assert code == 0
    return out, prof, curv, bdry


def test_run_pass_exit_zero(cli_outputs):
    out, _, _, _ = cli_outputs
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    assert report["schema"] == "ricci-forge/1"
    assert len(report["checks"]) == 33


def test_dimension_below_three_is_usage_error(capsys):
    assert run(["--dim", "2", "--punctures", "1"]) == 2
    assert "dim" in capsys.readouterr().err


def test_invalid_override_value_fails_certification(tmp_path):
    out = tmp_path / "r.json"
    code = run(["--dim", "3", "--punctures", "1", "--set", "zeta=0.1",
                "--out", str(out), "--quiet"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall"] == "fail"
    causes = [c["cause"] for c in report["checks"] if c["cause"]]
    assert any("2.1(c)" in c for c in causes)


def test_kappa_overflow_writes_failing_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["--dim", "3", "--punctures", "3", "--set", "kappa=1e150",
                "--out", str(out), "--quiet"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall"] == "fail"
    assert "Definition 2.1(c)" in report["checks"][0]["cause"]
    assert "Traceback" not in capsys.readouterr().err


def test_tiny_mu_writes_failing_report(tmp_path):
    # Lemma 2.13(c) is certified at margin exactly mu, so the cascade rejects
    # a mu at or below the strict floor by name instead of certifying it
    out = tmp_path / "r.json"
    for mu in ("1e-300", "1e-12"):
        code = run(["--dim", "3", "--punctures", "3", "--set", f"mu={mu}",
                    "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"
        first, *rest = report["checks"]
        assert first["name"] == "parameter_invariants" and not first["passed"]
        assert "Lemma 2.13(c)" in first["cause"] and f"mu = {mu}" in first["cause"]
        skip = f"skipped: parameter cascade failed ({first['cause']})"
        assert all(c["cause"] == skip and not c["passed"] for c in rest)


@pytest.mark.parametrize("stage, target, written, skipped", [
    ("curvature", "curvature_grid", (), ("profile.csv", "curvature.csv", "boundary.csv")),
    ("boundary", "boundary_metric", ("profile.csv", "curvature.csv"), ("boundary.csv",)),
])
def test_later_stage_error_writes_failing_report(tmp_path, monkeypatch, capsys,
                                                 render_log, stage, target,
                                                 written, skipped):
    # a RicciForgeError past the cascade is a failing report (exit 1), not a
    # usage error (exit 2); each CSV dump whose artifacts the failing stage
    # never built is skipped with a warning, and the others are written
    def failing(*args):
        raise DomainError(f"injected {stage} failure", clause="Lemma 2.3")

    monkeypatch.setattr(verify, target, failing)
    code, out, *csvs = _run_full(tmp_path)
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall"] == "fail"
    skip = f"skipped: {stage} failed (Lemma 2.3: injected {stage} failure)"
    assert "rho_interval_nonempty" in [c["name"] for c in report["checks"]
                                       if c["cause"] == skip]
    assert sorted(p.name for p in csvs if p.exists()) == sorted(written)
    # stderr is one warning per skipped dump, in DUMPS order, and nothing else
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(skipped)
    assert all(line.startswith("warning: ") and name in line
               for line, name in zip(err, skipped))
    # the forked child was reaped and left no staged file behind
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the child renders every cascade-only dump it can build, so this
    # process renders only the curvature dump, once its report built it
    by_child = {"curvature": ["out_boundary_csv", "out_profile_csv"],
                "boundary": ["out_profile_csv"]}[stage]
    assert _split(render_log()) == \
        (["out_curvature_csv"] * ("curvature.csv" in written), by_child)


def test_parallel_split_stays_in_place(tmp_path, render_log):
    # the serial path writes the same bytes, so only who renders what shows
    # a fall back to it
    code, *_ = _run_full(tmp_path)
    assert code == 0
    assert _split(render_log()) == \
        (["out_curvature_csv"], ["out_boundary_csv", "out_profile_csv"])


def test_rejected_cascade_writes_no_dump(tmp_path, capsys):
    # the forked child rejects the cascade too and stages nothing
    code, out, *csvs = _run_full(tmp_path, extra=("--set", "mu=1e-300"))
    assert code == 1
    assert json.loads(out.read_text())["overall"] == "fail"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("warning: ") and p.name in line
               for line, p in zip(err, csvs))
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verbose_prints_one_line_per_stage(capsys):
    assert run(["--dim", "3", "--punctures", "3", "--grid", "200", "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("stages:") + 1
    block = list(itertools.takewhile(lambda line: line.startswith("  "), lines[start:]))
    assert [line.strip().rpartition(": ")[0] for line in block] \
        == [label for label, _ in STAGES]
    assert all(line.endswith(" ms") for line in block)


def test_failure_causes_carry_no_numpy_reprs(tmp_path):
    out = tmp_path / "r.json"
    code = run(["--dim", "3", "--punctures", "3", "--set", "kappa=1e6",
                "--out", str(out), "--quiet"])
    assert code == 1
    causes = [c["cause"] for c in json.loads(out.read_text())["checks"] if c["cause"]]
    assert causes and all("np." not in c for c in causes)


def test_unknown_override_name_is_usage_error(capsys):
    assert run(["--dim", "3", "--punctures", "1", "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "zeta" in err  # valid names are listed


def test_small_grid_is_usage_error():
    assert run(["--dim", "3", "--punctures", "1", "--grid", "10"]) == 2


def test_unwritable_output_is_usage_error():
    assert run(["--dim", "3", "--punctures", "1",
                "--out", "/nonexistent-dir/x.json"]) == 2


@pytest.mark.parametrize("flag", ["--out", "--profile-csv", "--boundary-csv"])
def test_directory_output_is_usage_error(tmp_path, capsys, flag):
    # rejected before anything runs: no other output is written
    (tmp_path / "dir").mkdir()
    paths = {"--out": "report.json", "--profile-csv": "p.csv",
             "--boundary-csv": "b.csv", flag: "dir"}
    argv = ["--dim", "3", "--punctures", "3", "--grid", "100", "--quiet"]
    for name, path in paths.items():
        argv += [name, str(tmp_path / path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == \
        f"error: output path is a directory: {str(tmp_path / 'dir')!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not list((tmp_path / "dir").iterdir())


# two flags on one path, and a flag and a config key on one file through a
# symlinked directory
@pytest.mark.parametrize("via_config", [False, True])
def test_duplicate_output_paths_is_usage_error(tmp_path, capsys, via_config):
    argv = ["--dim", "3", "--punctures", "1", "--out", str(tmp_path / "r.json")]
    if via_config:
        (tmp_path / "link").symlink_to(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"out_boundary_csv": str(tmp_path / "link" / "r.json")}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--profile-csv", str(tmp_path / "x.csv"),
                 "--curvature-csv", str(tmp_path / "x.csv")]
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    assert "name the same file" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_missing_required_flags_is_usage_error():
    assert run(["--dim", "3"]) == 2


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 3, "p": 1, "grid_points": 1_000,
        "overrides": {"zeta": 0.1},
        "out_report": str(tmp_path / "from_config.json"),
    }))
    assert run(["--config", str(cfg), "--quiet"]) == 1
    assert (tmp_path / "from_config.json").exists()
    # flags override config values: a valid zeta makes the run pass
    code = run(["--config", str(cfg), "--set",
                "zeta=4.438378457650197", "--quiet"])
    assert code == 0


# each RunConfig field: a --config value, a flag and the value it sets
PRECEDENCE = {
    "n": (4, ["--dim", "5"], 5),
    "p": (2, ["--punctures", "3"], 3),
    "overrides": ({"R0": 0.05, "mu": 1e-9}, ["--set", "mu=1e-8"],
                  {"R0": 0.05, "mu": 1e-8}),
    "grid_points": (500, ["--grid", "600"], 600),
    "out_report": ("c.json", ["--out", "f.json"], "f.json"),
    "out_profile_csv": ("c.csv", ["--profile-csv", "f.csv"], "f.csv"),
    "out_curvature_csv": ("c.csv", ["--curvature-csv", "f.csv"], "f.csv"),
    "out_boundary_csv": ("c.csv", ["--boundary-csv", "f.csv"], "f.csv"),
    "verbosity": ("verbose", ["--quiet"], "quiet"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_flag_wins_over_config_field_by_field(tmp_path, name):
    config_value, flag, flag_value = PRECEDENCE[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "p": 1, name: config_value}))

    def merged(*argv):
        args = cli._build_parser().parse_args(["--config", str(path), *argv])
        return getattr(cli._merge_config(args), name)

    assert merged() == config_value
    assert merged(*flag) == flag_value
    if name.startswith("out_"):
        # an empty path keeps the config's
        assert merged(flag[0], "") == config_value


def test_config_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 3}))
    assert run(["--config", str(cfg)]) == 2


_MISSING = object()


@pytest.mark.parametrize("flags, config, says", [
    (("--set", "mu"), None, "--set expects NAME=VALUE, got 'mu'"),
    ((), _MISSING, "cannot read config"),
    ((), [1, 2], "must hold a JSON object"),
    ((), {"overrides": [1]}, "config 'overrides' must be an object"),
    (("--punctures", "0"), None, "--punctures must be >= 1, got 0"),
    ((), {"verbosity": "loud"}, "verbosity must be quiet/normal/verbose, got 'loud'"),
], ids=["set-without-equals", "missing-config", "config-not-object",
        "overrides-not-object", "no-punctures", "bad-verbosity"])
def test_usage_error_branches(tmp_path, capsys, flags, config, says):
    argv = ["--dim", "3", "--punctures", "3", "--out", str(tmp_path / "report.json"),
            "--profile-csv", str(tmp_path / "profile.csv"), *flags]
    cfg = tmp_path / "cfg.json"
    if config is not None:
        if config is not _MISSING:
            cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and says in lines[0]
    # no report, dump or staged file: the error is found before any work
    assert [p.name for p in tmp_path.iterdir() if p != cfg] == []


def test_csv_headers_and_shapes(cli_outputs):
    _, prof, curv, bdry = cli_outputs
    assert prof.read_text().splitlines()[0] == "t,R,R1,R2"
    assert curv.read_text().splitlines()[0] == \
        "t,ric_TT,ric_XX,ric_SS,pc_circle,pc_sphere,ki_YS,ki_SS"
    assert bdry.read_text().splitlines()[0] == "s,B,B1,B2,K_rad,K_tan"


def test_csv_boundary_columns_empty_past_ball(cli_outputs):
    out, _, curv, _ = cli_outputs
    r0 = json.loads(out.read_text())["params"]["r0"]
    for line in curv.read_text().splitlines()[1:]:
        cells = line.split(",")
        if float(cells[0]) > r0:
            assert cells[4] == "" and cells[7] == ""
        else:
            assert cells[4] != ""


def test_csv_boundary_poles_leave_curvature_empty(cli_outputs):
    # B = 0 at both poles, where neither sectional curvature is defined
    *_, bdry = cli_outputs
    lines = bdry.read_text().splitlines()
    for line in (lines[1], lines[-1]):
        cells = line.split(",")
        assert cells[1] == "0" and cells[4:] == ["", ""], line


def test_outputs_deterministic(tmp_path, cli_outputs):
    out0, prof0, curv0, bdry0 = cli_outputs
    code, out1, prof1, curv1, bdry1 = _run_full(tmp_path)
    assert code == 0
    for a, b in ((out0, out1), (prof0, prof1), (curv0, curv1), (bdry0, bdry1)):
        assert a.read_bytes() == b.read_bytes()


def test_csv_floats_roundtrip_exactly(cli_outputs):
    _, prof, _, _ = cli_outputs
    data = np.genfromtxt(prof, delimiter=",", skip_header=1)
    text = prof.read_text().splitlines()[1]
    assert float(text.split(",")[1]) == data[0, 1]


def test_csv_margins_reproduce_report(cli_outputs):
    """Re-reading the CSV columns reproduces the worst margins of every
    check that is a pure function of those columns."""
    out, prof, curv, _ = cli_outputs
    report = json.loads(out.read_text())
    margins = {c["name"]: c["margin"] for c in report["checks"]}
    r0 = report["params"]["r0"]
    cot = 1.0 / math.tan(r0)

    cdata = np.genfromtxt(curv, delimiter=",", skip_header=1)
    t = cdata[:, 0]
    for col, name in ((1, "ricci_tt_positive"), (2, "ricci_xx_positive"),
                      (3, "ricci_ss_positive")):
        assert abs(float(np.min(cdata[:, col])) - margins[name]) < 1e-6
    mb = ~np.isnan(cdata[:, 4])
    pc_min = np.min(np.minimum(cdata[mb, 4], cdata[mb, 5]) + cot)
    assert abs(float(pc_min) - margins["corollary_2_16_bound"]) < 1e-6
    assert abs(float(np.min(cdata[mb, 6]) - cot**2)
               - margins["lemma_2_17_bound"]) < 1e-6
    assert abs(float(np.min(cdata[mb, 7]) - cot**2)
               - margins["lemma_2_18_bound"]) < 1e-6

    pdata = np.genfromtxt(prof, delimiter=",", skip_header=1)
    tp, R, R1 = pdata[:, 0], pdata[:, 1], pdata[:, 2]
    sel = (tp > 0.0) & (tp <= r0 + 1e-15)
    slope_margin = np.min(
        (1.0 - (R1[sel] / R[sel]) * np.tan(tp[sel])) / tp[sel] ** 2)
    assert abs(float(slope_margin) - margins["lemma_2_15"]) < 1e-6


def _reference_csv(header, cols):
    """The cell rule, one cell at a time: empty if not finite, else %.17g."""
    rows = [header]
    for row in zip(*cols):
        rows.append(",".join(
            "" if not math.isfinite(v) else "{:.17g}".format(float(v)) for v in row))
    return "\n".join(rows) + "\n"


def _assert_same_cells(got, want):
    """Equal CSV texts, or a failure naming the first cell that differs
    (a plain ``==`` on megabytes of text makes a slow diff)."""
    if got != want:
        cells = zip(got.replace("\n", ",").split(","),
                    want.replace("\n", ",").split(","))
        bad = next(((g, w) for g, w in cells if g != w), (got[-80:], want[-80:]))
        pytest.fail(f"cell reads {bad[0]!r}, the cell rule gives {bad[1]!r}")


# one row, whole blocks, and whole blocks plus a partial one
@pytest.mark.parametrize("rows", [1, 4 * CSV_BLOCK_ROWS, 8 * CSV_BLOCK_ROWS,
                                  8 * CSV_BLOCK_ROWS + 1])
def test_csv_renderer_matches_cell_rule(rows):
    finite = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, -2.5e17, 1e16]
    cols = [np.resize(np.roll(finite, k), rows) for k in range(4)]
    # non-finite values only in the last block
    cols[0][-1], cols[1][-1], cols[2][-1] = math.nan, math.inf, -math.inf
    text = b"".join(_csv("a,b,c,d", cols)).decode()
    _assert_same_cells(text, _reference_csv("a,b,c,d", cols))
    assert text.count("\n") == rows + 1
    assert text.endswith("\n,,," + "{:.17g}".format(cols[3][-1]) + "\n")


def _assert_cells_match(values, width):
    """``_csv`` of ``values`` laid out in ``width`` columns against the
    per-cell rule."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.ones(-values.size % width)])
    cols = list(values.reshape(-1, width).T)
    header = ",".join("c%d" % i for i in range(width))
    _assert_same_cells(b"".join(_csv(header, cols)).decode(), _reference_csv(header, cols))


# exact ties at the 18th digit: 17 digits plus ...5, rounded half to even
TIES = [1234567890123456.75, 1234567890123456.25, 1000000000000000.25,
        123456789012345.375, 123456789012345.875, 123456789012345.125]
ADVERSARIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    1e-250, 1e250, -1e250, 1e-5, 1e-4, 9.9999999999999995e-05, 1e16, 1e17,
    -1e16, 9.9999999999999999e16, 2.0**53 - 2, 2.0**53 + 2, 2.0**53,
    np.nextafter(1e23, 0.0), 1e23, 0.1, 1 / 3, -2.5e17, 1.7976931348623157e308,
    1.0, 10.0, 123.0, 1e15, 1e-7, math.pi, -math.e, 5e-5, 0.0001234,
    12345678901234567.0, 99999999999999999.0, math.nan, math.inf, -math.inf,
] + [np.nextafter(v, d) for v in (1e-250, 1e250, 1e-5, 1e-4, 1e16, 1e17, 1e-300)
     for d in (0.0, math.inf)] + TIES + [-t for t in TIES]


def test_csv_renderer_adversarial_cells():
    for width in (1, 3, 7):
        _assert_cells_match(ADVERSARIAL, width)


def test_csv_renderer_powers_of_ten():
    values = []
    for k in range(-323, 309):
        v = float("1e%d" % k)
        values += [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf), -v]
    _assert_cells_match(values, 8)


def test_csv_renderer_random_bit_patterns():
    rng = np.random.default_rng(20_000)
    bits = rng.integers(0, 2**64, size=220_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:200_000]
    assert values.size == 200_000
    _assert_cells_match(values, 5)


WHOLE = [1.0, -1.0, 7.25, 123.0, -1e15, math.pi * 1e5, 9999999999999998.0, 2.0**52 + 0.5]
BELOW_ONE = [0.1, -0.5, 1 / 3, 0.0099, -0.00012345678901234567, 1e-4, 0.999]
EXPONENT = [1e16, 1e17, -2.5e17, 6.02214076e23, 1.2345678901234567e-5, -1e-100,
            1e-200, 1e200, 99999.0e-10]
# the widest fallback text, 24 bytes: every slot before the exponent slots
WIDEST = -2.2250738585072014e-308
FALLBACK = [0.0, -0.0, 5e-324, -5e-324, TIES[0], -TIES[1], 1e-300, WIDEST]


# a block has the exponent slots only if a cell is in exponent form; a
# fallback cell's text fills up to the 24 slots before them
@pytest.mark.parametrize("values", [
    WHOLE,
    WHOLE + BELOW_ONE,
    *[WHOLE + [cell] for cell in (1e16, 1e200, 1.2345678901234567e-5, -1e-100)],
    BELOW_ONE + EXPONENT,
    FALLBACK + [math.nan, math.inf, -math.inf, math.nan],
    *[WHOLE + BELOW_ONE + [cell] for cell in (WIDEST, TIES[0], -0.0, 5e-324, 1e-300)],
], ids=["whole", "below-one", "exponent-1e16", "exponent-1e200", "exponent-1.2e-5",
        "exponent-minus-1e-100", "below-one+exponent", "fallback-and-nan",
        "fallback-widest", "fallback-tie", "fallback-negative-zero", "fallback-subnormal",
        "fallback-1e-300"])
@pytest.mark.parametrize("width", [1, 3])
def test_render_block_slot_layouts(values, width):
    _assert_cells_match(values, width)


def _rendered_widths(monkeypatch):
    """Record the column count of every block ``_csv`` hands the renderer."""
    widths = []
    real = cli.render_block

    def render(block):
        widths.append(block.shape[1])
        return real(block)

    monkeypatch.setattr(cli, "render_block", render)
    return widths


def _columns(width, rows):
    finite = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, -2.5e17, 1e16, 123.0]
    return [np.resize(np.roll(finite, j), rows) for j in range(width)]


SECOND_BLOCK = slice(CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS)
EMPTY_BLOCK = np.resize([math.nan, math.inf, -math.inf], CSV_BLOCK_ROWS)


# the last `tail` columns are empty on every row of the second block, or,
# straddling, on every row of it but one; `tail == width` empties the block
@pytest.mark.parametrize("width", range(1, 9))
def test_csv_empty_tail_columns_are_appended(monkeypatch, width):
    widths = _rendered_widths(monkeypatch)
    header = ",".join("c%d" % i for i in range(width))
    for tail, straddle in itertools.product(range(1, width + 1), (False, True)):
        cols = _columns(width, 3 * CSV_BLOCK_ROWS + 7)
        for col in cols[width - tail:]:
            col[SECOND_BLOCK] = EMPTY_BLOCK
        if straddle:
            cols[-1][CSV_BLOCK_ROWS + 5] = 2.5
        widths.clear()
        text = b"".join(_csv(header, cols)).decode()
        _assert_same_cells(text, _reference_csv(header, cols))
        second = [width] if straddle else [width - tail] if tail < width else []
        assert widths == [width, *second, width, width]


# an empty column with a filled one after it is rendered like any other
@pytest.mark.parametrize("width", range(2, 9))
def test_csv_empty_middle_column_is_rendered(monkeypatch, width):
    widths = _rendered_widths(monkeypatch)
    header = ",".join("c%d" % i for i in range(width))
    cols = _columns(width, 2 * CSV_BLOCK_ROWS + 1)
    cols[(width - 1) // 2][:] = math.nan
    _assert_same_cells(b"".join(_csv(header, cols)).decode(), _reference_csv(header, cols))
    assert widths == [width] * 3


def test_render_block_memory_bound():
    # one block of the (3, 3) curvature dump: per-byte index arrays or
    # per-slot int64 temporaries would show here first
    report = run_verification(3, 3)
    block = np.column_stack([col[:CSV_BLOCK_ROWS] for col in
                             cli._curvature_columns(report.artifacts)])
    assert block.shape == (CSV_BLOCK_ROWS, 8)
    render_block(block)  # the power tables are built on the first render
    tracemalloc.start()
    try:
        render_block(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_cli_dumps_match_cell_rule(tmp_path):
    grid = 2_000
    code, _, prof, curv, bdry = _run_full(tmp_path, grid=grid)
    assert code == 0
    report = run_verification(
        3, 3, grid=GridSpec(points=grid, lo=0.0, hi=math.pi / 2))
    ts = report.artifacts["t_grid"]
    c = report.artifacts["curvature"]
    s, b, b1, b2 = report.artifacts["boundary"].samples.T
    with np.errstate(divide="ignore", invalid="ignore"):
        k_rad, k_tan = -b2 / b, (1.0 - b1**2) / b**2
    expected = {
        prof: ("t,R,R1,R2", (ts, *report.artifacts["profile"].jet(ts))),
        curv: ("t,ric_TT,ric_XX,ric_SS,pc_circle,pc_sphere,ki_YS,ki_SS",
               (c.t, c.ric_tt, c.ric_xx, c.ric_ss, c.pc_circle, c.pc_sphere,
                c.ki_ys, c.ki_ss)),
        bdry: ("s,B,B1,B2,K_rad,K_tan", (s, b, b1, b2, k_rad, k_tan)),
    }
    for path, (header, cols) in expected.items():
        _assert_same_cells(path.read_text(), _reference_csv(header, cols))


def test_atomic_write_keeps_old_file_when_rendering_fails(tmp_path):
    # the CSV blocks are rendered while the file is written
    def chunks():
        yield b"t,R\n"
        raise ValueError("render failed")

    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        _atomic_write(str(path), chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _refusing_fork(monkeypatch):
    """Make ``os.fork`` raise OSError; the list records each call."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def test_forked_dumps_equal_serial_dumps(tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    (tmp_path / "forked").mkdir()
    code, *forked = _run_full(tmp_path / "forked")
    assert code == 0 and forks == [1]
    monkeypatch.delattr(os, "fork")
    (tmp_path / "serial").mkdir()
    code, *serial = _run_full(tmp_path / "serial")
    assert code == 0 and forks == [1]
    for a, b in zip(forked, serial):
        assert a.read_bytes() == b.read_bytes(), a.name


# the report and every dump, the forked child's included, get 0o666 less
# the umask, as a file made by open() would
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_outputs_are_created_under_umask(tmp_path, monkeypatch, umask, mode):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    old = os.umask(umask)
    try:
        code, *written = _run_full(tmp_path)
    finally:
        os.umask(old)
    assert code == 0 and forks == [1]
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == \
        {p.name: mode for p in written}


def test_fork_thread_warning_is_ignored(tmp_path, monkeypatch):
    # Python 3.12+ warns on a fork from a process with threads; the CLI
    # ignores only that warning, even where warnings are errors
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      "use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    (tmp_path / "forked").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, *forked = _run_full(tmp_path / "forked")
    assert code == 0 and forks == [1]
    monkeypatch.delattr(os, "fork")
    (tmp_path / "serial").mkdir()
    code, *serial = _run_full(tmp_path / "serial")
    assert code == 0
    for a, b in zip(forked, serial):
        assert a.read_bytes() == b.read_bytes(), a.name


# a failure in this process (curvature), in the forked child (boundary, the
# last dump it stages), and an unexpected exception in the child
@pytest.mark.parametrize("failing,error", [("curvature.csv", OSError),
                                           ("boundary.csv", OSError),
                                           ("boundary.csv", ValueError)])
def test_dump_failure_exits_two_and_reaps_child(tmp_path, monkeypatch, capfd,
                                                cli_outputs, failing, error):
    real_render = cli._render

    def render(dump, artifacts):
        chunks = real_render(dump, artifacts)
        if dump[0] != f"out_{failing[:-len('.csv')]}_csv":
            return chunks
        # fail after the header, so the temporary file exists by then
        header = next(chunks)

        def failing_chunks():
            yield header
            raise error("disk full")
        return failing_chunks()

    monkeypatch.setattr(cli, "_render", render)
    code, *written = _run_full(tmp_path)
    assert code == 2
    err = capfd.readouterr().err
    if error is OSError:
        assert err.count("error: cannot write output: disk full") == 1
    else:
        assert "Traceback" in err and "ValueError: disk full" in err
    for path, want in zip(written, cli_outputs):
        if path.name == failing:
            assert not path.exists()
        else:
            assert path.read_bytes() == want.read_bytes(), path.name
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unexpected_error_while_certifying_leaves_no_staged_file(tmp_path,
                                                                 monkeypatch):
    # the forked child stages both of its dumps; this process's report never
    # comes, so both staged files are removed
    def failing(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(verify, "curvature_grid", failing)
    with pytest.raises(RuntimeError):
        _run_full(tmp_path)
    assert not list(tmp_path.iterdir())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_ended_by_signal_publishes_nothing(tmp_path, monkeypatch, capfd,
                                                 cli_outputs):
    # a staged file of a child that was killed may be incomplete
    real_write_new = cli._write_new
    this_process = os.getpid()

    def write_new(tmp, chunks):
        real_write_new(tmp, chunks)
        if os.getpid() != this_process:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "_write_new", write_new)
    code, *written = _run_full(tmp_path)
    assert code == 2
    assert capfd.readouterr().err == \
        f"error: the forked writer ended by signal {int(signal.SIGKILL)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["curvature.csv", "report.json"]
    for path, want in zip(written, cli_outputs):
        if path.exists():
            assert path.read_bytes() == want.read_bytes(), path.name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name, forked", [("profile", True), ("boundary", True),
                                          ("curvature", False)])
def test_lone_dump_forks_when_the_child_can_render_it(tmp_path, monkeypatch,
                                                      render_log, name, forked):
    # a lone dump that reads only cascade artifacts is rendered by the forked
    # child; the curvature dump reads an artifact evaluated at n
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    def lone(directory):
        directory.mkdir()
        dump = directory / f"{name}.csv"
        assert run(["--dim", "3", "--punctures", "3", "--grid", "1000", "--quiet",
                    f"--{name}-csv", str(dump)]) == 0
        assert [p.name for p in directory.iterdir()] == [dump.name]
        return dump.read_bytes()

    monkeypatch.setattr(os, "fork", fork)
    field = f"out_{name}_csv"
    staged = lone(tmp_path / "forked")
    assert forks == [1] * forked
    assert _split(render_log()) == ([] if forked else [field], [field] * forked)
    monkeypatch.delattr(os, "fork")
    assert lone(tmp_path / "serial") == staged
    assert _split(render_log())[0][-1] == field


def test_refused_fork_writes_serially(tmp_path, monkeypatch, cli_outputs):
    forks = _refusing_fork(monkeypatch)
    code, *written = _run_full(tmp_path)
    assert code == 0 and forks == [1]
    for path, want in zip(written, cli_outputs):
        assert path.read_bytes() == want.read_bytes(), path.name


def test_minimum_grid_dumps_every_row(tmp_path):
    code, out, prof, curv, bdry = _run_full(tmp_path, grid=MIN_GRID)
    assert code == 0
    report = run_verification(
        3, 3, grid=GridSpec(points=MIN_GRID, lo=0.0, hi=math.pi / 2))
    assert out.read_text() == report_to_json(report)
    t_rows = report.artifacts["t_grid"].size
    b_rows = report.artifacts["boundary"].samples.shape[0]
    for path, count in ((prof, t_rows), (curv, t_rows), (bdry, b_rows)):
        assert len(path.read_text().splitlines()) - 1 == count, path.name


def test_console_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ricci_forge.cli", "--dim", "3",
         "--punctures", "1", "--set", "zeta=0.1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "overall: fail" in proc.stdout
    assert "[FAIL] parameter_invariants" in proc.stdout


def test_config_non_integer_dimension_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3.5, "p": 1}))
    assert run(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("key,value", [("out_profile_csv", ["a"]), ("out_report", 5)])
def test_config_non_string_output_path_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 3, key: value}))
    assert run(["--config", str(cfg)]) == 2
    assert f"{key} must be a path string" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", None])
def test_config_non_numeric_override_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 1, "overrides": {"R0": raw}}))
    assert run(["--config", str(cfg)]) == 2
    assert "override 'R0' needs a numeric value" in capsys.readouterr().err
