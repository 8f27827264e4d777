"""Benchmark for ricci-forge, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Every output is checked by an oracle and
every miss counts as a failed operation. See perfbench/README.md.
"""

import os

# Pinned before numpy is first imported, here and in the set-up probes that
# inherit this environment: smoothing runs a matvec through OpenBLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

from spans import Tracer, cascade_key  # noqa: E402
from workloads import CHECK_NAMES, SCHEMA, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 9
PROBE_TIMEOUT_S = 40
TAIL_BEYOND = 10


def load_package():
    """Import ricci_forge from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ricci_forge", "__init__.py")):
        sys.exit(f"error: no ricci_forge package under {SRC}")
    sys.path.insert(0, SRC)
    import ricci_forge
    import ricci_forge.cli  # noqa: F401  (reached as ricci_forge.cli)
    if not os.path.abspath(ricci_forge.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ricci_forge imported from {ricci_forge.__file__}")
    return ricci_forge


def report_problems(report) -> list:
    """Schema, the 33 checks in order, and an overall verdict that agrees
    with the checks."""
    if not isinstance(report, dict):
        return ["not_a_report"]
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append("schema")
    checks = report.get("checks") or []
    if [c.get("name") for c in checks] != list(CHECK_NAMES):
        problems.append("check_names")
    verdict = "pass" if checks and all(c.get("passed") is True for c in checks) else "fail"
    if report.get("overall") != verdict:
        problems.append("verdict")
    return problems


class Oracle:
    """Judges every output and counts each miss against the attempts."""

    def __init__(self, runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.judged = 0      # operations that returned a valid report
        self.certified = 0
        self.failures = Counter()
        self.first_digest = {}

    def fail(self, *kinds):
        """Count one failed operation, under each reason it was missed."""
        self.failed += 1
        self.failures.update(kinds)

    def judge(self, inp, raw, error, mismatch="nondeterministic"):
        """Returns (output, report) on success and (None, None) on a miss.
        Output bytes that differ from the first output for the same input
        count as ``mismatch``."""
        self.attempted += 1
        if error is not None:
            self.fail(error)
            return None, None
        try:
            out = self.runner.output(inp, raw)
        except OSError:
            self.fail("output_unreadable")
            return None, None
        try:
            report = json.loads(out.text)
        except ValueError:
            report = None
        problems = out.problems + report_problems(report)
        key = json.dumps(inp, sort_keys=True)
        if self.first_digest.setdefault(key, out.digest) != out.digest:
            problems.append(mismatch)
        if problems:
            self.fail(*problems)
            return None, None
        self.judged += 1
        self.certified += report["overall"] == "pass"
        return out, report


def call(runner, inp):
    """One operation; an escaped exception is an error, not a crash."""
    try:
        return runner.run(inp), None
    except Exception as e:  # noqa: BLE001  (the loop must keep running)
        traceback.print_exc(file=sys.stderr)
        return None, f"exception_{type(e).__name__}"


def repeat_share(reports) -> float:
    """Share of the run's certifications whose cascade an earlier call of
    the same run had already certified."""
    reports = [r for r in reports if r is not None and r["params"] is not None]
    seen, repeats = set(), 0
    for report in reports:
        key = cascade_key(report["params"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(reports) if reports else 0.0


def measure_setup(args, oracle) -> list:
    """Wall time of fresh processes that import ricci_forge and make the
    workload's first call; a probe that fails counts as a failed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        oracle.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            oracle.fail("setup_probe_timeout")
            proc = None
        times.append(time.perf_counter() - t0)
        if proc is not None and proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            oracle.fail("setup_probe")
    return times


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    but never below the (lower) median, which it falls back to when a run
    has too few calls: (value, percentile, samples beyond)."""
    xs = sorted(times)
    k = max(len(xs) - TAIL_BEYOND - 1, (len(xs) - 1) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def run_untraced(runner, oracle, stream, seconds):
    """The next inputs of the stream until ``seconds`` of calls are timed.
    Returns the per-call times, the completed certifications and the
    reports."""
    times, reports = [], []
    completed = 0
    timed = 0.0
    while timed < seconds:
        inp = next(stream)
        t0 = time.perf_counter()
        raw, error = call(runner, inp)
        times.append(time.perf_counter() - t0)
        timed += times[-1]
        _, report = oracle.judge(inp, raw, error)
        completed += report is not None
        reports.append(report)
    return times, completed, reports


def run_traced(runner, oracle, tracer, stream, pass_size, seconds):
    """One pass of fresh untraced calls, timed for the tracing overhead;
    then whole passes of fresh traced calls, each followed by an untimed
    untraced re-run of the same input whose bytes must equal the traced
    ones. Stops before a traced pass that would end after ``seconds`` (so
    at least one)."""
    plain_s = traced_s = 0.0
    reports = []
    for _ in range(pass_size):
        inp = next(stream)
        t0 = time.perf_counter()
        raw, error = call(runner, inp)
        plain_s += time.perf_counter() - t0
        reports.append(oracle.judge(inp, raw, error)[1])
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for _ in range(pass_size):
            inp = next(stream)
            tracer.request += 1
            tracer.install()
            try:
                t0 = time.perf_counter()
                raw, error = call(runner, inp)
                traced_s += time.perf_counter() - t0
            finally:
                tracer.restore()
            traced, report = oracle.judge(inp, raw, error, mismatch="traced_bytes_differ")
            reports.append(report)
            if traced is not None:
                tracer.count("cli.bytes_written", traced.nbytes)
            oracle.judge(inp, *call(runner, inp), mismatch="traced_bytes_differ")
        tracer.pass_no += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    return pass_size / plain_s - tracer.request / traced_s, reports


def layer_metrics(tracer, overhead) -> dict:
    certs = tracer.request
    per = tracer.self_times()

    def self_s(name):
        return statistics.median(per[r].get(name, 0.0) for r in range(1, certs + 1))

    def per_cert(name):
        return tracer.counts.get(name, 0.0) / certs

    return {
        "profile.smooth_profile_s": (self_s("profile.smooth_profile"), "s"),
        "profile.smooth_attempts": (per_cert("profile.smooth_attempts"), "count"),
        "profile.validate_c1_s": (self_s("profile.validate_c1"), "s"),
        "profile.useful_build_ratio": (tracer.useful_ratio("profile.smooth_profile"), "ratio"),
        "bumps.useful_sups_ratio": (tracer.useful_ratio("bumps.derivative_sups"), "ratio"),
        "paramgen.select_params_s": (self_s("paramgen.select_params"), "s"),
        "paramgen.threshold_scan_s": (self_s("paramgen.threshold_scan"), "s"),
        "paramgen.threshold_scan_calls": (per_cert("paramgen.threshold_scan.calls"), "count"),
        "bumps.derivative_sups_s": (self_s("bumps.derivative_sups"), "s"),
        "bumps.derivative_sups_calls": (per_cert("bumps.derivative_sups.calls"), "count"),
        "curvature.curvature_grid_s": (self_s("curvature.curvature_grid"), "s"),
        "curvature.points": (per_cert("curvature.points"), "count"),
        "boundary.boundary_metric_s": (self_s("boundary.boundary_metric"), "s"),
        "boundary.points": (per_cert("boundary.points"), "count"),
        "verify.gauss_crosscheck_s": (self_s("verify.gauss_crosscheck"), "s"),
        "verify.self_s": (self_s("verify.run_verification"), "s"),
        "verify.report_to_json_s": (self_s("verify.report_to_json"), "s"),
        "cli.self_s": (self_s("cli.run"), "s"),
        "cli.bytes_written": (per_cert("cli.bytes_written"), "bytes"),
        "trace.overhead_certs_per_s": (overhead, "1/s"),
    }


def setup_probe(args):
    """Child process timed by measure_setup: import, then the first call."""
    rf = load_package()
    first = next(WORKLOADS[args.workload].inputs(args.seed))
    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP)
    try:
        WORKLOADS[args.workload].runner(rf, workdir).run(first)
    finally:
        shutil.rmtree(workdir)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    rf = load_package()
    wl = WORKLOADS[args.workload]
    stream = wl.inputs(args.seed)
    first = next(stream)

    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP)
    try:
        runner = wl.runner(rf, workdir)
        oracle = Oracle(runner)
        setup = [] if args.trace else measure_setup(args, oracle)
        # The first call fills the lazy caches; setup_s above pays for it.
        reports = [oracle.judge(first, *call(runner, first))[1]]
        if args.trace:
            tracer = Tracer()
            overhead, timed_reports = run_traced(
                runner, oracle, tracer, stream, wl.pass_size, args.seconds)
            metrics = layer_metrics(tracer, overhead)
        else:
            times, completed, timed_reports = run_untraced(
                runner, oracle, stream, args.seconds)
        reports += timed_reports
        # Untimed: the same input again must give the same bytes.
        oracle.judge(first, *call(runner, first))
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(TMP)
        except OSError:
            pass

    info = {
        "workload": wl.name, "seed": args.seed,
        "distinct_inputs": len(oracle.first_digest),
        "repeat_cascade_share": repeat_share(reports),
        "failed_frac": oracle.failed / oracle.attempted,
        "failures": dict(oracle.failures),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if args.trace:
        info["absent_spans"] = sorted(tracer.absent)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.dump(), "counts": tracer.counts}, fh)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        tail_s, tail_pct, beyond = tail(times)
        info.update(calls=len(times), cert_s_tail_percentile=tail_pct,
                    cert_s_tail_beyond=beyond, setup_runs_s=setup)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "certs_per_s": (completed / sum(times), "1/s"),
            "cert_s_p50": (statistics.median(times), "s"),
            "cert_s_tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1.0 - oracle.failed / oracle.attempted, "ratio"),
            "certified_frac": (oracle.certified / max(oracle.judged, 1), "ratio"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
