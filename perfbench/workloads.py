"""The three benchmark workloads: seeded inputs, the timed call into
ricci-forge, and the oracle that turns each output into report text plus a
list of problems.

Each workload is a closed loop: one process, one caller, no threads. The
package only ever sees the generated ``(n, p, overrides)`` inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

SCHEMA = "ricci-forge/1"
# The 33 clause names in report order, as fixed by the ricci-forge/1 schema.
# Kept here rather than read from the package so that a change to the
# package's own list shows up as a failure instead of moving the oracle.
CHECK_NAMES = (
    "parameter_invariants", "lemma_2_2_grid", "lemma_2_3_grid",
    "lemma_2_4_grid", "lemma_2_5_grid", "lemma_2_6i_grid", "lemma_2_6ii_grid",
    "lemma_2_6iii_grid", "gamma_first_derivative_bound",
    "gamma_second_derivative_bound", "star_inequality_at_psi",
    "c1_join_inner", "c1_join_outer", "lemma_2_9_iii", "lemma_2_10",
    "lemma_2_13_a", "lemma_2_13_b", "lemma_2_13_c",
    "corollary_2_14_concavity", "corollary_2_14_ratio", "lemma_2_15",
    "ricci_tt_positive", "ricci_xx_positive", "ricci_ss_positive",
    "corollary_2_16_bound", "lemma_2_17_bound", "lemma_2_18_bound",
    "gauss_crosscheck", "angle_identity", "tau_below_r0",
    "omega_exceeds_tau_power", "rho_interval_nonempty", "r0_disjointness",
)

# The acceptance grid of tests/test_acceptance.py.
NS = (3, 5, 7, 9, 11, 13)
PS = (1, 2, 5, 10)
CLI_GRID = 20_000
CLI_FILES = ("report.json", "profile.csv", "curvature.csv", "boundary.csv")


@dataclass
class Output:
    """What one call produced, read back outside the timed region."""

    text: str          # the ricci-forge/1 report JSON
    digest: str        # hash of every byte the call produced
    problems: list     # workload-specific oracle misses
    nbytes: int = 0    # bytes written to disk


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def acceptance_inputs(seed: int) -> Iterator:
    """The acceptance grid in a seeded order, cycled."""
    inputs = [(n, p, None) for n in NS for p in PS]
    random.Random(seed).shuffle(inputs)
    return itertools.cycle(inputs)


def cascade_inputs(seed: int) -> Iterator:
    """Fresh seeded cascades inside the admissible region of Definition 2.1,
    drawn on demand from continuous ranges, so no two share a cascade."""
    rng = random.Random(seed)
    while True:
        R0 = rng.uniform(0.05, 0.1)
        kappa = rng.uniform(1.02, 1.6) * 2.0 / math.sqrt(3.0 * R0)
        zeta_hi = 3.0 * R0 * kappa**3 / 4.0
        zeta = kappa + rng.uniform(0.1, 0.9) * (zeta_hi - kappa)
        n = rng.choice(NS)
        p = rng.randint(1, 10)
        yield n, p, {"R0": R0, "kappa": kappa, "zeta": zeta}


def cli_inputs(seed: int, count: int = 6) -> Iterator:
    """``count`` seeded (n, p) with the default cascade, cycled."""
    pairs = [(n, p) for n in NS for p in range(1, 11)]
    return itertools.cycle(
        [(n, p, None) for n, p in random.Random(seed).sample(pairs, count)])


class Certify:
    """``report_to_json(run_verification(n, p, overrides))`` in process."""

    def __init__(self, rf, workdir: str):
        self.rf = rf

    def run(self, inp):
        n, p, overrides = inp
        return self.rf.report_to_json(self.rf.run_verification(n, p, overrides))

    def output(self, inp, raw) -> Output:
        return Output(raw, _digest(raw), [])


class CliDump:
    """``cli.run`` on a 20,000-point grid, writing the JSON report and all
    three CSVs; the oracle compares them with an in-process run, made the
    first time an input is judged (after its first timed call)."""

    def __init__(self, rf, workdir: str):
        self.rf = rf
        self.paths = {name: os.path.join(workdir, name) for name in CLI_FILES}
        self.refs = {}

    def _reference(self, n, p):
        rf = self.rf
        # run_verification with the grid the CLI builds from --grid
        grid = rf.GridSpec(points=CLI_GRID, lo=0.0, hi=math.pi / 2)
        report = rf.run_verification(n, p, None, grid=grid)
        return (rf.report_to_json(report), report.artifacts["t_grid"].size,
                report.artifacts["boundary"].samples.shape[0])

    def run(self, inp):
        n, p, _ = inp
        return self.rf.cli.run([
            "--dim", str(n), "--punctures", str(p), "--grid", str(CLI_GRID),
            "--quiet", "--out", self.paths["report.json"],
            "--profile-csv", self.paths["profile.csv"],
            "--curvature-csv", self.paths["curvature.csv"],
            "--boundary-csv", self.paths["boundary.csv"],
        ])

    def output(self, inp, raw) -> Output:
        n, p, _ = inp
        if (n, p) not in self.refs:
            # before the files are read, so the two never share the peak RSS
            self.refs[n, p] = self._reference(n, p)
        texts = {}
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                texts[name] = fh.read()
            os.unlink(path)
        problems = [] if raw == 0 else [f"exit_code_{raw}"]
        ref_json, t_rows, b_rows = self.refs[n, p]
        if texts["report.json"] != ref_json:
            problems.append("disk_json_differs")
        for name, rows in (("profile.csv", t_rows), ("curvature.csv", t_rows),
                           ("boundary.csv", b_rows)):
            if texts[name].count("\n") - 1 != rows:
                problems.append(f"{name}_rows")
        nbytes = sum(len(t.encode()) for t in texts.values())
        return Output(texts["report.json"], _digest(*texts.values()),
                      problems, nbytes)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]   # seed -> endless (n, p, overrides)
    runner: type
    pass_size: int                      # calls per pass of a traced run


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("acceptance-sweep", acceptance_inputs, Certify, 24),
        Workload("cascade-scan", cascade_inputs, Certify, 24),
        Workload("cli-dump", cli_inputs, CliDump, 6),
    )
}
