"""In-memory span tracing of ricci-forge, applied from outside the package.

``Tracer.install`` replaces the names the pipeline looks up at call time
(for example ``ricci_forge.verify.smooth_profile``) with wrappers that record
a span (name, start, end, parent, request) and per-layer counts;
``Tracer.restore`` puts the originals back. A name that no longer exists is
recorded as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def cascade_key(params: dict):
    """The cascade: every constant except n and p."""
    return tuple(sorted((k, v) for k, v in params.items() if k not in ("n", "p")))


def _smooth_after(tracer, args, result):
    tracer.count("profile.smooth_attempts", result.smoothing_report["attempts"])
    tracer.distinct("profile.smooth_profile", cascade_key(args[0].params.as_dict()))


def _sups_after(tracer, args, result):
    tracer.distinct("bumps.derivative_sups", args[0].Lambda)


def _curvature_after(tracer, args, result):
    tracer.count("curvature.points", result.t.size)


def _boundary_after(tracer, args, result):
    tracer.count("boundary.points", result.samples.shape[0])


# (module, attribute path, span name, hook run on the result). The package
# entry points are wrapped where the benchmark and the CLI look them up; the
# stages are wrapped where run_verification and select_params look them up.
TARGETS = (
    ("ricci_forge", "run_verification", "verify.run_verification", None),
    ("ricci_forge", "report_to_json", "verify.report_to_json", None),
    ("ricci_forge.cli", "run", "cli.run", None),
    ("ricci_forge.cli", "run_verification", "verify.run_verification", None),
    ("ricci_forge.cli", "report_to_json", "verify.report_to_json", None),
    ("ricci_forge.verify", "select_params", "paramgen.select_params", None),
    ("ricci_forge.paramgen", "threshold_scan", "paramgen.threshold_scan", None),
    ("ricci_forge.bumps", "BumpFunction.derivative_sups",
     "bumps.derivative_sups", _sups_after),
    ("ricci_forge.verify", "validate_c1", "profile.validate_c1", None),
    ("ricci_forge.verify", "smooth_profile", "profile.smooth_profile",
     _smooth_after),
    ("ricci_forge.verify", "curvature_grid", "curvature.curvature_grid",
     _curvature_after),
    ("ricci_forge.verify", "boundary_metric", "boundary.boundary_metric",
     _boundary_after),
    ("ricci_forge.verify", "gauss_crosscheck", "verify.gauss_crosscheck", None),
)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index, request]
        self.counts = defaultdict(float)
        self.keys = defaultdict(set)
        self.absent = set()
        self.request = 0           # set by the caller before each operation
        self.pass_no = 0           # distinct keys are counted per input pass
        self._stack = []
        self._patches = []

    def count(self, name: str, k=1):
        self.counts[name] += k

    def distinct(self, name: str, key):
        self.keys[name].add((self.pass_no, key))

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.request]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.counts[name + ".calls"] += 1

    def _wrap(self, orig, name, after):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = tracer.call(name, orig, *args, **kwargs)
            if after is not None:
                try:
                    after(tracer, args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    tracer.absent.add(name + " counts")
            return result
        return traced

    def install(self):
        for module, path, name, after in TARGETS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{name} ({module}.{path})")
                continue
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, after))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        """{request: {span name: self seconds}}: each span's duration minus
        the time its direct children cover (children never overlap)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, request) in enumerate(self.spans):
            out[request][name] += (end - start) - child[i]
        return out

    def useful_ratio(self, name: str) -> float:
        calls = self.counts.get(name + ".calls", 0)
        return len(self.keys[name]) / calls if calls else 0.0

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans]
