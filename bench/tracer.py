"""In-memory span recorder that wraps the package's public functions.

``Tracer.install`` replaces each traced function in every ``wavedet``
module namespace that holds it, so a caller that looks the name up at run
time (``wavedet.svm.train`` inside ``tune_c_for_pfa``, ``wavedet.pipeline.
pyramid_batch`` inside ``FeaturePipe.transform_batch``, ...) calls the
wrapper.  A span records its name, layer, parent, start and end; self
time is a span's duration minus the durations of its direct children.
Nothing is wrapped until ``install`` is called, and ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    layer: str
    t0: float
    t1: float = 0.0
    child_s: float = 0.0
    count: int = 0  # layer-specific work count (variates, passes, bytes)


def _io_bytes(args, _result) -> int:
    return os.path.getsize(args[0])


def _normal_variates(args, _result) -> int:
    return int(np.prod(args[1]))


def _smo_passes(_args, result) -> int:
    return int(result.n_passes)


# (module, attribute, layer, count function); the wrapper replaces every
# reference to the original object found in a wavedet module namespace
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("rng", "normal", "rng", _normal_variates),
    ("wavelet", "pyramid_batch", "wavelet", None),
    ("detector", "statistic", "detector", None),
    ("detector", "max_coeff_baseline", "detector", None),
    ("detector", "estimate_pd", "detector", None),
    ("detector", "sweep_curve", "detector", None),
    ("detector", "calibrate_max_coeff", "detector", None),
    ("detector", "threshold_for_pfa_mc", "detector", None),
    ("detector", "realized_pfa_mc", "detector", None),
    ("detector", "analytic_stats", "detector", None),
    ("svm", "build_training_set", "svm", None),
    ("svm", "train", "svm", _smo_passes),
    ("svm", "decision", "svm", None),
    ("svm", "calibrate_bias", "svm", None),
    ("svm", "tune_c_for_pfa", "svm", None),
    ("io", "write_detector", "io", _io_bytes),
    ("io", "write_curve_csv", "io", _io_bytes),
    ("io", "read_detector", "io", None),
    ("io", "read_curve_csv", "io", None),
    ("harness", "run_experiment", "harness", None),
    ("harness", "experiment_check", "harness", None),
)
# FeaturePipe methods are looked up on the class
METHODS = (("steady_batch", "pipeline"), ("details_of", "pipeline"))


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn: Callable, name: str, layer: str, counter: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.sid if parent else -1, name, layer, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.t1 - span.t0
            if counter is not None:
                span.count = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from wavedet.pipeline import FeaturePipe  # imports every wavedet module

        modules = [m for k, m in sys.modules.items()
                   if k == "wavedet" or k.startswith("wavedet.")]
        for mod_name, attr, layer, counter in TARGETS:
            orig = getattr(sys.modules[f"wavedet.{mod_name}"], attr)
            wrapper = self._wrap(orig, f"{mod_name}.{attr}", layer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for attr, layer in METHODS:
            orig = FeaturePipe.__dict__[attr]
            self._patches.append((FeaturePipe, attr, orig))
            setattr(FeaturePipe, attr, self._wrap(orig, f"pipeline.{attr}", layer, None))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        base = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "start": round(s.t0 - base, 9), "end": round(s.t1 - base, 9),
                    "self": round(s.t1 - s.t0 - s.child_s, 9), "count": s.count,
                }) + "\n")


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Totals per span name: calls, inclusive and self seconds, and counts."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        dur = s.t1 - s.t0
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - s.child_s
        row["count"] += s.count
    return out
