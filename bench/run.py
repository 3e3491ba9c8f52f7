"""wavedet end-to-end benchmark.

    python3 bench/run.py --workload {pd_curve,study,stream_detect} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The workload is set up several times (the
median is ``setup_s``), then timed rounds run until the next round would
end past ``--seconds`` (at least one round), then the outputs are checked
against ``bench/oracle.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics and wraps nothing.
``--trace 1`` alternates untraced and traced rounds, reports per-layer
metrics from the spans of the traced set-ups and rounds, and the tracing
overhead as the difference of the two kinds of round; the spans are
written to ``bench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

# one BLAS thread: the host is small and shared, and the run-to-run spread
# must stay below the bounds in BENCHMARK.json
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wavedet", "__init__.py")):
        sys.exit(f"error: no wavedet sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import wavedet

    if not os.path.abspath(wavedet.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported wavedet from {wavedet.__file__}, not from {src}")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(setup_s: list[float], rounds: list[tuple[float, list]]) -> dict:
    # rounds repeat identical work, so rates use the median round, which a
    # single stall of the host moves less than a total would
    wall = _median([t for t, _ in rounds])
    calls = rounds[0][1]
    return {
        "setup_s": (_median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mc_trials_per_s": (sum(c.realisations for c in calls) / wall, "1/s"),
        "obs_per_s": (sum(c.decided for c in calls) / wall, "1/s"),
        "obs_latency_p50_us": (_median([c.seconds / c.realisations * 1e6
                                        for _, cs in rounds for c in cs]), "us"),
    }


def per_layer(setup_spans, n_setups, round_spans, n_rounds, counts, overhead) -> dict:
    from tracer import layer_table

    tables = (layer_table(setup_spans), layer_table(round_spans))

    def total(names, key="total_s"):
        # one set-up plus one round
        return sum(t[n][key] / k for t, k in zip(tables, (n_setups, n_rounds))
                   for n in names if n in t)

    def per_call_us(name, self_time=False):
        spans = [s for s in setup_spans + round_spans if s.name == name]
        vals = [(s.t1 - s.t0 - (s.child_s if self_time else 0.0)) * 1e6 for s in spans]
        return _median(vals)

    passes = total(["svm.train"], "count")
    train_s = total(["svm.train"])
    detector = [n for n in set(tables[0]) | set(tables[1]) if n.startswith("detector.")]
    m = {
        "rng.normal_s": (total(["rng.normal"]), "s"),
        "rng.variates": (total(["rng.normal"], "count"), "count"),
        "wavelet.pyramid_s": (total(["wavelet.pyramid_batch"]), "s"),
        "wavelet.pyramid_calls": (total(["wavelet.pyramid_batch"], "calls"), "count"),
        "wavelet.madds_per_trial": (counts["madds_per_trial"], "count"),
        "wavelet.pyramid_us": (per_call_us("wavelet.pyramid_batch"), "us"),
        "pipeline.self_s": (total(["pipeline.steady_batch"], "self_s"), "s"),
        "pipeline.details_of_us": (per_call_us("pipeline.details_of", self_time=True), "us"),
        "detector.calibrate_s": (total(["detector.calibrate_max_coeff",
                                        "detector.threshold_for_pfa_mc",
                                        "detector.realized_pfa_mc"]), "s"),
        "detector.estimate_pd_s": (total(["detector.estimate_pd"]), "s"),
        "detector.self_s": (total(detector, "self_s"), "s"),
        "detector.statistic_us": (per_call_us("detector.statistic"), "us"),
        "detector.max_coeff_us": (per_call_us("detector.max_coeff_baseline"), "us"),
        "svm.train_s": (train_s, "s"),
        "svm.smo_passes": (passes, "count"),
        "svm.ms_per_pass": (train_s * 1e3 / passes if passes else 0.0, "ms"),
        "svm.build_training_set_s": (total(["svm.build_training_set"]), "s"),
        "svm.calibrate_bias_s": (total(["svm.calibrate_bias"]), "s"),
        "svm.decision_us": (per_call_us("svm.decision"), "us"),
        "io.write_s": (total(["io.write_detector", "io.write_curve_csv"]), "s"),
        "io.bytes_written": (total(["io.write_detector", "io.write_curve_csv"], "count"), "count"),
        "io.read_s": (total(["io.read_detector", "io.read_curve_csv"]), "s"),
        "harness.self_s": (total(["harness.run_experiment"], "self_s"), "s"),
        "harness.experiment_check_s": (total(["harness.experiment_check"]), "s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {k: (int(v) if u == "count" and float(v).is_integer() else v, u)
            for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pd_curve", "study", "stream_detect"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()
    import workloads
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    tracer = Tracer() if args.trace else None

    setup_s = []
    if tracer:
        tracer.install()
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
        setup_spans = list(tracer.spans)

    plain: list[tuple[float, list]] = []
    traced: list[tuple[float, list]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            calls = wl.round()
        except Exception:
            traceback.print_exc()
            calls = None
        t = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        attempted += wl.ops_per_round
        if calls is None:  # a failing round ends the run
            failed += wl.ops_per_round
            break
        (traced if trace_this else plain).append((t, calls))
        elapsed = time.perf_counter() - start
        owed_trace = tracer is not None and not traced
        if not owed_trace and elapsed + _median([r for r, _ in plain + traced]) > args.seconds:
            break

    if not plain:
        print("error: the first round failed; no result", file=sys.stderr)
        return 1
    problems = wl.check()
    for p in problems:
        print("CHECK FAILED:", p)

    if tracer:
        round_spans = tracer.spans[len(setup_spans):]
        base = _median([t for t, _ in plain])
        overhead = (_median([t for t, _ in traced]) - base) / base * 100.0
        metrics = per_layer(setup_spans, wl.setups, round_spans, len(traced),
                            wl.counts(), overhead)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.dump(trace_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = end_to_end(setup_s, plain)
    for line in wl.summary(plain):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
