"""Command line front end.

Subcommands cover the full workflow: generate signals, run the transform,
calibrate thresholds, build the matched-filter detector, train the SVM
detector, sweep detection curves, and drive the end-to-end experiment
suite.  All artifacts go through the formats in wavedet.io, so any file
produced by one subcommand can be consumed by the others.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .detector import (
    Calibration,
    LinearDetector,
    sweep_curve,
    threshold_for_pfa_analytic,
    threshold_for_pfa_mc,
)
from .harness import (
    ExperimentConfig,
    _check_lines,
    canonical_config_text,
    experiment_check,
    parse_config_text,
    run_experiment,
    snr_grid,
)
from .optimum import optimum_a
from .pipeline import FeaturePipe
from .rng import derive_seed
from .signals import Hypothesis, NoiseModel, make_chirp, make_noise, make_observation
from .svm import build_training_set, calibrate_bias, train
from .wavelet import parse_family

__all__ = ["main"]


def _parse_scales(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _load_pulse(path: str):
    sig = io.read_signal(path)
    if sig.hypothesis is not Hypothesis.TEMPLATE:
        raise ValueError(f"{path} holds a {sig.hypothesis.value} signal, expected a template")
    return sig


def _cmd_gen(args: argparse.Namespace) -> int:
    model = NoiseModel(sigma_n=args.sigma)
    if args.kind == "chirp":
        sig = make_chirp(args.length, args.f_start, args.f_end)
    elif args.kind == "noise":
        if args.seed is None:
            raise ValueError("--seed is required for kind=noise")
        sig = make_noise(args.length, model, args.seed)
    else:
        if args.seed is None or args.snr_db is None:
            raise ValueError("--seed and --snr-db are required for kind=observation")
        pulse = make_chirp(args.length, args.f_start, args.f_end)
        sig = make_observation(pulse, args.snr_db, model, args.seed)
    io.write_signal(args.out, sig)
    print(f"wrote {args.kind} signal of length {sig.length} to {args.out}")
    return 0


def _cmd_dwt(args: argparse.Namespace) -> int:
    sig = io.read_signal(args.infile)
    filters = parse_family(args.family)
    if not 1 <= args.levels <= sig.length.bit_length() - 1:
        raise ValueError(f"--levels {args.levels} out of range for length {sig.length}")
    scales = _parse_scales(args.scales) if args.scales else tuple(range(1, args.levels + 1))
    if any(s > args.levels for s in scales):
        raise ValueError("--scales may not exceed --levels")
    d = FeaturePipe.for_scales(sig.length, filters, scales).details_of(sig)
    io.write_coeffs(args.out, d, filters.family_name, sig.length)
    per_scale = ", ".join(
        f"d{s}:{np.linalg.norm(d.segment(s)):.6g}" for s in scales
    )
    print(f"wrote coefficients for scales {scales} to {args.out} (norms {per_scale})")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    weights, family, signal_length = io.read_coeffs(args.a_file)
    model = NoiseModel(sigma_n=args.sigma)
    if args.method == "analytic":
        vt = threshold_for_pfa_analytic(weights.values, weights.layout, model, args.pfa)
        cal = Calibration("analytic")
    else:
        if args.seed is None:
            raise ValueError("--seed is required for --method mc")
        pipe = FeaturePipe(parse_family(family), weights.layout)
        vt = threshold_for_pfa_mc(
            weights.values, pipe, model, args.pfa, args.trials, args.seed
        )
        cal = Calibration("monte_carlo", trials=args.trials, seed=args.seed)
    det = LinearDetector(
        a=weights.values, layout=weights.layout, v_threshold=vt,
        target_pfa=args.pfa, calibration=cal, detector_id=args.detector_id,
    )
    io.write_detector(args.out, det, family, signal_length)
    print(f"calibrated threshold {vt!r} for pfa {args.pfa!r} ({args.method}) -> {args.out}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    det, family, signal_length, _ = io.read_detector(args.detector_file)
    pulse = _load_pulse(args.pulse)
    if pulse.length != signal_length:
        raise ValueError(
            f"pulse length {pulse.length} does not match detector signal length {signal_length}"
        )
    model = NoiseModel(sigma_n=args.sigma)
    pipe = FeaturePipe(parse_family(family), det.layout)
    grid = snr_grid(args.snr_min, args.snr_max, args.snr_step)
    curve = sweep_curve(det, pulse, grid, model, args.trials, args.seed, pipe)
    io.write_curve_csv(args.out, curve, {
        "family": family, "signal_length": str(signal_length), "sigma_n": repr(args.sigma),
    })
    print(f"wrote {len(grid)}-point curve for {det.detector_id} to {args.out}")
    return 0


def _cmd_optimum(args: argparse.Namespace) -> int:
    pulse = _load_pulse(args.pulse)
    filters = parse_family(args.family)
    model = NoiseModel(sigma_n=args.sigma)
    scales = _parse_scales(args.scales)
    pipe = FeaturePipe.for_scales(pulse.length, filters, scales)
    det = optimum_a(pipe.details_of(pulse), args.pfa, model)
    io.write_detector(args.out, det, filters.family_name, pulse.length)
    print(f"wrote matched-filter detector {det.detector_id} to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    pulse = _load_pulse(args.pulse)
    filters = parse_family(args.family)
    model = NoiseModel(sigma_n=args.sigma)
    scales = _parse_scales(args.scales)
    ts = build_training_set(
        pulse, scales, filters, model, args.n_pos, args.n_neg,
        (args.snr_lo, args.snr_hi), args.seed,
    )
    svm = train(ts, args.c_plus, args.c_minus,
                kkt_tolerance=args.kkt_tol, max_passes=args.max_passes)
    if not svm.converged:
        print("warning: SMO hit the pass limit before reaching the KKT tolerance",
              file=sys.stderr)
    pipe = FeaturePipe(filters, ts.layout)
    det = calibrate_bias(svm, model, pipe, args.pfa, args.cal_trials,
                         derive_seed(args.seed, 9))
    io.write_detector(args.out, det, filters.family_name, pulse.length, extras={
        "c_plus": repr(svm.c_plus), "c_minus": repr(svm.c_minus),
        "kkt_tolerance": repr(svm.kkt_tolerance), "converged": str(svm.converged),
        "support_count": str(svm.support_count), "n_passes": str(svm.n_passes),
        "dual_objective": repr(svm.dual_objective),
    })
    print(
        f"trained on {ts.n_patterns} patterns: {svm.support_count} support vectors, "
        f"dual objective {svm.dual_objective!r}, passes {svm.n_passes} -> {args.out}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.action == "run":
        if args.config:
            with open(args.config, "r", encoding="ascii") as fh:
                cfg = parse_config_text(fh.read())
        else:
            cfg = ExperimentConfig()
        report = run_experiment(cfg, args.out_dir)
        print("\n".join(_check_lines(report)) + f" -> {args.out_dir}")
        return 0 if report.valid else 1
    ok, messages = experiment_check(args.out_dir)
    for m in messages:
        print(m)
    return 0 if ok else 1


def _cmd_show_config(args: argparse.Namespace) -> int:
    print(canonical_config_text(ExperimentConfig()), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wavedet",
        description="Wavelet-domain detection of chirp pulses in white Gaussian noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a signal file")
    g.add_argument("--length", type=int, default=1024)
    g.add_argument("--kind", choices=("chirp", "noise", "observation"), required=True)
    g.add_argument("--snr-db", type=float, default=None)
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--f-start", type=float, default=0.05)
    g.add_argument("--f-end", type=float, default=0.45)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    d = sub.add_parser("dwt", help="run the pyramid transform on a signal file")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--family", default="db5")
    d.add_argument("--levels", type=int, required=True)
    d.add_argument("--scales", default=None,
                   help="comma-separated subset of 1..levels to keep (default: all)")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_dwt)

    c = sub.add_parser("calibrate", help="set a detector threshold for a target Pfa")
    c.add_argument("--a-file", required=True,
                   help="coefficient file holding the weight vector on its layout")
    c.add_argument("--pfa", type=float, required=True)
    c.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    c.add_argument("--trials", type=int, default=100_000)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--sigma", type=float, default=1.0)
    c.add_argument("--detector-id", default="linear")
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_calibrate)

    v = sub.add_parser("curve", help="sweep Pd over an SNR grid by Monte Carlo")
    v.add_argument("--detector-file", required=True)
    v.add_argument("--pulse", required=True, help="template signal file")
    v.add_argument("--snr-min", type=float, default=-15.0)
    v.add_argument("--snr-max", type=float, default=0.0)
    v.add_argument("--snr-step", type=float, default=1.0)
    v.add_argument("--trials", type=int, default=10_000)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--sigma", type=float, default=1.0)
    v.add_argument("--out", required=True)
    v.set_defaults(func=_cmd_curve)

    o = sub.add_parser("optimum", help="build the closed-form matched-filter detector")
    o.add_argument("--pulse", required=True)
    o.add_argument("--scales", required=True, help="comma-separated, e.g. 3,4,5,6")
    o.add_argument("--pfa", type=float, required=True)
    o.add_argument("--family", default="db5")
    o.add_argument("--sigma", type=float, default=1.0)
    o.add_argument("--out", required=True)
    o.set_defaults(func=_cmd_optimum)

    t = sub.add_parser("train", help="train and calibrate the SVM detector")
    t.add_argument("--pulse", required=True)
    t.add_argument("--scales", required=True)
    t.add_argument("--n-pos", type=int, default=1000)
    t.add_argument("--n-neg", type=int, default=1000)
    t.add_argument("--snr-lo", type=float, default=-15.0)
    t.add_argument("--snr-hi", type=float, default=0.0)
    t.add_argument("--c-plus", type=float, default=1.0)
    t.add_argument("--c-minus", type=float, default=10.0)
    t.add_argument("--pfa", type=float, default=1e-3)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--family", default="db5")
    t.add_argument("--sigma", type=float, default=1.0)
    t.add_argument("--cal-trials", type=int, default=100_000)
    t.add_argument("--kkt-tol", type=float, default=1e-3)
    t.add_argument("--max-passes", type=int, default=10_000)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("experiment", help="run or re-verify the full suite")
    esub = e.add_subparsers(dest="action", required=True)
    er = esub.add_parser("run", help="execute the suite into an output directory")
    er.add_argument("--config", default=None,
                    help="flat key = value config file (default: built-in config)")
    er.add_argument("--out-dir", required=True)
    er.set_defaults(func=_cmd_experiment, action="run")
    ec = esub.add_parser("check", help="re-verify a finished output directory")
    ec.add_argument("--out-dir", required=True)
    ec.set_defaults(func=_cmd_experiment, action="check")
    ed = esub.add_parser("default-config", help="print the built-in config text")
    ed.set_defaults(func=_cmd_show_config)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
