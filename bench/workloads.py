"""The three benchmark workloads: set-up, one timed round, and output checks.

Every call into the package goes through a module attribute
(``D.sweep_curve``, ``S.train``, ...) looked up at call time, so that a
``Tracer`` installed for the traced run sees it.  Each workload keeps what
its rounds produced and verifies it afterwards against ``oracle`` or
against properties the method must have; a check failure is a string in
the list ``check`` returns.

Sizes come from a ``*Size`` dataclass; the defaults are the benchmark's,
and the test suite passes tiny ones.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import oracle
from wavedet import detector as D
from wavedet import harness as H
from wavedet import io as IO
from wavedet import optimum as O
from wavedet import pipeline as P
from wavedet import signals as SG
from wavedet import svm as S
from wavedet import wavelet as WV

TIE_TOL = 1e-9  # |statistic - threshold| below this is a tie, not a decision


def prog_seed(seed: int, purpose: int) -> int:
    """Seed handed to the program for one purpose of one workload seed."""
    return int(np.random.SeedSequence([int(seed), purpose]).generate_state(1, np.uint32)[0])


def bench_rng(seed: int, purpose: int) -> np.random.Generator:
    """The benchmark's own stream, unrelated to the package's Philox streams."""
    return np.random.default_rng([int(seed), 1000 + purpose])


@dataclass
class Call:
    """One timed call: its wall time and the realisations it handled."""

    seconds: float
    realisations: int
    decided: int  # of those, realisations compared against a threshold (not only ranked)


def _steady_rows_oracle(X: np.ndarray, family: str, scales, chunk: int = 2048) -> np.ndarray:
    h, g = oracle.daubechies(int(family[2:]))
    return np.concatenate([oracle.steady_features(X[i:i + chunk], h, g, scales)
                           for i in range(0, X.shape[0], chunk)], axis=0)


def _independent_noise_stat(rng, n, length, stat, family, scales, chunk=4096) -> np.ndarray:
    out = []
    for lo in range(0, n, chunk):
        X = rng.standard_normal((min(chunk, n - lo), length))
        out.append(stat(_steady_rows_oracle(X, family, scales)))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# pd_curve: Monte Carlo calibration of the baseline and two Pd sweeps


@dataclass(frozen=True)
class PdCurveSize:
    length: int = 1024
    family: str = "db5"
    scales: tuple[int, ...] = (3, 4, 5, 6)
    pfa: float = 1e-3
    snr_grid: tuple[float, ...] = tuple(float(s) for s in range(-15, 1))
    cal_trials: int = 100_000
    trials_per_point: int = 4096
    pfa_check_trials: int = 32_768


class PdCurve:
    setups = 5
    ops_per_round = 3  # calibrate_max_coeff and two sweep_curve calls

    def __init__(self, seed: int, size: PdCurveSize = PdCurveSize()):
        self.seed, self.size = seed, size
        self.curves: list[tuple] = []

    def setup(self) -> None:
        z = self.size
        self.noise = SG.NoiseModel(1.0)
        self.pulse = SG.make_chirp(z.length)
        self.pipe = P.FeaturePipe.for_scales(z.length, WV.parse_family(z.family), z.scales)
        self.det_opt = O.optimum_a(self.pipe.details_of(self.pulse), z.pfa, self.noise)
        # warm-up: one chunk through the batch path, so the timed rounds start
        # with allocated buffers and loaded code paths
        self.pipe.noise_steady(self.noise, min(z.trials_per_point, 4096), prog_seed(self.seed, 0))

    def round(self) -> list[Call]:
        z = self.size
        t0 = time.perf_counter()
        base = D.calibrate_max_coeff(self.pipe, self.noise, z.pfa, z.cal_trials,
                                     prog_seed(self.seed, 1))
        t1 = time.perf_counter()
        opt_curve = D.sweep_curve(self.det_opt, self.pulse, z.snr_grid, self.noise,
                                  z.trials_per_point, prog_seed(self.seed, 2), self.pipe)
        t2 = time.perf_counter()
        base_curve = D.sweep_curve(base, self.pulse, z.snr_grid, self.noise,
                                   z.trials_per_point, prog_seed(self.seed, 2), self.pipe)
        t3 = time.perf_counter()
        sweep = len(z.snr_grid) * z.trials_per_point
        calls = [Call(t1 - t0, z.cal_trials, 0), Call(t2 - t1, sweep, sweep),
                 Call(t3 - t2, sweep, sweep)]
        self.curves.append((base.v_threshold, opt_curve.points, base_curve.points))
        return calls

    def check(self) -> list[str]:
        z, bad = self.size, []
        if any(c != self.curves[0] for c in self.curves[1:]):
            bad.append("rounds with identical inputs produced different curves")
        vt_base, opt_pts, base_pts = self.curves[0]
        n = z.trials_per_point
        h, g = oracle.daubechies(int(z.family[2:]))
        s = oracle.steady_features(self.pulse.samples[None, :], h, g, z.scales)[0]
        pd_th = oracle.pd_optimum(np.array(z.snr_grid), s, z.pfa)
        for (snr, pd_o, _), (_, pd_b, _), th in zip(opt_pts, base_pts, pd_th):
            if not oracle.binomial_consistent(round(pd_o * n), n, float(th)):
                bad.append(f"optimum Pd {pd_o:.4f} at {snr} dB is not within 4 stderr "
                           f"of the closed form {th:.4f}")
            se = math.sqrt(pd_b * (1 - pd_b) / n + th * (1 - th) / n) + 1.0 / n
            if pd_b > pd_o + 3.0 * se:
                bad.append(f"baseline Pd {pd_b:.4f} exceeds optimum {pd_o:.4f} at {snr} dB")
        v = _independent_noise_stat(bench_rng(self.seed, 1), z.pfa_check_trials, z.length,
                                    lambda F: np.max(np.abs(F), axis=1), z.family, z.scales)
        zdev = oracle.rate_z(int(np.count_nonzero(v > vt_base)), v.shape[0], z.pfa, z.cal_trials)
        if abs(zdev) > 4.0:
            bad.append(f"baseline realized Pfa deviates {zdev:.2f} stderr from {z.pfa}")
        return bad

    def counts(self) -> dict:
        return {"madds_per_trial": _madds_per_trial(self.pipe)}

    def summary(self, rounds) -> list[str]:
        _, opt_pts, base_pts = self.curves[0]
        return [f"rounds {len(rounds)}; Pd optimum / baseline by SNR: "
                + " ".join(f"{s:g}:{po:.3f}/{pb:.3f}" for (s, po, _), (_, pb, _)
                           in zip(opt_pts, base_pts))]


def _madds_per_trial(pipe) -> int:
    X = np.zeros((4, pipe.length))
    with WV.count_ops() as ops:
        pipe.steady_batch(X)
    return ops.madds // 4


# ---------------------------------------------------------------------------
# study: run_experiment on a reduced configuration, then experiment_check


@dataclass(frozen=True)
class StudySize:
    length: int = 256
    family: str = "db2"
    scale_sets: tuple[tuple[int, ...], ...] = ((1, 2), (1, 3), (1, 2, 3), (1, 2, 3, 4))
    pfa: float = 0.05
    snr_min: float = -6.0
    snr_max: float = 0.0
    trials_per_point: int = 200
    cal_trials: int = 2000
    n_per_class: int = 2500
    c_grid: tuple[tuple[float, float], ...] = ((0.1, 1.0), (1.0, 10.0))
    pfa_check_trials: int = 20_000
    kkt_tolerance: float = 1e-4
    gap_tol: float = 1e-2


class Study:
    setups = 25
    ops_per_round = 1  # one verified study

    def __init__(self, seed: int, size: StudySize = StudySize(), work_dir: str = "."):
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.reports: list = []
        self.check_ok: list[tuple[bool, list[str]]] = []

    def setup(self) -> None:
        z = self.size
        cfg = H.ExperimentConfig(
            length=z.length, family=z.family, scale_sets=z.scale_sets, pfa=z.pfa,
            snr_min=z.snr_min, snr_max=z.snr_max, trials_per_point=z.trials_per_point,
            cal_trials=z.cal_trials, n_pos=z.n_per_class, n_neg=z.n_per_class,
            c_grid=z.c_grid, kkt_tolerance=z.kkt_tolerance, seed=prog_seed(self.seed, 3),
        )
        # the config travels as text, as `wavedet experiment run --config` reads it
        self.cfg = H.parse_config_text(H.canonical_config_text(cfg))

    def realisations(self) -> tuple[int, int]:
        """Realisations behind the study's curves and Monte Carlo thresholds,
        and the part of them (the curve trials) decided against a threshold."""
        z, grid = self.size, len(self.cfg.snr_grid())
        curves = len(z.scale_sets) * 2 * z.trials_per_point * grid
        return curves + len(z.scale_sets) * 2 * z.cal_trials, curves

    def round(self) -> list[Call]:
        with tempfile.TemporaryDirectory(dir=self.work_dir, prefix="study-") as out:
            t0 = time.perf_counter()
            report = H.run_experiment(self.cfg, out)
            ok, messages = H.experiment_check(out)
            t1 = time.perf_counter()
        self.reports.append(report)
        self.check_ok.append((ok, messages))
        return [Call(t1 - t0, *self.realisations())]

    def check(self) -> list[str]:
        z, bad = self.size, []
        first = self.reports[0]
        for r in self.reports[1:]:
            if any(r.svm[k].points != first.svm[k].points for k in first.labels):
                bad.append("rounds with identical inputs produced different SVM curves")
                break
        if not all(r.valid for r in self.reports):
            bad.append("report.valid is false: "
                       + "; ".join(c.detail for c in first.checks if not c.passed))
        if not all(ok for ok, _ in self.check_ok):
            bad.append("experiment_check failed: " + "; ".join(self.check_ok[0][1]))
        bad += self._check_fits()
        h, g = oracle.daubechies(int(z.family[2:]))
        pulse = SG.make_chirp(z.length, self.cfg.f_start, self.cfg.f_end)
        for k, (label, b) in enumerate(zip(first.labels, z.scale_sets)):
            s = oracle.steady_features(pulse.samples[None, :], h, g, b)[0]
            curve = first.svm[label]
            n = curve.trials_per_point
            th = oracle.pd_optimum(curve.snr_grid(), s, z.pfa)
            pd = curve.pd_values()
            se = np.sqrt(pd * (1 - pd) / n + th * (1 - th) / n) + 1.0 / n
            if np.any(pd > th + 3.0 * se):
                bad.append(f"SVM Pd of {label} exceeds the closed-form ceiling")
            det = first.svm_detectors[label]
            w = det.steady_a()
            v = _independent_noise_stat(bench_rng(self.seed, 10 + k), z.pfa_check_trials,
                                        z.length, lambda F: F @ w, z.family, b)
            zdev = oracle.rate_z(int(np.count_nonzero(v > det.v_threshold)), v.shape[0],
                                 z.pfa, z.cal_trials)
            if abs(zdev) > 4.0:
                bad.append(f"SVM {label} realized Pfa deviates {zdev:.2f} stderr from {z.pfa}")
        return bad

    def _check_fits(self) -> list[str]:
        """Re-run the study once, capturing every SMO fit, and bound each duality gap."""
        fits, bad, train = [], [], S.train

        def capture(ts, *args, **kwargs):
            model = train(ts, *args, **kwargs)
            fits.append((ts, model))
            return model

        S.train = capture
        try:
            with tempfile.TemporaryDirectory(dir=self.work_dir, prefix="study-") as out:
                rerun = H.run_experiment(self.cfg, out)
        finally:
            S.train = train
        first = self.reports[0]
        if any(rerun.svm[k].points != first.svm[k].points for k in first.labels):
            bad.append("a rerun of the study produced different SVM curves")
        if len(fits) != len(self.size.scale_sets) * len(self.size.c_grid):
            bad.append(f"expected one SMO fit per scale set and C pair, saw {len(fits)}")
        self.fit_summary = []
        for ts, m in fits:
            primal = oracle.svm_primal(ts.X, ts.y, m.w, m.c_plus, m.c_minus)
            dual = oracle.svm_dual(ts.X, ts.y, m.alphas)
            gap = (primal - dual) / max(1.0, abs(primal))
            self.fit_summary.append((ts.layout.scales, m.c_plus, m.c_minus, m.n_passes, gap))
            tag = f"fit {ts.layout.scales} C=({m.c_plus:g},{m.c_minus:g})"
            if not m.converged:
                bad.append(f"{tag} did not converge")
            if primal < dual - 1e-9 * max(1.0, abs(dual)):
                bad.append(f"{tag}: primal {primal!r} below dual {dual!r}")
            if gap >= self.size.gap_tol:
                bad.append(f"{tag}: relative duality gap {gap:.3g} >= {self.size.gap_tol}")
        return bad

    def summary(self, rounds) -> list[str]:
        return [f"studies {len(rounds)}"] + [
            f"fit {sc} C=({cp:g},{cm:g}): {n} SMO passes, relative duality gap {gap:.2e}"
            for sc, cp, cm, n, gap in getattr(self, "fit_summary", [])]

    def counts(self) -> dict:
        z = self.size
        pipe = P.FeaturePipe.for_scales(z.length, WV.parse_family(z.family), z.scale_sets[-1])
        return {"madds_per_trial": _madds_per_trial(pipe)}


# ---------------------------------------------------------------------------
# stream_detect: one observation at a time through four detectors


@dataclass(frozen=True)
class StreamSize:
    length: int = 1024
    family: str = "db5"
    scales: tuple[int, ...] = (3, 4, 5, 6)
    pfa: float = 0.05
    cal_trials: int = 8192
    n_per_class: int = 300
    c: tuple[float, float] = (0.1, 1.0)
    observations: int = 1024
    snrs: tuple[float, ...] = (-15.0, -12.0, -9.0, -6.0)


class StreamDetect:
    setups = 3

    def __init__(self, seed: int, size: StreamSize = StreamSize(), work_dir: str = "."):
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.ops_per_round = size.observations
        self.decisions: list[np.ndarray] = []

    def setup(self) -> None:
        z = self.size
        noise = SG.NoiseModel(1.0)
        filters = WV.parse_family(z.family)
        pulse = SG.make_chirp(z.length)
        self.pipe = P.FeaturePipe.for_scales(z.length, filters, z.scales)
        det_opt = O.optimum_a(self.pipe.details_of(pulse), z.pfa, noise)
        ts = S.build_training_set(pulse, z.scales, filters, noise, z.n_per_class,
                                  z.n_per_class, (min(z.snrs), max(z.snrs)),
                                  prog_seed(self.seed, 4))
        self.model = S.train(ts, *z.c)
        det_svm = S.calibrate_bias(self.model, noise, self.pipe, z.pfa, z.cal_trials,
                                   prog_seed(self.seed, 5))
        det_max = D.calibrate_max_coeff(self.pipe, noise, z.pfa, z.cal_trials,
                                        prog_seed(self.seed, 6))
        with tempfile.TemporaryDirectory(dir=self.work_dir, prefix="stream-") as d:
            dets = []
            for k, det in enumerate((det_opt, det_svm, det_max)):
                path = os.path.join(d, f"det{k}.det")
                IO.write_detector(path, det, z.family, z.length)
                dets.append(IO.read_detector(path)[0])
        self.det_opt, self.det_svm, self.det_max = dets
        # inputs: half noise-only, half pulse-plus-noise at the listed SNRs
        rng = bench_rng(self.seed, 2)
        m = z.observations
        snr = np.full(m, np.nan)
        snr[m // 2:] = np.resize(np.array(z.snrs), m - m // 2)
        rng.shuffle(snr)
        amp = np.where(np.isnan(snr), 0.0, 10.0 ** (np.nan_to_num(snr) / 20.0))
        self.snr = snr
        self.X = rng.standard_normal((m, z.length)) + amp[:, None] * pulse.samples[None, :]

    def round(self) -> list[Call]:
        pipe, X = self.pipe, self.X
        opt, svm_det, mx, model = self.det_opt, self.det_svm, self.det_max, self.model
        m = X.shape[0]
        out = np.empty((m, 4), dtype=bool)
        lat = np.empty(m)
        clock = time.perf_counter
        for i in range(m):
            t0 = clock()
            d = pipe.details_of(X[i])
            out[i, 0] = D.statistic(d, opt) > opt.v_threshold
            out[i, 1] = D.statistic(d, svm_det) > svm_det.v_threshold
            out[i, 2] = S.decision(model, d) > 0.0
            out[i, 3] = D.max_coeff_baseline(d, mx.v_threshold)
            lat[i] = clock() - t0
        self.decisions.append(out)
        return [Call(float(t), 1, 1) for t in lat]

    def oracle_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """(statistics, thresholds) of the four detectors, computed by the oracle."""
        z = self.size
        F = _steady_rows_oracle(self.X, z.family, z.scales)
        mask = self.det_opt.layout.steady_mask()
        stats = np.stack([F @ self.det_opt.a[mask], F @ self.det_svm.a[mask],
                          F @ self.model.w + self.model.b, np.max(np.abs(F), axis=1)], axis=1)
        thresholds = np.array([self.det_opt.v_threshold, self.det_svm.v_threshold, 0.0,
                               self.det_max.v_threshold])
        return stats, thresholds

    def check(self) -> list[str]:
        z, bad = self.size, []
        stats, thr = self.oracle_statistics()
        ties = np.abs(stats - thr) <= TIE_TOL
        expected = stats > thr
        self.ties = int(ties.sum())
        names = ("optimum", "svm-calibrated", "svm.decision", "max-coeff")
        for r, got in enumerate(self.decisions):
            wrong = (got != expected) & ~ties
            for k in np.flatnonzero(wrong.any(axis=0)):
                bad.append(f"round {r}: {names[k]} disagrees with the oracle on "
                           f"{int(wrong[:, k].sum())} observations")
        h0 = np.isnan(self.snr)
        n0 = int(h0.sum())
        got = self.decisions[0]
        if not oracle.binomial_consistent(int(got[h0, 0].sum()), n0, z.pfa):
            bad.append(f"optimum H0 detection share {got[h0, 0].mean():.4f} is outside "
                       f"binomial bounds of {z.pfa}")
        for k in (1, 3):
            zdev = oracle.rate_z(int(got[h0, k].sum()), n0, z.pfa, z.cal_trials)
            if abs(zdev) > 4.0:
                bad.append(f"{names[k]} H0 detection share deviates {zdev:.2f} stderr "
                           f"from {z.pfa}")
        return bad

    def counts(self) -> dict:
        return {"madds_per_trial": _madds_per_trial(self.pipe)}

    def summary(self, rounds) -> list[str]:
        lat = np.concatenate([np.array([c.seconds for c in calls]) for _, calls in rounds])
        return [f"rounds {len(rounds)}; {lat.shape[0]} observations; latency p99 "
                f"{np.percentile(lat, 99) * 1e6:.1f} us ({int(np.sum(lat > np.percentile(lat, 99)))} "
                f"above); ties within {TIE_TOL:g} of a threshold: {getattr(self, 'ties', 0)}"]


WORKLOADS = {"pd_curve": PdCurve, "study": Study, "stream_detect": StreamDetect}


def make(name: str, seed: int, work_dir: str):
    """The workload with the benchmark's sizes; temporary files go under work_dir."""
    cls = WORKLOADS[name]
    return cls(seed) if cls is PdCurve else cls(seed, work_dir=work_dir)

