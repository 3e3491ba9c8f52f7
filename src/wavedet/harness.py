"""End-to-end experiment suite: theory vs trained detectors, per scale set.

For every configured scale set the harness computes the matched-filter
detector and its closed-form curve, trains and calibrates an SVM detector
and sweeps its Monte Carlo curve, and calibrates and sweeps the
max-absolute-coefficient baseline.  Everything is keyed off one root seed
through purpose-tagged substreams, so a rerun of the same config file
produces byte-identical CSVs.  A self-check section re-derives the
cross-module consistency facts (decision/statistic equivalence, deployed SVM
threshold vs its closed form, multi-scale dominance, theory ceiling) and the
output directory is marked valid only if every check passes.  Its only noise
is three single observations per scale set, drawn through make_observation
on their own purpose path, on which the decision/statistic equivalence is
checked.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .detector import (
    Calibration,
    DetectionCurve,
    LinearDetector,
    _check_mc_quantile_args,
    _check_trials,
    _rate,
    _sigma_v,
    analytic_stats,
    calibrate_max_coeff,
    qfunc_inv,
    snr_grid,
    statistic,
    sweep_curve,
)
from .io import (
    _atomic_write,
    _curve_csv_bytes,
    _detector_bytes,
    read_curve_csv,
    read_detector,
    write_curve_csv,
    write_detector,
)
from .optimum import optimum_a
from .pipeline import FeaturePipe
from .rng import RNG_ID, derive_seed
from .signals import NoiseModel, SampledSignal, _check_band, make_chirp, make_observation
from .svm import (SvmModel, _FIT_FIELDS, _check_smo_args, build_training_set, decision,
                  tune_c_for_pfa)
from .wavelet import _check_scales, _detector_id, _require_pow2, _set_label, parse_family

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "CheckResult",
    "run_experiment",
    "experiment_check",
    "parse_config_text",
    "canonical_config_text",
    "config_hash",
]

_DEFAULT_C_GRID = tuple(
    (cp, cm) for cp in (0.1, 1.0, 10.0) for cm in (1.0, 10.0, 100.0)
)

# relative drift allowed between a stored closed-form value (optimum weights
# and threshold, theory Pd) and experiment check's re-derivation of it: BLAS
# on another CPU may round the pyramid and the norms a few ulps differently
_REDERIVE_RTOL = 1e-9

# substream purposes hanging off the root seed (6 is retired, so 7 keeps its streams)
_P_TRAIN, _P_TUNE, _P_SVMCURVE, _P_BASECAL, _P_BASECURVE, _P_CHECKOBS = 1, 2, 3, 4, 5, 7

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs; defaults follow the reference setup."""

    length: int = 1024
    f_start: float = 0.05
    f_end: float = 0.45
    family: str = "db5"
    scale_sets: tuple[tuple[int, ...], ...] = ((3,), (4,), (5,), (6,), (4, 5, 6), (3, 4, 5, 6))
    pfa: float = 1e-3
    snr_min: float = -15.0
    snr_max: float = 0.0
    snr_step: float = 1.0
    trials_per_point: int = 10_000
    cal_trials: int = 100_000
    n_pos: int = 1000
    n_neg: int = 1000
    c_grid: tuple[tuple[float, float], ...] = _DEFAULT_C_GRID
    kkt_tolerance: float = 1e-3
    max_passes: int = 10_000
    sigma_n: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        n = self.length
        _require_pow2(n)
        # stored as config.txt reads it back, so the config hash round trips
        object.__setattr__(self, "family", self.family.strip())
        filters = parse_family(self.family)
        N = n.bit_length() - 1
        sets = tuple(tuple(int(s) for s in b) for b in self.scale_sets)
        if not sets:
            raise ValueError("scale_sets must be non-empty")
        if len({_set_label(b) for b in sets}) != len(sets):
            raise ValueError("scale_sets contains duplicates")
        for b in sets:
            _check_scales(b, n)
            # the deepest scale has the fewest coefficients
            s = max(b)
            if 2 ** (N - s) <= filters.length:
                raise ValueError(f"scale {s} leaves no steady coefficients: "
                                 f"2^({N}-{s}) <= filter length {filters.length}")
        object.__setattr__(self, "scale_sets", sets)
        object.__setattr__(self, "c_grid", tuple((float(a), float(m)) for a, m in self.c_grid))
        _check_band(self.f_start, self.f_end)
        NoiseModel(self.sigma_n)
        _check_mc_quantile_args(self.pfa, self.cal_trials)
        snr_grid(self.snr_min, self.snr_max, self.snr_step)
        _check_trials(self.trials_per_point, "trials_per_point")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("n_pos and n_neg must be at least 1")
        if not self.c_grid:
            raise ValueError("c_grid must be non-empty")
        for cp, cm in self.c_grid:
            _check_smo_args(cp, cm, self.kkt_tolerance, self.max_passes)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def snr_grid(self) -> tuple[float, ...]:
        return snr_grid(self.snr_min, self.snr_max, self.snr_step)


# -- config text format -------------------------------------------------------

def _parse_scale_sets(val: str) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(int(s) for s in group.split(","))
        for group in val.split(";") if group.strip()
    )


def _parse_c_grid(val: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for group in val.split(";"):
        group = group.strip()
        if group:
            cp, _, cm = group.partition(":")
            pairs.append((float(cp), float(cm)))
    return tuple(pairs)


# config key -> value parser, in ExperimentConfig field order; a scalar field
# is parsed as the type of its default
_CONFIG_PARSERS = {f.name: type(f.default) for f in dc_fields(ExperimentConfig)}
_CONFIG_PARSERS.update(scale_sets=_parse_scale_sets, c_grid=_parse_c_grid)


def canonical_config_text(cfg: ExperimentConfig) -> str:
    """Flat key = value rendering; the hashable identity of an experiment."""
    vals = {
        "scale_sets": "; ".join(",".join(str(s) for s in b) for b in cfg.scale_sets),
        "c_grid": "; ".join(f"{cp!r}:{cm!r}" for cp, cm in cfg.c_grid),
    }
    lines = []
    for key in _CONFIG_PARSERS:
        if key in vals:
            lines.append(f"{key} = {vals[key]}")
            continue
        v = getattr(cfg, key)
        # by the field's type, so an int given for a float reads back unchanged
        lines.append(f"{key} = {float(v)!r}" if _CONFIG_PARSERS[key] is float else f"{key} = {v}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format, falling back to defaults."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (p.strip() for p in line.partition("="))
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        kwargs[key] = _CONFIG_PARSERS[key](val)
    return ExperimentConfig(**kwargs)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("ascii")).hexdigest()[:16]


# -- report -------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    config_hash: str
    labels: tuple[str, ...]
    theory: dict[str, DetectionCurve]
    svm: dict[str, DetectionCurve]
    baseline: dict[str, DetectionCurve]
    svm_detectors: dict[str, LinearDetector] = field(repr=False)
    checks: tuple[CheckResult, ...] = ()

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)


def _curve_plans(cfg: ExperimentConfig, bi: int) -> dict[str, tuple[int, int]]:
    """(trials per point, seed) that each curve kind of scale set ``bi`` carries."""
    return {
        "theory": (0, cfg.seed),
        "svm": (cfg.trials_per_point, derive_seed(cfg.seed, _P_SVMCURVE, bi)),
        "baseline": (cfg.trials_per_point, derive_seed(cfg.seed, _P_BASECURVE, bi)),
    }


def _provenance(
    cfg: ExperimentConfig, chash: str, scales: tuple[int, ...], kind: str
) -> dict[str, str]:
    """The ``#`` provenance lines of one curve file, for its writer and its checker."""
    return {
        "config_hash": chash,
        "root_seed": str(cfg.seed),
        "family": cfg.family,
        "scales": ",".join(str(s) for s in scales),
        "sigma_n": repr(cfg.sigma_n),
        "kind": kind,
    }


def _closed_form(cfg: ExperimentConfig) -> tuple[NoiseModel, SampledSignal, tuple, list]:
    """What the config fixes before any draw, for run_experiment and experiment_check:
    the noise model, the pulse template, the SNR grid and, per scale set, its label,
    scales, pipe, closed-form optimum detector and theory curve."""
    filters = parse_family(cfg.family)
    noise = NoiseModel(sigma_n=cfg.sigma_n)
    pulse = make_chirp(cfg.length, cfg.f_start, cfg.f_end)
    grid = cfg.snr_grid()
    sets = []
    for bi, b in enumerate(cfg.scale_sets):
        pipe = FeaturePipe.for_scales(cfg.length, filters, b)
        pulse_details = pipe.details_of(pulse)
        det = optimum_a(pulse_details, cfg.pfa, noise)
        points = tuple(
            (snr, analytic_stats(pulse_details, det.a, snr, noise, det.v_threshold).pd, 0.0)
            for snr in grid)
        theory = DetectionCurve(cfg.pfa, points, _detector_id("theory", b),
                                *_curve_plans(cfg, bi)["theory"])
        sets.append((_set_label(b), b, pipe, det, theory))
    return noise, pulse, grid, sets


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    """Execute the full suite and write CSVs + self-check report to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(cfg)
    noise, pulse, grid, sets = _closed_form(cfg)
    labels = tuple(label for label, *_ in sets)

    curves: dict[str, dict[str, DetectionCurve]] = {"theory": {}, "svm": {}, "baseline": {}}
    svm_dets: dict[str, LinearDetector] = {}
    checks: list[CheckResult] = []

    for bi, (label, b, pipe, det_opt, theory) in enumerate(sets):
        plans = _curve_plans(cfg, bi)
        curves["theory"][label] = theory

        ts = build_training_set(
            pulse, b, pipe.filters, noise, cfg.n_pos, cfg.n_neg,
            (cfg.snr_min, cfg.snr_max), derive_seed(cfg.seed, _P_TRAIN, bi),
        )
        model, det_svm = tune_c_for_pfa(
            ts, noise, pipe, cfg.pfa, cfg.c_grid, cfg.cal_trials,
            derive_seed(cfg.seed, _P_TUNE, bi), pulse,
            kkt_tolerance=cfg.kkt_tolerance, max_passes=cfg.max_passes,
        )
        svm_dets[label] = det_svm
        curves["svm"][label] = sweep_curve(det_svm, pulse, grid, noise, *plans["svm"], pipe)

        det_base = calibrate_max_coeff(pipe, noise, cfg.pfa, cfg.cal_trials,
                                       derive_seed(cfg.seed, _P_BASECAL, bi))
        curves["baseline"][label] = sweep_curve(det_base, pulse, grid, noise,
                                                *plans["baseline"], pipe)

        checks += [_check_decision_equivalence(model, det_svm, pulse, pipe, noise, cfg, bi, label),
                   _check_threshold_agreement(det_svm, noise, label)]

        for kind, by_label in curves.items():
            write_curve_csv(os.path.join(out_dir, f"{kind}_{label}.csv"), by_label[label],
                            _provenance(cfg, chash, b, kind))
        write_detector(os.path.join(out_dir, f"optimum_{label}.det"), det_opt,
                       cfg.family, cfg.length)
        write_detector(os.path.join(out_dir, f"svm_{label}.det"), det_svm, cfg.family,
                       cfg.length, extras=model.fit_fields())

    checks.extend(_structural_checks(labels, cfg.scale_sets, curves["theory"], curves["svm"]))
    report = ExperimentReport(config=cfg, config_hash=chash, labels=labels, **curves,
                              svm_detectors=svm_dets, checks=tuple(checks))

    _atomic_write(os.path.join(out_dir, "gaps.csv"), _gaps_csv(chash, cfg.seed, labels, curves))
    checks_text = "\n".join([f"# config_hash={chash}", *_check_lines(report)]) + "\n"
    _atomic_write(os.path.join(out_dir, "checks.txt"), checks_text.encode("ascii"))
    _atomic_write(os.path.join(out_dir, "config.txt"),
                  canonical_config_text(cfg).encode("ascii"))
    return report


def _check_decision_equivalence(
    model: SvmModel, det_svm: LinearDetector, pulse, pipe: FeaturePipe, noise: NoiseModel,
    cfg: ExperimentConfig, bi: int, label: str,
) -> CheckResult:
    """decision(model, d) must equal the deployed detector's statistic plus b."""
    worst = 0.0
    for k in range(3):
        obs = make_observation(pulse, -5.0, noise, derive_seed(cfg.seed, _P_CHECKOBS, bi, k))
        d = pipe.details_of(obs)
        worst = max(worst, abs(decision(model, d) - (statistic(d, det_svm) + model.b)))
    passed = worst <= 1e-12
    return CheckResult(
        name=f"decision-statistic-equivalence[{label}]",
        passed=passed,
        detail=f"max |decision - (statistic + b)| = {worst:.3e}",
    )


def _check_threshold_agreement(det: LinearDetector, noise: NoiseModel, label: str) -> CheckResult:
    """A deployed Monte Carlo threshold within 4 quantile stderrs of its closed form.

    Under white noise the statistic is N(0, sigma_v^2), sigma_v = sigma_n ||a_steady||,
    so Pfa p needs sigma_v Qinv(p) (Kay 1998, ch. 4); the quantile of the n =
    det.calibration.trials draws has se = sigma_v sqrt(p (1 - p) / n) / phi(Qinv(p)).
    No draw: a correct calibration fails with probability 2 Q(4) ~ 6.3e-5 per set.
    """
    p, n = det.target_pfa, det.calibration.trials
    sigma_v = _sigma_v(det.steady_a(), noise)
    z = qfunc_inv(p)
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    se = sigma_v * math.sqrt(p * (1.0 - p) / n) / density
    delta = det.v_threshold - sigma_v * z
    return CheckResult(
        name=f"analytic-mc-threshold[{label}]",
        passed=abs(delta) <= 4.0 * se,
        detail=f"V_T(mc) - V_T(analytic) = {delta:.4g} = {delta / se:+.2f} se, allowed 4 se",
    )


def _structural_checks(
    labels: tuple[str, ...],
    scale_sets: tuple[tuple[int, ...], ...],
    theory: dict[str, DetectionCurve],
    svm: dict[str, DetectionCurve],
) -> list[CheckResult]:
    """Multi-scale dominance of the theory curves and the theory ceiling on SVM Pd."""
    checks = []
    sets = {label: set(b) for label, b in zip(labels, scale_sets)}
    # theory dominance: a superset's curve must dominate its subsets' pointwise
    worst = 0.0
    pairs = 0
    for la in labels:
        for lb in labels:
            if la != lb and sets[lb] < sets[la]:
                pairs += 1
                gap = theory[lb].pd_values() - theory[la].pd_values()
                worst = max(worst, float(np.max(gap)))
    checks.append(CheckResult(
        name="theory-multiscale-dominance",
        passed=worst <= 1e-12,
        detail=f"{pairs} subset pairs, worst subset excess {worst:.3e}",
    ))
    # ceiling: Monte Carlo SVM Pd never above theory by more than 3 stderr
    worst_z = -math.inf
    for label in labels:
        th = theory[label].pd_values()
        sv = svm[label].pd_values()
        se = _ceiling_se(svm[label], th)
        worst_z = max(worst_z, float(np.max((sv - th) / se)))
    checks.append(CheckResult(
        name="svm-theory-ceiling",
        passed=worst_z <= 3.0,
        detail=f"max (pd_svm - pd_theory)/stderr = {worst_z:.2f}, allowed 3",
    ))
    return checks


def _ceiling_se(mc_curve: DetectionCurve, pd_theory: np.ndarray) -> np.ndarray:
    """Scale for comparing a Monte Carlo curve against its theoretical ceiling.

    Near saturation the empirical stderr collapses to zero even though the
    estimate can still sit a hair above the theory value, so the binomial
    deviation implied by the theory Pd itself is used as a floor.
    """
    n = max(mc_curve.trials_per_point, 1)
    implied = np.sqrt(np.clip(pd_theory * (1.0 - pd_theory), 0.0, None) / n)
    return np.maximum(np.maximum(mc_curve.stderr_values(), implied), 1e-12)


def _gaps_csv(
    chash: str, root_seed: int, labels: tuple[str, ...],
    curves: dict[str, dict[str, DetectionCurve]],
) -> bytes:
    """The bytes of gaps.csv: each kind's Pd and theory minus SVM, per scale set and SNR.

    The rows do not judge the gaps: the svm-theory-ceiling check does.
    """
    lines = [
        f"# config_hash={chash}",
        f"# root_seed={root_seed}",
        f"# rng={RNG_ID}",
        "scale_set,snr_db,pd_theory,pd_svm,pd_baseline,gap",
    ]
    for label in labels:
        for (snr, pd_t, _), (_, pd_s, _), (_, pd_b, _) in zip(
            curves["theory"][label].points, curves["svm"][label].points,
            curves["baseline"][label].points,
        ):
            lines.append(f"{label},{snr!r},{pd_t!r},{pd_s!r},{pd_b!r},{pd_t - pd_s!r}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _check_lines(report: ExperimentReport) -> list[str]:
    """A ``PASS``/``FAIL`` line per check, then ``VALID`` or ``INVALID``."""
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in report.checks]
    lines.append("VALID" if report.valid else "INVALID")
    return lines


def experiment_check(out_dir: str) -> tuple[bool, list[str]]:
    """Re-verify a finished output directory from its stored artifacts.

    Each curve and detector file must hold, byte for byte, what its io
    writer renders for the object rebuilt from two sources: what the config
    fixes (provenance, id, Pfa, SNR grid, trials, seeds, layout, family,
    calibration) and the values read back from the file itself (Pd as a hit
    count over n trials, _rate(round(pd * n), n); weights, threshold, the
    SVM calibration seed and the fit fields other than kkt_tolerance).  The
    config also fixes the optimum detectors and theory curves in closed
    form, which _closed_form derives as for the run, so their weights,
    thresholds and Pd values must match within a relative _REDERIVE_RTOL,
    which admits another CPU's BLAS rounding.  Each SVM threshold must pass
    the run's _check_threshold_agreement.  The curves must pass the
    dominance and ceiling checks that run_experiment applies, gaps.csv must
    be the table rendered from them and config.txt its own canonical text,
    and checks.txt must record no FAIL and end in VALID.
    """
    messages = []

    def fail(msg: str) -> None:
        messages.append("FAIL " + msg)

    def rederive(path: str, what: str, stored, derived) -> None:
        """A stored closed-form value (never zero) must match its re-derivation."""
        drift = np.linalg.norm(np.subtract(stored, derived)) / np.linalg.norm(derived)
        if not drift <= _REDERIVE_RTOL:
            fail(f"{path}: {what} differs from its re-derivation from the config by "
                 f"{drift:.3g} relative, allowed {_REDERIVE_RTOL:g}")

    def compare(path: str, expected: bytes) -> None:
        """The one byte comparison: ``path`` must hold what its writer renders."""
        try:
            with open(path, "rb") as fh:
                stored = fh.read()
        except OSError as e:
            fail(f"cannot load {path}: {e}")
            return
        if stored != expected:
            k = next((i for i, (x, y) in enumerate(zip(stored, expected)) if x != y),
                     min(len(stored), len(expected)))
            lo = max(k - 40, 0)
            fail(f"{path} differs from its writer's rendering at byte {k}: "
                 f"expected {expected[lo:k + 40]!r}, found {stored[lo:k + 40]!r}")

    cfg_path = os.path.join(out_dir, "config.txt")
    try:
        with open(cfg_path, "r", encoding="ascii") as fh:
            cfg = parse_config_text(fh.read())
    except (OSError, ValueError) as e:
        return False, [f"FAIL cannot load config: {e}"]
    compare(cfg_path, canonical_config_text(cfg).encode("ascii"))
    chash = config_hash(cfg)
    # run_experiment's own pipes, closed-form optimum detectors and theory curves
    noise, _, grid, sets = _closed_form(cfg)
    labels = tuple(label for label, *_ in sets)
    curves: dict[str, dict[str, DetectionCurve]] = {"theory": {}, "svm": {}, "baseline": {}}
    for bi, (label, b, pipe, det_opt, theory) in enumerate(sets):
        plans = _curve_plans(cfg, bi)
        for kind, by_label in curves.items():
            path = os.path.join(out_dir, f"{kind}_{label}.csv")
            n = plans[kind][0]
            try:
                measured, _ = read_curve_csv(path)
                if len(measured.points) != len(grid):
                    raise ValueError(f"{len(measured.points)} rows, the SNR grid has {len(grid)}")
                # a Monte Carlo point is its hit count over n trials; a theory point has no stderr
                points = tuple((snr, *(_rate(round(pd * n), n) if n else (pd, 0.0)))
                               for snr, (_, pd, _) in zip(grid, measured.points))
                curve = DetectionCurve(cfg.pfa, points, _detector_id(kind, b), *plans[kind])
            except (OSError, ValueError) as e:
                fail(f"cannot check {path}: {e}")
                continue
            by_label[label] = curve
            if kind == "theory":
                rederive(path, "pd", curve.pd_values(), theory.pd_values())
            compare(path, _curve_csv_bytes(curve, _provenance(cfg, chash, b, kind)))
        for kind in ("optimum", "svm"):
            path = os.path.join(out_dir, f"{kind}_{label}.det")
            try:
                fitted, _, _, extras = read_detector(path)
                if not isinstance(fitted, LinearDetector):
                    raise ValueError("holds no weights: expected a linear detector")
                cal = (Calibration("analytic") if kind == "optimum" else
                       Calibration("monte_carlo", cfg.cal_trials, fitted.calibration.seed))
                det = LinearDetector(fitted.a, pipe.layout, fitted.v_threshold, cfg.pfa, cal,
                                     _detector_id(kind, b))
                fit = None
                if kind == "svm":
                    lacking = [k for k in _FIT_FIELDS if k not in extras]
                    if lacking:
                        raise ValueError(f"header lacks the fit fields {', '.join(lacking)}")
                    # the config fixes kkt_tolerance; only the fit measured the others
                    fit = {k: extras[k] for k in _FIT_FIELDS}
                    fit["kkt_tolerance"] = repr(cfg.kkt_tolerance)
            except (OSError, ValueError) as e:
                fail(f"cannot check {path}: {e}")
                continue
            if kind == "optimum":
                rederive(path, "weights", det.a, det_opt.a)
                rederive(path, "v_threshold", det.v_threshold, det_opt.v_threshold)
            elif not (c := _check_threshold_agreement(det, noise, label)).passed:
                fail(f"{path}: {c.name}: {c.detail}")
            compare(path, _detector_bytes(det, cfg.family, cfg.length, fit))
    # only a full set of rebuilt curves yields the structural checks and gaps.csv
    if all(len(by_label) == len(labels) for by_label in curves.values()):
        for c in _structural_checks(labels, cfg.scale_sets, curves["theory"], curves["svm"]):
            if not c.passed:
                fail(f"{c.name}: {c.detail}")
        compare(os.path.join(out_dir, "gaps.csv"), _gaps_csv(chash, cfg.seed, labels, curves))
    checks_path = os.path.join(out_dir, "checks.txt")
    try:
        with open(checks_path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        for ln in lines:
            if ln.startswith("FAIL"):
                fail(f"checks.txt records a failed check: {ln}")
        if not lines or lines[-1] != "VALID":
            fail("checks.txt does not end in VALID")
        if lines and lines[0] != f"# config_hash={chash}":
            fail("checks.txt config_hash mismatch")
    except OSError as e:
        fail(f"cannot load checks.txt: {e}")
    ok = not messages
    if ok:
        messages.append(f"OK {out_dir}: {len(labels)} scale sets verified against {chash}")
    return ok, messages
