"""Experiment configuration, orchestration, and output verification."""

import dataclasses
import filecmp
import math
import os
import shutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedet import (
    ExperimentConfig,
    canonical_config_text,
    config_hash,
    experiment_check,
    harness,
    parse_config_text,
    run_experiment,
    svm,
)
from wavedet.detector import Calibration, LinearDetector, qfunc_inv
from wavedet.io import read_detector, write_detector
from wavedet.pipeline import FeaturePipe
from wavedet.signals import NoiseModel
from wavedet.wavelet import parse_family

MINI = dict(
    length=256,
    scale_sets=((3,), (4,), (3, 4)),
    pfa=1e-2,
    snr_min=-12.0,
    snr_max=0.0,
    snr_step=3.0,
    trials_per_point=1500,
    cal_trials=10_000,
    n_pos=250,
    n_neg=250,
    c_grid=((1.0, 10.0),),
    seed=42,
)


@pytest.fixture(scope="module")
def mini_cfg():
    return ExperimentConfig(**MINI)


@pytest.fixture(scope="module")
def mini_run(mini_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(mini_cfg, str(out))
    return report, out


def test_config_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.length == 1024
    assert cfg.family == "db5"
    assert (3, 4, 5, 6) in cfg.scale_sets
    assert cfg.pfa == 1e-3
    grid = cfg.snr_grid()
    assert grid[0] == -15.0 and grid[-1] == 0.0 and len(grid) == 16


def test_config_text_round_trip(mini_cfg):
    text = canonical_config_text(mini_cfg)
    assert parse_config_text(text) == mini_cfg
    # defaults fill missing keys, comments and blanks are ignored
    cfg = parse_config_text("# comment\n\nsigma_n = 2.0\n")
    assert cfg.sigma_n == 2.0
    assert cfg.family == "db5"


@st.composite
def _configs(draw):
    """Valid configs, with family names padded and in any case."""
    order = draw(st.integers(1, 10))
    # long enough that scale 1 keeps a steady coefficient
    log_n = draw(st.integers(next(n for n in range(2, 13) if 2 ** (n - 1) > 2 * order), 12))
    if order == 1 and draw(st.booleans()):
        name = draw(st.sampled_from(["haar", "Haar", "HAAR"]))
    else:
        name = draw(st.sampled_from(["db", "DB", "Db"])) + str(order)
    pad = st.sampled_from(["", " ", "\t", " \t "])
    deepest = max(s for s in range(1, log_n + 1) if 2 ** (log_n - s) > 2 * order)
    scale_set = st.lists(st.integers(1, deepest), min_size=1, max_size=4, unique=True).map(tuple)
    pfa = draw(st.floats(1e-4, 0.5))
    snr_min = draw(st.floats(-40.0, 10.0))
    f_start, f_end = draw(st.lists(st.floats(0.001, 0.499), min_size=2, max_size=2, unique=True))
    positive = st.floats(1e-3, 1e3)
    return ExperimentConfig(
        length=2**log_n, f_start=f_start, f_end=f_end,
        family=draw(pad) + name + draw(pad),
        scale_sets=tuple(draw(st.lists(scale_set, min_size=1, max_size=4, unique=True))),
        pfa=pfa, snr_min=snr_min, snr_max=snr_min + draw(st.floats(0.1, 30.0)),
        snr_step=draw(st.floats(0.01, 10.0)), trials_per_point=draw(st.integers(100, 10**6)),
        cal_trials=math.ceil(100 / pfa) + 1 + draw(st.integers(0, 10**5)),
        n_pos=draw(st.integers(1, 10**4)), n_neg=draw(st.integers(1, 10**4)),
        c_grid=tuple(draw(st.lists(st.tuples(positive, positive), min_size=1, max_size=4))),
        kkt_tolerance=draw(st.floats(1e-6, 1.0)), max_passes=draw(st.integers(1, 10**5)),
        sigma_n=draw(positive), seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
def test_config_text_round_trip_property(cfg):
    # experiment_check re-parses config.txt and compares hashes, so every
    # valid config must come back equal, with the same hash
    back = parse_config_text(canonical_config_text(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_config_text_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config_text("lenght = 512\n")
    with pytest.raises(ValueError):
        parse_config_text("length 512\n")
    # a repeated key is an error, not the last value wins
    with pytest.raises(ValueError, match="line 2: repeated key 'seed'"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_config_hash_tracks_content(mini_cfg):
    h1 = config_hash(mini_cfg)
    h2 = config_hash(ExperimentConfig(**{**MINI, "seed": 43}))
    assert h1 != h2
    assert len(h1) == 16
    assert h1 == config_hash(parse_config_text(canonical_config_text(mini_cfg)))
    # experiment_check re-hashes the parsed config.txt, so the text must round trip
    ints = ExperimentConfig(**{**MINI, "sigma_n": 1, "snr_step": 3})
    assert config_hash(ints) == config_hash(parse_config_text(canonical_config_text(ints)))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(**{**MINI, "length": 100})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**MINI, "scale_sets": ((7,),)})  # 2^(8-7) < 10
    with pytest.raises(ValueError):
        # 2^(8-6) equals the db2 filter length: the segment has no steady part
        ExperimentConfig(**{**MINI, "family": "db2", "scale_sets": ((6,),)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**MINI, "cal_trials": 1000})  # pfa * trials < 100
    with pytest.raises(ValueError):
        ExperimentConfig(**{**MINI, "scale_sets": ((3,), (3,))})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**MINI, "snr_min": 5.0})
    bad_fields = [
        ("snr_max", float("inf")), ("snr_min", float("-inf")), ("snr_step", float("inf")),
        ("snr_max", float("nan")), ("sigma_n", -1.0), ("sigma_n", float("nan")),
        ("f_start", 0.7), ("f_end", 0.05), ("kkt_tolerance", -1.0), ("max_passes", 0),
        ("c_grid", ((1.0, 0.0),)), ("seed", -1),
        # an Arabic-Indic digit five: int() reads it, the ASCII config hash cannot
        ("family", "db\u0665"),
    ]
    for key, value in bad_fields:
        with pytest.raises(ValueError):
            ExperimentConfig(**{**MINI, key: value})
    with pytest.raises(ValueError):
        parse_config_text("snr_max = inf\n")


def test_mini_experiment_passes_checks(mini_run):
    report, _ = mini_run
    assert report.valid
    assert report.labels == ("d3", "d4", "d3_4")
    names = [c.name for c in report.checks]
    assert "theory-multiscale-dominance" in names
    assert "svm-theory-ceiling" in names
    assert any(n.startswith("decision-statistic-equivalence") for n in names)
    assert any(n.startswith("analytic-mc-threshold") for n in names)


def test_outputs_exist_and_verify(mini_run):
    report, out = mini_run
    expected = {"config.txt", "gaps.csv", "checks.txt"}
    for label in report.labels:
        expected |= {
            f"theory_{label}.csv", f"svm_{label}.csv", f"baseline_{label}.csv",
            f"optimum_{label}.det", f"svm_{label}.det",
        }
    assert expected <= set(os.listdir(out))
    # the fit fields that `wavedet train` writes too
    for label in report.labels:
        extras = read_detector(out / f"svm_{label}.det")[3]
        assert list(extras) == ["c_plus", "c_minus", "kkt_tolerance", "converged",
                                "support_count", "n_passes", "dual_objective"]
        assert int(extras["n_passes"]) >= 1
    ok, messages = experiment_check(str(out))
    assert ok, messages
    checks = (out / "checks.txt").read_text().strip().splitlines()
    assert checks[-1] == "VALID"


def test_rerun_is_byte_identical(mini_cfg, mini_run, tmp_path):
    _, first = mini_run
    run_experiment(mini_cfg, str(tmp_path))
    names = [n for n in os.listdir(first)]
    match, mismatch, errors = filecmp.cmpfiles(first, tmp_path, names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == sorted(names)


def test_gap_table_contents(mini_run):
    report, out = mini_run
    lines = (out / "gaps.csv").read_text().splitlines()
    start = lines.index("scale_set,snr_db,pd_theory,pd_svm,pd_baseline,gap") + 1
    rows = [ln.split(",") for ln in lines[start:]]
    grid = report.config.snr_grid()
    assert [(r[0], float(r[1])) for r in rows] == [
        (label, snr) for label in report.labels for snr in grid
    ]
    for _, _, pd_theory, pd_svm, pd_baseline, gap in rows:
        assert float(gap) == float(pd_theory) - float(pd_svm)
        assert 0.0 <= float(pd_baseline) <= 1.0


def test_check_rejects_tampered_outputs(mini_run, tmp_path):
    _, out = mini_run
    bad = tmp_path / "tampered"
    shutil.copytree(out, bad)
    gaps = (bad / "theory_d3.csv").read_text()
    (bad / "theory_d3.csv").write_text(gaps.replace("config_hash=", "config_hash=00"))
    ok, messages = experiment_check(str(bad))
    assert not ok
    assert any("config_hash" in m for m in messages)


def test_check_rejects_missing_curve(mini_run, tmp_path):
    _, out = mini_run
    bad = tmp_path / "missing"
    shutil.copytree(out, bad)
    os.remove(bad / "svm_d4.csv")
    ok, _ = experiment_check(str(bad))
    assert not ok


def _zero_last_baseline_pd(out):
    path = out / "baseline_d3.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    assert float(cells[1]) > 0.0
    cells[1] = "0.0"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _set_curve_column(name, col, value, row=None):
    """Damage that sets one column of a curve file: every data cell, or only data row ``row``."""
    def damage(out):
        path = out / name
        lines = path.read_text().splitlines()
        start = lines.index("snr_db,pd,stderr,pfa,trials,seed") + 1
        for k in range(start, len(lines)) if row is None else [start + row]:
            cells = lines[k].split(",")
            cells[col] = value
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _move_svm_pd_off_lattice(out):
    """Damage that moves svm_d3.csv's first Pd by half a trial, and gaps.csv to match."""
    path = out / "svm_d3.csv"
    lines = path.read_text().splitlines()
    k = lines.index("snr_db,pd,stderr,pfa,trials,seed") + 1
    cells = lines[k].split(",")
    pd = float(cells[1]) + 0.5 / MINI["trials_per_point"]
    cells[1] = repr(pd)
    lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    gaps = out / "gaps.csv"
    rows = gaps.read_text().splitlines()
    i = next(i for i, r in enumerate(rows) if r.startswith(f"d3,{cells[0]},"))
    label, snr, pd_t, _, pd_b, _ = rows[i].split(",")
    rows[i] = f"{label},{snr},{pd_t},{pd!r},{pd_b},{float(pd_t) - pd!r}"
    gaps.write_text("\n".join(rows) + "\n")


def _replace_in(pattern, old, new):
    """Damage that replaces the first ``old`` by ``new`` in every file matching ``pattern``."""
    def damage(out):
        paths = sorted(out.glob(pattern))
        assert paths
        for path in paths:
            raw = path.read_bytes()
            assert old.encode() in raw
            path.write_bytes(raw.replace(old.encode(), new.encode(), 1))
    return damage


def _drop_last_row(name):
    """Damage that deletes a curve file's last data row."""
    def damage(out):
        path = out / name
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    return damage


def _rescale_detector(name, a=1.0, v_threshold=1.0):
    """Damage that rewrites a detector file with scaled weights or threshold."""
    def damage(out):
        det, family, length, extras = read_detector(str(out / name))
        det = dataclasses.replace(det, a=det.a * a, v_threshold=det.v_threshold * v_threshold)
        write_detector(str(out / name), det, family, length, extras)
    return damage


def _rescale_theory_pd(name, factor):
    """Damage that scales every Pd of a theory curve, in the writer's format."""
    def damage(out):
        path = out / name
        lines = path.read_text().splitlines()
        start = lines.index("snr_db,pd,stderr,pfa,trials,seed") + 1
        for k in range(start, len(lines)):
            cells = lines[k].split(",")
            cells[1] = repr(float(cells[1]) * factor)
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _append_to(name, text):
    """Damage that appends ``text`` to a file."""
    def damage(out):
        with open(out / name, "a") as fh:
            fh.write(text)
    return damage


@pytest.mark.parametrize("damage, named", [
    (lambda out: os.remove(out / "gaps.csv"), "gaps.csv"),
    (lambda out: os.remove(out / "svm_d3.det"), "svm_d3.det"),
    # the curve file itself stays well-formed; only gaps.csv disagrees with it
    (_zero_last_baseline_pd, "gaps.csv"),
    (lambda out: shutil.copy(out / "optimum_d4.det", out / "optimum_d3.det"),
     ("optimum_d3.det", "layout total")),
    (_set_curve_column("baseline_d3.csv", 4, "inf"), "baseline_d3.csv"),
    # well-formed curves whose trials or seed column is not the config's
    (_set_curve_column("baseline_d3.csv", 4, "7"), "baseline_d3.csv"),
    (_set_curve_column("svm_d3.csv", 5, "99"), "svm_d3.csv"),
    (_set_curve_column("theory_d3.csv", 4, "-5"), "theory_d3.csv"),
    # provenance lines that run_experiment writes and the check re-derives
    (_replace_in("svm_d3.csv", "# kind=svm", "# kind=baseline"), ("svm_d3.csv", "kind=baseline")),
    (_replace_in("svm_d3.csv", "# sigma_n=1.0", "# sigma_n=2.0"), ("svm_d3.csv", "sigma_n=2.0")),
    (_replace_in("theory_d3.csv", "# scales=3", "# scales=4"), ("theory_d3.csv", "scales=4")),
    (_replace_in("baseline_d4.csv", "# family=db5", "# family=db2"),
     ("baseline_d4.csv", "family=db2")),
    # SNR and Pfa columns: gaps.csv takes its SNRs from the theory curves only
    (_replace_in("svm_d3.csv", "\n-6.0,", "\n-7.0,"), "svm_d3.csv"),
    (_replace_in("svm_*.csv", "\n-6.0,", "\n-7.0,"), "svm_d3_4.csv"),
    (_set_curve_column("baseline_d3.csv", 3, "0.05"), "baseline_d3.csv"),
    (_set_curve_column("theory_d3.csv", 3, "0.05"), "theory_d3.csv"),
    # a failed check recorded above a final VALID line
    (_replace_in("checks.txt", "PASS decision-statistic-equivalence[d3]",
                 "FAIL decision-statistic-equivalence[d3]"), "checks.txt"),
    # ids follow from the kind and scale set; provenance holds only the writer's lines
    (_replace_in("svm_d3.csv", "# detector_id=svm-", "# detector_id=svm-9"),
     ("svm_d3.csv", "detector_id=svm-9")),
    (_replace_in("baseline_d3.csv", "# kind=baseline\n", "# kind=baseline\n# note=x\n"),
     ("baseline_d3.csv", "note=x")),
    (_replace_in("optimum_d3.det", "detector_id=optimum-", "detector_id=optimum-9"),
     ("optimum_d3.det", "detector_id=optimum-9")),
    # calibration fields the config fixes
    (_replace_in("svm_d3.det", "cal_trials=10000;", "cal_trials=10001;"),
     ("svm_d3.det", "cal_trials=10001")),
    (_replace_in("svm_d3.det", "calibration=monte_carlo", "calibration=analytic"),
     ("svm_d3.det", "calibration=analytic")),
    (_replace_in("svm_d3.det", "rng=philox", "rng=mt19937-philox"), ("svm_d3.det", "rng=mt")),
    # SVM fit fields: only the writer's names, and the config's kkt_tolerance
    (_replace_in("svm_d3.det", "\n", "; note=x\n"), ("svm_d3.det", "note=x")),
    (_replace_in("svm_d3.det", "kkt_tolerance=0.001;", "kkt_tolerance=0.5;"),
     ("svm_d3.det", "kkt_tolerance=0.5")),
    (_replace_in("svm_d3.det", "; support_count=", "; supportcount="),
     ("svm_d3.det", "support_count")),
    (_replace_in("svm_d3.det", "; n_passes=", "; passes="), ("svm_d3.det", "n_passes")),
    # an SVM file that loads as a max-coefficient detector holds no weights
    (_replace_in("svm_d3.det", "kind=linear", "kind=max-coeff"), ("svm_d3.det", "linear")),
    (_drop_last_row("svm_d3.csv"), ("svm_d3.csv", "4 rows")),
    (_append_to("config.txt", "# note\n"), ("config.txt", "# note")),
    # well-formed closed-form results that the config does not give
    (_rescale_detector("optimum_d3_4.det", v_threshold=0.9),
     ("optimum_d3_4.det", "v_threshold", "re-derivation")),
    (_rescale_detector("optimum_d4.det", a=1.1), ("optimum_d4.det", "weights", "re-derivation")),
    (_rescale_theory_pd("theory_d3.csv", 0.999), ("theory_d3.csv", "pd", "re-derivation")),
    # a deployed SVM threshold that its weights' closed form does not give
    (_rescale_detector("svm_d3.det", v_threshold=0.9),
     ("svm_d3.det", "analytic-mc-threshold[d3]")),
    # a Monte Carlo point is a hit count: its stderr and Pd lattice follow from it
    (_set_curve_column("svm_d3.csv", 2, "0.5", row=1), "svm_d3.csv"),
    (_move_svm_pd_off_lattice, "svm_d3.csv"),
], ids=["gaps-deleted", "svm-detector-deleted", "baseline-pd-zeroed", "detector-swapped",
        "baseline-trials-infinite", "baseline-trials-changed", "svm-seed-changed",
        "theory-trials-negative", "svm-kind-changed", "svm-sigma-changed",
        "theory-scales-changed", "baseline-family-changed", "svm-one-snr-changed",
        "every-svm-snr-changed", "baseline-pfa-changed", "theory-pfa-changed",
        "checks-fail-line", "svm-curve-id-changed", "baseline-note-added",
        "optimum-detector-id-changed", "svm-cal-trials-changed", "svm-calibration-analytic",
        "svm-rng-changed", "svm-fit-note-added", "svm-kkt-tolerance-changed",
        "svm-fit-field-missing", "svm-passes-missing", "svm-kind-max-coeff", "svm-last-row-deleted",
        "config-comment-added", "optimum-threshold-scaled", "optimum-weights-scaled",
        "theory-pd-scaled", "svm-threshold-scaled", "svm-one-stderr-changed",
        "svm-pd-off-lattice"])
def test_check_rejects_damaged_outputs(mini_run, tmp_path, damage, named):
    _, out = mini_run
    bad = tmp_path / "damaged"
    shutil.copytree(out, bad)
    damage(bad)
    ok, messages = experiment_check(str(bad))
    assert not ok
    # each named piece (the file, and the damaged text where the check shows it)
    # appears in one FAIL line
    named = (named,) if isinstance(named, str) else named
    assert any(m.startswith("FAIL") and all(n in m for n in named) for m in messages), messages


def test_run_draws_only_training_thresholds_and_curves(mini_cfg, tmp_path, monkeypatch):
    # the self-checks draw no noise: per scale set, every realisation is a
    # training pattern, a calibration trial of the SVM or the baseline, or a
    # trial of the SVM or the baseline curve
    drawn = {}
    real = FeaturePipe.noise_steady

    def counting(self, model, trials, *args, **kwargs):
        drawn[self.layout.scales] = drawn.get(self.layout.scales, 0) + trials
        return real(self, model, trials, *args, **kwargs)

    monkeypatch.setattr(FeaturePipe, "noise_steady", counting)
    run_experiment(mini_cfg, str(tmp_path))
    c = mini_cfg
    per_set = c.n_pos + c.n_neg + 2 * c.cal_trials + 2 * c.trials_per_point
    assert drawn == {b: per_set for b in c.scale_sets}


def _ahead_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("wavedet-ahead")]


def test_no_lookahead_thread_outlives_the_run(mini_cfg, tmp_path, monkeypatch):
    # every set's training set is drawn on the one lookahead thread, set k + 1's
    # while set k is tuned; the thread is joined when the run returns, and when
    # set 1's fit raises while set 2 is being drawn
    built = []
    build = harness.build_training_set

    def recording(*args, **kwargs):
        built.append(threading.current_thread().name)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_training_set", recording)
    run_experiment(mini_cfg, str(tmp_path / "ok"))
    assert len(built) == len(mini_cfg.scale_sets)
    assert all(name.startswith("wavedet-ahead") for name in built), built
    assert not _ahead_threads()

    train = svm.train

    def failing(ts, *args, **kwargs):
        if ts.layout.scales == mini_cfg.scale_sets[1]:
            raise RuntimeError("fit failed")
        return train(ts, *args, **kwargs)

    monkeypatch.setattr(svm, "train", failing)
    with pytest.raises(RuntimeError, match="fit failed"):
        run_experiment(mini_cfg, str(tmp_path / "failed"))
    assert not _ahead_threads()


def test_threshold_check_allows_four_quantile_stderrs():
    # MINI's d3 layout, with a threshold at k standard errors from sigma_v Qinv(p)
    noise = NoiseModel(1.5)
    pipe = FeaturePipe.for_scales(256, parse_family("db5"), (3,))
    a = pipe.layout.embed(np.linspace(-1.0, 2.0, pipe.layout.steady_length))
    p, n = 0.01, 10_000
    sigma_v = 1.5 * float(np.linalg.norm(pipe.layout.gather(a)))
    z = qfunc_inv(p)
    se = sigma_v * math.sqrt(p * (1 - p) / n) / (math.exp(-z * z / 2) / math.sqrt(2 * math.pi))
    for k, passed in ((0.0, True), (3.99, True), (-3.99, True), (4.01, False), (-4.01, False)):
        det = LinearDetector(a, pipe.layout, sigma_v * z + k * se, p,
                             Calibration("monte_carlo", n, 0))
        check = harness._check_threshold_agreement(det, noise, "d3")
        assert check.passed is passed, (k, check)
        assert check.name == "analytic-mc-threshold[d3]"
        assert f"{k:+.2f} se" in check.detail


def test_theory_curves_dominate_subsets(mini_run):
    report, _ = mini_run
    gap = report.theory["d3"].pd_values() - report.theory["d3_4"].pd_values()
    assert float(np.max(gap)) <= 1e-12


def test_ceiling_violation_is_recorded_not_raised(tmp_path, monkeypatch):
    from wavedet.cli import main

    real_sweep = harness.sweep_curve

    def svm_always_detects(det, *args, **kwargs):
        curve = real_sweep(det, *args, **kwargs)
        if det.detector_id.startswith("svm"):
            curve = dataclasses.replace(
                curve, points=tuple((snr, 1.0, 0.0) for snr, _, _ in curve.points))
        return curve

    monkeypatch.setattr(harness, "sweep_curve", svm_always_detects)
    cfg = ExperimentConfig(
        length=128, family="db2", scale_sets=((1,), (1, 2)), pfa=0.05,
        snr_min=-24.0, snr_max=-12.0, snr_step=6.0, trials_per_point=200,
        cal_trials=2000, n_pos=100, n_neg=100, c_grid=((0.1, 1.0),), seed=5,
    )
    out = tmp_path / "run"
    report = run_experiment(cfg, str(out))
    assert not report.valid
    checks = (out / "checks.txt").read_text().splitlines()
    assert checks[-1] == "INVALID"
    assert any(ln.startswith("FAIL svm-theory-ceiling") for ln in checks)
    assert (out / "gaps.csv").exists() and (out / "config.txt").exists()
    ok, messages = experiment_check(str(out))
    assert not ok
    assert any("svm-theory-ceiling" in m for m in messages), messages

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(canonical_config_text(cfg))
    assert main(["experiment", "run", "--config", str(cfg_file),
                 "--out-dir", str(tmp_path / "cli")]) == 1
