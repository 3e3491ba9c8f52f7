"""Experiment configuration, orchestration, and output verification."""

import dataclasses
import filecmp
import os
import shutil

import numpy as np
import pytest

from wavedet import (
    ExperimentConfig,
    canonical_config_text,
    config_hash,
    experiment_check,
    gap_table,
    harness,
    parse_config_text,
    run_experiment,
)

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


def test_config_text_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config_text("lenght = 512\n")
    with pytest.raises(ValueError):
        parse_config_text("length 512\n")


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
    report, _ = mini_run
    rows = gap_table(report)
    assert len(rows) == len(report.labels) * len(report.config.snr_grid())
    for r in rows:
        assert r["gap"] == pytest.approx(r["pd_theory"] - r["pd_svm"])
        assert 0.0 <= r["pd_baseline"] <= 1.0


def test_gap_table_requires_complete_report(mini_run):
    from dataclasses import replace

    report, _ = mini_run
    broken = replace(report, svm={k: v for k, v in report.svm.items() if k != "d3"})
    with pytest.raises(ValueError):
        gap_table(broken)


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


def _set_curve_column(name, col, value):
    """Damage that sets every data cell of one column of a curve file."""
    def damage(out):
        path = out / name
        lines = path.read_text().splitlines()
        start = lines.index("snr_db,pd,stderr,pfa,trials,seed") + 1
        for k in range(start, len(lines)):
            cells = lines[k].split(",")
            cells[col] = value
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return damage


@pytest.mark.parametrize("damage, named", [
    (lambda out: os.remove(out / "gaps.csv"), "gaps.csv"),
    (lambda out: os.remove(out / "svm_d3.det"), "svm_d3.det"),
    # the curve file itself stays well-formed; only gaps.csv disagrees with it
    (_zero_last_baseline_pd, "gaps.csv"),
    (lambda out: shutil.copy(out / "optimum_d4.det", out / "optimum_d3.det"),
     "optimum_d3.det: layout"),
    (_set_curve_column("baseline_d3.csv", 4, "inf"), "baseline_d3.csv"),
    # well-formed curves whose trials or seed column is not the config's
    (_set_curve_column("baseline_d3.csv", 4, "7"), "baseline_d3.csv"),
    (_set_curve_column("svm_d3.csv", 5, "99"), "svm_d3.csv"),
    (_set_curve_column("theory_d3.csv", 4, "-5"), "theory_d3.csv"),
], ids=["gaps-deleted", "svm-detector-deleted", "baseline-pd-zeroed", "detector-swapped",
        "baseline-trials-infinite", "baseline-trials-changed", "svm-seed-changed",
        "theory-trials-negative"])
def test_check_rejects_damaged_outputs(mini_run, tmp_path, damage, named):
    _, out = mini_run
    bad = tmp_path / "damaged"
    shutil.copytree(out, bad)
    damage(bad)
    ok, messages = experiment_check(str(bad))
    assert not ok
    assert any(m.startswith("FAIL") and named in m for m in messages), messages


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
