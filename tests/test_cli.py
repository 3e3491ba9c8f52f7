"""Command line interface smoke tests, all through main()."""

import numpy as np
import pytest

from wavedet import io
from wavedet.cli import main


@pytest.fixture
def pulse_file(tmp_path):
    path = tmp_path / "pulse.sig"
    assert main(["gen", "--kind", "chirp", "--length", "256", "--out", str(path)]) == 0
    return path


def test_gen_noise_and_observation(tmp_path):
    n = tmp_path / "n.sig"
    o = tmp_path / "o.sig"
    assert main(["gen", "--kind", "noise", "--length", "128", "--seed", "3",
                 "--out", str(n)]) == 0
    assert main(["gen", "--kind", "observation", "--length", "128", "--seed", "4",
                 "--snr-db", "-5", "--out", str(o)]) == 0
    assert io.read_signal(n).length == 128
    sig = io.read_signal(o)
    assert sig.snr_db == -5.0


def test_gen_requires_seed_for_noise(tmp_path):
    assert main(["gen", "--kind", "noise", "--length", "128",
                 "--out", str(tmp_path / "x.sig")]) == 2


def test_dwt_writes_selected_scales(tmp_path, pulse_file):
    out = tmp_path / "c.coef"
    assert main(["dwt", "--in", str(pulse_file), "--family", "db5",
                 "--levels", "4", "--scales", "3,4", "--out", str(out)]) == 0
    d, family, n = io.read_coeffs(out)
    assert family == "db5" and n == 256
    assert d.layout.scales == (3, 4)


def test_every_command_writes_the_canonical_family_name(tmp_path, pulse_file):
    # "Haar" names the db1 pair; each file records the pair under one name
    common = ["--family", "Haar", "--scales", "3,4"]
    assert main(["dwt", "--in", str(pulse_file), "--levels", "4", *common,
                 "--out", str(tmp_path / "c.coef")]) == 0
    assert main(["optimum", "--pulse", str(pulse_file), *common, "--pfa", "0.01",
                 "--out", str(tmp_path / "opt.det")]) == 0
    assert main(["train", "--pulse", str(pulse_file), *common, "--n-pos", "60", "--n-neg", "60",
                 "--pfa", "0.1", "--seed", "7", "--cal-trials", "1000",
                 "--out", str(tmp_path / "svm.det")]) == 0
    assert io.read_coeffs(tmp_path / "c.coef")[1] == "db1"
    for name in ("opt.det", "svm.det"):
        assert b"family=db1" in (tmp_path / name).read_bytes()
        assert io.read_detector(tmp_path / name)[1] == "db1"


def test_dwt_rejects_scale_beyond_levels(tmp_path, pulse_file):
    assert main(["dwt", "--in", str(pulse_file), "--levels", "3",
                 "--scales", "4", "--out", str(tmp_path / "c.coef")]) == 2
    # a 256-sample signal has 8 levels; more are rejected even if unused
    assert main(["dwt", "--in", str(pulse_file), "--levels", "99",
                 "--scales", "1", "--out", str(tmp_path / "c.coef")]) == 2


def test_optimum_then_curve(tmp_path, pulse_file):
    det = tmp_path / "opt.det"
    csv = tmp_path / "curve.csv"
    assert main(["optimum", "--pulse", str(pulse_file), "--scales", "3,4",
                 "--pfa", "0.01", "--out", str(det)]) == 0
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--snr-min", "-9", "--snr-max", "-3", "--snr-step", "3",
                 "--trials", "500", "--seed", "5", "--out", str(csv)]) == 0
    curve, prov = io.read_curve_csv(csv)
    np.testing.assert_array_equal(curve.snr_grid(), [-9.0, -6.0, -3.0])
    assert curve.trials_per_point == 500
    assert prov["family"] == "db5"
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--snr-min", "-3", "--snr-max", "-9",
                 "--trials", "500", "--seed", "5", "--out", str(csv)]) == 2
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--snr-max", "inf", "--trials", "500", "--seed", "5", "--out", str(csv)]) == 2
    # a detector file whose header lacks a field is reported, not a traceback
    header, sep, payload = det.read_bytes().partition(b"\n")
    det.write_bytes(header.replace(b"; rng=none", b"") + sep + payload)
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--trials", "500", "--seed", "5", "--out", str(csv)]) == 2


def test_curve_rejects_a_detector_relabelled_to_another_family(tmp_path, pulse_file, capsys):
    # swept through db2 filters, these db5 weights would take in 6
    # boundary-affected coefficients per scale
    det = tmp_path / "opt.det"
    assert main(["optimum", "--pulse", str(pulse_file), "--scales", "2,3", "--family", "db5",
                 "--pfa", "0.01", "--out", str(det)]) == 0
    det.write_bytes(det.read_bytes().replace(b"family=db5", b"family=db2", 1))
    capsys.readouterr()
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--trials", "500", "--seed", "1", "--out", str(tmp_path / "c.csv")]) == 2
    assert "family=db2" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_calibrate_analytic_and_mc(tmp_path, pulse_file):
    coef = tmp_path / "a.coef"
    assert main(["dwt", "--in", str(pulse_file), "--levels", "4",
                 "--scales", "3,4", "--out", str(coef)]) == 0
    an = tmp_path / "an.det"
    mc = tmp_path / "mc.det"
    assert main(["calibrate", "--a-file", str(coef), "--pfa", "0.01",
                 "--method", "analytic", "--out", str(an)]) == 0
    assert main(["calibrate", "--a-file", str(coef), "--pfa", "0.01",
                 "--method", "mc", "--trials", "20000", "--seed", "6",
                 "--out", str(mc)]) == 0
    det_an, _, _, _ = io.read_detector(an)
    det_mc, _, _, _ = io.read_detector(mc)
    assert det_an.calibration.method == "analytic"
    assert det_mc.calibration.method == "monte_carlo"
    assert abs(det_an.v_threshold - det_mc.v_threshold) < 0.15 * det_an.v_threshold


def test_train_writes_model_summary(tmp_path, pulse_file):
    det = tmp_path / "svm.det"
    assert main(["train", "--pulse", str(pulse_file), "--scales", "3,4",
                 "--n-pos", "120", "--n-neg", "120", "--pfa", "0.01",
                 "--seed", "7", "--cal-trials", "10000", "--out", str(det)]) == 0
    model, family, n, extras = io.read_detector(det)
    assert model.detector_id.startswith("svm-")
    assert "dual_objective" in extras and "support_count" in extras
    assert extras["converged"] == "True"


def test_experiment_run_and_check(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "length = 256\n"
        "scale_sets = 3; 4\n"
        "pfa = 0.01\n"
        "snr_min = -9.0\n"
        "snr_max = -3.0\n"
        "snr_step = 3.0\n"
        "trials_per_point = 600\n"
        "cal_trials = 10000\n"
        "n_pos = 150\n"
        "n_neg = 150\n"
        "c_grid = 1.0:10.0\n"
        "seed = 11\n"
    )
    out = tmp_path / "run"
    assert main(["experiment", "run", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    # the run prints the body of checks.txt, its verdict followed by the directory
    printed = capsys.readouterr().out.splitlines()
    body = (out / "checks.txt").read_text().splitlines()[1:]
    assert printed == body[:-1] + [f"{body[-1]} -> {out}"]
    assert main(["experiment", "check", "--out-dir", str(out)]) == 0
    # invalidate and re-check
    text = (out / "checks.txt").read_text().replace("\nVALID", "\nINVALID")
    (out / "checks.txt").write_text(text)
    assert main(["experiment", "check", "--out-dir", str(out)]) == 1


def test_default_config_prints(capsys):
    assert main(["experiment", "default-config"]) == 0
    printed = capsys.readouterr().out
    assert "length = 1024" in printed
    assert "scale_sets = 3; 4; 5; 6; 4,5,6; 3,4,5,6" in printed


def test_unreadable_file_is_reported(tmp_path):
    assert main(["dwt", "--in", str(tmp_path / "nope.sig"), "--levels", "2",
                 "--out", str(tmp_path / "o.coef")]) == 2


def test_gen_rejects_a_non_finite_snr(tmp_path):
    out = tmp_path / "o.sig"
    assert main(["gen", "--kind", "observation", "--length", "256", "--seed", "1",
                 "--snr-db", "inf", "--out", str(out)]) == 2
    assert not out.exists()


def test_gen_rejects_an_amplitude_that_overflows(tmp_path, capsys):
    # sigma_n = 1e200 is a valid noise model, but A = 10**(snr/20) * sigma_n**2 is not finite
    out = tmp_path / "o.sig"
    assert main(["gen", "--kind", "observation", "--length", "64", "--sigma", "1e200",
                 "--snr-db", "0", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_dwt_rejects_non_finite_samples(tmp_path, pulse_file):
    raw = pulse_file.read_bytes()
    bad = tmp_path / "bad.sig"
    bad.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    assert main(["dwt", "--in", str(bad), "--levels", "4",
                 "--out", str(tmp_path / "c.coef")]) == 2


def test_curve_rejects_a_max_coeff_detector_with_a_nan_threshold(tmp_path, pulse_file, pipe34,
                                                                   noise):
    from wavedet import calibrate_max_coeff

    det = tmp_path / "m.det"
    io.write_detector(det, calibrate_max_coeff(pipe34, noise, 0.05, 2000, seed=1), "db5", 256)
    header, sep, payload = det.read_bytes().partition(b"\n")
    start = header.index(b"v_threshold=")
    end = header.index(b";", start)
    det.write_bytes(header[:start] + b"v_threshold=nan" + header[end:] + sep + payload)
    with pytest.raises(ValueError, match="v_threshold"):
        io.read_detector(det)
    assert main(["curve", "--detector-file", str(det), "--pulse", str(pulse_file),
                 "--trials", "500", "--seed", "5", "--out", str(tmp_path / "c.csv")]) == 2
