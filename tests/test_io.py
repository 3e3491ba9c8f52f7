"""Artifact format round trips and header validation."""

import os

import numpy as np
import pytest

from wavedet import (
    Calibration,
    DetectionCurve,
    LinearDetector,
    NoiseModel,
    make_noise,
    make_observation,
    optimum_a,
    sweep_curve,
)
from wavedet import io


def test_signal_round_trip_template(tmp_path, pulse256):
    p = tmp_path / "pulse.sig"
    io.write_signal(p, pulse256)
    back = io.read_signal(p)
    np.testing.assert_array_equal(back.samples, pulse256.samples)
    assert back.hypothesis == pulse256.hypothesis
    assert back.snr_db is None and back.seed is None


def test_signal_round_trip_observation(tmp_path, pulse256, noise):
    obs = make_observation(pulse256, -7.5, noise, seed=99)
    p = tmp_path / "obs.sig"
    io.write_signal(p, obs)
    back = io.read_signal(p)
    np.testing.assert_array_equal(back.samples, obs.samples)
    assert back.snr_db == -7.5
    assert back.seed == 99
    assert back.hypothesis == obs.hypothesis


def test_signal_header_is_single_ascii_line(tmp_path, noise):
    sig = make_noise(64, noise, seed=5)
    p = tmp_path / "n.sig"
    io.write_signal(p, sig)
    header = p.read_bytes().split(b"\n", 1)[0].decode("ascii")
    assert header.startswith("wavedet-signal v1;")
    assert "length=64" in header
    assert "kind=noise" in header
    assert "seed=5" in header


def test_signal_rejects_corrupt_header(tmp_path, pulse256):
    p = tmp_path / "x.sig"
    io.write_signal(p, pulse256)
    data = p.read_bytes()
    bad = tmp_path / "bad.sig"
    bad.write_bytes(b"other-tag v9" + data[data.index(b";") :])
    with pytest.raises(ValueError):
        io.read_signal(bad)


def test_readers_reject_a_missing_header_field(tmp_path, pipe34, pulse256, noise):
    # a file lacking a field is malformed (ValueError), not a KeyError
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    cases = (
        ("rng", io.write_detector, (det, "db5", 256), io.read_detector),
        ("seed", io.write_signal, (pulse256,), io.read_signal),
        ("family", io.write_coeffs, (d, "db5", 256), io.read_coeffs),
    )
    for key, write, args, read in cases:
        p = tmp_path / f"no-{key}"
        write(p, *args)
        header, sep, payload = p.read_bytes().partition(b"\n")
        kept = [f for f in header.split(b"; ") if not f.startswith(key.encode() + b"=")]
        p.write_bytes(b"; ".join(kept) + sep + payload)
        with pytest.raises(ValueError, match=key):
            read(p)


def test_signal_rejects_truncated_payload(tmp_path, pulse256):
    p = tmp_path / "x.sig"
    io.write_signal(p, pulse256)
    data = p.read_bytes()
    bad = tmp_path / "short.sig"
    bad.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        io.read_signal(bad)


def test_coeffs_round_trip(tmp_path, pipe34, pulse256):
    d = pipe34.details_of(pulse256)
    p = tmp_path / "c.coef"
    io.write_coeffs(p, d, "db5", 256)
    back, family, n = io.read_coeffs(p)
    assert family == "db5" and n == 256
    np.testing.assert_array_equal(back.values, d.values)
    assert back.layout == d.layout


def test_detector_round_trip(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-3, noise)
    p = tmp_path / "d.det"
    io.write_detector(p, det, "db5", 256, extras={"note": "hello"})
    back, family, n, extras = io.read_detector(p)
    assert (family, n) == ("db5", 256)
    assert extras["note"] == "hello"
    np.testing.assert_array_equal(back.a, det.a)
    assert back.v_threshold == det.v_threshold
    assert back.target_pfa == det.target_pfa
    assert back.layout == det.layout
    assert back.detector_id == det.detector_id
    assert back.calibration == det.calibration


def test_detector_round_trip_max_coeff(tmp_path, pipe34, noise):
    from wavedet import calibrate_max_coeff

    det = calibrate_max_coeff(pipe34, noise, 0.02, 10_000, seed=1)
    p = tmp_path / "m.det"
    io.write_detector(p, det, "db5", 256)
    back, _, _, _ = io.read_detector(p)
    assert type(back).__name__ == "MaxCoeffDetector"
    assert back.v_threshold == det.v_threshold
    assert back.calibration == det.calibration


def test_detector_extras_cannot_shadow_core_keys(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-3, noise)
    with pytest.raises(ValueError):
        io.write_detector(tmp_path / "d.det", det, "db5", 256,
                          extras={"pfa": "0.5"})


def test_curve_round_trip_exact_floats(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, (-9.0, -6.0, -3.0), noise, 500, 13, pipe34)
    p = tmp_path / "c.csv"
    io.write_curve_csv(p, curve, {"family": "db5"})
    back, prov = io.read_curve_csv(p)
    assert back.points == curve.points  # repr round trip is lossless
    assert back.pfa == curve.pfa
    assert back.detector_id == curve.detector_id
    assert back.trials_per_point == curve.trials_per_point
    assert back.seed == curve.seed
    assert prov["family"] == "db5"
    assert prov["rng"] == curve.rng_id


def test_curve_csv_layout(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, (-6.0,), noise, 500, 13, pipe34)
    p = tmp_path / "c.csv"
    io.write_curve_csv(p, curve, {})
    lines = p.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "snr_db,pd,stderr,pfa,trials,seed"
    assert len(data) == 2


def test_curve_rejects_inconsistent_metadata_columns(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, (-9.0, -6.0), noise, 500, 13, pipe34)
    p = tmp_path / "c.csv"
    io.write_curve_csv(p, curve, {})
    lines = p.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[3] = "0.5"  # pfa column must be constant
    lines[-1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        io.read_curve_csv(bad)


def test_writes_are_atomic(tmp_path, pulse256):
    p = tmp_path / "sig.sig"
    io.write_signal(p, pulse256)
    io.write_signal(p, pulse256)  # overwrite in place
    leftovers = [f for f in os.listdir(tmp_path) if f != "sig.sig"]
    assert leftovers == []


def test_written_files_follow_the_umask(tmp_path, pulse256):
    p = tmp_path / "sig.sig"
    old = os.umask(0o022)
    try:
        io.write_signal(p, pulse256)
    finally:
        os.umask(old)
    assert os.stat(p).st_mode & 0o777 == 0o644


def test_signal_rejects_non_finite_payload(tmp_path, noise):
    p = tmp_path / "n.sig"
    io.write_signal(p, make_noise(64, noise, seed=2))
    p.write_bytes(p.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="finite"):
        io.read_signal(p)


def test_signal_rejects_a_non_finite_snr_header(tmp_path, pulse256, noise):
    p = tmp_path / "o.sig"
    io.write_signal(p, make_observation(pulse256, -3.0, noise, seed=2))
    raw = p.read_bytes()
    # nan is the header's "no SNR", which an observation cannot have
    for bad in (b"inf", b"-inf", b"nan"):
        p.write_bytes(raw.replace(b"snr_db=-3.0;", b"snr_db=" + bad + b";", 1))
        with pytest.raises(ValueError, match="snr_db"):
            io.read_signal(p)


def test_curve_rejects_a_non_finite_snr_row(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, (-9.0, -6.0), noise, 500, 13, pipe34)
    p = tmp_path / "c.csv"
    io.write_curve_csv(p, curve, {})
    lines = p.read_text().splitlines()
    lines[-1] = "nan" + lines[-1][lines[-1].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        io.read_curve_csv(bad)
