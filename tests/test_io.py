"""Artifact format round trips and header validation."""

import dataclasses
import os

import numpy as np
import pytest

from wavedet import (
    RNG_ID,
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

# files written by an earlier version of the writers, to pin the format:
# never regenerate them, since their float payload depends on how BLAS rounds
DATA = os.path.join(os.path.dirname(__file__), "data")


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


def test_writers_reject_a_mismatched_signal_length(tmp_path, pipe34, pulse256, noise):
    # the layout of a 256-sample signal cannot describe a 512-sample one
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    for name, write, arg in (("c.coef", io.write_coeffs, d), ("d.det", io.write_detector, det)):
        with pytest.raises(ValueError, match="signal_length"):
            write(tmp_path / name, arg, "db5", 512)
        assert not (tmp_path / name).exists()


def test_readers_reject_a_mismatched_signal_length(tmp_path, pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    cases = (("c.coef", io.write_coeffs, d, io.read_coeffs),
             ("d.det", io.write_detector, det, io.read_detector))
    for name, write, arg, read in cases:
        p = tmp_path / name
        write(p, arg, "db5", 256)
        p.write_bytes(p.read_bytes().replace(b"signal_length=256", b"signal_length=512", 1))
        with pytest.raises(ValueError, match="signal_length"):
            read(p)


def test_writers_reject_a_family_the_layout_was_not_built_for(tmp_path, pipe34, pulse256,
                                                              noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    for name, write, arg in (("c.coef", io.write_coeffs, d), ("d.det", io.write_detector, det)):
        with pytest.raises(ValueError, match="family db2"):
            write(tmp_path / name, arg, "db2", 256)
        assert not (tmp_path / name).exists()


def test_readers_reject_a_stored_shape_the_header_does_not_imply(tmp_path, pipe34, pulse256,
                                                                 noise):
    # segment_bounds and steady_starts follow from scales, signal_length and
    # family; db5 weights read as db2 ones would start the steady ranges at 4,
    # letting 6 boundary-affected coefficients per scale into a statistic
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    edits = (
        (b"family=db5", b"family=db2", "steady_starts=10,10 is not the 4,4 .* family=db2"),
        (b"steady_starts=10,10", b"steady_starts=0,0", "steady_starts=0,0"),
        (b"segment_bounds=0:32,32:16", b"segment_bounds=0:16,16:32",
         "segment_bounds=0:16,16:32"),
    )
    cases = (("c.coef", io.write_coeffs, d, io.read_coeffs),
             ("d.det", io.write_detector, det, io.read_detector))
    for name, write, arg, read in cases:
        p = tmp_path / name
        write(p, arg, "db5", 256)
        raw = p.read_bytes()
        for old, new, message in edits:
            p.write_bytes(raw.replace(old, new, 1))
            with pytest.raises(ValueError, match=message):
                read(p)


def test_pinned_files_read_back_and_render_to_the_same_bytes(tmp_path):
    for name in ("optimum_d3_4.det", "baseline_d3_4.det", "chirp64_db2_d4_2.coef"):
        path = os.path.join(DATA, name)
        if name.endswith(".det"):
            det, family, n, extras = io.read_detector(path)
            io.write_detector(tmp_path / name, det, family, n, extras)
        else:
            d, family, n = io.read_coeffs(path)
            # stored in the order 4, 2; level 4 of 64 samples has only as many
            # coefficients as db2 has taps, so none of them is steady
            assert d.layout.seg_lengths == (4, 16) and d.layout.steady_starts == (4, 4)
            io.write_coeffs(tmp_path / name, d, family, n)
        with open(path, "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


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
    assert back.calibration.rng_id == RNG_ID
    # a file's own rng reads back as it is
    p.write_bytes(p.read_bytes().replace(f"rng={RNG_ID}".encode(), b"rng=other/v0", 1))
    assert io.read_detector(p)[0].calibration.rng_id == "other/v0"
    # the writer stores no weights for this kind, so a float after its
    # header is not the writer's
    p.write_bytes(p.read_bytes() + np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="stores no weights, but the file holds 3;"):
        io.read_detector(p)


def test_detector_extras_cannot_shadow_core_keys(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-3, noise)
    with pytest.raises(ValueError):
        io.write_detector(tmp_path / "d.det", det, "db5", 256,
                          extras={"pfa": "0.5"})


def test_header_fields_cannot_inject_other_fields(tmp_path, pipe34, pulse256, noise):
    # "; " starts a field on read: this note would turn the file's kind from
    # linear to max-coeff, and a key holding "=" would read back as another key
    det = dataclasses.replace(optimum_a(pipe34.details_of(pulse256), 1e-3, noise),
                              calibration=Calibration("monte_carlo", 10_000, 1, RNG_ID))
    for extras in ({"note": "x; kind=max-coeff"}, {"note; kind": "x"}, {"a=b": "x"},
                   {"note": "x\ny"}):
        with pytest.raises(ValueError, match="would not read back"):
            io.write_detector(tmp_path / "d.det", det, "db5", 256, extras=extras)
        assert not (tmp_path / "d.det").exists()
    # nor may a reader let a repeated field override the first
    p = tmp_path / "d.det"
    io.write_detector(p, det, "db5", 256)
    header, sep, payload = p.read_bytes().partition(b"\n")
    p.write_bytes(header + b"; kind=max-coeff" + sep + payload)
    with pytest.raises(ValueError, match="repeated header field 'kind=max-coeff'"):
        io.read_detector(p)


def test_provenance_cannot_inject_other_lines(tmp_path, pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, (-6.0,), noise, 500, 13, pipe34)
    # a line break starts a provenance line of its own: this one would read
    # back as the curve of another detector
    for prov in ({"family": "db5\n# detector_id=baseline-d3"}, {"family": "db5\rx=y"},
                 {"a=b": "x"}, {"a\nb": "x"},
                 # the reader strips a line's blanks, so these would lose theirs
                 {"family": "db5 "}, {" note": "x"}):
        with pytest.raises(ValueError, match="would not read back"):
            io.write_curve_csv(tmp_path / "c.csv", curve, prov)
        assert not (tmp_path / "c.csv").exists()


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


def test_readers_reject_a_non_finite_payload(tmp_path, pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    coef, det = tmp_path / "c.coef", tmp_path / "d.det"
    io.write_coeffs(coef, d, "db5", 256)
    io.write_detector(det, optimum_a(d, 1e-3, noise), "db5", 256)
    # the last payload value is a steady weight of the detector
    for p, read in ((coef, io.read_coeffs), (det, io.read_detector)):
        raw = p.read_bytes()
        for bad in (np.nan, np.inf, -np.inf):
            p.write_bytes(raw[:-8] + np.array([bad], dtype="<f8").tobytes())
            with pytest.raises(ValueError, match="non-finite"):
                read(p)


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
