"""File formats for signals, coefficient vectors, detectors, and curves.

Binary artifacts share one convention: a single ASCII header line of
semicolon-separated ``key=value`` fields, a newline, then the payload as
little-endian 64-bit floats.  One reader, ``_read_tagged``, splits that
header and decodes the payload for every binary format, and rejects a
payload holding NaN or inf.  Curves are plain CSV with ``#`` provenance
comments.  All floats are written with ``repr`` so that values round-trip
exactly and repeated runs produce byte-identical files.  A coefficient or
detector file's ``segment_bounds`` and ``steady_starts`` are derived from its
``scales``, ``signal_length`` and ``family``: a writer rejects a signal
length or family that its layout was not built for, and a reader rebuilds
the layout from those three fields and rejects a file whose stored shape
differs.
Writes go through a temporary file and an atomic rename, so readers never
observe partial artifacts.  Curve and detector bytes each have one
renderer, which ``experiment check`` also uses to compare a stored file
with what its writer would write.
"""

from __future__ import annotations

import os
import secrets
from typing import Mapping

import numpy as np

from .detector import Calibration, DetectionCurve, LinearDetector, MaxCoeffDetector
from .signals import Hypothesis, SampledSignal
from .wavelet import DetailCoefficients, ScaleLayout, parse_family

_SIGNAL_TAG = "wavedet-signal v1"
_COEFFS_TAG = "wavedet-coeffs v1"
_DETECTOR_TAG = "wavedet-detector v1"

_KIND_OF_HYP = {
    Hypothesis.TEMPLATE: "chirp",
    Hypothesis.NOISE: "noise",
    Hypothesis.OBSERVATION: "observation",
}
_HYP_OF_KIND = {v: k for k, v in _KIND_OF_HYP.items()}

# header fields each reader needs; every writer emits them
_SIGNAL_KEYS = ("length", "kind", "snr_db", "seed")
_LAYOUT_KEYS = ("scales", "segment_bounds", "steady_starts", "family", "signal_length")
_COEFFS_KEYS = ("length", *_LAYOUT_KEYS)


def _atomic_write(path: str, data: bytes) -> None:
    # "xb" on a fresh name creates the file exclusively with the umask-derived
    # mode of a plain open(); tempfile.mkstemp would force 0600
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".wavedet-{secrets.token_hex(8)}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_line(tag: str, fields: Mapping[str, str]) -> bytes:
    parts = [f"{k}={v}" for k, v in fields.items()]
    for k, part in zip(fields, parts):
        if "=" in k or "; " in part or "\n" in part:
            raise ValueError(f"header field {part!r} would not read back: '; ' and newlines "
                             "split fields, and '=' ends a key")
    return ("; ".join([tag, *parts]) + "\n").encode("ascii")


def _read_tagged(path: str, tag: str, required: tuple[str, ...]) -> tuple[dict, np.ndarray]:
    """The header fields and the finite float64 payload of one tagged binary file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing header line")
    parts = raw[:nl].decode("ascii").split("; ")
    if parts[0] != tag:
        raise ValueError(f"{path}: expected header tag {tag!r}, found {parts[0]!r}")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        k, sep, v = part.partition("=")
        if not sep or k in fields:
            raise ValueError(f"{path}: malformed or repeated header field {part!r}")
        fields[k] = v
    for k in required:
        if k not in fields:
            raise ValueError(f"{path}: header lacks the {k!r} field")
    body = raw[nl + 1 :]
    if len(body) % 8:
        raise ValueError(f"{path}: payload is not a whole number of float64 values")
    payload = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: payload holds a non-finite value")
    return fields, payload


def _opt(value) -> str:
    return "none" if value is None else repr(value)


def _parse_opt_int(s: str) -> int | None:
    return None if s == "none" else int(s)


# -- signals ----------------------------------------------------------------

def write_signal(path: str, sig: SampledSignal) -> None:
    fields = {
        "length": str(sig.length),
        "kind": _KIND_OF_HYP[sig.hypothesis],
        "snr_db": "nan" if sig.snr_db is None else repr(sig.snr_db),
        "seed": _opt(sig.seed),
    }
    payload = sig.samples.astype("<f8").tobytes()
    _atomic_write(path, _header_line(_SIGNAL_TAG, fields) + payload)


def read_signal(path: str) -> SampledSignal:
    fields, samples = _read_tagged(path, _SIGNAL_TAG, _SIGNAL_KEYS)
    if samples.shape[0] != int(fields["length"]):
        raise ValueError(f"{path}: payload length does not match header")
    kind = fields["kind"]
    if kind not in _HYP_OF_KIND:
        raise ValueError(f"{path}: unknown signal kind {kind!r}")
    snr = float(fields["snr_db"])
    return SampledSignal(
        samples=samples,
        hypothesis=_HYP_OF_KIND[kind],
        snr_db=None if np.isnan(snr) else snr,
        seed=_parse_opt_int(fields["seed"]),
    )


# -- layouts and coefficient vectors ----------------------------------------

def _layout_fields(layout: ScaleLayout, family: str, signal_length: int, path: str) -> dict:
    """Header fields of a layout, and of the family and signal length it was built for."""
    if signal_length != layout.source_length:
        raise ValueError(f"{path}: signal_length {signal_length} is not the layout's "
                         f"source length {layout.source_length}")
    if parse_family(family).length != layout.filter_length:
        raise ValueError(f"{path}: family {family} does not have the layout's filter "
                         f"length {layout.filter_length}")
    return {
        "scales": ",".join(str(s) for s in layout.scales),
        "segment_bounds": ",".join(
            f"{off}:{m}" for off, m in zip(layout.offsets, layout.seg_lengths)
        ),
        "steady_starts": ",".join(str(t) for t in layout.steady_starts),
        "family": family,
        "signal_length": str(signal_length),
    }


def _layout_from_fields(fields: Mapping[str, str], path: str) -> ScaleLayout:
    """The layout that scales, signal_length and family imply; the stored shape must match it."""
    family, n = fields["family"], int(fields["signal_length"])
    layout = ScaleLayout(tuple(int(s) for s in fields["scales"].split(",")), n,
                         parse_family(family).length)
    derived = _layout_fields(layout, family, n, path)
    for key in ("segment_bounds", "steady_starts"):
        if fields[key] != derived[key]:
            raise ValueError(f"{path}: {key}={fields[key]} is not the {derived[key]} that "
                             f"scales={fields['scales']}, signal_length={n} and "
                             f"family={family} imply")
    return layout


def write_coeffs(path: str, d: DetailCoefficients, family: str, signal_length: int) -> None:
    fields = {"length": str(d.layout.total_length)}
    fields.update(_layout_fields(d.layout, family, int(signal_length), path))
    _atomic_write(path, _header_line(_COEFFS_TAG, fields) + d.values.astype("<f8").tobytes())


def read_coeffs(path: str) -> tuple[DetailCoefficients, str, int]:
    fields, values = _read_tagged(path, _COEFFS_TAG, _COEFFS_KEYS)
    if values.shape[0] != int(fields["length"]):
        raise ValueError(f"{path}: payload length does not match header")
    layout = _layout_from_fields(fields, path)
    return (
        DetailCoefficients(values=values, layout=layout),
        fields["family"],
        int(fields["signal_length"]),
    )


# -- detectors ----------------------------------------------------------------

_DETECTOR_KEYS = (
    "kind", "detector_id", "pfa", "v_threshold", *_LAYOUT_KEYS,
    "calibration", "cal_trials", "cal_seed", "rng",
)


def write_detector(
    path: str,
    det: LinearDetector | MaxCoeffDetector,
    family: str,
    signal_length: int,
    extras: Mapping[str, str] | None = None,
) -> None:
    """Detector artifact; ``extras`` lets callers append model metadata."""
    _atomic_write(path, _detector_bytes(det, family, signal_length, extras))


def _detector_bytes(
    det: LinearDetector | MaxCoeffDetector,
    family: str,
    signal_length: int,
    extras: Mapping[str, str] | None,
) -> bytes:
    """The bytes of a detector file: the one rendering its writer and checker share."""
    fields = {
        "kind": "linear" if isinstance(det, LinearDetector) else "max-coeff",
        "detector_id": det.detector_id,
        "pfa": repr(det.target_pfa),
        "v_threshold": repr(det.v_threshold),
    }
    fields.update(_layout_fields(det.layout, family, int(signal_length), "detector"))
    cal = det.calibration
    fields["calibration"] = cal.method
    fields["cal_trials"] = _opt(cal.trials)
    fields["cal_seed"] = _opt(cal.seed)
    fields["rng"] = "none" if cal.rng_id is None else cal.rng_id
    for k, v in (extras or {}).items():
        if k in _DETECTOR_KEYS:
            raise ValueError(f"extras key {k!r} collides with a reserved detector field")
        fields[k] = str(v)
    a = det.a if isinstance(det, LinearDetector) else np.empty(0)
    return _header_line(_DETECTOR_TAG, fields) + a.astype("<f8").tobytes()


def read_detector(
    path: str,
) -> tuple[LinearDetector | MaxCoeffDetector, str, int, dict[str, str]]:
    fields, a = _read_tagged(path, _DETECTOR_TAG, _DETECTOR_KEYS)
    layout = _layout_from_fields(fields, path)
    rng = fields["rng"]
    cal = Calibration(
        method=fields["calibration"],
        trials=_parse_opt_int(fields["cal_trials"]),
        seed=_parse_opt_int(fields["cal_seed"]),
        rng_id=None if rng == "none" else rng,
    )
    extras = {k: v for k, v in fields.items() if k not in _DETECTOR_KEYS}
    common = dict(
        layout=layout,
        v_threshold=float(fields["v_threshold"]),
        target_pfa=float(fields["pfa"]),
        calibration=cal,
        detector_id=fields["detector_id"],
    )
    det: LinearDetector | MaxCoeffDetector
    if fields["kind"] == "linear":
        det = LinearDetector(a=a, **common)
    elif fields["kind"] == "max-coeff":
        if len(a):
            raise ValueError(f"{path}: a max-coefficient detector stores no weights, but "
                             f"the file holds {len(a)}; only a linear detector has weights")
        det = MaxCoeffDetector(**common)
    else:
        raise ValueError(f"{path}: unknown detector kind {fields['kind']!r}")
    return det, fields["family"], int(fields["signal_length"]), extras


# -- detection curves ---------------------------------------------------------

_CURVE_COLUMNS = "snr_db,pd,stderr,pfa,trials,seed"


def write_curve_csv(path: str, curve: DetectionCurve, provenance: Mapping[str, str]) -> None:
    _atomic_write(path, _curve_csv_bytes(curve, provenance))


def _curve_csv_bytes(curve: DetectionCurve, provenance: Mapping[str, str]) -> bytes:
    """The bytes of a curve file: the one rendering its writer and checker share."""
    lines = []
    prov = dict(provenance)
    prov.setdefault("detector_id", curve.detector_id)
    prov.setdefault("rng", curve.rng_id)
    for k in sorted(prov):
        v = f"{prov[k]}"
        line = f"# {k}={v}"
        if "=" in k or "\n" in line or "\r" in line or k != k.strip() or v != v.strip():
            raise ValueError(f"provenance line {line!r} would not read back: a line break "
                             "splits it, '=' ends a key, and a key or value may not "
                             "start or end with a blank")
        lines.append(line)
    lines.append(_CURVE_COLUMNS)
    for snr, pd, se in curve.points:
        lines.append(
            f"{snr!r},{pd!r},{se!r},{curve.pfa!r},{curve.trials_per_point},{curve.seed}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def read_curve_csv(path: str) -> tuple[DetectionCurve, dict[str, str]]:
    prov: dict[str, str] = {}
    rows: list[tuple] = []
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            k, sep, v = ln[1:].strip().partition("=")
            if sep:
                prov[k] = v
        elif ln:
            body.append(ln)
    if not body or body[0] != _CURVE_COLUMNS:
        raise ValueError(f"{path}: missing curve column header")
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != 6:
            raise ValueError(f"{path}: malformed curve row {ln!r}")
        rows.append((*(float(c) for c in cells[:4]), int(cells[4]), int(cells[5])))
    if not rows:
        raise ValueError(f"{path}: curve has no data rows")
    pfa_set = {r[3] for r in rows}
    trial_set = {r[4] for r in rows}
    seed_set = {r[5] for r in rows}
    if len(pfa_set) != 1 or len(trial_set) != 1 or len(seed_set) != 1:
        raise ValueError(f"{path}: pfa/trials/seed columns must be constant")
    curve = DetectionCurve(
        pfa=pfa_set.pop(),
        points=tuple((r[0], r[1], r[2]) for r in rows),
        detector_id=prov.get("detector_id", "unknown"),
        trials_per_point=trial_set.pop(),
        seed=seed_set.pop(),
        rng_id=prov.get("rng", "unknown"),
    )
    return curve, prov
