"""File formats for latent clouds, labels, and pipeline documents.

Binary latent files carry a 4-byte tag, a little-endian u32 format version,
row and column counts as little-endian u64, and the row-major float64
payload; the declared counts must match the payload exactly. Files named
``*.csv`` use a text alternative with a ``dim0,dim1,...`` header. Labels are
one nonnegative integer per line and must cover a contiguous range starting
at 0. Pipeline documents are one line of JSON whose floats are spelled in the
shortest form that round-trips binary64 exactly, so reruns are byte-identical;
older multi-line documents with 17-digit floats load to the same values. Every
writer renames a finished temporary file over its target, so an interrupted
run leaves either the old file or the new one.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import BoundReport, SdeSpec
from .errors import (
    BadMagic,
    EmptyFile,
    LatentFileError,
    NonFiniteValue,
    TruncatedFile,
)
from .measures import as_label_array

MAGIC = b"OQDL"
BINARY_VERSION = 1
HEADER_SIZE = 4 + 4 + 8 + 8
DOCUMENT_VERSION = 1
DISTILLATION_FORMAT = "quantdistill.distillation"
TRANSPORTED_FORMAT = "quantdistill.transported"
TRAIN_REPORT_FORMAT = "quantdistill.train_report"
VERIFICATION_FORMAT = "quantdistill.verification"
RATE_SCAN_FORMAT = "quantdistill.rate_scan"


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def render_json(obj) -> str:
    """One line of JSON, keys in insertion order, shortest round-trip floats.

    NumPy arrays and scalars are written as their ``tolist()`` values;
    non-finite floats use the ``NaN`` and ``Infinity`` tokens.
    """
    return json.dumps(obj, default=_json_default)


def _write_atomically(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_latents(path, points) -> None:
    """Write a point cloud in the binary format, or CSV for ``*.csv`` paths."""
    path = Path(path)
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("points must be a nonempty 2-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    if path.suffix == ".csv":
        header = ",".join(f"dim{i}" for i in range(arr.shape[1]))
        lines = [header]
        lines.extend(",".join(map(repr, row)) for row in arr.tolist())
        _write_atomically(path, ("\n".join(lines) + "\n").encode())
        return
    payload = (
        MAGIC
        + struct.pack("<I", BINARY_VERSION)
        + struct.pack("<Q", arr.shape[0])
        + struct.pack("<Q", arr.shape[1])
        + arr.astype("<f8").tobytes(order="C")
    )
    _write_atomically(path, payload)


def _load_latents_csv(path: Path) -> np.ndarray:
    lines = [(n, line) for n, line in enumerate(path.read_text().splitlines(), 1)
             if line.strip()]
    if not lines:
        raise EmptyFile(f"{path}: no content")
    header = [c.strip() for c in lines[0][1].split(",")]
    expected = [f"dim{i}" for i in range(len(header))]
    if header != expected:
        raise BadMagic(f"{path}: header must be {','.join(expected)!r}")
    if len(lines) == 1:
        raise EmptyFile(f"{path}: no data rows")
    dim = len(header)
    rows = np.empty((len(lines) - 1, dim))
    for r, (number, line) in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != dim:
            raise TruncatedFile(
                f"{path}: line {number} has {len(parts)} values, header declares {dim}"
            )
        for c, token in enumerate(parts):
            try:
                rows[r, c] = float(token)
            except ValueError:
                raise NonFiniteValue(
                    f"{path}: line {number} column {c} is not a number: {token.strip()!r}"
                ) from None
    if not np.all(np.isfinite(rows)):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise NonFiniteValue(f"{path}: line {lines[bad + 1][0]} holds NaN or infinite entries")
    return rows


def load_latents(path) -> np.ndarray:
    """Read a point cloud saved by :func:`save_latents`.

    Raises
    ------
    EmptyFile, BadMagic, TruncatedFile, NonFiniteValue
        For missing content, a wrong tag or version, counts that disagree
        with the payload, and non-finite entries; the last names the first
        bad row (0-based in a binary file, its file line in a CSV file).
    """
    path = Path(path)
    if path.suffix == ".csv":
        return _load_latents_csv(path)
    data = path.read_bytes()
    if len(data) == 0:
        raise EmptyFile(f"{path}: no content")
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic(f"{path}: not a latent file (bad leading tag)")
    if len(data) < HEADER_SIZE:
        raise TruncatedFile(f"{path}: incomplete header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != BINARY_VERSION:
        raise BadMagic(f"{path}: unsupported format version {version}")
    (rows,) = struct.unpack_from("<Q", data, 8)
    (cols,) = struct.unpack_from("<Q", data, 16)
    if rows == 0 or cols == 0:
        raise EmptyFile(f"{path}: declares no data ({rows} rows, {cols} columns)")
    expected = HEADER_SIZE + rows * cols * 8
    if len(data) != expected:
        raise TruncatedFile(
            f"{path}: {len(data)} bytes on disk, header declares {expected}"
        )
    arr = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=HEADER_SIZE)
    arr = arr.astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(arr)):
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]
        raise NonFiniteValue(f"{path}: row {bad} (0-based) holds NaN or infinite entries")
    return arr


def save_labels(path, labels) -> None:
    """Write one label per line; the labels must form the range 0..C-1."""
    labels = as_label_array(labels)
    _write_atomically(path, ("\n".join(str(int(v)) for v in labels) + "\n").encode())


def load_labels(path, n_expected: int | None = None) -> np.ndarray:
    """Read one label per line; validates the count and ``as_label_array``, naming bad lines."""
    path = Path(path)
    lines = [(n, line.strip()) for n, line in enumerate(path.read_text().splitlines(), 1)
             if line.strip()]
    if not lines:
        raise EmptyFile(f"{path}: no content")
    values = np.empty(len(lines), dtype=np.intp)
    for i, (number, line) in enumerate(lines):
        try:
            values[i] = int(line)
        except ValueError:
            raise LatentFileError(f"{path}: line {number} is not an integer: {line!r}") from None
    if n_expected is not None and values.shape[0] != n_expected:
        raise TruncatedFile(
            f"{path}: {values.shape[0]} labels for {n_expected} points"
        )
    negative = np.flatnonzero(values < 0)
    if negative.size:
        number, line = lines[negative[0]]
        raise LatentFileError(f"{path}: labels must be nonnegative, line {number} holds {line}")
    try:
        return as_label_array(values)
    except ValueError as exc:
        raise LatentFileError(f"{path}: {exc}") from None


def _finite_array(doc_values, name: str, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(doc_values, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} holds non-finite values")
    return arr


@dataclass(frozen=True)
class ClassQuantization:
    """One class's distilled centroids with counts and both weight vectors."""

    label: int
    centroids: np.ndarray
    counts: np.ndarray
    weights: np.ndarray
    variance_reduced: np.ndarray

    def to_document(self) -> dict:
        return {
            "label": int(self.label),
            "centroids": self.centroids,
            "counts": [int(v) for v in self.counts],
            "weights": self.weights,
            "variance_reduced": self.variance_reduced,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ClassQuantization":
        return cls(
            label=int(doc["label"]),
            centroids=_finite_array(doc["centroids"], "centroids"),
            counts=_finite_array(doc["counts"], "counts"),
            weights=_finite_array(doc["weights"], "weights"),
            variance_reduced=_finite_array(doc["variance_reduced"], "variance_reduced"),
        )


@dataclass(frozen=True)
class DistillationResult:
    """Per-class weighted quantization of a labeled latent cloud."""

    seed: int
    per_class: int
    dim: int
    schedule: str
    batch_size: int
    n_iterations: int
    init_strategy: str
    classes: tuple[ClassQuantization, ...]

    def to_document(self) -> dict:
        return {
            "seed": int(self.seed),
            "per_class": int(self.per_class),
            "dim": int(self.dim),
            "schedule": self.schedule,
            "batch_size": int(self.batch_size),
            "n_iterations": int(self.n_iterations),
            "init_strategy": self.init_strategy,
            "classes": [c.to_document() for c in self.classes],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "DistillationResult":
        return cls(
            seed=int(doc["seed"]),
            per_class=int(doc["per_class"]),
            dim=int(doc["dim"]),
            schedule=str(doc["schedule"]),
            batch_size=int(doc["batch_size"]),
            n_iterations=int(doc["n_iterations"]),
            init_strategy=str(doc["init_strategy"]),
            classes=tuple(ClassQuantization.from_document(c) for c in doc["classes"]),
        )


def report_to_document(report: BoundReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "mc_stderr": report.mc_stderr,
        "ratio": report.ratio,
        "passed": bool(report.passed),
        "wasserstein": report.wasserstein,
        "constant": report.constant,
        "lipschitz_bound": report.lipschitz_bound,
    }


def report_from_document(doc: dict) -> BoundReport:
    return BoundReport(
        lhs=float(doc["lhs"]),
        rhs=float(doc["rhs"]),
        mc_stderr=float(doc["mc_stderr"]),
        ratio=float(doc["ratio"]),
        passed=bool(doc["passed"]),
        wasserstein=float(doc["wasserstein"]),
        constant=float(doc["constant"]),
        lipschitz_bound=float(doc["lipschitz_bound"]),
    )


@dataclass(frozen=True)
class ClassTransport:
    """One class's transported cloud and its stability report."""

    label: int
    atoms: np.ndarray
    weights: np.ndarray
    report: BoundReport

    def to_document(self) -> dict:
        return {
            "label": int(self.label),
            "atoms": self.atoms,
            "weights": self.weights,
            "report": report_to_document(self.report),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ClassTransport":
        return cls(
            label=int(doc["label"]),
            atoms=_finite_array(doc["atoms"], "atoms"),
            weights=_finite_array(doc["weights"], "weights"),
            report=report_from_document(doc["report"]),
        )


@dataclass(frozen=True)
class TransportedResult:
    """Reverse-transported distillation with per-class bound reports."""

    seed: int
    sde: SdeSpec
    n_mc: int
    test_function: str
    classes: tuple[ClassTransport, ...]

    def to_document(self) -> dict:
        return {
            "seed": int(self.seed),
            "process": {
                "kind": self.sde.kind,
                "horizon": self.sde.horizon,
                "early_stop": self.sde.early_stop,
                "n_steps": int(self.sde.n_steps),
            },
            "n_mc": int(self.n_mc),
            "test_function": self.test_function,
            "classes": [c.to_document() for c in self.classes],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "TransportedResult":
        proc = doc["process"]
        sde = SdeSpec(
            kind=str(proc["kind"]),
            horizon=float(proc["horizon"]),
            early_stop=float(proc["early_stop"]),
            n_steps=int(proc["n_steps"]),
        )
        return cls(
            seed=int(doc["seed"]),
            sde=sde,
            n_mc=int(doc["n_mc"]),
            test_function=str(doc["test_function"]),
            classes=tuple(ClassTransport.from_document(c) for c in doc["classes"]),
        )


@dataclass(frozen=True)
class TrainReport:
    """Outcome of weighted training on a distilled cloud."""

    seed: int
    model: str
    weight_mode: str
    learning_rate: float
    epochs: int
    final_loss: float
    train_accuracy: float
    eval_accuracy: float | None
    theta: np.ndarray

    def to_document(self) -> dict:
        return {
            "seed": int(self.seed),
            "model": self.model,
            "weight_mode": self.weight_mode,
            "learning_rate": self.learning_rate,
            "epochs": int(self.epochs),
            "final_loss": self.final_loss,
            "train_accuracy": self.train_accuracy,
            "eval_accuracy": self.eval_accuracy,
            "theta": self.theta,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "TrainReport":
        eval_acc = doc["eval_accuracy"]
        return cls(
            seed=int(doc["seed"]),
            model=str(doc["model"]),
            weight_mode=str(doc["weight_mode"]),
            learning_rate=float(doc["learning_rate"]),
            epochs=int(doc["epochs"]),
            final_loss=float(doc["final_loss"]),
            train_accuracy=float(doc["train_accuracy"]),
            eval_accuracy=None if eval_acc is None else float(eval_acc),
            theta=_finite_array(doc["theta"], "theta"),
        )


def save_document(path, fmt: str, body: dict) -> None:
    """Write ``body`` after a ``format`` tag and ``format_version``, as one JSON line."""
    doc = {"format": fmt, "format_version": DOCUMENT_VERSION, **body}
    _write_atomically(path, (render_json(doc) + "\n").encode())


def load_document(path, fmt: str) -> dict:
    """Read a document written by :func:`save_document` with the ``fmt`` tag.

    Raises
    ------
    EmptyFile, LatentFileError, BadMagic
        For a blank file, text that is not JSON, and a wrong tag or version.
    """
    path = Path(path)
    text = path.read_text()
    if not text.strip():
        raise EmptyFile(f"{path}: no content")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatentFileError(f"{path}: invalid JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise BadMagic(f"{path}: not a {fmt} document")
    if doc.get("format_version") != DOCUMENT_VERSION:
        raise BadMagic(f"{path}: unsupported document version")
    return doc


def save_distillation(path, result: DistillationResult) -> None:
    save_document(path, DISTILLATION_FORMAT, result.to_document())


def load_distillation(path) -> DistillationResult:
    doc = load_document(path, DISTILLATION_FORMAT)
    try:
        return DistillationResult.from_document(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise LatentFileError(f"{path}: malformed distillation document: {exc}") from None


def save_transported(path, result: TransportedResult) -> None:
    save_document(path, TRANSPORTED_FORMAT, result.to_document())


def load_transported(path) -> TransportedResult:
    doc = load_document(path, TRANSPORTED_FORMAT)
    try:
        return TransportedResult.from_document(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise LatentFileError(f"{path}: malformed transported document: {exc}") from None


def save_train_report(path, report: TrainReport) -> None:
    save_document(path, TRAIN_REPORT_FORMAT, report.to_document())


def load_train_report(path) -> TrainReport:
    doc = load_document(path, TRAIN_REPORT_FORMAT)
    try:
        return TrainReport.from_document(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise LatentFileError(f"{path}: malformed train report: {exc}") from None
