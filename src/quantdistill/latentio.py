"""File formats for latent clouds, labels, and pipeline documents.

Binary latent files carry a 4-byte tag, a little-endian u32 format version,
row and column counts as little-endian u64, and the row-major float64
payload; the declared counts must match the payload exactly. One reader,
``LatentReader``, checks the header against the size on disk once, then reads
any set of rows (one ``os.preadv`` per run of consecutive rows) and checks
their finiteness; ``load_latents`` is that reader reading every row. So the
pipeline stages read a binary cloud a class or a block at a time, and only
``w2`` holds a whole one. Files named ``*.csv`` use a text alternative with a
``dim0,dim1,...`` header and are always read whole. Labels are one
nonnegative integer per line and must cover a contiguous range starting at 0.
Pipeline documents are one line of JSON whose floats are spelled in the
shortest form that round-trips binary64 exactly, so reruns are byte-identical.
After its ``format`` tag and ``format_version`` (2), a result document is its
dataclass's fields in declaration order (a ``TransportedResult`` keeps its
``SdeSpec`` under ``process``), read back by following the field annotations.
Each array field is one object, ``{"dtype": "<f8" | "<i8", "shape": [...],
"base64": "..."}``: the array's little-endian bytes in base64, so its values
are exact by construction (distilled ``counts`` are ``"<i8"``). Version 1
documents, whose arrays are nested decimal lists, still load to the same
values, and so do older multi-line ones with 17-digit floats. Rate-scan and
verification documents keep their arrays as decimal lists. Every writer
renames a finished temporary file over its target, so an interrupted run
leaves either the old file or the new one.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import math
import os
import struct
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import BoundReport, SdeSpec
from .errors import (
    BadMagic,
    EmptyFile,
    LatentFileError,
    NonFiniteValue,
    QuantDistillError,
    TruncatedFile,
)
from .measures import _all_finite, _first_nonfinite_row, as_label_array, as_point_array

MAGIC = b"OQDL"
BINARY_VERSION = 1
HEADER_SIZE = 4 + 4 + 8 + 8
DOCUMENT_VERSION = 2
# Version 1 spelled result arrays as nested decimal lists.
READABLE_DOCUMENT_VERSIONS = (1, DOCUMENT_VERSION)
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
    """Write ``data`` beside ``path``, then rename it over ``path``; an ``OSError`` names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def save_latents(path, points) -> None:
    """Write a point cloud in the binary format, or CSV for ``*.csv`` paths."""
    path = Path(path)
    arr = as_point_array(points)
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
    bad = _first_nonfinite_row(rows)
    if bad is not None:
        raise NonFiniteValue(f"{path}: line {lines[bad + 1][0]} holds NaN or infinite entries")
    return rows


class LatentReader:
    """A binary latent file, open, whose header was checked once against its size.

    ``shape`` is ``(rows, columns)`` as the header declares them.
    ``read_rows`` reads any set of rows, one ``os.preadv`` per run of
    consecutive rows, and checks that what it read is finite. Close the
    reader, or use it as a context manager. Every read names its own
    offset, so forked processes can read through the reader they inherit.

    Raises
    ------
    EmptyFile, BadMagic, TruncatedFile
        For a file with no content or no declared data, a wrong tag or
        version, and a size that disagrees with the declared counts.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._file = open(self.path, "rb", buffering=0)
        try:
            self.shape = self._check_header()
        except BaseException:
            self._file.close()
            raise

    def _check_header(self) -> tuple[int, int]:
        path = self.path
        header = self._file.read(HEADER_SIZE)
        size = os.fstat(self._file.fileno()).st_size
        if size == 0:
            raise EmptyFile(f"{path}: no content")
        if header[:4] != MAGIC:
            raise BadMagic(f"{path}: not a latent file (bad leading tag)")
        if len(header) < HEADER_SIZE:
            raise TruncatedFile(f"{path}: incomplete header")
        version, rows, cols = struct.unpack("<IQQ", header[4:])
        if version != BINARY_VERSION:
            raise BadMagic(f"{path}: unsupported format version {version}")
        if rows == 0 or cols == 0:
            raise EmptyFile(f"{path}: declares no data ({rows} rows, {cols} columns)")
        expected = HEADER_SIZE + rows * cols * 8
        if size != expected:
            raise TruncatedFile(
                f"{path}: {size} bytes on disk, header declares {expected}"
            )
        return rows, cols

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def read_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` of the file, as a new ``(m, columns)`` float64 array.

        ``rows`` is a 1-d sequence of 0-based row numbers in any order.

        Raises
        ------
        IndexError
            If a row number lies outside the file.
        TruncatedFile
            If the file ends before a row, for instance cut short since
            it was opened.
        NonFiniteValue
            Naming the file and the 0-based file row of the first row read
            that holds a NaN or an infinity.
        """
        n, d = self.shape
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-d, got shape {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"{self.path}: rows must lie in 0..{n - 1}")
        block = np.empty((rows.size, d))
        data = memoryview(block).cast("B")
        row_bytes = d * 8
        edges = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), rows.size]
        for i, j in zip(edges[:-1], edges[1:]):
            if i < j:
                self._read_into(data[i * row_bytes : j * row_bytes], int(rows[i]))
        if sys.byteorder == "big":
            block.byteswap(inplace=True)
        bad = _first_nonfinite_row(block)
        if bad is not None:
            raise NonFiniteValue(
                f"{self.path}: row {rows[bad]} (0-based) holds NaN or infinite entries"
            )
        return block

    def _read_into(self, view: memoryview, row: int) -> None:
        """Fill ``view`` from the payload starting at ``row``; a large read may come in parts."""
        offset = HEADER_SIZE + row * self.shape[1] * 8
        while view:
            if hasattr(os, "preadv"):
                got = os.preadv(self._file.fileno(), [view], offset)
            else:  # no positioned reads (Windows): seek, then read
                self._file.seek(offset)
                got = self._file.readinto(view)
            if got == 0:
                row = (offset - HEADER_SIZE) // (self.shape[1] * 8)
                raise TruncatedFile(
                    f"{self.path}: payload ended before row {row} (0-based) "
                    f"of {self.shape[0]}"
                )
            view, offset = view[got:], offset + got


@contextlib.contextmanager
def open_latents(path):
    """A latent file ready for row reads, for the length of a ``with`` block.

    A binary file is an open :class:`LatentReader`, so only the rows read
    are ever held; a ``*.csv`` file is its whole array.
    """
    if Path(path).suffix == ".csv":
        yield _load_latents_csv(Path(path))
        return
    with LatentReader(path) as reader:
        yield reader


def load_latents(path) -> np.ndarray:
    """Read a point cloud saved by :func:`save_latents` into one array.

    A binary file is :class:`LatentReader` reading every row, with the
    header checked against the size on disk before the payload is read.

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
    with LatentReader(path) as reader:
        return reader.read_rows(np.arange(reader.shape[0]))


def save_labels(path, labels) -> None:
    """Write one label per line; the labels must form the range 0..C-1."""
    labels = as_label_array(labels)
    _write_atomically(path, ("\n".join(str(int(v)) for v in labels) + "\n").encode())


def _digit_lines(data: bytes) -> np.ndarray | None:
    """The integers of lines of ASCII digits, parsed by NumPy, or None.

    ``\\n`` and ``\\r`` break lines and empty lines are skipped, as
    ``str.splitlines`` and ``strip`` would do on such data. Any other byte,
    or a value that saturates int64, gives None.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = (raw - np.uint8(ord("0"))) < 10  # other bytes wrap to 10 and up
    if not (digits | (raw == ord("\n")) | (raw == ord("\r"))).all():
        return None
    if not digits.any():
        return np.empty(0, dtype=np.int64)
    # A whitespace separator matches any run of whitespace, so blank lines too.
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    return None if values.max() == np.iinfo(np.int64).max else values


def load_labels(path, n_expected: int | None = None) -> np.ndarray:
    """Read one label per line; validates the count and ``as_label_array``, naming bad lines.

    A file of digit lines, as ``save_labels`` writes, is parsed by NumPy
    (``_digit_lines``); any other file line by line with ``int``, which
    names the first line that is not an integer or is negative.
    """
    path = Path(path)
    values, lines = _digit_lines(path.read_bytes()), None
    if values is None:
        lines = [(n, line.strip()) for n, line in enumerate(path.read_text().splitlines(), 1)
                 if line.strip()]
        values = np.empty(len(lines), dtype=np.intp)
        for i, (number, line) in enumerate(lines):
            try:
                values[i] = int(line)
            except ValueError:
                raise LatentFileError(
                    f"{path}: line {number} is not an integer: {line!r}"
                ) from None
            except OverflowError:
                raise LatentFileError(f"{path}: line {number} holds {line}, beyond int64") from None
    if not values.size:
        raise EmptyFile(f"{path}: no content")
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


@dataclass(frozen=True)
class ClassQuantization:
    """One class's distilled centroids with their win counts and cell-mass weights.

    ``centroids`` is ``(K, dim)`` and the other arrays hold one entry per centroid.
    """

    label: int
    centroids: np.ndarray
    counts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.ndim(self.centroids) != 2:
            raise ValueError(f"centroids must be 2-d, got shape {np.shape(self.centroids)}")
        k = len(self.centroids)
        for name in ("counts", "weights"):
            if np.shape(getattr(self, name)) != (k,):
                raise ValueError(f"{name} must hold one entry per centroid ({k})")


@dataclass(frozen=True)
class DistillationResult:
    """Per-class weighted quantization of a labeled latent cloud; ``classes[i]`` is class i."""

    seed: int
    per_class: int
    dim: int
    batch_size: int
    n_iterations: int
    classes: tuple[ClassQuantization, ...]

    def __post_init__(self):
        for i, cls in enumerate(self.classes):
            if cls.label != i:
                raise ValueError(f"classes[{i}].label is {cls.label}, not {i}")
            cols = cls.centroids.shape[1]
            if cols != self.dim:
                raise ValueError(f"classes[{i}].centroids has {cols} columns, dim is {self.dim}")


@dataclass(frozen=True)
class ClassTransport:
    """One class's transported cloud and its stability report."""

    label: int
    atoms: np.ndarray
    weights: np.ndarray
    report: BoundReport

    def __post_init__(self):
        if np.ndim(self.atoms) != 2:
            raise ValueError(f"atoms must be 2-d, got shape {np.shape(self.atoms)}")
        n = len(self.atoms)
        if np.shape(self.weights) != (n,):
            raise ValueError(f"weights must hold one entry per atom ({n})")


@dataclass(frozen=True)
class TransportedResult:
    """Reverse-transported distillation with per-class bound reports."""

    seed: int
    process: SdeSpec
    n_mc: int
    test_function: str
    classes: tuple[ClassTransport, ...]


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

    def __post_init__(self):
        if np.ndim(self.theta) != 1:
            raise ValueError(f"theta must be 1-d, got shape {np.shape(self.theta)}")


# The document tag of each result type.
_FORMATS = {
    DistillationResult: "quantdistill.distillation",
    TransportedResult: "quantdistill.transported",
    TrainReport: "quantdistill.train_report",
}


# The JSON values each scalar field accepts. ``bool`` is an ``int`` subclass,
# so ``true`` and ``false`` are rejected on their own.
_JSON_SCALARS = {int: int, float: (int, float), str: str}

# The dtype tags of array objects, with the native dtype each loads as.
_ARRAY_DTYPES = {"<f8": np.float64, "<i8": np.int64}


def _array_object(arr: np.ndarray) -> dict:
    """``arr`` as its dtype tag, shape and little-endian bytes in base64."""
    tag = "<i8" if arr.dtype.kind == "i" else "<f8"
    payload = base64.b64encode(arr.astype(tag, copy=False).tobytes()).decode("ascii")
    return {"dtype": tag, "shape": list(arr.shape), "base64": payload}


def _decode_array_object(value: dict, name: str) -> np.ndarray:
    """The writable native array an array object holds; errors name ``name``."""
    tag, shape, payload = value.get("dtype"), value.get("shape"), value.get("base64")
    if not isinstance(tag, str) or tag not in _ARRAY_DTYPES:
        raise ValueError(f"{name}.dtype is {tag!r}, not one of {', '.join(_ARRAY_DTYPES)}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{name}.shape is not a list of non-negative integers")
    if not isinstance(payload, str):
        raise ValueError(f"{name}.base64 is not a string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name}.base64 is not valid base64: {exc}") from None
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ValueError(f"{name}.base64 holds {len(raw)} bytes, shape {shape} needs {expected}")
    arr = np.frombuffer(raw, dtype=tag).reshape(shape).astype(_ARRAY_DTYPES[tag])
    if tag == "<f8" and not _all_finite(arr):
        raise NonFiniteValue(f"{name} holds non-finite values")
    return arr


def _encode(value):
    """The JSON form of ``value``: a dataclass is its fields in declaration order.

    An array field of a dataclass becomes an array object; arrays elsewhere
    (in the dict bodies of rate-scan and verification documents) are left for
    ``render_json`` to spell as decimal lists.
    """
    if dataclasses.is_dataclass(value):
        body = {}
        for f in dataclasses.fields(value):
            field = getattr(value, f.name)
            body[f.name] = _array_object(field) if isinstance(field, np.ndarray) else _encode(field)
        return body
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value  # render_json writes NumPy values through tolist()


def _decode(kind, value, name: str):
    """Rebuild a ``kind`` from its JSON form, following the type annotations.

    Dataclasses and ``tuple[X, ...]`` recurse, ignoring keys that are not
    fields, and ``X | None`` accepts null.
    Arrays must be numeric and finite. An array object loads as its tag's
    dtype; a decimal list (version 1) as int64 when every entry is a JSON
    integer, float64 otherwise. A scalar must already be of its JSON kind: an
    ``int`` field takes only integers, a ``float`` field any number (with the
    ``NaN`` and ``Infinity`` tokens), a ``str`` field only strings; ``true``
    and ``false`` are none of these. Errors name ``name``, the value's path
    in the document.
    """
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"{name} is not an object")
        hints = typing.get_type_hints(kind)
        fields = {}
        for f in dataclasses.fields(kind):
            if not f.init:
                continue
            path = f"{name}.{f.name}" if name else f.name
            if f.name not in value:
                raise ValueError(f"{path} is missing")
            fields[f.name] = _decode(hints[f.name], value[f.name], path)
        try:
            return kind(**fields)
        except (ValueError, QuantDistillError) as exc:
            raise ValueError(f"{name or kind.__name__}: {exc}") from None
    origin = typing.get_origin(kind)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{name} is not a list")
        (item, _) = typing.get_args(kind)
        return tuple(_decode(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(typing.get_args(kind)[0], value, name)
    if kind is np.ndarray:
        if isinstance(value, dict):
            return _decode_array_object(value, name)
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged list
            arr = None
        if arr is None or arr.dtype.kind not in "if":
            raise ValueError(f"{name} is not a numeric array")
        if not _all_finite(arr):
            raise NonFiniteValue(f"{name} holds non-finite values")
        return arr.astype(np.int64 if arr.dtype.kind == "i" else np.float64, copy=False)
    if isinstance(value, bool) or not isinstance(value, _JSON_SCALARS[kind]):
        raise ValueError(f"{name} is not a JSON {kind.__name__}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} is not a finite float") from None


def save_document(path, fmt: str, body) -> None:
    """Write ``body``, a dict or a result, after a ``format`` tag and ``format_version``."""
    doc = {"format": fmt, "format_version": DOCUMENT_VERSION, **_encode(body)}
    _write_atomically(path, (render_json(doc) + "\n").encode())


def load_document(path, fmt: str) -> dict:
    """Read a document written by :func:`save_document` with the ``fmt`` tag.

    Raises
    ------
    EmptyFile, LatentFileError, BadMagic
        For a blank file, text that is not JSON, and a wrong tag or a
        version outside ``READABLE_DOCUMENT_VERSIONS``.
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
    version = doc.get("format_version")
    if type(version) is not int or version not in READABLE_DOCUMENT_VERSIONS:
        raise BadMagic(f"{path}: unsupported document version {version!r}")
    return doc


def _load(path, kind):
    """Read a ``kind`` result document; every error names ``path`` and the field."""
    fmt = _FORMATS[kind]
    doc = load_document(path, fmt)
    try:
        return _decode(kind, doc, "")
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise LatentFileError(f"{path}: malformed {fmt} document: {exc}") from None


def save_distillation(path, result: DistillationResult) -> None:
    save_document(path, _FORMATS[DistillationResult], result)


def load_distillation(path) -> DistillationResult:
    return _load(path, DistillationResult)


def save_transported(path, result: TransportedResult) -> None:
    save_document(path, _FORMATS[TransportedResult], result)


def load_transported(path) -> TransportedResult:
    return _load(path, TransportedResult)


def save_train_report(path, report: TrainReport) -> None:
    save_document(path, _FORMATS[TrainReport], report)


def load_train_report(path) -> TrainReport:
    return _load(path, TrainReport)
