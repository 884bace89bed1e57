"""Tests for file formats, document round trips, and the command line."""

import argparse
import base64
import dataclasses
import json
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantdistill import cli, latentio, pipeline, verification
from quantdistill.diffusion import BoundReport, SdeSpec
from quantdistill.errors import (
    BadMagic,
    DimensionError,
    EmptyFile,
    LatentFileError,
    NonFiniteValue,
    TruncatedFile,
)
from quantdistill.latentio import (
    MAGIC,
    ClassQuantization,
    ClassTransport,
    DistillationResult,
    TrainReport,
    TransportedResult,
    load_distillation,
    load_document,
    load_labels,
    load_latents,
    load_train_report,
    load_transported,
    render_json,
    save_distillation,
    save_labels,
    save_latents,
    save_train_report,
    save_transported,
)
from quantdistill.measures import as_label_array
from quantdistill.pipeline import demo_dataset, diffuse, distill, train
from quantdistill.verification import CheckRecord, CheckSpec


def test_render_json_round_trips_floats_and_special_values():
    rng = np.random.default_rng(50)
    values = np.concatenate(
        [rng.normal(size=50), 10.0 ** rng.uniform(-300, 300, size=50), [5e-324, -0.0]]
    )
    text = render_json({"values": values, "scalar": values[0]})
    assert "\n" not in text
    parsed = json.loads(text)
    assert np.asarray(parsed["values"]).tobytes() == values.tobytes()
    assert parsed["scalar"] == values[0]
    assert np.signbit(parsed["values"][-1])
    assert render_json([1.0, -2.0, float("inf"), float("-inf"), float("nan")]) == (
        "[1.0, -2.0, Infinity, -Infinity, NaN]"
    )
    with pytest.raises(TypeError):
        render_json({"bad": object()})


def test_render_json_is_parseable_and_stable():
    doc = {
        "name": "demo",
        "flag": True,
        "missing": None,
        "values": [1.0, 2.5, float("inf")],
        "nested": {"k": 3, "rows": [[1.0, 2.0], [3.0, 4.0]]},
    }
    text = render_json(doc)
    assert text == render_json(doc)
    parsed = json.loads(text)
    assert parsed["name"] == "demo"
    assert parsed["values"][2] == float("inf")
    assert "[1.0, 2.5, Infinity]" in text


def test_latents_binary_round_trip(tmp_path):
    points = np.random.default_rng(51).normal(size=(17, 3))
    path = tmp_path / "cloud.bin"
    save_latents(path, points)
    np.testing.assert_array_equal(load_latents(path), points)


def test_latents_csv_round_trip(tmp_path):
    points = np.random.default_rng(52).normal(size=(9, 2))
    path = tmp_path / "cloud.csv"
    save_latents(path, points)
    np.testing.assert_array_equal(load_latents(path), points)
    header = path.read_text().splitlines()[0]
    assert header == "dim0,dim1"


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
@pytest.mark.parametrize(
    "points",
    [np.arange(3.0), np.empty((0, 2)), np.array([[0.0, 1.0], [np.nan, 2.0]])],
    ids=["1-d", "empty", "nan"],
)
def test_save_latents_refuses_bad_points_and_writes_nothing(tmp_path, points, suffix):
    with pytest.raises(ValueError, match="^points must"):
        save_latents(tmp_path / f"cloud{suffix}", points)
    assert os.listdir(tmp_path) == []


def test_load_latents_error_cases(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(EmptyFile):
        load_latents(empty)

    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(BadMagic):
        load_latents(wrong)

    short = tmp_path / "short.bin"
    short.write_bytes(
        MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 4) + struct.pack("<Q", 2)
    )
    with pytest.raises(TruncatedFile):
        load_latents(short)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(
        MAGIC + struct.pack("<I", 9) + struct.pack("<Q", 1) + struct.pack("<Q", 1)
        + struct.pack("<d", 0.0)
    )
    with pytest.raises(BadMagic):
        load_latents(bad_version)

    nonfinite = tmp_path / "nan.bin"
    nonfinite.write_bytes(
        MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 1) + struct.pack("<Q", 1)
        + struct.pack("<d", float("nan"))
    )
    with pytest.raises(NonFiniteValue):
        load_latents(nonfinite)


def test_load_latents_csv_error_cases(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(BadMagic):
        load_latents(bad_header)

    ragged = tmp_path / "r.csv"
    ragged.write_text("dim0,dim1\n1.0,2.0\n3.0\n")
    with pytest.raises(TruncatedFile):
        load_latents(ragged)

    not_number = tmp_path / "n.csv"
    not_number.write_text("dim0\n1.0\npotato\n")
    with pytest.raises(NonFiniteValue):
        load_latents(not_number)

    no_rows = tmp_path / "e.csv"
    no_rows.write_text("dim0,dim1\n")
    with pytest.raises(EmptyFile):
        load_latents(no_rows)


@pytest.mark.parametrize("rows, cols", [(0, 2), (3, 0)])
def test_load_latents_rejects_a_header_that_declares_no_data(tmp_path, rows, cols):
    path = tmp_path / "none.bin"
    path.write_bytes(MAGIC + struct.pack("<IQQ", 1, rows, cols))
    with pytest.raises(EmptyFile, match=rf"declares no data \({rows} rows, {cols} columns\)"):
        load_latents(path)


def test_load_latents_rejects_a_csv_file_of_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n   \n\n")
    with pytest.raises(EmptyFile, match="no content"):
        load_latents(path)


def test_read_rows_takes_1_d_row_numbers_only(tmp_path):
    path = tmp_path / "cloud.bin"
    save_latents(path, np.arange(12.0).reshape(6, 2))
    with latentio.LatentReader(path) as reader:
        with pytest.raises(TypeError):
            reader.read_rows(slice(0, 6))
        with pytest.raises(ValueError, match=r"rows must be 1-d, got shape \(2, 2\)"):
            reader.read_rows([[0, 1], [2, 3]])


def test_labels_round_trip_and_validation(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, np.array([0, 2, 1, 0]))
    np.testing.assert_array_equal(load_labels(path), [0, 2, 1, 0])
    with pytest.raises(TruncatedFile):
        load_labels(path, n_expected=3)

    gap = tmp_path / "gap.txt"
    gap.write_text("0\n2\n0\n")
    with pytest.raises(LatentFileError):
        load_labels(gap)

    junk = tmp_path / "junk.txt"
    junk.write_text("0\nx\n")
    with pytest.raises(LatentFileError):
        load_labels(junk)


@pytest.mark.parametrize("labels", [[0, 2], [-1, 0], []])
def test_save_labels_refuses_what_load_labels_rejects(tmp_path, labels):
    path = tmp_path / "labels.txt"
    with pytest.raises(ValueError):
        save_labels(path, np.array(labels, dtype=np.intp))
    assert not path.exists()
    path.write_text("".join(f"{v}\n" for v in labels))
    with pytest.raises(LatentFileError):
        load_labels(path)


def test_load_labels_prefixes_the_shared_check_with_the_path(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n-1\n")
    with pytest.raises(LatentFileError, match=f"{path.name}: labels must be nonnegative"):
        load_labels(path)


def test_load_labels_names_the_file_line_after_a_blank_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n\n1\nx\n")
    with pytest.raises(LatentFileError, match="line 4 is not an integer"):
        load_labels(path)


def test_load_latents_csv_names_the_file_line_after_a_blank_line(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("dim0,dim1\n1,2\n\n3,oops\n")
    with pytest.raises(NonFiniteValue, match="line 4 column 1 is not a number"):
        load_latents(path)


def _binary_latents(rows) -> bytes:
    arr = np.asarray(rows, dtype="<f8")
    return (
        MAGIC + struct.pack("<I", 1) + struct.pack("<Q", arr.shape[0])
        + struct.pack("<Q", arr.shape[1]) + arr.tobytes()
    )


def test_load_latents_names_the_first_nonfinite_row(tmp_path):
    binary = tmp_path / "cloud.bin"
    binary.write_bytes(_binary_latents([[0.0, 1.0], [2.0, 3.0], [4.0, np.inf], [np.nan, 5.0]]))
    with pytest.raises(NonFiniteValue, match=r"row 2 \(0-based\) holds NaN or infinite"):
        load_latents(binary)
    csv = tmp_path / "cloud.csv"
    csv.write_text("dim0,dim1\n1,2\nnan,3\n\n4,inf\n")
    with pytest.raises(NonFiniteValue, match="line 3 holds NaN or infinite"):
        load_latents(csv)


def test_load_latents_rejects_bytes_beyond_the_declared_payload(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(_binary_latents([[0.0, 1.0], [2.0, 3.0]]) + b"\0" * 8)
    with pytest.raises(TruncatedFile, match="64 bytes on disk, header declares 56"):
        load_latents(path)


def test_load_latents_rejects_a_tagged_file_shorter_than_its_header(tmp_path):
    path = tmp_path / "stub.bin"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + b"\0" * 8)
    with pytest.raises(TruncatedFile, match="incomplete header"):
        load_latents(path)


def test_load_latents_allocation_peak_is_the_payload(tmp_path):
    points = np.random.default_rng(53).normal(size=(2000, 256))
    path = tmp_path / "cloud.bin"
    save_latents(path, points)
    tracemalloc.start()
    try:
        loaded = load_latents(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded, points)
    assert peak <= points.nbytes + 2**20


def _labels_line_by_line(path, n_expected=None):
    """The per-line label reader: ``int`` on each stripped nonblank line."""
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
        raise TruncatedFile(f"{path}: {values.shape[0]} labels for {n_expected} points")
    negative = np.flatnonzero(values < 0)
    if negative.size:
        number, line = lines[negative[0]]
        raise LatentFileError(f"{path}: labels must be nonnegative, line {number} holds {line}")
    try:
        return as_label_array(values)
    except ValueError as exc:
        raise LatentFileError(f"{path}: {exc}") from None


def _outcome(read, path, n_expected):
    try:
        labels = read(path, n_expected)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return labels.dtype, labels.tolist()


@pytest.mark.parametrize(
    "content, n_expected",
    [
        (b"0\n2\n1\n0\n", None),
        (b"0\r\n1\r\n\r\n2", 3),
        (b"1\r0\r\r2\n", None),
        (b"\n\n007\n0\n1\n2\n3\n4\n5\n6\n", None),
        (b"0\n1\n", 3),
        (b"", None),
        (b"\n\r\n", None),
        (b" \t\n", None),
        (b"x", None),
        (b"0\n1 \n", None),
        (b"0\n+1\n", None),
        (b"0\n1_0\n", None),
        (b"0\n1.0\n", None),
        (b"0\n\n-1\n", None),
        (b"0\n-1\n", 3),
        (b"0\n2\n", None),
        (b"0\n9223372036854775806\n", None),
    ],
)
def test_load_labels_matches_the_line_by_line_reader(tmp_path, content, n_expected):
    path = tmp_path / "labels.txt"
    path.write_bytes(content)
    expected = _outcome(_labels_line_by_line, path, n_expected)
    assert _outcome(load_labels, path, n_expected) == expected


def test_load_labels_peak_is_a_small_multiple_of_its_result(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, np.repeat(np.arange(1000), 200))
    tracemalloc.start()
    try:
        labels = load_labels(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(labels, np.repeat(np.arange(1000), 200))
    # A tuple and a string per line took about 20 times the result.
    assert peak <= 3 * labels.nbytes


def test_load_labels_names_the_line_of_the_first_negative_label(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n\n1\n-2\n-1\n")
    with pytest.raises(LatentFileError, match="line 4 holds -2"):
        load_labels(path)


@pytest.mark.parametrize("line", ["99999999999999999999", "-99999999999999999999"])
def test_labels_beyond_int64_name_the_file_and_line(tmp_path, capsys, line):
    latents, labels_path = write_demo_files(tmp_path)
    lines = labels_path.read_text().splitlines()
    lines[5] = line
    labels_path.write_text("\n".join(lines) + "\n")
    message = f"{labels_path}: line 6 holds {line}, beyond int64"
    with pytest.raises(LatentFileError) as info:
        load_labels(labels_path)
    assert str(info.value) == message

    out = tmp_path / "distilled.json"
    status = cli.main([
        "distill", "--latents", str(latents), "--labels", str(labels_path),
        "--ipc", "3", "--out", str(out),
    ])
    assert status == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_out_in_a_missing_directory_names_the_requested_path(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    out = tmp_path / "missing_dir" / "o.json"
    status = cli.main([
        "distill", "--latents", str(latents), "--labels", str(labels_path),
        "--ipc", "3", "--out", str(out),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(f": {str(out)!r}") and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["labels.txt", "latents.bin"]


def test_cli_distill_names_the_nonfinite_row(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    points = load_latents(latents)
    points[7, 1] = np.inf
    latents.write_bytes(_binary_latents(points))
    status = cli.main(
        [
            "distill",
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--ipc", "3",
            "--out", str(tmp_path / "distilled.json"),
        ]
    )
    assert status == 2
    assert "row 7 (0-based) holds NaN or infinite" in capsys.readouterr().err


def test_cli_distill_names_the_class_whose_squared_distances_overflow(tmp_path, capsys):
    latents, labels_path, out = tmp_path / "big.bin", tmp_path / "labels.txt", tmp_path / "d.json"
    save_latents(latents, np.random.default_rng(0).standard_normal((200, 2)) * 1e154)
    save_labels(labels_path, np.repeat([0, 1], 100))
    argv = ["distill", "--latents", str(latents), "--labels", str(labels_path), "--ipc", "4"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: class 0: squared distances between points overflow float64\n"
    )
    assert not out.exists()


def _write_half_then_fail(path, data):
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    raise OSError("disk full")


def _refuse_rename(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("failure", ["write", "rename"])
@pytest.mark.parametrize("writer", ["latents", "labels", "document"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, failure, writer):
    save = {
        "latents": lambda path: save_latents(path, np.arange(6.0).reshape(3, 2)),
        "labels": lambda path: save_labels(path, np.array([0, 1, 1])),
        "document": lambda path: save_distillation(path, sample_distillation()),
    }[writer]
    target = tmp_path / "out.dat"
    target.write_bytes(b"old contents")
    if failure == "write":
        monkeypatch.setattr(Path, "write_bytes", _write_half_then_fail)
    else:
        monkeypatch.setattr(os, "replace", _refuse_rename)
    with pytest.raises(OSError):
        save(target)
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.dat"]


def sample_distillation():
    points, labels = demo_dataset(0, n_per_class=60, n_classes=2)
    return distill(points, labels, 4, 5, batch_size=16, n_iterations=10)


# The keys under which result documents hold arrays.
ARRAY_FIELDS = {"centroids", "counts", "weights", "atoms", "theta"}


def array_object(values):
    """The version-2 spelling of an array, built without latentio."""
    arr = np.asarray(values)
    tag = "<i8" if arr.dtype.kind == "i" else "<f8"
    payload = base64.b64encode(arr.astype(tag).tobytes()).decode("ascii")
    return {"dtype": tag, "shape": list(arr.shape), "base64": payload}


def array_value(obj):
    return np.frombuffer(base64.b64decode(obj["base64"]), obj["dtype"]).reshape(obj["shape"])


def spell_arrays(doc, form):
    """``doc`` with its arrays as decimal lists (version 1) or array objects (version 2)."""

    def spell(key, value):
        if key in ARRAY_FIELDS:
            arr = array_value(value) if isinstance(value, dict) else np.array(value)
            return arr.tolist() if form == "list" else array_object(arr)
        if isinstance(value, dict):
            return {k: spell(k, v) for k, v in value.items()}
        if isinstance(value, list):
            return [spell(None, v) for v in value]
        return value

    return {**spell(None, doc), "format_version": 1 if form == "list" else 2}


# Tests of hand-edited documents take a ``form`` argument, "list" by default,
# which rewrites the saved document as version 1; each has a binary twin that
# calls it with ``form="binary"`` and so edits a version-2 document.
def edit_document(path, edit, form):
    """Apply ``edit`` to the list form of the document at ``path``, then save it in ``form``."""
    doc = spell_arrays(json.loads(path.read_text()), "list")
    edit(doc)
    path.write_text(json.dumps(doc if form == "list" else spell_arrays(doc, "binary")))


def test_distillation_document_round_trip(tmp_path):
    result = sample_distillation()
    path = tmp_path / "distilled.json"
    save_distillation(path, result)
    loaded = load_distillation(path)
    assert loaded.seed == result.seed
    assert len(loaded.classes) == len(result.classes)
    for before, after in zip(result.classes, loaded.classes):
        np.testing.assert_array_equal(before.centroids, after.centroids)
        np.testing.assert_array_equal(before.counts, after.counts)
        np.testing.assert_array_equal(before.weights, after.weights)
    # A rewrite of the loaded document is byte-identical.
    second = tmp_path / "again.json"
    save_distillation(second, loaded)
    assert second.read_bytes() == path.read_bytes()


# A distillation document in the earlier layout: indented over many lines,
# with every float spelled at 17 significant digits, and with the three keys
# that documents no longer hold: the step schedule, the seeding strategy and
# the square-root weights.
MULTILINE_17_DIGIT_DISTILLATION = """{
  "format": "quantdistill.distillation",
  "format_version": 1,
  "seed": 5,
  "per_class": 2,
  "dim": 2,
  "schedule": "count_reciprocal",
  "batch_size": 16,
  "n_iterations": 10,
  "init_strategy": "dsquared",
  "classes": [
    {
      "label": 0,
      "centroids": [
        [0.10000000000000001, -0.0],
        [0.33333333333333331, 2.5e-300]
      ],
      "counts": [3, 1],
      "weights": [0.75, 0.25],
      "variance_reduced": [1.2247448713915889, 0.70710678118654757]
    }
  ]
}
"""


def test_multiline_17_digit_document_loads_like_its_new_rendering(tmp_path, form="list"):
    source = json.loads(MULTILINE_17_DIGIT_DISTILLATION)
    old = tmp_path / "old.json"
    if form == "list":
        old.write_text(MULTILINE_17_DIGIT_DISTILLATION)
    else:
        old.write_text(json.dumps(spell_arrays(source, "binary"), indent=2))
    loaded = load_distillation(old)
    new = tmp_path / "new.json"
    save_distillation(new, loaded)
    text = new.read_text()
    assert text.count("\n") == 1
    # The rewrite is version 2, arrays as objects, and drops exactly the three retired keys.
    expected = spell_arrays(source, "binary")
    del expected["schedule"], expected["init_strategy"]
    del expected["classes"][0]["variance_reduced"]
    assert json.loads(text) == expected
    reloaded = load_distillation(new)
    assert loaded.seed == reloaded.seed == 5
    for before, after in zip(loaded.classes, reloaded.classes):
        for name in ("centroids", "counts", "weights"):
            assert getattr(before, name).tobytes() == getattr(after, name).tobytes()
    centroids = reloaded.classes[0].centroids
    np.testing.assert_array_equal(centroids, [[0.1, 0.0], [1 / 3, 2.5e-300]])
    assert np.signbit(centroids[0, 1])
    assert reloaded.classes[0].counts.tolist() == [3, 1]
    assert reloaded.classes[0].weights.tolist() == [0.75, 0.25]


def test_multiline_binary_document_loads_like_its_new_rendering(tmp_path):
    test_multiline_17_digit_document_loads_like_its_new_rendering(tmp_path, form="binary")


def test_document_rejects_wrong_format_tag(tmp_path):
    result = sample_distillation()
    path = tmp_path / "distilled.json"
    save_distillation(path, result)
    with pytest.raises(BadMagic):
        load_transported(path)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all {")
    with pytest.raises(LatentFileError):
        load_distillation(garbage)
    blank = tmp_path / "blank.json"
    blank.write_text("  \n")
    with pytest.raises(EmptyFile):
        load_distillation(blank)


def sample_transported():
    # A zero W2 makes the ceiling 0 and the ratio infinite; the gap passes
    # within three Monte Carlo standard errors.
    report = BoundReport(
        lhs=0.01, mc_stderr=0.004, wasserstein=0.0, constant=5.0, lipschitz_bound=1.0
    )
    return TransportedResult(
        seed=3,
        process=SdeSpec("brownian", 1.0, 0.25, 50),
        n_mc=200,
        test_function="distance_to_origin",
        classes=(
            ClassTransport(
                label=0,
                atoms=np.array([[0.1], [0.9]]),
                weights=np.array([0.6, 0.4]),
                report=report,
            ),
        ),
    )


def sample_train_report(eval_accuracy=None):
    return TrainReport(
        seed=1,
        model="logistic",
        weight_mode="normalized",
        learning_rate=1.0,
        epochs=20,
        final_loss=0.25,
        train_accuracy=1.0,
        eval_accuracy=eval_accuracy,
        theta=np.array([0.5, -0.5, 0.1]),
    )


def test_transported_document_round_trip(tmp_path):
    result = sample_transported()
    path = tmp_path / "transported.json"
    save_transported(path, result)
    assert '"ratio": Infinity' in path.read_text()
    loaded = load_transported(path)
    assert loaded.process == result.process
    assert loaded.classes[0].report == result.classes[0].report
    np.testing.assert_array_equal(loaded.classes[0].atoms, result.classes[0].atoms)
    # A rewrite of the loaded document is byte-identical.
    second = tmp_path / "again.json"
    save_transported(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_transported_verdict_follows_the_loaded_numbers(tmp_path):
    path = tmp_path / "transported.json"
    save_transported(path, sample_transported())
    assert load_transported(path).classes[0].report.passed
    doc = json.loads(path.read_text())
    # The stored ceiling, ratio and verdict still claim a pass.
    doc["classes"][0]["report"].update(lhs=1e11, rhs=1e12, ratio=0.1, passed=True)
    path.write_text(json.dumps(doc))
    loaded = load_transported(path).classes[0].report
    assert (loaded.rhs, loaded.ratio, loaded.passed) == (0.0, float("inf"), False)


def test_train_report_round_trip(tmp_path):
    for eval_accuracy in (None, 0.875):
        report = sample_train_report(eval_accuracy)
        path = tmp_path / "report.json"
        save_train_report(path, report)
        loaded = load_train_report(path)
        assert loaded.eval_accuracy == eval_accuracy
        np.testing.assert_array_equal(loaded.theta, report.theta)
        if eval_accuracy is None:
            assert '"eval_accuracy": null' in path.read_text()
        # A rewrite of the loaded document is byte-identical.
        second = tmp_path / "again.json"
        save_train_report(second, loaded)
        assert second.read_bytes() == path.read_bytes()


# Per result type: writer, reader, sample, a key to delete, an array field
# and a scalar field, each as its path in the document, and a JSON value of the
# wrong kind for that scalar.
MALFORMED_CASES = {
    "distillation": (
        save_distillation, load_distillation, sample_distillation,
        ("classes", 0, "counts"), ("classes", 0, "centroids"),
        ("classes", 0, "label"), 0.9,
    ),
    "transported": (
        save_transported, load_transported, sample_transported,
        ("process", "n_steps"), ("classes", 0, "atoms"),
        ("process", "kind"), 5,
    ),
    "train_report": (
        save_train_report, load_train_report, sample_train_report,
        ("eval_accuracy",), ("theta",),
        ("learning_rate",), True,
    ),
}


def _dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _nan_first(value):
    arr = np.array(value, dtype=np.float64)
    arr.flat[0] = np.nan
    return arr.tolist()


def _replace_payload(obj, value):
    values = array_value(obj).astype(np.float64)
    values.flat[0] = value
    obj.update(array_object(values))


# Faults in an array object, each made in place.
ARRAY_OBJECT_FAULTS = {
    "dtype_tag": lambda obj: obj.update(dtype="<f4"),
    "byte_count": lambda obj: obj.update(shape=[obj["shape"][0] + 1, *obj["shape"][1:]]),
    "base64_chars": lambda obj: obj.update(base64="*" + obj["base64"][1:]),
    "negative_shape": lambda obj: obj.update(shape=[-1, *obj["shape"][1:]]),
    "float_shape": lambda obj: obj.update(shape=[float(n) for n in obj["shape"]]),
    "nan": lambda obj: _replace_payload(obj, np.nan),
    "inf": lambda obj: _replace_payload(obj, -np.inf),
}


# Faults in the nesting of a (version 2) distillation document, each made in
# place, with the message that names it.
NESTING_FAULTS = {
    "classes_not_a_list": (lambda doc: doc.update(classes={"0": 1}), "classes is not a list"),
    "class_not_an_object": (
        lambda doc: doc["classes"].__setitem__(0, [1, 2]), "classes[0] is not an object"
    ),
    "base64_not_a_string": (
        lambda doc: doc["classes"][0]["weights"].update(base64=12),
        "classes[0].weights.base64 is not a string",
    ),
}


@pytest.mark.parametrize("fault", sorted(NESTING_FAULTS))
def test_distillation_document_with_a_misnested_field_names_it(tmp_path, fault):
    edit, message = NESTING_FAULTS[fault]
    path = tmp_path / "doc.json"
    save_distillation(path, sample_distillation())
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(LatentFileError, match=re.escape(f"{path}: malformed")) as info:
        load_distillation(path)
    assert message in str(info.value)


def test_float_field_holding_an_integer_beyond_the_float_range_is_named(tmp_path):
    # Distillation documents hold no float field; a train report's rate does.
    path = tmp_path / "report.json"
    save_train_report(path, sample_train_report())
    doc = json.loads(path.read_text())
    doc["learning_rate"] = 10**400
    path.write_text(json.dumps(doc))
    with pytest.raises(LatentFileError, match="learning_rate is not a finite float"):
        load_train_report(path)


def test_build_dataset_rejects_an_unknown_weight_mode():
    with pytest.raises(ValueError, match="weight_mode must be one of"):
        pipeline.build_dataset(sample_distillation(), "cell_mass")


def test_demo_dataset_needs_two_classes():
    with pytest.raises(ValueError, match="need at least 2 classes"):
        pipeline.demo_dataset(0, n_classes=1)


@pytest.mark.parametrize("fault", ["missing_key", "ragged", "string", "nan", "wrong_scalar"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_CASES))
def test_malformed_document_names_file_and_field(tmp_path, kind, fault, form="list"):
    save, load, sample, missing, array, scalar, wrong = MALFORMED_CASES[kind]
    path = tmp_path / "doc.json"
    save(path, sample())
    doc = json.loads(path.read_text())
    if form == "list":
        doc = spell_arrays(doc, "list")
    keys = {"missing_key": missing, "wrong_scalar": scalar}.get(fault, array)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if fault == "missing_key":
        del parent[keys[-1]]
    elif fault == "wrong_scalar":
        parent[keys[-1]] = wrong
    elif form == "binary":
        ARRAY_OBJECT_FAULTS[fault](parent[keys[-1]])
    else:
        parent[keys[-1]] = {
            "ragged": [[1.0], [1.0, 2.0]],
            "string": "abc",
            "nan": _nan_first(parent[keys[-1]]),
        }[fault]
    path.write_text(json.dumps(doc))
    with pytest.raises(LatentFileError) as info:
        load(path)
    message = str(info.value)
    assert str(path) in message
    assert _dotted(keys) in message
    if fault in ("nan", "inf"):
        assert isinstance(info.value, NonFiniteValue)
        assert "non-finite" in message
    else:
        assert "malformed" in message and "non-finite" not in message


@pytest.mark.parametrize("fault", ["missing_key", "wrong_scalar", *ARRAY_OBJECT_FAULTS])
@pytest.mark.parametrize("kind", sorted(MALFORMED_CASES))
def test_malformed_binary_document_names_file_and_field(tmp_path, kind, fault):
    test_malformed_document_names_file_and_field(tmp_path, kind, fault, form="binary")


@pytest.mark.parametrize("kind", sorted(MALFORMED_CASES))
def test_version_1_document_loads_bit_for_bit_like_version_2(tmp_path, kind):
    save, load, sample, *_ = MALFORMED_CASES[kind]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save(new, sample())
    old.write_text(json.dumps(spell_arrays(json.loads(new.read_text()), "list")))
    # A version-1 document rewrites to the version-2 bytes.
    rewritten = tmp_path / "rewritten.json"
    save(rewritten, load(old))
    assert rewritten.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("version", [0, 3, "2", 2.0, True, None])
def test_document_rejects_an_unknown_format_version(tmp_path, version):
    path = tmp_path / "distilled.json"
    save_distillation(path, sample_distillation())
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(BadMagic, match="unsupported document version") as info:
        load_distillation(path)
    assert str(path) in str(info.value)


def test_array_objects_round_trip_extreme_values_bit_for_bit(tmp_path):
    big = np.iinfo(np.int64).max
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    distilled = DistillationResult(
        seed=0, per_class=4, dim=1, batch_size=1, n_iterations=1,
        classes=(ClassQuantization(
            label=0,
            centroids=np.array(extremes).reshape(4, 1),
            counts=np.array([big, -big, 0, 1], dtype=np.int64),
            weights=np.array(extremes[::-1]),
        ),),
    )
    report = dataclasses.replace(sample_train_report(), theta=np.array(extremes))
    for save, load, result, holder, names in (
        (save_distillation, load_distillation, distilled, lambda r: r.classes[0],
         ("centroids", "counts", "weights")),
        (save_train_report, load_train_report, report, lambda r: r, ("theta",)),
    ):
        path = tmp_path / "doc.json"
        save(path, result)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        loaded = load(path)
        for name in names:
            before, after = getattr(holder(result), name), getattr(holder(loaded), name)
            assert (after.dtype, after.shape) == (before.dtype, before.shape)
            assert after.tobytes() == before.tobytes()
            assert after.flags.writeable and after.dtype.isnative
        # A rewrite of the loaded document is byte-identical.
        again = tmp_path / "again.json"
        save(again, loaded)
        assert again.read_bytes() == path.read_bytes()
    doc = json.loads((tmp_path / "doc.json").read_text())
    assert doc["format_version"] == 2
    assert doc["theta"] == array_object(extremes)


def test_transported_document_with_an_invalid_process_names_it(tmp_path):
    path = tmp_path / "transported.json"
    save_transported(path, sample_transported())
    doc = json.loads(path.read_text())
    doc["process"]["kind"] = "levy"
    path.write_text(json.dumps(doc))
    with pytest.raises(LatentFileError, match="process: unknown process kind 'levy'") as info:
        load_transported(path)
    assert str(path) in str(info.value)


def test_document_counts_are_integers_and_arrays_keep_their_kind(tmp_path, form="list"):
    result = sample_distillation()
    assert all(cls.counts.dtype == np.int64 for cls in result.classes)
    path = tmp_path / "distilled.json"
    save_distillation(path, result)
    loaded = load_distillation(path)
    for cls in loaded.classes:
        assert cls.counts.dtype == np.int64
        assert cls.centroids.dtype == cls.weights.dtype == np.float64
    assert json.loads(path.read_text())["classes"][0]["counts"]["dtype"] == "<i8"

    # One float entry makes the whole array float64.
    def edit(doc):
        doc["classes"][0]["counts"][0] = 1.5

    edit_document(path, edit, form)
    assert load_distillation(path).classes[0].counts.dtype == np.float64


def test_binary_document_counts_are_integers_and_arrays_keep_their_kind(tmp_path):
    test_document_counts_are_integers_and_arrays_keep_their_kind(tmp_path, form="binary")


def write_demo_files(tmp_path, seed=0):
    points, labels = demo_dataset(seed, n_per_class=40, n_classes=2)
    latents = tmp_path / "latents.bin"
    labels_path = tmp_path / "labels.txt"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    return latents, labels_path


def test_cli_distill_train_round_trip(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    out = tmp_path / "distilled.json"
    status = cli.main(
        [
            "distill",
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--ipc", "3",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert status == 0
    assert "distilled" in capsys.readouterr().out
    result = load_distillation(out)
    assert result.per_class == 3
    assert all(cls.centroids.shape == (3, 2) for cls in result.classes)

    report_path = tmp_path / "report.json"
    status = cli.main(
        [
            "train",
            "--distilled", str(out),
            "--weights", "normalized",
            "--model", "logistic",
            "--epochs", "100",
            "--seed", "1",
            "--out", str(report_path),
            "--eval-latents", str(latents),
            "--eval-labels", str(labels_path),
        ]
    )
    assert status == 0
    report = load_train_report(report_path)
    assert report.train_accuracy == 1.0
    assert report.eval_accuracy is not None


def test_cli_stages_read_a_csv_cloud_whole_and_write_what_the_binary_gives(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    csv = tmp_path / "latents.csv"
    save_latents(csv, load_latents(latents))
    written = []
    for cloud in (latents, csv):
        out = tmp_path / f"{cloud.suffix[1:]}"
        out.mkdir()
        assert cli.main([
            "distill", "--latents", str(cloud), "--labels", str(labels_path),
            "--ipc", "3", "--out", str(out / "distilled.json"),
        ]) == 0
        assert cli.main([
            "diffuse", "--distilled", str(out / "distilled.json"), "--latents", str(cloud),
            "--labels", str(labels_path), "--steps", "10", "--mc", "20",
            "--out", str(out / "transported.json"),
        ]) == 0
        assert cli.main([
            "train", "--distilled", str(out / "distilled.json"), "--epochs", "20",
            "--eval-latents", str(cloud), "--eval-labels", str(labels_path),
            "--out", str(out / "report.json"),
        ]) == 0
        written.append([(out / name).read_bytes() for name in sorted(os.listdir(out))])
    assert written[0] == written[1]


def test_cli_diffuse_writes_reports(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    distilled = tmp_path / "distilled.json"
    cli.main(
        [
            "distill",
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--ipc", "3",
            "--seed", "2",
            "--out", str(distilled),
        ]
    )
    out = tmp_path / "transported.json"
    status = cli.main(
        [
            "diffuse",
            "--distilled", str(distilled),
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--sde", "ornstein_uhlenbeck",
            "--horizon", "1.0",
            "--delta", "0.25",
            "--steps", "40",
            "--mc", "200",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert status == 0
    assert "ceiling" in capsys.readouterr().out
    loaded = load_transported(out)
    assert loaded.process.kind == "ornstein_uhlenbeck"
    assert len(loaded.classes) == 2


def test_diffuse_needs_reference_points_for_every_distilled_class(tmp_path, capsys):
    points, labels = demo_dataset(0, n_per_class=40, n_classes=3)
    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, distill(points, labels, 3, 0))
    kept = labels < 2  # the reference has no class 2
    sde = SdeSpec("brownian", 1.0, 0.25, 10)
    with pytest.raises(ValueError, match="^reference data has no points for class 2$"):
        diffuse(load_distillation(distilled), points[kept], labels[kept], sde, 20, 0)

    latents, labels_path = tmp_path / "ref.bin", tmp_path / "ref_labels.txt"
    save_latents(latents, points[kept])
    save_labels(labels_path, labels[kept])
    out = tmp_path / "transported.json"
    status = cli.main([
        "diffuse", "--distilled", str(distilled), "--latents", str(latents),
        "--labels", str(labels_path), "--steps", "10", "--mc", "20",
        "--seed", "0", "--out", str(out),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert f"error: {labels_path}: reference data has no points for class 2" in err
    assert not out.exists()


# Class labels of a three-class distillation, each breaking the order 0, 1, 2.
CLASS_ORDER_FAULTS = {"repeated": [0, 0, 2], "skipped": [0, 2, 3], "out_of_order": [2, 0, 1]}


def three_class_files(tmp_path):
    """A three-class cloud's latent and label files and its saved distillation."""
    points, labels = demo_dataset(0, n_per_class=40, n_classes=3)
    latents, labels_path = tmp_path / "ref.bin", tmp_path / "ref_labels.txt"
    distilled = tmp_path / "distilled.json"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    save_distillation(distilled, distill(points, labels, 3, 0))
    return latents, labels_path, distilled


@pytest.mark.parametrize("form", ["list", "binary"])
@pytest.mark.parametrize("fault", sorted(CLASS_ORDER_FAULTS))
def test_distillation_classes_must_be_labelled_in_order(tmp_path, fault, form):
    labels = CLASS_ORDER_FAULTS[fault]
    _, _, path = three_class_files(tmp_path)

    def relabel(doc):
        for cls, label in zip(doc["classes"], labels):
            cls["label"] = label

    edit_document(path, relabel, form)
    first = next(i for i, label in enumerate(labels) if label != i)
    with pytest.raises(LatentFileError) as info:
        load_distillation(path)
    message = str(info.value)
    assert message.startswith(f"{path}: malformed quantdistill.distillation document")
    assert f"classes[{first}].label is {labels[first]}" in message


def test_cli_diffuse_refuses_a_distillation_that_repeats_a_class(tmp_path, capsys):
    latents, labels_path, distilled = three_class_files(tmp_path)
    edit_document(distilled, lambda doc: doc["classes"][1].update(label=0), "binary")
    out = tmp_path / "transported.json"
    status = cli.main([
        "diffuse", "--distilled", str(distilled), "--latents", str(latents),
        "--labels", str(labels_path), "--steps", "10", "--mc", "20", "--out", str(out),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {distilled}: ") and err.count("\n") == 1
    assert "classes[1].label is 0" in err
    assert not out.exists()


def test_diffuse_rejects_a_reference_of_the_wrong_dimension(tmp_path, capsys):
    points, labels = demo_dataset(0, n_per_class=40, n_classes=2, dim=3)
    result = distill(points, labels, 3, 0)
    with pytest.raises(DimensionError, match="dimension 3"):
        diffuse(result, points[:, :2], labels, SdeSpec("brownian", 1.0, 0.25, 10), 20, 0)

    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, result)
    latents, labels_path = tmp_path / "ref.bin", tmp_path / "ref_labels.txt"
    save_latents(latents, points[:, :2])
    save_labels(labels_path, labels)
    out = tmp_path / "transported.json"
    status = cli.main([
        "diffuse", "--distilled", str(distilled), "--latents", str(latents),
        "--labels", str(labels_path), "--steps", "10", "--mc", "20",
        "--seed", "0", "--out", str(out),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{latents} have dimension 2" in err
    assert f"{distilled} has dimension 3" in err
    assert not out.exists()


def test_cli_train_names_the_document_with_a_nonfinite_centroid(tmp_path, capsys, form="list"):
    path = tmp_path / "d.json"
    save_distillation(path, sample_distillation())

    def edit(doc):
        doc["classes"][1]["centroids"][0][0] = float("nan")

    edit_document(path, edit, form)
    status = cli.main(["train", "--distilled", str(path), "--out", str(tmp_path / "r.json")])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{path}: classes[1].centroids holds non-finite values" in err


def test_cli_train_names_the_binary_document_with_a_nonfinite_centroid(tmp_path, capsys):
    test_cli_train_names_the_document_with_a_nonfinite_centroid(tmp_path, capsys, form="binary")


# Edits to classes[0] of a saved distillation, each with the field its error names.
SHAPE_FAULTS = {
    "flat_centroids": (lambda cls: cls.update(centroids=cls["centroids"][0]), "centroids"),
    "extra_column": (
        lambda cls: cls.update(centroids=[row + [0.0] for row in cls["centroids"]]),
        "classes[0].centroids",
    ),
    "short_counts": (lambda cls: cls["counts"].pop(), "counts"),
    "short_weights": (lambda cls: cls["weights"].pop(), "weights"),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_cli_train_names_a_misshapen_distillation_field(tmp_path, capsys, fault, form="list"):
    edit, field = SHAPE_FAULTS[fault]
    path = tmp_path / "d.json"
    save_distillation(path, sample_distillation())
    edit_document(path, lambda doc: edit(doc["classes"][0]), form)
    report = tmp_path / "r.json"
    status = cli.main(["train", "--distilled", str(path), "--out", str(report)])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{path}: malformed quantdistill.distillation document" in err
    assert "classes[0]" in err and field in err
    assert not report.exists()


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_cli_train_names_a_misshapen_binary_distillation_field(tmp_path, capsys, fault):
    test_cli_train_names_a_misshapen_distillation_field(tmp_path, capsys, fault, form="binary")


# Edits to a transported document or a train report, each with the message its load gives.
RESULT_SHAPE_FAULTS = {
    "flat_atoms": (
        save_transported, load_transported, sample_transported,
        lambda doc: doc["classes"][0].update(atoms=[0.1, 0.9]),
        "classes[0]: atoms must be 2-d, got shape (2,)",
    ),
    "short_weights": (
        save_transported, load_transported, sample_transported,
        lambda doc: doc["classes"][0]["weights"].pop(),
        "classes[0]: weights must hold one entry per atom (2)",
    ),
    "matrix_theta": (
        save_train_report, load_train_report, sample_train_report,
        lambda doc: doc.update(theta=[doc["theta"]]),
        "theta must be 1-d, got shape (1, 3)",
    ),
}


@pytest.mark.parametrize("form", ["list", "binary"])
@pytest.mark.parametrize("fault", sorted(RESULT_SHAPE_FAULTS))
def test_misshapen_transported_and_train_report_fields_are_named(tmp_path, fault, form):
    save, load, sample, edit, expected = RESULT_SHAPE_FAULTS[fault]
    path = tmp_path / "doc.json"
    save(path, sample())
    edit_document(path, edit, form)
    with pytest.raises(LatentFileError) as info:
        load(path)
    assert str(path) in str(info.value) and expected in str(info.value)


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_cli_train_rejects_a_nonfinite_learning_rate(tmp_path, capsys, rate):
    path = tmp_path / "d.json"
    save_distillation(path, sample_distillation())
    report = tmp_path / "r.json"
    status = cli.main(
        ["train", "--distilled", str(path), "--lr", rate, "--out", str(report)]
    )
    assert status == 2
    assert "learning_rate must be finite and positive" in capsys.readouterr().err
    assert not report.exists()


def test_cli_train_fails_when_no_step_is_accepted(tmp_path, capsys):
    # Every trial step of 1e308 overflows, so the first epoch accepts none.
    points, labels = demo_dataset(0, 40, 2)
    path = tmp_path / "d.json"
    save_distillation(path, distill(points, labels, 3, 0))
    report = tmp_path / "r.json"
    status = cli.main(
        ["train", "--distilled", str(path), "--lr", "1e308", "--epochs", "3",
         "--out", str(report)]
    )
    assert status == 2
    assert "learning_rate 1e+308" in capsys.readouterr().err
    assert not report.exists()


def test_cli_distill_rejects_negative_batch_settings(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    out = tmp_path / "distilled.json"
    status = cli.main(
        [
            "distill",
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--ipc", "3",
            "--batch-size", "-2",
            "--iterations", "-100",
            "--out", str(out),
        ]
    )
    assert status == 2
    assert "batch_size and n_iterations" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_needs_both_eval_flags(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, distill(*demo_dataset(0, n_per_class=40, n_classes=2), 3, 1))
    report = tmp_path / "report.json"
    for given, missing in (
        (["--eval-labels", str(labels_path)], "--eval-latents"),
        (["--eval-latents", str(latents)], "--eval-labels"),
    ):
        status = cli.main(
            ["train", "--distilled", str(distilled), "--out", str(report)] + given
        )
        assert status == 2
        assert f"{missing} is required" in capsys.readouterr().err
        assert not report.exists()


def test_train_checks_its_evaluation_pair():
    points, labels = demo_dataset(0, n_per_class=50)
    result = distill(points, labels, 3, 1)
    with pytest.raises(ValueError, match="eval_points is required"):
        train(result, epochs=5, eval_labels=labels)
    with pytest.raises(ValueError, match="eval_labels is required"):
        train(result, epochs=5, eval_points=points)
    with pytest.raises(ValueError, match="1 labels for 150 points"):
        train(result, epochs=5, eval_points=points, eval_labels=[0])
    _, report = train(result, epochs=5, eval_points=points, eval_labels=labels)
    assert report.eval_accuracy is not None


def test_train_checks_its_evaluation_cloud_before_training(monkeypatch):
    result = distill(*demo_dataset(0, n_per_class=50), 3, 1)

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the evaluation cloud")

    monkeypatch.setattr(pipeline, "_train_in_span", no_training)
    wide = demo_dataset(0, n_per_class=50, dim=4)
    with pytest.raises(DimensionError, match=r"eval points must have shape \(n, 2\) .*, got \(150, 4\)"):
        train(result, epochs=5, eval_points=wide[0], eval_labels=wide[1])
    extra = demo_dataset(0, n_per_class=50, n_classes=4)
    with pytest.raises(ValueError, match="eval labels name class 3, .* classes 0 to 2"):
        train(result, epochs=5, eval_points=extra[0], eval_labels=extra[1])


@pytest.mark.parametrize("fault", ["dimension", "class"])
def test_cli_train_names_both_files_of_a_mismatched_eval_cloud(tmp_path, capsys, fault):
    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, distill(*demo_dataset(0, n_per_class=50), 3, 1))
    if fault == "dimension":
        points, labels = demo_dataset(1, n_per_class=50, dim=4)
    else:
        points, labels = demo_dataset(1, n_per_class=50, n_classes=4)
    latents, labels_path = tmp_path / "eval.bin", tmp_path / "eval.txt"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    report = tmp_path / "report.json"
    status = cli.main(
        ["train", "--distilled", str(distilled), "--out", str(report),
         "--eval-latents", str(latents), "--eval-labels", str(labels_path)]
    )
    err = capsys.readouterr().err
    assert status == 2
    named = latents if fault == "dimension" else labels_path
    assert str(named) in err and str(distilled) in err, err
    assert not report.exists()


def test_cli_w2_prints_distance(tmp_path, capsys):
    left = tmp_path / "left.bin"
    right = tmp_path / "right.bin"
    save_latents(left, np.array([[0.0, 0.0]]))
    save_latents(right, np.array([[3.0, 4.0]]))
    status = cli.main(["w2", "--left", str(left), "--right", str(right)])
    assert status == 0
    assert capsys.readouterr().out.strip() == "5.0"


def test_cli_w2_names_both_files_on_a_dimension_mismatch(tmp_path, capsys):
    left = tmp_path / "left.bin"
    right = tmp_path / "right.csv"
    save_latents(left, np.zeros((2, 3)))
    save_latents(right, np.ones((2, 4)))
    assert cli.main(["w2", "--left", str(left), "--right", str(right)]) == 2
    assert capsys.readouterr().err == (
        f"error: points in {left} have dimension 3, but {right} has dimension 4\n"
    )


def test_cli_rate_scan_writes_document(tmp_path, capsys):
    out = tmp_path / "scan.json"
    status = cli.main(
        [
            "rate-scan",
            "--dim", "1",
            "--levels", "2,4",
            "--samples", "300",
            "--restarts", "1",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert status == 0
    assert "fitted slope" in capsys.readouterr().out
    doc = load_document(out, latentio.RATE_SCAN_FORMAT)
    assert doc["levels"] == [2, 4]
    assert doc["fitted_slope"] < 0
    # Its arrays stay decimal lists under the current document version.
    assert doc["format_version"] == latentio.DOCUMENT_VERSION == 2
    assert len(doc["errors"]) == 2 and all(isinstance(e, float) for e in doc["errors"])


def test_cli_missing_input_exits_with_usage_code(tmp_path, capsys):
    status = cli.main(
        [
            "w2",
            "--left", str(tmp_path / "nope.bin"),
            "--right", str(tmp_path / "nope.bin"),
        ]
    )
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_cli_corrupt_input_exits_with_usage_code(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXXXXXXXXXXXXXXXXXXXXXXXXX")
    status = cli.main(["w2", "--left", str(bad), "--right", str(bad)])
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_levels_exit_code(tmp_path, capsys):
    status = cli.main(["rate-scan", "--dim", "1", "--levels", "4,banana"])
    assert status == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--levels", "2,4", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--levels", ","], "levels must name at least one quantization size"),
    ],
)
def test_cli_rate_scan_rejects_a_negative_seed_and_no_levels(capsys, argv, message):
    assert cli.main(["rate-scan", "--dim", "1", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "model, message",
    [("hidden:x", "bad hidden width in 'hidden:x'"), ("mlp", "unknown model 'mlp'")],
)
def test_cli_train_rejects_an_unknown_model(tmp_path, capsys, model, message):
    latents, labels_path = write_demo_files(tmp_path)
    distilled, report = tmp_path / "d.json", tmp_path / "r.json"
    assert cli.main([
        "distill", "--latents", str(latents), "--labels", str(labels_path), "--ipc", "2",
        "--out", str(distilled),
    ]) == 0
    capsys.readouterr()
    status = cli.main(
        ["train", "--distilled", str(distilled), "--model", model, "--out", str(report)]
    )
    assert status == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_cli_unknown_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


def test_cli_seed_env_variable_is_ignored(tmp_path, monkeypatch):
    latents, labels_path = write_demo_files(tmp_path)

    def distill_args(out):
        return [
            "distill",
            "--latents", str(latents),
            "--labels", str(labels_path),
            "--ipc", "2",
            "--out", str(out),
        ]

    explicit = tmp_path / "explicit.json"
    default = tmp_path / "default.json"
    assert cli.main(distill_args(explicit) + ["--seed", "0"]) == 0
    for value in ("9", "not-a-number"):
        monkeypatch.setenv("QUANTDISTILL_SEED", value)
        assert cli.main(distill_args(default)) == 0
        assert explicit.read_bytes() == default.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["distill", "--latents", "x.bin", "--labels", "y.txt", "--ipc", "2"],
        ["diffuse", "--distilled", "d.json", "--latents", "x.bin", "--labels", "y.txt"],
        ["train", "--distilled", "d.json"],
        ["verify"],
    ],
)
def test_cli_every_seeded_subcommand_rejects_a_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_cli_verify_reports_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing_check(seed):
        return [
            CheckRecord(
                claim="always_fails",
                statement="synthetic failing check",
                measured=1.0,
                target=0.0,
                tolerance=0.0,
                seed=seed,
            )
        ]

    monkeypatch.setattr(
        verification,
        "CHECKS",
        (CheckSpec("synthetic", "distortion", failing_check),),
    )
    out = tmp_path / "verify.json"
    status = cli.main(
        ["verify", "--suite", "distortion", "--seed", "0", "--out", str(out)]
    )
    assert status == 1
    captured = capsys.readouterr().out
    assert "FAIL always_fails" in captured
    assert "0/1 checks passed" in captured
    doc = load_document(out, latentio.VERIFICATION_FORMAT)
    assert doc["n_passed"] == 0
    assert doc["checks"][0]["claim"] == "always_fails"


def test_cli_verify_small_suite_passes(capsys):
    status = cli.main(["verify", "--suite", "risk", "--seed", "0"])
    assert status == 0
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out
    assert "FAIL" not in out


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_flag_in_the_readme_cli_block_is_accepted():
    # Each --flag in the README's command-line block, comment lines included,
    # must be an option of the subcommand on the last "quantdistill <command>"
    # line above it, so a removed option cannot linger in the README.
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command, n_flags = None, 0
    for line in block.splitlines():
        named = re.match(r"quantdistill ([a-z0-9-]+)", line)
        if named:
            command = named.group(1)
            assert command in commands, line
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line):
            assert flag in commands[command]._option_string_actions, (command, flag)
            n_flags += 1
    assert n_flags >= 20
