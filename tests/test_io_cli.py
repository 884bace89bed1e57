"""Tests for file formats, document round trips, and the command line."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from quantdistill import cli, latentio, verification
from quantdistill.diffusion import BoundReport, SdeSpec
from quantdistill.errors import (
    BadMagic,
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
from quantdistill.pipeline import demo_dataset, distill, train
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


def test_load_labels_names_the_line_of_the_first_negative_label(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n\n1\n-2\n-1\n")
    with pytest.raises(LatentFileError, match="line 4 holds -2"):
        load_labels(path)


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


def test_distillation_document_round_trip(tmp_path):
    result = sample_distillation()
    path = tmp_path / "distilled.json"
    save_distillation(path, result)
    loaded = load_distillation(path)
    assert loaded.seed == result.seed
    assert loaded.schedule == result.schedule
    assert len(loaded.classes) == len(result.classes)
    for before, after in zip(result.classes, loaded.classes):
        np.testing.assert_array_equal(before.centroids, after.centroids)
        np.testing.assert_array_equal(before.counts, after.counts)
        np.testing.assert_array_equal(before.weights, after.weights)
        np.testing.assert_array_equal(
            before.variance_reduced, after.variance_reduced
        )
    # A rewrite of the loaded document is byte-identical.
    second = tmp_path / "again.json"
    save_distillation(second, loaded)
    assert second.read_bytes() == path.read_bytes()


# A distillation document in the earlier layout: indented over many lines,
# with every float spelled at 17 significant digits.
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


def test_multiline_17_digit_document_loads_like_its_new_rendering(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(MULTILINE_17_DIGIT_DISTILLATION)
    loaded = load_distillation(old)
    new = tmp_path / "new.json"
    save_distillation(new, loaded)
    text = new.read_text()
    assert text.count("\n") == 1 and "0.1," in text
    assert json.loads(text) == json.loads(MULTILINE_17_DIGIT_DISTILLATION)
    reloaded = load_distillation(new)
    assert loaded.seed == reloaded.seed == 5
    for before, after in zip(loaded.classes, reloaded.classes):
        for name in ("centroids", "counts", "weights", "variance_reduced"):
            assert getattr(before, name).tobytes() == getattr(after, name).tobytes()
    centroids = reloaded.classes[0].centroids
    np.testing.assert_array_equal(centroids, [[0.1, 0.0], [1 / 3, 2.5e-300]])
    assert np.signbit(centroids[0, 1])


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
        weight_mode="variance_reduced",
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


# Per result type: writer, reader, sample, a key to delete and an array field,
# each as its path in the document.
MALFORMED_CASES = {
    "distillation": (
        save_distillation, load_distillation, sample_distillation,
        ("classes", 0, "counts"), ("classes", 0, "centroids"),
    ),
    "transported": (
        save_transported, load_transported, sample_transported,
        ("process", "n_steps"), ("classes", 0, "atoms"),
    ),
    "train_report": (
        save_train_report, load_train_report, sample_train_report,
        ("eval_accuracy",), ("theta",),
    ),
}


def _dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _nan_first(value):
    arr = np.array(value, dtype=np.float64)
    arr.flat[0] = np.nan
    return arr.tolist()


@pytest.mark.parametrize("fault", ["missing_key", "ragged", "string", "nan"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_CASES))
def test_malformed_document_names_file_and_field(tmp_path, kind, fault):
    save, load, sample, missing, array = MALFORMED_CASES[kind]
    path = tmp_path / "doc.json"
    save(path, sample())
    doc = json.loads(path.read_text())
    keys = missing if fault == "missing_key" else array
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if fault == "missing_key":
        del parent[keys[-1]]
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
    if fault == "nan":
        assert isinstance(info.value, NonFiniteValue)
        assert "non-finite" in message
    else:
        assert "malformed" in message and "non-finite" not in message


def test_transported_document_with_an_invalid_process_names_it(tmp_path):
    path = tmp_path / "transported.json"
    save_transported(path, sample_transported())
    doc = json.loads(path.read_text())
    doc["process"]["kind"] = "levy"
    path.write_text(json.dumps(doc))
    with pytest.raises(LatentFileError, match="process: unknown process kind 'levy'") as info:
        load_transported(path)
    assert str(path) in str(info.value)


def test_document_counts_are_integers_and_arrays_keep_their_kind(tmp_path):
    result = sample_distillation()
    assert all(cls.counts.dtype == np.int64 for cls in result.classes)
    path = tmp_path / "distilled.json"
    save_distillation(path, result)
    loaded = load_distillation(path)
    for cls in loaded.classes:
        assert cls.counts.dtype == np.int64
        assert cls.centroids.dtype == cls.weights.dtype == np.float64
    # One float entry makes the whole array float64.
    doc = json.loads(path.read_text())
    doc["classes"][0]["counts"][0] = 1.5
    path.write_text(json.dumps(doc))
    assert load_distillation(path).classes[0].counts.dtype == np.float64


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
            "--weights", "variance_reduced",
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


def test_cli_train_names_the_document_with_a_nonfinite_centroid(tmp_path, capsys):
    path = tmp_path / "d.json"
    save_distillation(path, sample_distillation())
    doc = json.loads(path.read_text())
    doc["classes"][1]["centroids"][0][0] = float("nan")
    path.write_text(json.dumps(doc))
    status = cli.main(["train", "--distilled", str(path), "--out", str(tmp_path / "r.json")])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{path}: classes[1].centroids holds non-finite values" in err


# Edits to classes[0] of a saved distillation, each with the field its error names.
SHAPE_FAULTS = {
    "flat_centroids": (lambda cls: cls.update(centroids=cls["centroids"][0]), "centroids"),
    "extra_column": (
        lambda cls: cls.update(centroids=[row + [0.0] for row in cls["centroids"]]),
        "classes[0].centroids",
    ),
    "short_counts": (lambda cls: cls["counts"].pop(), "counts"),
    "short_weights": (lambda cls: cls["weights"].pop(), "weights"),
    "short_variance_reduced": (lambda cls: cls["variance_reduced"].pop(), "variance_reduced"),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_cli_train_names_a_misshapen_distillation_field(tmp_path, capsys, fault):
    edit, field = SHAPE_FAULTS[fault]
    path = tmp_path / "d.json"
    save_distillation(path, sample_distillation())
    doc = json.loads(path.read_text())
    edit(doc["classes"][0])
    path.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    status = cli.main(["train", "--distilled", str(path), "--out", str(report)])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{path}: malformed quantdistill.distillation document" in err
    assert "classes[0]" in err and field in err
    assert not report.exists()


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


def test_cli_distill_rejects_negative_batch_settings(tmp_path, capsys):
    latents, labels_path = write_demo_files(tmp_path)
    out = tmp_path / "distilled.json"
    for schedule in ("count_reciprocal", "harmonic"):
        status = cli.main(
            [
                "distill",
                "--latents", str(latents),
                "--labels", str(labels_path),
                "--ipc", "3",
                "--schedule", schedule,
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


def test_cli_w2_prints_distance(tmp_path, capsys):
    left = tmp_path / "left.bin"
    right = tmp_path / "right.bin"
    save_latents(left, np.array([[0.0, 0.0]]))
    save_latents(right, np.array([[3.0, 4.0]]))
    status = cli.main(["w2", "--left", str(left), "--right", str(right)])
    assert status == 0
    assert capsys.readouterr().out.strip() == "5.0"


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


def test_cli_unknown_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


def test_cli_seed_env_variable_is_default(tmp_path, monkeypatch):
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
    via_env = tmp_path / "env.json"
    assert cli.main(distill_args(explicit) + ["--seed", "9"]) == 0
    monkeypatch.setenv("QUANTDISTILL_SEED", "9")
    assert cli.main(distill_args(via_env)) == 0
    assert explicit.read_bytes() == via_env.read_bytes()
    monkeypatch.setenv("QUANTDISTILL_SEED", "not-a-number")
    assert cli.main(distill_args(via_env)) == 2


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
