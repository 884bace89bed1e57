"""Tests for ``distill``'s class map (the fork pool and the in-order loop)
and for the per-class latent reader behind ``distill``, ``diffuse`` and
``train``'s eval accuracy.

Every test name contains ``class_pool``, so ``pytest -k class_pool`` selects
them, as CI does once more pinned to one CPU.
"""

import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantdistill import cli, latentio, pipeline
from quantdistill.diffusion import SdeSpec
from quantdistill.errors import EmptyCluster, InsufficientPoints, NonFiniteValue, TruncatedFile
from quantdistill.latentio import (
    LatentReader,
    load_distillation,
    load_latents,
    save_distillation,
    save_labels,
    save_latents,
    save_train_report,
    save_transported,
)
from quantdistill.pipeline import demo_dataset, diffuse, distill, train
from quantdistill.risk import classification_accuracy

SRC = str(Path(pipeline.__file__).resolve().parents[1])
FLOOR = pipeline._POOL_FLOOR


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "_class_workers", lambda n_classes, work: workers)


def _spy_on_classes(monkeypatch, in_worker: bool):
    # Each class asserts where it is quantized; a fork inherits the spy.
    main_pid, quantize = os.getpid(), pipeline._quantize_class

    def spy(*args):
        assert (os.getpid() != main_pid) == in_worker
        return quantize(*args)

    monkeypatch.setattr(pipeline, "_quantize_class", spy)


def _document(tmp_path, name, result) -> bytes:
    path = tmp_path / f"{name}.json"
    save_distillation(path, result)
    return path.read_bytes()


@pytest.mark.parametrize("workers", [2, 5])
def test_class_pool_distill_is_byte_identical_to_the_serial_loop(tmp_path, monkeypatch, workers):
    points, labels = demo_dataset(4, n_per_class=80, n_classes=5, dim=6)
    kwargs = dict(batch_size=16, n_iterations=20)
    serial = _document(tmp_path, "serial", distill(points, labels, 6, 11, **kwargs))
    _force_workers(monkeypatch, workers)
    _spy_on_classes(monkeypatch, in_worker=True)
    pooled = _document(tmp_path, "pooled", distill(points, labels, 6, 11, **kwargs))
    assert pooled == serial
    assert multiprocessing.active_children() == []


def _failing_cloud(error):
    """Class 0 quantizes; classes 1 and 2 raise ``error``; class 3 quantizes."""
    rng = np.random.default_rng(0)
    blob = rng.normal(size=(40, 2))
    if error is EmptyCluster:
        # Copies of one point and a far outlier: the seeding picks the outlier,
        # and 16 draws never reach it.
        bad = [np.vstack([np.full((100, 2), c), [[50.0 * c, 50.0]]]) for c in (10.0, 20.0)]
    else:
        bad = [np.full((30, 2), c) for c in (10.0, 20.0)]  # one distinct point
    blocks = [blob, *bad, blob + 5.0]
    return np.vstack(blocks), np.repeat(np.arange(4), [len(b) for b in blocks])


@pytest.mark.parametrize("error", [EmptyCluster, InsufficientPoints])
def test_class_pool_error_names_the_lowest_failing_class(tmp_path, monkeypatch, capsys, error):
    points, labels = _failing_cloud(error)
    settings = dict(batch_size=4, n_iterations=4)
    with pytest.raises(error) as serial:
        distill(points, labels, 2, 0, **settings)
    assert str(serial.value).startswith("class 1: ")
    _force_workers(monkeypatch, 3)
    _spy_on_classes(monkeypatch, in_worker=True)
    with pytest.raises(error) as pooled:
        distill(points, labels, 2, 0, **settings)
    assert str(pooled.value) == str(serial.value)
    assert multiprocessing.active_children() == []

    latents, labels_path = tmp_path / "latents.bin", tmp_path / "labels.txt"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    status = cli.main([
        "distill", "--latents", str(latents), "--labels", str(labels_path),
        "--ipc", "2", "--batch-size", "4", "--iterations", "4",
        "--seed", "0", "--out", str(tmp_path / "distilled.json"),
    ])
    assert status == 2
    assert f"error: {serial.value}" in capsys.readouterr().err
    assert not (tmp_path / "distilled.json").exists()
    assert multiprocessing.active_children() == []


@pytest.fixture
def host(monkeypatch):
    """Set the usable CPUs and BLAS thread variables ``_class_workers`` reads."""

    def configure(cpus, openblas=None, omp=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)

    return configure


@pytest.mark.parametrize(
    "cpus, openblas, omp, n_classes, expected",
    [
        (8, "1", None, 4, 4),  # one worker per class
        (8, "1", None, 10, 8),  # one worker per CPU
        (8, "2", None, 10, 4),  # each worker's BLAS threads get their own CPUs
        (8, "3", None, 10, 2),
        (8, None, "2", 10, 4),  # OMP_NUM_THREADS when OpenBLAS's is unset
        (8, "0", "4", 10, 2),  # a non-positive or unreadable value is skipped
        (8, "many", "4", 10, 2),
        (1, "1", None, 4, 1),  # one usable CPU
        (8, None, None, 4, 1),  # no BLAS cap: BLAS takes every CPU
        (8, "many", None, 4, 1),
        (8, "8", None, 4, 1),
    ],
)
def test_class_pool_worker_count(host, cpus, openblas, omp, n_classes, expected):
    host(cpus, openblas, omp)
    assert pipeline._class_workers(n_classes, FLOOR) == expected


def test_class_pool_is_serial_below_the_floor_or_without_affinity(host, monkeypatch):
    host(8, "1")
    assert pipeline._class_workers(4, FLOOR) == 4
    assert pipeline._class_workers(4, np.nextafter(FLOOR, 0.0)) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._class_workers(4, FLOOR) == 1


def test_class_pool_floor_splits_the_benchmark_shapes():
    # batch_size * n_iterations * per_class * dim at the CLI defaults.
    def work(per_class, dim):
        return pipeline.DEFAULT_BATCH_SIZE * pipeline.DEFAULT_N_ITERATIONS * per_class * dim

    assert work(10, 4096) >= FLOOR  # paper_shape-sized classes
    assert work(10, 16) < FLOOR  # desk-scale classes


def test_class_pool_worker_count_reads_this_process_affinity(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    usable = len(os.sched_getaffinity(0))
    assert pipeline._class_workers(64, FLOOR) == min(64, usable)


def test_class_pool_small_distill_runs_in_process(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    _spy_on_classes(monkeypatch, in_worker=False)
    points, labels = demo_dataset(2, n_per_class=50, n_classes=3)
    distill(points, labels, 4, 0, batch_size=8, n_iterations=10)


# Prints whether the pool path's import happened during one distill call.
_PROBE = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from quantdistill import pipeline
pipeline._POOL_FLOOR = float(sys.argv[2])
points, labels = pipeline.demo_dataset(0, n_per_class=40, n_classes=3)
pipeline.distill(points, labels, 3, 0, batch_size=8, n_iterations=10)
print("multiprocessing" in sys.modules)
"""


@pytest.mark.parametrize("mode, floor", [("free", FLOOR), ("pinned", 0.0)])
def test_class_pool_serial_runs_never_import_multiprocessing(mode, floor):
    # Below the floor, and on one CPU even with no floor, distill stays in
    # process and the interpreter never imports multiprocessing.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, mode, json.dumps(floor)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "False", run.stderr


# Runs distill through the CLI on two workers, class 1's of which kills itself,
# and prints as JSON the exit status, whether the output exists and how many
# child processes are alive.
_KILL = """
import json, multiprocessing, os, signal, sys
from quantdistill import cli, latentio, pipeline
folder = sys.argv[1]
points, labels = pipeline.demo_dataset(0, n_per_class=40, n_classes=3)
latentio.save_latents(folder + "/latents.bin", points)
latentio.save_labels(folder + "/labels.txt", labels)
quantize = pipeline._quantize_class

def kill_class_1(label, *args):
    if label == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return quantize(label, *args)

pipeline._quantize_class = kill_class_1
pipeline._class_workers = lambda n_classes, work: 2
out = folder + "/distilled.json"
status = cli.main([
    "distill", "--latents", folder + "/latents.bin", "--labels", folder + "/labels.txt",
    "--ipc", "3", "--batch-size", "8", "--iterations", "10", "--out", out,
])
print(json.dumps([status, os.path.exists(out), len(multiprocessing.active_children())]))
"""


def test_class_pool_dead_worker_fails_distill_instead_of_hanging(tmp_path):
    # In a subprocess with a timeout, so that a pool that waits forever for
    # the lost class fails this test rather than hanging the suite.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", _KILL, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(run.stdout) == [2, False, 0], run.stderr
    # One error line and no traceback.
    assert run.stderr.startswith("error: a distill worker process died")
    assert run.stderr.count("\n") == 1


# The per-class reader.


def _shuffled_cloud(tmp_path, seed=5, n_per_class=60, n_classes=4, dim=5):
    """Demo blobs with their rows shuffled, saved; every class spans many runs of rows."""
    points, labels = demo_dataset(seed, n_per_class=n_per_class, n_classes=n_classes, dim=dim)
    order = np.random.default_rng(seed).permutation(labels.shape[0])
    points, labels = points[order], labels[order]
    latents, labels_path = tmp_path / "latents.bin", tmp_path / "labels.txt"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    return points, labels, latents, labels_path


def _count_preadv(monkeypatch) -> list:
    calls, preadv = [], os.preadv

    def counted(fd, buffers, offset):
        calls.append(offset)
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counted)
    return calls


def test_class_pool_reader_reads_a_scattered_class_one_preadv_per_run(tmp_path, monkeypatch):
    points, labels, latents, _ = _shuffled_cloud(tmp_path)
    rows = np.flatnonzero(labels == 2)
    runs = 1 + np.count_nonzero(np.diff(rows) != 1)
    assert runs > 10
    calls = _count_preadv(monkeypatch)
    with LatentReader(latents) as reader:
        assert reader.shape == points.shape
        got = reader.read_rows(rows)
        assert len(calls) == runs
        np.testing.assert_array_equal(got, points[rows])
        # Any order, a caller's buffer, and a slice as one run.
        out = np.full((len(rows) + 3, points.shape[1]), -1.0)
        view = reader.read_rows(rows[::-1], out)
        assert view.base is out
        np.testing.assert_array_equal(view, points[rows[::-1]])
        np.testing.assert_array_equal(out[len(rows):], -1.0)
        calls.clear()
        np.testing.assert_array_equal(reader.read_rows(slice(7, 19)), points[7:19])
        assert len(calls) == 1
        with pytest.raises(IndexError):
            reader.read_rows([0, points.shape[0]])
        with pytest.raises(ValueError, match="out must be"):
            reader.read_rows(rows, np.empty((len(rows) - 1, points.shape[1])))
    # Where os.preadv is missing (Windows), each run is a seek and a read.
    monkeypatch.delattr(os, "preadv")
    with LatentReader(latents) as reader:
        np.testing.assert_array_equal(reader.read_rows(rows), points[rows])


def test_class_pool_reader_distill_and_diffuse_match_the_array_route(tmp_path, monkeypatch):
    points, labels, latents, _ = _shuffled_cloud(tmp_path)
    settings = dict(batch_size=16, n_iterations=20)
    sde = SdeSpec("brownian", 1.0, 0.25, 10)
    from_array = distill(points, labels, 4, 3, **settings)
    transported = diffuse(from_array, points, labels, sde, 30, 3)
    _force_workers(monkeypatch, 1)
    with LatentReader(latents) as reader:
        from_reader = distill(reader, labels, 4, 3, **settings)
        transported_from_reader = diffuse(from_reader, reader, labels, sde, 30, 3)
    assert _document(tmp_path, "reader", from_reader) == _document(tmp_path, "array", from_array)
    paths = tmp_path / "t_array.json", tmp_path / "t_reader.json"
    save_transported(paths[0], transported)
    save_transported(paths[1], transported_from_reader)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _spy_on_reader_classes(monkeypatch):
    # Each class asserts that it runs in a pool worker and reads through the reader.
    main_pid, quantize = os.getpid(), pipeline._quantize_class

    def spy(label, points, *args):
        assert os.getpid() != main_pid and isinstance(points, LatentReader)
        return quantize(label, points, *args)

    monkeypatch.setattr(pipeline, "_quantize_class", spy)


def test_class_pool_reader_pool_is_byte_identical_to_the_serial_loop(tmp_path, monkeypatch):
    points, labels, latents, _ = _shuffled_cloud(tmp_path, n_classes=5)
    settings = dict(batch_size=16, n_iterations=20)
    with LatentReader(latents) as reader:
        _force_workers(monkeypatch, 1)
        serial = _document(tmp_path, "serial", distill(reader, labels, 6, 11, **settings))
        _force_workers(monkeypatch, 3)
        _spy_on_reader_classes(monkeypatch)
        pooled = _document(tmp_path, "pooled", distill(reader, labels, 6, 11, **settings))
    assert pooled == serial
    assert multiprocessing.active_children() == []


def _write_raw_latents(path, points):
    """A binary latent file of any values, NaN included, as ``bench/gen.py`` writes one."""
    arr = np.ascontiguousarray(points, dtype="<f8")
    path.write_bytes(latentio.MAGIC + struct.pack("<IQQ", 1, *arr.shape) + arr.tobytes())


def _distill_argv(latents, labels_path, out):
    return [
        "distill", "--latents", str(latents), "--labels", str(labels_path),
        "--ipc", "2", "--batch-size", "4", "--iterations", "4",
        "--seed", "0", "--out", str(out),
    ]


@pytest.mark.parametrize("workers", [1, 3])
def test_class_pool_nan_in_a_later_class_names_the_file_row(tmp_path, monkeypatch, capsys, workers):
    points, labels, latents, labels_path = _shuffled_cloud(tmp_path)
    row = int(np.flatnonzero(labels == 3)[17])
    points[row, 1] = np.nan
    _write_raw_latents(latents, points)
    _force_workers(monkeypatch, workers)
    out = tmp_path / "distilled.json"
    assert cli.main(_distill_argv(latents, labels_path, out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {latents}: row {row} (0-based) holds NaN or infinite entries\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 3])
def test_class_pool_lowest_failing_class_reports_first(tmp_path, monkeypatch, capsys, workers):
    # Class 1 has one distinct point and class 3 a NaN row: a class's rows are
    # read when it is quantized, so class 1's error comes first. With the two
    # faults swapped, the NaN row (now in class 1) comes first.
    _force_workers(monkeypatch, workers)
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(4), 30)
    labels_path = tmp_path / "labels.txt"
    save_labels(labels_path, labels)
    out = tmp_path / "distilled.json"
    for few, nan in ((1, 3), (3, 1)):
        cloud = np.vstack([rng.normal(size=(30, 2)) + c for c in (0.0, 4.0, 8.0, -8.0)])
        cloud[labels == few] = 4.0  # one distinct point
        cloud[30 * nan + 5, 0] = np.nan
        latents = tmp_path / f"latents_{few}.bin"
        _write_raw_latents(latents, cloud)
        assert cli.main(_distill_argv(latents, labels_path, out)) == 2
        err = capsys.readouterr().err
        if few == 1:
            assert err.startswith("error: class 1: "), err
        else:
            assert err == f"error: {latents}: row 35 (0-based) holds NaN or infinite entries\n"
        assert not out.exists()
    assert multiprocessing.active_children() == []


def test_class_pool_reader_truncated_or_overlong_payload(tmp_path, capsys):
    points, labels, latents, labels_path = _shuffled_cloud(tmp_path)
    whole = latents.read_bytes()
    out = tmp_path / "distilled.json"
    for data, message in (
        (whole[:-8], f"{len(whole) - 8} bytes on disk, header declares {len(whole)}"),
        (whole + b"\0" * 8, f"{len(whole) + 8} bytes on disk, header declares {len(whole)}"),
    ):
        latents.write_bytes(data)
        assert cli.main(_distill_argv(latents, labels_path, out)) == 2
        assert capsys.readouterr().err == f"error: {latents}: {message}\n"
        assert not out.exists()
    # Cut short after the header was checked: the read of the lost rows fails.
    latents.write_bytes(whole)
    with LatentReader(latents) as reader:
        os.truncate(latents, len(whole) - 3 * 8 * points.shape[1])
        np.testing.assert_array_equal(reader.read_rows(slice(0, 10)), points[:10])
        last = points.shape[0] - 1
        ended = rf"{latents}: payload ended before row {last} \(0-based\) of {last + 1}$"
        with pytest.raises(TruncatedFile, match=ended):
            reader.read_rows([0, last])
        with pytest.raises(TruncatedFile):
            distill(reader, labels, 2, 0, batch_size=4, n_iterations=4)


def _overlapping_blobs(tmp_path, n):
    points, labels = demo_dataset(8, n_per_class=n // 3 + 1, n_classes=3, dim=6, spread=1.5)
    points, labels = points[:n], labels[:n]
    latents, labels_path = tmp_path / "eval.bin", tmp_path / "eval.txt"
    save_latents(latents, points)
    save_labels(labels_path, labels)
    return points, labels, latents


BLOCK = 7  # eval rows per block in the tests below


@pytest.mark.parametrize("n", [5 * BLOCK - 1, 5 * BLOCK, 5 * BLOCK + 1])
def test_class_pool_reader_eval_accuracy_by_blocks(tmp_path, monkeypatch, n):
    points, labels, latents = _overlapping_blobs(tmp_path, n)
    loaded = load_latents(latents)
    result = distill(points, labels, 2, 0, batch_size=8, n_iterations=10)
    monkeypatch.setattr(pipeline, "_EVAL_BLOCK_BYTES", BLOCK * 8 * points.shape[1])
    reads, read_rows = [], LatentReader.read_rows

    def spy(self, rows, out=None):
        reads.append((rows, out))
        return read_rows(self, rows, out)

    monkeypatch.setattr(LatentReader, "read_rows", spy)
    classifier, from_array = train(result, epochs=20, eval_points=points, eval_labels=labels)
    with LatentReader(latents) as reader:
        _, from_reader = train(result, epochs=20, eval_points=reader, eval_labels=labels)
    expected = classification_accuracy(classifier, loaded, labels, from_array.theta)
    assert from_reader.eval_accuracy == from_array.eval_accuracy == expected < 1.0
    # One read per block, in order, into one reused buffer of BLOCK rows.
    assert [(rows.start, rows.stop) for rows, _ in reads] == [
        (start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)
    ]
    assert all(out is reads[0][1] and out.shape[0] == BLOCK for _, out in reads)
    paths = tmp_path / "array.json", tmp_path / "reader.json"
    save_train_report(paths[0], from_array)
    save_train_report(paths[1], from_reader)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_class_pool_reader_nonfinite_eval_row_fails_train_after_the_epochs(tmp_path, capsys):
    points, labels, latents = _overlapping_blobs(tmp_path, 40)
    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, distill(points, labels, 2, 0, batch_size=8, n_iterations=10))
    points[29, 3] = np.inf
    _write_raw_latents(latents, points)
    report = tmp_path / "report.json"
    status = cli.main([
        "train", "--distilled", str(distilled), "--epochs", "5", "--out", str(report),
        "--eval-latents", str(latents), "--eval-labels", str(tmp_path / "eval.txt"),
    ])
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {latents}: row 29 (0-based) holds NaN or infinite entries\n"
    )
    assert not report.exists()
    # From an array, the row is named too.
    points[29, 3] = np.nan
    with pytest.raises(ValueError, match=r"points row 29 \(0-based\) holds NaN"):
        train(load_distillation(distilled), epochs=5, eval_points=points, eval_labels=labels)


def _distill_peak(tmp_path, n_classes) -> tuple[int, int]:
    """Traced allocation peak of ``distill`` through a reader, and the cloud's bytes."""
    points, labels = demo_dataset(9, n_per_class=400, n_classes=n_classes, dim=64)
    latents = tmp_path / f"cloud_{n_classes}.bin"
    save_latents(latents, points)
    tracemalloc.start()
    try:
        with LatentReader(latents) as reader:
            distill(reader, labels, 1, 0, batch_size=8, n_iterations=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, points.nbytes


def test_class_pool_reader_distill_peak_does_not_grow_with_the_classes(tmp_path, monkeypatch):
    # One class (400 x 64) at a time: from 4 to 40 classes the cloud grows by
    # 7.4 MB, the peak only by the O(n) label temporaries, under a tenth of that.
    _force_workers(monkeypatch, 1)
    peak_4, cloud_4 = _distill_peak(tmp_path, 4)
    peak_40, cloud_40 = _distill_peak(tmp_path, 40)
    assert peak_40 - peak_4 < 0.1 * (cloud_40 - cloud_4), (peak_4, peak_40)
    assert peak_40 < cloud_40 / 4
