"""Tests for the class map of ``distill`` and ``diffuse`` (the fork pool and
the in-order loop) and for the per-class latent reader behind ``distill``,
``diffuse`` and ``train``'s eval accuracy.

Every test name contains ``class_pool``, so ``pytest -k class_pool`` selects
them, as CI does once more pinned to one CPU.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantdistill import cli, latentio, pipeline
from quantdistill.diffusion import SdeSpec
from quantdistill.errors import (
    EmptyCluster,
    InsufficientPoints,
    NonFiniteValue,
    QuantDistillError,
    TruncatedFile,
)
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


def _assert_no_workers_left():
    # Every forked worker has been reaped: this process has no child left.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spy_on_classes(monkeypatch, workers: int, task="_quantize_class", points_type=object):
    # Each class asserts where it runs, and what it reads: on a pool of
    # `workers` processes, class c runs in a forked worker unless c is a
    # multiple of `workers`, and then in this process. A fork inherits the spy.
    main_pid, exact = os.getpid(), getattr(pipeline, task)

    def spy(item, points, *args):
        label = getattr(item, "label", item)
        assert (os.getpid() != main_pid) == (workers > 1 and label % workers != 0)
        assert isinstance(points, points_type)
        return exact(item, points, *args)

    monkeypatch.setattr(pipeline, task, spy)


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
    _spy_on_classes(monkeypatch, workers)
    pooled = _document(tmp_path, "pooled", distill(points, labels, 6, 11, **kwargs))
    assert pooled == serial
    _assert_no_workers_left()


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
    _spy_on_classes(monkeypatch, 3)
    with pytest.raises(error) as pooled:
        distill(points, labels, 2, 0, **settings)
    assert str(pooled.value) == str(serial.value)
    _assert_no_workers_left()

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
    _assert_no_workers_left()


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


class _Decided(Exception):
    pass


def _diffuse_work(monkeypatch, classes, per_class, ref_per_class, dim, steps, mc) -> float:
    """The per-class work ``diffuse`` passes to ``_class_workers``, which stops it there."""
    seen = []

    def record(n_classes, work):
        seen.append((n_classes, work))
        raise _Decided

    monkeypatch.setattr(pipeline, "_class_workers", record)
    result = latentio.DistillationResult(
        seed=0, per_class=per_class, dim=dim, batch_size=64, n_iterations=200,
        classes=tuple(
            latentio.ClassQuantization(
                label=c,
                centroids=np.zeros((per_class, dim)),
                counts=np.ones(per_class, dtype=np.int64),
                weights=np.full(per_class, 1.0 / per_class),
            )
            for c in range(classes)
        ),
    )
    labels = np.repeat(np.arange(classes), ref_per_class)
    sde = SdeSpec("brownian", 1.0, 0.25, steps)
    with pytest.raises(_Decided):
        diffuse(result, np.zeros((labels.size, dim)), labels, sde, mc, 0)
    [(n_classes, work)] = seen
    assert n_classes == classes
    return work


@pytest.mark.parametrize(
    "workload, shape, pooled",
    [
        # classes, IPC, reference points per class, dim, steps, n_mc, as bench/workloads.py.
        ("paper_shape", (4, 10, 16, 4096, 10, 32), True),
        ("desk_pipeline", (3, 10, 300, 16, 100, 200), True),
        ("certify", (3, 8, 100, 4, 100, 100), False),
    ],
)
def test_class_pool_floor_splits_the_diffuse_benchmark_shapes(monkeypatch, workload, shape, pooled):
    assert (_diffuse_work(monkeypatch, *shape) >= FLOOR) == pooled


def test_class_pool_worker_count_reads_this_process_affinity(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    usable = len(os.sched_getaffinity(0))
    assert pipeline._class_workers(64, FLOOR) == min(64, usable)


def test_class_pool_small_distill_runs_in_process(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    _spy_on_classes(monkeypatch, 1)
    points, labels = demo_dataset(2, n_per_class=50, n_classes=3)
    distill(points, labels, 4, 0, batch_size=8, n_iterations=10)


# Prints whether the process forked or imported multiprocessing during one
# distill call, and then during one diffuse call of the distilled classes.
_PROBE = """
import os, sys
forks = []
os.register_at_fork(before=lambda: forks.append(1))
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from quantdistill import pipeline
from quantdistill.diffusion import SdeSpec
pipeline._POOL_FLOOR = float(sys.argv[2])
points, labels = pipeline.demo_dataset(0, n_per_class=40, n_classes=3)
result = pipeline.distill(points, labels, 3, 0, batch_size=8, n_iterations=10)
print(bool(forks) or "multiprocessing" in sys.modules)
pipeline.diffuse(result, points, labels, SdeSpec("brownian", 1.0, 0.25, 5), 10, 0)
print(bool(forks) or "multiprocessing" in sys.modules)
"""


@pytest.mark.parametrize("mode, floor", [("free", FLOOR), ("pinned", 0.0)])
def test_class_pool_serial_runs_never_import_multiprocessing(mode, floor):
    # Below the floor, and on one CPU even with no floor, distill and diffuse
    # stay in process: the interpreter neither forks nor imports
    # multiprocessing.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, mode, json.dumps(floor)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == ["False", "False"], run.stderr


# Runs a stage through the CLI on two processes, whose forked worker kills
# itself on class 1, and prints as JSON the exit status, whether the output
# exists and how many child processes are alive. diffuse first distills its
# input in process.
_KILL = """
import json, os, signal, sys
from quantdistill import cli, latentio, pipeline
folder, stage = sys.argv[1:3]
points, labels = pipeline.demo_dataset(0, n_per_class=40, n_classes=3)
latentio.save_latents(folder + "/latents.bin", points)
latentio.save_labels(folder + "/labels.txt", labels)
cloud = ["--latents", folder + "/latents.bin", "--labels", folder + "/labels.txt"]
argv = ["distill", *cloud, "--ipc", "3", "--batch-size", "8", "--iterations", "10"]
task = "_quantize_class"
if stage == "diffuse":
    cli.main([*argv, "--out", folder + "/distilled.json"])
    argv = ["diffuse", "--distilled", folder + "/distilled.json", *cloud, "--steps", "5",
            "--mc", "10"]
    task = "_transport_class"
exact = getattr(pipeline, task)

def kill_class_1(item, *args):
    if getattr(item, "label", item) == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return exact(item, *args)

setattr(pipeline, task, kill_class_1)
pipeline._class_workers = lambda n_classes, work: 2
out = folder + "/out.json"
status = cli.main([*argv, "--out", out])
try:
    children = int(os.waitpid(-1, os.WNOHANG) is not None)
except ChildProcessError:
    children = 0
print(json.dumps([status, os.path.exists(out), children]))
"""


def _kill_class_1(tmp_path, stage):
    # In a subprocess with a timeout, so that a pool that waits forever for
    # the lost class fails this test rather than hanging the suite.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", _KILL, str(tmp_path), stage],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == [2, False, 0], run.stderr
    # One error line and no traceback.
    assert run.stderr.startswith(f"error: a {stage} worker process died")
    assert run.stderr.count("\n") == 1


def test_class_pool_dead_worker_fails_distill_instead_of_hanging(tmp_path):
    _kill_class_1(tmp_path, "distill")


def test_class_pool_dead_worker_fails_diffuse_instead_of_hanging(tmp_path):
    _kill_class_1(tmp_path, "diffuse")


def _dies_on(label, *, fails=()):
    def task(item, *state):
        if item in fails:
            raise InsufficientPoints(f"class {item}: one distinct point")
        if item == label:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    return task


@pytest.mark.parametrize("fails, error", [((), QuantDistillError), ((0,), InsufficientPoints)])
def test_class_pool_dead_worker_counts_as_its_first_class(fails, error):
    # On 2 processes the worker runs classes 1 and 3 and dies on 1, so its
    # death is the first error unless class 0, in this process, fails.
    with pytest.raises(error) as raised:
        pipeline._map_classes("diffuse", _dies_on(1, fails=fails), range(4), (), 2)
    assert str(raised.value).startswith("class 0: " if fails else "a diffuse worker process died")
    _assert_no_workers_left()


def test_class_pool_result_that_does_not_pickle_fails_the_stage():
    def task(item, *state):
        return (lambda: item) if item == 1 else item

    with pytest.raises(QuantDistillError, match="a distill worker process died"):
        pipeline._map_classes("distill", task, range(3), (), 2)
    _assert_no_workers_left()


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


def test_class_pool_reader_pool_is_byte_identical_to_the_serial_loop(tmp_path, monkeypatch):
    points, labels, latents, _ = _shuffled_cloud(tmp_path, n_classes=5)
    settings = dict(batch_size=16, n_iterations=20)
    with LatentReader(latents) as reader:
        _force_workers(monkeypatch, 1)
        serial = _document(tmp_path, "serial", distill(reader, labels, 6, 11, **settings))
        _force_workers(monkeypatch, 3)
        _spy_on_classes(monkeypatch, 3, points_type=LatentReader)
        pooled = _document(tmp_path, "pooled", distill(reader, labels, 6, 11, **settings))
    assert pooled == serial
    _assert_no_workers_left()


def _transported(tmp_path, name, result) -> bytes:
    path = tmp_path / f"{name}.json"
    save_transported(path, result)
    return path.read_bytes()


@pytest.mark.parametrize("route", ["array", "reader"])
def test_class_pool_diffuse_is_byte_identical_to_the_serial_loop(tmp_path, monkeypatch, route):
    points, labels, latents, _ = _shuffled_cloud(tmp_path, n_classes=5)
    result = distill(points, labels, 4, 3, batch_size=16, n_iterations=20)
    sde = SdeSpec("ornstein_uhlenbeck", 1.0, 0.2, 10)
    with LatentReader(latents) as reader:
        cloud = reader if route == "reader" else points
        _force_workers(monkeypatch, 1)
        serial = _transported(tmp_path, "serial", diffuse(result, cloud, labels, sde, 30, 3))
        _force_workers(monkeypatch, 3)
        _spy_on_classes(monkeypatch, 3, "_transport_class", type(cloud))
        pooled = _transported(tmp_path, "pooled", diffuse(result, cloud, labels, sde, 30, 3))
    assert pooled == serial
    _assert_no_workers_left()


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
    _assert_no_workers_left()


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
    _assert_no_workers_left()


@pytest.mark.parametrize("workers", [1, 3])
def test_class_pool_diffuse_nan_in_two_classes_names_class_1s_row(
    tmp_path, monkeypatch, capsys, workers
):
    # Class 2's bad row comes first in the file, but class 1 is transported first.
    points, labels, latents, labels_path = _shuffled_cloud(tmp_path)
    distilled = tmp_path / "distilled.json"
    save_distillation(distilled, distill(points, labels, 2, 0, batch_size=8, n_iterations=10))
    first_of_2, last_of_1 = np.flatnonzero(labels == 2)[0], np.flatnonzero(labels == 1)[-1]
    assert first_of_2 < last_of_1
    points[[first_of_2, last_of_1], 2] = np.nan
    _write_raw_latents(latents, points)
    _force_workers(monkeypatch, workers)
    out = tmp_path / "transported.json"
    status = cli.main([
        "diffuse", "--distilled", str(distilled), "--latents", str(latents),
        "--labels", str(labels_path), "--steps", "5", "--mc", "10", "--out", str(out),
    ])
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {latents}: row {last_of_1} (0-based) holds NaN or infinite entries\n"
    )
    assert not out.exists()
    _assert_no_workers_left()


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
