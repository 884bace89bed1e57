"""Tests for ``distill``'s class map: the fork pool and the in-order loop.

Every test name contains ``class_pool``, so ``pytest -k class_pool`` selects
them, as CI does once more pinned to one CPU.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantdistill import cli, pipeline
from quantdistill.errors import EmptyCluster, InsufficientPoints
from quantdistill.latentio import save_distillation, save_labels, save_latents
from quantdistill.pipeline import demo_dataset, distill

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
