"""End-to-end distillation workflows over labeled latent clouds.

Each class is handled independently under a sub-seed derived from the master
seed and the class label, so per-class results do not depend on how many
other classes exist or the order they are processed in.

A latent cloud is an ``(n, d)`` array or an open ``latentio.LatentReader``.
``distill`` and ``diffuse`` gather one class at a time and ``train`` scores
its eval cloud in row blocks, all through ``_gather``, so from a reader no
stage holds more than a class or a block of the file.

``distill`` and ``diffuse`` map their classes through ``_map_classes``:
large classes are spread over the calling process and forked worker
processes, small ones run in an in-order loop, and either way the result is
byte for byte the same.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

from .diffusion import ReferenceLaw, SdeSpec, transport_quantization
from .errors import DimensionError, EmptyCluster, InsufficientPoints, QuantDistillError
from .latentio import (
    ClassQuantization,
    ClassTransport,
    DistillationResult,
    LatentReader,
    TrainReport,
    TransportedResult,
)
from .measures import DiscreteMeasure, _first_nonfinite_row, as_label_array
from .quantize import minibatch_kmeans
from .risk import (
    LipschitzFunction,
    TinyClassifier,
    WeightedDataset,
    classification_accuracy,
    loss_and_gradient,
    train_weighted,
)

WEIGHT_MODES = ("normalized", "uniform")
DEFAULT_BATCH_SIZE = 64
DEFAULT_N_ITERATIONS = 200


def class_subseed(master_seed: int, label: int) -> np.random.SeedSequence:
    """Deterministic per-class seed keyed on (master seed, class label).

    Independent of class ordering and of which other classes are present.
    """
    master_seed = int(master_seed)
    label = int(label)
    if master_seed < 0 or label < 0:
        raise ValueError("master_seed and label must be nonnegative")
    return np.random.SeedSequence((master_seed, label))


def distill(
    points,
    labels,
    per_class: int,
    seed: int,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    n_iterations: int = DEFAULT_N_ITERATIONS,
) -> DistillationResult:
    """Quantize each class of a labeled cloud into weighted centroids.

    ``points`` is an ``(n, d)`` array or an open ``LatentReader``; from a
    reader each class reads only its own rows, when it is quantized, so the
    whole cloud is never held. Each class runs ``minibatch_kmeans`` under
    its own sub-seed: D² seeding, then ``n_iterations`` batches of
    ``batch_size`` draws of its points, each assigned against the centroids
    frozen at the batch start. Records centroids, raw win counts and the
    cell-mass weights ``counts / draws``.

    Large classes are spread over this process and forked worker
    processes, as many in all as the usable CPUs hold at the BLAS thread
    count (``_map_classes``); the result is byte for byte the one-process
    result.

    Raises
    ------
    InsufficientPoints
        If a class has fewer distinct points than ``per_class``.
    EmptyCluster
        If a centroid never wins a draw, so its cell mass would be zero;
        rerun with more iterations or fewer centroids per class. Either
        error names the lowest failing class, and this one the centroid.
    NonFiniteValue, ValueError
        If a class's rows hold a NaN or an infinity, naming the row (and
        the file, from a reader). Every error comes from the lowest
        failing class, whatever its kind, since a class's rows are read
        and checked only when that class is quantized.
    QuantDistillError
        If a worker process dies, for instance killed by a signal.
    """
    if not isinstance(points, LatentReader):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or min(points.shape) < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, got shape {points.shape}")
    if batch_size < 1 or n_iterations < 1:
        raise ValueError("batch_size and n_iterations must be positive")
    labels = as_label_array(labels, points.shape[0])
    n_classes = int(labels.max()) + 1
    work = batch_size * n_iterations * per_class * points.shape[1]
    classes = _map_classes(
        "distill",
        _quantize_class,
        range(n_classes),
        (points, labels, per_class, seed, batch_size, n_iterations),
        _class_workers(n_classes, work),
    )
    return DistillationResult(
        seed=int(seed),
        per_class=int(per_class),
        dim=int(points.shape[1]),
        batch_size=int(batch_size),
        n_iterations=int(n_iterations),
        classes=tuple(classes),
    )


def _quantize_class(
    label, points, labels, per_class, seed, batch_size, n_iterations
) -> ClassQuantization:
    """One class of ``distill``: gather its points and quantize them under the class sub-seed."""
    data = DiscreteMeasure.uniform(_gather(points, np.flatnonzero(labels == label)))
    try:
        result = minibatch_kmeans(
            data, per_class, batch_size, n_iterations, class_subseed(seed, label)
        )
    except InsufficientPoints as exc:
        raise InsufficientPoints(f"class {label}: {exc}") from None
    never_won = np.flatnonzero(result.counts == 0)
    if never_won.size:
        raise EmptyCluster(
            f"class {label}: centroid {never_won[0]} never won a draw; "
            "rerun with more iterations or fewer centroids per class"
        )
    return ClassQuantization(
        label=label,
        centroids=result.grid.centroids,
        counts=result.counts.astype(np.int64),
        weights=result.weights,
    )


# Per-class work below which a stage stays in one process. Forking one
# worker, reading its results and reaping it takes about 7 ms in a 100 MB
# process on a 2-vCPU host. distill's units are
# batch_size * n_iterations * per_class * dim, and its one-process loop
# spends about 30 ms on 2e7 of them. diffuse's are
# n_steps * (n_mc + K) * m * dim for K centroids and m reference points per
# class; in process one took 1.6 ns at d = 16 (3 x 300 points, 100 steps,
# n_mc 200: 1.0e8 per class), 3.1-4.5 ns at d = 4096 (16 points, 10 steps,
# n_mc 32: 2.8e7) and 6.0-6.7 ns at d = 4 (100 points, 100 steps, n_mc 100:
# 4.3e6). Spread over two processes, the first two took 0.71 and 0.57 of
# their one-process time and the third 1.02, so it stays below the floor.
_POOL_FLOOR = 2e7


def _class_workers(n_classes: int, work: float) -> int:
    """How many processes run a stage's classes; 1 is the in-order loop.

    ``min(n_classes, usable CPUs // BLAS threads)`` when fork and CPU
    affinity are available and the per-class ``work`` reaches the floor, so
    each process's BLAS threads get their own CPUs; otherwise 1. The BLAS
    thread count is read as OpenBLAS reads it, and unset means every usable
    CPU.
    """
    if work < _POOL_FLOOR or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    usable = len(os.sched_getaffinity(0))
    blas_threads = usable
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads >= 1:
            blas_threads = threads
            break
    return max(1, min(n_classes, usable // blas_threads))


def _map_classes(stage: str, task, items, state: tuple, workers: int) -> list:
    """``task(item, *state)`` for each of the sequence ``items``, one per class in label order.

    ``task`` is a module-level per-class function of ``stage`` (``distill``
    or ``diffuse``), and ``state`` starts with the cloud (a reader or an
    array) and its labels, from which the task gathers its own class. With
    one worker this is an in-order loop that holds one class copy at a
    time. Otherwise ``workers`` processes share the classes: this one runs
    every ``workers``-th class, from the first, and each of ``workers - 1``
    forked workers inherits ``task`` and ``state``, runs the classes
    ``first, first + workers, ...`` for its own ``first`` and pickles its
    results back through a pipe. Results and the first error come back in
    label order, a worker that dies raises ``QuantDistillError`` naming the
    stage, and every worker is reaped when this returns. Either way the
    results are the same, bit for bit.
    """
    if workers <= 1:
        return [task(item, *state) for item in items]
    # This process works rather than sleeps: in benchmark runs on a 2-vCPU
    # host, a process that slept while its workers ran read its next stages
    # up to a third slower. Plain forks and pipes rather than an executor,
    # whose manager and feeder threads share this process's interpreter: in
    # ten alternating desk_pipeline benchmark pairs on that host, the stage
    # after a pooled diffuse, train, read 9% faster without them.
    workers_left = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for first in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                for _, pipe in workers_left:
                    pipe.close()
                _send_share(task, items[first::workers], state, write_fd)
            os.close(write_fd)
            workers_left.append((pid, open(read_fd, "rb")))
        shares = [_share(task, items[::workers], state)]
        while workers_left:
            pid, pipe = workers_left[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers_left[0]
            if code or not data:  # its share is lost, from its first class on
                died = QuantDistillError(f"a {stage} worker process died (exit code {code})")
                shares.append([died])
            else:
                shares.append(pickle.loads(data))
    finally:
        for pid, pipe in workers_left:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        # A share stops at its first error, so the lowest error in label
        # order is reached before any item missing after it.
        result = shares[i % workers][i // workers]
        if isinstance(result, Exception):
            raise result
        results.append(result)
    return results


def _share(task, items, state) -> list:
    """``task`` over ``items`` in order, up to and including the first exception raised."""
    results = []
    for item in items:
        try:
            results.append(task(item, *state))
        except Exception as exc:  # raised in label order by _map_classes
            results.append(exc)
            break
    return results


def _send_share(task, items, state, write_fd: int) -> None:
    """In a forked worker: pickle ``_share``'s results to ``write_fd``, then exit.

    ``os._exit`` skips the parent's exit handlers and buffered output; any
    failure here, such as a result that does not pickle, exits with status 1.
    """
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_share(task, items, state)))
        code = 0
    finally:
        os._exit(code)


def _gather(points, rows, out=None) -> np.ndarray:
    """Rows ``rows`` (a slice, or row numbers) of a cloud, checked finite.

    A ``LatentReader`` reads them into ``out`` (a new array when None) and
    names its file and the row of a non-finite entry. An array is indexed,
    a slice giving a view, and a non-finite row raises ``ValueError``.
    """
    if isinstance(points, LatentReader):
        return points.read_rows(rows, out)
    block = points[rows]
    bad = _first_nonfinite_row(block)
    if bad is not None:
        row = np.arange(points.shape[0])[rows][bad]
        raise ValueError(f"points row {row} (0-based) holds NaN or infinite entries")
    return block


def build_dataset(result: DistillationResult, weight_mode: str) -> WeightedDataset:
    """Stack distilled classes into one labeled, weighted training set.

    ``normalized`` uses the cell-mass weights and ``uniform`` all ones.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    blocks, labels, weights = [], [], []
    for cls in sorted(result.classes, key=lambda c: c.label):
        k = cls.centroids.shape[0]
        blocks.append(cls.centroids)
        labels.append(np.full(k, cls.label, dtype=np.intp))
        weights.append(cls.weights if weight_mode == "normalized" else np.ones(k))
    return WeightedDataset(
        np.vstack(blocks), np.concatenate(labels), np.concatenate(weights)
    )


def diffuse(
    result: DistillationResult,
    ref_points,
    ref_labels,
    sde: SdeSpec,
    n_mc: int,
    seed: int,
) -> TransportedResult:
    """Transport each class's distilled cloud back through the reverse flow.

    The reference law for a class is the uniform measure on that class's
    latent points, given as an array or an open ``LatentReader`` from which
    each class reads only its own rows. The distilled weighted centroids are
    the quantized law at the horizon. Each class receives a stability bound
    report comparing its transported expectation of the distance-to-origin
    function (Lipschitz constant 1) against the explicit ceiling.

    Classes are spread over processes as ``distill`` spreads its own
    (``_map_classes``) when their work, ``n_steps * (n_mc + K) * m * dim``
    for K centroids and the largest class of m reference points, reaches
    the same floor; the result is byte for byte the one-process result.
    Errors come from the lowest failing class, and a worker that dies raises
    ``QuantDistillError``.
    """
    if not isinstance(ref_points, LatentReader):
        ref_points = np.ascontiguousarray(ref_points, dtype=np.float64)
    if len(ref_points.shape) != 2 or ref_points.shape[1] != result.dim:
        raise DimensionError(
            f"reference points must have dimension {result.dim}"
        )
    ref_labels = as_label_array(ref_labels, ref_points.shape[0])
    test_fn = LipschitzFunction.distance_to(np.zeros(result.dim))
    classes = sorted(result.classes, key=lambda c: c.label)
    largest = int(np.bincount(ref_labels).max())
    work = sde.n_steps * (n_mc + result.per_class) * largest * result.dim
    transported = _map_classes(
        "diffuse",
        _transport_class,
        classes,
        (ref_points, ref_labels, sde, test_fn, n_mc, seed),
        _class_workers(len(classes), work),
    )
    return TransportedResult(
        seed=int(seed),
        process=sde,
        n_mc=int(n_mc),
        test_function="distance_to_origin",
        classes=tuple(transported),
    )


def _transport_class(cls, points, labels, sde, test_fn, n_mc, seed) -> ClassTransport:
    """One class of ``diffuse``: gather its reference points, carry its centroids back."""
    rows = np.flatnonzero(labels == cls.label)
    if rows.size == 0:
        raise ValueError(f"reference data has no points for class {cls.label}")
    class_points = _gather(points, rows)
    ref = ReferenceLaw(DiscreteMeasure.uniform(class_points))
    quantized = DiscreteMeasure.from_unnormalized(cls.centroids, cls.weights)
    transported, report = transport_quantization(
        ref, sde, quantized, test_fn, n_mc, class_subseed(seed, cls.label)
    )
    return ClassTransport(
        label=cls.label, atoms=transported.atoms, weights=transported.weights, report=report
    )


def parse_model(model: str, n_inputs: int, n_classes: int) -> TinyClassifier:
    """Build a classifier from its textual description.

    ``"logistic"`` is the linear model; ``"hidden:W"`` adds one tanh layer
    of width W.
    """
    if model == "logistic":
        return TinyClassifier(n_inputs, n_classes)
    if model.startswith("hidden:"):
        try:
            width = int(model.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad hidden width in {model!r}") from None
        return TinyClassifier(n_inputs, n_classes, hidden=width)
    raise ValueError(f"unknown model {model!r}; use 'logistic' or 'hidden:W'")


def train(
    result: DistillationResult,
    *,
    weight_mode: str = "normalized",
    model: str = "logistic",
    learning_rate: float = 1.0,
    epochs: int = 200,
    seed: int = 0,
    eval_points=None,
    eval_labels=None,
) -> tuple[TinyClassifier, TrainReport]:
    """Train a small classifier on the distilled cloud with loss weights.

    Starts from ``init_parameters(seed)``. Returns the classifier and a
    report with the trained ``theta``, the final weighted loss, the accuracy
    on the distilled points, and, when an evaluation cloud is supplied, the
    accuracy there. ``eval_points`` and
    ``eval_labels`` go together: giving one without the other raises
    ``ValueError``. Both are checked before the first epoch: points of
    another dimension than the distillation's raise ``DimensionError``, and
    a label naming a class the distillation lacks raises ``ValueError``.
    ``eval_points`` is an array or an open ``LatentReader``. Either way the
    accuracy is scored over row blocks of about 4 MB (``_eval_accuracy``),
    and each row's finiteness is checked once, as its block is read, so a
    non-finite row is found after the epochs.

    Gradient descent never moves the first weight block out of the span of
    the distilled points, since its gradient is ``X.T @ dZ``. So the run
    happens in that span (``_train_in_span``): the n distilled points enter
    as their coordinates in an orthonormal basis of min(n, d) columns, and
    the trained block is lifted back to d rows. Logits, losses, gradient
    norms and step decisions are those of the d-dimensional run in exact
    arithmetic, so ``theta`` differs from it only by rounding, in its last
    bits, while an epoch costs n·min(n, d)·h instead of n·d·h.
    """
    if eval_points is not None and eval_labels is None:
        raise ValueError("eval_labels is required with eval_points")
    if eval_labels is not None and eval_points is None:
        raise ValueError("eval_points is required with eval_labels")
    dataset = build_dataset(result, weight_mode)
    if eval_points is not None:
        if not isinstance(eval_points, LatentReader):
            eval_points = np.ascontiguousarray(eval_points, dtype=np.float64)
        if len(eval_points.shape) != 2 or eval_points.shape[1] != dataset.dim:
            raise DimensionError(
                f"eval points must have shape (n, {dataset.dim}) like the distillation, "
                f"got {tuple(eval_points.shape)}"
            )
        eval_labels = as_label_array(eval_labels, eval_points.shape[0])
        if eval_labels.max() >= dataset.n_classes:
            raise ValueError(
                f"eval labels name class {eval_labels.max()}, "
                f"but the distillation has classes 0 to {dataset.n_classes - 1}"
            )
    classifier = parse_model(model, dataset.dim, dataset.n_classes)
    theta = _train_in_span(
        classifier,
        dataset,
        classifier.init_parameters(seed),
        learning_rate=learning_rate,
        epochs=epochs,
    )
    final_loss, _ = loss_and_gradient(classifier, dataset, theta)
    train_accuracy = classification_accuracy(classifier, dataset.points, dataset.labels, theta)
    eval_accuracy = None
    if eval_points is not None:
        eval_accuracy = _eval_accuracy(classifier, theta, eval_points, eval_labels)
    report = TrainReport(
        seed=int(seed),
        model=model,
        weight_mode=weight_mode,
        learning_rate=float(learning_rate),
        epochs=int(epochs),
        final_loss=float(final_loss),
        train_accuracy=float(train_accuracy),
        eval_accuracy=eval_accuracy,
        theta=theta,
    )
    return classifier, report


# The bytes of eval rows ``train`` scores at a time: 128 rows at d = 4096.
_EVAL_BLOCK_BYTES = 1 << 22


def _eval_accuracy(classifier: TinyClassifier, theta, points, labels) -> float:
    """``classification_accuracy`` on a cloud given as an array or a ``LatentReader``.

    Row blocks of about ``_EVAL_BLOCK_BYTES`` are gathered in order, from a
    reader into one reused buffer, and scored by one forward pass each; a
    block's rows are checked finite as they are gathered and not again. The
    result is ``correct / n``, the float ``np.mean(predicted == labels)`` gives.
    """
    n, d = points.shape
    step = max(1, _EVAL_BLOCK_BYTES // (8 * d))
    buffer = np.empty((min(n, step), d)) if isinstance(points, LatentReader) else None
    correct = 0
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        logits = classifier._forward(_gather(points, rows, buffer), theta)[1]
        correct += int(np.count_nonzero(np.argmax(logits, axis=1) == labels[rows]))
    return correct / n


def _train_in_span(
    classifier: TinyClassifier,
    data: WeightedDataset,
    theta,
    *,
    learning_rate: float,
    epochs: int,
) -> np.ndarray:
    """``train_weighted(classifier, data, theta)`` run in the span of ``data.points``.

    With ``X.T = Q @ R`` (reduced QR, ``Q`` of shape (d, m), m = min(n, d)),
    the points are ``R.T @ Q.T``, so the first layer's logits are
    ``R.T @ (Q.T @ W1)`` and its gradient ``Q @ R @ dZ`` has the norm of
    ``R @ dZ``. The same descent therefore runs on the m-column inputs
    ``R.T`` from ``V0 = Q.T @ W1_0``, every other block as given, and its
    trained ``V`` lifts to ``W1 = W1_0 + Q @ (V - V0)``. Each epoch costs
    n·m·h instead of n·d·h; with n >= d, ``Q`` is square and this is a
    rotation at the same cost.
    """
    _, d, width = classifier.layout[0]
    q, r = np.linalg.qr(data.points.T)
    m = q.shape[1]
    first = theta[: d * width].reshape(d, width)
    start = q.T @ first
    trained = train_weighted(
        TinyClassifier(m, classifier.n_classes, classifier.hidden),
        WeightedDataset(r.T, data.labels, data.weights),
        np.concatenate([start.ravel(), theta[d * width :]]),
        learning_rate=learning_rate,
        epochs=epochs,
    )
    lifted = first + q @ (trained[: m * width].reshape(m, width) - start)
    return np.concatenate([lifted.ravel(), trained[m * width :]])


def demo_dataset(
    seed: int,
    n_per_class: int = 400,
    n_classes: int = 3,
    dim: int = 2,
    spread: float = 0.35,
    radius: float = 2.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian blobs for demonstrations and smoke tests.

    Class c sits at angle ``2 pi c / n_classes`` on a circle of the given
    radius in the first two coordinates (higher coordinates are pure noise),
    with isotropic spread. The default separation-to-spread ratio makes the
    classes linearly separable with margin.
    """
    if n_classes < 2 or n_per_class < 1 or dim < 2:
        raise ValueError("need at least 2 classes, 1 point per class, dimension 2")
    rng = np.random.default_rng(seed)
    points = np.empty((n_classes * n_per_class, dim))
    labels = np.empty(n_classes * n_per_class, dtype=np.intp)
    for c in range(n_classes):
        angle = 2.0 * np.pi * c / n_classes
        center = np.zeros(dim)
        center[0] = radius * np.cos(angle)
        center[1] = radius * np.sin(angle)
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        points[rows] = center + spread * rng.standard_normal((n_per_class, dim))
        labels[rows] = c
    return points, labels
