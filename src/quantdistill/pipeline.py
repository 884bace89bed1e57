"""End-to-end distillation workflows over labeled latent clouds.

Each class is handled independently under a sub-seed derived from the master
seed and the class label, so per-class results do not depend on how many
other classes exist or the order they are processed in.
"""

from __future__ import annotations

import numpy as np

from .diffusion import ReferenceLaw, SdeSpec, transport_quantization
from .errors import DimensionError, EmptyCluster, InsufficientPoints
from .latentio import (
    ClassQuantization,
    ClassTransport,
    DistillationResult,
    TrainReport,
    TransportedResult,
)
from .measures import DiscreteMeasure, as_label_array
from .quantize import (
    StepSchedule,
    clvq,
    variance_reduced_weights,
)
from .risk import (
    LipschitzFunction,
    TinyClassifier,
    WeightedDataset,
    classification_accuracy,
    loss_and_gradient,
    train_weighted,
)

WEIGHT_MODES = ("variance_reduced", "normalized", "uniform")
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


def _split_by_class(points: np.ndarray, labels: np.ndarray):
    labels = as_label_array(labels, points.shape[0])
    return [(c, points[labels == c]) for c in range(int(labels.max()) + 1)]


def distill(
    points,
    labels,
    per_class: int,
    seed: int,
    *,
    schedule: str = "count_reciprocal",
    batch_size: int = DEFAULT_BATCH_SIZE,
    n_iterations: int = DEFAULT_N_ITERATIONS,
    init_strategy: str = "dsquared",
) -> DistillationResult:
    """Quantize each class of a labeled cloud into weighted centroids.

    Runs the online learner for ``batch_size * n_iterations`` steps per class
    under its own sub-seed and the given step schedule (count-reciprocal
    steps make it mini-batch k-means), and records centroids, raw win
    counts, simplex weights, and the square-root variance-reduced weights.

    Raises
    ------
    InsufficientPoints
        If a class has fewer distinct points than ``per_class``.
    EmptyCluster
        If a centroid never wins, so its reweighting is undefined; rerun
        with more iterations or fewer centroids per class.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if schedule not in ("count_reciprocal", "harmonic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if batch_size < 1 or n_iterations < 1:
        raise ValueError("batch_size and n_iterations must be positive")
    classes = []
    for label, class_points in _split_by_class(points, labels):
        sub = class_subseed(seed, label)
        try:
            result = clvq(
                DiscreteMeasure.uniform(class_points),
                per_class,
                StepSchedule(schedule),
                batch_size * n_iterations,
                sub,
                init_strategy=init_strategy,
            )
            reduced = variance_reduced_weights(result.counts)
        except (InsufficientPoints, EmptyCluster) as exc:
            raise type(exc)(f"class {label}: {exc}") from None
        classes.append(
            ClassQuantization(
                label=label,
                centroids=result.grid.centroids,
                counts=result.counts.astype(np.int64),
                weights=result.weights,
                variance_reduced=reduced,
            )
        )
    return DistillationResult(
        seed=int(seed),
        per_class=int(per_class),
        dim=int(points.shape[1]),
        schedule=schedule,
        batch_size=int(batch_size),
        n_iterations=int(n_iterations),
        init_strategy=init_strategy,
        classes=tuple(classes),
    )


def build_dataset(result: DistillationResult, weight_mode: str) -> WeightedDataset:
    """Stack distilled classes into one labeled, weighted training set.

    ``variance_reduced`` uses the square-root count weights, ``normalized``
    the simplex weights, and ``uniform`` all ones.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    blocks, labels, weights = [], [], []
    for cls in sorted(result.classes, key=lambda c: c.label):
        k = cls.centroids.shape[0]
        blocks.append(cls.centroids)
        labels.append(np.full(k, cls.label, dtype=np.intp))
        if weight_mode == "variance_reduced":
            weights.append(cls.variance_reduced)
        elif weight_mode == "normalized":
            weights.append(cls.weights)
        else:
            weights.append(np.ones(k))
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
    latent points; the distilled weighted centroids are the quantized law at
    the horizon. Each class receives a stability bound report comparing its
    transported expectation of the distance-to-origin function (Lipschitz
    constant 1) against the explicit ceiling.
    """
    ref_points = np.ascontiguousarray(ref_points, dtype=np.float64)
    if ref_points.ndim != 2 or ref_points.shape[1] != result.dim:
        raise DimensionError(
            f"reference points must have dimension {result.dim}"
        )
    by_class = dict(_split_by_class(ref_points, ref_labels))
    test_fn = LipschitzFunction.distance_to(np.zeros(result.dim))
    classes = []
    for cls in sorted(result.classes, key=lambda c: c.label):
        if cls.label not in by_class:
            raise ValueError(f"reference data has no points for class {cls.label}")
        ref = ReferenceLaw(DiscreteMeasure.uniform(by_class[cls.label]))
        quantized = DiscreteMeasure.from_unnormalized(cls.centroids, cls.weights)
        transported, report = transport_quantization(
            ref, sde, quantized, test_fn, n_mc, class_subseed(seed, cls.label)
        )
        classes.append(
            ClassTransport(
                label=cls.label,
                atoms=transported.atoms,
                weights=transported.weights,
                report=report,
            )
        )
    return TransportedResult(
        seed=int(seed),
        process=sde,
        n_mc=int(n_mc),
        test_function="distance_to_origin",
        classes=tuple(classes),
    )


def parse_model(model: str, n_inputs: int, n_classes: int) -> TinyClassifier:
    """Build a classifier from its textual description.

    ``"logistic"`` is the linear model; ``"hidden:W"`` adds one tanh layer
    of width W.
    """
    if model == "logistic":
        return TinyClassifier.multinomial_logistic(n_inputs, n_classes)
    if model.startswith("hidden:"):
        try:
            width = int(model.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad hidden width in {model!r}") from None
        return TinyClassifier.one_hidden_layer(n_inputs, n_classes, width)
    raise ValueError(f"unknown model {model!r}; use 'logistic' or 'hidden:W'")


def train(
    result: DistillationResult,
    *,
    weight_mode: str = "variance_reduced",
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
    ``ValueError``.
    """
    if eval_points is not None and eval_labels is None:
        raise ValueError("eval_labels is required with eval_points")
    if eval_labels is not None and eval_points is None:
        raise ValueError("eval_points is required with eval_labels")
    if eval_points is not None:
        eval_points = np.ascontiguousarray(eval_points, dtype=np.float64)
        eval_labels = as_label_array(eval_labels, len(eval_points))
    dataset = build_dataset(result, weight_mode)
    classifier = parse_model(model, dataset.dim, dataset.n_classes)
    theta = train_weighted(
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
        eval_accuracy = classification_accuracy(classifier, eval_points, eval_labels, theta)
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
