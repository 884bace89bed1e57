"""Lipschitz test functions and weighted training on distilled clouds.

Replacing a measure by a quantized stand-in changes any Lipschitz statistic
by at most the Lipschitz constant times the root quantization error. This
module provides concrete function families with certified constants, which
``verification`` uses to check that bound, and a small classifier whose
weighted loss treats a distilled cloud with cell-mass weights as a drop-in
for the full dataset. The classifier is only an architecture: its
parameters are one flat vector ``theta`` that every function takes and
training returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NonFiniteLoss, NoStepAccepted
from .measures import (
    DiscreteMeasure,
    _all_finite,
    _check_same_dim,
    _softmax_rows,
    as_label_array,
    as_point,
    as_point_array,
    squared_distances,
)

UNIT_SLOPE_TOL = 1e-9
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class LipschitzFunction:
    """A scalar test function with a certified Lipschitz constant.

    Kinds: ``distance_to_point`` (constant 1), ``max_affine`` over unit-norm
    slopes (constant 1), and ``constant`` (constant 0). Instances are
    callable on an (n, d) batch of points.
    """

    kind: str
    anchor: np.ndarray | None = None
    slopes: np.ndarray | None = None
    offsets: np.ndarray | None = None
    value: float = 0.0

    def __post_init__(self):
        if self.kind == "distance_to_point":
            object.__setattr__(self, "anchor", as_point(self.anchor, "anchor"))
        elif self.kind == "max_affine":
            slopes = as_point_array(self.slopes, "slopes")
            offsets = np.ascontiguousarray(self.offsets, dtype=np.float64)
            if offsets.shape != (slopes.shape[0],):
                raise ValueError("offsets must hold one value per slope")
            if not _all_finite(offsets):
                raise ValueError("offsets must be finite")
            norms = np.sqrt((slopes**2).sum(axis=1))
            if np.any(np.abs(norms - 1.0) > UNIT_SLOPE_TOL):
                raise ValueError("slopes must have unit Euclidean norm")
            object.__setattr__(self, "slopes", slopes)
            object.__setattr__(self, "offsets", offsets)
        elif self.kind == "constant":
            if not np.isfinite(self.value):
                raise ValueError("value must be finite")
        else:
            raise ValueError(f"unknown function kind {self.kind!r}")

    @classmethod
    def distance_to(cls, anchor) -> "LipschitzFunction":
        return cls("distance_to_point", anchor=anchor)

    @classmethod
    def max_affine(cls, slopes, offsets) -> "LipschitzFunction":
        return cls("max_affine", slopes=slopes, offsets=offsets)

    @classmethod
    def constant(cls, value: float) -> "LipschitzFunction":
        return cls("constant", value=float(value))

    @property
    def lipschitz_bound(self) -> float:
        return 0.0 if self.kind == "constant" else 1.0

    @property
    def dim(self) -> int | None:
        """Input dimension, or None for the dimension-free constant function."""
        if self.kind == "distance_to_point":
            return self.anchor.shape[0]
        if self.kind == "max_affine":
            return self.slopes.shape[1]
        return None

    def __call__(self, points) -> np.ndarray:
        """Values at an (n, d) batch of points, shape (n,)."""
        batch = np.asarray(points, dtype=np.float64)
        if batch.ndim != 2:
            raise DimensionError(f"points must be an (n, d) batch, got shape {batch.shape}")
        if self.dim is not None:
            _check_same_dim(batch.shape[1], self.dim)
        if self.kind == "distance_to_point":
            return np.sqrt(squared_distances(self.anchor[None, :], batch)[0])
        if self.kind == "max_affine":
            return (batch @ self.slopes.T + self.offsets).max(axis=1)
        return np.full(batch.shape[0], self.value)


def weighted_expectation(f, nu: DiscreteMeasure) -> float:
    """Expectation of a vectorized scalar function under a discrete measure."""
    values = np.asarray(f(nu.atoms), dtype=np.float64)
    if values.shape != (nu.n_atoms,):
        raise ValueError("f must map (n, d) points to (n,) values")
    return float(np.dot(nu.weights, values))


@dataclass(frozen=True)
class WeightedDataset:
    """Labeled points with positive per-point loss weights.

    Labels must be the contiguous range 0..n_classes-1 over the whole
    dataset, in any order. Weights need not sum to 1; losses normalize by the
    total weight.
    """

    points: np.ndarray
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = as_point_array(self.points, "points")
        n = points.shape[0]
        labels = as_label_array(self.labels, n)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.shape != (n,) or not _all_finite(weights):
            raise ValueError("weights must be one finite value per point")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class TinyClassifier:
    """Architecture of a multinomial logistic model, optionally with one tanh hidden layer.

    The classifier holds no parameters: every method takes them as one flat
    vector ``theta``. Per layer, input layer first, ``theta`` holds a
    row-major ``(inputs, outputs)`` weight block and then the bias, so
    ``[W, b]`` for the linear model and ``[W1, b1, W2, b2]`` for the
    hidden-layer model.
    """

    n_inputs: int
    n_classes: int
    hidden: int | None = None

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be positive")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be positive when given")

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int], ...]:
        """``(offset, inputs, outputs)`` per layer, input layer first."""
        widths = [self.n_inputs, self.n_classes]
        if self.hidden is not None:
            widths.insert(1, self.hidden)
        layout, offset = [], 0
        for inputs, outputs in zip(widths, widths[1:]):
            layout.append((offset, inputs, outputs))
            offset += inputs * outputs + outputs
        return tuple(layout)

    @property
    def n_parameters(self) -> int:
        offset, inputs, outputs = self.layout[-1]
        return offset + inputs * outputs + outputs

    def init_parameters(self, seed) -> np.ndarray:
        """Small random parameters; deterministic in the seed."""
        rng = np.random.default_rng(seed)
        return 0.1 * rng.standard_normal(self.n_parameters)

    def _forward(self, x: np.ndarray, theta) -> tuple[list, np.ndarray]:
        """Each layer's input and weight block, and the logits, at ``theta``."""
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if theta.shape != (self.n_parameters,):
            raise ValueError(f"theta must have shape ({self.n_parameters},)")
        _check_same_dim(x.shape[1], self.n_inputs)
        layers, z = [], x
        for offset, inputs, outputs in self.layout:
            a = np.tanh(z) if layers else z
            end = offset + inputs * outputs
            weight = theta[offset:end].reshape(inputs, outputs)
            layers.append((a, weight))
            z = a @ weight + theta[end : end + outputs]
        return layers, z

    def logits(self, points, theta) -> np.ndarray:
        return self._forward(as_point_array(points, "points"), theta)[1]

    def predict(self, points, theta) -> np.ndarray:
        """Most likely class per point, ties to the lowest class index."""
        return np.argmax(self.logits(points, theta), axis=1)


def loss_and_gradient(
    classifier: TinyClassifier, data: WeightedDataset, theta
) -> tuple[float, np.ndarray]:
    """Weight-normalized cross-entropy and its gradient in ``theta``.

    The loss is ``sum_i w_i * nll_i / sum_i w_i``, so all-ones weights give
    exactly the unweighted mean loss and rescaling all weights by a common
    factor changes nothing.

    Raises
    ------
    NonFiniteLoss
        If the loss or gradient fails to be finite at ``theta``.
    """
    if data.n_classes > classifier.n_classes:
        raise ValueError("dataset has more classes than the classifier")
    layers, z = classifier._forward(data.points, theta)
    y, w = data.labels, data.weights
    n = y.shape[0]
    scale = w / w.sum()
    dz = z.copy()
    shift, total = _softmax_rows(dz)
    nll = (shift + np.log(total))[:, 0] - z[np.arange(n), y]
    loss = float(np.dot(scale, nll))
    dz[np.arange(n), y] -= 1.0
    dz *= scale[:, None]
    grads = []  # output layer first; nothing flows back into the points
    for i in reversed(range(len(layers))):
        a, weight = layers[i]
        grads += [dz.sum(axis=0), (a.T @ dz).ravel()]
        if i:
            dz = (dz @ weight.T) * (1.0 - a**2)
    grad = np.concatenate(grads[::-1])
    if not (np.isfinite(loss) and _all_finite(grad)):
        raise NonFiniteLoss("loss or gradient is not finite")
    return loss, grad


def train_weighted(
    classifier: TinyClassifier,
    data: WeightedDataset,
    theta,
    *,
    learning_rate: float = 1.0,
    epochs: int = 200,
) -> np.ndarray:
    """Full-batch gradient descent with backtracking on the weighted loss.

    Starts from ``theta``. Each epoch evaluates the exact weighted gradient,
    then halves the step from ``learning_rate`` until the Armijo decrease
    condition holds; training stops early at a zero gradient or when a later
    epoch accepts no step. The run is deterministic. Returns the trained
    parameters.

    Raises
    ------
    NoStepAccepted
        If the first epoch accepts no step in ``MAX_BACKTRACKS`` halvings,
        which would return the start untrained.
    """
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning_rate must be finite and positive")
    if epochs < 1:
        raise ValueError("epochs must be positive")
    theta = np.array(theta, dtype=np.float64)
    loss, grad = loss_and_gradient(classifier, data, theta)
    for epoch in range(epochs):
        sq_norm = float(np.dot(grad, grad))
        if sq_norm == 0.0:
            break
        step = learning_rate
        for _ in range(MAX_BACKTRACKS):
            try:
                # A long trial step may overflow: rejected by the finiteness check, unwarned.
                with np.errstate(over="ignore", invalid="ignore"):
                    candidate = theta - step * grad
                    cand_loss, cand_grad = loss_and_gradient(classifier, data, candidate)
            except NonFiniteLoss:
                pass
            else:
                if cand_loss <= loss - ARMIJO_SLOPE * step * sq_norm:
                    theta, loss, grad = candidate, cand_loss, cand_grad
                    break
            step *= 0.5
        else:
            if epoch == 0:
                raise NoStepAccepted(
                    f"training accepted no step: {MAX_BACKTRACKS} halvings of "
                    f"learning_rate {learning_rate!r} all failed the first epoch"
                )
            break
    return theta


def classification_accuracy(
    classifier: TinyClassifier, points, labels, theta
) -> float:
    """Unweighted fraction of points assigned their stated label."""
    predicted = classifier.predict(points, theta)
    labels = as_label_array(labels, predicted.shape[0])
    return float(np.mean(predicted == labels))


def gradient_discrepancy(
    classifier: TinyClassifier,
    theta,
    full_data: WeightedDataset,
    distilled: WeightedDataset,
) -> float:
    """Euclidean distance between the loss gradients on two datasets.

    Both gradients are taken at the same ``theta`` and each normalizes by its
    own total weight, so the value measures how well the distilled cloud
    reproduces the full data's training signal at that parameter point.
    """
    _, g_full = loss_and_gradient(classifier, full_data, theta)
    _, g_dist = loss_and_gradient(classifier, distilled, theta)
    return float(np.linalg.norm(g_full - g_dist))
