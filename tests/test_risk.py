"""Tests for Lipschitz test functions, the gap bound and the weighted classifier."""

import numpy as np
import pytest

from quantdistill import pipeline, risk, verification
from quantdistill.errors import DimensionError, NoStepAccepted
from quantdistill.measures import (
    DiscreteMeasure,
    QuantizationGrid,
    project_to_grid,
    quadratic_distortion,
)
from quantdistill.risk import (
    LipschitzFunction,
    TinyClassifier,
    WeightedDataset,
    classification_accuracy,
    gradient_discrepancy,
    loss_and_gradient,
    train_weighted,
    weighted_expectation,
)


def test_distance_function_values_and_constant():
    f = LipschitzFunction.distance_to([1.0, 0.0])
    assert f.lipschitz_bound == 1.0
    assert f.dim == 2
    np.testing.assert_allclose(f(np.array([[4.0, 4.0]])), [5.0])
    np.testing.assert_allclose(
        f(np.array([[1.0, 0.0], [1.0, 2.0]])), [0.0, 2.0]
    )


def test_max_affine_function_values():
    slopes = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = LipschitzFunction.max_affine(slopes, np.array([0.0, -1.0]))
    np.testing.assert_allclose(f(np.array([[0.5, 3.0]])), [2.0])
    assert f.lipschitz_bound == 1.0
    with pytest.raises(ValueError):
        LipschitzFunction.max_affine(2.0 * slopes, np.zeros(2))


def test_constant_function_is_flat():
    f = LipschitzFunction.constant(3.5)
    assert f.lipschitz_bound == 0.0
    assert f.dim is None
    np.testing.assert_allclose(f(np.array([[1.0], [2.0]])), [3.5, 3.5])


def test_function_dimension_check():
    f = LipschitzFunction.distance_to([0.0])
    with pytest.raises(DimensionError):
        f(np.array([[1.0, 2.0]]))
    # Functions take (n, d) batches only, so a bare point is rejected.
    for g in (f, LipschitzFunction.constant(1.0)):
        with pytest.raises(DimensionError):
            g(np.array([1.0]))


def test_weighted_expectation_matches_dot():
    mu = DiscreteMeasure(
        np.array([[0.0], [1.0], [3.0]]), np.array([0.2, 0.3, 0.5])
    )
    f = LipschitzFunction.distance_to([0.0])
    expected = 0.2 * 0.0 + 0.3 * 1.0 + 0.5 * 3.0
    np.testing.assert_allclose(weighted_expectation(f, mu), expected)


def test_gap_check_bounds_hand_instance():
    mu = DiscreteMeasure.uniform(np.array([[0.0], [1.0], [2.0], [3.0]]))
    grid = QuantizationGrid(np.array([[0.5], [2.5]]))
    functions = [
        LipschitzFunction.distance_to([0.0]),
        LipschitzFunction.constant(2.0),
    ]
    nu = project_to_grid(mu, grid)
    root_distortion = np.sqrt(quadratic_distortion(mu, grid))
    assert root_distortion == pytest.approx(0.5)
    gaps = [abs(weighted_expectation(f, mu) - weighted_expectation(f, nu)) for f in functions]
    assert gaps[0] <= functions[0].lipschitz_bound * root_distortion
    # The constant function has zero gap and zero bound.
    assert gaps[1] == 0.0 and functions[1].lipschitz_bound == 0.0


def test_gap_verdict_follows_gap_and_bound(monkeypatch):
    # The registered gap check passes on the cell-mass projection and fails
    # when the projection carries uniform weights instead of the cell masses.
    [record] = verification.check_lipschitz_expectation_gap(0)
    assert record.passed and record.tolerance == 1e-9, record.line()
    monkeypatch.setattr(
        verification, "project_to_grid", lambda mu, grid: DiscreteMeasure.uniform(grid.centroids)
    )
    [record] = verification.check_lipschitz_expectation_gap(0)
    assert record.passed is False, record.line()


def test_weighted_dataset_validation():
    points = np.zeros((3, 2)) + np.arange(3)[:, None]
    good = WeightedDataset(points, np.array([0, 1, 0]), np.ones(3))
    assert good.n_classes == 2
    with pytest.raises(ValueError):
        WeightedDataset(points, np.array([0, 2, 0]), np.ones(3))
    with pytest.raises(ValueError):
        WeightedDataset(points, np.array([0.0, 1.0, 0.0]), np.ones(3))
    with pytest.raises(ValueError):
        WeightedDataset(points, np.array([0, 1, 0]), np.array([1.0, 0.0, 1.0]))


def test_classifier_parameter_counts():
    assert TinyClassifier(4, 3).n_parameters == 4 * 3 + 3
    assert (
        TinyClassifier(4, 3, hidden=8).n_parameters
        == 4 * 8 + 8 + 8 * 3 + 3
    )
    with pytest.raises(ValueError):
        TinyClassifier(2, 1)


def test_classifier_logits_linear_case():
    clf = TinyClassifier(2, 2)
    theta = np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5])
    x = np.array([[2.0, 3.0]])
    # theta packs W (row-major, shape (2, 2)) then b.
    np.testing.assert_allclose(
        clf.logits(x, theta), [[2.0 + 0.5, 3.0 - 0.5]]
    )
    np.testing.assert_array_equal(clf.predict(x, theta), [0])


def test_classifier_logits_hidden_layer_case():
    clf = TinyClassifier(1, 2, hidden=1)
    # theta packs [W1, b1, W2, b2]: W1 = [[2]], b1 = [0], W2 = [[1, -1]], b2 = [0, 0].
    theta = np.array([2.0, 0.0, 1.0, -1.0, 0.0, 0.0])
    x = np.array([[0.3], [-1.0]])
    t = np.tanh(2.0 * x[:, 0])
    np.testing.assert_allclose(clf.logits(x, theta), np.column_stack([t, -t]))
    np.testing.assert_array_equal(clf.predict(x, theta), [0, 1])


def test_wrong_length_theta_is_rejected():
    data = WeightedDataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), np.ones(2))
    for clf in (
        TinyClassifier(2, 2),
        TinyClassifier(2, 2, hidden=3),
    ):
        for theta in (np.zeros(clf.n_parameters - 1), np.zeros(clf.n_parameters + 1)):
            with pytest.raises(ValueError, match="theta must have shape"):
                clf.logits(data.points, theta)
            with pytest.raises(ValueError, match="theta must have shape"):
                loss_and_gradient(clf, data, theta)
            with pytest.raises(ValueError, match="theta must have shape"):
                train_weighted(clf, data, theta, epochs=1)


@pytest.mark.parametrize("model", ["logistic", "hidden"])
def test_loss_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(40)
    points = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, size=12).astype(np.intp)
    labels[0], labels[1] = 0, 1
    data = WeightedDataset(points, labels, rng.random(12) + 0.5)
    if model == "logistic":
        clf = TinyClassifier(3, 2)
    else:
        clf = TinyClassifier(3, 2, hidden=4)
    theta = 0.3 * rng.standard_normal(clf.n_parameters)
    _, grad = loss_and_gradient(clf, data, theta)
    h = 1e-6
    fd = np.empty_like(grad)
    for i in range(theta.shape[0]):
        bump = theta.copy()
        bump[i] += h
        up, _ = loss_and_gradient(clf, data, bump)
        bump[i] -= 2 * h
        down, _ = loss_and_gradient(clf, data, bump)
        fd[i] = (up - down) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_loss_weights_scale_invariant_and_replicate_points():
    rng = np.random.default_rng(41)
    points = rng.normal(size=(6, 2))
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.intp)
    clf = TinyClassifier(2, 2)
    theta = 0.2 * rng.standard_normal(clf.n_parameters)
    base = WeightedDataset(points, labels, np.ones(6))
    scaled = WeightedDataset(points, labels, np.full(6, 7.0))
    loss_a, grad_a = loss_and_gradient(clf, base, theta)
    loss_b, grad_b = loss_and_gradient(clf, scaled, theta)
    np.testing.assert_allclose(loss_a, loss_b, rtol=1e-12)
    np.testing.assert_allclose(grad_a, grad_b, rtol=1e-9, atol=1e-15)
    # Doubling one point's weight equals listing the point twice.
    weights = np.ones(6)
    weights[2] = 2.0
    doubled = WeightedDataset(points, labels, weights)
    replicated = WeightedDataset(
        np.vstack([points, points[2:3]]),
        np.concatenate([labels, labels[2:3]]),
        np.ones(7),
    )
    loss_c, grad_c = loss_and_gradient(clf, doubled, theta)
    loss_d, grad_d = loss_and_gradient(clf, replicated, theta)
    np.testing.assert_allclose(loss_c, loss_d, rtol=1e-12)
    np.testing.assert_allclose(grad_c, grad_d, rtol=1e-9, atol=1e-15)


def test_train_weighted_decreases_loss_and_is_deterministic():
    rng = np.random.default_rng(42)
    points = np.vstack(
        [rng.normal(size=(20, 2)) - 2.0, rng.normal(size=(20, 2)) + 2.0]
    )
    labels = np.repeat(np.array([0, 1], dtype=np.intp), 20)
    data = WeightedDataset(points, labels, np.ones(40))
    clf = TinyClassifier(2, 2)
    start = clf.init_parameters(7)
    start_loss, _ = loss_and_gradient(clf, data, start)
    theta_a = train_weighted(clf, data, start, epochs=50)
    theta_b = train_weighted(clf, data, start, epochs=50)
    final_loss, _ = loss_and_gradient(clf, data, theta_a)
    assert final_loss < start_loss
    np.testing.assert_array_equal(theta_a, theta_b)
    # Training returns a new vector and leaves its start alone.
    np.testing.assert_array_equal(start, clf.init_parameters(7))
    assert classification_accuracy(clf, points, labels, theta_a) == 1.0


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_train_weighted_rejects_a_nonfinite_or_nonpositive_rate(rate):
    data = WeightedDataset(np.array([[-1.0], [1.0]]), np.array([0, 1]), np.ones(2))
    clf = TinyClassifier(1, 2)
    with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
        train_weighted(clf, data, clf.init_parameters(0), learning_rate=rate)


@pytest.mark.parametrize(
    "labels, message",
    [([0], "1 labels for 150 points"), (np.full(150, -5), "nonnegative")],
)
def test_classification_accuracy_checks_its_labels(labels, message):
    # One nonnegative label per point: a single label must not broadcast over
    # every point, and a negative label is no class.
    points = np.random.default_rng(44).normal(size=(150, 2))
    clf = TinyClassifier(2, 3)
    with pytest.raises(ValueError, match=message):
        classification_accuracy(clf, points, labels, clf.init_parameters(0))


def test_train_weighted_rejects_overflowing_trial_steps_without_warnings():
    # At a step of 1e308 every trial's logits overflow, even after the last
    # halving; the finiteness check rejects each one, with no RuntimeWarning,
    # and a first epoch that accepts no step fails by name instead of
    # returning the untrained start.
    rng = np.random.default_rng(45)
    points = np.vstack([rng.normal(size=(15, 3)) - 2.0, rng.normal(size=(15, 3)) + 2.0])
    data = WeightedDataset(points, np.repeat([0, 1], 15), np.ones(30))
    clf = TinyClassifier(3, 2)
    with pytest.raises(NoStepAccepted, match=r"learning_rate 1e\+308"):
        train_weighted(clf, data, clf.init_parameters(0), learning_rate=1e308, epochs=3)


def test_pipeline_train_names_a_learning_rate_that_never_steps():
    points, labels = pipeline.demo_dataset(0, 40, 2)
    result = pipeline.distill(points, labels, 3, 0)
    with pytest.raises(NoStepAccepted, match=r"learning_rate 1e\+308"):
        pipeline.train(result, learning_rate=1e308, epochs=3)
    # A rate that steps trains: the untrained loss is about 0.665.
    _, report = pipeline.train(result, learning_rate=1.0, epochs=3)
    assert report.final_loss < 0.01


def _count_loss_calls(monkeypatch, loss=loss_and_gradient):
    """Route ``train_weighted``'s loss evaluations through ``loss``; returns their list."""
    calls = []

    def counted(classifier, data, theta):
        calls.append(theta.copy())
        return loss(classifier, data, theta)

    monkeypatch.setattr(risk, "loss_and_gradient", counted)
    return calls


def test_train_weighted_stops_at_a_zero_gradient(monkeypatch):
    # Two coincident points labelled 0 and 1 pull equally both ways from
    # theta = 0, so the gradient is exactly 0 and no trial step is made.
    data = WeightedDataset(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]), np.ones(2))
    clf = TinyClassifier(2, 2)
    calls = _count_loss_calls(monkeypatch)
    theta = train_weighted(clf, data, np.zeros(clf.n_parameters), epochs=5)
    assert len(calls) == 1
    assert theta.tobytes() == np.zeros(clf.n_parameters).tobytes()


def test_train_weighted_stops_quietly_when_a_later_epoch_accepts_no_step(monkeypatch):
    # A scripted loss: the first trial step lowers it from 1 to 0.5, and every
    # later trial raises it to 2, so the second epoch rejects all halvings.
    losses = iter([1.0, 0.5])
    calls = _count_loss_calls(
        monkeypatch, lambda classifier, data, theta: (next(losses, 2.0), np.ones_like(theta))
    )
    data = WeightedDataset(np.array([[-1.0], [1.0]]), np.array([0, 1]), np.ones(2))
    theta = train_weighted(TinyClassifier(1, 2), data, np.zeros(4), epochs=5)
    assert theta.tolist() == [-1.0] * 4
    assert len(calls) == 2 + risk.MAX_BACKTRACKS


def test_train_weighted_resumes_from_the_given_theta():
    points = np.array([[-1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 1], dtype=np.intp)
    data = WeightedDataset(points, labels, np.ones(2))
    clf = TinyClassifier(2, 2)
    warm = train_weighted(clf, data, clf.init_parameters(0), epochs=5)
    resumed = train_weighted(clf, data, warm, epochs=5)
    loss_warm, _ = loss_and_gradient(clf, data, warm)
    loss_resumed, _ = loss_and_gradient(clf, data, resumed)
    # Every accepted step lowers the loss, so resuming cannot raise it.
    assert loss_resumed <= loss_warm
    # Five epochs resumed from five are the same run as ten.
    ten = train_weighted(clf, data, clf.init_parameters(0), epochs=10)
    np.testing.assert_array_equal(resumed, ten)


@pytest.mark.parametrize("model", ["logistic", "hidden:6"])
@pytest.mark.parametrize("dim", [31, 12, 5])
def test_training_in_the_span_of_the_points_is_the_full_run(model, dim):
    # n = 12 points against d = 31, 12 and 5, with a duplicate row and an
    # all-zero point, so the points never have full rank.
    rng = np.random.default_rng(dim)
    labels = np.repeat(np.arange(3), 4)
    points = rng.normal(size=(12, dim)) + 1.5 * labels[:, None]
    points[5] = points[4]
    points[9] = 0.0
    data = WeightedDataset(points, labels, rng.uniform(0.5, 2.0, size=12))
    clf = pipeline.parse_model(model, dim, 3)
    start = clf.init_parameters(3)
    full = train_weighted(clf, data, start, epochs=60)
    span = pipeline._train_in_span(clf, data, start, learning_rate=1.0, epochs=60)
    # Only rounding differs, but descent can amplify it over the epochs: on
    # these instances it reached 3e-13 of the largest parameter (hidden
    # layer, d = 31), and 2e-11 on other seeds; 1e-10 leaves a margin.
    assert np.max(np.abs(span - full)) <= 1e-10 * np.max(np.abs(full))
    fresh = rng.normal(size=(200, dim)) + 1.5 * rng.integers(0, 3, size=(200, 1))
    for cloud in (points, fresh):
        np.testing.assert_array_equal(clf.predict(cloud, span), clf.predict(cloud, full))
    # The first block moved only within the span of the points.
    width = clf.layout[0][2]
    moved = (span - start)[: dim * width].reshape(dim, width)
    q, _ = np.linalg.qr(points.T)
    outside = moved - q @ (q.T @ moved)
    assert np.max(np.abs(outside)) <= 1e-13 * np.max(np.abs(moved))


def test_gradient_discrepancy_zero_on_same_data():
    rng = np.random.default_rng(43)
    points = rng.normal(size=(8, 2))
    labels = np.array([0, 1] * 4, dtype=np.intp)
    data = WeightedDataset(points, labels, np.ones(8))
    clf = TinyClassifier(2, 2)
    theta = clf.init_parameters(0)
    assert gradient_discrepancy(clf, theta, data, data) == 0.0

