"""Tests for exact Wasserstein-2 distances, plans, and the rate scan."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from quantdistill import transport
from quantdistill.errors import DimensionError
from quantdistill.measures import (
    DiscreteMeasure,
    QuantizationGrid,
    project_to_grid,
    quadratic_distortion,
    squared_distances,
)
from quantdistill.quantize import UniformCubeSampler
from quantdistill.transport import (
    compare_weighting,
    rate_scan,
    w2,
    w2_discrete,
    w2_to_grid,
)


def test_w2_identical_measures_is_zero():
    mu = DiscreteMeasure.uniform(np.array([[0.0, 1.0], [2.0, 3.0]]))
    w2, plan = w2_discrete(mu, mu)
    assert w2 == 0.0
    a, b = plan.marginals()
    np.testing.assert_allclose(a, mu.weights, atol=1e-12)
    np.testing.assert_allclose(b, mu.weights, atol=1e-12)


def test_w2_two_point_masses():
    mu = DiscreteMeasure.uniform(np.array([[0.0, 0.0]]))
    nu = DiscreteMeasure.uniform(np.array([[3.0, 4.0]]))
    w2, plan = w2_discrete(mu, nu)
    np.testing.assert_allclose(w2, 5.0, rtol=1e-12)
    np.testing.assert_allclose(plan.cost, 25.0, rtol=1e-12)


def test_w2_hand_solved_instance():
    # Mass 0.5 at 0 and 0.5 at 1 against 0.75 at 0 and 0.25 at 1: a quarter
    # of the mass moves from 1 to 0, so the squared distance is 0.25.
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    w2, plan = w2_discrete(mu, nu)
    np.testing.assert_allclose(w2 * w2, 0.25, rtol=1e-12)
    dense = plan.as_matrix()
    np.testing.assert_allclose(dense[0, 0], 0.5, atol=1e-12)
    np.testing.assert_allclose(dense[1, 0], 0.25, atol=1e-12)
    np.testing.assert_allclose(dense[1, 1], 0.25, atol=1e-12)


def test_w2_matches_assignment_oracle():
    # For equal uniform weights the optimal plan is a perfect matching, so
    # the Hungarian algorithm provides an independent exact value.
    rng = np.random.default_rng(20)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 8))
        mu = DiscreteMeasure.uniform(rng.normal(size=(n, d)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(n, d)))
        cost = squared_distances(mu.atoms, nu.atoms)
        rows, cols = linear_sum_assignment(cost)
        expected = cost[rows, cols].sum() / n
        w2, _ = w2_discrete(mu, nu)
        np.testing.assert_allclose(w2 * w2, expected, rtol=1e-9, atol=1e-12)


def test_w2_by_assignment_agrees_with_the_lp():
    rng = np.random.default_rng(21)
    for trial in range(30):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12))
        left = rng.normal(size=(n, d))
        right = rng.normal(size=(n, d))
        if trial % 3 == 1:  # duplicate atoms on both sides
            left[n // 2 :] = left[: n - n // 2]
            right[: n // 2] = left[: n // 2]
        mu, nu = DiscreteMeasure.uniform(left), DiscreteMeasure.uniform(right)
        expected, _ = w2_discrete(mu, nu)
        np.testing.assert_allclose(w2(mu, nu), expected, rtol=1e-9)


def test_w2_solves_the_lp_unless_both_sides_are_uniform_of_one_size(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args[0].shape)
        return lp(*args)

    lp = transport._transport_lp
    monkeypatch.setattr(transport, "_transport_lp", counted)
    rng = np.random.default_rng(22)
    five = DiscreteMeasure.uniform(rng.normal(size=(5, 2)))
    four = DiscreteMeasure.uniform(rng.normal(size=(4, 2)))
    skewed = DiscreteMeasure.from_unnormalized(rng.normal(size=(5, 2)), rng.random(5))
    w2(five, DiscreteMeasure.uniform(rng.normal(size=(5, 2))))
    assert solves == []
    for mu, nu in [(five, four), (skewed, five), (five, skewed)]:
        value = w2(mu, nu)
        assert solves[-1] == (mu.n_atoms, nu.n_atoms)
        assert value == w2_discrete(mu, nu)[0]
    assert len(solves) == 6


def test_w2_plan_is_basic_and_feasible():
    rng = np.random.default_rng(21)
    mu = DiscreteMeasure.from_unnormalized(
        rng.normal(size=(9, 2)), rng.random(9) + 0.1
    )
    nu = DiscreteMeasure.from_unnormalized(
        rng.normal(size=(6, 2)), rng.random(6) + 0.1
    )
    w2, plan = w2_discrete(mu, nu)
    assert plan.mass.shape[0] <= 9 + 6 - 1
    assert np.all(plan.mass > 0)
    np.testing.assert_allclose(plan.mass.sum(), 1.0, rtol=1e-12)
    a, b = plan.marginals()
    np.testing.assert_allclose(a, mu.weights, atol=1e-9)
    np.testing.assert_allclose(b, nu.weights, atol=1e-9)


def test_w2_duals_certify_cost():
    rng = np.random.default_rng(22)
    mu = DiscreteMeasure.uniform(rng.normal(size=(8, 3)))
    nu = DiscreteMeasure.uniform(rng.normal(size=(5, 3)))
    _, plan = w2_discrete(mu, nu)
    dual_value = float(
        np.dot(plan.dual_source, mu.weights) + np.dot(plan.dual_target, nu.weights)
    )
    np.testing.assert_allclose(dual_value, plan.cost, rtol=1e-9, atol=1e-12)


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(23)
    clouds = [DiscreteMeasure.uniform(rng.normal(size=(6, 2))) for _ in range(3)]
    d01, _ = w2_discrete(clouds[0], clouds[1])
    d10, _ = w2_discrete(clouds[1], clouds[0])
    np.testing.assert_allclose(d01, d10, rtol=1e-9)
    d12, _ = w2_discrete(clouds[1], clouds[2])
    d02, _ = w2_discrete(clouds[0], clouds[2])
    assert d02 <= d01 + d12 + 1e-9


def test_w2_ignores_zero_weight_atoms():
    mu = DiscreteMeasure(np.array([[0.0], [500.0]]), np.array([1.0, 0.0]))
    nu = DiscreteMeasure.uniform(np.array([[1.0]]))
    w2, _ = w2_discrete(mu, nu)
    np.testing.assert_allclose(w2, 1.0, rtol=1e-12)


def test_w2_dimension_mismatch():
    mu = DiscreteMeasure.uniform(np.zeros((2, 2)) + np.arange(2)[:, None])
    nu = DiscreteMeasure.uniform(np.array([[0.0]]))
    with pytest.raises(DimensionError):
        w2_discrete(mu, nu)
    with pytest.raises(DimensionError):
        w2(mu, nu)


def test_w2_to_grid_equals_projection_distance():
    rng = np.random.default_rng(24)
    mu = DiscreteMeasure.uniform(rng.normal(size=(40, 2)))
    grid = QuantizationGrid(rng.normal(size=(5, 2)))
    via_distortion = w2_to_grid(mu, grid)
    np.testing.assert_allclose(
        via_distortion, np.sqrt(quadratic_distortion(mu, grid)), rtol=1e-15
    )
    exact, _ = w2_discrete(project_to_grid(mu, grid), mu)
    np.testing.assert_allclose(via_distortion, exact, rtol=1e-9)


def test_compare_weighting_prefers_cell_masses():
    # Heavily skewed two-cluster data: uniform weights on the centroids
    # misplace mass, cell masses do not.
    rng = np.random.default_rng(25)
    atoms = np.vstack(
        [rng.normal(size=(90, 1)) * 0.1, 8.0 + rng.normal(size=(10, 1)) * 0.1]
    )
    mu = DiscreteMeasure.uniform(atoms)
    grid = QuantizationGrid(np.array([[0.0], [8.0]]))
    comparison = compare_weighting(mu, grid)
    assert comparison.weighted_w2 <= comparison.uniform_w2 + 1e-12
    assert comparison.reduction_fraction > 0.3


def test_compare_weighting_requires_enough_atoms():
    mu = DiscreteMeasure.uniform(np.array([[0.0]]))
    grid = QuantizationGrid(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        compare_weighting(mu, grid)


def test_compare_weighting_reports_no_reduction_when_uniform_weights_are_exact():
    # On a grid at the atoms of a uniform measure both distances are 0.
    atoms = np.array([[0.0, 3.0], [1.0, -2.0], [5.0, 0.5]])
    comparison = compare_weighting(DiscreteMeasure.uniform(atoms), QuantizationGrid(atoms))
    assert comparison.uniform_w2 == 0.0
    assert comparison.reduction_fraction == 0.0


def test_rate_scan_errors_decrease():
    scan = rate_scan(UniformCubeSampler(1), [2, 4, 8], 600, 26, n_restarts=2)
    assert scan.errors.shape == (3,)
    assert np.all(np.diff(scan.errors) < 0)
    assert scan.fitted_slope < 0


def test_rate_scan_validates_levels():
    sampler = UniformCubeSampler(1)
    with pytest.raises(ValueError):
        rate_scan(sampler, [4], 100, 0)
    with pytest.raises(ValueError):
        rate_scan(sampler, [4, 4], 100, 0)
    with pytest.raises(ValueError):
        rate_scan(sampler, [4, 8], 6, 0)


def test_rate_scan_rejects_no_restarts_and_a_zero_error():
    with pytest.raises(ValueError, match="n_restarts must be positive"):
        rate_scan(UniformCubeSampler(1), [2, 4], 100, 0, n_restarts=0)
    # Draws from two points: two centroids cover the cloud exactly.
    two_points = DiscreteMeasure.uniform(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="zero quantization error"):
        rate_scan(two_points, [1, 2], 50, 0)
