"""Tests for discrete measures, grids, partitions, and the distortion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quantdistill import measures
from quantdistill.errors import DimensionError
from quantdistill.measures import (
    DiscreteMeasure,
    QuantizationGrid,
    distortion_gradient,
    project_to_grid,
    quadratic_distortion,
    squared_distances,
    voronoi_partition,
)


def test_squared_distances_matches_loop():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(7, 3))
    centroids = rng.normal(size=(4, 3))
    d2 = squared_distances(points, centroids)
    assert d2.shape == (7, 4)
    for i in range(7):
        for j in range(4):
            expected = ((points[i] - centroids[j]) ** 2).sum()
            np.testing.assert_allclose(d2[i, j], expected, rtol=1e-14)


def test_squared_distances_exact_tie_stays_exact():
    # Dyadic coordinates: both differences are exactly 0.25, so the squared
    # distances are bitwise equal and the tie is real, not approximate.
    points = np.array([[0.5]])
    centroids = np.array([[0.25], [0.75]])
    d2 = squared_distances(points, centroids)
    assert d2[0, 0] == d2[0, 1]
    assert np.argmin(d2[0]) == 0


@st.composite
def point_sets(draw):
    """Two finite point sets of shapes (n, d) and (K, d), n, K <= 8, d <= 64."""
    n, k, d = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 64))
    coords = st.floats(-1e6, 1e6)
    return (
        draw(hnp.arrays(np.float64, (n, d), elements=coords)),
        draw(hnp.arrays(np.float64, (k, d), elements=coords)),
    )


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_squared_distances_kernel_properties(pair):
    points, centroids = pair
    d = points.shape[1]
    d2 = squared_distances(points, centroids)
    assert d2.shape == (points.shape[0], centroids.shape[0])
    for i, p in enumerate(points):
        for j, c in enumerate(centroids):
            # Recursive summation of d rounded squares stays within relative
            # d * eps of their exactly rounded sum.
            exact = math.fsum((p - c) ** 2)
            assert abs(d2[i, j] - exact) <= d * np.finfo(float).eps * exact
            # An entry depends only on its own pair, so a one-pair call (the
            # online winner search) agrees with a whole-cloud Voronoi pass.
            assert squared_distances(p[None, :], c[None, :])[0, 0] == d2[i, j]
    assert np.array_equal(squared_distances(centroids, points), d2.T)
    assert not np.any(np.diag(squared_distances(points, points)))
    fortran = squared_distances(np.asfortranarray(points), np.asfortranarray(centroids))
    assert fortran.tobytes() == d2.tobytes()
    # Every centroid listed twice: argmin keeps the lower copy.
    doubled = squared_distances(points, np.vstack([centroids, centroids]))
    assert np.array_equal(np.argmin(doubled, axis=1), np.argmin(d2, axis=1))


@st.composite
def weighted_clouds(draw):
    """Atoms (n, d), nonnegative weights (n,) and centroids (K, d), n, K <= 8, d <= 4.

    Coordinates are small integers half the time, so exact distance ties occur.
    """
    n, k, d = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    coords = draw(st.sampled_from([st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)]))
    return (
        draw(hnp.arrays(np.float64, (n, d), elements=coords)),
        draw(hnp.arrays(np.float64, (n,), elements=st.floats(0.0, 1.0))),
        draw(hnp.arrays(np.float64, (k, d), elements=coords)),
    )


def _brute_force_partition(atoms, weights, centroids):
    """Nearest centroid, its squared distance and the cell sums, by plain loops."""
    d2 = squared_distances(atoms, centroids)
    assignment = np.argmin(d2, axis=1)
    nearest_sq = d2.min(axis=1)
    k, d = centroids.shape
    mass = np.zeros(k)
    sums = np.zeros((k, d))
    for i, j in enumerate(assignment):
        mass[j] += weights[i]
        sums[j] += weights[i] * atoms[i]
    means = np.full((k, d), np.nan)
    means[mass > 0] = sums[mass > 0] / mass[mass > 0, None]
    return assignment, nearest_sq, mass, means, float(np.dot(weights, nearest_sq))


@settings(max_examples=200, deadline=None)
@given(weighted_clouds())
def test_partition_matches_a_brute_force_pass(cloud):
    atoms, weights, centroids = cloud
    part = measures._partition(atoms, weights, centroids)
    expected = _brute_force_partition(atoms, weights, centroids)
    got = (part.assignment, part.nearest_sq, part.cell_mass, part.cell_centroid, part.distortion)
    for name, ours, theirs in zip(("assignment", "nearest_sq", "mass", "means", "distortion"),
                                  got, expected):
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), name
    # Every centroid listed twice: each distance ties with its copy's, the
    # lower copy wins, and the upper copies' cells are empty NaN rows.
    k = centroids.shape[0]
    doubled = measures._partition(atoms, weights, np.vstack([centroids, centroids]))
    assert np.array_equal(doubled.assignment, part.assignment)
    assert np.array_equal(doubled.nearest_sq, part.nearest_sq)
    assert not np.any(doubled.cell_mass[k:])
    assert np.isnan(doubled.cell_centroid[k:]).all()
    assert doubled.distortion == part.distortion


def test_as_label_array_accepts_the_range_in_any_order():
    out = measures.as_label_array(np.array([2, 0, 1, 0], dtype=np.int32), 4)
    assert out.dtype == np.intp
    np.testing.assert_array_equal(out, [2, 0, 1, 0])


@pytest.mark.parametrize(
    "labels, n_points, message",
    [
        ([0, 2], None, "contiguous range"),
        ([-1, -1, 0, 1], None, "nonnegative"),
        ([], None, "nonempty 1-d integer"),
        ([[0, 1]], None, "nonempty 1-d integer"),
        ([0.0, 1.0], None, "nonempty 1-d integer"),
        ([True, False], None, "nonempty 1-d integer"),
        ([0, 1, 1], 2, "3 labels for 2 points"),
    ],
)
def test_as_label_array_rejects_bad_labels(labels, n_points, message):
    with pytest.raises(ValueError, match=message):
        measures.as_label_array(labels, n_points)


def test_measure_validates_weights():
    atoms = np.zeros((3, 2))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms, np.array([0.7, 0.5, -0.2]))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms, np.array([0.5, np.nan, 0.5]))


def test_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure.uniform(np.empty((0, 2)))


def test_measure_allows_zero_weights():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
    assert mu.n_atoms == 2


def test_measure_draw_frequencies():
    mu = DiscreteMeasure(
        np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.3, 0.2])
    )
    rng = np.random.default_rng(3)
    draws = mu.draw(rng, 20000)[:, 0]
    freq = np.array([(draws == v).mean() for v in (0.0, 1.0, 2.0)])
    np.testing.assert_allclose(freq, mu.weights, atol=0.02)


def test_measure_draws_by_inverse_cdf_on_one_uniform_per_draw():
    # The index stream is the reference lookup on the same uniforms, and an
    # interior zero-weight atom is never drawn.
    mu = DiscreteMeasure(np.arange(4.0)[:, None], np.array([0.3, 0.0, 0.45, 0.25]))
    indices = mu.draw_indices(np.random.default_rng(20), 5000)
    u = np.random.default_rng(20).random(5000)
    reference = np.searchsorted(np.cumsum(mu.weights), u, side="right")
    np.testing.assert_array_equal(indices, np.minimum(reference, 3))
    assert not np.any(indices == 1)
    np.testing.assert_array_equal(
        mu.draw(np.random.default_rng(20), 5000), mu.atoms[indices]
    )
    with pytest.raises(ValueError):
        mu.draw_indices(np.random.default_rng(20), 0)


def test_uniform_and_from_unnormalized():
    atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    uniform = DiscreteMeasure.uniform(atoms)
    np.testing.assert_allclose(uniform.weights, np.full(3, 1.0 / 3.0))
    scaled = DiscreteMeasure.from_unnormalized(atoms, np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(scaled.weights, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        DiscreteMeasure.from_unnormalized(atoms, np.zeros(3))


def test_grid_rejects_duplicate_centroids():
    with pytest.raises(ValueError):
        QuantizationGrid(np.array([[1.0, 2.0], [1.0, 2.0]]))
    grid = QuantizationGrid(np.array([[1.0, 2.0], [1.0, 2.5]]))
    assert grid.n_centroids == 2
    assert grid.dim == 2


def test_voronoi_partition_masses_and_centroids():
    mu = DiscreteMeasure(
        np.array([[0.0], [0.2], [1.0], [1.4]]),
        np.array([0.1, 0.3, 0.4, 0.2]),
    )
    grid = QuantizationGrid(np.array([[0.0], [1.0]]))
    part = voronoi_partition(mu, grid)
    np.testing.assert_array_equal(part.assignment, [0, 0, 1, 1])
    np.testing.assert_allclose(part.cell_mass, [0.4, 0.6])
    np.testing.assert_allclose(
        part.cell_centroid[:, 0],
        [(0.1 * 0.0 + 0.3 * 0.2) / 0.4, (0.4 * 1.0 + 0.2 * 1.4) / 0.6],
    )


def test_voronoi_partition_empty_cell_is_nan():
    mu = DiscreteMeasure.uniform(np.array([[0.0], [0.1]]))
    grid = QuantizationGrid(np.array([[0.0], [50.0]]))
    part = voronoi_partition(mu, grid)
    assert part.cell_mass[1] == 0.0
    assert np.isnan(part.cell_centroid[1]).all()


def test_quadratic_distortion_hand_value():
    # Two atoms at distance 0.5 from their shared nearest centroid.
    mu = DiscreteMeasure.uniform(np.array([[0.0], [1.0]]))
    grid = QuantizationGrid(np.array([[0.5], [4.0]]))
    np.testing.assert_allclose(quadratic_distortion(mu, grid), 0.25)


def test_quadratic_distortion_matches_loop():
    rng = np.random.default_rng(1)
    atoms = rng.normal(size=(20, 2))
    weights = rng.random(20)
    weights /= weights.sum()
    mu = DiscreteMeasure(atoms, weights)
    grid = QuantizationGrid(rng.normal(size=(5, 2)))
    total = 0.0
    for i in range(20):
        best = min(((atoms[i] - c) ** 2).sum() for c in grid.centroids)
        total += weights[i] * best
    np.testing.assert_allclose(quadratic_distortion(mu, grid), total, rtol=1e-12)


def test_distortion_zero_iff_atoms_on_centroids():
    grid = QuantizationGrid(np.array([[0.0, 0.0], [1.0, 1.0]]))
    on_grid = DiscreteMeasure.uniform(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert quadratic_distortion(on_grid, grid) == 0.0
    off_grid = DiscreteMeasure.uniform(np.array([[0.0, 0.1], [1.0, 1.0]]))
    assert quadratic_distortion(off_grid, grid) > 0.0


def test_distortion_gradient_hand_value():
    mu = DiscreteMeasure.uniform(np.array([[0.0], [1.0]]))
    grid = QuantizationGrid(np.array([[0.25], [4.0]]))
    grad = distortion_gradient(mu, grid)
    # Cell 0 holds both atoms (mass 1, mean 0.5); cell 1 is empty.
    np.testing.assert_allclose(grad, [[2.0 * (0.25 - 0.5)], [0.0]])


def test_distortion_gradient_vanishes_at_cell_means():
    rng = np.random.default_rng(2)
    mu = DiscreteMeasure.uniform(rng.normal(size=(30, 2)))
    grid = QuantizationGrid(rng.normal(size=(3, 2)))
    part = voronoi_partition(mu, grid)
    assert np.all(part.cell_mass > 0)
    at_means = QuantizationGrid(part.cell_centroid)
    moved = voronoi_partition(mu, at_means)
    # One assignment refresh can move atoms; only a fixed point has zero gradient.
    if np.array_equal(moved.assignment, part.assignment):
        np.testing.assert_allclose(
            distortion_gradient(mu, at_means), 0.0, atol=1e-12
        )


def test_project_to_grid_supports_all_centroids():
    mu = DiscreteMeasure(
        np.array([[0.0], [0.2], [1.0]]), np.array([0.2, 0.3, 0.5])
    )
    grid = QuantizationGrid(np.array([[0.0], [1.0], [9.0]]))
    nu = project_to_grid(mu, grid)
    np.testing.assert_array_equal(nu.atoms, grid.centroids)
    np.testing.assert_allclose(nu.weights, [0.5, 0.5, 0.0])


def test_project_to_grid_dimension_mismatch():
    mu = DiscreteMeasure.uniform(np.zeros((2, 2)) + np.arange(2)[:, None])
    with pytest.raises(DimensionError):
        project_to_grid(mu, QuantizationGrid(np.array([[0.0]])))
