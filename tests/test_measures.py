"""Tests for discrete measures, grids, partitions, and the distortion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp, softmax

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_coercions_reject_every_nonfinite_value_without_a_temporary(bad):
    points = np.random.default_rng(62).normal(size=(2000, 64))
    assert measures._all_finite(points) and measures._all_finite(np.empty((0, 3)))
    tracemalloc.start()
    try:
        measures.as_point_array(points)
        measures.as_point(points[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A boolean mask of the points would take 128 000 bytes.
    assert peak < points.size // 8
    for corner in [(0, 0), (1999, 63), (1000, 31)]:
        spoiled = points.copy()
        spoiled[corner] = bad
        assert not measures._all_finite(spoiled)
        with pytest.raises(ValueError, match="^cloud must be finite$"):
            measures.as_point_array(spoiled, "cloud")
        with pytest.raises(ValueError, match="^anchor must be finite$"):
            measures.as_point(spoiled[corner[0]], "anchor")


def test_in_place_softmax_has_scipys_bits():
    rng = np.random.default_rng(61)
    eps = np.finfo(np.float64).eps
    for shape in [(200, 300), (10, 7), (1, 1)]:
        logits = 40.0 * rng.normal(size=shape)
        logits[:, 0] = -np.inf  # a zero-weight atom's log weight
        logits[0, -1] = 0.0
        expected = softmax(logits, axis=1)
        reference = logsumexp(logits, axis=1, keepdims=True)
        resp = logits.copy()
        shift, total = measures._softmax_rows(resp)
        np.testing.assert_array_equal(resp, expected)
        # Only the log-sum-exp's last bits may differ from SciPy's.
        gap = np.abs(shift + np.log(total) - reference)
        assert np.all(gap <= 4 * eps * np.maximum(1.0, np.abs(reference)))


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


def _screened_nearest(monkeypatch, atoms, centroids, screen_all=False):
    """``measures._nearest`` with the rows its ``cdist`` fallback took, per call.

    ``screen_all`` lowers both screen floors to 0, so every shape screens.
    """
    exact, fallback_rows = measures._nearest_by_cdist, []

    def counted(rows, grid, previous=None):
        fallback_rows.append(rows.shape[0])
        return exact(rows, grid, previous)

    with monkeypatch.context() as patch:
        patch.setattr(measures, "_nearest_by_cdist", counted)
        if screen_all:
            patch.setattr(measures, "_SCREEN_FLOOR", 0)
            patch.setattr(measures, "_SCREEN_MIN_CENTROIDS", 0)
        assignment, nearest_sq = measures._nearest(atoms, centroids)
    return assignment, nearest_sq, fallback_rows


def _assert_same_as_brute(got, atoms, centroids):
    """``got`` is the full ``cdist`` pass's argmin (ties low) and that entry's bits."""
    d2 = squared_distances(atoms, centroids)
    assignment = np.argmin(d2, axis=1)
    nearest_sq = d2[np.arange(atoms.shape[0]), assignment]
    assert got[0].dtype == assignment.dtype
    np.testing.assert_array_equal(got[0], assignment)
    assert got[1].tobytes() == nearest_sq.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_screened_nearest_equals_cdist_on_random_clouds_at_d4096(monkeypatch, seed):
    rng = np.random.default_rng(900 + seed)
    centroids = 3.0 * rng.normal(size=(10, 4096))
    atoms = centroids[rng.integers(0, 10, 64)] + rng.normal(size=(64, 4096))
    assert 10 * 4096 >= measures._SCREEN_FLOOR
    got = _screened_nearest(monkeypatch, atoms, centroids)
    _assert_same_as_brute(got[:2], atoms, centroids)
    # The screen decided every row; none needed the full pass.
    assert got[2] == []


@pytest.mark.parametrize("seed", range(5))
def test_screened_nearest_sends_planted_near_ties_to_cdist(monkeypatch, seed):
    # Atoms mirrored across the bisector of centroids 0 and 1, at offsets
    # from a few ulps of the coordinates up to well past the screen's margin.
    # Rounding here stays about 1e-4 of the margin's worst case, so a margin
    # 1e4 times too small already disagrees with cdist on some seed.
    rng = np.random.default_rng(910 + seed)
    d = 4096
    centroids = 3.0 * rng.normal(size=(10, d))
    normal = centroids[1] - centroids[0]
    normal /= np.linalg.norm(normal)
    spread = rng.normal(size=(12, d))
    spread -= np.outer(spread @ normal, normal)
    base = 0.5 * (centroids[0] + centroids[1]) + 0.1 * spread
    offsets = np.concatenate([[0.0], np.spacing(3.0) * np.array([1, 2, 4, 16]),
                              np.logspace(-15, -9, 25), [1e-2]])
    atoms = np.concatenate([
        base[i % 12] + sign * t * normal for i, t in enumerate(offsets) for sign in (1.0, -1.0)
    ]).reshape(-1, d)
    assignment, nearest_sq, fallback_rows = _screened_nearest(monkeypatch, atoms, centroids)
    _assert_same_as_brute((assignment, nearest_sq), atoms, centroids)
    assert set(assignment) <= {0, 1}
    # The ties took the cdist pass, and the clear offsets did not.
    assert len(fallback_rows) == 1 and 0 < fallback_rows[0] < atoms.shape[0]


@pytest.mark.parametrize("centroid_scale", [1.0, 1e153])
def test_screened_nearest_takes_overflowing_rows_to_cdist(monkeypatch, centroid_scale):
    rng = np.random.default_rng(920)
    centroids = centroid_scale * rng.normal(size=(10, 4096))
    atoms = rng.normal(size=(40, 4096))
    # Squared distances near and past the largest double: 4096 · (1e153)² overflows.
    atoms[::2] *= np.repeat([1e150, 1e152, 1e153, 1e154], 5)[:, None]
    assignment, nearest_sq, fallback_rows = _screened_nearest(monkeypatch, atoms, centroids)
    _assert_same_as_brute((assignment, nearest_sq), atoms, centroids)
    assert fallback_rows and fallback_rows[0] >= 10


def test_screened_nearest_with_one_centroid(monkeypatch):
    rng = np.random.default_rng(930)
    atoms, centroid = rng.normal(size=(50, 16)), rng.normal(size=(1, 16))
    got = _screened_nearest(monkeypatch, atoms, centroid, screen_all=True)
    _assert_same_as_brute(got[:2], atoms, centroid)
    assert not got[0].any() and got[2] == []


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weighted_clouds())
def test_screened_nearest_matches_cdist_on_small_clouds_with_exact_ties(monkeypatch, cloud):
    # Small-integer coordinates tie exactly; tiny floats underflow.
    atoms, _, centroids = cloud
    got = _screened_nearest(monkeypatch, atoms, centroids, screen_all=True)
    _assert_same_as_brute(got[:2], atoms, centroids)


@settings(max_examples=200, deadline=None)
@given(weighted_clouds(), st.data())
def test_warm_started_nearest_is_the_cold_argmin_for_any_previous(cloud, data):
    # Any previous assignment, a wrong one or one on a duplicate centroid
    # too, leaves the result cdist's argmin (ties low) with that entry's bits.
    atoms, _, centroids = cloud
    k = centroids.shape[0]
    previous = data.draw(hnp.arrays(np.intp, atoms.shape[0], elements=st.integers(0, k - 1)))
    duplicated = np.vstack([centroids, centroids])
    for grid, hint in ((centroids, previous), (duplicated, previous + k)):
        kept = hint.copy()
        _assert_same_as_brute(measures._nearest(atoms, grid, hint), atoms, grid)
        np.testing.assert_array_equal(hint, kept)


@pytest.mark.parametrize("k, d, screened", [(4, 8192, False), (7, 8192, False), (8, 4096, True)])
def test_few_centroids_take_cdist_at_any_dimension(monkeypatch, k, d, screened):
    # Below eight centroids the screen is slower than one cdist pass even
    # where K·d passes its floor, so the whole batch takes that pass.
    rng = np.random.default_rng(950 + k)
    centroids = 3.0 * rng.normal(size=(k, d))
    atoms = centroids[rng.integers(0, k, 64)] + rng.normal(size=(64, d))
    assert k * d >= measures._SCREEN_FLOOR
    got = _screened_nearest(monkeypatch, atoms, centroids)
    _assert_same_as_brute(got[:2], atoms, centroids)
    assert got[2] == ([] if screened else [64])


@pytest.mark.parametrize("d", [3, 16, 4096])
def test_cdist_entry_depends_only_on_its_own_pair(d):
    # The screen reads each winner's squared distance from a call on the
    # winner and the rows it won; that must be the full matrix's entry.
    rng = np.random.default_rng(940 + d)
    atoms, centroids = rng.normal(size=(64, d)), rng.normal(size=(10, d))
    full = squared_distances(atoms, centroids)
    for j in range(10):
        rows = np.flatnonzero(rng.random(64) < 0.3)
        single = squared_distances(centroids[j:j + 1], atoms[rows])
        assert single.tobytes() == np.ascontiguousarray(full[rows, j]).tobytes()


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


def test_as_point_rejects_a_2_d_value():
    with pytest.raises(ValueError, match=r"^anchor must be a 1-d array, got shape \(1, 2\)$"):
        measures.as_point([[0.0, 1.0]], "anchor")


def test_uniform_measure_checks_its_atoms_once(monkeypatch):
    checked = []

    def all_finite(arr):
        if arr.ndim == 2:
            checked.append(arr.shape)
        return np.isfinite(arr).all()

    monkeypatch.setattr(measures, "_all_finite", all_finite)
    mu = DiscreteMeasure.uniform(np.arange(6.0).reshape(3, 2))
    assert checked == [(3, 2)]
    np.testing.assert_array_equal(mu.weights, np.full(3, 1.0 / 3))
    for atoms, message in (
        (np.array([1.0, 2.0]), r"atoms must be a 2-d array, got shape \(2,\)"),
        (np.empty((0, 2)), r"atoms must be nonempty in both axes, got shape \(0, 2\)"),
        ([[0.0], [np.nan]], "atoms must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiscreteMeasure.uniform(atoms)


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


@pytest.mark.parametrize(
    "rows",
    [
        [[3.0, 0.5, -1.0], [2.0, 0.0, 1.0], [3.0, 0.5, -1.0]],  # exact duplicates, apart
        [[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0]],  # equal up to the sign of zero
        [[-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
    ],
)
def test_grid_distinctness_compares_values_not_the_sign_of_zero(rows):
    rows = np.array(rows)
    assert np.unique(rows, axis=0).shape[0] < rows.shape[0]  # np.unique's verdict
    with pytest.raises(ValueError, match="pairwise distinct"):
        QuantizationGrid(rows)
    # The check reads a copy: a rejected grid leaves its input's zeros signed.
    assert np.signbit(rows).any()
    # Rows differing by one ulp, or in a zero against a nonzero, are distinct.
    QuantizationGrid(np.array([[0.0, 1.0], [0.0, np.nextafter(1.0, 2.0)], [-1e-300, 1.0]]))


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
