"""Tests for samplers, online competitive learning, and Lloyd refinement."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from quantdistill import measures, pipeline, quantize
from quantdistill.errors import EmptyCluster, InsufficientPoints, QuantDistillError
from quantdistill.measures import (
    DiscreteMeasure,
    QuantizationGrid,
    VoronoiPartition,
    quadratic_distortion,
    squared_distances,
    voronoi_partition,
)
from quantdistill.pipeline import class_subseed, demo_dataset, distill
from quantdistill.quantize import (
    GaussianMixtureSampler,
    UniformCubeSampler,
    WeightedQuantization,
    best_lloyd,
    clvq,
    empirical_distortion_trace,
    init_grid,
    lloyd,
    minibatch_kmeans,
)


def test_gaussian_mixture_sampler_moments():
    sampler = GaussianMixtureSampler(
        [[-1.0], [2.0]], [0.04, 0.04], [0.25, 0.75]
    )
    np.testing.assert_allclose(sampler.mean, [1.25])
    rng = np.random.default_rng(4)
    draws = sampler.draw(rng, 40000)
    np.testing.assert_allclose(draws.mean(axis=0), sampler.mean, atol=0.03)


def test_gaussian_mixture_sampler_validation():
    with pytest.raises(ValueError):
        GaussianMixtureSampler([[0.0]], [0.0], [1.0])
    with pytest.raises(ValueError):
        GaussianMixtureSampler([[0.0], [1.0]], [0.1, 0.1], [0.0, 0.0])


@pytest.mark.parametrize(
    "variances,weights",
    [
        ([np.nan, 0.1], [0.5, 0.5]),
        ([np.inf, 0.1], [0.5, 0.5]),
        ([0.1, 0.1], [np.nan, 0.5]),
        ([0.1, 0.1], [np.inf, 0.5]),
    ],
    ids=["nan_variance", "inf_variance", "nan_weight", "inf_weight"],
)
def test_gaussian_mixture_sampler_rejects_non_finite_parameters(variances, weights):
    with pytest.raises(ValueError):
        GaussianMixtureSampler([[0.0], [1.0]], variances, weights)


def test_uniform_cube_sampler_range():
    sampler = UniformCubeSampler(3)
    draws = sampler.draw(np.random.default_rng(5), 1000)
    assert draws.shape == (1000, 3)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    with pytest.raises(ValueError):
        UniformCubeSampler(0)


def test_init_grid_picks_data_points():
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=(30, 2))
    mu = DiscreteMeasure.uniform(atoms)
    grid = init_grid(mu, 5, rng)
    rounded = {tuple(row) for row in atoms}
    assert all(tuple(row) in rounded for row in grid.centroids)


def test_init_grid_dsquared_spreads_over_modes():
    # Two tight far-apart clusters: spread seeding must claim both.
    rng = np.random.default_rng(7)
    atoms = np.vstack(
        [rng.normal(size=(50, 1)) * 0.01, 100.0 + rng.normal(size=(50, 1)) * 0.01]
    )
    mu = DiscreteMeasure.uniform(atoms)
    grid = init_grid(mu, 2, rng)
    values = np.sort(grid.centroids[:, 0])
    assert values[0] < 50.0 < values[1]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_init_grid_dsquared_makes_one_distance_pass_per_pick_but_the_last(monkeypatch, k):
    calls = []

    def counted(points, centroids):
        calls.append(1)
        return squared_distances(points, centroids)

    monkeypatch.setattr(quantize, "squared_distances", counted)
    mu = DiscreteMeasure.uniform(np.random.default_rng(19).normal(size=(40, 2)))
    assert init_grid(mu, k, 19).n_centroids == k
    assert len(calls) == k - 1


def test_init_grid_insufficient_distinct_points():
    mu = DiscreteMeasure.uniform(np.array([[1.0], [1.0], [1.0]]))
    with pytest.raises(InsufficientPoints):
        init_grid(mu, 2, 0)


def test_init_grid_needs_a_centroid():
    mu = DiscreteMeasure.uniform(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="n_centroids must be positive"):
        init_grid(mu, 0, 0)


def test_init_grid_rejects_squared_distances_that_overflow():
    # After the first pick the scores' total is infinite, and the lookup would
    # land on the last atom at every later pick.
    points = np.random.default_rng(0).standard_normal((200, 2)) * 1e154
    mu = DiscreteMeasure.uniform(points)
    with pytest.raises(QuantDistillError, match="^squared distances between points overflow float64$"):
        init_grid(mu, 4, 0)
    # One centroid needs no distance, and a cloud 1e10 times smaller still seeds.
    assert init_grid(mu, 1, 0).n_centroids == 1
    assert init_grid(DiscreteMeasure.uniform(points / 1e10), 4, 0).n_centroids == 4


def test_minibatch_kmeans_single_centroid_at_batch_size_one_is_exact_mean():
    # With K=1 every sample wins and 1/v steps reproduce the running mean.
    data = DiscreteMeasure.uniform(np.random.default_rng(7).random((300, 2)))
    result = minibatch_kmeans(data, 1, 1, 500, 8)
    rng = np.random.default_rng(8)
    init = init_grid(DiscreteMeasure.uniform(data.draw(rng, 512)), 1, rng)
    samples = data.draw(rng, 500)
    np.testing.assert_allclose(
        result.grid.centroids[0], samples.mean(axis=0), rtol=1e-12
    )
    assert result.counts[0] == 500.0
    np.testing.assert_allclose(result.weights, [1.0])
    # The first recorded distance is measured before the winner moves.
    first = ((samples[0] - init.centroids[0]) ** 2).sum()
    np.testing.assert_allclose(result.winner_sq_dists[0], first, rtol=1e-12)


def test_clvq_seeds_from_a_pool_of_its_own_draws():
    # A measure is pooled like any sampler: 512 draws, not its 600 atoms.
    mu = DiscreteMeasure.uniform(np.random.default_rng(17).normal(size=(600, 2)))
    seeded = clvq(mu, 3, 200, 18)
    rng = np.random.default_rng(18)
    init = init_grid(DiscreteMeasure.uniform(mu.draw(rng, 512)), 3, rng)
    x, v, w, trace = _reference_loop(mu.draw(rng, 200), init.centroids)
    given = {"grid": x, "counts": v, "weights": w, "winner_sq_dists": trace}
    for field in dataclasses.fields(seeded):
        ours = getattr(seeded, field.name)
        if field.name == "grid":
            ours = ours.centroids
        np.testing.assert_array_equal(ours, given[field.name], err_msg=field.name)


def test_clvq_counts_sum_to_steps_and_weights_to_one():
    sampler = UniformCubeSampler(1)
    result = clvq(sampler, 4, 3000, 9)
    assert result.counts.sum() == 3000.0
    np.testing.assert_allclose(result.weights.sum(), 1.0, atol=1e-9)


def test_clvq_rejects_bad_arguments():
    sampler = UniformCubeSampler(1)
    with pytest.raises(ValueError):
        clvq(sampler, 2, 0, 0)


def test_minibatch_kmeans_rejects_an_empty_batch():
    data = DiscreteMeasure.uniform(np.arange(6.0)[:, None])
    with pytest.raises(ValueError, match="batch_size and n_iterations must be positive"):
        minibatch_kmeans(data, 2, 0, 10, 0)


def test_uniform_cube_sampler_draws_at_least_one_point():
    with pytest.raises(ValueError, match="n must be positive"):
        UniformCubeSampler(2).draw(np.random.default_rng(0), 0)


def test_minibatch_kmeans_matches_online_run():
    # At batch size 1 each batch is one online count-reciprocal step.
    rng = np.random.default_rng(10)
    data = DiscreteMeasure.uniform(rng.normal(size=(200, 2)))
    batch = minibatch_kmeans(data, 3, 1, 600, 11)
    centres, counts, trace = _sculley_reference(data, 3, 1, 600, 11)
    np.testing.assert_array_equal(batch.grid.centroids, centres)
    np.testing.assert_array_equal(batch.counts, counts)
    np.testing.assert_array_equal(batch.weights, counts / 600.0)
    np.testing.assert_allclose(batch.winner_sq_dists, trace, rtol=1e-12)


def _sculley_reference(data, k, batch_size, n_iterations, seed):
    """Plain-Python mini-batch k-means as Sculley (2010) states it.

    Seeds and draws like ``clvq``; each batch is assigned against the grid
    at its start, then every sample moves its centre by one
    count-reciprocal step. At batch size 1 it is the online
    count-reciprocal learner. Returns the centres, the counts and each
    sample's squared distance to its centre before the move.
    """
    rng = np.random.default_rng(seed)
    pool = DiscreteMeasure.uniform(data.draw(rng, max(512, 32 * k)))
    centres = [list(map(float, c)) for c in init_grid(pool, k, rng).centroids]
    order = data.draw_indices(rng, batch_size * n_iterations)
    samples = [list(map(float, data.atoms[i])) for i in order]
    counts, trace = [0] * k, []

    def sq_dist(s, j):
        return sum((a - b) ** 2 for a, b in zip(s, centres[j]))

    for start in range(0, len(samples), batch_size):
        batch = samples[start:start + batch_size]
        nearest = [min(range(k), key=lambda j: sq_dist(s, j)) for s in batch]
        trace += [sq_dist(s, j) for s, j in zip(batch, nearest)]
        for s, j in zip(batch, nearest):
            counts[j] += 1
            eta = 1.0 / counts[j]
            centres[j] = [(1.0 - eta) * c + eta * a for c, a in zip(centres[j], s)]
    return np.array(centres), np.array(counts, dtype=np.float64), np.array(trace)


def test_minibatch_kmeans_matches_plain_sculley_reference():
    rng = np.random.default_rng(21)
    data = DiscreteMeasure.uniform(rng.normal(size=(150, 3)) + rng.integers(0, 3, (150, 1)))
    batch = minibatch_kmeans(data, 4, 16, 12, 5)
    centres, counts, trace = _sculley_reference(data, 4, 16, 12, 5)
    np.testing.assert_array_equal(batch.counts, counts)
    np.testing.assert_allclose(batch.grid.centroids, centres, rtol=1e-12)
    np.testing.assert_array_equal(batch.weights, counts / 192.0)
    np.testing.assert_allclose(batch.winner_sq_dists, trace, rtol=1e-12)
    # Batches of 16 are not the online run: the batch-size-1 grid differs.
    online = minibatch_kmeans(data, 4, 1, 192, 5)
    assert not np.array_equal(batch.grid.centroids, online.grid.centroids)


def test_minibatch_kmeans_at_ipc_50_is_byte_identical_on_the_screened_route(monkeypatch):
    rng = np.random.default_rng(23)
    modes = 2.0 * rng.normal(size=(60, 1024))
    data = DiscreteMeasure.uniform(modes[rng.integers(0, 60, 800)] + rng.normal(size=(800, 1024)))
    assert 50 * 1024 >= measures._SCREEN_FLOOR
    fallback_rows = []

    def counted(rows, grid, previous=None):
        fallback_rows.append(rows.shape[0])
        return exact(rows, grid, previous)

    exact = measures._nearest_by_cdist
    monkeypatch.setattr(measures, "_nearest_by_cdist", counted)
    screened = minibatch_kmeans(data, 50, 64, 60, 11)
    # The screen decided most rows of the run itself.
    assert sum(fallback_rows) < 64 * 60 // 2
    monkeypatch.setattr(measures, "_SCREEN_FLOOR", np.inf)
    fallback_rows.clear()
    full = minibatch_kmeans(data, 50, 64, 60, 11)
    assert sum(fallback_rows) == 64 * 60
    for field in ("counts", "weights", "winner_sq_dists"):
        assert getattr(screened, field).tobytes() == getattr(full, field).tobytes(), field
    assert screened.grid.centroids.tobytes() == full.grid.centroids.tobytes()


def test_count_reciprocal_weights_are_win_shares():
    # Per-centroid steps do not average the wins, so the reported weights
    # are the win shares, which recover a 70/30 split.
    sampler = GaussianMixtureSampler([[-3.0], [3.0]], [0.01, 0.01], [0.7, 0.3])
    data = DiscreteMeasure.uniform(sampler.draw(np.random.default_rng(1), 4000))
    result = minibatch_kmeans(data, 2, 1, 4000, 0)
    np.testing.assert_array_equal(result.weights, result.counts / 4000)
    assert abs(result.weights[np.argmin(result.grid.centroids[:, 0])] - 0.7) < 0.03


def test_distill_class_equals_direct_minibatch_kmeans_run():
    points, labels = demo_dataset(3, n_per_class=60, n_classes=2)
    result = distill(points, labels, 4, 7, batch_size=8, n_iterations=25)
    for cls in result.classes:
        data = DiscreteMeasure.uniform(points[labels == cls.label])
        direct = minibatch_kmeans(data, 4, 8, 25, class_subseed(7, cls.label))
        np.testing.assert_array_equal(cls.centroids, direct.grid.centroids)
        np.testing.assert_array_equal(cls.counts, direct.counts)
        np.testing.assert_array_equal(cls.weights, direct.weights)


def test_batched_distill_names_the_class_whose_centroid_never_wins():
    # Class 1 is 100 copies of one point and a far outlier: the seeding picks
    # the outlier, and 16 draws never reach it.
    blob = np.random.default_rng(0).normal(size=(40, 2))
    points = np.vstack([blob, np.full((100, 2), 10.0), [[50.0, 50.0]]])
    labels = np.repeat([0, 1], [40, 101])
    with pytest.raises(EmptyCluster, match="^class 1: centroid 1 never won a draw; "):
        distill(points, labels, 2, 0, batch_size=4, n_iterations=4)


@pytest.mark.parametrize("batch_size,n_iterations", [(-2, -100), (0, 10), (10, 0)])
def test_distill_rejects_nonpositive_batch_settings(batch_size, n_iterations):
    points, labels = demo_dataset(3, n_per_class=20, n_classes=2)
    with pytest.raises(ValueError, match="batch_size and n_iterations"):
        distill(points, labels, 2, 0, batch_size=batch_size, n_iterations=n_iterations)


@pytest.mark.parametrize(
    "shape", [(5,), (5, 0), (0, 3), (2, 3, 1)], ids=["1-d", "no-columns", "no-rows", "3-d"]
)
def test_distill_rejects_points_that_are_not_a_nonempty_matrix(shape, monkeypatch):
    # The shape is checked before the work estimate or the worker count.
    monkeypatch.setattr(pipeline, "_class_workers", None)
    message = rf"^points must be a nonempty \(n, d\) array, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        distill(np.zeros(shape), np.zeros(5, dtype=np.intp), 1, 0)


def test_lloyd_two_clusters_lands_on_means():
    rng = np.random.default_rng(12)
    left = rng.normal(size=(100, 1)) * 0.05
    right = 10.0 + rng.normal(size=(100, 1)) * 0.05
    mu = DiscreteMeasure.uniform(np.vstack([left, right]))
    init = QuantizationGrid(np.array([[1.0], [9.0]]))
    fit = lloyd(mu, init)
    assert fit.converged
    np.testing.assert_allclose(
        np.sort(fit.grid.centroids[:, 0]),
        [left.mean(), right.mean()],
        atol=1e-10,
    )
    assert np.all(np.diff(fit.distortion_history) <= 1e-12)


def test_lloyd_reseeds_empty_cell():
    mu = DiscreteMeasure.uniform(np.array([[0.0], [1.0], [5.0]]))
    init = QuantizationGrid(np.array([[0.5], [100.0]]))
    fit = lloyd(mu, init)
    assert fit.empty_cells_resolved >= 1
    # The reseeded centroid must serve the isolated atom.
    assert np.all(fit.partition.cell_mass > 0)


def test_lloyd_exact_cover_gives_zero_distortion():
    atoms = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    mu = DiscreteMeasure.uniform(atoms)
    grid = lloyd(mu, QuantizationGrid(atoms + 0.01)).grid
    np.testing.assert_allclose(quadratic_distortion(mu, grid), 0.0, atol=1e-20)


def test_lloyd_never_increases_distortion_from_random_starts():
    rng = np.random.default_rng(13)
    mu = DiscreteMeasure.uniform(rng.normal(size=(150, 2)))
    for _ in range(5):
        init = QuantizationGrid(rng.normal(size=(4, 2)))
        history = lloyd(mu, init).distortion_history
        assert np.all(np.diff(history) <= 1e-12 * (1.0 + history[:-1]))


LLOYD_CASES = {
    "reseed": (np.array([[0.0], [1.0], [5.0]]), np.array([[0.5], [100.0]])),
    "plain": (
        np.random.default_rng(14).normal(size=(150, 2)),
        np.random.default_rng(15).normal(size=(4, 2)),
    ),
}


@pytest.mark.parametrize("case", list(LLOYD_CASES))
def test_lloyd_makes_one_distance_pass_per_iteration(monkeypatch, case):
    atoms, start = LLOYD_CASES[case]
    calls = []

    def counted(points, centroids):
        calls.append(1)
        return squared_distances(points, centroids)

    monkeypatch.setattr(measures, "squared_distances", counted)
    mu = DiscreteMeasure.uniform(atoms)
    fit = lloyd(mu, QuantizationGrid(start))
    assert (case == "reseed") == (fit.empty_cells_resolved > 0)
    # Both runs end on an update that reproduces the grid bit for bit: its
    # distortion repeats, and the pass that would repeat is not made.
    assert len(calls) == fit.n_iterations + fit.empty_cells_resolved
    assert fit.distortion_history[-1] == fit.distortion_history[-2]
    part = voronoi_partition(mu, fit.grid)
    assert part.cell_centroid.tobytes() == fit.grid.centroids.tobytes()


def _reference_lloyd(mu, start):
    """Lloyd as a plain loop: one row-major ``cdist`` pass and ``argmin`` per update.

    The same updates, reseeds, sums, stopping rule and checks as ``lloyd``,
    with no warm start and no skipped pass.
    """
    atoms, weights = mu.atoms, mu.weights
    rows = np.arange(atoms.shape[0])

    def partition(x):
        d2 = cdist(atoms, x, "sqeuclidean")
        assignment = np.argmin(d2, axis=1)
        nearest_sq = d2[rows, assignment]
        mass = np.bincount(assignment, weights=weights, minlength=x.shape[0])
        means = np.full(x.shape, np.nan)
        nonempty = mass > 0
        for axis in range(x.shape[1]):
            sums = np.bincount(assignment, weights=weights * atoms[:, axis], minlength=x.shape[0])
            means[nonempty, axis] = sums[nonempty] / mass[nonempty]
        return VoronoiPartition(assignment, nearest_sq, mass, means, float(np.dot(weights, nearest_sq)))

    x = start.centroids.copy()
    part = partition(x)
    history, resolved = [part.distortion], 0
    for _ in range(quantize.LLOYD_DEFAULT_MAX_ITERATIONS):
        nonempty = part.cell_mass > 0
        new_x = np.where(nonempty[:, None], part.cell_centroid, x)
        for j in np.flatnonzero(~nonempty):
            nearest = cdist(atoms, new_x, "sqeuclidean").min(axis=1)
            if nearest.max() <= 0.0:
                raise InsufficientPoints("every atom already sits on a centroid")
            new_x[j] = atoms[np.argmax(nearest)]
            resolved += 1
        converged = np.array_equal(new_x, x)
        x = new_x
        part = partition(x)
        if part.distortion > history[-1] + 1e-12 * (1.0 + history[-1]):
            raise QuantDistillError("distortion rose")
        history.append(part.distortion)
        if converged:
            break
    return quantize.LloydFit(
        QuantizationGrid(x), part, len(history) - 1, converged, np.asarray(history), resolved
    )


def _lloyd_outcome(run, mu, start):
    """Every ``LloydFit`` field as bytes, or the type of the error raised."""
    try:
        fit = run(mu, start)
    except (QuantDistillError, ValueError) as exc:
        return type(exc)
    fields = [fit.grid.centroids, fit.distortion_history, *dataclasses.astuple(fit.partition)]
    arrays = [np.asarray(value) for value in fields]
    return (
        [(arr.dtype, arr.shape, arr.tobytes()) for arr in arrays],
        fit.n_iterations, fit.converged, fit.empty_cells_resolved,
    )


@st.composite
def lloyd_instances(draw):
    """A weighted cloud and a start grid, built from a drawn seed.

    Shapes fall on both sides of ``measures._SCREEN_FLOOR``. A lattice of
    small integers with half-integer starts ties exactly, start centroids
    moved far off leave empty cells to reseed, and rows scaled to 1e154
    have infinite squared distances.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (4, 2), (6, 2), (5, 3), (8, 16),
                                 (8, 4096), (16, 2048)]))
    n = draw(st.integers(k, 40))
    layout = draw(st.sampled_from(["normal", "lattice", "huge"]))
    if layout == "lattice":
        atoms = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        start = rng.integers(0, 5, size=(k, d)) / 2.0
    else:
        atoms = rng.normal(size=(n, d))
        start = rng.normal(size=(k, d))
    if layout == "huge":
        atoms[rng.random(n) < 0.3] *= 1e154
    if draw(st.booleans()):
        start[rng.random(k) < 0.5] += 1e3
    weights = rng.random(n) if draw(st.booleans()) else np.ones(n)
    return DiscreteMeasure.from_unnormalized(atoms, weights), QuantizationGrid(
        np.unique(start, axis=0)
    )


# After one update from either start, the atom at 1 lies exactly halfway
# between centroids at 0 and 2: it ties, its previous centroid the higher
# index in one start and the lower in the other.
_TIED = DiscreteMeasure.uniform(np.array([[0.0], [1.0], [3.0]]))


@settings(max_examples=80, deadline=None)
@given(lloyd_instances())
@example((_TIED, QuantizationGrid(np.array([[0.0], [1.2]]))))
@example((_TIED, QuantizationGrid(np.array([[1.2], [0.0]]))))
def test_warm_started_lloyd_equals_the_plain_loop_bit_for_bit(instance):
    mu, start = instance
    assert _lloyd_outcome(lloyd, mu, start) == _lloyd_outcome(_reference_lloyd, mu, start)


@pytest.mark.parametrize("case", list(LLOYD_CASES))
def test_lloyd_last_distortion_is_the_final_grids_distortion(case):
    atoms, start = LLOYD_CASES[case]
    mu = DiscreteMeasure.uniform(atoms)
    fit = lloyd(mu, QuantizationGrid(start))
    assert fit.distortion_history[-1] == quadratic_distortion(mu, fit.grid)
    assert fit.distortion == fit.distortion_history[-1]
    # Lloyd returns the partition it scored the final grid with: the same
    # pass, field for field and bit for bit, as a fresh one.
    fresh = voronoi_partition(mu, fit.grid)
    for field in dataclasses.fields(fresh):
        ours, theirs = getattr(fit.partition, field.name), getattr(fresh, field.name)
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), field.name
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype, field.name


def test_lloyd_raises_when_distortion_rises(monkeypatch):
    calls = []

    def inflating(points, centroids):
        calls.append(1)
        return squared_distances(points, centroids) * len(calls)

    monkeypatch.setattr(measures, "squared_distances", inflating)
    atoms, start = LLOYD_CASES["plain"]
    with pytest.raises(QuantDistillError, match="distortion rose"):
        lloyd(DiscreteMeasure.uniform(atoms), QuantizationGrid(start))


def test_best_lloyd_keeps_the_lowest_distortion():
    rng = np.random.default_rng(21)
    mu = DiscreteMeasure.uniform(rng.random((300, 2)))
    starts = [QuantizationGrid(rng.random((5, 2))) for _ in range(4)]
    best = best_lloyd(mu, starts)
    finals = [quadratic_distortion(mu, lloyd(mu, start).grid) for start in starts]
    assert best.distortion == min(finals)
    assert quadratic_distortion(mu, best.grid) == best.distortion


def test_best_lloyd_ties_go_to_the_earliest_start():
    # The unit square's corners split into two columns or two rows at the
    # same distortion, 1/4 exactly.
    mu = DiscreteMeasure.uniform(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    columns = QuantizationGrid(np.array([[0.0, 0.0], [1.0, 0.0]]))
    rows = QuantizationGrid(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert not np.array_equal(
        lloyd(mu, columns).grid.centroids, lloyd(mu, rows).grid.centroids
    )
    for starts in ([columns, rows], [rows, columns]):
        best = best_lloyd(mu, starts)
        assert best.distortion == 0.25
        np.testing.assert_array_equal(
            best.grid.centroids, lloyd(mu, starts[0]).grid.centroids
        )
    with pytest.raises(ValueError):
        best_lloyd(mu, [])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("extra", [1, 6, 20])
def test_augment_grid_picks_what_a_full_pass_per_pick_picks(seed, extra):
    # A 4 x 4 lattice ties exactly and runs out of uncovered atoms at 20.
    rng = np.random.default_rng(60 + seed)
    if seed % 2:
        atoms = rng.integers(0, 4, size=(60, 2)).astype(np.float64)
    else:
        atoms = rng.normal(size=(60, 2))
    centroids = atoms[:3].copy()
    expected = centroids
    for _ in range(extra):
        nearest = cdist(atoms, expected, "sqeuclidean").min(axis=1)
        if nearest.max() <= 0.0:
            expected = None
            break
        expected = np.vstack([expected, atoms[np.argmax(nearest)]])
    grown = quantize._augment_grid(atoms, centroids, extra)
    if expected is None:
        assert grown is None
    else:
        assert grown.tobytes() == expected.tobytes()


def test_worst_served_atom_needs_an_uncovered_atom():
    atoms = np.array([[0.0], [1.0], [3.0]])
    grown = quantize._augment_grid(atoms, atoms[:2], 1)
    assert grown.tobytes() == atoms.tobytes()
    assert quantize._augment_grid(atoms, atoms, 1) is None
    # The third centroid's cell is empty, and no atom is left to reseed it at.
    with pytest.raises(InsufficientPoints, match="every atom already sits on a centroid"):
        lloyd(DiscreteMeasure.uniform(atoms), QuantizationGrid(np.vstack([atoms, [[9.0]]])))


def test_lloyd_stops_only_on_an_update_that_reproduces_the_grid(monkeypatch):
    # The first update moves the left centroid from 0 by only about 8e-13.
    # That is still a move: the run ends at the second update, the first
    # that reproduces the grid bit for bit.
    mu = DiscreteMeasure(np.array([[0.0], [0.4], [1.0]]), np.array([0.5, 1e-12, 0.5 - 1e-12]))
    start = QuantizationGrid(np.array([[0.0], [1.0]]))
    fit = lloyd(mu, start)
    assert 0.0 < fit.grid.centroids[0, 0] < 1e-12
    assert fit.converged
    assert fit.n_iterations == 2
    assert fit.distortion_history[-1] == fit.distortion_history[-2]
    assert fit.distortion_history[1] < fit.distortion_history[0]
    part = voronoi_partition(mu, fit.grid)
    assert part.cell_centroid.tobytes() == fit.grid.centroids.tobytes()
    # Capped at one update, the same run stops short of its fixed point.
    monkeypatch.setattr(quantize, "LLOYD_DEFAULT_MAX_ITERATIONS", 1)
    capped = lloyd(mu, start)
    assert not capped.converged
    assert capped.n_iterations == 1
    assert capped.grid.centroids.tobytes() == fit.grid.centroids.tobytes()
    assert capped.distortion_history.tobytes() == fit.distortion_history[:2].tobytes()


def test_empirical_distortion_trace_is_running_mean():
    trace = np.array([4.0, 2.0, 0.0, 2.0])
    result = WeightedQuantization(
        QuantizationGrid(np.array([[0.0]])),
        np.array([4.0]),
        np.array([1.0]),
        winner_sq_dists=trace,
    )
    np.testing.assert_allclose(
        empirical_distortion_trace(result), [4.0, 3.0, 2.0, 2.0]
    )


@pytest.mark.parametrize(
    "counts, weights, trace, message",
    [
        ([1.5, 2.5], [0.5, 0.5], [1.0], "counts must be nonnegative integers"),
        ([1.0, 3.0], [1.5, -0.5], [1.0], "weights must be nonnegative"),
        ([1.0, 3.0], [0.5, 0.6], [1.0], "weights must sum to 1"),
        ([1.0, 3.0], [0.25, 0.75], [[1.0]], "winner_sq_dists must be a 1-d nonnegative array"),
    ],
    ids=["fractional-counts", "negative-weight", "off-simplex", "2-d-trace"],
)
def test_weighted_quantization_rejects_what_no_run_returns(counts, weights, trace, message):
    grid = QuantizationGrid(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match=message):
        WeightedQuantization(grid, np.array(counts), np.array(weights), np.array(trace))


def test_clvq_finds_each_winner_through_the_distance_kernel(monkeypatch):
    # After D² seeding's K-1 passes, each from the newest seed to its
    # 512-draw pool, the only
    # distances are the per-step winner searches: one kernel call of one
    # sample against all K centroids.
    shapes = []

    def counted(points, centroids):
        shapes.append((points.shape, centroids.shape))
        return squared_distances(points, centroids)

    monkeypatch.setattr(quantize, "squared_distances", counted)
    rng = np.random.default_rng(16)
    mu = DiscreteMeasure.uniform(rng.normal(size=(40, 3)))
    clvq(mu, 4, 25, 16)
    assert shapes == [((1, 3), (512, 3))] * 3 + [((1, 3), (4, 3))] * 25


def test_clvq_winner_update_is_convex_combination():
    # A single harmonic step, of size 1/11, moves only the winner.
    mu = DiscreteMeasure.uniform(np.arange(6.0)[:, None])
    result = clvq(mu, 2, 1, 14)
    rng = np.random.default_rng(14)
    init = init_grid(DiscreteMeasure.uniform(mu.draw(rng, 512)), 2, rng)
    sample = mu.draw(rng, 1)[0]
    win = int(np.argmin(squared_distances(sample[None, :], init.centroids)[0]))
    expected = init.centroids.copy()
    g = 1.0 / 11.0
    expected[win] = (1.0 - g) * expected[win] + g * sample
    np.testing.assert_allclose(result.grid.centroids, expected, rtol=1e-15)
    assert not np.array_equal(expected, init.centroids)


def _reference_loop(samples, x0):
    # The harmonic online loop fed a materialized sample array, step by step.
    x = x0.copy()
    k = x.shape[0]
    w, v, trace = np.full(k, 1.0 / k), np.zeros(k), []
    for i, s in enumerate(samples):
        d2 = squared_distances(s[None, :], x)[0]
        win = int(np.argmin(d2))
        trace.append(d2[win])
        v[win] += 1.0
        g = 1.0 / (10.0 + i + 1.0)
        x[win] = (1.0 - g) * x[win] + g * s
        w *= 1.0 - g
        w[win] += g
    return x, v, w, np.array(trace)


def test_clvq_streamed_from_a_measure_equals_a_loop_over_its_draws():
    rng = np.random.default_rng(41)
    mu = DiscreteMeasure.from_unnormalized(rng.normal(size=(60, 3)), rng.random(60))
    result = clvq(mu, 4, 500, 42)
    # The same generator state: the seeding pool, D² seeding, then one draw
    # of every sample.
    rng = np.random.default_rng(42)
    pool = DiscreteMeasure.uniform(mu.draw(rng, 512))
    init = init_grid(pool, 4, rng)
    x, v, w, trace = _reference_loop(mu.draw(rng, 500), init.centroids)
    np.testing.assert_array_equal(result.grid.centroids, x)
    np.testing.assert_array_equal(result.counts, v)
    np.testing.assert_array_equal(result.weights, w)
    np.testing.assert_array_equal(result.winner_sq_dists, trace)


def test_minibatch_kmeans_streamed_from_a_measure_equals_a_loop_over_its_draws():
    # At batch size 1 the count-reciprocal learner, streamed from a weighted
    # measure, matches a step-by-step loop over the same materialized draws.
    rng = np.random.default_rng(41)
    mu = DiscreteMeasure.from_unnormalized(rng.normal(size=(60, 3)), rng.random(60))
    result = minibatch_kmeans(mu, 4, 1, 500, 42)
    rng = np.random.default_rng(42)
    pool = DiscreteMeasure.uniform(mu.draw(rng, 512))
    x = init_grid(pool, 4, rng).centroids.copy()
    v, trace = np.zeros(4), []
    for s in mu.draw(rng, 500):
        d2 = squared_distances(s[None, :], x)[0]
        win = int(np.argmin(d2))
        trace.append(d2[win])
        v[win] += 1.0
        g = 1.0 / v[win]
        x[win] = (1.0 - g) * x[win] + g * s
    np.testing.assert_array_equal(result.grid.centroids, x)
    np.testing.assert_array_equal(result.counts, v)
    np.testing.assert_array_equal(result.weights, v / 500.0)
    np.testing.assert_array_equal(result.winner_sq_dists, np.array(trace))


def test_clvq_allocation_peak_does_not_grow_with_the_step_count():
    # Both online learners, harmonic and count-reciprocal, stream a measure.
    d = 256
    mu = DiscreteMeasure.uniform(np.random.default_rng(43).normal(size=(300, d)))

    def peak(learner, n_steps):
        tracemalloc.start()
        try:
            learner(n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for learner in (
        lambda n_steps: clvq(mu, 4, n_steps, 44),
        lambda n_steps: minibatch_kmeans(mu, 4, 1, n_steps, 44),
    ):
        assert peak(learner, 4000) - peak(learner, 200) < 4000 * d * 8 / 10
