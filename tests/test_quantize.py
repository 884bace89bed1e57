"""Tests for samplers, online competitive learning, and Lloyd refinement."""

import dataclasses

import numpy as np
import pytest

from quantdistill import measures, quantize
from quantdistill.errors import (
    DimensionError,
    EmptyCluster,
    InsufficientPoints,
    InvalidSchedule,
    QuantDistillError,
)
from quantdistill.measures import (
    DiscreteMeasure,
    QuantizationGrid,
    quadratic_distortion,
    squared_distances,
    voronoi_partition,
)
from quantdistill.pipeline import class_subseed, demo_dataset, distill
from quantdistill.quantize import (
    GaussianMixtureSampler,
    StepSchedule,
    UniformCubeSampler,
    WeightedQuantization,
    best_lloyd,
    clvq,
    empirical_distortion_trace,
    init_grid,
    lloyd,
    minibatch_kmeans,
    variance_reduced_weights,
)


def test_harmonic_schedule_values():
    schedule = StepSchedule.harmonic(1.0, 10.0)
    np.testing.assert_allclose(schedule.step(0), 1.0 / 11.0)
    np.testing.assert_allclose(schedule.step(4), 1.0 / 15.0)


@pytest.mark.parametrize(
    "a,b",
    [(0.0, 10.0), (-1.0, 10.0), (1.0, -0.5), (2.5, 1.0), (np.inf, 1.0)],
)
def test_harmonic_schedule_rejects_bad_parameters(a, b):
    with pytest.raises(InvalidSchedule):
        StepSchedule.harmonic(a, b)


def test_count_reciprocal_has_no_indexed_step():
    schedule = StepSchedule.count_reciprocal()
    with pytest.raises(InvalidSchedule):
        schedule.step(0)


def test_unknown_schedule_kind():
    with pytest.raises(InvalidSchedule):
        StepSchedule("geometric")


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


def test_init_grid_random_subset_picks_data_points():
    rng = np.random.default_rng(6)
    atoms = rng.normal(size=(30, 2))
    mu = DiscreteMeasure.uniform(atoms)
    grid = init_grid(mu, 5, "random_subset", rng)
    rounded = {tuple(row) for row in atoms}
    assert all(tuple(row) in rounded for row in grid.centroids)


def test_init_grid_dsquared_spreads_over_modes():
    # Two tight far-apart clusters: spread seeding must claim both.
    rng = np.random.default_rng(7)
    atoms = np.vstack(
        [rng.normal(size=(50, 1)) * 0.01, 100.0 + rng.normal(size=(50, 1)) * 0.01]
    )
    mu = DiscreteMeasure.uniform(atoms)
    grid = init_grid(mu, 2, "dsquared", rng)
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
    assert init_grid(mu, k, "dsquared", 19).n_centroids == k
    assert len(calls) == k - 1


def test_init_grid_insufficient_distinct_points():
    mu = DiscreteMeasure.uniform(np.array([[1.0], [1.0], [1.0]]))
    with pytest.raises(InsufficientPoints):
        init_grid(mu, 2, "dsquared", 0)
    with pytest.raises(InsufficientPoints):
        init_grid(mu, 2, "random_subset", 0)


def test_clvq_single_centroid_count_schedule_is_exact_mean():
    # With K=1 every sample wins and 1/v steps reproduce the running mean.
    sampler = UniformCubeSampler(2)
    result = clvq(sampler, 1, StepSchedule.count_reciprocal(), 500, 8)
    rng = np.random.default_rng(8)
    init = init_grid(DiscreteMeasure.uniform(sampler.draw(rng, 512)), 1, "dsquared", rng)
    samples = sampler.draw(rng, 500)
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
    seeded = clvq(mu, 3, StepSchedule.harmonic(), 200, 18)
    rng = np.random.default_rng(18)
    init = init_grid(DiscreteMeasure.uniform(mu.draw(rng, 512)), 3, "dsquared", rng)
    given = clvq(mu, 3, StepSchedule.harmonic(), 200, rng, init=init)
    for field in dataclasses.fields(seeded):
        ours, theirs = getattr(seeded, field.name), getattr(given, field.name)
        if field.name == "grid":
            ours, theirs = ours.centroids, theirs.centroids
        np.testing.assert_array_equal(ours, theirs, err_msg=field.name)


def test_clvq_counts_sum_to_steps_and_weights_to_one():
    sampler = UniformCubeSampler(1)
    result = clvq(sampler, 4, StepSchedule.harmonic(), 3000, 9)
    assert result.counts.sum() == 3000.0
    np.testing.assert_allclose(result.weights.sum(), 1.0, atol=1e-9)


def test_clvq_rejects_bad_arguments():
    sampler = UniformCubeSampler(1)
    with pytest.raises(ValueError):
        clvq(sampler, 2, StepSchedule.harmonic(), 0, 0)
    with pytest.raises(InvalidSchedule):
        clvq(sampler, 2, "harmonic", 10, 0)
    init = QuantizationGrid(np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(DimensionError):
        clvq(sampler, 2, StepSchedule.harmonic(), 10, 0, init=init)


def test_minibatch_kmeans_matches_online_run():
    rng = np.random.default_rng(10)
    data = DiscreteMeasure.uniform(rng.normal(size=(200, 2)))
    online = clvq(data, 3, StepSchedule.count_reciprocal(), 600, 11)
    batch = minibatch_kmeans(data, 3, 60, 10, 11)
    np.testing.assert_array_equal(online.grid.centroids, batch.grid.centroids)
    np.testing.assert_array_equal(online.counts, batch.counts)
    np.testing.assert_array_equal(online.weights, batch.weights)
    np.testing.assert_allclose(batch.weights, batch.counts / 600.0)


def test_count_reciprocal_weights_are_win_shares():
    # Per-centroid steps do not average the wins, so the reported weights
    # are the win shares, which recover a 70/30 split.
    sampler = GaussianMixtureSampler([[-3.0], [3.0]], [0.01, 0.01], [0.7, 0.3])
    result = clvq(sampler, 2, StepSchedule.count_reciprocal(), 4000, 0)
    np.testing.assert_array_equal(result.weights, result.counts / 4000)
    assert abs(result.weights[np.argmin(result.grid.centroids[:, 0])] - 0.7) < 0.03


@pytest.mark.parametrize("schedule", ["count_reciprocal", "harmonic"])
def test_distill_class_equals_direct_clvq_run(schedule):
    points, labels = demo_dataset(3, n_per_class=60, n_classes=2)
    result = distill(points, labels, 4, 7, schedule=schedule, batch_size=8, n_iterations=25)
    for cls in result.classes:
        direct = clvq(
            DiscreteMeasure.uniform(points[labels == cls.label]),
            4,
            StepSchedule(schedule),
            200,
            class_subseed(7, cls.label),
        )
        np.testing.assert_array_equal(cls.centroids, direct.grid.centroids)
        np.testing.assert_array_equal(cls.counts, direct.counts)
        np.testing.assert_array_equal(cls.weights, direct.weights)


@pytest.mark.parametrize("schedule", ["count_reciprocal", "harmonic"])
@pytest.mark.parametrize("batch_size,n_iterations", [(-2, -100), (0, 10), (10, 0)])
def test_distill_rejects_nonpositive_batch_settings(schedule, batch_size, n_iterations):
    points, labels = demo_dataset(3, n_per_class=20, n_classes=2)
    with pytest.raises(ValueError, match="batch_size and n_iterations"):
        distill(
            points,
            labels,
            2,
            0,
            schedule=schedule,
            batch_size=batch_size,
            n_iterations=n_iterations,
        )


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
    assert len(calls) == 1 + fit.n_iterations + fit.empty_cells_resolved


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
    starts = [init_grid(mu, 5, "random_subset", rng) for _ in range(4)]
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


def test_worst_served_atom_needs_an_uncovered_atom():
    atoms = np.array([[0.0], [1.0], [3.0]])
    assert quantize._worst_served_atom(atoms, np.array([[0.0], [1.0]])) == 2
    with pytest.raises(InsufficientPoints):
        quantize._worst_served_atom(atoms, atoms)


def test_variance_reduced_weights_formula():
    counts = np.array([10.0, 30.0, 60.0])
    out = variance_reduced_weights(counts)
    np.testing.assert_allclose(out, np.sqrt(3.0 * counts / 100.0))
    np.testing.assert_allclose(
        variance_reduced_weights(np.array([7.0, 7.0])), [1.0, 1.0]
    )
    with pytest.raises(EmptyCluster):
        variance_reduced_weights(np.array([3.0, 0.0]))


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


def test_clvq_finds_each_winner_through_the_distance_kernel(monkeypatch):
    # With a given start grid the only distances are the per-step winner
    # searches: one kernel call of one sample against all K centroids.
    shapes = []

    def counted(points, centroids):
        shapes.append((points.shape, centroids.shape))
        return squared_distances(points, centroids)

    monkeypatch.setattr(quantize, "squared_distances", counted)
    rng = np.random.default_rng(16)
    mu = DiscreteMeasure.uniform(rng.normal(size=(40, 3)))
    init = QuantizationGrid(rng.normal(size=(4, 3)))
    clvq(mu, 4, StepSchedule.harmonic(1.0, 1.0), 25, 16, init=init)
    assert shapes == [((1, 3), (4, 3))] * 25


def test_clvq_winner_update_is_convex_combination():
    # A single harmonic step from a known grid moves only the winner.
    mu = DiscreteMeasure.uniform(np.array([[0.0], [10.0]]))
    init = QuantizationGrid(np.array([[1.0], [9.0]]))
    result = clvq(mu, 2, StepSchedule.harmonic(1.0, 1.0), 1, 14, init=init)
    rng = np.random.default_rng(14)
    sample = mu.draw(rng, 1)[0]
    win = int(np.argmin(squared_distances(sample[None, :], init.centroids)[0]))
    expected = init.centroids.copy()
    expected[win] = 0.5 * expected[win] + 0.5 * sample
    np.testing.assert_allclose(result.grid.centroids, expected, rtol=1e-15)
