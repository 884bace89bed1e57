"""Weighted vector quantization: online competitive learning, mini-batch
k-means and Lloyd refinement.

The online learner, ``clvq``, is Pagès' CLVQ: it processes one sample per
step, the nearest centroid (the winner) moves toward the sample by the fixed
step ``1 / (10 + n)`` at step n (the a/(b+n) rule at a = 1, b = 10), and a
companion weight vector tracks each centroid's share of wins through the same
averaging, next to raw win totals.

Mini-batch k-means (Sculley 2010) takes the same seeding and samples a batch
at a time: one distance pass assigns the batch against the centroids frozen
at its start, and one one-hot matmul sums each cell, so each centroid makes
all its count-reciprocal steps (``1 / visits`` after each win) of the batch
at once. At batch size 1 it is the online count-reciprocal learner, whose
weights are the win shares. It is what ``pipeline.distill`` runs on each
class. Both learners seed their starting grid by D² sampling
(``init_grid``) from their own draws.

Lloyd refinement is the batch counterpart: each centroid jumps to the weighted
mean of its cell until centroids stop moving. Empty cells are reseeded at the
currently worst-served atom, which never increases the distortion. A run
returns one ``LloydFit`` holding the final grid and the Voronoi partition that
scored it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, QuantDistillError
from .measures import (
    DiscreteMeasure,
    QuantizationGrid,
    VoronoiPartition,
    _check_same_dim,
    _inverse_cdf,
    _nearest,
    _partition,
    squared_distances,
)

RESULT_WEIGHT_TOL = 1e-9
LLOYD_DEFAULT_MAX_ITERATIONS = 500


def as_generator(seed) -> np.random.Generator:
    """Pass through a Generator, otherwise build one from the given seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class GaussianMixtureSampler:
    """Draws from a mixture of isotropic Gaussians.

    ``components`` is the measure on the means with the mixture weights; a
    draw takes its component indices from it, then the noise.

    Parameters
    ----------
    means : ndarray, shape (m, d)
    variances : ndarray, shape (m,)
        Per-component isotropic variances, all positive and finite.
    weights : ndarray, shape (m,)
        Mixture weights, nonnegative with positive finite total, normalized here.
    """

    def __init__(self, means, variances, weights):
        self.components = DiscreteMeasure.from_unnormalized(means, weights)
        v = self.variances = np.ascontiguousarray(variances, dtype=np.float64)
        if v.shape != (self.components.n_atoms,) or not np.all(np.isfinite(v) & (v > 0)):
            raise ValueError("variances must be positive and finite, one per component")

    @property
    def dim(self) -> int:
        return self.components.dim

    @property
    def mean(self) -> np.ndarray:
        return self.components.weights @ self.components.atoms

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = self.components.draw_indices(rng, n)
        noise = rng.standard_normal((n, self.dim))
        return self.components.atoms[comp] + np.sqrt(self.variances[comp])[:, None] * noise


class UniformCubeSampler:
    """Draws uniformly from the unit cube [0, 1)^d."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be positive")
        return rng.random((n, self._dim))


@dataclass(frozen=True)
class WeightedQuantization:
    """Result of an online or mini-batch quantization run.

    Attributes
    ----------
    grid : QuantizationGrid
        Final centroid positions.
    counts : ndarray, shape (K,)
        Raw win totals per centroid; they sum to the number of samples.
    weights : ndarray, shape (K,)
        Voronoi cell-mass estimates in the probability simplex: the running
        companion average in ``clvq``, the win shares ``counts / n_steps``
        in ``minibatch_kmeans`` (its per-centroid steps do not average the
        wins).
    winner_sq_dists : ndarray
        Per-sample squared distance from the sample to its winner, measured
        before the winner moved: against the grid at the sample's own step
        online, and against the grid at its batch's start in mini-batch
        k-means.
    """

    grid: QuantizationGrid
    counts: np.ndarray
    weights: np.ndarray
    winner_sq_dists: np.ndarray

    def __post_init__(self):
        k = self.grid.n_centroids
        counts = np.ascontiguousarray(self.counts, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if counts.shape != (k,) or np.any(counts < 0) or np.any(counts != np.round(counts)):
            raise ValueError("counts must be nonnegative integers, one per centroid")
        if weights.shape != (k,) or np.any(weights < 0):
            raise ValueError("weights must be nonnegative, one per centroid")
        if abs(float(weights.sum()) - 1.0) > RESULT_WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {RESULT_WEIGHT_TOL}")
        trace = np.ascontiguousarray(self.winner_sq_dists, dtype=np.float64)
        if trace.ndim != 1 or np.any(trace < 0):
            raise ValueError("winner_sq_dists must be a 1-d nonnegative array")
        object.__setattr__(self, "winner_sq_dists", trace)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weights", weights)


def init_grid(mu: DiscreteMeasure, n_centroids: int, seed) -> QuantizationGrid:
    """Choose initial centroids among the atoms of a measure by D² seeding.

    The first centroid is picked by weight and each later one with
    probability proportional to weight times squared distance to the nearest
    chosen centroid (Arthur & Vassilvitskii, *k-means++*, 2007), which
    spreads seeds across separated modes. Each pick is one inverse-CDF
    lookup; K-1 distance passes serve them, each one (1, n) row from the
    newest centroid to every atom.

    Parameters
    ----------
    mu : DiscreteMeasure
        Seeding pool; ``clvq`` pools a sampler's own draws into one.
    n_centroids : int
        Number of centroids K.
    seed : int, SeedSequence, or Generator

    Raises
    ------
    InsufficientPoints
        If the measure holds fewer than K distinct points.
    QuantDistillError
        If squared distances between atoms overflow float64, so that no
        later pick could be weighted by them.
    """
    if n_centroids < 1:
        raise ValueError("n_centroids must be positive")
    rng = as_generator(seed)
    atoms, weights = mu.atoms, mu.weights
    chosen = np.empty(n_centroids, dtype=np.intp)
    d2 = np.full(atoms.shape[0], np.inf)
    scores = weights
    for k in range(n_centroids):
        cdf = np.cumsum(scores)
        if not np.isfinite(cdf[-1]):
            raise QuantDistillError("squared distances between points overflow float64")
        if cdf[-1] <= 0:
            raise InsufficientPoints(
                f"only {k} distinct points available for {n_centroids} centroids"
            )
        chosen[k] = _inverse_cdf(cdf, rng.random() * cdf[-1])
        if k + 1 == n_centroids:
            break
        step = squared_distances(atoms[chosen[k]][None, :], atoms)[0]
        np.minimum(d2, step, out=d2)
        scores = weights * d2
    return QuantizationGrid(atoms[chosen].copy())


def _seed_and_stream(sampler, n_centroids, n_steps, rng):
    """Starting grid and sample stream ``(rows, order)`` of a competitive run.

    ``init_grid`` seeds from a uniform measure on ``max(512, 32 K)`` draws
    of the sampler. The stream follows from the same generator: a
    ``DiscreteMeasure`` gives its atoms and one ``draw_indices(rng, n_steps)``
    call, any other sampler its ``draw(rng, n_steps)`` rows in order. Sample
    ``i`` is ``rows[order[i]]``.
    """
    pool = DiscreteMeasure.uniform(sampler.draw(rng, max(512, 32 * n_centroids)))
    init = init_grid(pool, n_centroids, rng)
    if isinstance(sampler, DiscreteMeasure):
        return init, sampler.atoms, sampler.draw_indices(rng, n_steps)
    return init, sampler.draw(rng, n_steps), np.arange(n_steps)


def _competitive_loop(rows, order, x0):
    x = x0.copy()
    k = x.shape[0]
    w = np.full(k, 1.0 / k)
    v = np.zeros(k)
    trace = np.empty(order.shape[0])
    for i in range(order.shape[0]):
        s = rows[order[i]]
        d2 = squared_distances(s[None, :], x)[0]
        win = int(np.argmin(d2))
        trace[i] = d2[win]
        v[win] += 1.0
        g = 1.0 / (10.0 + i + 1.0)
        x[win] = (1.0 - g) * x[win] + g * s
        w *= 1.0 - g
        w[win] += g
    return x, v, w, trace


def _minibatch_loop(rows, order, x0, batch_size: int):
    x = x0.copy()
    cells = np.arange(x.shape[0])[:, None]
    v = np.zeros(x.shape[0])
    trace = np.empty(order.shape[0])
    for start in range(0, order.shape[0], batch_size):
        batch = rows[order[start:start + batch_size]]
        win, trace[start:start + batch_size] = _nearest(batch, x)
        # Cell sums by one matmul with a 0/1 matrix: np.add.at is far slower.
        onehot = (cells == win).astype(np.float64)
        n = onehot.sum(axis=1)
        won = np.flatnonzero(n)
        v[won] += n[won]
        g = (n[won] / v[won])[:, None]
        x[won] = (1.0 - g) * x[won] + g * ((onehot[won] @ batch) / n[won][:, None])
    return x, v, trace


def clvq(sampler, n_centroids: int, n_steps: int, seed) -> WeightedQuantization:
    """Online competitive learning with companion cell-mass weights (CLVQ).

    ``init_grid`` seeds the starting grid from a uniform measure on
    ``max(512, 32 K)`` draws of the sampler (a measure too), from the same
    generator. Each step ``n`` (counting from 1) then draws one sample, finds
    the nearest centroid (ties to the lowest index), records that centroid's
    squared distance, then moves only the winner toward the sample by the
    step ``1 / (10 + n)``, so centroids never leave the convex hull of the
    initial grid and the samples. The companion weights start uniform and
    take the same convex averaging toward the winner's indicator, so they
    estimate the cell masses.

    A ``DiscreteMeasure`` streams its samples: the run draws ``n_steps``
    atom indices at once and reads one atom per step, so its memory does not
    grow with ``n_steps`` beyond the indices. Any other sampler draws all
    ``n_steps`` samples at once. Either way the samples are those of
    ``sampler.draw(rng, n_steps)``, bit for bit.

    Parameters
    ----------
    sampler : object with ``dim`` and ``draw(rng, n)``
        Sample source, such as a ``DiscreteMeasure``.
    n_centroids : int
    n_steps : int
        Number of samples presented, at least 1.
    seed : int, SeedSequence, or Generator
        Drives the seeding and the sample stream.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    init, rows, order = _seed_and_stream(sampler, n_centroids, n_steps, as_generator(seed))
    x, v, w, trace = _competitive_loop(rows, order, init.centroids)
    return WeightedQuantization(QuantizationGrid(x), v, w, trace)


def minibatch_kmeans(
    data: DiscreteMeasure,
    n_centroids: int,
    batch_size: int,
    n_iterations: int,
    seed,
) -> WeightedQuantization:
    """Mini-batch k-means (Sculley, *Web-scale k-means clustering*, 2010).

    Seeds and draws exactly as ``clvq`` does from the same seed, then takes
    the ``batch_size * n_iterations`` weighted draws from ``data`` in
    ``n_iterations`` batches. Each batch is assigned to the centroids as they
    stood at its start (ties to the lowest index). Every centroid j that won
    ``n_j > 0`` samples of the batch adds them to its count ``v_j`` and moves
    to ``(1 - g) x_j + g * mean_j`` with ``g = n_j / v_j``, where ``mean_j``
    is the mean of its won samples: the result of Sculley's per-sample
    count-reciprocal steps (``1 / v_j`` after each win) toward those
    samples. At batch size 1 this is the online count-reciprocal learner,
    one sample per step, which D4M runs. ``counts`` are the ``v_j``, the
    weights the win shares ``counts / n_steps``, and ``winner_sq_dists``
    holds one entry per sample, measured against its batch's start grid.
    """
    if batch_size < 1 or n_iterations < 1:
        raise ValueError("batch_size and n_iterations must be positive")
    n_steps = batch_size * n_iterations
    init, rows, order = _seed_and_stream(data, n_centroids, n_steps, as_generator(seed))
    x, v, trace = _minibatch_loop(rows, order, init.centroids, batch_size)
    return WeightedQuantization(QuantizationGrid(x), v, v / n_steps, trace)


@dataclass(frozen=True)
class LloydFit:
    """Result of a Lloyd run.

    ``partition`` is the final grid's Voronoi partition, the pass that scored
    the last iteration. ``distortion_history[0]`` is the starting distortion
    and each later entry follows one update; the sequence never increases,
    and its last entry is ``distortion``. ``converged`` says the run reached
    a fixed point: its last update reproduced every centroid bit for bit.
    ``empty_cells_resolved`` counts reseeded centroids across all iterations.
    """

    grid: QuantizationGrid
    partition: VoronoiPartition
    n_iterations: int
    converged: bool
    distortion_history: np.ndarray
    empty_cells_resolved: int

    @property
    def distortion(self) -> float:
        return self.partition.distortion


def _augment_grid(
    atoms: np.ndarray, centroids: np.ndarray, count: int
) -> np.ndarray | None:
    """Append ``count`` centroids, each at the atom farthest from the grid so far.

    Ties go to the lowest index. One nearest pass, then each pick but the
    last lowers the nearest squared distances by its own row of distances;
    a minimum is exact in any order, so each pick is the one a full pass
    would make. Returns None when the atoms run out before ``count`` picks.
    """
    _, nearest_sq = _nearest(atoms, centroids)
    picks = []
    for i in range(count):
        worst = int(np.argmax(nearest_sq))
        if nearest_sq[worst] <= 0.0:
            return None
        picks.append(worst)
        if i + 1 < count:
            np.minimum(nearest_sq, squared_distances(atoms[worst][None, :], atoms)[0], out=nearest_sq)
    return np.vstack([centroids, atoms[picks]])


def lloyd(mu: DiscreteMeasure, init: QuantizationGrid) -> LloydFit:
    """Batch centroid refinement to a fixed point of the cell-mean map.

    Repeats: assign atoms to nearest centroids, move each centroid to its
    cell's weighted mean. A centroid whose cell holds no mass is reseeded at
    the atom currently farthest from every centroid, which strictly helps
    that atom and costs nothing elsewhere, so the distortion never increases
    (checked every iteration). Each Voronoi pass is warm-started from the
    previous assignment, which changes its cost, never its result.

    The run converges when an update reproduces every centroid bit for bit:
    the next pass would repeat the last one, so it appends the same
    distortion and stops without it. Otherwise it stops unconverged after
    ``LLOYD_DEFAULT_MAX_ITERATIONS`` updates. A cell that empties while every
    atom sits on a centroid raises ``InsufficientPoints``.
    """
    _check_same_dim(mu.dim, init.dim)
    atoms, weights = mu.atoms, mu.weights
    x = init.centroids.copy()
    # The partition that scores the current centroids also holds the cell
    # means of the next update, so each iteration makes one Voronoi pass.
    part = _partition(atoms, weights, x)
    history = [part.distortion]
    resolved = 0
    for _ in range(LLOYD_DEFAULT_MAX_ITERATIONS):
        nonempty = part.cell_mass > 0
        new_x = np.where(nonempty[:, None], part.cell_centroid, x)
        for j in np.flatnonzero(~nonempty):
            grown = _augment_grid(atoms, new_x, 1)
            if grown is None:
                raise InsufficientPoints(
                    "cannot place another centroid: every atom already sits on a centroid"
                )
            new_x[j] = grown[-1]
            resolved += 1
        converged = np.array_equal(new_x, x)
        x = new_x
        if converged:
            # Equal values give equal distances, so the same partition.
            history.append(history[-1])
            break
        part = _partition(atoms, weights, x, part.assignment)
        if part.distortion > history[-1] + 1e-12 * (1.0 + history[-1]):
            raise QuantDistillError(
                f"Lloyd distortion rose from {history[-1]!r} to {part.distortion!r}"
            )
        history.append(part.distortion)
    return LloydFit(
        QuantizationGrid(x), part, len(history) - 1, converged, np.asarray(history), resolved
    )


def best_lloyd(mu: DiscreteMeasure, starts) -> LloydFit:
    """Refine every start with ``lloyd`` and return the fit of lowest distortion.

    Ties go to the earliest start, and an empty ``starts`` raises ValueError.
    """
    return min((lloyd(mu, start) for start in starts), key=lambda fit: fit.distortion)


def empirical_distortion_trace(result: WeightedQuantization) -> np.ndarray:
    """Running mean of the recorded per-step winner squared distances.

    Entry t is the average of the first t+1 recorded values.
    """
    trace = result.winner_sq_dists
    return np.cumsum(trace) / np.arange(1, trace.shape[0] + 1)
