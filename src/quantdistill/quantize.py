"""Weighted vector quantization: online competitive learning and Lloyd refinement.

The online learner processes one sample per step: the nearest centroid (the
winner) moves toward the sample by the current step size and a visit counter
records raw win totals. Under the harmonic schedule a companion weight vector
tracks each centroid's share of wins through the same averaging; under the
count-reciprocal schedule, which makes the loop classical mini-batch k-means,
the weights are the win shares ``counts / n_steps``.

Lloyd refinement is the batch counterpart: each centroid jumps to the weighted
mean of its cell until centroids stop moving. Empty cells are reseeded at the
currently worst-served atom, which never increases the distortion. A run
returns one ``LloydFit`` holding the final grid and the Voronoi partition that
scored it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCluster,
    InsufficientPoints,
    InvalidSchedule,
    QuantDistillError,
)
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
LLOYD_DEFAULT_TOL = 1e-10
LLOYD_DEFAULT_MAX_ITERATIONS = 500


def as_generator(seed) -> np.random.Generator:
    """Pass through a Generator, otherwise build one from the given seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule for the online learner.

    ``harmonic`` emits ``a / (b + i)`` at step ``i`` (counting from 1), so the
    first and largest step is ``a / (b + 1)``. ``count_reciprocal`` emits the
    reciprocal of the winner's visit count after incrementing it, so a
    centroid's first win moves it exactly onto the sample.
    """

    kind: str
    a: float = 1.0
    b: float = 10.0

    def __post_init__(self):
        if self.kind not in ("harmonic", "count_reciprocal"):
            raise InvalidSchedule(f"unknown schedule kind {self.kind!r}")
        if self.kind == "harmonic":
            if not (np.isfinite(self.a) and np.isfinite(self.b)):
                raise InvalidSchedule("schedule parameters must be finite")
            if self.a <= 0 or self.b < 0:
                raise InvalidSchedule("harmonic schedule needs a > 0 and b >= 0")
            if self.a > self.b + 1.0:
                raise InvalidSchedule(
                    f"harmonic schedule emits {self.a / (self.b + 1.0)!r} > 1 "
                    "at its first step"
                )

    @classmethod
    def harmonic(cls, a: float = 1.0, b: float = 10.0) -> "StepSchedule":
        return cls("harmonic", a, b)

    @classmethod
    def count_reciprocal(cls) -> "StepSchedule":
        return cls("count_reciprocal")

    def step(self, i: int) -> float:
        """Step size for 0-based step index ``i`` (harmonic only)."""
        if self.kind != "harmonic":
            raise InvalidSchedule(
                "count_reciprocal steps depend on visit counts, not the step index"
            )
        return self.a / (self.b + i + 1.0)


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
    """Result of an online quantization run.

    Attributes
    ----------
    grid : QuantizationGrid
        Final centroid positions.
    counts : ndarray, shape (K,)
        Raw win totals per centroid; they sum to the number of steps.
    weights : ndarray, shape (K,)
        Voronoi cell-mass estimates in the probability simplex: the running
        companion average under the harmonic schedule, ``counts / n_steps``
        under the count-reciprocal one (its per-centroid steps do not
        average the wins).
    winner_sq_dists : ndarray
        Per-step squared distance from the sample to the winner, measured
        before the winner moved.
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


def init_grid(
    mu: DiscreteMeasure,
    n_centroids: int,
    strategy: str = "dsquared",
    seed=None,
) -> QuantizationGrid:
    """Choose initial centroids among the atoms of a measure.

    Parameters
    ----------
    mu : DiscreteMeasure
        Seeding pool; ``clvq`` pools a sampler's own draws into one.
    n_centroids : int
        Number of centroids K.
    strategy : {"dsquared", "random_subset"}
        ``dsquared`` picks the first centroid by weight and each later one
        with probability proportional to weight times squared distance to the
        nearest chosen centroid, which spreads seeds across separated modes.
        Each pick is one inverse-CDF lookup; K-1 distance passes serve them.
        ``random_subset`` picks K distinct atoms uniformly.
    seed : int, SeedSequence, or Generator

    Raises
    ------
    InsufficientPoints
        If the measure holds fewer than K distinct points.
    """
    if n_centroids < 1:
        raise ValueError("n_centroids must be positive")
    rng = as_generator(seed)
    atoms, weights = mu.atoms, mu.weights
    if strategy == "dsquared":
        chosen = np.empty(n_centroids, dtype=np.intp)
        d2 = np.full(atoms.shape[0], np.inf)
        scores = weights
        for k in range(n_centroids):
            cdf = np.cumsum(scores)
            if cdf[-1] <= 0:
                raise InsufficientPoints(
                    f"only {k} distinct points available for {n_centroids} centroids"
                )
            chosen[k] = _inverse_cdf(cdf, rng.random() * cdf[-1])
            if k + 1 == n_centroids:
                break
            step = squared_distances(atoms, atoms[chosen[k]][None, :])[:, 0]
            np.minimum(d2, step, out=d2)
            scores = weights * d2
        return QuantizationGrid(atoms[chosen].copy())
    if strategy == "random_subset":
        distinct = np.unique(atoms, axis=0)
        if distinct.shape[0] < n_centroids:
            raise InsufficientPoints(
                f"only {distinct.shape[0]} distinct points available "
                f"for {n_centroids} centroids"
            )
        pick = rng.choice(distinct.shape[0], size=n_centroids, replace=False)
        return QuantizationGrid(distinct[np.sort(pick)].copy())
    raise ValueError(f"unknown init strategy {strategy!r}")


def _competitive_loop(samples, x0, schedule: StepSchedule):
    x = x0.copy()
    k = x.shape[0]
    w = np.full(k, 1.0 / k)
    v = np.zeros(k)
    n = samples.shape[0]
    trace = np.empty(n)
    harmonic = schedule.kind == "harmonic"
    for i in range(n):
        s = samples[i]
        d2 = squared_distances(s[None, :], x)[0]
        win = int(np.argmin(d2))
        trace[i] = d2[win]
        v[win] += 1.0
        g = schedule.step(i) if harmonic else 1.0 / v[win]
        x[win] = (1.0 - g) * x[win] + g * s
        if harmonic:
            w *= 1.0 - g
            w[win] += g
    return x, v, (w if harmonic else v / n), trace


def clvq(
    sampler,
    n_centroids: int,
    schedule: StepSchedule,
    n_steps: int,
    seed,
    *,
    init: QuantizationGrid | None = None,
    init_strategy: str = "dsquared",
) -> WeightedQuantization:
    """Online competitive learning with cell-mass weights.

    Each step draws one sample, finds the nearest centroid (ties to the
    lowest index), records that centroid's squared distance,
    then moves only the winner toward the sample by the schedule's step, so
    centroids never leave the convex hull of the initial grid and the
    samples. Harmonic steps refresh the companion weights by the same convex
    averaging; count-reciprocal runs report ``counts / n_steps`` instead.

    Parameters
    ----------
    sampler : object with ``dim`` and ``draw(rng, n)``
        Sample source, such as a ``DiscreteMeasure``.
    n_centroids : int
    schedule : StepSchedule
    n_steps : int
        Number of samples presented, at least 1.
    seed : int, SeedSequence, or Generator
        Drives initialization (when ``init`` is None) and the sample stream.
    init : QuantizationGrid, optional
        Starting grid; when omitted, ``init_grid`` seeds it from a uniform
        measure on ``max(512, 32 K)`` draws of the sampler (a measure too),
        from the same generator.

    Raises
    ------
    InvalidSchedule
        If ``schedule`` is not a ``StepSchedule``.
    DimensionError
        If ``init`` and the sampler disagree on dimension.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if not isinstance(schedule, StepSchedule):
        raise InvalidSchedule("schedule must be a StepSchedule")
    rng = as_generator(seed)
    if init is None:
        pool = DiscreteMeasure.uniform(sampler.draw(rng, max(512, 32 * n_centroids)))
        init = init_grid(pool, n_centroids, init_strategy, rng)
    _check_same_dim(init.dim, sampler.dim)
    if init.n_centroids != n_centroids:
        raise ValueError("init grid size must equal n_centroids")
    samples = sampler.draw(rng, n_steps)
    x, v, w, trace = _competitive_loop(samples, init.centroids, schedule)
    return WeightedQuantization(QuantizationGrid(x), v, w, trace)


def minibatch_kmeans(
    data: DiscreteMeasure,
    n_centroids: int,
    batch_size: int,
    n_iterations: int,
    seed,
    *,
    init_strategy: str = "dsquared",
) -> WeightedQuantization:
    """Mini-batch k-means with per-centroid count-reciprocal steps.

    The online learner under the count-reciprocal schedule, fed
    ``batch_size * n_iterations`` sequential weighted draws from ``data``, so
    its result equals a same-seed ``clvq`` run bit for bit, weights
    (``counts / n_steps``) included.
    """
    if batch_size < 1 or n_iterations < 1:
        raise ValueError("batch_size and n_iterations must be positive")
    return clvq(
        data,
        n_centroids,
        StepSchedule.count_reciprocal(),
        batch_size * n_iterations,
        seed,
        init_strategy=init_strategy,
    )


@dataclass(frozen=True)
class LloydFit:
    """Result of a Lloyd run.

    ``partition`` is the final grid's Voronoi partition, the pass that scored
    the last iteration. ``distortion_history[0]`` is the starting distortion
    and each later entry follows one update; the sequence never increases,
    and its last entry is ``distortion``. ``empty_cells_resolved`` counts
    reseeded centroids across all iterations.
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


def _worst_served_atom(atoms: np.ndarray, centroids: np.ndarray) -> int:
    """Index of the atom farthest from every centroid, ties to the lowest index.

    Raises
    ------
    InsufficientPoints
        If every atom already sits on a centroid.
    """
    _, nearest_sq = _nearest(atoms, centroids)
    worst = int(np.argmax(nearest_sq))
    if nearest_sq[worst] <= 0.0:
        raise InsufficientPoints(
            "cannot place another centroid: every atom already sits on a centroid"
        )
    return worst


def _augment_grid(
    atoms: np.ndarray, centroids: np.ndarray, extra: int
) -> np.ndarray | None:
    """Add ``extra`` centroids at the currently worst-served atoms.

    Returns None when the atoms run out before ``extra`` are placed.
    """
    grown = centroids
    for _ in range(extra):
        try:
            worst = _worst_served_atom(atoms, grown)
        except InsufficientPoints:
            return None
        grown = np.vstack([grown, atoms[worst]])
    return grown


def lloyd(mu: DiscreteMeasure, init: QuantizationGrid) -> LloydFit:
    """Batch centroid refinement to a fixed point of the cell-mean map.

    Repeats: assign atoms to nearest centroids, move each centroid to its
    cell's weighted mean. A centroid whose cell holds no mass is reseeded at
    the atom currently farthest from every centroid, which strictly helps
    that atom and costs nothing elsewhere, so the distortion never increases
    (checked every iteration). Stops when the largest centroid displacement
    is at most ``LLOYD_DEFAULT_TOL`` or after ``LLOYD_DEFAULT_MAX_ITERATIONS``.
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
            new_x[j] = atoms[_worst_served_atom(atoms, new_x)]
            resolved += 1
        displacement = float(np.sqrt(((new_x - x) ** 2).sum(axis=1).max()))
        x = new_x
        part = _partition(atoms, weights, x)
        if part.distortion > history[-1] + 1e-12 * (1.0 + history[-1]):
            raise QuantDistillError(
                f"Lloyd distortion rose from {history[-1]!r} to {part.distortion!r}"
            )
        history.append(part.distortion)
        if displacement <= LLOYD_DEFAULT_TOL:
            break
    converged = displacement <= LLOYD_DEFAULT_TOL
    return LloydFit(
        QuantizationGrid(x), part, len(history) - 1, converged, np.asarray(history), resolved
    )


def best_lloyd(mu: DiscreteMeasure, starts) -> LloydFit:
    """Refine every start with ``lloyd`` and return the fit of lowest distortion.

    Ties go to the earliest start, and an empty ``starts`` raises ValueError.
    """
    return min((lloyd(mu, start) for start in starts), key=lambda fit: fit.distortion)


def variance_reduced_weights(counts) -> np.ndarray:
    """Square-root reweighting of visit counts for training losses.

    Maps counts ``v`` over K centroids to ``sqrt(K * v / sum(v))``, so equal
    counts give all ones and rare centroids are damped less than
    proportionally. The output does not sum to 1.

    Raises
    ------
    EmptyCluster
        If any count is zero; the caller must decide how to handle a centroid
        that never won.
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.shape[0] < 1:
        raise ValueError("counts must be a nonempty 1-d array")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if np.any(counts == 0):
        raise EmptyCluster("a centroid with zero visits has no defined reweighting")
    k = counts.shape[0]
    return np.sqrt(k * counts / counts.sum())


def empirical_distortion_trace(result: WeightedQuantization) -> np.ndarray:
    """Running mean of the recorded per-step winner squared distances.

    Entry t is the average of the first t+1 recorded values.
    """
    trace = result.winner_sq_dists
    return np.cumsum(trace) / np.arange(1, trace.shape[0] + 1)
