"""Exact Wasserstein-2 distances between discrete measures.

The squared distance is the optimal value of the transport linear program
with squared Euclidean costs, solved exactly with a dual-simplex method:
deterministic pivoting, a basic optimal plan with at most m+n-1 flows, and
dual multipliers certifying optimality. Against a grid's nearest-centroid
projection the optimal plan is the projection itself, so the square root of
the quadratic distortion equals that Wasserstein distance; both routes are
exposed and checked against each other in the verification suite. Between
two uniform measures of equal size some optimal plan is a permutation (the
vertices of the Birkhoff polytope), so ``w2`` solves that case as an
assignment problem instead of the linear program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import SolverFailure
from .measures import (
    DiscreteMeasure,
    QuantizationGrid,
    _check_same_dim,
    project_to_grid,
    quadratic_distortion,
    squared_distances,
)
from .quantize import _augment_grid, as_generator, best_lloyd, init_grid


@dataclass(frozen=True)
class TransportPlan:
    """A sparse coupling between two discrete measures.

    Flows are triples ``(source_index[i], target_index[i], mass[i])`` with
    positive masses; ``cost`` is the mass-weighted total squared distance,
    recomputed from the flows. ``dual_source`` and ``dual_target`` are the
    equality multipliers returned by the solver; their inner product with the
    marginals equals the cost at an exact optimum.
    """

    n_source: int
    n_target: int
    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost: float
    dual_source: np.ndarray
    dual_target: np.ndarray

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column sums of the plan."""
        a = np.bincount(self.source_index, weights=self.mass, minlength=self.n_source)
        b = np.bincount(self.target_index, weights=self.mass, minlength=self.n_target)
        return a, b

    def as_matrix(self) -> np.ndarray:
        """Dense (n_source, n_target) coupling matrix."""
        dense = np.zeros((self.n_source, self.n_target))
        dense[self.source_index, self.target_index] = self.mass
        return dense


def _transport_lp(cost_matrix: np.ndarray, a: np.ndarray, b: np.ndarray):
    m, n = cost_matrix.shape
    k = np.arange(m * n)
    rows = np.concatenate([k // n, m + (k % n)])
    cols = np.concatenate([k, k])
    eq = sparse.csr_matrix(
        (np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n)
    )
    res = linprog(
        cost_matrix.ravel(),
        A_eq=eq,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status != 0:
        raise SolverFailure(f"transport solve failed: {res.message}")
    return res


def w2_discrete(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[float, TransportPlan]:
    """Exact Wasserstein-2 distance and an optimal coupling.

    Returns
    -------
    (w2, plan)
        ``w2`` is the square root of the optimal transport cost under
        squared Euclidean distances. The plan is a basic optimal solution:
        at most m+n-1 positive flows. After solving, the total plan mass is
        repaired to exactly 1 by adjusting the single largest flow, keeping
        the marginals feasible to well below 1e-9.

    Raises
    ------
    DimensionError
        If the measures live in different dimensions.
    SolverFailure
        If the linear program does not reach an optimum.
    """
    _check_same_dim(mu.dim, nu.dim)
    m, n = mu.n_atoms, nu.n_atoms
    cost_matrix = squared_distances(mu.atoms, nu.atoms)
    res = _transport_lp(cost_matrix, mu.weights, nu.weights)
    flow = np.maximum(res.x, 0.0)
    flow[np.argmax(flow)] += 1.0 - flow.sum()
    keep = np.flatnonzero(flow > 0.0)
    source = keep // n
    target = keep % n
    mass = flow[keep]
    cost = float(np.dot(mass, cost_matrix[source, target]))
    duals = np.asarray(res.eqlin.marginals, dtype=np.float64)
    plan = TransportPlan(
        n_source=m,
        n_target=n,
        source_index=source.astype(np.intp),
        target_index=target.astype(np.intp),
        mass=mass,
        cost=cost,
        dual_source=duals[:m].copy(),
        dual_target=duals[m:].copy(),
    )
    return float(np.sqrt(cost)), plan


def _is_uniform(weights: np.ndarray) -> bool:
    return bool(np.all(weights == weights[0]))


def w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact Wasserstein-2 distance, without a plan.

    When both measures hold the same number of atoms and each weighs its
    atoms equally, an optimal plan is a permutation, found by
    ``linear_sum_assignment`` on the squared distances; the value is the
    root of the mean assigned cost. Otherwise the value is
    ``w2_discrete``'s. Use ``w2_discrete`` for the plan and its duals.

    Raises
    ------
    DimensionError
        If the measures live in different dimensions.
    SolverFailure
        If the linear program does not reach an optimum.
    """
    _check_same_dim(mu.dim, nu.dim)
    if mu.n_atoms == nu.n_atoms and _is_uniform(mu.weights) and _is_uniform(nu.weights):
        cost = squared_distances(mu.atoms, nu.atoms)
        rows, cols = linear_sum_assignment(cost)
        return float(np.sqrt(cost[rows, cols].mean()))
    return w2_discrete(mu, nu)[0]


def w2_to_grid(mu: DiscreteMeasure, grid: QuantizationGrid) -> float:
    """Wasserstein-2 distance from ``mu`` to its nearest-centroid projection.

    Equal to the square root of the quadratic distortion: projecting each
    atom to its nearest centroid is an optimal coupling against the
    projected measure.
    """
    return float(np.sqrt(quadratic_distortion(mu, grid)))


@dataclass(frozen=True)
class WeightingComparison:
    """Wasserstein gains from mass-aware grid weights.

    ``weighted_w2`` uses Voronoi cell masses on the centroids, ``uniform_w2``
    spreads mass equally; ``reduction_fraction`` is the relative improvement
    ``1 - weighted_w2 / uniform_w2`` (zero when the uniform distance is 0).
    """

    weighted_w2: float
    uniform_w2: float
    reduction_fraction: float


def compare_weighting(
    mu: DiscreteMeasure, grid: QuantizationGrid
) -> WeightingComparison:
    """Compare cell-mass weights against uniform weights on a fixed grid.

    Among all measures supported on the grid, the nearest-centroid projection
    minimizes the Wasserstein-2 distance to ``mu``, so the weighted distance
    never exceeds the uniform one.
    """
    if grid.n_centroids > mu.n_atoms:
        raise ValueError("grid must not have more centroids than the measure has atoms")
    projected = project_to_grid(mu, grid)
    uniform = DiscreteMeasure.uniform(grid.centroids.copy())
    weighted_w2, _ = w2_discrete(projected, mu)
    uniform_w2, _ = w2_discrete(uniform, mu)
    if uniform_w2 > 0.0:
        reduction = 1.0 - weighted_w2 / uniform_w2
    else:
        reduction = 0.0
    return WeightingComparison(weighted_w2, uniform_w2, reduction)


@dataclass(frozen=True)
class RateScanResult:
    """Quantization error versus grid size and the fitted log-log slope."""

    levels: np.ndarray
    errors: np.ndarray
    fitted_slope: float


def rate_scan(
    sampler,
    levels,
    n_samples: int,
    seed,
    *,
    n_restarts: int = 5,
) -> RateScanResult:
    """Measure how quantization error decays as the grid grows.

    Draws one sample cloud from ``sampler``, then for each level K (strictly
    increasing) fits the best grid among ``n_restarts`` spread-seeded Lloyd
    runs plus one run seeded from the previous level's winner augmented with
    the worst-served atoms. The augmented candidate guarantees the error
    sequence never increases. ``errors`` are root quantization errors and
    ``fitted_slope`` is the least-squares slope of log error against log K.
    """
    levels = np.asarray(levels, dtype=np.intp)
    if levels.ndim != 1 or levels.shape[0] < 2:
        raise ValueError("levels must contain at least two grid sizes")
    if np.any(levels < 1) or np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing and positive")
    if n_samples < int(levels[-1]):
        raise ValueError("need at least as many samples as the largest level")
    if n_restarts < 1:
        raise ValueError("n_restarts must be positive")
    rng = as_generator(seed)
    mu = DiscreteMeasure.uniform(sampler.draw(rng, n_samples))
    errors = np.empty(levels.shape[0])
    best = None
    for li, k in enumerate(levels):
        candidates = [init_grid(mu, int(k), rng) for _ in range(n_restarts)]
        if best is not None:
            grown = _augment_grid(mu.atoms, best.grid.centroids, int(k) - best.grid.n_centroids)
            if grown is not None:
                candidates.append(QuantizationGrid(grown))
        best = best_lloyd(mu, candidates)
        errors[li] = np.sqrt(best.distortion)
    if np.any(errors <= 0.0):
        raise ValueError("zero quantization error; slope is undefined at this scale")
    slope = float(np.polyfit(np.log(levels.astype(np.float64)), np.log(errors), 1)[0])
    return RateScanResult(levels, errors, slope)
