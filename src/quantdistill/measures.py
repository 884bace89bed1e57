"""Discrete measures, quantization grids, and the quadratic distortion.

A discrete measure is a finite weighted point cloud that draws its own atoms,
each draw one inverse-CDF lookup; a quantization grid is a finite set of
pairwise-distinct centroids. The quadratic distortion of a grid against a
measure is the weighted mean squared distance from each atom to its nearest
centroid. Every point-to-centroid distance in the package comes from
one exact kernel, ``squared_distances``, and every nearest-centroid decision
from one helper, ``_nearest``, behind the Voronoi pass (which yields the
assignment, the nearest squared distances, the cell masses and means, and
the distortion together) and mini-batch k-means. Its decision is always
``cdist``'s ``argmin``, with that entry's bits; where the centroids hold
many coordinates (K·d from ``_SCREEN_FLOOR`` up, K from
``_SCREEN_MIN_CENTROIDS`` up), one GEMM screens it first and a rounding
bound decides where the screen may stand in for ``cdist``.
Every softmax and log-sum-exp over logits, in the score and the training
loss, is one in-place NumPy routine, ``_softmax_rows``.
Nearest-centroid ties always resolve to the lowest centroid index so that
every operation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionError

WEIGHT_SUM_TOL = 1e-12


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite; an empty array is.

    ``min`` and ``max`` propagate NaN and reach any infinity, and allocate
    nothing of the array's size, unlike ``np.all(np.isfinite(arr))``.
    """
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _first_nonfinite_row(arr: np.ndarray) -> int | None:
    """Index of the first row of a 2-d array that holds a NaN or an infinity, or None.

    An all-finite array costs ``_all_finite`` alone.
    """
    if _all_finite(arr):
        return None
    return int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])


def as_point_array(values, name: str = "points") -> np.ndarray:
    """Coerce to a C-contiguous float64 array of shape (n, d) with finite entries."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be nonempty in both axes, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} must be finite")
    return arr


def as_label_array(values, n_points: int | None = None) -> np.ndarray:
    """Coerce to an intp vector of class labels forming the range 0..C-1.

    Labels are nonnegative integers, one per point when ``n_points`` is
    given, and every class from 0 to the largest label occurs at least once.
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] < 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"labels must be a nonempty 1-d integer array, got {arr.dtype} "
            f"of shape {arr.shape}"
        )
    if n_points is not None and arr.shape[0] != n_points:
        raise ValueError(f"{arr.shape[0]} labels for {n_points} points")
    if np.any(arr < 0):
        raise ValueError("labels must be nonnegative")
    present = np.unique(arr)
    if not np.array_equal(present, np.arange(present.shape[0])):
        raise ValueError("labels must form a contiguous range starting at 0")
    return arr.astype(np.intp)


def as_point(value, name: str = "point") -> np.ndarray:
    """Coerce to a finite float64 vector of shape (d,)."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} must be finite")
    return arr


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, shape (n, K).

    One ``cdist`` call, which differences each pair directly rather than using
    the norm-expansion identity and allocates only the (n, K) output. So an
    entry depends only on its own pair of rows: equal rows give exactly 0, and
    exact ties in the inputs stay exact in the output. Since (a − c)² =
    (c − a)², swapping the arguments transposes the output bit for bit; the
    package's callers that reduce over centroids pass the centroids first,
    so each reduction runs down a (K, n) matrix's columns, where ``cdist``
    and NumPy's ``min`` and ``argmin`` are several times faster at few
    centroids.
    """
    return cdist(points, centroids, "sqeuclidean")


def _inverse_cdf(cdf: np.ndarray, u):
    """Index of the first cumulative weight above ``u``, capped at the last index.

    Every weighted draw is this lookup; the cap catches a ``u`` at or above a
    total that rounding left below 1.
    """
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _softmax_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise max-shifted softmax, computed in place over ``logits``.

    The same operations as SciPy's ``softmax(logits, axis=1)``, so the same
    bits, without its temporaries of the logits' size. Returns each row's
    shift (its maximum) and shifted total, both shape (n, 1), so a caller
    that needs the row's log-sum-exp forms ``shift + log(total)``.
    """
    shift = logits.max(axis=1, keepdims=True)
    logits -= shift
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    logits /= total
    return shift, total


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure supported on finitely many points.

    Attributes
    ----------
    atoms : ndarray, shape (n, d)
        Support points, all finite.
    weights : ndarray, shape (n,)
        Nonnegative masses summing to 1 within ``WEIGHT_SUM_TOL``. Individual
        weights may be zero; atoms with zero weight are retained in place.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = as_point_array(self.atoms, "atoms")
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.ndim != 1 or weights.shape[0] != atoms.shape[0]:
            raise ValueError(
                f"weights must have shape ({atoms.shape[0]},), got {weights.shape}"
            )
        if not _all_finite(weights):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, atoms) -> "DiscreteMeasure":
        """Equal-weight measure on the given points, checked once, by the constructor."""
        atoms = np.ascontiguousarray(atoms, dtype=np.float64)
        n = max(len(atoms), 1)  # no atoms: the constructor names the shape
        return cls(atoms, np.full(n, 1.0 / n))

    @classmethod
    def from_unnormalized(cls, atoms, masses) -> "DiscreteMeasure":
        """Measure with the given nonnegative masses rescaled to total 1."""
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        total = masses.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("masses must be nonnegative with positive finite total")
        return cls(atoms, masses / total)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def draw_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Indices of ``n`` atoms drawn with replacement, by weight.

        One ``rng.random(n)`` call and one lookup; of the zero-weight atoms,
        only a last one can be drawn, and only through the cap.
        """
        if n < 1:
            raise ValueError("n must be positive")
        return _inverse_cdf(np.cumsum(self.weights), rng.random(n))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` atoms drawn with replacement, by weight, shape (n, d)."""
        return self.atoms[self.draw_indices(rng, n)]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class QuantizationGrid:
    """An ordered set of pairwise-distinct centroids, shape (K, d)."""

    centroids: np.ndarray

    def __post_init__(self):
        centroids = as_point_array(self.centroids, "centroids")
        # Pairwise distinctness: duplicate rows would make cell assignment
        # ambiguous. Adding 0.0 folds -0.0 into 0.0, so equal rows have equal bytes.
        if len({row.tobytes() for row in centroids + 0.0}) != centroids.shape[0]:
            raise ValueError("centroids must be pairwise distinct")
        object.__setattr__(self, "centroids", centroids)

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class VoronoiPartition:
    """Assignment of a measure's atoms to the cells of a grid.

    Attributes
    ----------
    assignment : ndarray of int, shape (n,)
        Index of the nearest centroid for each atom, ties to the lowest index.
    nearest_sq : ndarray, shape (n,)
        Squared distance from each atom to its assigned centroid.
    cell_mass : ndarray, shape (K,)
        Total atom weight in each cell; sums to 1.
    cell_centroid : ndarray, shape (K, d)
        Weight-normalized mean of the atoms in each cell. Rows for empty cells
        (``cell_mass == 0``) are NaN and must not be read as points.
    distortion : float
        Quadratic distortion ``weights · nearest_sq``: the squared
        Wasserstein-2 distance from the measure to its projection.
    """

    assignment: np.ndarray
    nearest_sq: np.ndarray
    cell_mass: np.ndarray
    cell_centroid: np.ndarray
    distortion: float


def _check_same_dim(a_dim: int, b_dim: int) -> None:
    if a_dim != b_dim:
        raise DimensionError(f"dimension mismatch: {a_dim} vs {b_dim}")


def _nearest_by_cdist(
    atoms: np.ndarray, centroids: np.ndarray, previous: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One centroid-major ``squared_distances`` pass, its argmin over the
    centroids (ties low) and the entries read there.

    With ``previous``, an atom keeps its previous centroid where that entry
    lies strictly below the column ``min`` over every other centroid, which
    makes it the unique minimum; only the other atoms (moved, tied, NaN or
    infinite) take an ``argmin``. A column ``min`` costs a fraction of an
    ``argmin``, so a warm start pays where few atoms move.
    """
    d2 = squared_distances(centroids, atoms)
    if previous is None:
        assignment = np.argmin(d2, axis=0)
        return assignment, d2[assignment, np.arange(atoms.shape[0])]
    n = atoms.shape[0]
    held = previous * n + np.arange(n)  # flat index of entry (previous[i], i)
    own = d2.take(held)
    d2.put(held, np.inf)
    moved = np.flatnonzero(~(own < d2.min(axis=0)))
    assignment = previous.copy()
    if moved.size:
        d2.put(held[moved], own[moved])
        rest = d2[:, moved]
        assignment[moved] = np.argmin(rest, axis=0)
        own[moved] = rest[assignment[moved], np.arange(moved.size)]
    return assignment, own


# Centroid coordinates (K·d) and centroids (K) from which ``_nearest``
# screens by GEMM; below either one centroid-major ``cdist`` pass is cheaper.
# Timed on 64 clustered atoms, one BLAS thread, 2-vCPU host, as a share of
# that pass's time: 9-17x at d <= 16, 0.86-1.53 at K·d = 16 384 and
# 0.67-0.93 at 32 768 for d = 64-4096, 0.75 at K = 10, d = 4096, and 0.39 at
# K = 50. At d = 4096-16 384 few centroids lose however large K·d is:
# 1.31-1.49 at K = 4, 1.18-1.33 at K = 5, 1.04-1.11 at K = 6, 1.01-1.05 at
# K = 7, then 0.63-0.78 at K = 8.
_SCREEN_FLOOR = 32_768
_SCREEN_MIN_CENTROIDS = 8


def _nearest(
    atoms: np.ndarray, centroids: np.ndarray, previous: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per atom and its squared distance: ``cdist``'s argmin and bits.

    Below ``_SCREEN_FLOOR`` or ``_SCREEN_MIN_CENTROIDS`` it is
    ``_nearest_by_cdist``, warm-started from ``previous`` (each atom's
    earlier centroid) when given; any ``previous`` gives the same result,
    only faster where it is right. From both floors up, ``previous`` is
    unused and one GEMM screens every atom x: ``‖c‖² − 2x·c`` is its
    squared distance to c less ``‖x‖²``, which no comparison needs. The
    screen's best centroid gets its squared distance from one
    ``squared_distances`` call per winning centroid; a ``cdist`` entry
    depends only on its own pair of rows, so it has the full pass's bits.

    A screen entry and a ``cdist`` entry each lie within γ_{d+3} R² of their
    exact values, R = ‖x‖ + max‖c‖, for any summation order, so at any BLAS
    thread count (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, §3.1). So an atom whose runner-up screens more than γ_{d+3} (2R)²
    above its best has a unique ``cdist`` minimum there. The margin takes
    ``(d + 3) · eps`` for γ_{d+3}, and the winner's distance plus its norm
    for ‖x‖; the doubled reach turns infinite before any screen term can
    overflow. Every other atom, a NaN or overflowing one too, takes the
    ``cdist`` pass.
    """
    k, d = centroids.shape
    if k * d < _SCREEN_FLOOR or k < _SCREEN_MIN_CENTROIDS:
        return _nearest_by_cdist(atoms, centroids, previous)
    rows = np.arange(atoms.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        screen = atoms @ centroids.T
        screen *= -2.0
        screen += centroid_sq
        assignment = np.argmin(screen, axis=1)
        lead = screen[rows, assignment]
        screen[rows, assignment] = np.inf
        gap = screen.min(axis=1) - lead
    nearest_sq = np.empty(atoms.shape[0])
    for j in np.unique(assignment):
        won = np.flatnonzero(assignment == j)
        nearest_sq[won] = squared_distances(centroids[j:j + 1], atoms[won])[0]
    norms = np.sqrt(centroid_sq)
    with np.errstate(over="ignore", invalid="ignore"):
        reach = 2.0 * (np.sqrt(nearest_sq) + norms[assignment] + norms.max())
        margin = (d + 3) * np.finfo(np.float64).eps * reach**2
    # A product that underflows, even one flushed to zero, is off by less
    # than the smallest normal double, which the relative bound misses.
    margin += 4 * (d + 3) * np.finfo(np.float64).tiny
    rest = np.flatnonzero(~(gap > margin))
    if rest.size:
        assignment[rest], nearest_sq[rest] = _nearest_by_cdist(atoms[rest], centroids)
    return assignment, nearest_sq


def _partition(
    atoms: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    previous: np.ndarray | None = None,
) -> VoronoiPartition:
    """The Voronoi pass on arrays; sums run in atom-index order, so bits reproduce.

    ``previous`` is an earlier assignment that warm-starts ``_nearest``.
    """
    assignment, nearest_sq = _nearest(atoms, centroids, previous)
    k = centroids.shape[0]
    mass = np.bincount(assignment, weights=weights, minlength=k)
    means = np.full((k, atoms.shape[1]), np.nan)
    nonempty = mass > 0
    for axis in range(atoms.shape[1]):
        sums = np.bincount(assignment, weights=weights * atoms[:, axis], minlength=k)
        means[nonempty, axis] = sums[nonempty] / mass[nonempty]
    distortion = float(np.dot(weights, nearest_sq))
    return VoronoiPartition(assignment, nearest_sq, mass, means, distortion)


def voronoi_partition(mu: DiscreteMeasure, grid: QuantizationGrid) -> VoronoiPartition:
    """Assign every atom of ``mu`` to its nearest centroid of ``grid``.

    Returns the per-atom assignments and nearest squared distances, the
    per-cell masses and weighted centroids (NaN rows for empty cells), and
    the distortion.
    """
    _check_same_dim(mu.dim, grid.dim)
    return _partition(mu.atoms, mu.weights, grid.centroids)


def quadratic_distortion(mu: DiscreteMeasure, grid: QuantizationGrid) -> float:
    """Weighted mean squared distance from each atom to its nearest centroid.

    Nonnegative; zero exactly when every positive-weight atom coincides with
    some centroid.
    """
    return voronoi_partition(mu, grid).distortion


def distortion_gradient(mu: DiscreteMeasure, grid: QuantizationGrid) -> np.ndarray:
    """Gradient of the quadratic distortion in the centroid positions.

    Row j equals ``2 * sum_{atoms i in cell j} w_i * (x_j - a_i)``; rows of
    empty cells are zero. The gradient vanishes exactly when every nonempty
    cell's centroid sits at its cell's weighted mean.
    """
    part = voronoi_partition(mu, grid)
    pull = 2.0 * part.cell_mass[:, None] * (grid.centroids - part.cell_centroid)
    return np.where(part.cell_mass[:, None] > 0, pull, 0.0)


def project_to_grid(mu: DiscreteMeasure, grid: QuantizationGrid) -> DiscreteMeasure:
    """Push ``mu`` forward through the nearest-centroid map.

    The result is supported on the grid's centroids, in grid order, with
    weights equal to the Voronoi cell masses. Zero-mass centroids are kept in
    place so the support always matches the grid row for row. Cell masses are
    rescaled by their total (1 up to accumulation error) so the result always
    satisfies the measure's weight-sum contract.
    """
    part = voronoi_partition(mu, grid)
    return DiscreteMeasure.from_unnormalized(grid.centroids.copy(), part.cell_mass)
