"""Score-based transport of quantized clouds along a reverse diffusion.

A finitely supported reference law pushed through Brownian or
Ornstein-Uhlenbeck noising has a Gaussian-mixture marginal at every positive
time, so its score is available in closed form. Integrating the reverse-time
dynamics with that analytic score carries both the reference marginal and any
quantized stand-in from the horizon back to a small early-stop time, and the
expectation gap between the two transported clouds is controlled by an
explicit constant times their Wasserstein-2 distance at the horizon. This
module implements the forward marginals, the score, the reverse integrator,
the constant, and drivers that measure every quantity in one run. The score
takes (n, d) batches of points, as the integrator holds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidSpec, InvalidTime
from .measures import DiscreteMeasure, _check_same_dim, _softmax_rows, squared_distances
from .quantize import as_generator, init_grid, lloyd
from .transport import w2_discrete

BROWNIAN = "brownian"
ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
MIN_EARLY_STOP_FRACTION = 1e-3
STDERR_SIGMAS = 3.0
LOG_OVERFLOW = 700.0
# Reference points per product in the analytic score's pull; see analytic_score.
_SCORE_BLOCK = 128


@dataclass(frozen=True)
class SdeSpec:
    """A noising process and the reverse-integration window.

    ``kind`` selects Brownian motion (variance grows linearly) or the
    standardized Ornstein-Uhlenbeck process (variance saturates at 1).
    Reverse integration runs from the horizon back to ``early_stop`` in
    ``n_steps`` uniform Euler steps. The early stop must be at least
    ``MIN_EARLY_STOP_FRACTION`` of the horizon so the score stays tame.
    """

    kind: str
    horizon: float
    early_stop: float
    n_steps: int

    def __post_init__(self):
        if self.kind not in (BROWNIAN, ORNSTEIN_UHLENBECK):
            raise InvalidSpec(f"unknown process kind {self.kind!r}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidSpec("horizon must be positive and finite")
        if not (np.isfinite(self.early_stop) and 0 < self.early_stop < self.horizon):
            raise InvalidSpec("early_stop must lie strictly between 0 and the horizon")
        if self.early_stop < MIN_EARLY_STOP_FRACTION * self.horizon:
            raise InvalidSpec(
                f"early_stop must be at least {MIN_EARLY_STOP_FRACTION} "
                "of the horizon"
            )
        if self.n_steps < 1:
            raise InvalidSpec("n_steps must be positive")


@dataclass(frozen=True)
class ReferenceLaw:
    """A reference measure together with its support radius.

    ``support_radius`` is the largest Euclidean norm among atoms carrying
    positive weight; it feeds the explicit constant.
    """

    base: DiscreteMeasure
    support_radius: float = field(init=False)

    def __post_init__(self):
        norms = np.sqrt((self.base.atoms**2).sum(axis=1))
        radius = float(norms[self.base.weights > 0].max())
        object.__setattr__(self, "support_radius", radius)

    @property
    def dim(self) -> int:
        return self.base.dim


def _marginal_params(sde: SdeSpec, t: float) -> tuple[float, float]:
    """Mean scale and noise variance of the marginal at time t."""
    if not (np.isfinite(t) and 0 < t <= sde.horizon):
        raise InvalidTime(f"t must lie in (0, {sde.horizon}], got {t!r}")
    if sde.kind == BROWNIAN:
        return 1.0, float(t)
    return float(np.exp(-0.5 * t)), float(-np.expm1(-t))


def forward_marginal(
    ref: ReferenceLaw, sde: SdeSpec, t: float, n: int, seed
) -> DiscreteMeasure:
    """Sample the noised reference law at time t as a uniform cloud.

    Draws base atoms by weight, scales them by the marginal mean factor, and
    adds isotropic Gaussian noise with the marginal variance.
    """
    if n < 1:
        raise ValueError("n must be positive")
    scale, var = _marginal_params(sde, t)
    rng = as_generator(seed)
    base = ref.base.draw(rng, n)
    atoms = scale * base + np.sqrt(var) * rng.standard_normal((n, ref.dim))
    return DiscreteMeasure.uniform(atoms)


def analytic_score(ref: ReferenceLaw, sde: SdeSpec, t: float, x) -> np.ndarray:
    """Gradient of the log marginal density at time t.

    The marginal is a Gaussian mixture centered at the scaled atoms, so the
    score is the responsibility-weighted pull toward the component means
    divided by the marginal variance. Takes an (n, d) batch and returns
    (n, d); the responsibilities are the package's max-shifted softmax,
    taken in place over the logits, so far-out points degrade gracefully to
    the nearest component's pull.
    """
    scale, var = _marginal_params(sde, t)
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != ref.dim:
        raise DimensionError(f"points must be an (n, {ref.dim}) batch, got shape {batch.shape}")
    means = scale * ref.base.atoms
    with np.errstate(divide="ignore"):
        log_w = np.log(ref.base.weights)
    resp = squared_distances(batch, means)
    resp /= 2.0 * var
    np.subtract(log_w[None, :], resp, out=resp)  # the mixture logits
    _softmax_rows(resp)  # the logits become the responsibilities in place
    # OpenBLAS may add a product's terms over a long inner dimension in an
    # order that depends on its thread count (500 reference points at
    # d = 4096 gave other bytes at 1 and 2 threads); over at most
    # _SCORE_BLOCK points it did not, on OpenBLAS 0.3.31 with Haswell
    # kernels. So the pull is summed block by block, in a fixed order, and
    # a reference of _SCORE_BLOCK points or fewer stays one product.
    pull = resp[:, :_SCORE_BLOCK] @ means[:_SCORE_BLOCK]
    for start in range(_SCORE_BLOCK, means.shape[0], _SCORE_BLOCK):
        pull += resp[:, start:start + _SCORE_BLOCK] @ means[start:start + _SCORE_BLOCK]
    return (pull - batch) / var


def reverse_integrate(
    start: DiscreteMeasure, ref: ReferenceLaw, sde: SdeSpec, seed
) -> DiscreteMeasure:
    """Carry a cloud from the horizon back to the early-stop time.

    Euler-Maruyama with uniform steps on the time-reversed dynamics: the
    drift is the analytic score of the reference marginal (plus half the
    state for the mean-reverting process), and each step adds fresh Gaussian
    noise. Atom weights pass through unchanged.
    """
    _check_same_dim(start.dim, ref.dim)
    rng = as_generator(seed)
    x = start.atoms.copy()
    dt = (sde.horizon - sde.early_stop) / sde.n_steps
    root_dt = np.sqrt(dt)
    for j in range(sde.n_steps):
        t = sde.horizon - j * dt
        drift = analytic_score(ref, sde, t, x)
        if sde.kind == ORNSTEIN_UHLENBECK:
            drift = drift + 0.5 * x
        x += dt * drift + root_dt * rng.standard_normal(x.shape)
    return DiscreteMeasure(x, start.weights.copy())


def score_monotonicity_bound(sde: SdeSpec, radius: float, t: float) -> float:
    """One-sided Lipschitz bound on the score at time t.

    For any two points x, y the score s of the noised law satisfies
    ``<x - y, s(x) - s(y)> <= bound * |x - y|^2``. For Brownian noising the
    bound is ``R^2/t^2 - 1/t``; the mean-reverting case replaces the radius
    by its decayed value and the time by the saturating variance.
    """
    if not (np.isfinite(radius) and radius >= 0):
        raise InvalidSpec("radius must be nonnegative and finite")
    _, var = _marginal_params(sde, t)
    decay = 1.0 if sde.kind == BROWNIAN else float(np.exp(-t))
    return radius * radius * decay / (var * var) - 1.0 / var


def log_explicit_constant(sde: SdeSpec, radius: float) -> float:
    """Logarithm of the expectation-stability constant.

    Equals the integral of ``score_monotonicity_bound`` over the reverse
    window, in closed form. For Brownian noising:
    ``R^2 (1/early_stop - 1/horizon) - log(horizon/early_stop)``; the
    mean-reverting case substitutes saturating variances.
    """
    if not (np.isfinite(radius) and radius >= 0):
        raise InvalidSpec("radius must be nonnegative and finite")
    t_hi, t_lo = sde.horizon, sde.early_stop
    _, var_hi = _marginal_params(sde, t_hi)
    _, var_lo = _marginal_params(sde, t_lo)
    if sde.kind == BROWNIAN:
        growth = np.log(t_hi / t_lo)
    else:
        growth = float(np.log(np.expm1(t_hi)) - np.log(np.expm1(t_lo)))
    return radius * radius * (1.0 / var_lo - 1.0 / var_hi) - growth


def explicit_constant(sde: SdeSpec, radius: float) -> float:
    """Expectation-stability constant for the reverse window.

    Multiplying this constant, a test function's Lipschitz constant, and the
    Wasserstein-2 distance between two horizon clouds bounds the gap between
    their transported expectations. Overflows to inf for extreme windows;
    the bound is then vacuous but still valid.
    """
    log_c = log_explicit_constant(sde, radius)
    if log_c > LOG_OVERFLOW:
        return float("inf")
    return float(np.exp(log_c))


@dataclass(frozen=True)
class BoundReport:
    """Measured two-sided comparison of the transported expectation gap.

    ``lhs`` is the observed gap. The verdict follows from the measured
    numbers and is not given: ``rhs = constant * lipschitz_bound *
    wasserstein`` is the theoretical ceiling, and 0 whenever
    ``lipschitz_bound * wasserstein`` is 0, even if the constant overflowed
    to inf. ``passed`` allows ``STDERR_SIGMAS`` times the Monte Carlo
    standard error on top of ``rhs``, and ``ratio`` is lhs/rhs (0 when both
    vanish, inf when only rhs does).
    """

    lhs: float
    rhs: float = field(init=False)
    mc_stderr: float
    ratio: float = field(init=False)
    passed: bool = field(init=False)
    wasserstein: float
    constant: float
    lipschitz_bound: float

    def __post_init__(self):
        if self.lipschitz_bound * self.wasserstein == 0:
            rhs = 0.0
        else:
            rhs = self.constant * self.lipschitz_bound * self.wasserstein
        if rhs > 0:
            ratio = self.lhs / rhs
        else:
            ratio = 0.0 if self.lhs == 0 else float("inf")
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "passed", self.lhs <= rhs + STDERR_SIGMAS * self.mc_stderr)


def _weighted_stderr(values: np.ndarray, weights: np.ndarray) -> float:
    mean = float(np.dot(weights, values))
    var = float(np.dot(weights, (values - mean) ** 2))
    return float(np.sqrt(var * np.dot(weights, weights)))


def _bound_report(
    ref: ReferenceLaw,
    sde: SdeSpec,
    mu_end: DiscreteMeasure,
    nu_end: DiscreteMeasure,
    test_fn,
    seed_mu,
    seed_nu,
) -> tuple[BoundReport, DiscreteMeasure]:
    w2, _ = w2_discrete(nu_end, mu_end)
    mu_out = reverse_integrate(mu_end, ref, sde, seed_mu)
    nu_out = reverse_integrate(nu_end, ref, sde, seed_nu)
    f_mu = np.asarray(test_fn(mu_out.atoms), dtype=np.float64)
    f_nu = np.asarray(test_fn(nu_out.atoms), dtype=np.float64)
    lhs = abs(
        float(np.dot(mu_out.weights, f_mu)) - float(np.dot(nu_out.weights, f_nu))
    )
    stderr = float(
        np.sqrt(
            _weighted_stderr(f_mu, mu_out.weights) ** 2
            + _weighted_stderr(f_nu, nu_out.weights) ** 2
        )
    )
    report = BoundReport(
        lhs=lhs,
        mc_stderr=stderr,
        wasserstein=w2,
        constant=explicit_constant(sde, ref.support_radius),
        lipschitz_bound=float(test_fn.lipschitz_bound),
    )
    return report, nu_out


def _spawn(seed, n: int) -> list[np.random.SeedSequence]:
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n)
    return np.random.SeedSequence(seed).spawn(n)


def verify_main_theorem(
    ref: ReferenceLaw,
    sde: SdeSpec,
    n_centroids: int,
    test_fn,
    n_mc: int,
    seed,
) -> BoundReport:
    """Measure the expectation-stability bound end to end.

    Samples the horizon marginal, fits a quantizer to those samples (spread
    seeding plus Lloyd refinement, cell masses as weights), transports both
    clouds back with independent noise streams, and compares the observed
    expectation gap of ``test_fn`` against the explicit ceiling. The
    Wasserstein distance entering the ceiling is computed exactly between
    the sampled marginal and its quantization.
    """
    seed_fwd, seed_quant, seed_mu, seed_nu = _spawn(seed, 4)
    mu_end = forward_marginal(ref, sde, sde.horizon, n_mc, seed_fwd)
    fit = lloyd(mu_end, init_grid(mu_end, n_centroids, seed_quant))
    nu_end = DiscreteMeasure.from_unnormalized(fit.grid.centroids, fit.partition.cell_mass)
    return _bound_report(ref, sde, mu_end, nu_end, test_fn, seed_mu, seed_nu)[0]


def transport_quantization(
    ref: ReferenceLaw,
    sde: SdeSpec,
    quantized: DiscreteMeasure,
    test_fn,
    n_mc: int,
    seed,
) -> tuple[DiscreteMeasure, BoundReport]:
    """Transport a given weighted cloud and report its stability bound.

    The cloud is treated as the quantized law at the horizon; fresh samples
    of the true horizon marginal provide the comparison side. Returns the
    transported cloud (weights unchanged) and the bound report.
    """
    seed_fwd, seed_mu, seed_nu = _spawn(seed, 3)
    mu_end = forward_marginal(ref, sde, sde.horizon, n_mc, seed_fwd)
    report, nu_out = _bound_report(ref, sde, mu_end, quantized, test_fn, seed_mu, seed_nu)
    return nu_out, report
