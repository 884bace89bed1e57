"""Empirical verification of every mathematical property at desk scale.

Each check draws randomized instances under a seed derived from the master
seed and a fixed per-check offset, measures the property with an independent
route (closed forms, finite differences, quadrature, brute enumeration, or
fresh Monte Carlo), and emits one record per claim with the measured value,
its target, the allowed tolerance, and the verdict those numbers give under
the record's rule (see ``CheckRecord``). The command-line
``verify`` subcommand runs these and fails its exit status when any record
fails.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from .diffusion import (
    STDERR_SIGMAS,
    ReferenceLaw,
    SdeSpec,
    analytic_score,
    explicit_constant,
    forward_marginal,
    reverse_integrate,
    score_monotonicity_bound,
    verify_main_theorem,
)
from .measures import (
    DiscreteMeasure,
    QuantizationGrid,
    project_to_grid,
    quadratic_distortion,
    distortion_gradient,
    squared_distances,
)
from .pipeline import demo_dataset
from .quantize import (
    GaussianMixtureSampler,
    StepSchedule,
    UniformCubeSampler,
    best_lloyd,
    clvq,
    empirical_distortion_trace,
    init_grid,
    lloyd,
    minibatch_kmeans,
)
from .risk import (
    LipschitzFunction,
    TinyClassifier,
    WeightedDataset,
    check_lipschitz_gap,
    gradient_discrepancy,
    loss_and_gradient,
)
from .transport import compare_weighting, rate_scan, w2_discrete

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim: what was measured, against what, and the verdict.

    The verdict ``passed`` is not given; it follows from the reported numbers
    under ``rule``, with a ``None`` tolerance counting as 0:

    - ``"at_most"`` (default): ``measured <= target + tolerance``;
    - ``"within"``: ``abs(measured - target) <= tolerance``;
    - ``"at_least"``: ``measured >= target - tolerance``.

    An unknown rule raises ``ValueError``.
    """

    claim: str
    statement: str
    measured: float
    target: float
    tolerance: float | None
    passed: bool = field(init=False)
    seed: int
    rule: InitVar[str] = "at_most"

    def __post_init__(self, rule: str):
        tol = 0.0 if self.tolerance is None else self.tolerance
        if rule == "at_most":
            passed = self.measured <= self.target + tol
        elif rule == "within":
            passed = abs(self.measured - self.target) <= tol
        elif rule == "at_least":
            passed = self.measured >= self.target - tol
        else:
            raise ValueError(f"unknown rule {rule!r}")
        object.__setattr__(self, "passed", bool(passed))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tol = "-" if self.tolerance is None else format(self.tolerance, ".3g")
        return (
            f"{status} {self.claim}: measured={self.measured:.6g} "
            f"target={self.target:.6g} tolerance={tol}"
        )


def _sub(seed: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, *keys))


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(_sub(seed, *keys))


def _random_instance(rng, max_centroids: int, margin: float):
    """A generic measure/grid pair with a guarded assignment margin."""
    while True:
        d = int(rng.integers(1, 4))
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, min(max_centroids, n) + 1))
        atoms = rng.normal(size=(n, d))
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
        centroids = 1.2 * rng.normal(size=(k, d))
        if np.unique(centroids, axis=0).shape[0] != k:
            continue
        if k > 1:
            d2 = squared_distances(atoms, centroids)
            low = np.partition(d2, 1, axis=1)
            if ((low[:, 1] - low[:, 0]) / (1.0 + low[:, 0])).min() < margin:
                continue
        return DiscreteMeasure(atoms, weights), QuantizationGrid(centroids)


def check_distortion_w2_equality(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(100):
        mu, grid = _random_instance(rng, 8, 1e-9)
        distortion = quadratic_distortion(mu, grid)
        w2, _ = w2_discrete(project_to_grid(mu, grid), mu)
        worst = max(worst, abs(distortion - w2 * w2) / distortion)
    return [
        CheckRecord(
            claim="distortion_equals_squared_w2",
            statement=(
                "Quadratic distortion equals the squared exact Wasserstein-2 "
                "distance to the nearest-centroid projection on tie-free instances."
            ),
            measured=worst,
            target=0.0,
            tolerance=1e-9,
            seed=seed,
        )
    ]


def check_distortion_gradient_fd(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 2)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        mu, grid = _random_instance(rng, 5, 1e-3)
        grad = distortion_gradient(mu, grid)
        fd = np.zeros_like(grad)
        centroids = grid.centroids
        for j in range(centroids.shape[0]):
            for axis in range(centroids.shape[1]):
                bumped = centroids.copy()
                bumped[j, axis] += h
                up = quadratic_distortion(mu, QuantizationGrid(bumped))
                bumped[j, axis] -= 2 * h
                down = quadratic_distortion(mu, QuantizationGrid(bumped))
                fd[j, axis] = (up - down) / (2 * h)
        rel = float(np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)))
        worst = max(worst, rel)
    return [
        CheckRecord(
            claim="distortion_gradient_matches_fd",
            statement=(
                "The distortion gradient (twice the mass-weighted pull of each "
                "centroid from its cell mean) matches central finite differences."
            ),
            measured=worst,
            target=0.0,
            tolerance=1e-5,
            seed=seed,
        )
    ]


def check_interval_quantizer_error(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 3)
    mu = DiscreteMeasure.uniform(rng.random((20000, 1)))
    worst = 0.0
    for k in (1, 2, 4):
        best = best_lloyd(mu, [init_grid(mu, k, "dsquared", rng) for _ in range(5)]).distortion
        target = 1.0 / (12.0 * k * k)
        worst = max(worst, abs(best - target) / target)
    return [
        CheckRecord(
            claim="interval_quantizer_error",
            statement=(
                "Best-of-5 Lloyd distortion on 20000 uniform interval samples "
                "matches the optimal value 1/(12 K^2) for K in {1, 2, 4}."
            ),
            measured=worst,
            target=0.0,
            tolerance=0.1,
            seed=seed,
        )
    ]


def check_companion_weight_convergence(seed: int) -> list[CheckRecord]:
    sampler = GaussianMixtureSampler([[-3.0], [3.0]], [0.01, 0.01], [0.7, 0.3])
    weight_errors = []
    trace_gaps = []
    for rep in range(10):
        result = clvq(
            sampler,
            2,
            StepSchedule.harmonic(1.0, 10.0),
            100000,
            _sub(seed, 4, rep),
        )
        order = np.argsort(result.grid.centroids[:, 0])
        sorted_weights = result.weights[order]
        weight_errors.append(float(np.abs(sorted_weights - [0.7, 0.3]).max()))
        running = empirical_distortion_trace(result)[-1]
        fresh_rng = _rng(seed, 4, 100 + rep)
        fresh = DiscreteMeasure.uniform(sampler.draw(fresh_rng, 100000))
        fresh_distortion = quadratic_distortion(fresh, result.grid)
        trace_gaps.append(abs(running / fresh_distortion - 1.0))
    med_weight = float(np.median(weight_errors))
    med_trace = float(np.median(trace_gaps))
    return [
        CheckRecord(
            claim="companion_weights_track_mass",
            statement=(
                "After 1e5 online steps on a 0.7/0.3 mixture, companion weights "
                "land on the cell masses (median worst error over 10 seeds)."
            ),
            measured=med_weight,
            target=0.0,
            tolerance=0.02,
            seed=seed,
        ),
        CheckRecord(
            claim="distortion_trace_matches_fresh",
            statement=(
                "The running mean of recorded winner distances converges to the "
                "distortion measured on fresh samples (median relative gap)."
            ),
            measured=med_trace,
            target=0.0,
            tolerance=0.1,
            seed=seed,
        ),
    ]


def check_online_minibatch_equivalence(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 5)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    points = np.vstack(
        [c + 0.5 * rng.standard_normal((200, 2)) for c in centers]
    )
    data = DiscreteMeasure.uniform(points)
    online = clvq(
        data,
        4,
        StepSchedule.count_reciprocal(),
        2000,
        _sub(seed, 5, 0),
    )
    batch = minibatch_kmeans(data, 4, 100, 20, _sub(seed, 5, 0))
    grid_gap = float(np.abs(online.grid.centroids - batch.grid.centroids).max())
    count_gap = float(np.abs(online.counts - batch.counts).max())
    measured = max(grid_gap, count_gap)
    return [
        CheckRecord(
            claim="online_matches_minibatch",
            statement=(
                "Under the count-reciprocal schedule and one seed, the online "
                "learner and mini-batch k-means produce bitwise equal grids and counts."
            ),
            measured=measured,
            target=0.0,
            tolerance=0.0,
            seed=seed,
        )
    ]


def check_quantizer_rate_law(seed: int) -> list[CheckRecord]:
    records = []
    for offset, dim in ((0, 1), (1, 2)):
        scan = rate_scan(
            UniformCubeSampler(dim),
            [4, 8, 16, 32, 64],
            20000,
            _sub(seed, 6, offset),
            n_restarts=5,
        )
        target = -1.0 / dim
        records.append(
            CheckRecord(
                claim=f"quantizer_rate_dim{dim}",
                statement=(
                    "Root quantization error on the uniform cube decays like "
                    f"K^(-1/{dim}): fitted log-log slope within 0.15 of {target}."
                ),
                measured=scan.fitted_slope,
                target=target,
                tolerance=0.15,
                rule="within",
                seed=seed,
            )
        )
    return records


def check_lipschitz_expectation_gap(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 7)
    worst = -np.inf
    for trial in range(100):
        mu, grid = _random_instance(rng, 6, 0.0)
        d = mu.dim
        kind = trial % 3
        if kind == 0:
            f = LipschitzFunction.distance_to(rng.normal(size=d))
        elif kind == 1:
            slopes = rng.normal(size=(3, d))
            slopes /= np.sqrt((slopes**2).sum(axis=1))[:, None]
            f = LipschitzFunction.max_affine(slopes, rng.normal(size=3))
        else:
            f = LipschitzFunction.constant(float(rng.normal()))
        report = check_lipschitz_gap(mu, grid, [f])[0]
        worst = max(worst, report.gap - report.bound)
    return [
        CheckRecord(
            claim="lipschitz_gap_bounded",
            statement=(
                "Expectation gaps of certified Lipschitz functions never exceed "
                "the Lipschitz constant times the root distortion (worst excess)."
            ),
            measured=float(worst),
            target=0.0,
            tolerance=1e-9,
            seed=seed,
        )
    ]


def check_score_monotonicity(seed: int) -> list[CheckRecord]:
    records = []
    horizon = 2.0
    for offset, kind in ((0, "brownian"), (1, "ornstein_uhlenbeck")):
        rng = _rng(seed, 80 + offset)
        worst = -np.inf
        for rep in range(3):
            t = (0.08, 0.5, 0.95)[rep] * horizon
            d = rep + 1
            atoms = rng.uniform(-1.0, 1.0, size=(5, d))
            ref = ReferenceLaw(DiscreteMeasure.uniform(atoms))
            sde = SdeSpec(kind, horizon, 0.1 * horizon, 10)
            bound = score_monotonicity_bound(sde, ref.support_radius, t)
            scale = ref.support_radius + np.sqrt(t) + 1.0
            x = scale * rng.standard_normal((1000, d))
            y = scale * rng.standard_normal((1000, d))
            sx = analytic_score(ref, sde, t, x)
            sy = analytic_score(ref, sde, t, y)
            inner = np.einsum("nd,nd->n", x - y, sx - sy)
            sq = ((x - y) ** 2).sum(axis=1)
            worst = max(worst, float((inner - bound * sq).max()))
        records.append(
            CheckRecord(
                claim=f"score_monotonicity_{kind}",
                statement=(
                    "The analytic score is one-sided Lipschitz: the inner product "
                    "<x-y, s(x)-s(y)> stays below its radius/time bound times |x-y|^2."
                ),
                measured=worst,
                target=0.0,
                tolerance=1e-9,
                seed=seed,
            )
        )
    return records


def check_explicit_constant_quadrature(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 9)
    worst = 0.0
    for trial in range(20):
        kind = "brownian" if trial % 2 == 0 else "ornstein_uhlenbeck"
        horizon = float(rng.uniform(0.4, 2.0))
        early = horizon * float(rng.uniform(0.1, 0.8))
        radius = float(rng.uniform(0.0, 1.2))
        sde = SdeSpec(kind, horizon, early, 10)
        closed = explicit_constant(sde, radius)
        integral, _ = quad(
            lambda t: score_monotonicity_bound(sde, radius, t),
            early,
            horizon,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=500,
        )
        reference = float(np.exp(integral))
        worst = max(worst, abs(closed - reference) / reference)
    return [
        CheckRecord(
            claim="explicit_constant_closed_form",
            statement=(
                "The closed-form stability constant equals the exponential of the "
                "quadrature of the score monotonicity bound over the reverse window."
            ),
            measured=worst,
            target=0.0,
            tolerance=1e-10,
            seed=seed,
        )
    ]


def _bound_configs():
    two_atoms = ReferenceLaw(DiscreteMeasure.uniform([[-1.0], [1.0]]))
    square = ReferenceLaw(
        DiscreteMeasure.uniform(
            [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]]
        )
    )
    skewed = ReferenceLaw(
        DiscreteMeasure([[-0.5], [1.0]], [0.8, 0.2])
    )
    return [
        (
            "symmetric_pair_brownian",
            two_atoms,
            SdeSpec("brownian", 1.0, 0.25, 400),
            8,
            LipschitzFunction.distance_to([0.3]),
            5000,
        ),
        (
            "square_ornstein_uhlenbeck",
            square,
            SdeSpec("ornstein_uhlenbeck", 1.0, 0.2, 400),
            8,
            LipschitzFunction.distance_to([0.3, -0.2]),
            3000,
        ),
        (
            "skewed_pair_brownian",
            skewed,
            SdeSpec("brownian", 1.0, 0.25, 400),
            6,
            LipschitzFunction.distance_to([0.3]),
            4000,
        ),
    ]


def check_transported_expectation_bound(seed: int) -> list[CheckRecord]:
    records = []
    for i, (name, ref, sde, k, fn, n_mc) in enumerate(_bound_configs()):
        report = verify_main_theorem(ref, sde, k, fn, n_mc, _sub(seed, 10, i))
        records.append(
            CheckRecord(
                claim=f"transported_bound_{name}",
                statement=(
                    "The transported expectation gap stays within the explicit "
                    "constant times the horizon Wasserstein error "
                    "(plus 3 Monte Carlo standard errors)."
                ),
                measured=report.lhs,
                target=report.rhs,
                tolerance=STDERR_SIGMAS * report.mc_stderr,
                seed=seed,
            )
        )
    ref = ReferenceLaw(DiscreteMeasure.uniform([[0.0]]))
    sde = SdeSpec("brownian", 1.0, 0.1, 400)
    start = forward_marginal(ref, sde, sde.horizon, 20000, _sub(seed, 10, 50))
    out = reverse_integrate(start, ref, sde, _sub(seed, 10, 51))
    variance = float(out.atoms.var())
    n = out.atoms.shape[0]
    stderr = sde.early_stop * np.sqrt(2.0 / (n - 1))
    tolerance = 5.0 * stderr + 0.05 * sde.early_stop
    records.append(
        CheckRecord(
            claim="reverse_marginal_consistency",
            statement=(
                "Reversing a pure Gaussian from the horizon reproduces the "
                "marginal variance at the early-stop time."
            ),
            measured=variance,
            target=sde.early_stop,
            tolerance=float(tolerance),
            rule="within",
            seed=seed,
        )
    )
    return records


def _skewed_clusters(rng, n: int):
    centers = DiscreteMeasure([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [0.7, 0.2, 0.1])
    return DiscreteMeasure.uniform(centers.draw(rng, n) + 0.3 * rng.standard_normal((n, 2)))


def check_weighting_reduction(seed: int) -> list[CheckRecord]:
    reductions = []
    worst_excess = -np.inf
    for rep in range(10):
        rng = _rng(seed, 11, rep)
        mu = _skewed_clusters(rng, 300)
        grid = best_lloyd(mu, [init_grid(mu, 3, "dsquared", rng) for _ in range(3)]).grid
        comparison = compare_weighting(mu, grid)
        reductions.append(comparison.reduction_fraction)
        worst_excess = max(
            worst_excess, comparison.weighted_w2 - comparison.uniform_w2
        )
    median_reduction = float(np.median(reductions))
    return [
        CheckRecord(
            claim="weighted_never_worse",
            statement=(
                "Cell-mass weights on a fixed grid never give a larger "
                "Wasserstein-2 distance than uniform weights (worst excess)."
            ),
            measured=float(worst_excess),
            target=0.0,
            tolerance=1e-9,
            seed=seed,
        ),
        CheckRecord(
            claim="weighted_reduction_median",
            statement=(
                "On skewed three-cluster data the mass-aware weights cut the "
                "Wasserstein-2 distance by a median of at least 5 percent."
            ),
            measured=median_reduction,
            target=0.05,
            tolerance=None,
            rule="at_least",
            seed=seed,
        ),
    ]


def check_gradient_discrepancy_weighting(seed: int) -> list[CheckRecord]:
    wins = 0
    for trial in range(10):
        rng = _rng(seed, 12, trial)
        full_points, full_labels = [], []
        distilled_points, distilled_labels = [], []
        mass_weights, uniform_weights = [], []
        for c, base in enumerate((np.array([-2.0, 0.0]), np.array([2.0, 0.0]))):
            clusters = np.vstack([base + np.array([0.0, 4.0]), base])
            comp = (rng.random(40) < 0.2).astype(np.intp)
            pts = clusters[comp] + 0.3 * rng.standard_normal((40, 2))
            full_points.append(pts)
            full_labels.append(np.full(40, c, dtype=np.intp))
            mu = DiscreteMeasure.uniform(pts)
            fit = lloyd(mu, init_grid(mu, 2, "dsquared", rng))
            mass = fit.partition.cell_mass
            distilled_points.append(fit.grid.centroids)
            distilled_labels.append(np.full(2, c, dtype=np.intp))
            mass_weights.append(np.maximum(mass / mass.sum(), 1e-12))
            uniform_weights.append(np.ones(2))
        full = WeightedDataset(
            np.vstack(full_points),
            np.concatenate(full_labels),
            np.ones(80),
        )
        pts = np.vstack(distilled_points)
        labels = np.concatenate(distilled_labels)
        weighted = WeightedDataset(pts, labels, np.concatenate(mass_weights))
        uniform = WeightedDataset(pts, labels, np.concatenate(uniform_weights))
        classifier = TinyClassifier.multinomial_logistic(2, 2)
        theta = 0.5 * rng.standard_normal(classifier.n_parameters)
        d_weighted = gradient_discrepancy(classifier, theta, full, weighted)
        d_uniform = gradient_discrepancy(classifier, theta, full, uniform)
        if d_weighted <= d_uniform:
            wins += 1
    return [
        CheckRecord(
            claim="weighted_gradients_closer",
            statement=(
                "Companion-weighted distilled clouds reproduce the full-data loss "
                "gradient at least as well as uniform weights in at least 7 of 10 trials."
            ),
            measured=float(wins),
            target=7.0,
            tolerance=None,
            rule="at_least",
            seed=seed,
        )
    ]


def check_pipeline_determinism(seed: int) -> list[CheckRecord]:
    from . import cli
    from .latentio import load_train_report, save_labels, save_latents

    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        points, labels = demo_dataset(seed, n_per_class=300)
        latents = tmp / "latents.bin"
        labels_path = tmp / "labels.txt"
        save_latents(latents, points)
        save_labels(labels_path, labels)
        cloud = ["--latents", str(latents), "--labels", str(labels_path)]
        distilled = ["--distilled", str(tmp / "distilled_a.json")]
        stages = (
            ("distilled", ["distill", *cloud, "--ipc", "10"]),
            ("transported", [
                "diffuse", *distilled, *cloud, "--sde", "brownian", "--horizon", "1.0",
                "--delta", "0.25", "--steps", "200", "--mc", "800",
            ]),
            ("report", [
                "train", *distilled, "--weights", "variance_reduced",
                "--model", "logistic", "--lr", "1.0", "--epochs", "200",
            ]),
        )
        for name, argv in stages:
            outputs = []
            for tag in ("a", "b"):
                out = tmp / f"{name}_{tag}.json"
                args = [*argv, "--seed", str(seed), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(args)
                if status != 0:
                    raise RuntimeError(f"command failed with status {status}: {args}")
                outputs.append(out.read_bytes())
            mismatches += outputs[0] != outputs[1]
        accuracy = load_train_report(tmp / "report_a.json").train_accuracy
    return [
        CheckRecord(
            claim="pipeline_byte_determinism",
            statement=(
                "Rerunning distill, diffuse, and train with one seed reproduces "
                "every output file byte for byte (count of differing stages)."
            ),
            measured=float(mismatches),
            target=0.0,
            tolerance=0.0,
            seed=seed,
        ),
        CheckRecord(
            claim="distilled_train_accuracy",
            statement=(
                "A linear classifier trained on the weighted distilled cloud "
                "classifies every distilled point correctly."
            ),
            measured=float(accuracy),
            target=1.0,
            tolerance=0.0,
            rule="within",
            seed=seed,
        ),
    ]


def check_gradient_smoothness_estimate(seed: int) -> list[CheckRecord]:
    rng = _rng(seed, 14)
    points = rng.standard_normal((60, 2))
    labels = (points[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(np.intp)
    if labels.max() == 0:
        labels[0] = 1
    data = WeightedDataset(points, labels, np.ones(60))
    classifier = TinyClassifier.multinomial_logistic(2, 2)
    estimate = 0.0
    for _ in range(200):
        theta_a = rng.standard_normal(classifier.n_parameters)
        theta_b = theta_a + 0.1 * rng.standard_normal(classifier.n_parameters)
        _, ga = loss_and_gradient(classifier, data, theta_a)
        _, gb = loss_and_gradient(classifier, data, theta_b)
        gap = float(np.linalg.norm(theta_a - theta_b))
        if gap > 0:
            estimate = max(estimate, float(np.linalg.norm(ga - gb)) / gap)
    return [
        CheckRecord(
            claim="gradient_smoothness_estimate",
            statement=(
                "Informational only: empirical local Lipschitz estimate of the "
                "training-loss gradient over random parameter pairs; reported, "
                "not asserted."
            ),
            measured=estimate,
            target=float("inf"),
            tolerance=None,
            seed=seed,
        )
    ]


@dataclass(frozen=True)
class CheckSpec:
    key: str
    suite: str
    fn: object


CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec("distortion_w2_equality", "distortion", check_distortion_w2_equality),
    CheckSpec("distortion_gradient_fd", "distortion", check_distortion_gradient_fd),
    CheckSpec("interval_quantizer_error", "distortion", check_interval_quantizer_error),
    CheckSpec(
        "companion_weight_convergence", "clvq", check_companion_weight_convergence
    ),
    CheckSpec(
        "online_minibatch_equivalence", "clvq", check_online_minibatch_equivalence
    ),
    CheckSpec("quantizer_rate_law", "transport", check_quantizer_rate_law),
    CheckSpec("weighting_reduction", "transport", check_weighting_reduction),
    CheckSpec(
        "lipschitz_expectation_gap", "risk", check_lipschitz_expectation_gap
    ),
    CheckSpec(
        "gradient_discrepancy_weighting", "risk", check_gradient_discrepancy_weighting
    ),
    CheckSpec(
        "gradient_smoothness_estimate", "risk", check_gradient_smoothness_estimate
    ),
    CheckSpec("score_monotonicity", "diffusion", check_score_monotonicity),
    CheckSpec(
        "explicit_constant_quadrature", "diffusion", check_explicit_constant_quadrature
    ),
    CheckSpec(
        "transported_expectation_bound",
        "diffusion",
        check_transported_expectation_bound,
    ),
    CheckSpec("pipeline_determinism", "pipeline", check_pipeline_determinism),
)

SUITES = tuple(dict.fromkeys(spec.suite for spec in CHECKS))


def run_checks(suite: str = "all", seed: int = DEFAULT_SEED) -> list[CheckRecord]:
    """Run every check in a suite ("all" runs the full battery)."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    records = []
    for spec in CHECKS:
        if suite == "all" or spec.suite == suite:
            records.extend(spec.fn(seed))
    return records
