"""Tests for forward marginals, the analytic score, and reverse transport."""

import numpy as np
import pytest
from scipy.integrate import quad

from quantdistill.diffusion import (
    BROWNIAN,
    ORNSTEIN_UHLENBECK,
    BoundReport,
    ReferenceLaw,
    SdeSpec,
    analytic_score,
    explicit_constant,
    forward_marginal,
    log_explicit_constant,
    reverse_integrate,
    score_monotonicity_bound,
    transport_quantization,
    verify_main_theorem,
)
from quantdistill.errors import DimensionError, InvalidSpec, InvalidTime
from quantdistill.measures import DiscreteMeasure
from quantdistill.risk import LipschitzFunction


def log_marginal_density(ref, sde, t, x):
    """Log density of the noised reference law at time t, per point of an (n, d) batch.

    The test's own oracle for the score: the Gaussian mixture with means
    ``scale * atom`` and variance ``var``, written out without package code.
    """
    if sde.kind == BROWNIAN:
        scale, var = 1.0, t
    else:
        scale, var = np.exp(-0.5 * t), -np.expm1(-t)
    atoms, weights = ref.base.atoms, ref.base.weights
    sq = ((x[:, None, :] - scale * atoms[None, :, :]) ** 2).sum(axis=2)
    logits = np.log(weights)[None, :] - sq / (2.0 * var)
    top = logits.max(axis=1)
    log_sum = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    return log_sum - 0.5 * x.shape[1] * np.log(2.0 * np.pi * var)


def two_atom_law():
    return ReferenceLaw(DiscreteMeasure.uniform([[-1.0], [1.0]]))


@pytest.mark.parametrize(
    "kind,horizon,early,steps",
    [
        ("brownian", 0.0, 0.1, 10),
        ("brownian", 1.0, 0.0, 10),
        ("brownian", 1.0, 1.0, 10),
        ("brownian", 1.0, 1e-5, 10),
        ("brownian", 1.0, 0.1, 0),
        ("geometric", 1.0, 0.1, 10),
    ],
)
def test_sde_spec_validation(kind, horizon, early, steps):
    with pytest.raises(InvalidSpec):
        SdeSpec(kind, horizon, early, steps)


def test_reference_law_radius_ignores_zero_weight_atoms():
    base = DiscreteMeasure(np.array([[0.5], [-30.0]]), np.array([1.0, 0.0]))
    assert ReferenceLaw(base).support_radius == 0.5
    assert two_atom_law().support_radius == 1.0


@pytest.mark.parametrize("kind", [BROWNIAN, ORNSTEIN_UHLENBECK])
def test_forward_marginal_moments_single_atom(kind):
    anchor = 0.8
    ref = ReferenceLaw(DiscreteMeasure.uniform([[anchor]]))
    sde = SdeSpec(kind, 2.0, 0.1, 10)
    t = 1.3
    cloud = forward_marginal(ref, sde, t, 40000, 30)
    if kind == BROWNIAN:
        mean, var = anchor, t
    else:
        mean = anchor * np.exp(-0.5 * t)
        var = 1.0 - np.exp(-t)
    np.testing.assert_allclose(cloud.atoms.mean(), mean, atol=4.0 * np.sqrt(var / 40000))
    np.testing.assert_allclose(cloud.atoms.var(), var, rtol=0.05)


def test_forward_marginal_rejects_bad_time():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.1, 10)
    with pytest.raises(InvalidTime):
        forward_marginal(ref, sde, 0.0, 10, 0)
    with pytest.raises(InvalidTime):
        forward_marginal(ref, sde, 1.5, 10, 0)


@pytest.mark.parametrize("kind", [BROWNIAN, ORNSTEIN_UHLENBECK])
def test_score_matches_density_gradient(kind, n_atoms=4):
    # Central finite differences of the log density are an independent route.
    rng = np.random.default_rng(31)
    atoms = rng.uniform(-1.0, 1.0, size=(n_atoms, 2))
    weights = rng.random(n_atoms)
    ref = ReferenceLaw(DiscreteMeasure(atoms, weights / weights.sum()))
    sde = SdeSpec(kind, 1.5, 0.1, 10)
    t = 0.6
    points = rng.normal(size=(20, 2)) * 1.5
    score = analytic_score(ref, sde, t, points)
    h = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (
            log_marginal_density(ref, sde, t, points + shift)
            - log_marginal_density(ref, sde, t, points - shift)
        ) / (2.0 * h)
        np.testing.assert_allclose(score[:, axis], fd, rtol=1e-5, atol=1e-6)


def test_score_summed_over_several_blocks_matches_density_gradient():
    # 300 reference points: two full blocks of the score's pull and a partial one.
    test_score_matches_density_gradient(BROWNIAN, n_atoms=300)


def test_score_single_atom_closed_form():
    # One atom gives a pure Gaussian: the score is (scaled mean - x) / var.
    anchor = np.array([0.4, -0.2])
    ref = ReferenceLaw(DiscreteMeasure.uniform(anchor[None, :]))
    sde = SdeSpec(ORNSTEIN_UHLENBECK, 2.0, 0.1, 10)
    t = 0.9
    scale = np.exp(-0.5 * t)
    var = 1.0 - np.exp(-t)
    x = np.array([[1.0, 2.0], [-0.3, 0.1]])
    expected = (scale * anchor - x) / var
    np.testing.assert_allclose(analytic_score(ref, sde, t, x), expected, rtol=1e-12)


def test_score_single_point_shape_and_dim_check():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.1, 10)
    # One point is a (1, d) batch; a bare point or the wrong dimension is rejected.
    out = analytic_score(ref, sde, 0.5, np.array([[0.3]]))
    assert out.shape == (1, 1)
    for bad in (np.array([0.3]), np.array([[0.3, 0.4]])):
        with pytest.raises(DimensionError):
            analytic_score(ref, sde, 0.5, bad)


def test_log_density_normalizes_to_one():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.1, 10)
    t = 0.4

    def density(v):
        return float(np.exp(log_marginal_density(ref, sde, t, np.array([[v]])))[0])

    total, _ = quad(density, -15.0, 15.0, limit=200)
    np.testing.assert_allclose(total, 1.0, rtol=1e-8)


@pytest.mark.parametrize("kind", [BROWNIAN, ORNSTEIN_UHLENBECK])
def test_monotonicity_bound_is_exact_for_centered_gaussian(kind):
    # A single atom at the origin has score -x/var exactly, so the one-sided
    # Lipschitz bound with radius 0 is attained with equality.
    ref = ReferenceLaw(DiscreteMeasure.uniform([[0.0, 0.0]]))
    sde = SdeSpec(kind, 2.0, 0.1, 10)
    t = 0.7
    var = t if kind == BROWNIAN else 1.0 - np.exp(-t)
    bound = score_monotonicity_bound(sde, 0.0, t)
    np.testing.assert_allclose(bound, -1.0 / var, rtol=1e-12)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=(50, 2))
    sx = analytic_score(ref, sde, t, x)
    sy = analytic_score(ref, sde, t, y)
    inner = np.einsum("nd,nd->n", x - y, sx - sy)
    sq = ((x - y) ** 2).sum(axis=1)
    np.testing.assert_allclose(inner, bound * sq, rtol=1e-10)


def test_log_constant_is_integral_of_bound():
    sde = SdeSpec(BROWNIAN, 1.2, 0.3, 10)
    radius = 0.9
    integral, _ = quad(
        lambda t: score_monotonicity_bound(sde, radius, t),
        sde.early_stop,
        sde.horizon,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    np.testing.assert_allclose(
        log_explicit_constant(sde, radius), integral, rtol=1e-10
    )


def test_explicit_constant_brownian_closed_form():
    sde = SdeSpec(BROWNIAN, 1.0, 0.25, 10)
    radius = 1.0
    expected = np.exp(1.0 * (1.0 / 0.25 - 1.0) - np.log(1.0 / 0.25))
    np.testing.assert_allclose(explicit_constant(sde, radius), expected, rtol=1e-12)


def test_explicit_constant_overflows_to_inf():
    sde = SdeSpec(BROWNIAN, 1.0, 1e-3, 10)
    assert explicit_constant(sde, 1.0) > 0
    assert explicit_constant(sde, 30.0) == np.inf


def test_reverse_integrate_same_noise_contracts_nearby_clouds():
    # With shared noise the reverse map is continuous: clouds that start
    # close stay close over the window.
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.2, 50)
    rng = np.random.default_rng(33)
    atoms = rng.normal(size=(200, 1))
    start_a = DiscreteMeasure.uniform(atoms)
    start_b = DiscreteMeasure.uniform(atoms + 1e-4)
    out_a = reverse_integrate(start_a, ref, sde, 34)
    out_b = reverse_integrate(start_b, ref, sde, 34)
    gap = np.abs(out_a.atoms - out_b.atoms).max()
    assert gap < 0.05


def test_reverse_integrate_preserves_weights_and_dim_check():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.2, 20)
    start = DiscreteMeasure(np.array([[0.5], [-0.5]]), np.array([0.8, 0.2]))
    out = reverse_integrate(start, ref, sde, 35)
    np.testing.assert_array_equal(out.weights, start.weights)
    bad = DiscreteMeasure.uniform(np.zeros((2, 2)) + np.arange(2)[:, None])
    with pytest.raises(DimensionError):
        reverse_integrate(bad, ref, sde, 35)


def test_reverse_integrate_recovers_early_marginal_variance():
    # Reversing a pure Gaussian from the horizon must reproduce the marginal
    # variance at the early stop, up to Euler bias and sampling noise.
    ref = ReferenceLaw(DiscreteMeasure.uniform([[0.0]]))
    sde = SdeSpec(BROWNIAN, 1.0, 0.1, 200)
    start = forward_marginal(ref, sde, sde.horizon, 8000, 36)
    out = reverse_integrate(start, ref, sde, 37)
    variance = out.atoms.var()
    assert abs(variance - sde.early_stop) < 0.012


def test_verify_main_theorem_report_is_consistent():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.25, 60)
    fn = LipschitzFunction.distance_to([0.2])
    report = verify_main_theorem(ref, sde, 4, fn, 500, 38)
    assert report.passed
    np.testing.assert_allclose(
        report.rhs, report.constant * report.lipschitz_bound * report.wasserstein
    )
    assert report.lhs >= 0 and report.mc_stderr > 0
    np.testing.assert_allclose(
        report.constant, explicit_constant(sde, ref.support_radius)
    )


def test_transport_quantization_keeps_input_weights():
    ref = two_atom_law()
    sde = SdeSpec(BROWNIAN, 1.0, 0.25, 40)
    quantized = DiscreteMeasure(
        np.array([[-0.9], [0.0], [1.1]]), np.array([0.45, 0.1, 0.45])
    )
    fn = LipschitzFunction.distance_to([0.0])
    transported, report = transport_quantization(ref, sde, quantized, fn, 400, 39)
    np.testing.assert_array_equal(transported.weights, quantized.weights)
    assert transported.atoms.shape == quantized.atoms.shape
    assert report.rhs == report.constant * report.lipschitz_bound * report.wasserstein


def test_zero_ceiling_for_a_zero_lipschitz_distance_product():
    # A constant that overflows to inf times a zero product is a ceiling of 0,
    # not NaN, so a zero gap passes.
    zero = dict(mc_stderr=0, wasserstein=0, constant=np.inf, lipschitz_bound=1)
    report = BoundReport(lhs=0, **zero)
    assert (report.rhs, report.ratio, report.passed) == (0.0, 0.0, True)
    assert not BoundReport(lhs=1e-3, **zero).passed
    # Atoms at +-30 overflow the constant; a constant test function has L = 0.
    ref = ReferenceLaw(DiscreteMeasure.uniform([[-30.0], [30.0]]))
    sde = SdeSpec(BROWNIAN, 1.0, 0.25, 20)
    quantized = DiscreteMeasure.uniform([[-29.0], [31.0]])
    fn = LipschitzFunction.constant(2.0)
    _, report = transport_quantization(ref, sde, quantized, fn, 50, 0)
    assert report.constant == np.inf and report.wasserstein > 0
    assert (report.lhs, report.rhs, report.passed) == (0.0, 0.0, True)
