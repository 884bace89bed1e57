"""Acceptance battery: every core mathematical claim measured at desk scale.

Each parametrized case runs one registered check from the verification
module and asserts that every record it emits passes at the stated
tolerance, so ``pytest -v`` prints one pass/fail line per claim. The record
lines themselves appear in the captured output on failure.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quantdistill
from quantdistill import cli, diffusion, quantize, transport, verification
from quantdistill.measures import DiscreteMeasure, quadratic_distortion

ACCEPTANCE_SEED = 0

REGISTRY = {spec.key: spec for spec in verification.CHECKS}


@pytest.mark.parametrize("key", list(REGISTRY))
def test_criterion(key):
    records = REGISTRY[key].fn(ACCEPTANCE_SEED)
    assert records, f"check {key} produced no records"
    for record in records:
        print(record.line())
        assert record.passed, record.line()


def test_gradient_smoothness_fails_for_a_doubled_gradient(monkeypatch):
    # A gradient off by a factor of 2 breaks Boehning's bound.
    exact = verification.loss_and_gradient

    def doubled(*args):
        loss, grad = exact(*args)
        return loss, 2.0 * grad

    monkeypatch.setattr(verification, "loss_and_gradient", doubled)
    [record] = verification.check_gradient_smoothness_estimate(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


def test_online_minibatch_equivalence_fails_when_counts_restart_each_batch(monkeypatch):
    # Counts not carried across batches: every batch starts from zero visits.
    exact = quantize._minibatch_loop

    def forgetful(rows, order, x0, batch_size):
        x, counts, traces = x0, 0.0, []
        for start in range(0, order.shape[0], batch_size):
            x, v, trace = exact(rows, order[start:start + batch_size], x, batch_size)
            counts, traces = counts + v, traces + [trace]
        return x, counts, np.concatenate(traces)

    monkeypatch.setattr(quantize, "_minibatch_loop", forgetful)
    [record] = verification.check_online_minibatch_equivalence(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


def _uniform_weights(result):
    k = result.grid.n_centroids
    return dataclasses.replace(result, weights=np.full(k, 1.0 / k))


def _doubled_winner_distances(result):
    return dataclasses.replace(result, winner_sq_dists=2.0 * result.winner_sq_dists)


@pytest.mark.parametrize(
    "fault, failed",
    [
        (lambda result: result, []),
        (_uniform_weights, ["companion_weights_track_mass"]),
        (_doubled_winner_distances, ["distortion_trace_matches_fresh"]),
    ],
    ids=["no_fault", "uniform_weights", "doubled_winner_distances"],
)
def test_companion_weight_convergence_fails_only_the_faulted_record(monkeypatch, fault, failed):
    # The real learner for 2000 steps instead of 1e5, so each run is cheap;
    # unfaulted, both records still pass.
    exact = verification.clvq
    monkeypatch.setattr(
        verification,
        "clvq",
        lambda sampler, n_centroids, n_steps, seed: fault(exact(sampler, n_centroids, 2000, seed)),
    )
    records = verification.check_companion_weight_convergence(ACCEPTANCE_SEED)
    assert [r.claim for r in records if not r.passed] == failed, [r.line() for r in records]


def test_pipeline_determinism_fails_for_a_subseed_keyed_on_the_worker(monkeypatch):
    # Planted in both fresh processes before their stages run: a class's
    # sub-seed also depends on whether a pool worker quantizes it.
    fault = (
        "import os, numpy\n"
        "from quantdistill import pipeline\n"
        "_stage_pid = os.getpid()\n"
        "pipeline.class_subseed = lambda seed, label: numpy.random.SeedSequence(\n"
        "    (seed, label, int(os.getpid() != _stage_pid)))\n"
    )
    monkeypatch.setattr(verification, "_STAGE_RUNNER", fault + verification._STAGE_RUNNER)
    byte_record, _ = verification.check_pipeline_determinism(ACCEPTANCE_SEED)
    assert byte_record.claim == "pipeline_byte_determinism"
    assert byte_record.passed is False, byte_record.line()


# Appended to the stage runner: prints the thread count NumPy's bundled OpenBLAS
# started with, or -1 where that library or its symbol is missing.
_PRINT_OPENBLAS_THREADS = """
import ctypes, glob, os, numpy
threads = -1
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    try:
        get_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        continue
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    threads = get_threads()
print(threads)
"""


def test_pipeline_determinism_serial_leg_runs_two_blas_threads():
    # A leg bound to one CPU would start one OpenBLAS thread whatever it asks.
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    package_root = str(Path(verification.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=package_root)
    runner = verification._STAGE_RUNNER + _PRINT_OPENBLAS_THREADS
    done = subprocess.run(
        [sys.executable, "-c", runner, "[]", "serial"],
        env=env, capture_output=True, text=True, check=True,
    )
    threads = int(done.stdout)
    if threads < 0:
        pytest.skip("NumPy's OpenBLAS does not report its thread count here")
    assert threads == 2


def test_distortion_w2_equality_fails_for_a_distortion_off_by_one_percent(monkeypatch):
    exact = verification.quadratic_distortion
    monkeypatch.setattr(
        verification, "quadratic_distortion", lambda mu, grid: 1.01 * exact(mu, grid)
    )
    [record] = verification.check_distortion_w2_equality(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


def test_weighting_reduction_fails_when_the_projection_has_uniform_weights(monkeypatch):
    # With uniform weights on the projection there is nothing to reduce.
    monkeypatch.setattr(
        transport, "project_to_grid", lambda mu, grid: DiscreteMeasure.uniform(grid.centroids)
    )
    records = verification.check_weighting_reduction(ACCEPTANCE_SEED)
    failed = [record.claim for record in records if not record.passed]
    assert failed == ["weighted_reduction_median"], [r.line() for r in records]


def test_weighted_gradients_closer_fails_when_the_cell_masses_are_uniform(monkeypatch):
    # Every distilled cloud gets uniform weights, so the two discrepancies
    # tie in every trial and a tie is no win.
    exact = verification.WeightedDataset
    monkeypatch.setattr(
        verification,
        "WeightedDataset",
        lambda points, labels, weights: exact(points, labels, np.ones(len(labels))),
    )
    [record] = verification.check_gradient_discrepancy_weighting(ACCEPTANCE_SEED)
    assert record.measured == 0.0 and record.passed is False, record.line()


def test_score_monotonicity_fails_for_a_score_of_flipped_sign(monkeypatch):
    exact = verification.analytic_score
    monkeypatch.setattr(verification, "analytic_score", lambda *args: -exact(*args))
    records = verification.check_score_monotonicity(ACCEPTANCE_SEED)
    assert [record.passed for record in records] == [False, False], [r.line() for r in records]


def test_explicit_constant_quadrature_fails_for_a_closed_form_off_by_one_ppm(monkeypatch):
    exact = verification.explicit_constant
    monkeypatch.setattr(
        verification, "explicit_constant", lambda sde, r: exact(sde, r) * (1 + 1e-6)
    )
    [record] = verification.check_explicit_constant_quadrature(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


def test_distortion_gradient_fd_fails_for_a_gradient_off_by_one_percent(monkeypatch):
    exact = verification.distortion_gradient
    monkeypatch.setattr(
        verification, "distortion_gradient", lambda mu, grid: 1.01 * exact(mu, grid)
    )
    [record] = verification.check_distortion_gradient_fd(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


def test_interval_quantizer_error_fails_when_lloyd_never_refines(monkeypatch):
    # The best start, scored as drawn: D² seeds are not the optimal grid.
    def unrefined(mu, starts):
        return min(
            (SimpleNamespace(distortion=quadratic_distortion(mu, start)) for start in starts),
            key=lambda fit: fit.distortion,
        )

    monkeypatch.setattr(verification, "best_lloyd", unrefined)
    [record] = verification.check_interval_quantizer_error(ACCEPTANCE_SEED)
    assert record.passed is False, record.line()


@pytest.mark.parametrize("stuck", [False, True], ids=["no_fault", "grid_stuck_after_first_level"])
def test_quantizer_rate_law_fails_when_the_grid_stops_improving(monkeypatch, stuck):
    # A cheap scan (2000 samples, one restart) in place of the check's; the
    # fault keeps the first level's best grid at every later level.
    exact_scan, exact_best = verification.rate_scan, transport.best_lloyd

    def cheap(sampler, levels, n_samples, seed, *, n_restarts):
        first = []

        def first_grid_only(mu, starts):
            if not first:
                first.append(exact_best(mu, starts))
            return first[0]

        if stuck:
            monkeypatch.setattr(transport, "best_lloyd", first_grid_only)
        return exact_scan(sampler, levels, 2000, seed, n_restarts=1)

    monkeypatch.setattr(verification, "rate_scan", cheap)
    records = verification.check_quantizer_rate_law(ACCEPTANCE_SEED)
    assert [record.passed for record in records] == [not stuck] * 2, [r.line() for r in records]


@pytest.mark.parametrize("noise", [True, False], ids=["no_fault", "reverse_step_without_noise"])
def test_transported_expectation_bound_fails_without_the_reverse_noise(monkeypatch, noise):
    # Cheap bound configurations (40 steps, 200 draws) in place of the check's.
    # The fault zeroes the noise of the reverse Euler steps behind
    # reverse_marginal_consistency, so the reversed Gaussian's variance
    # collapses toward 0.01 instead of the early-stop time's 0.1.
    exact_configs, exact_reverse = verification._bound_configs, verification.reverse_integrate
    monkeypatch.setattr(verification, "_bound_configs", lambda: [
        (name, ref, dataclasses.replace(sde, n_steps=40), k, fn, 200)
        for name, ref, sde, k, fn, _ in exact_configs()
    ])

    def noiseless(start, ref, sde, seed):
        with monkeypatch.context() as patch:
            silent = SimpleNamespace(standard_normal=np.zeros)
            patch.setattr(diffusion, "as_generator", lambda seed: silent)
            return exact_reverse(start, ref, sde, seed)

    if not noise:
        monkeypatch.setattr(verification, "reverse_integrate", noiseless)
    records = verification.check_transported_expectation_bound(ACCEPTANCE_SEED)
    failed = [record.claim for record in records if not record.passed]
    assert failed == ([] if noise else ["reverse_marginal_consistency"]), [r.line() for r in records]


def test_registry_covers_every_suite():
    keys = [spec.key for spec in verification.CHECKS]
    assert len(keys) == len(set(keys))


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        verification.run_checks("imaginary_suite")


def _record(measured, target, tolerance, **rule):
    return verification.CheckRecord(
        claim="c",
        statement="s",
        measured=measured,
        target=target,
        tolerance=tolerance,
        seed=0,
        **rule,
    )


@pytest.mark.parametrize(
    "rule, side",
    [("at_most", 1.0), ("within", 1.0), ("within", -1.0), ("at_least", -1.0)],
)
def test_verdict_follows_the_rule(rule, side):
    # The bound is target + side * tolerance; one ulp beyond it fails. Target
    # 0 keeps the rules' own sums and differences exact.
    edge = side * 0.25
    beyond = np.nextafter(edge, side * np.inf)
    assert _record(edge, 0.0, 0.25, rule=rule).passed is True
    assert _record(beyond, 0.0, 0.25, rule=rule).passed is False
    # A missing tolerance counts as 0.
    assert _record(0.0, 0.0, None, rule=rule).passed is True
    assert _record(np.nextafter(0.0, side), 0.0, None, rule=rule).passed is False


def test_verdict_rule_defaults_to_at_most():
    # Only "at_most" both passes far below the target and fails just above it.
    assert _record(-1.0, 0.0, 0.25).passed is True
    assert _record(np.nextafter(0.25, 1.0), 0.0, 0.25).passed is False


def test_verdict_rejects_unknown_rule_and_a_given_verdict():
    with pytest.raises(ValueError, match="unknown rule"):
        _record(0.0, 0.0, 0.0, rule="roughly")
    with pytest.raises(TypeError):
        _record(0.0, 0.0, 0.0, passed=True)


def test_cli_verify_is_the_acceptance_surface(capsys):
    # The command exits 0 only when every selected check passes.
    status = cli.main(["verify", "--suite", "risk", "--seed", "0"])
    assert status == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts; internal guarantees must raise package errors.
    package = Path(quantdistill.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _imported_names(node):
    """Dotted names an import statement binds or reads, e.g. ``scipy.special``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def test_package_does_not_import_scipy_special():
    # Every softmax and log-sum-exp is the package's own NumPy routine.
    package = Path(quantdistill.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _imported_names(node)
        if name == "scipy.special" or name.startswith("scipy.special.")
    ]
    assert not found, found


def test_cli_does_not_import_scipy_integrate():
    # Only the quadrature check integrates, and it imports SciPy's
    # integrator itself, so no command pays for that import at start-up.
    probe = "import sys, quantdistill.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(quantdistill.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["False"], run.stderr


def test_public_api_lists_exactly_what_the_package_imports():
    # A half-removed export fails here: a name listed in ``__all__`` but no
    # longer imported, listed twice, or imported but never listed.
    names = quantdistill.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(quantdistill, name)] == []
    init = ast.parse(Path(quantdistill.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert sorted(imported - set(names)) == []
