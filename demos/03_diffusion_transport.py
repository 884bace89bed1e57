"""Pushing a quantizer through a diffusion and certifying the error.

A discrete reference law is noised forward to a horizon, quantized there,
and carried back toward time zero by the reverse SDE. Because the noisy
marginal of a discrete law is a Gaussian mixture, its score is available
in closed form, so the reverse dynamics need no learned network. A
closed-form constant then turns the quantization error at the horizon
into a certified ceiling on the expectation gap after transport.
"""

import numpy as np

from quantdistill import (
    DiscreteMeasure,
    LipschitzFunction,
    ReferenceLaw,
    SdeSpec,
    analytic_score,
    explicit_constant,
    forward_marginal,
    init_grid,
    lloyd,
    project_to_grid,
    transport_quantization,
    verify_main_theorem,
)


def main():
    ref = ReferenceLaw(DiscreteMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])))
    sde = SdeSpec("brownian", horizon=1.0, early_stop=0.25, n_steps=400)
    print("reference law: equal atoms at -1 and +1")
    print(f"sde: {sde.kind}, horizon {sde.horizon}, reverse stops at {sde.early_stop}")

    xs = np.array([[-1.5], [0.0], [1.5]])
    scores = analytic_score(ref, sde, 0.5, xs)
    print("\nclosed-form score of the noised law at t=0.5:")
    for x, s in zip(xs.ravel(), scores.ravel()):
        print(f"  x={x:+.1f}: {s:+.4f}")

    noisy = forward_marginal(ref, sde, sde.horizon, 4000, 3)
    print(f"\nhorizon marginal: mean {noisy.atoms.mean():+.4f}, var {noisy.atoms.var():.4f}")
    print("(Brownian noising adds variance t=1 on top of the reference spread of 1)")

    grid = lloyd(noisy, init_grid(noisy, 6, np.random.default_rng(6))).grid
    quantized = project_to_grid(noisy, grid)
    test_fn = LipschitzFunction.distance_to(np.array([0.3]))
    transported, report = transport_quantization(ref, sde, quantized, test_fn, 3000, 11)
    print(f"\nquantized the horizon cloud to {quantized.n_atoms} weighted atoms")
    print(f"transported atoms: {np.sort(transported.atoms.ravel()).round(3)}")
    same = np.array_equal(transported.weights, quantized.weights)
    print(f"weights ride along unchanged: {same}")

    constant = explicit_constant(sde, ref.support_radius)
    print(f"\nexplicit stability constant for this window: {constant:.4f}")

    report = verify_main_theorem(ref, sde, 8, test_fn, 5000, 7)
    verdict = "holds" if report.passed else "FAILS"
    print(f"expectation gap {report.lhs:.4f} <= ceiling {report.rhs:.4f}: bound {verdict}")
    print(
        "(ceiling = constant x Lipschitz norm x W2 at the horizon = "
        f"{report.constant:.3f} x {report.lipschitz_bound:.0f} x {report.wasserstein:.4f})"
    )


if __name__ == "__main__":
    main()
