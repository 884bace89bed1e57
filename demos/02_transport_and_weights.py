"""Exact Wasserstein-2 distances and why centroid weights matter.

A fixed grid can carry different weight vectors. Against skewed data the
Voronoi cell masses are provably the best choice, and the exact transport
solver shows the gap. The same solver also certifies that quantization
error decays like K^(-1/d) on the uniform cube.
"""

import numpy as np

from quantdistill import (
    DiscreteMeasure,
    UniformCubeSampler,
    compare_weighting,
    init_grid,
    lloyd,
    rate_scan,
    w2_discrete,
)


def skewed_clusters(rng, n=300):
    centers = DiscreteMeasure([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [0.7, 0.2, 0.1])
    return DiscreteMeasure.uniform(centers.draw(rng, n) + 0.3 * rng.standard_normal((n, 2)))


def main():
    rng = np.random.default_rng(0)
    mu = skewed_clusters(rng)
    print("data: three clusters holding 70% / 20% / 10% of the points")

    grid = lloyd(mu, init_grid(mu, 3, rng)).grid
    comparison = compare_weighting(mu, grid)
    print(f"W2 with cell-mass weights: {comparison.weighted_w2:.4f}")
    print(f"W2 with uniform weights:   {comparison.uniform_w2:.4f}")
    print(f"weighting cuts the distance by {100 * comparison.reduction_fraction:.1f}%")

    # The solver returns an optimal coupling whose duals certify the cost.
    left = DiscreteMeasure.uniform(rng.normal(size=(40, 2)))
    right = DiscreteMeasure.uniform(rng.normal(size=(30, 2)))
    w2, plan = w2_discrete(left, right)
    dual_value = float(
        plan.dual_source @ left.weights + plan.dual_target @ right.weights
    )
    print(f"\nrandom clouds: W2 = {w2:.6f} with {plan.mass.shape[0]} flows")
    print(f"dual certificate matches cost: {abs(dual_value - plan.cost):.2e}")

    print("\nquantization error versus grid size on the unit square:")
    scan = rate_scan(UniformCubeSampler(2), [4, 8, 16, 32], 4000, seed=1, n_restarts=3)
    for k, err in zip(scan.levels, scan.errors):
        print(f"  K={int(k):3d}  error={err:.5f}")
    print(f"fitted log-log slope {scan.fitted_slope:.3f} (theory: -1/2)")


if __name__ == "__main__":
    main()
