"""Quantize a lopsided mixture online and watch the companion weights.

The online learner moves one winning centroid per sample and maintains a
weight per centroid through the same averaging. On a mixture with 70/30
mass split the weights recover the split without ever being told it.
"""

import numpy as np

from quantdistill import (
    DiscreteMeasure,
    GaussianMixtureSampler,
    StepSchedule,
    clvq,
    empirical_distortion_trace,
    minibatch_kmeans,
    quadratic_distortion,
)


def main():
    sampler = GaussianMixtureSampler(
        means=[[-3.0], [3.0]], variances=[0.01, 0.01], weights=[0.7, 0.3]
    )
    print("source: Gaussian mixture, 70% near -3 and 30% near +3")

    result = clvq(
        sampler,
        n_centroids=2,
        schedule=StepSchedule.harmonic(1.0, 10.0),
        n_steps=100000,
        seed=0,
    )
    order = np.argsort(result.grid.centroids[:, 0])
    centroids = result.grid.centroids[order, 0]
    weights = result.weights[order]
    print(f"learned centroids: {centroids[0]:+.4f} and {centroids[1]:+.4f}")
    print(f"companion weights: {weights[0]:.4f} and {weights[1]:.4f} (true 0.7 / 0.3)")

    trace = empirical_distortion_trace(result)
    fresh = DiscreteMeasure.uniform(sampler.draw(np.random.default_rng(1), 100000))
    fresh_distortion = quadratic_distortion(fresh, result.grid)
    print(f"running distortion average: {trace[-1]:.6f}")
    print(f"distortion on fresh samples: {fresh_distortion:.6f}")

    # The k-means entry point is the same loop under a count-reciprocal
    # schedule, so a shared seed gives bitwise identical grids.
    data = DiscreteMeasure.uniform(sampler.draw(np.random.default_rng(2), 2000))
    online = clvq(data, 2, StepSchedule.count_reciprocal(), 1000, seed=3)
    batch = minibatch_kmeans(data, 2, batch_size=100, n_iterations=10, seed=3)
    same = bool(np.array_equal(online.grid.centroids, batch.grid.centroids))
    print(f"online run equals mini-batch k-means bit for bit: {same}")


if __name__ == "__main__":
    main()
