"""Quantize a lopsided mixture online and watch the companion weights.

The online learner moves one winning centroid per sample and maintains a
weight per centroid through the same averaging. On a mixture with 70/30
mass split the weights recover the split without ever being told it.
"""

import numpy as np

from quantdistill import (
    DiscreteMeasure,
    GaussianMixtureSampler,
    clvq,
    empirical_distortion_trace,
    init_grid,
    minibatch_kmeans,
    quadratic_distortion,
    squared_distances,
)


def main():
    sampler = GaussianMixtureSampler(
        means=[[-3.0], [3.0]], variances=[0.01, 0.01], weights=[0.7, 0.3]
    )
    print("source: Gaussian mixture, 70% near -3 and 30% near +3")

    result = clvq(sampler, n_centroids=2, n_steps=100000, seed=0)
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

    # D4M's online learner moves each winner by the reciprocal of its visit
    # count. Mini-batch k-means at batch size 1 is that learner: written out
    # sample by sample from the same seed, it gives the same grid bit for
    # bit. Larger batches assign against the grid frozen at each batch start.
    data = DiscreteMeasure.uniform(sampler.draw(np.random.default_rng(2), 2000))
    online = minibatch_kmeans(data, 2, batch_size=1, n_iterations=1000, seed=3)
    rng = np.random.default_rng(3)
    grid = init_grid(DiscreteMeasure.uniform(data.draw(rng, 512)), 2, rng).centroids.copy()
    visits = np.zeros(2)
    for s in data.draw(rng, 1000):
        win = int(np.argmin(squared_distances(s[None, :], grid)[0]))
        visits[win] += 1.0
        g = 1.0 / visits[win]
        grid[win] = (1.0 - g) * grid[win] + g * s
    same = bool(np.array_equal(online.grid.centroids, grid))
    print(f"online run equals mini-batch k-means bit for bit: {same}")
    batch = minibatch_kmeans(data, 2, batch_size=100, n_iterations=10, seed=3)
    print(
        "root distortion, online vs batch-100: "
        f"{np.sqrt(quadratic_distortion(data, online.grid)):.6f} vs "
        f"{np.sqrt(quadratic_distortion(data, batch.grid)):.6f}"
    )


if __name__ == "__main__":
    main()
