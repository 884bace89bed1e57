"""Training a classifier on distilled points with cell-mass weights.

Per-class quantization shrinks each class to a handful of centroids with
cell masses attached. Keeping those masses as loss weights makes the
distilled gradient track the full-data gradient more closely than
uniform weights do, and a classifier trained on thirty weighted points
still separates the full cloud.
"""

import numpy as np

from quantdistill import (
    TinyClassifier,
    WeightedDataset,
    build_dataset,
    demo_dataset,
    distill,
    gradient_discrepancy,
    train,
)


def main():
    points, labels = demo_dataset(seed=0, n_per_class=300)
    print(f"full data: {points.shape[0]} points in {labels.max() + 1} classes")

    result = distill(points, labels, per_class=10, seed=0)
    mass = build_dataset(result, "normalized")
    flat = build_dataset(result, "uniform")
    print(f"distilled to {mass.n_points} weighted centroids")

    # Probe gradient fidelity at random parameter draws: how far is the
    # distilled loss gradient from the full-data gradient at the same theta?
    full = WeightedDataset(points, labels, np.ones(points.shape[0]))
    clf = TinyClassifier(mass.dim, mass.n_classes)
    rng = np.random.default_rng(5)
    trials = 20
    wins = 0
    gaps_mass = np.empty(trials)
    gaps_flat = np.empty(trials)
    for i in range(trials):
        theta = 0.5 * rng.standard_normal(clf.n_parameters)
        gaps_mass[i] = gradient_discrepancy(clf, theta, full, mass)
        gaps_flat[i] = gradient_discrepancy(clf, theta, full, flat)
        wins += gaps_mass[i] < gaps_flat[i]
    print(f"\ngradient distance to the full data, mean over {trials} random thetas:")
    print(f"  cell-mass weights: {gaps_mass.mean():.4f}")
    print(f"  uniform weights:   {gaps_flat.mean():.4f}")
    print(f"mass weights win {wins}/{trials} probes")

    clf, report = train(
        result,
        weight_mode="normalized",
        model="logistic",
        learning_rate=1.0,
        epochs=200,
        seed=0,
        eval_points=points,
        eval_labels=labels,
    )
    print(f"\ntrained on the distilled cloud: final weighted loss {report.final_loss:.4f}")
    print(f"accuracy on the distilled points:      {report.train_accuracy:.3f}")
    print(f"accuracy on all {points.shape[0]} original points: {report.eval_accuracy:.3f}")

    angles = 2.0 * np.pi * np.arange(3) / 3
    centers = 2.2 * np.column_stack([np.cos(angles), np.sin(angles)])
    print(f"predicted labels at the three blob centers: {clf.predict(centers, report.theta)}")


if __name__ == "__main__":
    main()
