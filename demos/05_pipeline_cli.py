"""The full distillation pipeline driven through the command line.

Every stage reads and writes files, takes an explicit seed, and is
bit-for-bit reproducible: running a command twice with the same inputs
produces byte-identical outputs. This script drives the CLI in process
over a temporary directory.
"""

import tempfile
from pathlib import Path

from quantdistill import demo_dataset
from quantdistill.cli import main as cli
from quantdistill.latentio import load_train_report, save_labels, save_latents


def run(*args):
    print(f"\n$ quantdistill {' '.join(args)}")
    status = cli(list(args))
    if status != 0:
        raise SystemExit(f"command failed with status {status}")


def main():
    points, labels = demo_dataset(seed=0, n_per_class=300)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        latents = str(root / "latents.bin")
        labels_path = str(root / "labels.csv")
        save_latents(latents, points)
        save_labels(labels_path, labels)
        print(f"wrote {points.shape[0]} latent points and their labels")

        distilled = str(root / "distilled.json")
        run(
            "distill", "--latents", latents, "--labels", labels_path,
            "--ipc", "10", "--seed", "0", "--out", distilled,
        )

        transported = str(root / "transported.json")
        run(
            "diffuse", "--distilled", distilled,
            "--latents", latents, "--labels", labels_path,
            "--sde", "brownian", "--horizon", "1.0", "--delta", "0.25",
            "--steps", "200", "--mc", "800", "--seed", "0",
            "--out", transported,
        )

        report_path = str(root / "train.json")
        run(
            "train", "--distilled", distilled, "--model", "logistic",
            "--lr", "1.0", "--epochs", "200", "--seed", "0",
            "--eval-latents", latents, "--eval-labels", labels_path,
            "--out", report_path,
        )
        report = load_train_report(report_path)
        print(f"\ntrain report: accuracy {report.train_accuracy:.3f} on the distilled")
        print(f"points, {report.eval_accuracy:.3f} on the original {points.shape[0]}")

        # Rerun distillation under a second name and compare bytes.
        again = str(root / "distilled_again.json")
        run(
            "distill", "--latents", latents, "--labels", labels_path,
            "--ipc", "10", "--seed", "0", "--out", again,
        )
        identical = Path(distilled).read_bytes() == Path(again).read_bytes()
        print(f"\nsame seed, same inputs, byte-identical output: {identical}")


if __name__ == "__main__":
    main()
