"""The benchmark's workloads: input sizes and the five CLI stages each runs.

Every workload runs the same chain of subcommands, ``distill``, ``diffuse``,
``train``, ``w2`` and ``rate-scan``, so that every end-to-end metric is
measured on every workload. The sizes put the time in different layers:

- ``desk_pipeline``: the demo-scale chain on blobs at d=16, where
  ``diffuse``, mostly its analytic score, is the largest stage.
- ``paper_shape``: d=4096 and 1300 points per class as in the D4M setting;
  online CLVQ and whole-file latent and JSON I/O dominate. ``diffuse`` uses
  a 16-point-per-class reference, since its (n, m, d) temporary would need
  gigabytes against the whole cloud.
- ``certify``: many low-dimensional distance calls in ``rate-scan`` against a
  square uniform LP in ``w2``; the other stages are small.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    why: str
    cloud: str  # "blobs" or "modes", see gen.py
    classes: int
    per_class: int
    dim: int
    ipc: int
    iterations: int  # distill --iterations (batch size stays 64)
    ref_per_class: int  # diffuse reference points per class
    steps: int  # diffuse reverse Euler steps
    mc: int  # diffuse Monte Carlo cloud size
    model: str
    epochs: int
    w2_points: int  # points in each uniform cloud of the w2 stage
    w2_dim: int
    scan_levels: str
    scan_samples: int
    scan_restarts: int

    def sized(self, tiny: bool) -> "Workload":
        """The workload itself, or a seconds-long version for the smoke test."""
        if not tiny:
            return self
        return replace(
            self,
            classes=2,
            per_class=40,
            dim=min(self.dim, 8),
            ipc=4,
            iterations=10,
            ref_per_class=10,
            steps=5,
            mc=20,
            epochs=10,
            w2_points=12,
            w2_dim=3,
            scan_levels="2,4",
            scan_samples=200,
            scan_restarts=1,
        )


WORKLOADS = {
    "desk_pipeline": Workload(
        why=("demo-scale chain on 3x300 blobs at d=16: diffuse, mostly its analytic "
             "score, is the largest stage"),
        cloud="blobs",
        classes=3,
        per_class=300,
        dim=16,
        ipc=10,
        iterations=200,
        ref_per_class=300,
        steps=100,
        mc=200,
        model="hidden:64",
        epochs=2000,
        w2_points=250,
        w2_dim=16,
        scan_levels="4,8,16",
        scan_samples=2000,
        scan_restarts=6,
    ),
    "paper_shape": Workload(
        why="d=4096, 4x1300, IPC 10: online CLVQ and whole-file latent and JSON I/O dominate",
        cloud="modes",
        classes=4,
        per_class=1300,
        dim=4096,
        ipc=10,
        iterations=200,
        ref_per_class=16,
        steps=10,
        mc=32,
        model="hidden:64",
        epochs=200,
        w2_points=96,
        w2_dim=4096,
        scan_levels="4,8,16",
        scan_samples=2000,
        scan_restarts=6,
    ),
    "certify": Workload(
        why="many low-d distance calls in rate-scan against a square uniform LP in w2",
        cloud="blobs",
        classes=3,
        per_class=300,
        dim=4,
        ipc=8,
        iterations=100,
        ref_per_class=100,
        steps=100,
        mc=100,
        model="logistic",
        epochs=1000,
        w2_points=300,
        w2_dim=16,
        scan_levels="4,8,16,32",
        scan_samples=2000,
        scan_restarts=4,
    ),
}

STAGES = ("distill", "diffuse", "train", "w2", "rate_scan")

# A run cycles through this many instances: each has its own program seed and
# its own pair of w2 clouds, on the same latent cloud, so that seed-dependent
# work (Lloyd iterations to convergence, simplex pivots) is averaged in a run.
INSTANCES = 3


def stage_argvs(spec: Workload, seed: int, instance: int, inputs: str, outputs: str) -> list:
    """(stage name, quantdistill argv) for each stage of one instance, in run order."""
    seed = str(seed * INSTANCES + instance)
    distilled = f"{outputs}/distilled.json"
    return [
        ("distill", [
            "distill", "--latents", f"{inputs}/latents.bin",
            "--labels", f"{inputs}/labels.csv", "--ipc", str(spec.ipc),
            "--iterations", str(spec.iterations), "--seed", seed,
            "--out", distilled,
        ]),
        ("diffuse", [
            "diffuse", "--distilled", distilled,
            "--latents", f"{inputs}/ref.bin", "--labels", f"{inputs}/ref_labels.csv",
            "--sde", "brownian", "--steps", str(spec.steps), "--mc", str(spec.mc),
            "--seed", seed, "--out", f"{outputs}/transported.json",
        ]),
        ("train", [
            "train", "--distilled", distilled, "--model", spec.model,
            "--epochs", str(spec.epochs), "--seed", seed,
            "--eval-latents", f"{inputs}/latents.bin",
            "--eval-labels", f"{inputs}/labels.csv",
            "--out", f"{outputs}/report.json",
        ]),
        ("w2", [
            "w2", "--left", f"{inputs}/w2_left{instance}.bin",
            "--right", f"{inputs}/w2_right{instance}.bin",
        ]),
        ("rate_scan", [
            "rate-scan", "--dim", "2", "--levels", spec.scan_levels,
            "--samples", str(spec.scan_samples), "--restarts", str(spec.scan_restarts),
            "--seed", seed, "--out", f"{outputs}/scan.json",
        ]),
    ]
