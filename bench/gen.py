"""Write the seeded input files of one benchmark workload.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR [--tiny]

The files are written with this script's own NumPy code, never with package
code, so a change to the package cannot alter the inputs it is measured on.
The benchmark runs this script in a process of its own so that the memory it
uses stays out of the measured process's peak RSS. A ``manifest.json`` in
DIR records the shape and size of every file written.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import INSTANCES, WORKLOADS  # noqa: E402

MAGIC = b"OQDL"
BINARY_VERSION = 1


def write_latents(path: Path, points: np.ndarray) -> dict:
    """Binary latent file: tag, u32 version, u64 rows, u64 cols, float64 rows."""
    points = np.ascontiguousarray(points, dtype="<f8")
    header = MAGIC + struct.pack("<IQQ", BINARY_VERSION, *points.shape)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(points.tobytes(order="C"))
    return {"shape": list(points.shape), "bytes": path.stat().st_size}


def write_labels(path: Path, labels: np.ndarray) -> dict:
    """One integer per line, no header, as the label loader expects."""
    path.write_text("\n".join(str(int(v)) for v in labels) + "\n")
    return {"shape": [int(labels.shape[0])], "bytes": path.stat().st_size}


def read_latents(path: Path) -> np.ndarray:
    """Read a file written by :func:`write_latents`."""
    with open(path, "rb") as handle:
        header = handle.read(24)
        if header[:4] != MAGIC:
            raise ValueError(f"{path}: not a latent file")
        _, rows, cols = struct.unpack("<IQQ", header[4:])
        return np.fromfile(handle, dtype="<f8", count=rows * cols).reshape(rows, cols)


def read_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=1)


def blob_cloud(rng, n_classes, per_class, dim, spread=0.35, radius=2.2):
    """Classes on a circle in the first two coordinates, isotropic noise."""
    points = np.empty((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    for c in range(n_classes):
        center = np.zeros(dim)
        angle = 2.0 * np.pi * c / n_classes
        center[:2] = radius * np.cos(angle), radius * np.sin(angle)
        rows = slice(c * per_class, (c + 1) * per_class)
        points[rows] = center + spread * rng.standard_normal((per_class, dim))
    return points, labels


def mode_cloud(rng, n_classes, per_class, dim, n_modes=32):
    """Latent-like classes: a random class centre, sub-modes around it, noise.

    At d=4096 centres lie about 27 apart, modes about 27 apart and the noise
    has norm about 6, so every class is separable. With more modes than
    centroids per class, distance-squared seeding rarely puts two centroids
    in one mode, where one of them could end the run without a win.
    """
    points = np.empty((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    for c in range(n_classes):
        center = 0.3 * rng.standard_normal(dim)
        modes = center + 0.3 * rng.standard_normal((n_modes, dim))
        pick = rng.integers(0, n_modes, size=per_class)
        rows = slice(c * per_class, (c + 1) * per_class)
        points[rows] = modes[pick] + 0.1 * rng.standard_normal((per_class, dim))
    return points, labels


CLOUDS = {"blobs": blob_cloud, "modes": mode_cloud}


def generate(name: str, seed: int, out: Path, tiny: bool = False) -> dict:
    spec = WORKLOADS[name].sized(tiny)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    out.mkdir(parents=True, exist_ok=True)
    cloud = CLOUDS[spec.cloud]
    points, labels = cloud(rng, spec.classes, spec.per_class, spec.dim)
    files = {
        "latents.bin": write_latents(out / "latents.bin", points),
        "labels.csv": write_labels(out / "labels.csv", labels),
    }
    # The diffuse reference is the first ref_per_class points of each class.
    keep = np.concatenate(
        [np.flatnonzero(labels == c)[: spec.ref_per_class] for c in range(spec.classes)]
    )
    files["ref.bin"] = write_latents(out / "ref.bin", points[keep])
    files["ref_labels.csv"] = write_labels(out / "ref_labels.csv", labels[keep])
    del points
    for instance in range(INSTANCES):
        for side in ("left", "right"):
            name = f"w2_{side}{instance}.bin"
            files[name] = write_latents(out / name, rng.random((spec.w2_points, spec.w2_dim)))
    manifest = {"workload": name, "seed": seed, "tiny": tiny, "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
