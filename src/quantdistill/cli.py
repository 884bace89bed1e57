"""Command line entry points for distillation, transport, and verification.

Every subcommand resolves its seed from ``--seed`` or, when omitted, the
``QUANTDISTILL_SEED`` environment variable (default 0), and writes outputs
through the deterministic serializers, so a repeated invocation reproduces
its files byte for byte.

Exit status: 0 on success, 1 when ``verify`` finds a failing check, 2 on
usage errors or unreadable input.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import latentio, pipeline, verification
from .diffusion import BROWNIAN, ORNSTEIN_UHLENBECK, SdeSpec
from .errors import DimensionError, QuantDistillError
from .measures import DiscreteMeasure
from .pipeline import WEIGHT_MODES
from .quantize import UniformCubeSampler
from .transport import rate_scan, w2

SEED_ENV = "QUANTDISTILL_SEED"


def _resolve_seed(value: int | None) -> int:
    if value is None:
        raw = os.environ.get(SEED_ENV)
        if raw is None:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV} must be an integer, got {raw!r}"
            ) from None
    if value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    return value


@contextlib.contextmanager
def _open_cloud(latents_path, labels_path):
    """A latent file open for row reads (``latentio.open_latents``) and its labels."""
    with latentio.open_latents(latents_path) as points:
        yield points, latentio.load_labels(labels_path, n_expected=points.shape[0])


def cmd_distill(args) -> int:
    seed = _resolve_seed(args.seed)
    with _open_cloud(args.latents, args.labels) as (points, labels):
        result = pipeline.distill(
            points,
            labels,
            args.ipc,
            seed,
            batch_size=args.batch_size,
            n_iterations=args.iterations,
        )
    latentio.save_distillation(args.out, result)
    n_classes = len(result.classes)
    print(
        f"distilled {points.shape[0]} points in {n_classes} classes "
        f"to {args.ipc} per class -> {args.out}"
    )
    return 0


def cmd_diffuse(args) -> int:
    seed = _resolve_seed(args.seed)
    result = latentio.load_distillation(args.distilled)
    with _open_cloud(args.latents, args.labels) as (points, labels):
        if points.shape[1] != result.dim:
            raise DimensionError(
                f"reference points in {args.latents} have dimension {points.shape[1]}, "
                f"but {args.distilled} has dimension {result.dim}"
            )
        missing = [cls.label for cls in result.classes if cls.label > labels.max()]
        if missing:
            raise ValueError(
                f"{args.labels}: reference data has no points for class {min(missing)}"
            )
        sde = SdeSpec(args.sde, args.horizon, args.delta, args.steps)
        transported = pipeline.diffuse(result, points, labels, sde, args.mc, seed)
    latentio.save_transported(args.out, transported)
    for cls in transported.classes:
        report = cls.report
        status = "within" if report.passed else "EXCEEDS"
        print(
            f"class {cls.label}: gap={report.lhs:.6g} {status} "
            f"ceiling={report.rhs:.6g} (w2={report.wasserstein:.6g})"
        )
    print(f"transported {len(transported.classes)} classes -> {args.out}")
    return 0


def cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    result = latentio.load_distillation(args.distilled)
    if args.eval_latents is not None and args.eval_labels is None:
        raise ValueError("--eval-labels is required with --eval-latents")
    if args.eval_labels is not None and args.eval_latents is None:
        raise ValueError("--eval-latents is required with --eval-labels")
    with contextlib.ExitStack() as stack:
        eval_points = eval_labels = None
        if args.eval_latents is not None:
            eval_points, eval_labels = stack.enter_context(
                _open_cloud(args.eval_latents, args.eval_labels)
            )
            if eval_points.shape[1] != result.dim:
                raise DimensionError(
                    f"eval points in {args.eval_latents} have dimension "
                    f"{eval_points.shape[1]}, but {args.distilled} has dimension {result.dim}"
                )
            n_classes = max(cls.label for cls in result.classes) + 1
            if eval_labels.max() >= n_classes:
                raise ValueError(
                    f"{args.eval_labels}: eval labels name class {eval_labels.max()}, "
                    f"but {args.distilled} has classes 0 to {n_classes - 1}"
                )
        _, report = pipeline.train(
            result,
            weight_mode=args.weights,
            model=args.model,
            learning_rate=args.lr,
            epochs=args.epochs,
            seed=seed,
            eval_points=eval_points,
            eval_labels=eval_labels,
        )
    latentio.save_train_report(args.out, report)
    line = (
        f"final loss {report.final_loss:.6g}, "
        f"distilled accuracy {report.train_accuracy:.6g}"
    )
    if report.eval_accuracy is not None:
        line += f", eval accuracy {report.eval_accuracy:.6g}"
    print(line + f" -> {args.out}")
    return 0


def cmd_w2(args) -> int:
    left = DiscreteMeasure.uniform(latentio.load_latents(args.left))
    right = DiscreteMeasure.uniform(latentio.load_latents(args.right))
    print(w2(left, right))
    return 0


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"levels must be comma-separated integers, got {text!r}")
    if not levels:
        raise ValueError("levels must name at least one quantization size")
    return levels


def cmd_rate_scan(args) -> int:
    seed = _resolve_seed(args.seed)
    levels = _parse_levels(args.levels)
    scan = rate_scan(
        UniformCubeSampler(args.dim),
        levels,
        args.samples,
        np.random.SeedSequence(seed),
        n_restarts=args.restarts,
    )
    for k, err in zip(scan.levels, scan.errors):
        print(f"K={int(k)} error={err:.6g}")
    expected = -1.0 / args.dim
    print(f"fitted slope {scan.fitted_slope:.6g} (expected {expected:.6g})")
    if args.out is not None:
        doc = {
            "seed": seed,
            "dim": args.dim,
            "samples": args.samples,
            "restarts": args.restarts,
            "levels": scan.levels,
            "errors": scan.errors,
            "fitted_slope": scan.fitted_slope,
        }
        latentio.save_document(args.out, latentio.RATE_SCAN_FORMAT, doc)
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    records = verification.run_checks(args.suite, seed)
    for record in records:
        print(record.line())
    n_passed = sum(record.passed for record in records)
    print(f"{n_passed}/{len(records)} checks passed")
    if args.out is not None:
        doc = {
            "suite": args.suite,
            "seed": seed,
            "n_checks": len(records),
            "n_passed": int(n_passed),
            "checks": records,
        }
        latentio.save_document(args.out, latentio.VERIFICATION_FORMAT, doc)
    return 0 if n_passed == len(records) else 1


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (default: ${SEED_ENV} or 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantdistill",
        description="Weighted quantization, optimal transport, and "
        "diffusion-based distillation of latent point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "distill",
        help="quantize each class of a labeled latent cloud",
        description="Quantize each class of a labeled latent cloud into weighted "
        "centroids. A binary latent file is read one class at a time, as each "
        "class is quantized, so the first error reported (a non-finite row, too "
        "few distinct points, or a centroid that never won a draw) is that of the "
        "lowest failing class.",
    )
    p.add_argument("--latents", required=True, help="latent point file (.bin or .csv)")
    p.add_argument("--labels", required=True, help="one integer label per line")
    p.add_argument("--ipc", type=int, required=True, help="centroids per class")
    _add_seed(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument(
        "--batch-size",
        type=int,
        default=pipeline.DEFAULT_BATCH_SIZE,
        help="draws per mini-batch k-means batch",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=pipeline.DEFAULT_N_ITERATIONS,
        help="number of batches per class",
    )
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser(
        "diffuse", help="transport distilled centroids through the reverse flow"
    )
    p.add_argument("--distilled", required=True, help="distillation JSON")
    p.add_argument("--latents", required=True, help="reference latent file")
    p.add_argument("--labels", required=True, help="reference labels")
    p.add_argument(
        "--sde",
        choices=(BROWNIAN, ORNSTEIN_UHLENBECK),
        default=BROWNIAN,
        help="noising process",
    )
    p.add_argument("--horizon", type=float, default=1.0, help="forward end time")
    p.add_argument("--delta", type=float, default=0.25, help="early stop time")
    p.add_argument("--steps", type=int, default=200, help="reverse Euler steps")
    p.add_argument("--mc", type=int, default=2000, help="Monte Carlo cloud size")
    _add_seed(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser(
        "train", help="fit a small classifier on a distilled cloud"
    )
    p.add_argument("--distilled", required=True, help="distillation JSON")
    p.add_argument(
        "--weights",
        choices=WEIGHT_MODES,
        default="normalized",
        help="loss weights: the cell masses (normalized) or all ones (uniform)",
    )
    p.add_argument(
        "--model",
        default="logistic",
        help="'logistic' or 'hidden:W' for one tanh layer of width W",
    )
    p.add_argument("--lr", type=float, default=1.0, help="initial step size")
    p.add_argument("--epochs", type=int, default=200)
    _add_seed(p)
    p.add_argument("--out", required=True, help="output report path")
    p.add_argument("--eval-latents", default=None, help="held-out latent file")
    p.add_argument("--eval-labels", default=None, help="held-out labels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "w2", help="exact Wasserstein-2 distance between two latent files"
    )
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_w2)

    p = sub.add_parser(
        "rate-scan", help="fit the quantization error decay rate on the uniform cube"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--levels", required=True, help="comma-separated centroid counts, e.g. 4,8,16"
    )
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--restarts", type=int, default=5)
    _add_seed(p)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_rate_scan)

    p = sub.add_parser("verify", help="run the empirical property checks")
    p.add_argument(
        "--suite",
        choices=("all",) + verification.SUITES,
        default="all",
    )
    _add_seed(p)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuantDistillError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
