"""quantdistill benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes its inputs with ``gen.py`` in a process of its own, fills the
bytecode cache with one import-only process, then starts the measured
process (``child.py``) again and again until ``--seconds`` have passed, with
at least ``MIN_REPS`` of them, cycling through the workload's instances.
Each measured process imports ``quantdistill`` from ``src/`` of the
checkout, runs the workload's five CLI stages through ``cli.main`` and
exits, so its peak RSS and set-up time are its own.

Every output is checked: each document reloads through its ``latentio``
loader, every bound report has ``passed``, the printed ``w2`` matches an
independent ``linear_sum_assignment`` solution to 1e-9 relative, and every
repetition, traced or not, writes the same bytes as the first of its
instance. A stage that exits nonzero, raises, or fails a check counts as
failed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
(timings are medians over repetitions, quality metrics means over
instances); with ``--trace 1`` untraced and traced processes alternate and
it reports the per-layer metrics from the traced ones, the tracing
overhead, and how much of each stage is orchestration. The line before it
records the environment and the input sizes. Work files
go to ``.bench_work/`` in the checkout; inputs and outputs are deleted at
the end, the per-repetition summary and the span file are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
from gen import read_latents, read_labels  # noqa: E402
from workloads import INSTANCES, STAGES, WORKLOADS, stage_argvs  # noqa: E402

# An untraced run cycles through the workload's instances; a traced run uses
# the first instance only, so that its counts repeat exactly.
MIN_REPS = INSTANCES + 1  # every instance runs, and the first runs twice
MIN_TRACED_PAIRS = 2  # untraced/traced pairs per traced run
HARD_STOP_S = 150.0  # start no repetition expected to end after this
DEADLINE_S = 170.0  # a measured process still running then is killed
PREP_TIMEOUT_S = 60.0  # input generation and the import-only process
BLAS_THREADS = 1  # the cap set for every process the benchmark starts
W2_RTOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "distill_s": "s",
    "diffuse_s": "s",
    "train_s": "s",
    "w2_s": "s",
    "rate_scan_s": "s",
    "peak_rss_mb": "MB",
    "distill_w2": "latent",
    "eval_accuracy": "share",
}

_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "temp_mb": "MB", "peak_temp_mb": "MB",
    "steps": "count", "distance_calls": "count", "lp_vars": "count",
    "flows": "count", "pairs": "count", "calls_per_epoch": "ratio",
    "bytes": "B", "bound_ratio": "ratio", "slope_gap": "ratio",
    "overhead_s": "s", "orchestration_share": "share",
}
PER_LAYER = [
    "measures.squared_distances.calls",
    "measures.squared_distances.self_s",
    "measures.squared_distances.temp_mb",
    "measures.squared_distances.peak_temp_mb",
    "quantize.clvq.calls",
    "quantize.clvq.self_s",
    "quantize.clvq.steps",
    "quantize.init_grid.calls",
    "quantize.init_grid.self_s",
    "quantize.lloyd.calls",
    "quantize.lloyd.self_s",
    "quantize.lloyd.distance_calls",
    "transport.w2_discrete.calls",
    "transport.w2_discrete.self_s",
    "transport.w2_discrete.lp_vars",
    "transport.w2_discrete.flows",
    "transport.rate_scan.self_s",
    "transport.rate_scan.slope_gap",
    "diffusion.analytic_score.calls",
    "diffusion.analytic_score.self_s",
    "diffusion.analytic_score.pairs",
    "diffusion.analytic_score.temp_mb",
    "diffusion.reverse_integrate.calls",
    "diffusion.reverse_integrate.self_s",
    "diffusion.transport_quantization.calls",
    "diffusion.transport_quantization.self_s",
    "diffusion.transport_quantization.bound_ratio",
    "risk.loss_and_gradient.calls",
    "risk.loss_and_gradient.self_s",
    "risk.loss_and_gradient.calls_per_epoch",
    "risk.train_weighted.self_s",
    "latentio.load_latents.calls",
    "latentio.load_latents.self_s",
    "latentio.load_latents.bytes",
    "latentio.save_documents.self_s",
    "latentio.save_documents.bytes",
    "latentio.load_documents.self_s",
    "pipeline.distill.self_s",
    "pipeline.diffuse.self_s",
    "pipeline.train.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
    "trace.orchestration_share",
]


def layer_unit(name: str) -> str:
    return _LAYER_UNITS[name.rsplit(".", 1)[1]]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def squared_distances(a: np.ndarray, b: np.ndarray, rows: int = 64) -> np.ndarray:
    """Direct differencing in row blocks, independent of package code."""
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], rows):
        diff = a[lo:lo + rows, None, :] - b[None, :, :]
        out[lo:lo + rows] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


class Run:
    """One benchmark run: inputs, repetitions, checks and metrics."""

    OUTPUTS = {
        "distill": "distilled.json",
        "diffuse": "transported.json",
        "train": "report.json",
        "rate_scan": "scan.json",
    }

    def __init__(self, workload: str, seed: int, tiny: bool, trace: bool, started: float):
        self.name, self.seed, self.tiny, self.trace = workload, seed, tiny, trace
        self.started = started
        self.spec = WORKLOADS[workload].sized(tiny)
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.inputs = self.work / "inputs"
        self.out = self.work / "out"
        self.env = child_env()
        self.reps = []
        self.reference = {}  # instance -> output hashes and stdout of its first repetition
        self.quality = {}  # instance -> quality metrics of its outputs

    def prepare(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        gen = [sys.executable, str(BENCH / "gen.py"), "--workload", self.name,
               "--seed", str(self.seed), "--out", str(self.inputs)]
        subprocess.run(gen + (["--tiny"] if self.tiny else []), env=self.env,
                       check=True, timeout=PREP_TIMEOUT_S)
        for instance in range(INSTANCES):
            argvs = stage_argvs(self.spec, self.seed, instance,
                                str(self.inputs), str(self.out))
            self.plan(instance).write_text(json.dumps(argvs))
        subprocess.run([sys.executable, str(BENCH / "child.py"), "--src", str(SRC)],
                       env=self.env, check=True, timeout=PREP_TIMEOUT_S)
        return json.loads((self.inputs / "manifest.json").read_text())

    def plan(self, instance: int) -> Path:
        return self.work / f"plan{instance}.json"

    def repetition(self, traced: bool, instance: int) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
               "--plan", str(self.plan(instance)), "--result", str(result_path),
               "--trace", str(int(traced))]
        if traced and not any(rep["traced"] for rep in self.reps):
            cmd += ["--spans", str(self.work / "spans.jsonl")]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
            error = None if proc.returncode == 0 else proc.stderr
        except subprocess.TimeoutExpired:
            error = "measured process killed at the run's deadline"
        ended = time.clock_gettime(time.CLOCK_MONOTONIC)
        if error is not None or not result_path.exists():
            sys.stderr.write(f"{self.name}: {error}\n")
            rep = {"process_failed": True,
                   "stages": [{"name": s, "exit": None, "error": "process failed"}
                              for s in STAGES]}
        else:
            rep = json.loads(result_path.read_text())
            rep["setup_s"] = rep["first_stage"] - spawn
        rep["traced"] = traced
        rep["instance"] = instance
        rep["elapsed_s"] = ended - spawn
        rep["failures"] = self.check(rep, instance)
        for failure in rep["failures"]:
            sys.stderr.write(f"{self.name}: {failure}\n")
        self.reps.append(rep)
        return rep

    def check(self, rep: dict, instance: int) -> list:
        """Failed checks, one string each, prefixed by the stage they fail."""
        failures = []
        outputs = {}
        for stage in rep["stages"]:
            name = stage["name"]
            if stage.get("exit") != 0 or stage.get("error"):
                failures.append(f"{name}: exit {stage.get('exit')} {stage.get('error') or ''}"
                                f"{stage.get('stderr', '')}".strip())
                continue
            path = self.out / self.OUTPUTS[name] if name in self.OUTPUTS else None
            outputs[name] = (sha256(path) if path and path.exists() else None,
                             stage["stdout"])
        reference = self.reference.get(instance)
        if reference is None:
            if failures:
                return failures
            self.reference[instance] = outputs
            self.quality[instance] = {}
            failures += self.check_documents(rep, self.quality[instance])
        else:
            for name, value in outputs.items():
                if value != reference.get(name):
                    failures.append(f"{name}: output bytes differ from the first repetition")
        return failures

    def check_documents(self, rep: dict, quality: dict) -> list:
        """Reload every document and compare w2 with an independent solve."""
        sys.path.insert(0, str(SRC))
        from quantdistill import latentio
        from scipy.optimize import linear_sum_assignment

        failures = []
        try:
            distilled = latentio.load_distillation(self.out / "distilled.json")
        except Exception as exc:  # any reload failure is a failed check
            failures.append(f"distill: document does not reload: {exc!r}")
            distilled = None
        try:
            transported = latentio.load_transported(self.out / "transported.json")
            for cls in transported.classes:
                if not cls.report.passed:
                    failures.append(f"diffuse: class {cls.label} bound report failed")
        except Exception as exc:
            failures.append(f"diffuse: document does not reload: {exc!r}")
        try:
            report = latentio.load_train_report(self.out / "report.json")
            quality["eval_accuracy"] = report.eval_accuracy
        except Exception as exc:
            failures.append(f"train: document does not reload: {exc!r}")
        # rate-scan documents have no latentio loader; parse and check the tag.
        try:
            scan = json.loads((self.out / "scan.json").read_text())
            if scan.get("format") != "quantdistill.rate_scan" or not scan.get("errors"):
                failures.append("rate_scan: not a rate-scan document")
        except (OSError, ValueError) as exc:
            failures.append(f"rate_scan: document does not reload: {exc!r}")
        w2_stage = next(s for s in rep["stages"] if s["name"] == "w2")
        left = read_latents(self.inputs / f"w2_left{rep['instance']}.bin")
        right = read_latents(self.inputs / f"w2_right{rep['instance']}.bin")
        cost = squared_distances(left, right)
        rows, cols = linear_sum_assignment(cost)
        expected = float(np.sqrt(cost[rows, cols].sum() / left.shape[0]))
        try:
            printed = float(w2_stage["stdout"].strip())
        except ValueError:
            printed = float("nan")
        if not abs(printed - expected) <= W2_RTOL * expected:
            failures.append(f"w2: printed {printed!r}, assignment gives {expected!r}")
        if distilled is not None:
            quality["distill_w2"] = self.distill_w2(distilled)
        return failures

    def distill_w2(self, distilled) -> float:
        """Mean over classes of the root quantization error of the class cloud."""
        points = read_latents(self.inputs / "latents.bin")
        labels = read_labels(self.inputs / "labels.csv")
        errors = []
        for cls in distilled.classes:
            d2 = squared_distances(points[labels == cls.label], cls.centroids)
            errors.append(np.sqrt(d2.min(axis=1).mean()))
        return float(np.mean(errors))

    def loop(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while True:
            untraced = sum(not rep["traced"] for rep in self.reps)
            traced = len(self.reps) - untraced
            if self.trace:
                enough = min(untraced, traced) >= MIN_TRACED_PAIRS
                next_traced, instance = traced < untraced, 0
            else:
                enough = untraced >= MIN_REPS
                next_traced, instance = False, len(self.reps) % INSTANCES
            if enough and time.monotonic() >= deadline:
                return
            last = self.reps[-1]["elapsed_s"] if self.reps else 0.0
            if self.reps and time.monotonic() - self.started + last > HARD_STOP_S:
                return
            if self.repetition(next_traced, instance).get("process_failed"):
                return

    def attempted_failed(self) -> tuple[int, int]:
        attempted = len(self.reps) * len(STAGES)
        failed_stages = set()
        for index, rep in enumerate(self.reps):
            for failure in rep["failures"]:
                failed_stages.add((index, failure.split(":", 1)[0]))
        return attempted, len(failed_stages)

    def stage_seconds(self, reps: list) -> dict:
        by_stage = {name: [] for name in STAGES}
        walls = []
        for rep in reps:
            for stage in rep["stages"]:
                by_stage[stage["name"]].append(stage["seconds"])
            walls.append(sum(stage["seconds"] for stage in rep["stages"]))
        medians = {f"{name}_s": statistics.median(v) for name, v in by_stage.items()}
        medians["wall_s"] = statistics.median(walls)
        return medians

    def metrics(self) -> dict:
        good = [rep for rep in self.reps if not rep["failures"]]
        if not good:
            return {}
        untraced = [rep for rep in good if not rep["traced"]]
        traced = [rep for rep in good if rep["traced"]]
        if not untraced or (self.trace and not traced):
            return {}
        if not self.trace:
            values = self.stage_seconds(untraced)
            values["setup_s"] = statistics.median(rep["setup_s"] for rep in untraced)
            values["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in untraced)
            for name in ("distill_w2", "eval_accuracy"):
                per_instance = [q[name] for q in self.quality.values() if name in q]
                if per_instance:
                    values[name] = statistics.fmean(per_instance)
            return {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items() if name in values}
        values = {}
        for name in PER_LAYER:
            samples = [rep["layers"].get(name, 0.0) for rep in traced]
            values[name] = statistics.median(samples)
        values["trace.overhead_s"] = (
            self.stage_seconds(traced)["wall_s"] - self.stage_seconds(untraced)["wall_s"]
        )
        values["trace.orchestration_share"] = statistics.median(
            self.orchestration_share(rep) for rep in traced
        )
        return {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}

    @staticmethod
    def orchestration_share(rep: dict) -> float:
        """Largest share of cli.main plus pipeline.* self time in a stage of >= 0.5 s."""
        rows = rep["orchestration"]
        long = [row for row in rows if row[1] >= 0.5] or rows
        return max(orch / total for _, total, orch in long)

    def finish(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        for instance in range(INSTANCES):
            self.plan(instance).unlink(missing_ok=True)
        (self.work / "result.json").unlink(missing_ok=True)
        (self.work / "summary.json").write_text(json.dumps(self.reps, indent=1) + "\n")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long input sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "quantdistill" / "__init__.py").is_file():
        print(f"error: no quantdistill package under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.tiny, bool(args.trace), started)
    try:
        manifest = run.prepare()
        run.loop(args.seconds)
        metrics = run.metrics()
    finally:
        run.finish()
    attempted, failed = run.attempted_failed()
    record = {"env": environment(), "inputs": manifest["files"], "reps": len(run.reps),
              "traced_reps": sum(rep["traced"] for rep in run.reps)}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
