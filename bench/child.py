"""The measured process: run one workload's CLI stages in process.

Usage: python3 bench/child.py --src DIR --plan PLAN.json --result OUT.json
       [--trace 0|1] [--spans SPANS.jsonl]

Imports ``quantdistill`` from ``--src``, optionally installs the tracer,
then calls ``cli.main`` once per stage of the plan and times each call,
file I/O included. The result records the monotonic clock at the start of
the first stage (the parent measures set-up time against its spawn time),
each stage's time, exit status, traceback, stdout and stderr, the
process's own peak RSS and, when traced, the per-layer summary. With
``--plan`` omitted it only imports the package, which fills the bytecode
cache before timed runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def import_package(src: Path):
    sys.path.insert(0, str(src))
    import quantdistill
    from quantdistill import cli

    if not Path(quantdistill.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"quantdistill imported from {quantdistill.__file__}, not {src}")
    return cli


def run_stages(cli, plan, tracer=None) -> list:
    stages = []
    for index, (name, argv) in enumerate(plan):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.stage = index
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a failed stage is recorded and the run goes on
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        stages.append({
            "name": name,
            "seconds": seconds,
            "exit": code,
            "error": error,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    cli = import_package(Path(args.src))
    if args.plan is None:
        return 0
    plan = json.loads(Path(args.plan).read_text())
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_stage = time.clock_gettime(time.CLOCK_MONOTONIC)
    stages = run_stages(cli, plan, tracer)
    result = {
        "first_stage": first_stage,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["orchestration"] = tracer.stage_orchestration()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
