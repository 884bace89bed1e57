"""Spans and counts at the public functions of each quantdistill layer.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the name in every package module that holds it, so
calls between modules and within a module both pass through the wrapper.
Each call records a span (id, name, start, end, parent span, stage id) in
memory; counts are taken at the same boundaries from the call's arguments
and result. ``summary`` turns the spans into calls and self time (a span's
duration minus that of its child spans) per function, plus the counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("measures", "quantize", "transport", "diffusion", "risk", "latentio", "pipeline", "cli")

# Per-value renderers, called once per number written to a document; a span
# for each would cost more than the work it measures.
UNTRACED = {"latentio.format_float", "latentio.render_json"}

# Document writers and readers are reported as one group each.
GROUPS = {
    "latentio.save_distillation": "latentio.save_documents",
    "latentio.save_transported": "latentio.save_documents",
    "latentio.save_train_report": "latentio.save_documents",
    "latentio.load_distillation": "latentio.load_documents",
    "latentio.load_transported": "latentio.load_documents",
    "latentio.load_train_report": "latentio.load_documents",
}

MB = 1e6


def _public_functions(module, layer):
    for name, value in list(vars(module).items()):
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue
        if layer == "cli" and name != "main":  # subcommand bodies fold into main
            continue
        if f"{layer}.{name}" in UNTRACED:
            continue
        yield name, value


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None, stage id)
        self.counts = {}
        self.peaks = {}
        self._stack = []
        self.stage = None

    def install(self, package: str = "quantdistill") -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in _public_functions(module, layer):
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap(self, name, fn):
        counted = GROUPS.get(name, name)
        hook = getattr(self, "_count_" + counted.replace(".", "_"), None)
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.stage)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counted, bound.arguments, result)
            return result

        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + float(value)

    def _peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), float(value))

    # Counters. Temporary sizes are computed from shapes (n*K*d*8 bytes),
    # not measured.
    def _count_measures_squared_distances(self, name, a, result):
        n, d = a["points"].shape
        k = a["centroids"].shape[0]
        mb = n * k * d * 8 / MB
        self._add(name + ".temp_mb", mb)
        self._peak(name + ".peak_temp_mb", mb)

    def _count_quantize_clvq(self, name, a, result):
        self._add(name + ".steps", result.counts.sum())

    def _count_transport_w2_discrete(self, name, a, result):
        self._add(name + ".lp_vars", a["mu"].n_atoms * a["nu"].n_atoms)
        self._add(name + ".flows", result[1].mass.shape[0])

    def _count_transport_rate_scan(self, name, a, result):
        self._peak(name + ".slope_gap", abs(result.fitted_slope + 1.0 / a["sampler"].dim))

    def _count_diffusion_analytic_score(self, name, a, result):
        x = a["x"]
        n = 1 if getattr(x, "ndim", 2) == 1 else len(x)
        m, d = a["ref"].base.atoms.shape
        self._add(name + ".pairs", n * m)
        self._add(name + ".temp_mb", n * m * d * 8 / MB)

    def _count_diffusion_transport_quantization(self, name, a, result):
        self._peak(name + ".bound_ratio", result[1].ratio)

    def _count_risk_train_weighted(self, name, a, result):
        self._add(name + ".epochs", a["epochs"])

    def _count_latentio_load_latents(self, name, a, result):
        self._add(name + ".bytes", os.path.getsize(a["path"]))

    def _count_latentio_save_documents(self, name, a, result):
        self._add(name + ".bytes", os.path.getsize(a["path"]))

    def _self_times(self) -> dict:
        """Span id -> duration minus the durations of its direct children."""
        self_s = {span_id: end - start for span_id, _, start, end, _, _ in self.spans}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_s[parent] -= end - start
        return self_s

    def summary(self) -> dict:
        """Calls, self time and counters per function and group, per run."""
        self_s = self._self_times()
        out = dict(self.counts)
        out.update(self.peaks)
        for span_id, name, _, _, _, _ in self.spans:
            for key in {name, GROUPS.get(name, name)}:
                out[key + ".calls"] = out.get(key + ".calls", 0) + 1
                out[key + ".self_s"] = out.get(key + ".self_s", 0.0) + self_s[span_id]
        out["quantize.lloyd.distance_calls"] = self._calls_under(
            "measures.squared_distances", "quantize.lloyd"
        )
        lg_calls = self._calls_under("risk.loss_and_gradient", "risk.train_weighted")
        epochs = self.counts.get("risk.train_weighted.epochs", 0.0)
        out["risk.loss_and_gradient.calls_per_epoch"] = lg_calls / epochs if epochs else 0.0
        return out

    def _calls_under(self, name, ancestor) -> int:
        """Spans of ``name`` with a span of ``ancestor`` above them."""
        by_id = {span[0]: (span[1], span[4]) for span in self.spans}
        count = 0
        for span_name, parent in by_id.values():
            if span_name != name:
                continue
            while parent is not None:
                parent_name, parent = by_id[parent]
                if parent_name == ancestor:
                    count += 1
                    break
        return count

    def stage_orchestration(self) -> list:
        """Per stage: (stage id, cli.main duration, cli.main + pipeline.* self time)."""
        self_s = self._self_times()
        stages = {}
        for span_id, name, start, end, parent, stage in self.spans:
            row = stages.setdefault(stage, [0.0, 0.0])
            if name == "cli.main" and parent is None:
                row[0] += end - start
            if name == "cli.main" or name.startswith("pipeline."):
                row[1] += self_s[span_id]
        return [(stage, total, orch) for stage, (total, orch) in sorted(stages.items())]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                keys = ("id", "name", "start", "end", "parent", "stage")
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
