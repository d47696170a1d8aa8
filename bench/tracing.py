"""In-process traced runs of the uapca CLI.

The tracer wraps the public functions the CLI and its layers call, in every
``uapca`` module that binds them, so spans follow the real call path and
nothing under ``src/`` changes.  Spans stay in memory as (name, start, end,
parent) and are written out when the run ends.  A target that a later
version of the library no longer defines is skipped and reports zero
calls.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Span name -> (module under uapca, function name).
TARGETS = {
    "cli.main": ("cli", "main"),
    "io.load_dataset": ("io", "load_dataset"),
    "io.load_points": ("io", "load_points"),
    "io.points_dataset": ("io", "points_dataset"),
    "io.write_projection_csv": ("io", "write_projection_csv"),
    "io.write_traces_csv": ("io", "write_traces_csv"),
    "io.write_eigencurves_csv": ("io", "write_eigencurves_csv"),
    "io.write_experiment_csv": ("io", "write_experiment_csv"),
    "cov.global_cov": ("cov", "global_cov"),
    "eigen.eig_sym": ("eigen", "eig_sym"),
    "eigen.select_components": ("eigen", "select_components"),
    "sensitivity.sweep": ("sensitivity", "sweep"),
    "sensitivity.factor_traces": ("sensitivity", "factor_traces"),
    "sensitivity.detect_avoided_crossings": ("sensitivity", "detect_avoided_crossings"),
    "project.project_distribution": ("project", "project_distribution"),
    "project.ellipse_outline": ("project", "ellipse_outline"),
    "svg.render_projection_svg": ("svg", "render_projection_svg"),
    "svg.render_traces_svg": ("svg", "render_traces_svg"),
    "svg.render_eigencurves_svg": ("svg", "render_eigencurves_svg"),
    "metrics.run_convergence_experiment": ("metrics", "run_convergence_experiment"),
    "metrics.sampled_pca": ("metrics", "sampled_pca"),
    "metrics.hellinger": ("metrics", "hellinger"),
}

# Per-layer metrics in report order, with units.
PER_LAYER = {
    "io.load_s": "s",
    "io.input_bytes": "bytes",
    "io.build_s": "s",
    "io.write_s": "s",
    "io.csv_bytes": "bytes",
    "model.moments_s": "s",
    "model.items": "count",
    "cov.global_cov_s": "s",
    "eigen.eig_sym_s": "s",
    "eigen.eig_sym_calls": "count",
    "sensitivity.sweep_self_s": "s",
    "sensitivity.factor_traces_s": "s",
    "sensitivity.crossing_flags": "count",
    "project.project_s": "s",
    "project.ellipse_s": "s",
    "svg.render_self_s": "s",
    "svg.bytes": "bytes",
    "metrics.sampled_pca_s": "s",
    "metrics.hellinger_s": "s",
    "metrics.samples_drawn": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_input(tracer, args, kwargs, result):
    tracer.counts["io.input_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _note_csv(tracer, args, kwargs, result):
    tracer.counts["io.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _note_svg(tracer, args, kwargs, result):
    tracer.counts["svg.bytes"] += len(result.encode("utf-8"))


def _note_dataset(tracer, args, kwargs, result):
    ds = _arg(args, kwargs, 0, "ds")
    tracer.datasets.setdefault(id(ds), ds)


def _note_flags(tracer, args, kwargs, result):
    tracer.counts["sensitivity.crossing_flags"] += len(result)


def _note_samples(tracer, args, kwargs, result):
    ds = _arg(args, kwargs, 0, "ds")
    tracer.counts["metrics.samples_drawn"] += int(_arg(args, kwargs, 1, "samples_per_item")) * len(ds)


NOTES = {
    "io.load_dataset": _note_input,
    "io.load_points": _note_input,
    "io.write_projection_csv": _note_csv,
    "io.write_traces_csv": _note_csv,
    "io.write_eigencurves_csv": _note_csv,
    "io.write_experiment_csv": _note_csv,
    "svg.render_projection_svg": _note_svg,
    "svg.render_traces_svg": _note_svg,
    "svg.render_eigencurves_svg": _note_svg,
    "cov.global_cov": _note_dataset,
    "sensitivity.detect_avoided_crossings": _note_flags,
    "metrics.sampled_pca": _note_samples,
}


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.datasets: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if note is not None:
                note(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uapca" or n.startswith("uapca."))]
        for name, (home, attr) in TARGETS.items():
            original = getattr(sys.modules.get(f"uapca.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def probe_moments(self) -> None:
        """One mean()/cov() pass over every dataset the CLI accumulated.

        This runs after the CLI returns, off its call path, so that item
        moment cost shows apart from the accumulation that wraps it.
        """
        index = len(self.spans)
        self.spans.append(["model.moments", 0.0, 0.0, -1])
        start = time.perf_counter()
        for ds in self.datasets.values():
            for item in ds.items:
                item.mean()
                item.cov()
        self.spans[index][1:3] = [start, time.perf_counter()]
        self.counts["model.items"] = sum(len(ds) for ds in self.datasets.values())

    def call_counts(self) -> dict[str, int]:
        out = dict.fromkeys(TARGETS, 0)
        for name, *_ in self.spans:
            if name in out:
                out[name] += 1
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals and self times; trace.overhead_frac is added later."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]

        def sum_of(table, *names):
            return sum(table[n] for n in names)

        out = {
            "io.load_s": sum_of(total, "io.load_dataset", "io.load_points"),
            "io.build_s": total["io.points_dataset"],
            "io.write_s": sum_of(total, "io.write_projection_csv", "io.write_traces_csv",
                                 "io.write_eigencurves_csv", "io.write_experiment_csv"),
            "model.moments_s": total["model.moments"],
            "cov.global_cov_s": total["cov.global_cov"],
            "eigen.eig_sym_s": total["eigen.eig_sym"],
            "eigen.eig_sym_calls": self.call_counts()["eigen.eig_sym"],
            "sensitivity.sweep_self_s": self_time["sensitivity.sweep"],
            "sensitivity.factor_traces_s": total["sensitivity.factor_traces"],
            "project.project_s": total["project.project_distribution"],
            "project.ellipse_s": total["project.ellipse_outline"],
            "svg.render_self_s": sum_of(self_time, "svg.render_projection_svg",
                                        "svg.render_traces_svg", "svg.render_eigencurves_svg"),
            "metrics.sampled_pca_s": total["metrics.sampled_pca"],
            "metrics.hellinger_s": total["metrics.hellinger"],
            "cli.self_s": self_time["cli.main"],
        }
        for name in COUNTS:
            out.setdefault(name, self.counts[name])
        return out
