"""Span tracer for the calls that cross curveflow's module boundaries.

``Tracer.install`` wraps each function in ``LAYERS`` wherever it is bound:
in the module that defines it and in every curveflow module that imported
it by name (csf and vfe bind geometry names, cli binds storage names), so
patching the defining module alone would miss the engines' calls.
``SampledCurve`` is traced through ``__post_init__``, which runs on every
construction. Calls inside a module that go through its globals, such as
``frenet`` calling ``segment_lengths``, are traced as well.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until ``summary`` reduces them. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = {
    "geometry": ("segment_lengths", "total_length", "cumulative_arclength",
                 "resample_arclength", "_lagrange_d1_d2", "_one_sided_weights",
                 "arclength_derivatives", "frenet", "integrate_along",
                 "enclosed_area", "directed_hausdorff", "hausdorff_distance",
                 "curve_diameter"),
    "csf": ("evolve", "distance_ratio", "distance_ratio_series",
            "huisken_functional", "huisken_series", "arclength_rate_residual",
            "curvature_evolution_residual", "parabolic_rescale"),
    "vfe": ("evolve", "_velocity", "binormal_velocity"),
    "hasimoto": ("hasimoto_transform", "nlcse_step", "nlcse_evolve",
                 "reconstruct_frame"),
    "csf_solitons": ("integrate_profile", "reconstruct_curve", "soliton_residual",
                     "apply_similarity"),
    "vfe_solitons": ("xaxis_rotation_profile", "planar_rotation_profile",
                     "transverse_rotation_profile", "rotation_residual"),
    "storage": ("write_curve", "read_curve", "write_trajectory", "read_trajectory",
                "write_table", "write_diagnostics", "file_sha256",
                "append_run_manifest"),
    "cli": ("main", "cmd_csf_evolve", "cmd_diagnose_residuals"),
}
ENGINES = ("csf.evolve", "vfe.evolve")
STENCIL = "geometry._lagrange_d1_d2"


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.engine_steps: Counter = Counter()
        self.engine_frames: Counter = Counter()
        self.open_stencil_calls = 0
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        engine, stencil = name in ENGINES, name == STENCIL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            if stencil and not (args[2] if len(args) > 2 else kwargs["closed"]):
                self.open_stencil_calls += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if engine:
                self.engine_steps[name] += result.steps_taken
                self.engine_frames[name] += len(result.frames)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "curveflow" or key.startswith("curveflow.")]
        for mod_name, functions in LAYERS.items():
            mod = importlib.import_module(f"curveflow.{mod_name}")
            for fname in functions:
                # a function that a refactor removed is skipped: it reads as
                # zero calls, and the benchmark keeps running
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                name = f"{mod_name}.{fname}"
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, orig))
        curve_cls = importlib.import_module("curveflow.geometry").SampledCurve
        orig = getattr(curve_cls, "__post_init__", None)
        if orig is not None:
            curve_cls.__post_init__ = self._wrap("geometry.SampledCurve", orig)
            self._patches.append((curve_cls, "__post_init__", orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and parent/child counts."""
        n = len(self.start)
        child_time = [0.0] * n
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        under: Counter = Counter()
        # a child is always recorded after its parent, so walking backwards
        # finishes every child before its parent is reduced
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name_of[i]]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child_time[i]
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur
                under[f"{self.names[self.name_of[p]]}>{name}"] += 1
        return {"spans": n, "calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "under": dict(under),
                "engine_steps": dict(self.engine_steps),
                "engine_frames": dict(self.engine_frames),
                "open_stencil_calls": self.open_stencil_calls}


def layer_metrics(summary: dict, outcome_counts: dict) -> dict:
    """The named layer metrics of one traced pass, as (value, unit) pairs."""
    calls = summary["calls"]
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    steps = summary["engine_steps"]
    frames = sum(summary["engine_frames"].values())
    all_steps = sum(steps.values())

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def per(count, base):
        return count / base if base else 0.0

    def step_us(name):
        return per(total_s.get(name, 0.0), steps.get(name, 0)) * 1e6

    return {
        "geometry.segment_lengths.calls_per_step":
            (per(c("geometry.segment_lengths"), all_steps), "calls/step"),
        "geometry.segment_lengths.self_s": (s("geometry.segment_lengths"), "s"),
        "geometry._lagrange_d1_d2.calls_per_step":
            (per(c("geometry._lagrange_d1_d2"), all_steps), "calls/step"),
        "geometry._lagrange_d1_d2.open_calls":
            (summary["open_stencil_calls"], "count"),
        "geometry._lagrange_d1_d2.self_s": (s("geometry._lagrange_d1_d2"), "s"),
        "geometry._one_sided_weights.self_s": (s("geometry._one_sided_weights"), "s"),
        "geometry.resample_arclength.calls": (c("geometry.resample_arclength"), "count"),
        "geometry.resample_arclength.self_s": (s("geometry.resample_arclength"), "s"),
        "geometry.SampledCurve.constructions_per_step":
            (per(c("geometry.SampledCurve"), all_steps), "calls/step"),
        "geometry.SampledCurve.self_s": (s("geometry.SampledCurve"), "s"),
        "geometry.integrate_along.calls_per_record":
            (per(c("geometry.integrate_along"), frames), "calls/frame"),
        "geometry.integrate_along.self_s": (s("geometry.integrate_along"), "s"),
        "geometry.frenet.self_s": (s("geometry.frenet"), "s"),
        "geometry.directed_hausdorff.calls": (c("geometry.directed_hausdorff"), "count"),
        "geometry.directed_hausdorff.self_s": (s("geometry.directed_hausdorff"), "s"),
        "geometry.curve_diameter.calls": (c("geometry.curve_diameter"), "count"),
        "geometry.curve_diameter.self_s": (s("geometry.curve_diameter"), "s"),
        "flow.frames_recorded": (frames, "count"),
        "flow.evolve.step_us": (per(sum(total_s.get(e, 0.0) for e in ENGINES),
                                    all_steps) * 1e6, "us"),
        "csf.evolve.steps": (steps.get("csf.evolve", 0), "count"),
        "csf.evolve.resamples":
            (summary["under"].get("csf.evolve>geometry.resample_arclength", 0), "count"),
        "csf.evolve.step_us": (step_us("csf.evolve"), "us"),
        "csf.evolve.self_s": (s("csf.evolve"), "s"),
        "csf.distance_ratio.self_s": (s("csf.distance_ratio"), "s"),
        "csf.huisken_functional.self_s": (s("csf.huisken_functional"), "s"),
        "csf.curvature_evolution_residual.self_s":
            (s("csf.curvature_evolution_residual"), "s"),
        "csf.parabolic_rescale.self_s": (s("csf.parabolic_rescale"), "s"),
        "vfe.evolve.steps": (steps.get("vfe.evolve", 0), "count"),
        "vfe.evolve.step_us": (step_us("vfe.evolve"), "us"),
        "vfe.evolve.self_s": (s("vfe.evolve"), "s"),
        "vfe._velocity.calls_per_step": (per(c("vfe._velocity"), all_steps), "calls/step"),
        "hasimoto.nlcse_step.calls": (c("hasimoto.nlcse_step"), "count"),
        "hasimoto.nlcse_step.step_us":
            (per(total_s.get("hasimoto.nlcse_step", 0.0), c("hasimoto.nlcse_step")) * 1e6,
             "us"),
        "hasimoto.reconstruct_frame.self_s": (s("hasimoto.reconstruct_frame"), "s"),
        "hasimoto.hasimoto_transform.self_s": (s("hasimoto.hasimoto_transform"), "s"),
        "csf_solitons.integrate_profile.calls":
            (c("csf_solitons.integrate_profile"), "count"),
        "csf_solitons.integrate_profile.self_s": (s("csf_solitons.integrate_profile"), "s"),
        "csf_solitons.soliton_residual.self_s": (s("csf_solitons.soliton_residual"), "s"),
        "vfe_solitons.profiles.self_s":
            (sum(s(f"vfe_solitons.{f}") for f in LAYERS["vfe_solitons"][:3]), "s"),
        "vfe_solitons.rotation_residual.self_s": (s("vfe_solitons.rotation_residual"), "s"),
        "storage.write_curve.calls": (c("storage.write_curve"), "count"),
        "storage.write_curve.self_s": (s("storage.write_curve"), "s"),
        "storage.bytes_written": (outcome_counts.get("bytes_written", 0), "bytes"),
        "storage.read_curve.self_s": (s("storage.read_curve"), "s"),
        "storage.file_sha256.self_s": (s("storage.file_sha256"), "s"),
        "cli.csf_evolve.s": (total_s.get("cli.cmd_csf_evolve", 0.0), "s"),
        "cli.diagnose_residuals.s": (total_s.get("cli.cmd_diagnose_residuals", 0.0), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
    }
