"""Spans around the public functions of each lightcone layer.

The tracer patches module attributes from outside the program: each name is
replaced in the namespace of the module that calls it (``cli.solve_bjorling``,
``frame.integrate_frame``, ``diagnostics.integrate_frame``, ...), so the
program's own code is unchanged.  It is installed only for the traced pass.

Every wrapped call pushes a frame on a stack, so a call's self time is its
duration minus the time covered by wrapped calls made inside it.  Coarse calls
(jobs, modes, solves, writers) are kept as spans with a name, start, end,
parent and job id.  Calls made thousands of times per job (the frame
integrator per segment, closed-form evaluations) are only summed per name,
because one span object each would cost more memory than the run is worth.
Pure counters (Gauss map calls, coefficient evaluations, resampling
segments) add no timing at all.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from lightcone import bjorling, catenoids, cli, diagnostics, expr, frame
from lightcone.frame import IntegrationStats

# layer of each span name: the text before the first dot
LAYERS = ("expr", "bjorling", "frame", "diagnostics", "catenoids", "cli")


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []          # [name, start, end, parent, job]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_det_drift = 0.0
        self.job = None
        self._stack: list[list] = []          # [child time, span index, start]
        self._coef = [0]                      # G callable evaluations
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name, record):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        if record:
            idx = len(self.spans)
            self.spans.append([name, perf_counter() - self.t0, None, parent, self.job])
        else:
            idx = parent
        frame_ = [0.0, idx, perf_counter()]
        stack.append(frame_)
        return frame_

    def _exit(self, name, frame_, record):
        t1 = perf_counter()
        dur = t1 - frame_[2]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        self.self_s[name] += dur - frame_[0]
        self.calls[name] += 1
        if record:
            self.spans[frame_[1]][2] = t1 - self.t0

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span; the benchmark uses this for its own jobs."""
        frame_ = self._enter(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame_, True)

    def timed(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame_ = tracer._enter(name, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame_, True)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        """Replace owner.attr (a module or class attribute) until uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        tr = self
        # cli: job loading, writers, the mode dispatcher
        self._patch(cli, "main", self.timed(cli.main, "cli.main"))
        self._patch(cli, "load_job", self.timed(cli.load_job, "cli.load_job"))
        self._patch(cli, "load_grid", self.timed(cli.load_grid, "cli.load_grid"))
        for attr, name in (("write_obj", "cli.write_obj"),
                           ("write_polyline_obj", "cli.write_obj"),
                           ("write_csv", "cli.write_csv"),
                           ("save_grid", "cli.save_grid"),
                           ("write_report", "cli.report")):
            self._patch(cli, attr, self.timed(getattr(cli, attr), name,
                                              after=self._count_bytes))

        # expr: parsing and compilation
        self._patch(expr, "parse", self.timed(expr.parse, "expr.parse"))
        self._patch(expr, "compile_ast", self.timed(expr.compile_ast, "expr.compile"))

        # bjorling: checks and extraction, wherever they are called from
        for mod in (cli, bjorling):
            for attr in ("check_conformality", "check_orientability"):
                self._patch(mod, attr, self.timed(getattr(mod, attr), "bjorling.check",
                                                  after=self._count_rejected))
        for mod in (cli, bjorling, frame):
            self._patch(mod, "weierstrass_from_bjorling",
                        self.timed(mod.weierstrass_from_bjorling, "bjorling.extract"))

        # frame: solves, the integrator, coefficient evaluations
        for mod in (cli, frame):
            self._patch(mod, "solve_bjorling", self._solve_wrapper(mod.solve_bjorling))
        self._patch(frame, "integrate_frame", self._integrate_wrapper(
            frame.integrate_frame, timed=True, prefix="frame."))
        prop = bjorling.WeierstrassData.__dict__["G_fn"]
        self._patch(bjorling.WeierstrassData, "G_fn", self._counted_property(prop))

        # diagnostics: grid routes, resampling integrations, Gauss map calls
        self._patch(cli, "grid_diagnostics", self.timed(
            cli.grid_diagnostics, "diagnostics.grid", after=self._count_nodes))
        self._patch(cli, "chartfree_grid_diagnostics", self.timed(
            cli.chartfree_grid_diagnostics, "diagnostics.chartfree",
            after=self._count_nodes))
        self._patch(diagnostics, "integrate_frame", self._integrate_wrapper(
            diagnostics.integrate_frame, timed=False, prefix="diagnostics.resample_"))
        gauss = diagnostics.gauss_map

        @functools.wraps(gauss)
        def gauss_counted(*args, **kwargs):
            tr.counts["diagnostics.gauss_map_calls"] += 1
            return gauss(*args, **kwargs)
        self._patch(diagnostics, "gauss_map", gauss_counted)

        # catenoids: closed forms the program evaluates, and data construction
        for attr in ("catenoid_closed_form", "nonrotational_closed_form",
                     "nonrotational_extension", "lightlike_circle"):
            self._patch(cli, attr, self._leaf(getattr(cli, attr), "catenoids.closed_form"))
        for mod in (cli, catenoids):
            self._patch(mod, "catenoid_bjorling_data",
                        self.timed(mod.catenoid_bjorling_data, "catenoids.data"))
        for attr in ("classification_weierstrass", "nonrotational_weierstrass_wchart"):
            self._patch(cli, attr, self.timed(getattr(cli, attr), "catenoids.data"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _leaf(self, fn, name):
        """Cheaper timing for functions that call nothing traced and are
        called hundreds of thousands of times per run."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            self_s[name] += dt
            calls[name] += 1
            if stack:
                stack[-1][0] += dt
            return result
        return wrapper

    # -- wrappers with counters ---------------------------------------------

    def _count_bytes(self, args, kwargs, result):
        path = os.fspath(args[0])
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path += ".npz"
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    def _count_rejected(self, args, kwargs, report):
        if not report.passed:
            self.counts["bjorling.rejected"] += 1

    def _count_nodes(self, args, kwargs, grid):
        valid = grid.valid
        self.counts["diagnostics.nodes"] += int(np.sum(valid))
        self.counts["diagnostics.nodes_nan"] += int(np.sum(valid & np.isnan(grid.H)))

    def _solve_wrapper(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tr._coef[0]
            frame_ = tr._enter("frame.solve", True)
            try:
                grid = fn(*args, **kwargs)
            finally:
                tr._exit("frame.solve", frame_, True)
                tr.counts["expr.coef_evals"] += tr._coef[0] - before
            tr.counts["frame.invalid_nodes"] += int(np.sum(~grid.valid))
            return grid
        return wrapper

    def _integrate_wrapper(self, fn, timed, prefix):
        """Count segments and RK steps of each call, passing an
        IntegrationStats when the caller did not; frame calls are also timed,
        split by path into the real-axis sweep and the vertical columns."""
        tr = self

        @functools.wraps(fn)
        def wrapper(wd, f0, path, *args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = IntegrationStats()
                steps0 = rejected0 = 0
            else:
                steps0, rejected0 = stats.steps, stats.rejected
            path = list(path)
            if timed:
                axis = all(complex(p).imag == 0.0 for p in path)
                name = "frame.axis" if axis else "frame.columns"
                frame_ = tr._enter(name, False)
                try:
                    result = fn(wd, f0, path, *args, **kwargs)
                finally:
                    tr._exit(name, frame_, False)
            else:
                result = fn(wd, f0, path, *args, **kwargs)
            counts = tr.counts
            counts[prefix + "segments"] += len(path) - 1
            counts[prefix + "steps"] += stats.steps - steps0
            counts[prefix + "rejected"] += stats.rejected - rejected0
            if timed:
                tr.max_det_drift = max(tr.max_det_drift, stats.max_det_drift)
            return result
        return wrapper

    def _counted_property(self, prop):
        cell = self._coef
        compile_g = prop.func

        def g_fn(wd):
            fn = compile_g(wd)

            def counted(w):
                cell[0] += 1
                return fn(w)
            return counted
        counted_prop = functools.cached_property(g_fn)
        counted_prop.__set_name__(bjorling.WeierstrassData, "G_fn")
        return counted_prop

    # -- derived per-layer metrics ------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += secs
        return out

    def metrics(self) -> dict[str, float]:
        s, c, n = self.self_s, self.counts, self.calls
        steps, rejected, segments = c["frame.steps"], c["frame.rejected"], c["frame.segments"]
        diag_s = s["diagnostics.grid"] + s["diagnostics.chartfree"]
        nodes = c["diagnostics.nodes"]
        out = {
            "frame.solve_s": s["frame.solve"] + s["frame.axis"] + s["frame.columns"],
            "frame.self_s": s["frame.solve"],
            "frame.axis_s": s["frame.axis"],
            "frame.columns_s": s["frame.columns"],
            "frame.segments": segments,
            "frame.rk_steps": steps,
            "frame.rk_rejected": rejected,
            "frame.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
            "frame.steps_per_segment": steps / segments if segments else 0.0,
            "frame.invalid_nodes": c["frame.invalid_nodes"],
            "frame.max_det_drift": self.max_det_drift,
            "expr.coef_evals": c["expr.coef_evals"],
            "expr.parse_s": s["expr.parse"],
            "expr.compile_s": s["expr.compile"],
            "diagnostics.grid_s": s["diagnostics.grid"],
            "diagnostics.chartfree_s": s["diagnostics.chartfree"],
            "diagnostics.nodes": nodes,
            "diagnostics.nodes_nan": c["diagnostics.nodes_nan"],
            "diagnostics.s_per_node": diag_s / nodes if nodes else 0.0,
            "diagnostics.resample_segments": c["diagnostics.resample_segments"],
            "diagnostics.resample_steps": c["diagnostics.resample_steps"],
            "diagnostics.gauss_map_calls": c["diagnostics.gauss_map_calls"],
            "catenoids.closed_form_calls": n["catenoids.closed_form"],
            "catenoids.closed_form_s": s["catenoids.closed_form"],
            "bjorling.check_s": s["bjorling.check"],
            "bjorling.extract_s": s["bjorling.extract"],
            "bjorling.rejected": c["bjorling.rejected"],
            "cli.load_job_s": s["cli.load_job"],
            "cli.write_obj_s": s["cli.write_obj"],
            "cli.write_csv_s": s["cli.write_csv"],
            "cli.save_grid_s": s["cli.save_grid"],
            "cli.load_grid_s": s["cli.load_grid"],
            "cli.report_s": s["cli.report"],
            "cli.self_s": s["cli.main"],
            "cli.bytes_written": c["cli.bytes_written"],
        }
        return {k: int(v) if PER_LAYER_UNITS[k] in ("count", "bytes") else float(v)
                for k, v in out.items()}


PER_LAYER_UNITS = {
    "frame.solve_s": "s", "frame.self_s": "s", "frame.axis_s": "s", "frame.columns_s": "s",
    "frame.segments": "count", "frame.rk_steps": "count", "frame.rk_rejected": "count",
    "frame.accept_ratio": "ratio", "frame.steps_per_segment": "ratio",
    "frame.invalid_nodes": "count", "frame.max_det_drift": "abs",
    "expr.coef_evals": "count", "expr.parse_s": "s", "expr.compile_s": "s",
    "diagnostics.grid_s": "s", "diagnostics.chartfree_s": "s", "diagnostics.nodes": "count",
    "diagnostics.nodes_nan": "count", "diagnostics.s_per_node": "s",
    "diagnostics.resample_segments": "count", "diagnostics.resample_steps": "count",
    "diagnostics.gauss_map_calls": "count",
    "catenoids.closed_form_calls": "count", "catenoids.closed_form_s": "s",
    "bjorling.check_s": "s", "bjorling.extract_s": "s", "bjorling.rejected": "count",
    "cli.load_job_s": "s", "cli.write_obj_s": "s", "cli.write_csv_s": "s",
    "cli.save_grid_s": "s", "cli.load_grid_s": "s", "cli.report_s": "s", "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    **{f"frame.xcheck.{family}.{count}": "count"
       for family in ("elliptic", "hyperbolic")
       for count in ("segments", "rk_steps", "rk_rejected")},
}
