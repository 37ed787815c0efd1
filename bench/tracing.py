"""Spans and counts for the traced run, recorded from outside `ksat`.

`Tracer.install` replaces selected `ksat` functions, in every `ksat` module
whose globals hold them, with wrappers that record one span per call: name,
start, end, parent span and operation id. So a call from one module into
another (and the few intra-module calls listed below) is timed where it
happens, without editing the program. Spans stay in memory in flat arrays
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function, metric stem). Functions sharing a stem are summed.
SPANS = (
    ("formula", "enumerate_solutions", "formula.enumerate_solutions"),
    ("formula", "clause_graph_components", "formula.clause_graph_components"),
    ("formula", "is_satisfying", "formula.is_satisfying"),
    ("formula", "simplify", "formula.simplify"),
    ("formula", "generate_random_kcnf", "formula.generate_random_kcnf"),
    ("classify", "classify", "classify.classify"),
    ("classify", "good_induced_formula", "classify.good_induced_formula"),
    ("marking", "find_marking", "marking.find_marking"),
    ("marginals", "plan_for", "marginals.plan_for"),
    ("marginals", "_build_plan", "marginals.build_plan"),
    ("marginals", "_enumerate_local", "marginals.enumerate"),
    ("marginals", "exact_marginal", "marginals.exact_marginal"),
    ("marginals", "sample_conditional", "marginals.sample_conditional"),
    ("sampler", "estimate_tv", "sampler.estimate_tv"),
    ("sampler", "run_block_dynamics", "sampler.run_block_dynamics"),
    ("sampler", "_run_full", "sampler.chain"),
    ("paths", "find_path_random", "paths.find_path_random"),
    ("paths", "find_path_bounded", "paths.find_path_bounded"),
    ("paths", "validate_path", "paths.validate_path"),
    ("coupling", "run_coupling", "coupling.run_coupling"),
    ("coupling", "verify_coupling_trace", "coupling.verify_coupling_trace"),
    ("geometry", "solution_graph", "geometry.solution_graph"),
    ("geometry", "looseness_report", "geometry.looseness_report"),
    ("geometry", "_link_by_ball_search", "geometry.link"),
    ("geometry", "_link_all_pairs", "geometry.link"),
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "_pipeline_cell", "cli.pipeline_cell"),
)

LAYERS = ("formula", "classify", "marking", "marginals", "sampler", "paths", "coupling", "geometry", "cli")

# per-layer metrics: name -> unit, as BENCHMARK.json lists them
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


class Tracer:
    def __init__(self):
        self.stems = []
        self.stem_id = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.op = -1  # spans and counts are recorded only while op >= 0
        self.counts = {"sampler.steps": 0, "coupling.reveals": 0, "geometry.solutions": 0,
                       "marginals.enum_evaluations": 0}
        self.gc_pauses = []
        self._gc_start = 0.0

    def install(self, ksat_modules) -> None:
        """Wrap every function of SPANS wherever a `ksat` module's globals
        refer to it. A name missing from the program is skipped."""
        hooks = {
            "_run_full": self._on_chain,
            "run_coupling": self._on_coupling,
            "solution_graph": self._on_solution_graph,
            "_enumerate_local": self._on_enumerate,
        }
        modules = [m for name, m in sorted(sys.modules.items()) if name == "ksat" or name.startswith("ksat.")]
        for mod_name, fn_name, stem in SPANS:
            original = getattr(ksat_modules[mod_name], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, stem, hooks.get(fn_name))
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, gname, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, fn, stem, hook):
        sid = self.stem_id.setdefault(stem, len(self.stems))
        if sid == len(self.stems):
            self.stems.append(stem)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(sid)
            self.parent.append(self.stack[-1])
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _on_chain(self, args, out):
        self.counts["sampler.steps"] += out[1].steps

    def _on_coupling(self, args, out):
        self.counts["coupling.reveals"] += len(out.r_records)

    def _on_solution_graph(self, args, out):
        self.counts["geometry.solutions"] += out.n_solutions

    def _on_enumerate(self, args, out):
        self.counts["marginals.enum_evaluations"] += 1 << args[0]

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self.op >= 0:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def metrics(self, ops: int, timed_s: float, cache_entries: int, speed: float, wall: dict) -> dict:
        """Per-operation layer metrics from the recorded spans and counts.
        Times are scaled by `speed`, the run's reference-to-wall time ratio;
        `wall` holds the run's unscaled figures."""
        names = np.array(self.name_of, dtype=np.int64)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = (dur - child) * speed
        dur = dur * speed
        calls = np.bincount(names, minlength=len(self.stems))
        self_by = np.bincount(names, weights=self_s, minlength=len(self.stems))
        incl_by = np.bincount(names, weights=dur, minlength=len(self.stems))
        stem = {s: i for i, s in enumerate(self.stems)}

        def per_op_ms(s):
            return 1e3 * self_by[stem[s]] / ops if s in stem else 0.0

        def per_op_calls(s):
            return int(calls[stem[s]]) / ops if s in stem else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(per_op_ms(s) for s in self.stems if s.startswith(layer + "."))
        for name in PER_LAYER:
            if name.endswith(".self_ms") and name.count(".") == 2:
                out[name] = per_op_ms(name[: -len(".self_ms")])
            elif name.endswith(".calls"):
                out[name] = per_op_calls(name[: -len(".calls")])
        steps = self.counts["sampler.steps"]
        chain_s = incl_by[stem["sampler.chain"]] if "sampler.chain" in stem else 0.0
        out.update({
            "marginals.plan_builds": per_op_calls("marginals.build_plan"),
            "marginals.components_enumerated": per_op_calls("marginals.enumerate"),
            "marginals.enum_evaluations": self.counts["marginals.enum_evaluations"] / ops,
            "marginals.cache_entries": cache_entries,
            "sampler.steps": steps / ops,
            "sampler.step_us": 1e6 * chain_s / steps if steps else 0.0,
            "coupling.reveals": self.counts["coupling.reveals"] / ops,
            "geometry.solutions": self.counts["geometry.solutions"] / ops,
            "gc.pause_ms": 1e3 * speed * sum(self.gc_pauses) / ops,
            "gc.max_pause_ms": 1e3 * speed * max(self.gc_pauses, default=0.0),
            "gc.collections": len(self.gc_pauses) / ops,
            "trace.ops_per_s": ops / timed_s,
            "trace.spans": len(dur) / ops,
            "wall.ops_per_s": wall["ops_per_s"],
            "wall.setup_s": wall["setup_s"],
            "probe.speed": speed,
        })
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def save(self, path) -> None:
        np.savez(
            path,
            stems=np.array(self.stems),
            name=np.array(self.name_of, dtype=np.uint16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op_of, dtype=np.int32),
        )
