"""Timing wrappers around the public functions of each dbmwalk layer.

``Tracer.install()`` replaces every traced function with a wrapper, both
in the module that defines it and in every ``dbmwalk`` module that
imported its name (``experiments.stationary`` and the like), and puts
the originals back on ``uninstall()``.  Each thread keeps its own span
stack, because the profile runner fans seeds out over a thread pool.
Spans stay in memory until ``metrics()`` turns them into per-layer
numbers.

A span's self time is its duration minus the time of the spans it
directly contains.  ``experiments.self_s`` is the runner time that no
top-level span covers on any thread, so for a single-threaded run the
layer self times plus ``experiments.self_s`` add up to the run time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None  # index into the same thread's span list
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# -- count hooks: (tracer, args, kwargs, result) -> None ----------------------


def _count_generate(tr, args, kwargs, result):
    tr.add("graph.generate.calls", 1)
    tr.add("graph.generate.edges", result[0].edge_count)


def _count_stationary(tr, args, kwargs, result):
    if "not_strongly_connected" in result.flags:
        return
    pt = tr.originals["dbmwalk.walk.transition_operator"](args[0])
    pi = result.values
    tr.peak("walk.stationary.residual_l1", float(np.abs(pt @ pi - pi).sum()))


def _count_mixing_profile(tr, args, kwargs, result):
    last = int(result.times[-1]) if result.times.size else 0
    tr.add("walk.mixing_profile.col_steps", result.per_start.shape[0] * last)


def _count_tau_jump(tr, args, kwargs, result):
    samples, censored = result
    horizon = kwargs.get("horizon", args[4] if len(args) > 4 else None)
    if horizon is None:
        alpha = args[0].params.alpha
        horizon = math.ceil(20.0 / alpha) if alpha > 0.0 else 10**6
    tr.add("walk.sample_tau_jump.walker_steps", int(samples.sum()) + censored * horizon)
    tr.add("walk.sample_tau_jump.censored", censored)


def _count_qsd(tr, args, kwargs, result):
    tr.add("qsd.quasi_stationary.iterations", result.iterations)


def _count_mixing_time(tr, args, kwargs, result):
    tr.add("qsd.mixing_time_estimate.steps", result[0])


def _count_return_mass(tr, args, kwargs, result):
    tr.add("qsd.return_mass.steps", result.t_horizon)


def _count_restart(tr, args, kwargs, result):
    cap = kwargs.get("cap", args[4] if len(args) > 4 else None)
    if cap is None:
        cap = math.ceil(100.0 / max(args[1].iota, 1e-12))
    censored = sum(1 for s in result if s.tau_rho is None)
    steps = sum(s.tau_rho for s in result if s.tau_rho is not None) + censored * cap
    tr.add("qsd.restart_process.walker_steps", steps)
    tr.add("qsd.restart_process.censored", censored)


def _count_annealed_walk(tr, args, kwargs, result):
    tr.add("annealed.walker_steps", len(result.vertices) - 1)


def _count_community_law(tr, args, kwargs, result):
    tr.add("annealed.cycle_free_runs", round(result.cycle_free_rate * result.reps))
    tr.add("annealed.law_runs", result.reps)


# (module, attribute, span name or None for count-only, hook, absorbed into)
TRACED = (
    ("dbmwalk.graph", "generate", "graph.generate", _count_generate, ()),
    ("dbmwalk.graph", "Digraph.is_strongly_connected", "graph.is_strongly_connected", None, ()),
    ("dbmwalk.graph", "pre_rewiring_subgraph", "graph.pre_rewiring_subgraph", None, ()),
    ("dbmwalk.walk", "transition_operator", "walk.transition_operator", None, ()),
    # a solve made directly by local_stationary is the local solve
    ("dbmwalk.walk", "stationary", "walk.stationary", _count_stationary, ("walk.local_stationary",)),
    ("dbmwalk.walk", "local_stationary", "walk.local_stationary", None, ()),
    ("dbmwalk.walk", "mixing_profile", "walk.mixing_profile", _count_mixing_profile, ()),
    ("dbmwalk.walk", "sample_tau_jump", "walk.sample_tau_jump", _count_tau_jump, ()),
    ("dbmwalk.qsd", "community_view", "qsd.community_view", None, ()),
    ("dbmwalk.qsd", "quasi_stationary", "qsd.quasi_stationary", _count_qsd, ()),
    ("dbmwalk.qsd", "build_merged_kernel", "qsd.build_merged_kernel", None, ()),
    ("dbmwalk.qsd", "mixing_time_estimate", "qsd.mixing_time_estimate", _count_mixing_time, ()),
    ("dbmwalk.qsd", "return_mass", "qsd.return_mass", _count_return_mass, ()),
    ("dbmwalk.qsd", "hitting_time_estimates", "qsd.hitting_time_estimates", None, ()),
    ("dbmwalk.qsd", "restart_process", "qsd.restart_process", _count_restart, ()),
    ("dbmwalk.annealed", "annealed_walk", None, _count_annealed_walk, ()),
    ("dbmwalk.annealed", "annealed_community_law", "annealed.community_law", _count_community_law, ()),
    ("dbmwalk.annealed", "annealed_jump_survival", "annealed.jump_survival", None, ()),
)

SPAN_NAMES = tuple(name for _, _, name, _, _ in TRACED if name is not None)

# counts the hooks collect that are reported as they are
REPORTED_COUNTS = (
    "walk.stationary.residual_l1",
    "walk.mixing_profile.col_steps",
    "walk.sample_tau_jump.walker_steps",
    "walk.sample_tau_jump.censored",
    "qsd.quasi_stationary.iterations",
    "qsd.mixing_time_estimate.steps",
    "qsd.return_mass.steps",
    "qsd.restart_process.walker_steps",
    "qsd.restart_process.censored",
    "annealed.walker_steps",
)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[Span]] = []
        self._counts: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # "module.attribute" -> function

    # -- recording --------------------------------------------------------

    def _spans(self) -> tuple[list[Span], list[int]]:
        loc = self._local
        if not hasattr(loc, "spans"):
            loc.spans, loc.stack = [], []
            with self._lock:
                self._threads.append(loc.spans)
        return loc.spans, loc.stack

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self._counts[key] = max(self._counts.get(key, value), value)

    def _wrap(self, fn, name, hook, absorbed):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer._spans()
            open_span = name is not None and not (
                stack and spans[stack[-1]].name in absorbed
            )
            if open_span:
                span = Span(name, threading.get_ident(), stack[-1] if stack else None, 0.0)
                stack.append(len(spans))
                spans.append(span)
                span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if open_span:
                    span.end = time.perf_counter()
                    stack.pop()
                    if span.parent is not None:
                        spans[span.parent].child_s += span.duration
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [
            m for k, m in list(sys.modules.items()) if k == "dbmwalk" or k.startswith("dbmwalk.")
        ]
        for mod_name, attr, name, hook, absorbed in TRACED:
            owner = importlib.import_module(mod_name)
            if "." in attr:  # a method: patch the class only
                cls_name, meth = attr.split(".")
                owners = [getattr(owner, cls_name)]
                fn = vars(owners[0])[meth]
            else:
                owners = package
                fn = getattr(owner, attr)
            self.originals[f"{mod_name}.{attr}"] = fn
            wrapper = self._wrap(fn, name, hook, absorbed)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._installed.append((target, key, fn))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._installed):
            setattr(owner, key, fn)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> list[Span]:
        return [s for spans in self._threads for s in spans]

    def metrics(self, run_s: float, seed_count: int) -> dict[str, float]:
        """Per-layer metrics of a traced runner call over ``seed_count`` seeds."""
        spans = self.spans()
        c = self._counts
        out = {f"{name}.s": 0.0 for name in SPAN_NAMES}
        for s in spans:
            out[f"{s.name}.s"] += s.self_s
        top = [s for s in spans if s.parent is None]
        busy = sum(s.duration for s in top)
        covered = _union_length([(s.start, s.end) for s in top])

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0.0 else 0.0

        edges = c.get("graph.generate.edges", 0)
        calls = c.get("graph.generate.calls", 0)
        walker_s = out["annealed.community_law.s"] + out["annealed.jump_survival.s"]
        law_runs = c.get("annealed.law_runs", 0)
        out.update({key: c.get(key, 0) for key in REPORTED_COUNTS})
        out.update(
            {
                "graph.generate.edges_per_s": rate(edges, out["graph.generate.s"]),
                "graph.generate.rejects": calls - seed_count if calls else 0,
                "walk.mixing_profile.col_steps_per_s": rate(
                    out["walk.mixing_profile.col_steps"], out["walk.mixing_profile.s"]
                ),
                "annealed.walker_steps_per_s": rate(out["annealed.walker_steps"], walker_s),
                "annealed.cycle_free_rate": (
                    c.get("annealed.cycle_free_runs", 0) / law_runs if law_runs else 0.0
                ),
                "experiments.self_s": run_s - covered,
                "experiments.concurrency": busy / run_s,
                "trace.run_s": run_s,
            }
        )
        return out
