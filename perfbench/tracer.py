"""Spans around calls into each module of the package, recorded from outside.

The tracer replaces a module attribute with a wrapper, so every caller that
looks the name up in that module at call time goes through it; install()
and uninstall() swap the wrappers in and out between units of work, so
untraced units run the unmodified code.  Each call records a span: name,
parent, start and end in ns, and for some functions a count derived from
the call's shapes.  Spans stay in memory until the run ends.

A span's name is the home module of the wrapped function plus its name
("rng.child_stream"), so the same function wrapped at two lookup sites
reports as one.  A site the package no longer has is skipped: its spans
simply never fire and its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from contextlib import contextmanager

from workloads import CLI_STEPS

# (module whose globals callers resolve the name in, attribute names)
SITES = (
    ("montecarlo", ("child_stream", "sample_input", "two_step_vmm", "baseline_noisy_vmm")),
    ("core", ("iid_entries",)),
    ("schemes", ("iid_entries",)),
    ("analysis", ("optimize_repetitions",)),
    ("matrixio", ("loads_matrix",)),
    ("experiments", ("child_stream", "harmonic_matrix", "svd", "optimize_repetitions",
                     "optimize_rank", "run_baseline_trials", "run_two_step_trials",
                     "run_mc", "run_sweep", "mc_csv", "sweep_csv")),
    ("cli", ("child_stream", "harmonic_matrix", "svd", "dumps_matrix", "read_matrix",
             "run_mc", "run_sweep", "run_scaling", "mc_csv", "mc_json", "sweep_csv",
             "sweep_json", "scaling_csv", "scaling_json")),
)

MODULES = ("rng", "core", "schemes", "montecarlo", "lowrank", "matrixgen", "matrixio",
           "analysis", "experiments", "cli")

TRIAL_LOOPS = ("montecarlo.run_two_step_trials", "montecarlo.run_baseline_trials")

_NO_CALLS = {"calls": 0, "ns": 0, "self_ns": 0, "count": 0,
             "trial_calls": 0, "trial_ns": 0, "trial_count": 0}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _draws(args, kwargs, out):
    shape = _arg(args, kwargs, 0, "shape")
    if _arg(args, kwargs, 1, "sigma_sq") == 0:
        return 0
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _two_step_flops(args, kwargs, out):
    # per stage: noise add (t*rows*cols), t matmuls (2*t*rows*cols) and the
    # replica average (t*cols); a noiseless stage is one matmul
    f = _arg(args, kwargs, 1, "f")
    t_L, t_R = _arg(args, kwargs, 2, "t_L"), _arg(args, kwargs, 3, "t_R")
    noise = _arg(args, kwargs, 4, "noise")
    (m, k), n = f.L.shape, f.R.shape[1]
    s1 = t_L * (3 * m * k + k) if noise.sigma_L_sq else 2 * m * k
    s2 = t_R * (3 * k * n + n) if noise.sigma_R_sq else 2 * k * n
    return s1 + s2


def _baseline_flops(args, kwargs, out):
    m, n = _arg(args, kwargs, 1, "A").shape
    return 3 * m * n  # A + E, then b @ (A + E)


def _breakdowns(args, kwargs, out):
    m, n, k = (_arg(args, kwargs, i, name) for i, name in ((1, "m"), (2, "n"), (3, "k")))
    return (m * n - n * k) // (m * k)


# span name -> its count (draws, flops, breakdowns, bytes or trials) as a
# function of (args, kwargs, result)
COUNTERS = {
    "core.iid_entries": _draws,
    "schemes.two_step_vmm": _two_step_flops,
    "schemes.baseline_noisy_vmm": _baseline_flops,
    "analysis.optimize_repetitions": _breakdowns,
    "matrixio.dumps_matrix": lambda a, kw, out: len(out),
    "matrixio.loads_matrix": lambda a, kw, out: len(_arg(a, kw, 0, "text")),
    "montecarlo.run_two_step_trials": lambda a, kw, out: out.trials,
    "montecarlo.run_baseline_trials": lambda a, kw, out: out.trials,
}


class Tracer:
    """Records spans (id, name, parent id, start ns, end ns, count)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._saved: list[tuple] = []
        self._wrappers: dict = {}

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a lane thread's outermost span belongs to whatever the main thread
        # has open: the trial loop that dispatched it
        main = self._main_stack
        return main[-1] if main else None

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack = self._stack()
        sid, parent = next(self._ids), self._parent(stack)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, parent, t0, t1, 0))

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
        counter = COUNTERS.get(name)
        spans, ids, stack_of, parent_of = self.spans, self._ids, self._stack, self._parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid, parent = next(ids), parent_of(stack)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            count = counter(args, kwargs, out) if counter else 0
            spans.append((sid, name, parent, t0, t1, count))
            return out

        self._wrappers[fn] = wrapper
        return wrapper

    def install(self) -> None:
        for mod_name, attrs in SITES:
            mod = importlib.import_module(f"crossbar_lowrank.{mod_name}")
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyse(spans) -> dict:
    """Per span name: calls, total and self ns, count; plus trial-loop totals.

    Self time is a span's duration minus the part of it its children cover;
    children on two lane threads that overlap are counted once.
    """
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[2], []).append((s[3], s[4]))

    in_trials: dict = {}

    def under_trials(sid) -> bool:
        path = []
        while sid is not None and sid not in in_trials:
            s = by_id.get(sid)
            if s is None:
                break
            if s[1] in TRIAL_LOOPS:
                in_trials[sid] = True
                break
            path.append(sid)
            sid = s[2]
        verdict = in_trials.get(sid, False)
        for p in path:
            in_trials[p] = verdict
        return verdict

    stats: dict = {}
    for sid, name, parent, t0, t1, count in spans:
        st = stats.setdefault(name, dict(_NO_CALLS))
        dur = t1 - t0
        st["calls"] += 1
        st["ns"] += dur
        st["self_ns"] += dur - _union_ns(children.get(sid, ()), t0, t1)
        st["count"] += count
        if parent is not None and under_trials(parent):
            st["trial_calls"] += 1
            st["trial_ns"] += dur
            st["trial_count"] += count
    return stats


def layer_metrics(spans, units: int, untraced_wall_s: float, traced_wall_s: float,
                  lane: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from the spans of `units`
    traced units of work; counts are per unit or per trial, times per call
    unless named self_ms (per unit)."""
    st = analyse(spans)

    def get(name):
        return st.get(name, _NO_CALLS)

    def per_call(name, scale):
        s = get(name)
        return s["ns"] / s["calls"] / scale if s["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def per_trial(loop):
        return ratio(get(loop)["ns"], get(loop)["count"]) / 1e3

    trials = sum(get(n)["count"] for n in TRIAL_LOOPS)
    loop_ns = sum(get(n)["ns"] for n in TRIAL_LOOPS)
    loop_self_ns = sum(get(n)["self_ns"] for n in TRIAL_LOOPS)
    draws = get("core.iid_entries")["trial_count"]
    io_bytes = get("matrixio.dumps_matrix")["count"] + get("matrixio.loads_matrix")["count"]
    io_ns = get("matrixio.dumps_matrix")["ns"] + get("matrixio.loads_matrix")["ns"]
    emit = [s for n, s in st.items() if n.startswith("experiments.")
            and n.endswith(("_csv", "_json"))]
    emit_calls = sum(s["calls"] for s in emit)
    unit = get("bench.unit")

    out = {
        "rng.child_stream_us": per_call("rng.child_stream", 1e3),
        "rng.streams_per_trial": ratio(get("rng.child_stream")["trial_calls"], trials),
        "core.sample_input_us": per_call("core.sample_input", 1e3),
        "core.draws_per_trial": ratio(draws, trials),
        "core.ns_per_draw": ratio(get("core.iid_entries")["trial_ns"], draws),
        "schemes.two_step_vmm_us": per_call("schemes.two_step_vmm", 1e3),
        "schemes.baseline_noisy_vmm_us": per_call("schemes.baseline_noisy_vmm", 1e3),
        "schemes.flops_per_trial": ratio(get("schemes.two_step_vmm")["trial_count"]
                                         + get("schemes.baseline_noisy_vmm")["trial_count"],
                                         trials),
        "montecarlo.trial_us": ratio(loop_ns, trials) / 1e3,
        "montecarlo.two_step_trial_us": per_trial("montecarlo.run_two_step_trials"),
        "montecarlo.baseline_trial_us": per_trial("montecarlo.run_baseline_trials"),
        "montecarlo.overhead_us": ratio(loop_self_ns, trials) / 1e3,
        "montecarlo.lane_efficiency": lane.get("efficiency", 0.0),
        "montecarlo.lane1_trials_per_s": lane.get("lane1_trials_per_s", 0.0),
        "lowrank.svd_ms": per_call("lowrank.svd", 1e6),
        "lowrank.svd_calls": get("lowrank.svd")["calls"] / units,
        "matrixgen.harmonic_matrix_ms": per_call("matrixgen.harmonic_matrix", 1e6),
        "matrixgen.calls": get("matrixgen.harmonic_matrix")["calls"] / units,
        "matrixio.dumps_matrix_ms": per_call("matrixio.dumps_matrix", 1e6),
        "matrixio.loads_matrix_ms": per_call("matrixio.loads_matrix", 1e6),
        "matrixio.bytes": io_bytes / units,
        "matrixio.mb_per_s": ratio(io_bytes * 1e3, io_ns),
        "analysis.optimize_repetitions_us": per_call("analysis.optimize_repetitions", 1e3),
        "analysis.breakdowns_evaluated": get("analysis.optimize_repetitions")["count"] / units,
        "experiments.run_mc_s": per_call("experiments.run_mc", 1e9),
        "experiments.run_sweep_s": per_call("experiments.run_sweep", 1e9),
        "experiments.run_scaling_ms": per_call("experiments.run_scaling", 1e6),
        "experiments.emit_ms": ratio(sum(s["ns"] for s in emit), emit_calls) / 1e6,
    }
    for step in CLI_STEPS:
        s = get(f"cli.main.{step}")
        out[f"cli.main_ms.{step}"] = ratio(s["self_ns"], s["calls"]) / 1e6
    for mod in MODULES:
        self_ns = sum(s["self_ns"] for n, s in st.items() if n.split(".", 1)[0] == mod)
        out[f"{mod}.self_ms"] = self_ns / units / 1e6
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.uncovered_share"] = ratio(unit["self_ns"], unit["ns"])
    return out
