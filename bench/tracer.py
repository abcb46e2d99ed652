"""Per-layer tracing of `secregion` from outside the package.

Each traced function is replaced by a wrapper in every `secregion` module
that holds it, which is where its callers look it up (`from .x import f`
binds `f` in the caller's module).  A wrapper adds one call and its
seconds to its function's totals and, for a few functions, counts read
from the arguments or the result.  Nothing under `src/` is modified, and
`uninstall` puts every original back.

A target that a later change removes or renames is reported as absent;
its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "secregion"

# (module, function) pairs to wrap; every one gets `.calls` and `.s`.
TARGETS = (
    ("cli", "run"),
    ("cli", "load_channels"),
    ("splitting", "sweep_points"),
    ("splitting", "hull_pareto"),
    ("wiretap", "solve_wiretap"),
    ("multicast", "solve_multicast"),
    ("rotation", "maximize_psd_objective"),
    ("rates", "evaluate_triple"),
    ("waterfill", "waterfill"),
    ("transforms", "whiten_p2p"),
    ("transforms", "whiten_wiretap"),
    ("transforms", "whiten_multicast"),
    ("wsr", "wsr_solve"),
    ("wsr", "bsmm_inner"),
    ("baselines", "random_search_region"),
    ("baselines", "tdma_region"),
    ("baselines", "oma_timeshare"),
)

# The reported per-layer metrics: (name, unit, better).  `trace.*` entries
# are filled by the runner, the rest by `Tracer.measure`.
PER_LAYER = (
    ("splitting.sweep_points.s", "s", "lower"),
    ("splitting.sweep_points.cells", "count", "lower"),
    ("splitting.hull_pareto.calls", "count", "lower"),
    ("splitting.hull_pareto.s", "s", "lower"),
    ("wiretap.solve_wiretap.calls", "count", "lower"),
    ("wiretap.solve_wiretap.s", "s", "lower"),
    ("multicast.solve_multicast.calls", "count", "lower"),
    ("multicast.solve_multicast.s", "s", "lower"),
    ("multicast.case3", "count", "lower"),
    ("rotation.maximize_psd_objective.calls", "count", "lower"),
    ("rotation.maximize_psd_objective.s", "s", "lower"),
    ("rotation.maximize_psd_objective.evals", "count", "lower"),
    ("rotation.maximize_psd_objective.grad_evals", "count", "lower"),
    ("rotation.improved_ratio", "ratio", "higher"),
    ("rates.evaluate_triple.calls", "count", "lower"),
    ("rates.evaluate_triple.s", "s", "lower"),
    ("waterfill.waterfill.calls", "count", "lower"),
    ("waterfill.waterfill.s", "s", "lower"),
    ("transforms.whiten_p2p.calls", "count", "lower"),
    ("transforms.whiten_p2p.s", "s", "lower"),
    ("transforms.whiten_wiretap.calls", "count", "lower"),
    ("transforms.whiten_wiretap.s", "s", "lower"),
    ("transforms.whiten_multicast.calls", "count", "lower"),
    ("transforms.whiten_multicast.s", "s", "lower"),
    ("wsr.wsr_solve.calls", "count", "lower"),
    ("wsr.wsr_solve.s", "s", "lower"),
    ("wsr.wsr_solve.bisect_steps", "count", "lower"),
    ("wsr.wsr_solve.unconverged", "count", "lower"),
    ("wsr.bsmm_inner.calls", "count", "lower"),
    ("wsr.bsmm_inner.s", "s", "lower"),
    ("wsr.bsmm_inner.rounds", "count", "lower"),
    ("baselines.random_search_region.s", "s", "lower"),
    ("baselines.tdma_region.s", "s", "lower"),
    ("baselines.oma_timeshare.s", "s", "lower"),
    ("baselines.samples", "count", "lower"),
    ("cli.load_channels.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent", "count", "lower"),
)

# A search counts as useful when it ends this far above the best of its
# free candidates (the zero matrix and the warm start).
IMPROVED_MARGIN = 1e-9


def _psd_search_hook(tracer, args):
    """Count objective and batch evaluations; record whether the search paid off."""
    objective = args.get("objective")
    for key, counter in (
        ("objective", "evals"),
        ("search_objective", "evals"),
        ("batch_search", "grad_evals"),
    ):
        if args.get(key) is not None:
            args[key] = tracer.counting(args[key], f"rotation.maximize_psd_objective.{counter}")
    nt, warm = args.get("nt"), args.get("warm_q")

    def after(result):
        if objective is None or nt is None:
            return
        base = objective(np.zeros((nt, nt)))
        if warm is not None:
            base = max(base, objective(warm))
        if float(result[1]) > base + IMPROVED_MARGIN:
            tracer.counts["rotation.maximize_psd_objective.improved"] += 1

    return after


def _result_hook(fields):
    """Hook adding, for each counter, a function of each call's result."""

    def hook(tracer, args):
        def after(result):
            for counter, read in fields.items():
                tracer.counts[counter] += int(read(result))

        return after

    return hook


def _argument_hook(counter, argument):
    """Hook adding a numeric argument of each completed call to a counter."""

    def hook(tracer, args):
        amount = int(args.get(argument, 0))

        def after(result):
            tracer.counts[counter] += amount

        return after

    return hook


HOOKS = {
    "splitting.sweep_points": _result_hook({"splitting.sweep_points.cells": len}),
    "multicast.solve_multicast": _result_hook(
        {"multicast.case3": lambda r: getattr(r, "case", None) == "case3"}
    ),
    "rotation.maximize_psd_objective": _psd_search_hook,
    "wsr.wsr_solve": _result_hook(
        {
            "wsr.wsr_solve.bisect_steps": lambda r: getattr(r, "n_bisect", 0),
            "wsr.wsr_solve.unconverged": lambda r: not getattr(r, "converged", True),
        }
    ),
    "wsr.bsmm_inner": _result_hook({"wsr.bsmm_inner.rounds": lambda r: getattr(r, "n_iters", 0)}),
    "baselines.random_search_region": _argument_hook("baselines.samples", "n_samples"),
}


class Tracer:
    """Per-function call counts, seconds and counters, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.absent = []
        self._patched = []  # (module, attribute, original)

    def counting(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, label, original):
        hook = HOOKS.get(label)
        signature = inspect.signature(original) if hook else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    bound = None
                if bound is not None:
                    after = hook(self, bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.seconds[label] += time.perf_counter() - start
                self.calls[label] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every target where the package's modules look it up."""
        self.absent = []
        for module_name, func_name in TARGETS:
            label = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(label)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(label)
                continue
            traced = self._wrap(label, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()

    def measure(self) -> dict:
        """Per-layer metrics (all but `trace.*`) for the calls since `reset`."""
        calls, seconds = self.calls, self.seconds
        out = {}
        for name, _, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            label, _, metric = name.rpartition(".")
            if metric == "calls":
                out[name] = calls[label]
            elif metric == "s":
                out[name] = seconds[label]
            else:
                out[name] = self.counts[name]
        searches = calls["rotation.maximize_psd_objective"]
        improved = self.counts["rotation.maximize_psd_objective.improved"]
        out["rotation.improved_ratio"] = improved / searches if searches else 0.0
        return out
