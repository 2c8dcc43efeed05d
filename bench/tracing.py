"""Spans and counters recorded from outside the program.

Inside ``with Tracer() as tracer:`` the public functions listed in
``SPANS`` are replaced by timing wrappers in every ``conefbp`` module
namespace that binds them (``stability.symmetric_solution`` and
``barriers.symmetric_solution`` alike), so calls from one layer into
another are seen, not only the benchmark's own.  Each span records its
name, layer, start, end and parent.  A layer's self time is the
duration of its spans minus that of their child spans.  ``edge_apply``
is counted per namespace without a span: it is the inner kernel of both
the CG solve in ``grid`` and the gradient descent in ``minimize``.
Leaving the block restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer -> public functions timed as spans; the layer is the defining module
SPANS = {
    "ode": ("integrate_profile", "symmetric_solution", "beta_half_profile", "first_zero"),
    "stability": ("stability_margin", "find_critical_c0", "steklov_min_quotient"),
    "grid": ("make_field", "field_from_solution", "dirichlet_solve"),
    "minimize": ("minimize", "compare_to_symmetric"),
    "barriers": ("admissible_parameter_search", "audit_pair", "supersolution_lift_check"),
    "weiss": ("weiss_trace", "weiss"),
}
PROFILE_METHODS = ("sample", "value_and_deriv")
EDGE_APPLY_COUNTERS = {"grid": "grid.cg_applies", "minimize": "minimize.gradient_evals"}


def _integration(tracer, args, profile):
    # computed, not counted: n steps plus 2n for the step-halving rerun
    n = len(profile.grid) - 1
    tracer.counts["ode.rk4_steps"] += 3 * n if args["verify"] else n
    tracer.keys.add(tuple(float(args[k]) for k in ("beta", "c", "step", "phi_max")))


def _c0_evals(tracer, args, _):
    if args["record"] is not None:
        tracer.counts["stability.c0_evals"] += len(args["record"])


def _stages(tracer, _, result):
    tracer.counts["minimize.halvings"] += result.halvings
    tracer.counts["minimize.stages"] += len(result.outer_energies)


def _certified(tracer, _, report):
    tracer.counts["barriers.certified"] += bool(report.certified)


HOOKS = {
    "integrate_profile": _integration,
    "find_critical_c0": _c0_evals,
    "minimize": _stages,
    "audit_pair": _certified,
}


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.keys = set()

    def __enter__(self):
        for layer, names in SPANS.items():
            module = importlib.import_module(f"conefbp.{layer}")
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._span(name, layer, original, HOOKS.get(name)))
        profile = importlib.import_module("conefbp.ode").RadialProfile
        for method in PROFILE_METHODS:
            original = getattr(profile, method)
            self._patch(profile, method, self._span(f"RadialProfile.{method}", "ode", original))
        for layer, counter in EDGE_APPLY_COUNTERS.items():
            module = importlib.import_module(f"conefbp.{layer}")
            self._patch(module, "edge_apply", self._count(counter, module.edge_apply))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        return False

    def _patch(self, obj, attr, wrapper):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "conefbp" and not modname.startswith("conefbp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _span(self, name, layer, fn, hook=None):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """Per-layer metrics of the spans and counts since the last reset."""
        inner = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        self_s = Counter()
        self_by_name = Counter()
        span_s = Counter()
        calls = Counter()
        for (name, layer, start, end, parent), child in zip(self.spans, inner):
            self_s[layer] += end - start - child
            self_by_name[name] += end - start - child
            span_s[name] += end - start
            calls[name] += 1
        counts = self.counts
        integrations = calls["integrate_profile"]
        audits = calls["audit_pair"]
        out = {f"{layer}.self_s": self_s[layer] for layer in SPANS}
        out.update(
            {
                "ode.integrations": integrations,
                "ode.rk4_steps": counts["ode.rk4_steps"],
                "ode.rk4_steps_per_s": _ratio(counts["ode.rk4_steps"], span_s["integrate_profile"]),
                "ode.distinct_ratio": _ratio(len(self.keys), integrations),
                "ode.sample_s": span_s["RadialProfile.sample"],
                "stability.margin_calls": calls["stability_margin"],
                "stability.c0_evals": counts["stability.c0_evals"],
                "stability.steklov_self_s": self_by_name["steklov_min_quotient"],
                "grid.dirichlet_solves": calls["dirichlet_solve"],
                "grid.cg_applies": counts["grid.cg_applies"],
                "minimize.gradient_evals": counts["minimize.gradient_evals"],
                "minimize.halvings": counts["minimize.halvings"],
                "minimize.stages": counts["minimize.stages"],
                "barriers.audit_pairs": audits,
                "barriers.certified_ratio": _ratio(counts["barriers.certified"], audits),
                "weiss.monitor_calls": calls["weiss"],
            }
        )
        return out


def _ratio(num, den):
    return num / den if den else 0.0
