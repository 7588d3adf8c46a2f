"""Spans around the calls into each layer of the package, from outside it.

Tracing replaces public names at module boundaries with timing wrappers,
in every package module that holds the same object, because a caller
looks a name up in its own module (``cli.solve`` and ``toda.solve`` are
one function reached through two names).  A name that no longer exists is
skipped, so the metrics built on it are absent rather than the run
failing.

A span is (name, start, end, parent index).  The spans of one pass stay
in memory and are reduced to metrics after it ends.  A call made while a
span of the same name is open records no span of its own; its time
belongs to the open one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "todaframes"
LAYERS = ("cli", "poly", "frenet", "toda", "linalg", "wirtinger")

# (module, attribute, span name).  The layer is the span name's prefix.
# Names without a metric of their own are here so that their time counts
# as their own layer's self time, not their caller's.
TARGETS = (
    ("cli", "parse_config", "cli.parse"),
    ("cli", "emit", "cli.emit"),
    ("poly", "PolyMatrix.det", "poly.det"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "poly_gcd_many", "poly.gcd_many"),
    ("poly", "minor_gcd", "poly.minor_gcd"),
    ("poly", "adjoin_columns", "poly.adjoin_columns"),
    ("poly", "constant_rank_reduce", "poly.constant_rank_reduce"),
    ("poly", "PolyMatrix.derivative", "poly.derivative"),
    ("poly", "PolyMatrix.evaluate", "poly.evaluate"),
    ("poly", "PolyMatrix.evaluate_many", "poly.evaluate_many"),
    ("frenet", "build_osculating", "frenet.build_osculating"),
    ("frenet", "frame_at", "frenet.frame_at"),
    ("frenet", "induced_metric", "frenet.induced_metric"),
    ("frenet", "verify_frame_equations", "frenet.verify_frame_equations"),
    ("frenet", "kahler_check", "frenet.kahler_check"),
    ("toda", "solve", "toda.solve"),
    ("toda", "residual_stencil", "toda.residual_stencil"),
    ("toda", "toda_residual", "toda.toda_residual"),
    ("toda", "zero_curvature_check", "toda.zero_curvature_check"),
    ("linalg", "gauss_decompose", "linalg.gauss_decompose"),
    ("wirtinger", "d_minus", "wirtinger.d_minus"),
    ("wirtinger", "d_plus", "wirtinger.d_plus"),
    ("wirtinger", "d_plus_d_minus", "wirtinger.d_plus_d_minus"),
)

# Calls that mark one verified point each, the base of evals_per_point.
VERIFIERS = ("frenet.verify_frame_equations", "toda.toda_residual")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def span(self, name, fn, counter=None):
        clock, stack, open_names = time.perf_counter, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_names[name]:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(args, kwargs)
            spans = self.spans
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            open_names[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                open_names[name] -= 1

        return wrapper

    def root(self, fn):
        """Run fn() as the root span of a pass."""
        return self.span("cli.pass", fn)()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(method)
                if not callable(original):
                    continue
                self._patch(owner, method, self.span(name, original))
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                self._patch_everywhere(modules, original, self.span(name, original, self._counter(name, original)))
            self.installed.add(name)
        self._install_memoized(modules)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _patch_everywhere(self, modules, original, value):
        for m in modules:
            for key, held in list(vars(m).items()):
                if held is original:
                    self._patch(m, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _counter(self, name, original):
        """Argument based counts: endpoints transported by solve."""
        if name != "toda.solve":
            return None
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            return None
        if not {"problem", "grid"} <= set(signature.parameters):
            return None

        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            factors = 1 if getattr(bound["problem"], "hermitian_mode", True) else 2
            self.counts["toda.transport_points"] += factors * len(bound["grid"])

        self.installed.add("toda.transport_points")
        return count

    def _install_memoized(self, modules):
        """Count stencil field evaluations: requested, and computed fresh."""
        wirtinger = sys.modules.get(f"{PACKAGE}.wirtinger")
        original = getattr(wirtinger, "memoized", None)
        if not callable(original):
            return

        def memoized(f):
            def fresh(z):
                self.counts["wirtinger.fresh"] += 1
                return f(z)

            cached = original(fresh)

            def requested(z):
                self.counts["wirtinger.requested"] += 1
                return cached(z)

            return requested

        self._patch_everywhere(modules, original, memoized)
        self.installed.add("wirtinger.memoized")

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        frame_times: list[float] = []
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), inner in zip(spans, child):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur - inner
            layer_self[name.split(".", 1)[0]] += dur - inner
            if name == "frenet.frame_at":
                frame_times.append(dur)

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out["trace.job_s"] = total["cli.pass"]

        def timed(name, with_calls=False):
            if name in self.installed:
                out[f"{name}_s"] = total[name]
                if with_calls:
                    out[f"{name}_calls"] = calls[name]

        timed("cli.parse")
        timed("cli.emit")
        timed("poly.det", with_calls=True)
        timed("poly.gcd", with_calls=True)
        timed("frenet.build_osculating")
        timed("frenet.verify_frame_equations")
        timed("frenet.kahler_check")
        timed("toda.solve", with_calls=True)
        timed("toda.toda_residual")
        timed("toda.zero_curvature_check")
        timed("linalg.gauss_decompose", with_calls=True)
        if "frenet.frame_at" in self.installed:
            frame_times.sort()
            out["frenet.frame_at_calls"] = len(frame_times)
            out["frenet.frame_at_s.p50"] = _quantile(frame_times, 0.5)
            out["frenet.frame_at_s.p90"] = _quantile(frame_times, 0.9)
        if "toda.solve" in self.installed:
            out["toda.transport_s"] = own["toda.solve"]
        if "toda.transport_points" in self.installed:
            out["toda.transport_points"] = self.counts["toda.transport_points"]
        if "wirtinger.memoized" in self.installed:
            fresh, requested = self.counts["wirtinger.fresh"], self.counts["wirtinger.requested"]
            out["wirtinger.fresh_frac"] = fresh / requested if requested else 0.0
            if self.installed.issuperset(VERIFIERS):
                verified = sum(calls[v] for v in VERIFIERS)
                out["wirtinger.evals_per_point"] = fresh / verified if verified else 0.0
        return out


def unit_of(name: str) -> str:
    if name.endswith(("_calls", "_points")):
        return "count"
    if name.endswith("evals_per_point"):
        return "evals/point"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def _quantile(values, q):
    """Nearest rank quantile of sorted values; 0 when there are none."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]
