"""In-memory spans around calls into vacuumpairs, for the traced run.

``Tracer.install`` replaces public functions of the package's modules with
timing wrappers.  Every module attribute bound to the original function is
replaced, so calls through a name bound at import time (``cli`` imports
``load_registry`` directly, the package root re-exports most functions)
are caught as well as calls through ``module.function``.  ``uninstall``
puts the originals back.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index
of the enclosing span or -1.  Calls are assumed to come from one thread;
the library's own worker threads call nothing that is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from time import perf_counter


def _count_calls_of_first_arg(attrs, args, kwargs):
    f = args[0]
    counter = [0]
    attrs["evals"] = counter

    def counted(x):
        counter[0] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _start_tracking_memory(attrs, args, kwargs):
    config = args[0] if args else kwargs["config"]
    attrs["photons"] = config.n_photons
    tracemalloc.start()
    return args, kwargs


def _stop_tracking_memory(attrs, result):
    attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()


def _record_modes(attrs, result):
    attrs["modes"] = result


# (module, function, before-call hook, after-call hook)
TARGETS = (
    ("cli", "main", None, None),
    ("report", "build_report", None, None),
    ("numerics", "integrate", _count_calls_of_first_arg, None),
    ("numerics", "find_root", _count_calls_of_first_arg, None),
    ("vacuum_response", "inverse_alpha_single_quadrature", None, None),
    ("vacuum_response", "inverse_alpha_total", None, None),
    ("vacuum_response", "fit_cutoff", None, None),
    ("statmech", "integrate_thermal_density", None, None),
    ("statmech", "count_box_modes", None, _record_modes),
    ("dispersion", "simulate_flight", None, None),
    ("particles", "load_registry", None, None),
)


class Tracer:
    """Spans of wrapped calls.  With ``track_memory``, each simulate_flight
    call also runs under tracemalloc, which slows it (up to ~2x), so its
    spans are kept apart from the timing spans."""

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(attrs, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                span[1] = perf_counter()
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(attrs, result)

        return wrapper

    def install(self) -> None:
        for module_name, fn_name, before, after in TARGETS:
            if self.track_memory and fn_name == "simulate_flight":
                before, after = _start_tracking_memory, _stop_tracking_memory
            module = importlib.import_module(f"vacuumpairs.{module_name}")
            original = getattr(module, fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, before, after)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("vacuumpairs"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._patched.append((loaded, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def export(self) -> list[list]:
        """Spans as JSON-ready lists, with eval counters resolved."""
        out = []
        for name, start, end, parent, attrs in self.spans:
            attrs = dict(attrs)
            if "evals" in attrs:
                attrs["evals"] = attrs["evals"][0]
            out.append([name, start, end, parent, attrs])
        return out


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate span lists from several processes, re-basing parents."""
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        for name, start, end, parent, attrs in spans:
            merged.append([name, start, end, parent + offset if parent >= 0 else -1, attrs])
    return merged


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, summed counters."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _, attrs), self_s in zip(spans, own):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "evals": 0, "modes": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        entry["evals"] += attrs.get("evals", 0)
        entry["modes"] += attrs.get("modes", 0)
    return out
