"""Span tracing of trialeff's layers from outside the package.

``Tracer.install`` wraps every public function defined in the layer
modules and rebinds the wrapper under every name that refers to the
function in any trialeff module, so nested calls (for instance from
``coverage_study`` or ``cli.main``) are recorded too.  Each span keeps
its name, start, end, parent span and op id in memory; ``summary``
derives call counts, self times and per-call latencies, and ``save``
writes the raw spans out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import trialeff

# trialeff.trial only holds validated dataclasses and is not timed.
LAYERS = ("numerics", "posterior", "classical", "simulate", "sample_size", "diagnostics")
POSTERIOR_SPANS = ("posterior.posterior", "posterior.posterior_at_prevalence")


class Tracer:
    """Spans of one traced phase; op ids below ``pass_ops`` form its first pass."""

    def __init__(self, pass_ops: int):
        self.pass_ops = pass_ops
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name_of = array("q")
        self.errors: defaultdict = defaultdict(int)
        self.grid_points: defaultdict = defaultdict(int)
        self.intervals = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        clock = time.perf_counter
        index = len(self.start)
        self.start.append(clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.name_of.append(self._name_id(name))
        self._stack.append(index)
        first_pass = 0 <= self.op_id < self.pass_ops
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[name] += first_pass
            raise
        finally:
            self.end[index] = clock()
            self._stack.pop()
        if first_pass:
            if isinstance(result, trialeff.PosteriorGrid) and name in POSTERIOR_SPANS:
                self.grid_points[name] += len(result.efficacies)
            elif isinstance(result, (trialeff.EfficacyEstimate, trialeff.IntervalEstimate)):
                self.intervals += 1
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "trialeff" or key.startswith("trialeff.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"trialeff.{layer}"]
            for attr, value in vars(module).items():
                if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and not attr.startswith("_"):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self, passes: int) -> dict[str, dict]:
        """Per span name: calls and errors in the first pass, self ms per pass, p50 call time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        name_of = np.frombuffer(self.name_of, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - child
        first = (op >= 0) & (op < self.pass_ops)
        out = {}
        for k, name in enumerate(self.names):
            mine = name_of == k
            out[name] = {
                "calls": int(np.count_nonzero(mine & first)),
                "self_ms": float(self_time[mine].sum()) * 1e3 / passes,
                "p50_us": float(np.median(duration[mine])) * 1e6,
                "errors": self.errors[name],
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64), name=np.frombuffer(self.name_of, dtype=np.int64))

