"""Per-layer spans for the traced benchmark run, recorded from outside the package.

The tracer wraps every public function of the layer modules at every module
attribute that binds it (``rapidgauss.interpolation.propagate``, and also
``rapidgauss.cli.propagate``, ``rapidgauss.thermalization.propagate`` and
``rapidgauss.propagate``), so calls are caught whichever name the caller
used.  Nothing under ``src/`` is edited.  ``uninstall`` puts the original
objects back; ``install`` may be called again afterwards and reuses the same
wrappers.

Spans are kept in memory while the run goes on and are reduced to per-layer
figures when it ends.  A span's self time is its duration minus the time
its child spans cover, so the self times of all spans add up to the
duration of the root spans (one ``cli.main`` per job).
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "thermalization",
    "bombardment",
    "classifier",
    "interpolation",
    "channels",
    "phasespace",
    "linalg",
    "sampling",
)

# Kernels whose square input size is recorded: dim_max and sum of dim^3.
KERNELS = (
    "linalg.mat_exp",
    "linalg.mat_log_principal",
    "linalg.logm_div",
    "linalg.expm1_div",
)

_MARK = "__bench_span__"


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "rapidgauss" or name.startswith("rapidgauss.")
    ]


def find_wrappers():
    """Names of package attributes that currently hold a tracing wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{attr}")
    return found


class Tracer:
    """Span recorder.  Spans are taken only while ``active`` is true, that is
    inside a job; ``set_tag`` labels the spans of the current job (its mode
    count on the multimode workload)."""

    def __init__(self):
        self.active = False
        self.names = []
        self.tags = [None]
        self._tag = 0
        # one entry per span in each column; parent is a span position or -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_tag = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.kernel_dims = []
        self._stack = []
        self._bindings = []  # (module, attribute, original, wrapper)

    def install(self):
        if find_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        if not self._bindings:
            self._bindings = self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)

    def _bind(self):
        """Wrappers for every public layer function, at every binding."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"rapidgauss.{layer}"]
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    targets[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        bindings = []
        for module in _package_modules():
            for attr, value in vars(module).items():
                wrapper = targets.get(id(value))
                if wrapper is not None and getattr(wrapper, _MARK) is value:
                    bindings.append((module, attr, value, wrapper))
        return bindings

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        starts, ends = self.span_start, self.span_end
        kernel = name in KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if kernel:
                self.kernel_dims.append(int(np.shape(args[0])[0]))
            position = len(starts)
            self.span_name.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_tag.append(self._tag)
            ends.append(0.0)
            stack.append(position)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[position] = clock()
                stack.pop()

        setattr(wrapper, _MARK, fn)
        return wrapper

    def set_tag(self, tag):
        """Label the spans of the next job."""
        if tag not in self.tags:
            self.tags.append(tag)
        self._tag = self.tags.index(tag)

    def summary(self):
        """Per-function totals {name: [calls, self_s]}, per-tag totals
        {(name, tag): [self_s, inclusive_s]}, and the summed duration of the
        root spans."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        root_s = 0.0
        for position, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[position]
            else:
                root_s += durations[position]
        per_function = {}
        per_tag = {}
        for position, (index, tag) in enumerate(zip(self.span_name, self.span_tag)):
            name = self.names[index]
            own = durations[position] - child[position]
            entry = per_function.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
            entry = per_tag.setdefault((name, self.tags[tag]), [0.0, 0.0])
            entry[0] += own
            entry[1] += durations[position]
        return per_function, per_tag, root_s
