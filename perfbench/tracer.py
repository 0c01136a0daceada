"""Outside-in span recorder for the traced benchmark run.

The recorder wraps speakergraph from outside; nothing under ``src/`` knows
about it. A function is wrapped at every module attribute that binds it,
because ``from .graph import affinity`` copies the function object into
``speakergraph.evaluate`` and a wrapper installed only on ``graph`` would
miss those calls. A few methods are wrapped on their class, and
``numpy.linalg.eigh``/``solve`` are recorded as a kernel boundary, but only
when called from a speakergraph module.

Each span is ``[name, start, end, parent, eval_id, extra]``: parent is the
index of the enclosing span (None at the root), eval_id names the household
evaluation that caused it, and extra holds what a hook read from the call
(the spec label, the view name, or the solver's iterations). Spans stay in
memory until the benchmark writes them out at the end.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "speakergraph"
LAYERS = ("simulate", "dataio", "records", "graph", "fusion", "propagation",
          "baselines", "evaluate")
# (layer, class, method): methods whose cost the per-layer metrics name.
METHODS = (
    ("records", "HouseholdDataset", "ordered"),
    ("fusion", "FusedGraph", "subgraph"),
    ("fusion", "FusedGraph", "propagation_matrix"),
    ("propagation", "HouseholdGraph", "without_heldout"),
)
KERNELS = ("eigh", "solve")


def _spec_label(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["spec"]).label


def _view_name(args, kwargs, result):
    return (args[0] if args else kwargs["view"]).name


def _solver_outcome(args, kwargs, result):
    return result.iterations, result.converged


HOOKS = {
    "evaluate.run_method": _spec_label,
    "graph.pairwise_distances": _view_name,
    "propagation.propagate": _solver_outcome,
}


class Recorder:
    """Span list plus the bindings to swap in while tracing is on."""

    def __init__(self):
        self.spans: list[list] = []
        self.eval_id: str | None = None
        self._stack: list[int] = []
        self._bindings = self._find_bindings()

    def _wrap(self, name, fn, from_package_only=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if from_package_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(PACKAGE):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.eval_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def _find_bindings(self):
        layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        owners = [m for name, m in list(sys.modules.items())
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        bindings = []
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in owners:
                    for owner_attr, value in list(vars(owner).items()):
                        if value is fn:
                            bindings.append((owner, owner_attr, fn, wrapper))
        for layer, cls_name, attr in METHODS:
            cls = getattr(layers[layer], cls_name)
            fn = cls.__dict__[attr]
            bindings.append((cls, attr, fn, self._wrap(f"{layer}.{attr}", fn)))
        for attr in KERNELS:
            fn = getattr(np.linalg, attr)
            bindings.append((np.linalg, attr, fn,
                             self._wrap(f"linalg.{attr}", fn, from_package_only=True)))
        return bindings

    @contextlib.contextmanager
    def installed(self, eval_id: str):
        """Trace one household evaluation; every wrapper is removed on exit."""
        self.eval_id = eval_id
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)
            self.eval_id = None

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own
