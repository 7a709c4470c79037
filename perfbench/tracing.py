"""Span tracing of robosym from outside the program.

``install`` wraps every public function of the layer modules, at every
binding site in the ``robosym.*`` namespaces (a name imported with
``from .groups import group_closure`` is a binding site too), so nested
calls such as ``cli.main`` -> ``augment.read_csv`` or ``rigid.mass_matrix``
-> ``rigid.jacobians`` are seen.  Nothing under ``src/`` changes; with
tracing off nothing is installed.

A span has a name, start, end and parent.  Spans are recorded only inside
a root span opened by the benchmark ("setup" or "op.<kind>"), kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its children, so the self times of one
root's tree add up to the root's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("groups", "basis", "nets", "augment", "rigid", "cli")
# Methods traced in addition to module-level functions.
METHODS = {"nets": {"EquivLayer": ("__init__", "weight", "bias", "coeff_grads")}}


class Tracer:
    """Spans as flat lists of numbers (no per-span objects for the garbage
    collector to scan): name index, start, end, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name, name_idx=None) -> int:
        idx = len(self.starts)
        self.name_of.append(self.name_index(name) if name_idx is None else name_idx)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        name_idx = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self.begin(name, name_idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.end(idx)
            if hook is not None:
                try:
                    hook(self.counters, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.counters["trace.hook_errors"] += 1
            return result

        return traced

    def summary(self):
        """Per-span arrays: name, self seconds, duration, root index."""
        n = len(self.starts)
        dur = np.array(self.ends) - np.array(self.starts)
        parent = np.array(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        root = np.arange(n)
        for i in np.flatnonzero(has_parent):  # parents precede children
            root[i] = root[parent[i]]
        names = np.array(self.names, dtype=object)[np.array(self.name_of, dtype=np.int64)]
        return names, dur - child, dur, root

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "name": self.name_of, "start": self.starts,
                       "end": self.ends, "parent": self.parents}, f)


# --- counters computed at the layer boundaries ------------------------------


def _closure_hook(counters, args, result):
    group = result[0]
    counters["groups.cayley_entries"] += group.order ** 2


def _orbit_basis_hook(counters, args, basis):
    mn = basis.m * basis.n
    counters["basis.coords"] += mn
    counters["basis.orbit_visits"] += args[0].group.order * mn
    counters["basis.zero_forced"] += len(basis.zero_forced)


def _matmul_flops(net, x, backward):
    """Multiply-adds x 2 of the dense products, computed from array sizes.

    Forward: x @ W.T per layer.  Backward: delta.T @ x per layer, plus
    delta @ W for every layer but the first.
    """
    batch = x.shape[0] if np.ndim(x) == 2 else 1
    sizes = [layer.m * layer.n for layer in net.layers]
    products = sum(sizes) + sum(sizes[1:]) if backward else sum(sizes)
    return 2 * batch * products


def _forward_hook(counters, args, result):
    counters["nets.matmul_flops"] += _matmul_flops(args[0], args[1], backward=False)


def _grad_hook(counters, args, result):
    # the forward pass inside grad_coeffs is counted by the forward hook
    counters["nets.matmul_flops"] += _matmul_flops(args[0], args[1], backward=True)


def _rows_out_hook(counters, args, result):
    counters["augment.rows_out"] += result.shape[0]


HOOKS = {
    "groups.group_closure": _closure_hook,
    "basis.orbit_basis": _orbit_basis_hook,
    "nets.forward": _forward_hook,
    "nets.grad_coeffs": _grad_hook,
    "augment.augment_dataset": _rows_out_hook,
    "augment.orbit_average": _rows_out_hook,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
            yield attr, obj


def install(tracer: Tracer):
    """Wrap the layer modules' public functions; returns an uninstall callable."""
    import robosym.cli  # noqa: F401  imports every layer module

    namespace = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "robosym" or name.startswith("robosym."))]
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"robosym.{layer}"]
        for attr, fn in list(_public_functions(module)):
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn, HOOKS.get(name))
            for site in namespace:
                for site_attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, site_attr, wrapper)
                        undo.append((site, site_attr, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                label = "init" if meth == "__init__" else meth
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{label}", fn))
                undo.append((cls, meth, fn))

    def uninstall():
        for obj, attr, fn in reversed(undo):
            setattr(obj, attr, fn)

    return uninstall
