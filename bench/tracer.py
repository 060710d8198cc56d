"""In-memory span tracer installed over distlap's public module attributes.

install() replaces every public function bound in a distlap module namespace
(including names one module imported from another) with a wrapper that opens
a span around the call; uninstall() puts the originals back. Nothing on disk
changes. A generator function gets one span per item it yields, so the cost
of producing each graph of a stream lands on the module that produced it.

Self time is charged at every span boundary: the time since the previous
boundary goes to the layer on top of the span stack, under the size n of the
graph being worked on. That equals each span's duration minus its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "distlap"
LAYERS = ("graph6", "graphs", "operators", "linalg", "bounds", "certify",
          "scan", "cli")
# only input resolution in cli reaches named_graphs, so it counts as cli
LAYER_OF_MODULE = {"named_graphs": "cli"}


def layer_of(func):
    mod = func.__module__.rsplit(".", 1)[-1]
    return LAYER_OF_MODULE.get(mod, mod)


def _graph_n(item):
    g = item[-1] if isinstance(item, tuple) and item else item
    return getattr(g, "n", None)


class Tracer:
    """Spans (name, start, end, parent, request) plus self time per layer.

    hooks maps a span name such as "scan.scan_conjecture" to a callable
    hook(args, kwargs, result); for a generator function result is the
    number of items it yielded. Times are read from clock, by default
    perf_counter.
    """

    def __init__(self, hooks=None, clock=perf_counter):
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.self_s = defaultdict(float)  # (layer, n) -> seconds
        self.request_id = 0
        self.current_n = 0
        self._stack = []
        self._last = 0.0
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, nid, layer):
        t = self.clock()
        stack = self._stack
        if stack:
            top, top_layer = stack[-1]
            self.self_s[top_layer, self.current_n] += t - self._last
        else:
            top = -1
        stack.append((len(self.start), layer))
        self.start.append(t)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(top)
        self.request.append(self.request_id)
        self._last = t

    def _exit(self):
        t = self.clock()
        idx, layer = self._stack.pop()
        self.self_s[layer, self.current_n] += t - self._last
        self.end[idx] = t
        self._last = t

    def _traced_gen(self, gen, nid, layer, hook, args, kwargs):
        count = 0
        try:
            while True:
                self._enter(nid, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                else:
                    count += 1
                    n = _graph_n(item)
                    if n is not None:
                        self.current_n = n
                finally:
                    self._exit()
                yield item
        finally:
            gen.close()
            if hook is not None:
                hook(args, kwargs, count)
                self._last = self.clock()

    def _wrap(self, func):
        layer = layer_of(func)
        qualname = f"{layer}.{func.__name__}"
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        hook = self.hooks.get(qualname)
        if inspect.isgeneratorfunction(func):
            def wrapper(*args, **kwargs):
                return self._traced_gen(
                    func(*args, **kwargs), nid, layer, hook, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                self._enter(nid, layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._exit()
                if hook is not None:
                    hook(args, kwargs, result)
                    self._last = self.clock()  # hooks are not program time
                return result
        return functools.update_wrapper(wrapper, func)

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer, n=None):
        return sum(s for (lay, size), s in self.self_s.items()
                   if lay == layer and (n is None or size == n))

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.request, dtype=np.int32))
