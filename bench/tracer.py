"""Layer tracer for the eiskling package, installed from outside.

A layer is a module of the package; exact_arith is split into its four
parts (cyc, quad, herm, enum).  Installing the tracer wraps every function
and method the layers define, in their own modules and wherever another
module imported them by name.  A call from one layer into another opens a
span; a call within the same layer opens none.  Each thread keeps its own
span stack, so worker threads are attributed to the layers they run.

Self time is the thread's CPU time in a span minus that of its child spans,
so threads waiting for the interpreter lock are not charged for it.  Spans
are folded into per-layer totals in memory and read out once, by totals().
hecke is not traced: its calls count towards their caller.
"""

import functools
import inspect
import sys
import threading
import time

from concurrent.futures import ThreadPoolExecutor

MODULES = ["exact_arith", "characters", "values", "padic", "bernoulli_kl",
           "qexp_diff", "pullback", "siegel_fourier", "interpolation", "cli"]

EXACT_ARITH_LAYERS = {
    "CycNumber": "exact_arith.cyc",
    "QuadFieldElem": "exact_arith.quad",
    "quad_det": "exact_arith.quad",
    "HermitianMatrix": "exact_arith.herm",
    "leading_minors": "exact_arith.herm",
    "is_positive_definite": "exact_arith.herm",
    "enumerate_hermitian": "exact_arith.enum",
    "_isqrt": "exact_arith.enum",
}

# (layer, function name) -> counter; counted on every call, within a layer too
COUNTERS = {
    ("exact_arith.cyc", "__mul__"): "exact_arith.cyc.mul_calls",
    ("exact_arith.cyc", "inverse"): "exact_arith.cyc.inverse_calls",
    ("exact_arith.herm", "det"): "exact_arith.herm.det_calls",
    ("exact_arith.herm", "minor"): "exact_arith.herm.minor_calls",
    ("siegel_fourier", "assemble_global"): "siegel_fourier.assemble_calls",
    ("padic", "embed_cyclotomic"): "padic.embed_calls",
}
YIELD_COUNTERS = {"exact_arith.enum": "exact_arith.enum.yielded"}

LAYERS = sorted(set(MODULES) - {"exact_arith"}
                | set(EXACT_ARITH_LAYERS.values()) | {"exact_arith.cyc"})


def layer_of(module, name):
    if module == "exact_arith":
        return EXACT_ARITH_LAYERS.get(name, "exact_arith.cyc")
    return module


class _ThreadState:
    def __init__(self):
        self.stack = []  # open spans: [layer, CPU time of child spans]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self.pool_wait_s = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _span(self, state, layer, call, args, kwargs):
        stack = state.stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.thread_time()
        try:
            return call(*args, **kwargs)
        finally:
            dur = time.thread_time() - t0
            stack.pop()
            state.self_s[layer] += dur - frame[1]
            state.spans[layer] += 1
            if stack:
                stack[-1][1] += dur

    def wrap(self, fn, layer):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        counter = COUNTERS.get((layer, fn.__name__))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            if counter is not None:
                state.counts[counter] = state.counts.get(counter, 0) + 1
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return self._span(state, layer, fn, args, kwargs)
        return traced

    def _wrap_generator(self, fn, layer):
        """Each next() on the generator is a span of the generator's layer."""
        counter = YIELD_COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                state = self._state()
                stack = state.stack
                try:
                    if stack and stack[-1][0] == layer:
                        item = next(gen)
                    else:
                        item = self._span(state, layer, next, (gen,), {})
                except StopIteration:
                    return
                if counter is not None:
                    state.counts[counter] = state.counts.get(counter, 0) + 1
                yield item
        return traced

    def _timed_results(self, results, layer):
        """Yield from an executor's results, adding the wall time spent
        waiting for each to <layer>.pool_wait_s."""
        state = self._state()
        while True:
            t0 = time.perf_counter()
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                state.pool_wait_s[layer] = (state.pool_wait_s.get(layer, 0.0)
                                            + time.perf_counter() - t0)
            yield item

    def _pool_class(self, layer):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                return tracer._timed_results(
                    super().map(fn, *iterables, **kwargs), layer)
        return TracedPool

    def _wrap_class(self, cls, module):
        layer = layer_of(module, cls.__name__)
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self.wrap(attr.__func__, layer))
            elif isinstance(attr, property):
                new = property(self.wrap(attr.fget, layer), attr.fset,
                               attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                new = self.wrap(attr, layer)
            else:
                continue
            setattr(cls, name, new)

    def install(self):
        """Wrap the layers of the imported eiskling package in place."""
        wrapped = {}  # id(original) -> wrapper
        for module in MODULES:
            mod = sys.modules["eiskling." + module]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, module)
                elif callable(obj):
                    layer = layer_of(module, name)
                    wrapped[id(obj)] = (obj, self.wrap(obj, layer))
            for name, obj in list(vars(mod).items()):
                if obj is ThreadPoolExecutor:
                    setattr(mod, name, self._pool_class(module))
        for modname, mod in list(sys.modules.items()):
            if modname != "eiskling" and not modname.startswith("eiskling."):
                continue
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])

    def totals(self):
        """Per-layer self time (s), span counts, counters and pool waits,
        summed over threads."""
        with self._lock:
            states = list(self._states)
        out = {"self_s": dict.fromkeys(LAYERS, 0.0),
               "spans": dict.fromkeys(LAYERS, 0), "counts": {},
               "pool_wait_s": {}}
        for state in states:
            for key in ("self_s", "spans", "counts", "pool_wait_s"):
                for name, value in getattr(state, key).items():
                    out[key][name] = out[key].get(name, 0) + value
        return out
