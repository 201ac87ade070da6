"""Span tracing installed from outside the program.

:class:`Tracer` wraps the public functions and classes of the ctrlsim
modules with timing wrappers, keeps one span per wrapped call in memory
(with the id of the span that was open when it started), and restores
every wrapped attribute on :meth:`Tracer.restore`.  Nothing under
``src/`` is edited: wrappers are set on module namespaces and classes at
run time.

A function is wrapped in every loaded ctrlsim module that holds it by
name (``subspace_embed`` in ``photonic``, ``haar_unitary`` in ``nogo``
and ``cli``), under the span name of the module that defines it.  A
class is wrapped on the class itself (its ``__init__`` and its
classmethods), which every importer shares.  ``EXTERNAL`` lists the
library functions a module imported by name that get a span of their
own, such as scipy's ``expm`` and ``minimize`` in ``nogo``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import types

MODULES = ("hilbert", "photonic", "ion", "nogo", "cli")
EXTERNAL = {"nogo": ("expm", "minimize")}

# Spans whose first argument identifies the matrix the call builds; the
# count of distinct (parent span, argument) pairs over the call count is
# the layer's compile_useful_ratio.
KEYED = ("photonic.element_unitary", "ion.pulse_unitary")


class Tracer:
    """Install timing wrappers, record spans, restore the originals.

    A span is the tuple ``(id, parent_id, op, name, start_ns, end_ns,
    failed, key)``; ``parent_id`` is -1 for a root span and ``op`` is the
    benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording ---------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, key=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        failed = False
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end, failed, key))

    def _wrap(self, name: str, fn):
        keyed = name in KEYED
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs, args[0] if keyed and args else None)

        return wrapper

    # -- installing --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and class of :data:`MODULES`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        loaded = _ctrlsim_modules()
        for short in MODULES:
            module = loaded[short]
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(value, type):
                    self._wrap_class(name, value)
                elif isinstance(value, types.FunctionType):
                    wrapper = self._wrap(name, value)
                    for holder in loaded.values():
                        for held, obj in list(vars(holder).items()):
                            if obj is value:
                                self._set(holder, held, wrapper)
            for attr in EXTERNAL.get(short, ()):
                self._set(module, attr, self._wrap(f"{short}.{attr}", getattr(module, attr)))

    def _wrap_class(self, name: str, cls: type) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(desc):
                self._set(cls, attr, self._wrap(name, desc))
            elif isinstance(desc, classmethod) and not attr.startswith("_"):
                self._set(cls, attr, classmethod(self._wrap(f"{name}.{attr}", desc.__func__)))

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- reading -----------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, inclusive and self time, p50.

        Self time is a span's duration minus the durations of its direct
        children; single-threaded calls nest, so the children cover
        disjoint parts of the parent's interval.
        """
        child_ns: dict[int, int] = {}
        for sid, parent, _op, _name, start, end, _failed, _key in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        stats: dict[str, dict] = {}
        keys: dict[str, set] = {}
        for sid, parent, _op, name, start, end, failed, key in self.spans:
            s = stats.setdefault(name, {"calls": 0, "errors": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            dur = end - start
            s["calls"] += 1
            s["errors"] += failed
            s["total_ns"] += dur
            s["self_ns"] += dur - child_ns.get(sid, 0)
            s["durations_ns"].append(dur)
            if name in KEYED:
                keys.setdefault(name, set()).add((parent, key))
        for name, s in stats.items():
            s["p50_ns"] = statistics.median(s.pop("durations_ns"))
            if name in keys:
                s["distinct"] = len(keys[name])
        return stats

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tfailed\n")
            for sid, parent, op, name, start, end, failed, _key in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start}\t{end}\t{int(failed)}\n")


def _ctrlsim_modules() -> dict[str, types.ModuleType]:
    """Loaded ctrlsim modules by short name ('' for the package)."""
    loaded = {}
    for full, module in list(sys.modules.items()):
        if full == "ctrlsim" or full.startswith("ctrlsim."):
            loaded[full.partition(".")[2]] = module
    missing = [m for m in MODULES if m not in loaded]
    if missing:
        raise RuntimeError(f"ctrlsim modules not imported: {missing}")
    return loaded
