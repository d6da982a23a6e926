"""Spans around calls into diffspec, recorded from outside the program.

``install`` replaces every public function of the ``gf2m``, ``powerfn``,
``theorem`` and ``cli`` modules, and every public method of the classes
they define, with a wrapper that records a span while the tracer is
active.  A name is replaced in every ``diffspec`` module that bound it,
so ``theorem``'s own imports of ``derivative_table`` and
``spectrum_brute`` are traced as well.  ``GF2m.check`` runs on nearly
every operand, so it is counted, not spanned.

Spans live in memory as four compact columns (name, start, end, parent)
and are written out with ``save`` when the run ends.  Self time, a span's
duration minus the time its direct children cover, is summed per name as
spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

TRACED_MODULES = ("gf2m", "powerfn", "theorem", "cli")
COUNT_ONLY = {"gf2m.check"}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self._stack: list[list[int]] = []   # [span index, ns covered by children]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def open(self, nid: int):
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.end_col.append(0)
        self._stack.append([idx, 0])
        self.start_col.append(time.perf_counter_ns())

    def close(self, nid: int):
        end = time.perf_counter_ns()
        idx, child_ns = self._stack.pop()
        self.end_col[idx] = end
        dur = end - self.start_col[idx]
        self.self_ns[nid] += dur - child_ns
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def snapshot(self) -> dict[str, float]:
        """Totals so far: '<name>.calls', '<name>.self_s' and every counter."""
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9
        return out

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.name_col, dtype=np.uint16),
                start_ns=np.frombuffer(self.start_col, dtype=np.int64),
                end_ns=np.frombuffer(self.end_col, dtype=np.int64),
                parent=np.frombuffer(self.parent_col, dtype=np.int64),
            )


def _span(tracer: Tracer, name: str, fn, observe):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(nid)
        if observe is not None:
            observe(tracer.counts, args, result)
        return result

    return wrapper


def _count(tracer: Tracer, name: str, fn):
    key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, observers: dict) -> list[str]:
    """Wrap the public callables of the traced modules; return the span names.

    ``observers`` maps a span name to ``f(counts, args, result)``, called
    after each traced call of that name returns.
    """
    replaced: dict[int, object] = {}
    names = []
    for short in TRACED_MODULES:
        module = sys.modules[f"diffspec.{short}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets = [(module, attr, obj)]
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                    and not issubclass(obj, BaseException):
                targets = [(obj, meth, fn) for meth, fn in list(vars(obj).items())
                           if not meth.startswith("_") and inspect.isfunction(fn)]
            else:
                continue
            for owner, meth, fn in targets:
                name = f"{short}.{meth}"
                if name in names:
                    raise RuntimeError(f"two traced callables share the span name {name}")
                names.append(name)
                if name in COUNT_ONLY:
                    wrapped = _count(tracer, name, fn)
                else:
                    wrapped = _span(tracer, name, fn, observers.get(name))
                setattr(owner, meth, wrapped)
                replaced[id(fn)] = (fn, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "diffspec" and not mod_name.startswith("diffspec."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return names
