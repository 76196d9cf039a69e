"""In-memory spans around the calls into the program's modules.

``Tracer.install`` replaces every public function of the traced modules, in
every ``pdblearn`` module namespace that refers to it, with a wrapper that
records one span (name, start, end, parent) for each call made from outside
the function's own module: from the benchmark or from another layer.  Calls
inside one module are that layer's own work and get no span.  ``uninstall``
restores the originals.  Spans are kept in memory and written once, by
``write``.

Calls made inside worker processes are not seen: their time shows up as
self time of the parent span that waited for them.

``patched_learn`` wraps ``learning.learn`` the same way, without spans: the
traced run's plain rounds use it to record accepted steps as the traced
rounds do, and ``sat-restarts`` uses it to count the passes of every
restart.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from dataclasses import replace

LAYERS = ("cli", "io", "datalog", "lineage", "inference", "learning", "applications")


class Tracer:
    def __init__(self):
        self.names: list = []  # span name per name id
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self.learn_calls: list = []  # (span index, LearnResult)
        self._stack: list = []
        self._saved: list = []  # (namespace, attribute, original)

    def install(self) -> None:
        package = _package()
        for layer in LAYERS:
            module = sys.modules[f"pdblearn.{layer}"]
            exported = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in exported:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}", module.__name__)
                for namespace in package:
                    if vars(namespace).get(attr) is fn:
                        self._saved.append((namespace, attr, fn))
                        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._saved):
            setattr(namespace, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, home):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        caller = sys._getframe
        is_learn = name == "learning.learn"

        def wrapper(*args, **kwargs):
            if caller(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            if is_learn:
                args, kwargs = _record_accepted(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if is_learn:
                self.learn_calls.append((index, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def duration_ms(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return (end - start) * 1000.0

    def self_ms(self) -> dict:
        """Per-layer self time: span time not covered by child spans."""
        child_ms = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            layer = self.names[name_id].split(".", 1)[0]
            out[layer] += (end - start) * 1000.0 - child_ms[i]
        return out

    def write(self, path) -> None:
        base = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [self.names[n], round((a - base) * 1e6, 1), round((b - base) * 1e6, 1), p]
            for n, a, b, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_us", "end_us", "parent"], "spans": rows}, handle)


def _package() -> list:
    return [m for n, m in sys.modules.items() if n == "pdblearn" or n.startswith("pdblearn.")]


@contextlib.contextmanager
def patched_learn(wrap):
    """Replace ``learning.learn`` with ``wrap(learn)`` in every module that refers to it."""
    fn = sys.modules["pdblearn.learning"].learn
    wrapper = wrap(fn)
    namespaces = [m for m in _package() if vars(m).get("learn") is fn]
    for namespace in namespaces:
        namespace.learn = wrapper
    try:
        yield
    finally:
        for namespace in namespaces:
            namespace.learn = fn


def recording_accepted():
    """Turn on ``record_accepted`` in every ``learn`` call, with no spans."""

    def wrap(fn):
        def learn(*args, **kwargs):
            args, kwargs = _record_accepted(args, kwargs)
            return fn(*args, **kwargs)

        return learn

    return patched_learn(wrap)


def _record_accepted(args, kwargs):
    """Turn on ``record_accepted`` so the traced run can count accepted steps."""
    from pdblearn.learning import LearnerConfig

    args = list(args)
    if len(args) > 1:
        args[1] = replace(args[1] or LearnerConfig(), record_accepted=True)
    else:
        kwargs["cfg"] = replace(kwargs.get("cfg") or LearnerConfig(), record_accepted=True)
    return tuple(args), kwargs
