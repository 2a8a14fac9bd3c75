"""Layer spans recorded from outside the program.

``Tracer.install`` replaces every public function and public method of the
``pupcast`` modules with a wrapper that times the call, and ``uninstall``
puts the originals back.  Nothing in the package is edited.

A span opens where a call crosses from one layer (module) into another, so
``kernel.pmf_at`` called from the engine is one span that also covers the
kernel's own helpers, while its calls into ``timebase`` are child spans.
The engine's stages named in ``STAGES`` open a span even when called from
inside the engine.  A span's self time is its duration minus the time
covered by its child spans.  Spans are aggregated in memory by name:
``calls`` and ``self_s`` per name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "pupcast"

LAYERS = (
    "pmf", "timebase", "kernel", "records", "estimation", "arrivals",
    "engine", "baselines", "evaluate", "oracle", "scenario", "cli",
)

# Engine-internal stages worth a span of their own.
STAGES = frozenset({"engine.future_orders_pmf", "engine.prob_future_order_contributes"})

# Span names that group several public functions.
ALIASES = {
    "records.truncated": "records.truncate",
    "records.for_pup": "records.truncate",
}


class _Span:
    """One open span; on exit its self time is added to the tracer's stats."""

    __slots__ = ("stack", "entry", "frame", "t0")

    def __init__(self, tracer: "Tracer", name: str, layer: str):
        self.stack = tracer._stack
        self.entry = tracer.stats[name]
        self.frame = [layer, 0.0]  # [layer, time covered by children]

    def __enter__(self):
        self.stack.append(self.frame)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        self.stack.pop()
        self.stack[-1][1] += elapsed
        self.entry[0] += 1
        self.entry[1] += elapsed - self.frame[1]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self._stack: list[list] = [["bench", 0.0]]
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----

    def span(self, name: str, layer: str = "bench") -> _Span:
        """A span as a context manager; the benchmark opens its own in the layer ``bench``."""
        return _Span(self, name, layer)

    def reset(self) -> dict[str, list]:
        """Return the aggregates recorded so far and start afresh."""
        stats = {name: list(v) for name, v in self.stats.items()}
        self.stats.clear()
        return stats

    def _wrap(self, func, layer: str, name: str):
        name = ALIASES.get(name, name)
        always = name in STAGES
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not always and stack[-1][0] == layer:
                return func(*args, **kwargs)
            with _Span(self, name, layer):
                return func(*args, **kwargs)

        return wrapper

    # ---- patching ----

    def _modules(self):
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is not None:
                yield layer, mod

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer, mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer)
        # a function imported by name into other modules, or re-exported by
        # the package, is patched there too
        namespaces = [mod for _, mod in self._modules()] + [sys.modules[PACKAGE]]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, name)
            else:
                continue  # properties and class attributes stay as they are
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
