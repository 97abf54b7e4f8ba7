"""Span tracer that wraps ybc's layer boundaries from outside the package.

A layer is one module of ``ybc``.  The tracer wraps every public function
and every public method of a public class defined in a layer module, plus
the check functions that ``cli.VERIFY_CHECKS`` dispatches to, except the
entry points ``cli.main`` and ``cli.entry_point``.  Each name is
patched where it is looked up: in the defining module, in every module
that bound it by ``from``-import, and in module-level lists that captured
the function object at import time (``cli.VERIFY_CHECKS``).  Everything is
restored on exit.  Constructors are not wrapped: a dataclass built by a
caller counts toward the caller's layer.

Spans (name, start, end, parent) are kept in memory as flat lists and
reduced to per-name call counts and self times when the tracer stops.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "strategies", "coherence", "linalg", "braid_ybe", "gates")

# The CLI entry points are left unwrapped, so that the cmd_* handlers are
# the root spans and main's own argument and config handling shows as
# time outside every layer.
UNWRAPPED = {"cli.main", "cli.entry_point"}


class Tracer:
    """Context manager: patch ybc on entry, record spans, restore on exit."""

    def __init__(self):
        import ybc  # here, so that the runner can report missing sources cleanly

        self.layers = {name: importlib.import_module(f"ybc.{name}") for name in LAYERS}
        self.modules = [ybc, *self.layers.values()]
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _setattr(self, owner, attr: str, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _setitem(self, container: list, index: int, value) -> None:
        self._undo.append((list.__setitem__, container, index, container[index]))
        container[index] = value

    def _install(self) -> None:
        targets = {}  # id(function) -> (function, span name)
        for layer, module in self.layers.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._setattr(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
        for entry in self.layers["cli"].VERIFY_CHECKS:
            fn = entry[1]
            targets.setdefault(id(fn), (fn, f"cli.{fn.__name__}"))
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}

        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._setattr(module, attr, wrappers[id(obj)])
                elif isinstance(obj, list):
                    for i, entry in enumerate(obj):
                        if isinstance(entry, tuple) and any(
                            inspect.isfunction(v) and id(v) in wrappers for v in entry
                        ):
                            patched = tuple(
                                wrappers[id(v)]
                                if inspect.isfunction(v) and id(v) in wrappers
                                else v
                                for v in entry
                            )
                            self._setitem(obj, i, patched)

    def _restore(self) -> None:
        while self._undo:
            op, owner, key, original = self._undo.pop()
            op(owner, key, original)

    # -- reduction ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays; times in ns from an arbitrary origin."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.int64),
            "end": np.array(self.span_end, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-name and per-layer call counts and self times, plus root time.

        Returns {"functions": {name: {"calls", "self_s"}}, "layers": {layer:
        {"calls", "self_s"}}, "root_s": total duration of top-level spans}.
        """
        s = self.spans()
        n = len(s["start"])
        dur = (s["end"] - s["start"]) / 1e9
        has_parent = s["parent"] >= 0
        child = np.bincount(
            s["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - child
        calls = np.bincount(s["name"], minlength=len(self.names))
        selfs = np.bincount(s["name"], weights=self_time, minlength=len(self.names))
        functions: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(selfs[i])
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, entry in functions.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
        return {
            "functions": functions,
            "layers": layers,
            "root_s": float(dur[~has_parent].sum()),
        }
