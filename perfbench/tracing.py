"""Span tracing for the traced benchmark run.

The tracer wraps the public functions and methods of every ``ssiledger``
module from outside the package. A span is one call of a wrapped callable; it
is named ``<layer>.<qualname>``, where the layer is the module name
(``crypto.verify``, ``ledger.LedgerTransaction.to_dict``,
``consensus.ConsensusNode.on_message``).

Spans are aggregated in memory per (parent span, span) edge as call count,
total time and self time (total minus the time covered by child spans), so a
long run does not keep one record per call. ``Tracer.table()`` returns the
edges for writing out when the benchmark ends.

Modules import names with ``from .x import y``, so each wrapper is bound at
the defining module and at every module that imported the original object
(``ssiledger.consensus.digest_of`` is ``ssiledger.crypto.digest_of``).
Methods are patched on their class, which every importer shares. Private
names, dunder methods and properties are not wrapped: their time counts as
self time of the public span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from typing import Any, Callable

from meter import wall_section

LAYERS = (
    "canonical",
    "crypto",
    "ledger",
    "state",
    "simnet",
    "consensus",
    "simulation",
    "wallet",
    "auth",
    "credentials",
    "scenarios",
    "cli",
)

ROOT = "<root>"


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """Installs span wrappers into ``ssiledger`` and aggregates the spans."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, child_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self._patches: list[tuple[Any, str, Any]] = []
        self.queue_peak = 0
        self.enabled = False
        self.window_s = 0.0  # wall seconds spent inside measurement windows

    @contextlib.contextmanager
    def window(self):
        """Record spans only inside a measurement window, so the benchmark's
        own set-up and output checks stay out of the layer shares. Yields
        the window's ``Section``, timed in plain wall seconds."""
        self.enabled = True
        try:
            with wall_section() as section:
                yield section
        finally:
            self.enabled = False
            self.window_s += section.seconds

    # -- recording

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = edges.get((parent, name))
                if record is None:
                    record = edges[(parent, name)] = [0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation

    def install(self) -> None:
        """Wrap every public function and method of the ssiledger modules."""
        import click

        modules = {layer: importlib.import_module(f"ssiledger.{layer}") for layer in LAYERS}
        wrapped: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
                elif isinstance(value, click.Command) and value.callback is not None:
                    # click commands: the span is the command callback
                    self._patch(value, "callback", self._wrap(f"{layer}.{attr}", value.callback))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
        self._probe_queue()

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, value.__func__)))
            elif isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(name, value))

    def _probe_queue(self) -> None:
        """Record the deepest simulated event queue seen at any ``pop``."""
        from ssiledger.simnet import SimNetwork

        traced_pop = SimNetwork.__dict__["pop"]
        tracer = self

        @functools.wraps(traced_pop)
        def pop(network):
            depth = len(network)
            if tracer.enabled and depth > tracer.queue_peak:
                tracer.queue_peak = depth
            return traced_pop(network)

        self._patch(SimNetwork, "pop", pop)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries

    def calls(self, span: str) -> int:
        return sum(rec[0] for (_, name), rec in self.edges.items() if name == span)

    def total_s(self, span: str) -> float:
        return sum(rec[1] for (_, name), rec in self.edges.items() if name == span) / 1e9

    def self_s(self, span: str) -> float:
        return sum(rec[2] for (_, name), rec in self.edges.items() if name == span) / 1e9

    def per_call(self, span: str, scale: float) -> float:
        """Mean time per call in 1/scale seconds (scale 1e6 gives µs); 0 if never called."""
        calls = self.calls(span)
        return self.total_s(span) * scale / calls if calls else 0.0

    def layer_entries(self, layer: str) -> tuple[int, float]:
        """Calls into a layer from outside it, and their total seconds."""
        calls, total = 0, 0
        for (parent, name), rec in self.edges.items():
            if _layer(name) == layer and (parent == ROOT or _layer(parent) != layer):
                calls += rec[0]
                total += rec[1]
        return calls, total / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (_, name), rec in self.edges.items():
            out[_layer(name)] += rec[2] / 1e9
        return out

    def table(self) -> list[dict]:
        """The span edges, heaviest self time first, for the trace file."""
        rows = [
            {"parent": parent, "span": name, "calls": rec[0], "total_s": rec[1] / 1e9, "self_s": rec[2] / 1e9}
            for (parent, name), rec in self.edges.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
