"""The mutable store backing imperative references, with an event trace.

Each interpreter instance owns one Store handle; the trace records every
read and write in order so that different interpreters can be checked
for identical effect ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import UnboundTagError
from .syntax import Value


@dataclass(frozen=True)
class StoreEvent:
    kind: str  # "get" or "set"
    tag: str
    value: Value


class Store:
    def __init__(self, initial=None):
        initial = dict(initial or {})
        self.initial = dict(initial)
        self.bindings = initial
        self.trace: list[StoreEvent] = []

    def get(self, tag: str) -> Value:
        if tag not in self.bindings:
            raise UnboundTagError(tag)
        v = self.bindings[tag]
        self.trace.append(StoreEvent("get", tag, v))
        return v

    def set(self, tag: str, v: Value) -> Value:
        self.bindings[tag] = v
        self.trace.append(StoreEvent("set", tag, v))
        return v

    def replay(self) -> dict:
        """Final bindings recomputed from the initial bindings and the trace."""
        out = dict(self.initial)
        for ev in self.trace:
            if ev.kind == "set":
                out[ev.tag] = ev.value
        return out
