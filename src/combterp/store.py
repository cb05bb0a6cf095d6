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
        self.bindings = dict(initial or {})
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
