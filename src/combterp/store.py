"""The mutable store backing imperative references, with an event trace.

Each interpreter instance owns one Store handle; the trace records every
read and write in order so that different interpreters can be checked
for identical effect ordering.
"""
from __future__ import annotations

from .errors import UnboundTagError
from .syntax import Node, Value


class StoreEvent(Node):
    __slots__ = ("kind", "tag", "value")

    def __init__(self, kind: str, tag: str, value: Value):
        self.kind = kind  # "get" or "set"
        self.tag = tag
        self.value = value


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
