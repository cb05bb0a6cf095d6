"""The minimal evaluator: constants and one kind of application.

`eval` is defined in `runtime`, next to the fuel counter it spends, so
each of its spends reads and writes that counter as a plain global; it
is re-exported here under its public name.
"""
from .runtime import eval

__all__ = ["eval"]
