"""combterp: a call-by-value functional language interpreted via combinators.

Programs are parsed into `Expr`, made purely functional (`purify`),
compiled into variable-free combinator terms (`transform`), and run by a
minimal evaluator whose only application mechanism is a native call.
"""
from .compare import RUN_BUDGET, observe_combinator
from .elim import ElimAlgo, elim, make_combinators, transform
from .errors import InterpError
from .frontend import SourceProgram, check_closed, parse
from .eval import eval as meval
from .purify import PurifyCtx, purify
from .store import Store
from .syntax import Value, count_apps, format_value, value_ground_eq

__all__ = [
    "ElimAlgo", "InterpError", "PurifyCtx", "SourceProgram", "Store",
    "Value", "check_closed", "count_apps", "elim", "format_value",
    "make_combinators", "meval", "parse", "purify", "transform",
    "value_ground_eq",
]


def run_source(text: str, algo: ElimAlgo = ElimAlgo.C2,
               initial=None) -> Value:
    """Parse, transform and evaluate a program as `combterp run` does.

    Raises the error that ended the run: a type error, an unbound tag,
    or the exhausted budget.
    """
    obs = observe_combinator(text, algo, initial, RUN_BUDGET)
    if obs.kind != "value":
        raise obs.error
    return obs.value
