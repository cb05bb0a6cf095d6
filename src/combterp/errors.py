"""Exception hierarchy shared by every stage of the pipeline."""


class InterpError(Exception):
    pass


class EvalTypeError(InterpError):
    """A non-function was applied, a condition was not a boolean, etc.

    Its text is the same under every scheme: it names a value by
    `syntax.format_operand`.
    """


# the one spelling of a non-boolean condition, under every scheme
BAD_CONDITION = "condition of if must be a boolean"


class UnboundVarError(InterpError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class UnboundTagError(InterpError):
    def __init__(self, tag: str):
        super().__init__(f"unbound reference tag: {tag}")
        self.tag = tag


class FreeVariableError(InterpError):
    def __init__(self, names):
        self.names = frozenset(names)
        pretty = ", ".join(sorted(self.names))
        super().__init__(f"program has free variables: {pretty}")


class StepLimitExceeded(InterpError):
    pass


class UnexpectedNodeError(InterpError):
    """A variable or abstraction survived variable elimination."""


class ParseError(InterpError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
