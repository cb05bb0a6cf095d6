"""Lexer and parser for the concrete surface language.

Grammar sketch (precedence low to high):

    expr   := IDENT ":=" expr | lambda | cons
    lambda := "\\" IDENT "." expr            (body extends as far as possible)
    cons   := cmp ("::" cons)?               (right associative)
    cmp    := add (("<=" | "<" | "=") add)?
    add    := mul (("+" | "-") mul)*
    mul    := app ("*" app)*
    app    := atom+                          (left associative application)
    atom   := INT | "true" | "false" | IDENT | "!" IDENT | "(" expr ")"
            | "if" expr "then" expr "else" expr "fi"
            | "[" (expr ("," expr)*)? "]"

Infix operators desugar to applications of the extern constants from the
registry; list literals desugar to cons/nil chains.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import externs
from .errors import FreeVariableError, ParseError
from .syntax import (EAbs, EApp, EConst, EGet, EIf, ESet, EVar, Expr,
                     RESERVED_PREFIX, VBool, VInt, free_vars)

KEYWORDS = {"if", "then", "else", "fi", "true", "false"}

_OPERATOR_EXTERN = {
    "+": "plus",
    "-": "minus",
    "*": "times",
    "<=": "leq",
    "<": "lt",
    "=": "eq",
    "::": "cons",
}


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin: str = "<inline>"


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "ident", "punct", "eof"
    text: str
    line: int
    col: int


_PUNCT = [":=", "<=", "::", "\\", ".", "(", ")", "[", "]", ",", "!",
          "+", "-", "*", "<", "="]


def lex(src: SourceProgram) -> list[Token]:
    text = src.text
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            toks.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            toks.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if c == RESERVED_PREFIX:
            raise ParseError("reserved-prefix identifiers are internal only", line, col)
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token], registry):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            self.fail(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def extern(self, name: str, tok: Token) -> Expr:
        if name not in self.registry:
            self.fail(f"unknown operator function {name!r}", tok)
        return EConst(self.registry[name].value)

    def binop(self, op: str, tok: Token, lhs: Expr, rhs: Expr) -> Expr:
        return EApp(EApp(self.extern(_OPERATOR_EXTERN[op], tok), lhs), rhs)

    # precedence levels ------------------------------------------------

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.text == "\\":
            self.next()
            name = self.ident()
            self.expect(".")
            return EAbs(name, self.parse_expr())
        if (t.kind == "ident" and t.text not in KEYWORDS
                and self.tokens[self.pos + 1].text == ":="):
            self.next()
            self.next()
            return ESet(t.text, self.parse_expr())
        return self.parse_cons()

    def parse_cons(self) -> Expr:
        lhs = self.parse_cmp()
        if self.peek().text == "::":
            tok = self.next()
            return self.binop("::", tok, lhs, self.parse_cons())
        return lhs

    def parse_cmp(self) -> Expr:
        lhs = self.parse_add()
        if self.peek().text in ("<=", "<", "="):
            tok = self.next()
            return self.binop(tok.text, tok, lhs, self.parse_add())
        return lhs

    def parse_add(self) -> Expr:
        lhs = self.parse_mul()
        while self.peek().text in ("+", "-"):
            tok = self.next()
            lhs = self.binop(tok.text, tok, lhs, self.parse_mul())
        return lhs

    def parse_mul(self) -> Expr:
        lhs = self.parse_app()
        while self.peek().text == "*":
            tok = self.next()
            lhs = self.binop("*", tok, lhs, self.parse_app())
        return lhs

    _ATOM_STARTS = {"(", "[", "!"}

    def starts_atom(self, t: Token) -> bool:
        if t.kind == "int":
            return True
        if t.kind == "ident":
            return t.text not in KEYWORDS or t.text in ("true", "false", "if")
        return t.text in self._ATOM_STARTS

    def parse_app(self) -> Expr:
        e = self.parse_atom()
        while self.starts_atom(self.peek()):
            e = EApp(e, self.parse_atom())
        return e

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail("expected an identifier")
        return self.next().text

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return EConst(VInt(int(t.text)))
        if t.text in ("true", "false"):
            self.next()
            return EConst(VBool(t.text == "true"))
        if t.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            other = self.parse_expr()
            self.expect("fi")
            return EIf(cond, then, other)
        if t.text == "!":
            self.next()
            return EGet(self.ident())
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "[":
            self.next()
            items = []
            if self.peek().text != "]":
                items.append(self.parse_expr())
                while self.peek().text == ",":
                    self.next()
                    items.append(self.parse_expr())
            close = self.expect("]")
            lst: Expr = EConst(self.registry["nil"].value)
            for item in reversed(items):
                lst = self.binop("::", close, item, lst)
            return lst
        if t.kind == "ident":
            name = self.ident()
            if name in self.registry:
                return EConst(self.registry[name].value)
            return EVar(name)
        self.fail(f"unexpected token {t.text!r}")


def parse(src, registry=None) -> Expr:
    """Parse a SourceProgram (or plain string) into an Expr."""
    if isinstance(src, str):
        src = SourceProgram(src)
    reg = registry if registry is not None else externs.registry()
    parser = _Parser(lex(src), reg)
    e = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input starting at {tok.text!r}")
    return e


def check_closed(e: Expr) -> Expr:
    fv = free_vars(e)
    if fv:
        raise FreeVariableError(fv)
    return e


# ---------------------------------------------------------------- debug printer

def format_expr(e: Expr) -> str:
    """Print an Expr back in the surface grammar (fully parenthesized)."""
    from .syntax import EAbs, EApp, EConst, EGet, EIf, ESet, EVar, format_value

    reg = externs.registry()
    by_value = {id(d.value): name for name, d in reg.items()}

    def fmt(x) -> str:
        match x:
            case EConst(v):
                if id(v) in by_value:
                    return by_value[id(v)]
                return format_value(v)
            case EVar(name):
                return name
            case EAbs(p, b):
                return f"(\\{p}. {fmt(b)})"
            case EApp(f, a):
                return f"({fmt(f)} {fmt(a)})"
            case EIf(c, t, o):
                return f"if {fmt(c)} then {fmt(t)} else {fmt(o)} fi"
            case EGet(tag):
                return f"(!{tag})"
            case ESet(tag, inner):
                return f"({tag} := {fmt(inner)})"
        raise TypeError(f"not an Expr: {x!r}")

    return fmt(e)
