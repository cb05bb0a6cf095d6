"""Seeded random generation of closed programs and reference-calculus terms.

Generation is loosely type-directed (integer-, boolean- and
function-shaped subterms) so that a useful fraction of samples reaches a
ground value; a small "wild" weight still injects ill-typed nodes, since
agreeing on a TypeError is part of what the differential tests check.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import externs, refsem
from .refsem import RAbs, RApp, RFunConst, RStore, RTerm, RVar, bool_const, int_const
from .syntax import (EAbs, EApp, EConst, EGet, EIf, ESet, EVar, Expr, VBool,
                     VInt, Value)


def _default_weights() -> dict:
    return {
        "leaf": 4.0,
        "arith": 5.0,
        "cond": 3.0,
        "beta": 3.0,
        "funcall": 2.0,
        "effect": 3.0,
        "rec": 0.6,
        "wild": 0.5,
        "omega": 0.02,
    }


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_depth: int = 6
    tag_pool: int = 2
    allow_effects: bool = True
    weights: dict = field(default_factory=_default_weights)


def tags(cfg: GenConfig) -> list[str]:
    return [f"t{i}" for i in range(cfg.tag_pool)]


def default_initial(cfg: GenConfig) -> dict[str, Value]:
    """Initial store bindings matching the generator's tag pool."""
    return {t: VInt(i + 1) for i, t in enumerate(tags(cfg))}


# ---------------------------------------------------------------- surface programs

_REG = externs.registry()


def _ext(name: str) -> Expr:
    return EConst(_REG[name].value)


def _binop(name: str, a: Expr, b: Expr) -> Expr:
    return EApp(EApp(_ext(name), a), b)


class _ExprGen:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def pick(self, options: list[str]) -> str:
        w = self.cfg.weights
        return self.rng.choices(options, weights=[w[o] for o in options])[0]

    def int_leaf(self, env: list[str]) -> Expr:
        choices = [lambda: EConst(VInt(self.rng.randint(0, 9)))]
        if env:
            choices.append(lambda: EVar(self.rng.choice(env)))
        if self.cfg.allow_effects:
            choices.append(lambda: EGet(self.rng.choice(tags(self.cfg))))
        return self.rng.choice(choices)()

    def bool_expr(self, depth: int, env: list[str]) -> Expr:
        if depth <= 0 or self.rng.random() < 0.3:
            return EConst(VBool(self.rng.random() < 0.5))
        op = self.rng.choice(["leq", "lt", "eq"])
        return _binop(op, self.int_expr(depth - 1, env),
                      self.int_expr(depth - 1, env))

    def fun_expr(self, depth: int, env: list[str]) -> Expr:
        """An integer-to-integer function."""
        r = self.rng.random()
        if r < 0.2:
            return EApp(_ext("plus"), self.int_expr(depth - 1, env))
        if r < 0.3 and depth > 1:
            f = self.fun_expr(depth - 1, env)
            g = self.fun_expr(depth - 1, env)
            return EApp(EApp(_ext("compose"), f), g)
        x = self.fresh()
        return EAbs(x, self.int_expr(depth - 1, env + [x]))

    def rec_expr(self, depth: int, env: list[str]) -> Expr:
        """A terminating countdown loop via omega self-application."""
        f, n = self.fresh(), self.fresh()
        step = self.int_expr(max(depth - 2, 0), env + [n])
        body = EIf(_binop("leq", EVar(n), EConst(VInt(0))),
                   self.int_expr(max(depth - 2, 0), env + [n]),
                   _binop("plus", step,
                          EApp(EApp(EVar(f), EVar(f)),
                               _binop("minus", EVar(n), EConst(VInt(1))))))
        loop = EAbs(f, EAbs(n, body))
        omega = EAbs("w", EApp(EVar("w"), EVar("w")))
        return EApp(EApp(omega, loop), EConst(VInt(self.rng.randint(0, 6))))

    def wild_expr(self, depth: int, env: list[str]) -> Expr:
        r = self.rng.random()
        if r < 0.4:  # applying a non-function
            return EApp(self.int_expr(depth - 1, env), self.int_expr(depth - 1, env))
        if r < 0.7:  # non-boolean condition
            return EIf(self.int_expr(depth - 1, env),
                       self.int_expr(depth - 1, env), self.int_expr(depth - 1, env))
        return _binop("plus", EConst(VBool(True)), self.int_expr(depth - 1, env))

    def int_expr(self, depth: int, env: list[str]) -> Expr:
        if depth <= 0:
            return self.int_leaf(env)
        options = ["leaf", "arith", "cond", "beta", "funcall", "rec", "wild",
                   "omega"]
        if self.cfg.allow_effects:
            options.append("effect")
        match self.pick(options):
            case "leaf":
                return self.int_leaf(env)
            case "arith":
                op = self.rng.choice(["plus", "minus", "times"])
                return _binop(op, self.int_expr(depth - 1, env),
                              self.int_expr(depth - 1, env))
            case "cond":
                return EIf(self.bool_expr(depth - 1, env),
                           self.int_expr(depth - 1, env),
                           self.int_expr(depth - 1, env))
            case "beta":
                x = self.fresh()
                return EApp(EAbs(x, self.int_expr(depth - 1, env + [x])),
                            self.int_expr(depth - 1, env))
            case "funcall":
                return EApp(self.fun_expr(depth - 1, env),
                            self.int_expr(depth - 1, env))
            case "effect":
                tag = self.rng.choice(tags(self.cfg))
                if self.rng.random() < 0.5:
                    return ESet(tag, self.int_expr(depth - 1, env))
                # sequencing: run a write, then the body
                d = self.fresh()
                return EApp(EAbs(d, self.int_expr(depth - 1, env)),
                            ESet(tag, self.int_expr(depth - 1, env)))
            case "rec":
                return self.rec_expr(depth, env)
            case "wild":
                return self.wild_expr(depth, env)
            case "omega":
                w = self.fresh()
                o = EAbs(w, EApp(EVar(w), EVar(w)))
                return EApp(o, o)
        raise AssertionError


def gen_expr(cfg: GenConfig) -> Expr:
    rng = random.Random(cfg.seed)
    return _ExprGen(cfg, rng).int_expr(cfg.max_depth, [])


# ---------------------------------------------------------------- reference terms

def default_rstore(cfg: GenConfig) -> RStore:
    return refsem.rstore({t: int_const(i + 1) for i, t in enumerate(tags(cfg))})


class _RTermGen:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"r{self.counter}"

    def int_term(self, depth: int, env: list[str]) -> RTerm:
        r = self.rng.random()
        if depth <= 0 or r < 0.25:
            if env and self.rng.random() < 0.5:
                return RVar(self.rng.choice(env))
            return int_const(self.rng.randint(0, 9))
        if r < 0.5:
            op = self.rng.choice(["plus", "minus", "times"])
            return RApp(RApp(RFunConst(op), self.int_term(depth - 1, env)),
                        self.int_term(depth - 1, env))
        if r < 0.6 and self.cfg.allow_effects:
            tag = self.rng.choice(tags(self.cfg))
            if self.rng.random() < 0.5:
                return RApp(RFunConst(f"set:{tag}"), self.int_term(depth - 1, env))
            return RApp(RFunConst(f"get:{tag}"), int_const(0))
        if r < 0.75:  # conditional through the selector constants
            z = self.fresh()
            sel = RApp(RApp(RApp(RFunConst("if"), self.bool_term(depth - 1, env)),
                            RAbs(z, self.int_term(depth - 1, env))),
                       RAbs(z, self.int_term(depth - 1, env)))
            return RApp(sel, RFunConst("dummy"))
        if r < 0.995:  # beta redex
            x = self.fresh()
            return RApp(RAbs(x, self.int_term(depth - 1, env + [x])),
                        self.int_term(depth - 1, env))
        w = self.fresh()  # rare divergence
        o = RAbs(w, RApp(RVar(w), RVar(w)))
        return RApp(o, o)

    def bool_term(self, depth: int, env: list[str]) -> RTerm:
        if depth <= 0 or self.rng.random() < 0.4:
            return bool_const(self.rng.random() < 0.5)
        op = self.rng.choice(["leq", "eq"])
        return RApp(RApp(RFunConst(op), self.int_term(depth - 1, env)),
                    self.int_term(depth - 1, env))

    def top(self, depth: int) -> RTerm:
        r = self.rng.random()
        if r < 0.7:
            return self.int_term(depth, [])
        if r < 0.85:
            return self.bool_term(depth, [])
        x = self.fresh()  # function-valued result, probed observationally
        return RAbs(x, self.int_term(depth - 1, [x]))


def gen_rterm(cfg: GenConfig) -> RTerm:
    rng = random.Random(cfg.seed)
    return _RTermGen(cfg, rng).top(cfg.max_depth)
