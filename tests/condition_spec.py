"""The condition-tree reference: evaluation, text and parsing of condition trees.

`paramax.conditions` keeps the tree classes, `truth_table`, `formula` and
`simplify`; output is printed from masks by `render_mask`. The functions
here are the spec the tests check it against: `render(formula(m, atoms))`
must equal `render_mask(m, atoms)`, and `parse_condition` reads the
rendered text back into a tree.
"""

from __future__ import annotations

import re
from typing import Mapping

from paramax.conditions import FALSE, TRUE, And, Atom, Condition, FalseCond, Not, Or, TrueCond
from paramax.frontend import AssumptionId


def eval_condition(cond: Condition, accepted: int) -> bool:
    """Evaluate with Atom(a) true iff a's bit is set in `accepted`."""
    if isinstance(cond, TrueCond):
        return True
    if isinstance(cond, FalseCond):
        return False
    if isinstance(cond, Atom):
        return bool((accepted >> cond.assumption.index) & 1)
    if isinstance(cond, Not):
        return not eval_condition(cond.operand, accepted)
    if isinstance(cond, And):
        return all(eval_condition(p, accepted) for p in cond.parts)
    return any(eval_condition(p, accepted) for p in cond.parts)


def render(cond: Condition) -> str:
    """Text form with atoms as assume labels, e.g. `(a1 & !a2) | a3`."""
    if isinstance(cond, TrueCond):
        return "true"
    if isinstance(cond, FalseCond):
        return "false"
    if isinstance(cond, Atom):
        return cond.assumption.label
    if isinstance(cond, Not):
        inner = render(cond.operand)
        if isinstance(cond.operand, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(cond, And):
        return " & ".join(
            f"({render(p)})" if isinstance(p, Or) else render(p) for p in cond.parts
        )
    return " | ".join(
        f"({render(p)})" if isinstance(p, And) else render(p) for p in cond.parts
    )


class ConditionSyntaxError(ValueError):
    pass


def parse_condition(text: str, atoms: Mapping[str, AssumptionId]) -> Condition:
    """Parse the rendered condition syntax back into a tree."""
    tokens = re.findall(r"[()!&|]|true|false|[A-Za-z_][A-Za-z0-9_]*", text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ConditionSyntaxError(f"cannot tokenize condition {text!r}")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ConditionSyntaxError("unexpected end of condition")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ConditionSyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_or() -> Condition:
        parts = [parse_and()]
        while peek() == "|":
            take()
            parts.append(parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and() -> Condition:
        parts = [parse_unary()]
        while peek() == "&":
            take()
            parts.append(parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary() -> Condition:
        tok = peek()
        if tok == "!":
            take()
            return Not(parse_unary())
        if tok == "(":
            take()
            inner = parse_or()
            take(")")
            return inner
        if tok == "true":
            take()
            return TRUE
        if tok == "false":
            take()
            return FALSE
        if tok is None:
            raise ConditionSyntaxError("unexpected end of condition")
        take()
        if tok not in atoms:
            raise ConditionSyntaxError(f"unknown assumption label {tok!r}")
        return Atom(atoms[tok])

    out = parse_or()
    if pos != len(tokens):
        raise ConditionSyntaxError(f"trailing tokens in condition {text!r}")
    return out
