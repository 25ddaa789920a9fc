"""Parser and control-flow graph for the analyzed while-language.

Source programs are plain text (`.pwl`): statements end with `;`, blocks use
braces. Supported statements:

    x := 2*x + 1;            linear integer assignment
    x := input();            nondeterministic input, optionally `input() in [lo, hi]`
    if (x > 0) { ... } else { ... }
    while (x <= 10) { ... }
    assume lbl: x >= 3 && x <= 10;
    assert x <= y || x = 0;
    skip;

The parser builds the CFG as it reads, with no syntax tree in between, so
node ids follow source order.
Branch conditions are compiled into a pair of guard-filter nodes (condition
and its negation) so every CFG node carries a single transformer. Strict
comparisons against constants are normalized to non-strict form over the
integers (`x > 0` becomes `x >= 1`).
"""

from __future__ import annotations

import operator
import re
import sys
from enum import Enum
from typing import Iterable, Union


class ParseError(Exception):
    """Syntax or well-formedness error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Rel(Enum):
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"
    EQ = "="
    NE = "!="


# what each comparison operator computes on two integers
_RELATIONS = {
    Rel.LE: operator.le,
    Rel.LT: operator.lt,
    Rel.GE: operator.ge,
    Rel.GT: operator.gt,
    Rel.EQ: operator.eq,
    Rel.NE: operator.ne,
}


_setattr = object.__setattr__  # sets a field of a frozen record


class Record:
    """A value class whose fields are its annotations; no code is generated.

    Built by position or keyword, a field's class attribute being its default
    (a list default is copied per instance); equal when class and field tuple
    are; printed as `Name(field=value, ...)`. `frozen=True` records hash as
    their field tuple and refuse field assignment and deletion; the others
    are mutable and unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        cls._fields = tuple(cls.__annotations__)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse_change
            if vars(cls).get("__hash__") is None:
                cls.__hash__ = lambda self: hash(self._astuple())

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        for field, value in zip(fields, args):
            _setattr(self, field, value)

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call with keywords or defaults."""
        fields, given = self._fields, dict(zip(self._fields, args), **kwargs)
        defaults = {f: v for f, v in vars(type(self)).items() if f in fields}
        values = {f: v[:] if isinstance(v, list) else v for f, v in defaults.items()} | given
        if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}({', '.join(fields)}) got {len(args)} positional"
                f" arguments and the keywords [{', '.join(kwargs)}]"
            )
        return [values[field] for field in fields]

    def _astuple(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def _refuse_change(self, field: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {field!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


# Operands of comparisons: a variable name or an integer constant.
Operand = Union[str, int]


class Comparison(Record, frozen=True):
    """`lhs REL rhs` where each side is a variable or constant."""

    lhs: Operand
    op: Rel
    rhs: Operand

    def render(self) -> str:
        return f"{self.lhs} {self.op.value} {self.rhs}"


_NEGATED = {
    Rel.LE: Rel.GT,
    Rel.LT: Rel.GE,
    Rel.GE: Rel.LT,
    Rel.GT: Rel.LE,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
}

_FLIPPED = {
    Rel.LE: Rel.GE,
    Rel.LT: Rel.GT,
    Rel.GE: Rel.LE,
    Rel.GT: Rel.LT,
    Rel.EQ: Rel.EQ,
    Rel.NE: Rel.NE,
}


def negate_comparison(cmp: Comparison) -> Comparison:
    return normalize_comparison(Comparison(cmp.lhs, _NEGATED[cmp.op], cmp.rhs))


def normalize_comparison(cmp: Comparison) -> Comparison:
    """Put the variable on the left and drop strictness against constants."""
    lhs, op, rhs = cmp.lhs, cmp.op, cmp.rhs
    if isinstance(lhs, int) and isinstance(rhs, str):
        lhs, op, rhs = rhs, _FLIPPED[op], lhs
    if isinstance(lhs, str) and isinstance(rhs, int):
        if op is Rel.LT:
            op, rhs = Rel.LE, rhs - 1
        elif op is Rel.GT:
            op, rhs = Rel.GE, rhs + 1
    return Comparison(lhs, op, rhs)


class LinearExpr(Record, frozen=True):
    """Normalized linear form: constant + sum of coef*var terms.

    Terms are sorted by variable name and never carry a zero coefficient,
    so structurally equal expressions denote the same function.
    """

    constant: int
    terms: tuple[tuple[int, str], ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.terms)

    def render(self) -> str:
        parts: list[str] = []
        for coef, var in self.terms:
            mag = var if abs(coef) == 1 else f"{abs(coef)}*{var}"
            if not parts:
                parts.append(mag if coef > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if coef > 0 else f"- {mag}")
        if self.constant or not parts:
            c = self.constant
            if not parts:
                parts.append(str(c))
            else:
                parts.append(f"+ {c}" if c > 0 else f"- {-c}")
        return " ".join(parts)


class Bound(Record, frozen=True):
    """Single-variable bound usable as an assumption conjunct."""

    var: str
    op: Rel  # LE, GE or EQ only
    value: int

    def render(self) -> str:
        return f"{self.var} {self.op.value} {self.value}"

    def holds(self, value: int) -> bool:
        return _RELATIONS[self.op](value, self.value)


class AtomicConstraint(Record, frozen=True):
    """Conjunction of single-variable bounds; always interval-representable."""

    bounds: tuple[Bound, ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(b.var for b in self.bounds)

    def render(self) -> str:
        return " && ".join(b.render() for b in self.bounds)


class AssertAnd(Record, frozen=True):
    parts: tuple["AssertExpr", ...]


class AssertOr(Record, frozen=True):
    parts: tuple["AssertExpr", ...]


AssertExpr = Union[Comparison, AssertAnd, AssertOr]


def render_assert(expr: AssertExpr) -> str:
    if isinstance(expr, Comparison):
        return expr.render()
    sep = " && " if isinstance(expr, AssertAnd) else " || "
    rendered = []
    for p in expr.parts:
        text = render_assert(p)
        if isinstance(p, (AssertAnd, AssertOr)):
            text = f"({text})"
        rendered.append(text)
    return sep.join(rendered)


# --- Lexer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      \s+ | \#[^\r\n]*  # whitespace and comments: no group, so no token
    | (?P<number>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<=|>=|==|!=|&&|\|\||[<>=:;{}()\[\],+\-*])
    | (?P<bad>.)  # any other character but a newline, which \s takes
    """,
    re.VERBOSE,
)

_KEYWORDS = {"if", "else", "while", "assume", "assert", "skip", "input", "in"}


def _line_col(source: str, offset: int) -> tuple[int, int]:
    """The line and column, from 1, of an offset; only a newline ends a line."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of `source`, a kind being "number", "name", "op"
    or "kw", then ("eof", "", len(source)); a line and column are computed only for an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if kind := m.lastgroup:
            text = m.group()
            if kind == "name" and text in _KEYWORDS:
                kind = "kw"
            elif kind == "bad":
                raise ParseError(f"unexpected character {text!r}", *_line_col(source, m.start()))
            tokens.append((kind, text, m.start()))
    tokens.append(("eof", "", len(source)))
    return tokens


_REL_TOKENS = {rel.value: rel for rel in Rel} | {"==": Rel.EQ}


# Deepest nesting of blocks and assertion parentheses, counted together. The
# parser recurses a few frames per level, so this keeps deep input a
# ParseError well inside Python's recursion limit.
MAX_NESTING = 100

# The most digits `str` gives an int, 0 for no limit (as before Python 3.10.7).
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _Parser:
    """Recursive descent over the tokens of `source`, kept to place a ParseError."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # open blocks and assertion parentheses
        self.assume_labels: set[str] = set()
        self.nodes: list[CfgNode] = []
        self.edges: set[tuple[int, int]] = set()
        self.assumptions: list[AssumptionId] = []

    def add(self, op: NodeOp, frontier: Iterable[int], loop_head: bool = False) -> int:
        """Append a node fed by every frontier node; returns its id."""
        v = len(self.nodes)
        self.nodes.append(CfgNode(v, op, loop_head))
        self.edges.update((src, v) for src in frontier)
        return v

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, message: str, tok: tuple[str, str, int] | None = None) -> ParseError:
        """A ParseError at `tok`, by default the next token."""
        return ParseError(message, *_line_col(self.source, (tok or self.peek())[2]))

    def expect(self, text: str) -> tuple[str, str, int]:
        found = self.peek()[1]
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}" if found else f"expected {text!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def open_nested(self, text: str) -> None:
        tok = self.expect(text)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", tok)

    def close_nested(self, text: str) -> None:
        self.expect(text)
        self.depth -= 1

    # -- grammar --
    # Each statement method takes the frontier (the nodes that flow into the
    # statement) and returns the nodes that flow out of it.

    def parse_cfg(self) -> Cfg:
        entry = self.add(Entry(), ())
        exit_id = self.add(Exit(), self.parse_statements([entry], stop_at_brace=False))
        nodes = tuple(self.nodes)
        return Cfg(
            nodes=nodes,
            edges=frozenset(self.edges),
            entry=entry,
            exit=exit_id,
            assumptions=tuple(self.assumptions),
            variables=_collect_variables(nodes),
        )

    def parse_statements(self, frontier: list[int], stop_at_brace: bool) -> list[int]:
        while True:
            kind, text, _ = self.peek()
            if kind == "eof" or (stop_at_brace and text == "}"):
                return frontier
            frontier = self.parse_statement(frontier)

    def parse_statement(self, frontier: list[int]) -> list[int]:
        kind, text, _ = self.peek()
        if kind == "name":
            return self.parse_assignment(frontier)
        if kind == "kw":
            if text == "if":
                return self.parse_if(frontier)
            if text == "while":
                return self.parse_while(frontier)
            if text == "assume":
                return self.parse_assume(frontier)
            if text == "assert":
                return self.parse_assert(frontier)
            if text == "skip":
                self.advance()
                self.expect(";")
                return [self.add(Skip(), frontier)]
        raise self.error(f"expected a statement, found {text!r}" if text else "expected a statement")

    def parse_assignment(self, frontier: list[int]) -> list[int]:
        var = self.advance()[1]
        self.expect(":=")
        if self.at("input"):
            self.advance()
            self.expect("(")
            self.expect(")")
            input_range = None
            if self.at("in"):
                self.advance()
                self.expect("[")
                lo = self.parse_int()
                self.expect(",")
                hi = self.parse_int()
                self.expect("]")
                if lo > hi:
                    raise self.error("empty input range")
                input_range = (lo, hi)
            op = Input(var, input_range)
        else:
            op = Assign(var, self.parse_linear())
        self.expect(";")
        return [self.add(op, frontier)]

    def parse_int(self) -> int:
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        if self.peek()[0] != "number":
            raise self.error("expected an integer")
        return sign * self.number()

    def number(self) -> int:
        """The value of the next token, a number, which it consumes."""
        tok = self.advance()
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"integer literal of {len(tok[1])} digits is too long", tok) from None

    def fit(self, value: int, tok: tuple[str, str, int]) -> int:
        """`value`, or a ParseError at `tok` if it has more digits than `str`
        converts (a value under 3 bits per digit of the limit always fits)."""
        limit = _max_str_digits()
        if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
            raise self.error(f"value of more than {limit} digits is too long", tok)
        return value

    def parse_linear(self) -> LinearExpr:
        constant = 0
        coefs: dict[str, int] = {}

        def add_term(sign: int) -> None:
            nonlocal constant
            kind, text, _ = tok = self.peek()
            if kind == "number":
                value = self.number()
                if self.at("*"):
                    star = self.advance()
                    follow_kind, follow, _ = self.peek()
                    if follow_kind == "name":
                        self.advance()
                        coefs[follow] = self.fit(coefs.get(follow, 0) + sign * value, tok)
                    elif follow_kind == "number":
                        constant = self.fit(constant + sign * value * self.number(), tok)
                    else:
                        raise self.error("expected a variable after '*'", star)
                else:
                    constant = self.fit(constant + sign * value, tok)
            elif kind == "name":
                self.advance()
                coef = 1
                if self.at("*"):
                    self.advance()
                    follow_kind = self.peek()[0]
                    if follow_kind == "number":
                        coef = self.number()
                    elif follow_kind == "name":
                        raise self.error("non-linear expression: variable * variable")
                    else:
                        raise self.error("expected a constant after '*'")
                coefs[text] = self.fit(coefs.get(text, 0) + sign * coef, tok)
            else:
                raise self.error("expected an expression term")

        if self.at("-"):
            self.advance()
            add_term(-1)
        else:
            add_term(1)
        while self.peek()[1] in ("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            add_term(sign)
        terms = tuple((c, v) for v, c in sorted(coefs.items()) if c != 0)
        return LinearExpr(constant, terms)

    def parse_operand(self) -> Operand:
        kind, text, _ = self.peek()
        if kind == "name":
            self.advance()
            return text
        if kind == "number" or text == "-":
            return self.parse_int()
        raise self.error("expected a variable or constant")

    def parse_comparison(self, allow_ne: bool) -> Comparison:
        lhs = self.parse_operand()
        rel = _REL_TOKENS.get(self.peek()[1])
        if rel is None:
            raise self.error("expected a comparison operator")
        if rel is Rel.NE and not allow_ne:
            raise self.error("operator != is not allowed here")
        self.advance()
        rhs = self.parse_operand()
        return Comparison(lhs, rel, rhs)

    def parse_guard(self) -> tuple[Comparison, Comparison]:
        """A branch condition's test and the test of its negation, normalized."""
        self.expect("(")
        tok = self.peek()
        cmp = self.parse_comparison(allow_ne=True)
        if self.peek()[1] in ("&&", "||"):
            raise self.error("guard conditions must be a single comparison")
        self.expect(")")
        tests = normalize_comparison(cmp), negate_comparison(cmp)
        for test in tests:
            if isinstance(test.rhs, int):
                self.fit(test.rhs, tok)
        return tests

    def parse_if(self, frontier: list[int]) -> list[int]:
        self.advance()
        test, negated = self.parse_guard()
        taken = self.add(GuardFilter(test), frontier)
        declined = [self.add(GuardFilter(negated), frontier)]
        then_out = self.parse_block([taken])
        if self.at("else"):
            self.advance()
            declined = self.parse_block(declined)
        return then_out + declined

    def parse_while(self, frontier: list[int]) -> list[int]:
        self.advance()
        test, negated = self.parse_guard()
        head = self.add(Skip(), frontier, loop_head=True)
        body = self.add(GuardFilter(test), [head])
        leave = self.add(GuardFilter(negated), [head])
        self.edges.update((v, head) for v in self.parse_block([body]))
        return [leave]

    def parse_block(self, frontier: list[int]) -> list[int]:
        self.open_nested("{")
        frontier = self.parse_statements(frontier, stop_at_brace=True)
        self.close_nested("}")
        return frontier

    def parse_assume(self, frontier: list[int]) -> list[int]:
        self.advance()
        kind, label, _ = label_tok = self.advance()
        if kind != "name":
            raise self.error("expected an assumption label", label_tok)
        if label in self.assume_labels:
            raise self.error(f"duplicate assume label {label!r}", label_tok)
        self.assume_labels.add(label)
        self.expect(":")
        bounds = [self.parse_bound()]
        while self.at("&&"):
            self.advance()
            bounds.append(self.parse_bound())
        self.expect(";")
        aid = AssumptionId(len(self.assumptions), label, len(self.nodes))
        self.assumptions.append(aid)
        return [self.add(Assume(aid, AtomicConstraint(tuple(bounds))), frontier)]

    def parse_bound(self) -> Bound:
        tok = self.peek()
        cmp = self.parse_comparison(allow_ne=False)
        cmp = normalize_comparison(cmp)
        if not (isinstance(cmp.lhs, str) and isinstance(cmp.rhs, int)):
            raise self.error("assume constraints must compare one variable with a constant", tok)
        return Bound(cmp.lhs, cmp.op, self.fit(cmp.rhs, tok))

    def parse_assert(self, frontier: list[int]) -> list[int]:
        self.advance()
        expr = self.parse_assert_or()
        self.expect(";")
        return [self.add(Assert(expr), frontier)]

    def parse_assert_or(self) -> AssertExpr:
        parts = [self.parse_assert_and()]
        while self.at("||"):
            self.advance()
            parts.append(self.parse_assert_and())
        return parts[0] if len(parts) == 1 else AssertOr(tuple(parts))

    def parse_assert_and(self) -> AssertExpr:
        parts = [self.parse_assert_atom()]
        while self.at("&&"):
            self.advance()
            parts.append(self.parse_assert_atom())
        return parts[0] if len(parts) == 1 else AssertAnd(tuple(parts))

    def parse_assert_atom(self) -> AssertExpr:
        if self.at("("):
            self.open_nested("(")
            expr = self.parse_assert_or()
            self.close_nested(")")
            return expr
        return self.parse_comparison(allow_ne=False)


def parse_cfg(source: str) -> Cfg:
    """Parse program text into its CFG, raising ParseError with line/col on bad input."""
    return _Parser(source).parse_cfg()


# --- CFG ---------------------------------------------------------------


class AssumptionId(Record, frozen=True):
    """Identity of one labeled assume statement."""

    index: int  # ordinal among the program's assume statements
    label: str
    node_id: int


class Entry(Record, frozen=True):
    pass


class Exit(Record, frozen=True):
    pass


class Skip(Record, frozen=True):
    pass


class Assign(Record, frozen=True):
    var: str
    expr: LinearExpr


class Input(Record, frozen=True):
    var: str
    input_range: tuple[int, int] | None = None


class GuardFilter(Record, frozen=True):
    test: Comparison


class Assume(Record, frozen=True):
    assumption: AssumptionId
    constraint: AtomicConstraint


class Assert(Record, frozen=True):
    test: AssertExpr


NodeOp = Union[Entry, Exit, Skip, Assign, Input, GuardFilter, Assume, Assert]


class CfgNode(Record, frozen=True):
    id: int
    op: NodeOp
    loop_head: bool = False

    def render(self) -> str:
        op = self.op
        if isinstance(op, Entry):
            return "entry"
        if isinstance(op, Exit):
            return "exit"
        if isinstance(op, Skip):
            return "skip"
        if isinstance(op, Assign):
            return f"assign({op.var} := {op.expr.render()})"
        if isinstance(op, Input):
            if op.input_range is not None:
                lo, hi = op.input_range
                return f"input({op.var} in [{lo},{hi}])"
            return f"input({op.var})"
        if isinstance(op, GuardFilter):
            return f"guard({op.test.render()})"
        if isinstance(op, Assume):
            return f"assume({op.assumption.label}: {op.constraint.render()})"
        return f"assert({render_assert(op.test)})"


class Cfg(Record):
    """Immutable control-flow graph over `CfgNode`s.

    Node ids are assigned in source order with the entry node first and the
    exit node last. `assumptions` lists the program's assume statements in
    source order; the list is preserved verbatim by `restrict` so condition
    atoms stay comparable across restricted variants.
    """

    nodes: tuple[CfgNode, ...]
    edges: frozenset[tuple[int, int]]
    entry: int
    exit: int
    assumptions: tuple[AssumptionId, ...]
    variables: tuple[str, ...]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        preds: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        succs: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for src, dst in sorted(self.edges):
            preds[dst].append(src)
            succs[src].append(dst)
        self._preds = {v: tuple(sorted(ps)) for v, ps in preds.items()}
        self._succs = {v: tuple(sorted(ss)) for v, ss in succs.items()}

    def predecessors(self, v: int) -> tuple[int, ...]:
        if v not in self._preds:
            raise ValueError(f"unknown node id {v}")
        return self._preds[v]

    def successors(self, v: int) -> tuple[int, ...]:
        if v not in self._succs:
            raise ValueError(f"unknown node id {v}")
        return self._succs[v]

    def assert_nodes(self) -> tuple[CfgNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n.op, Assert))


def _collect_variables(nodes: Iterable[CfgNode]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*(op_variables(node.op) for node in nodes))))


def op_variables(op: NodeOp) -> set[str]:
    """The variables a node op reads or writes; an assertion's, those it compares."""
    if isinstance(op, Assign):
        return {op.var, *op.expr.variables()}
    if isinstance(op, Input):
        return {op.var}
    if isinstance(op, (GuardFilter, Assert)):
        return assert_variables(op.test)
    if isinstance(op, Assume):
        return set(op.constraint.variables())
    return set()


def assert_variables(expr: AssertExpr) -> set[str]:
    """The variables that a comparison, or each comparison of an assertion, compares."""
    if isinstance(expr, Comparison):
        return {o for o in (expr.lhs, expr.rhs) if isinstance(o, str)}
    out: set[str] = set()
    for part in expr.parts:
        out |= assert_variables(part)
    return out


def restrict(cfg: Cfg, accepted: int) -> Cfg:
    """Keep only the assume nodes whose bit is set; others become skips.

    Node ids, edges, and the assumption list (hence atom indexing) are
    preserved, so analysis results of restricted variants stay comparable.
    """
    n = len(cfg.assumptions)
    if accepted < 0 or accepted >> n:
        raise ValueError(f"assumption set {accepted:#x} outside the program's {n} assumptions")
    restricted = Cfg.__new__(Cfg)  # the edges stay, so the adjacency is shared, not rebuilt
    restricted.__dict__.update(cfg.__dict__, nodes=tuple(
        CfgNode(node.id, Skip(), node.loop_head)
        if isinstance(node.op, Assume) and not (accepted >> node.op.assumption.index) & 1
        else node
        for node in cfg.nodes
    ))
    return restricted


def dump_cfg(cfg: Cfg) -> str:
    """Stable one-record-per-node text rendering (id, kind, succs)."""
    lines = []
    for node in cfg.nodes:
        succs = ",".join(str(s) for s in cfg.successors(node.id))
        lines.append(f"id={node.id} kind={node.render()} succs=[{succs}]")
    return "\n".join(lines) + "\n"
