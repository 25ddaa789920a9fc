import random

import pytest

from paramax.frontend import (
    Assign,
    Assume,
    Comparison,
    Entry,
    Exit,
    GuardFilter,
    ParseError,
    Rel,
    Skip,
    _line_col,
    _tokenize,
    dump_cfg,
    parse_cfg,
    restrict,
)

from conftest import CORPUS_DIR, corpus_source, reference_tokenize
from test_fuzz import generate_program

EXAMPLE1 = "x := input(); assume a: x > 0; x := 5; assume b: x = 0;"


def test_parse_fig1_nesting():
    cfg = parse_cfg(corpus_source("fig1.pwl"))
    kinds = [(type(n.op).__name__, n.loop_head) for n in cfg.nodes]
    assert kinds == [
        ("Entry", False),
        ("Input", False),
        ("GuardFilter", False),  # if taken
        ("GuardFilter", False),  # if declined
        ("Skip", True),  # the while head, first in the then-branch
        ("GuardFilter", False),  # loop body
        ("GuardFilter", False),  # loop exit
        ("Assign", False),  # x := x + 2
        ("Assign", False),  # x := 0, the else-branch
        ("Exit", False),
    ]
    assert cfg.edges == frozenset({
        (0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (5, 7), (7, 4), (3, 8), (6, 9), (8, 9),
    })


def test_parse_example1_labels_and_desugaring():
    cfg = parse_cfg(EXAMPLE1)
    assert [a.label for a in cfg.assumptions] == ["a", "b"]
    constraints = [cfg.nodes[a.node_id].op.constraint for a in cfg.assumptions]
    # strict x > 0 becomes the bound x >= 1
    bound = constraints[0].bounds[0]
    assert (bound.var, bound.op, bound.value) == ("x", Rel.GE, 1)
    bound_b = constraints[1].bounds[0]
    assert (bound_b.var, bound_b.op, bound_b.value) == ("x", Rel.EQ, 0)


def test_parse_empty_program():
    for source in ("", "# just a comment\n"):
        cfg = parse_cfg(source)
        assert [type(n.op) for n in cfg.nodes] == [Entry, Exit]
        assert cfg.edges == frozenset({(0, 1)}) and cfg.assumptions == cfg.variables == ()


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_cfg("x := ;")
    assert err.value.line == 1 and err.value.col > 1

    with pytest.raises(ParseError, match="duplicate assume label"):
        parse_cfg("x := 0; assume a: x >= 0; assume a: x >= 1;")

    with pytest.raises(ParseError, match="non-linear"):
        parse_cfg("x := x * y;")


def test_parse_rejects_disjunctive_assumptions():
    with pytest.raises(ParseError):
        parse_cfg("x := 0; assume a: x >= 1 || x <= -1;")


def test_parse_rejects_relational_assumptions():
    with pytest.raises(ParseError, match="one variable"):
        parse_cfg("y := 0; x := 0; assume a: x <= y;")


def test_assert_allows_variable_comparisons_but_not_ne():
    cfg = parse_cfg("x := 0; y := 1; assert x <= y || x = 0;")
    assert cfg.assert_nodes() == (cfg.nodes[-2],)
    with pytest.raises(ParseError):
        parse_cfg("x := 0; assert x != 0;")


def test_accepted_forms_fold_flip_and_parenthesize():
    cfg = parse_cfg(
        "x := 2 * 3 + x * 3; assume a: 3 <= x; assert 0 < x || (x >= 1 && x <= 9);"
    )
    # a constant product folds and a coefficient may follow its variable;
    # an assumption's constant may stand on the left
    assert [n.render() for n in cfg.nodes[1:-1]] == [
        "assign(x := 3*x + 6)",
        "assume(a: x >= 3)",
        "assert(0 < x || (x >= 1 && x <= 9))",
    ]


def test_build_cfg_example1_layout(example1_cfg):
    cfg = example1_cfg
    kinds = [type(n.op).__name__ for n in cfg.nodes]
    assert kinds == ["Entry", "Input", "Assume", "Assign", "Assume", "Exit"]
    assert cfg.entry == 0 and cfg.exit == 5
    assert cfg.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)})
    assert [a.label for a in cfg.assumptions] == ["a", "b"]
    assert [a.index for a in cfg.assumptions] == [0, 1]
    assert [a.node_id for a in cfg.assumptions] == [2, 4]


def test_build_cfg_if_guards_normalized():
    cfg = parse_cfg("x := input(); if (x > 0) { y := 1; } else { y := 2; } z := y;")
    guards = [n.op.test for n in cfg.nodes if isinstance(n.op, GuardFilter)]
    assert Comparison("x", Rel.GE, 1) in guards
    assert Comparison("x", Rel.LE, 0) in guards


def test_build_cfg_while_shape():
    cfg = parse_cfg("x := 0; while (x <= 10) { x := x + 2; }")
    heads = [n for n in cfg.nodes if n.loop_head]
    assert len(heads) == 1
    head = heads[0]
    assert isinstance(head.op, Skip)
    guards = {n.id: n.op.test for n in cfg.nodes if isinstance(n.op, GuardFilter)}
    body_guard = next(i for i, t in guards.items() if t == Comparison("x", Rel.LE, 10))
    exit_guard = next(i for i, t in guards.items() if t == Comparison("x", Rel.GE, 11))
    assert set(cfg.successors(head.id)) == {body_guard, exit_guard}
    # the loop body feeds back into the head
    assign = next(n.id for n in cfg.nodes if isinstance(n.op, Assign))
    assert head.id in cfg.successors(assign)


def test_predecessors():
    cfg = parse_cfg(corpus_source("fig1.pwl"))
    assert cfg.predecessors(cfg.entry) == ()
    head = next(n.id for n in cfg.nodes if n.loop_head)
    assign = next(
        n.id for n in cfg.nodes if isinstance(n.op, Assign) and n.op.expr.terms
    )
    preds = set(cfg.predecessors(head))
    assert assign in preds and len(preds) == 2
    straight = parse_cfg("x := 0; y := 1;")
    assert straight.predecessors(2) == (1,)
    with pytest.raises(ValueError, match="unknown node"):
        cfg.predecessors(999)


def test_assume_nodes_enumerate_assumptions():
    for name in ("example1.pwl", "fig1.pwl", "chain8.pwl", "branch_assume.pwl"):
        cfg = parse_cfg(corpus_source(name))
        assume_nodes = [n for n in cfg.nodes if isinstance(n.op, Assume)]
        assert [n.op.assumption for n in assume_nodes] == list(cfg.assumptions)
        assert [a.node_id for a in cfg.assumptions] == [n.id for n in assume_nodes]
        assert [a.index for a in cfg.assumptions] == list(range(len(cfg.assumptions)))


def test_restrict_identity_and_empty(example1_cfg):
    cfg = example1_cfg
    full = (1 << len(cfg.assumptions)) - 1
    assert restrict(cfg, full) == cfg
    empty = restrict(cfg, 0)
    assert all(not isinstance(n.op, Assume) for n in empty.nodes)
    assert empty.assumptions == cfg.assumptions  # indexing preserved


def test_restrict_keeps_selected(example1_cfg):
    cfg = example1_cfg
    only_a = restrict(cfg, 0b01)
    assert isinstance(only_a.nodes[2].op, Assume)
    assert isinstance(only_a.nodes[4].op, Skip)
    # idempotent
    assert restrict(only_a, 0b01) == only_a


def test_restrict_rejects_unknown_bits(example1_cfg):
    with pytest.raises(ValueError):
        restrict(example1_cfg, 0b100)


def test_build_is_deterministic():
    a = parse_cfg(corpus_source("fig1.pwl"))
    b = parse_cfg(corpus_source("fig1.pwl"))
    assert a == b and dump_cfg(a) == dump_cfg(b)


def test_dump_cfg_golden(example1_cfg):
    assert dump_cfg(example1_cfg) == (
        "id=0 kind=entry succs=[1]\n"
        "id=1 kind=input(x) succs=[2]\n"
        "id=2 kind=assume(a: x >= 1) succs=[3]\n"
        "id=3 kind=assign(x := 5) succs=[4]\n"
        "id=4 kind=assume(b: x = 0) succs=[5]\n"
        "id=5 kind=exit succs=[]\n"
    )


def test_dump_cfg_if_without_else_in_a_while_in_an_if_else():
    cfg = parse_cfg(
        "x := input(); if (x > 0) { while (x <= 10) { if (x = 5) { x := x + 1; } x := x + 2; } }"
        " else { x := 0; } assert x >= 0;"
    )
    # the declined guard of the inner if (node 8) falls through to x := x + 2
    assert dump_cfg(cfg) == (
        "id=0 kind=entry succs=[1]\n"
        "id=1 kind=input(x) succs=[2,3]\n"
        "id=2 kind=guard(x >= 1) succs=[4]\n"
        "id=3 kind=guard(x <= 0) succs=[11]\n"
        "id=4 kind=skip succs=[5,6]\n"
        "id=5 kind=guard(x <= 10) succs=[7,8]\n"
        "id=6 kind=guard(x >= 11) succs=[12]\n"
        "id=7 kind=guard(x = 5) succs=[9]\n"
        "id=8 kind=guard(x != 5) succs=[10]\n"
        "id=9 kind=assign(x := x + 1) succs=[10]\n"
        "id=10 kind=assign(x := x + 2) succs=[4]\n"
        "id=11 kind=assign(x := 0) succs=[12]\n"
        "id=12 kind=assert(x >= 0) succs=[13]\n"
        "id=13 kind=exit succs=[]\n"
    )


def test_input_range_annotation():
    cfg = parse_cfg("x := input() in [-2, 13];")
    assert cfg.nodes[1].op.input_range == (-2, 13)
    with pytest.raises(ParseError, match="empty input range"):
        parse_cfg("x := input() in [3, 1];")


def test_entry_exit_invariants():
    for source in ("", "x := 0;", corpus_source("fig1.pwl")):
        cfg = parse_cfg(source)
        assert cfg.predecessors(cfg.entry) == ()
        assert cfg.successors(cfg.exit) == ()
        assert isinstance(cfg.nodes[cfg.entry].op, Entry)
        assert isinstance(cfg.nodes[cfg.exit].op, Exit)
        # every node reachable from entry
        seen = {cfg.entry}
        stack = [cfg.entry]
        while stack:
            for s in cfg.successors(stack.pop()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        assert seen == {n.id for n in cfg.nodes}


# inserted by the mutations: every line break, blank and comment form, the
# characters no token takes, and names that begin with a keyword
_PIECES = (
    "\t", "\r", "\r\n", "\n", "\f", " ", "# note", "#", "é", "$", "input2", "if_x", "inx",
    "in", "x", "7", ";", ":=", "==", "(", "}",
)


def _mutate(rng: random.Random, source: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(source) + 1)
        roll = rng.random()
        if roll < 0.7:
            source = source[:at] + rng.choice(_PIECES) + source[at:]
        elif roll < 0.85:
            source = source[:at] + source[at + rng.randint(1, 6):]
        else:  # a comment at the end of input, with no newline after it
            source = source.rstrip("\n") + rng.choice(("# tail", "\n# tail", "\t#"))
    return source


def _outcome(tokenize, source: str):
    try:
        return tokenize(source)
    except ParseError as err:
        return (err.message, err.line, err.col)


def test_tokens_match_the_position_tracking_reference():
    rng = random.Random(28)
    bases = [path.read_text(encoding="utf-8") for path in sorted(CORPUS_DIR.glob("*.pwl"))]
    bases += [generate_program(seed) for seed in range(120)]
    sources = bases + [_mutate(rng, rng.choice(bases)) for _ in range(1200)]
    parsed = 0
    for source in sources:
        expected = _outcome(reference_tokenize, source)
        tokens = _outcome(_tokenize, source)
        if isinstance(expected, tuple):  # the same unexpected character, at the same place
            assert tokens == expected, source
            continue
        assert [(kind, text, *_line_col(source, offset)) for kind, text, offset in tokens] == expected
        try:
            parse_cfg(source)
            parsed += 1
        except ParseError as err:  # a parse error points at a token
            assert (err.line, err.col) in {(line, col) for *_, line, col in expected}, source
    assert len(bases) == 140 and parsed >= 200
