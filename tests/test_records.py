"""Value semantics of paramax's record classes.

Every CFG op, condition-tree node, configuration, result and
report is a record: construction by position or keyword with defaults,
equality by exact class and field tuple, the `Name(field=value, ...)`
repr, and, for the immutable ones, a hash equal to that of the field
tuple and no field assignment or deletion. These tests pin that behaviour class by class.
"""

from __future__ import annotations

import pytest

from paramax.conditions import FALSE, TRUE, WIDTH_CAP, And, Atom, FalseCond, Not, Or, TrueCond
from paramax.consistency import ConsistencyReport, Membership
from paramax.engine import (
    AnalysisConfig,
    AnalysisResult,
    CollectingResult,
    OracleReport,
    run_collecting,
)
from paramax.frontend import (
    AssertAnd,
    AssertOr,
    Assert,
    Assign,
    Assume,
    AssumptionId,
    AtomicConstraint,
    Bound,
    CfgNode,
    Comparison,
    Entry,
    Exit,
    GuardFilter,
    Input,
    LinearExpr,
    Rel,
    Skip,
    parse_cfg,
)
from paramax.intervals import BOTTOM, NEG_INF, POS_INF, AssumeState, Interval
from paramax.param import Rule
from paramax.synthesis import SynthesisOutcome, SynthesisVerdict

from conftest import env, labelled

CMP = Comparison("x", Rel.LE, 3)
EXPR = LinearExpr(1, ((2, "x"),))
CONSTRAINT = AtomicConstraint((Bound("x", Rel.GE, 0), Bound("x", Rel.LE, 5)))
AID = AssumptionId(0, "a", 2)

# (class, field names, one value per field), for every immutable record
FROZEN = [
    (Comparison, ("lhs", "op", "rhs"), ("x", Rel.LE, 3)),
    (LinearExpr, ("constant", "terms"), (1, ((2, "x"),))),
    (Bound, ("var", "op", "value"), ("x", Rel.GE, 0)),
    (AtomicConstraint, ("bounds",), ((Bound("x", Rel.GE, 0),),)),
    (AssertAnd, ("parts",), ((CMP, CMP),)),
    (AssertOr, ("parts",), ((CMP, CMP),)),
    (AssumptionId, ("index", "label", "node_id"), (0, "a", 2)),
    (Entry, (), ()),
    (Exit, (), ()),
    (Skip, (), ()),
    (Assign, ("var", "expr"), ("x", EXPR)),
    (Input, ("var", "input_range"), ("x", None)),
    (GuardFilter, ("test",), (CMP,)),
    (Assume, ("assumption", "constraint"), (AID, CONSTRAINT)),
    (Assert, ("test",), (AssertOr((CMP, CMP)),)),
    (CfgNode, ("id", "op", "loop_head"), (0, Entry(), True)),
    (Interval, ("lo", "hi"), (NEG_INF, 4)),
    (AssumeState, ("intervals", "is_empty"), ((("x", Interval(0, 5)),), False)),
    (Rule, ("mask", "state"), (0b101, env(x=(1, 2)))),
    (TrueCond, (), ()),
    (FalseCond, (), ()),
    (Atom, ("assumption",), (AID,)),
    (Not, ("operand",), (Atom(AID),)),
    (And, ("parts",), ((Atom(AID), TRUE),)),
    (Or, ("parts",), ((Atom(AID), FALSE),)),
]

# the same, for every mutable record
MUTABLE = [
    (AnalysisConfig, ("max_iterations", "widening_delay"), (50, 2)),
    (AnalysisResult, ("states", "iterations", "converged", "config"), ([BOTTOM], 3, True, AnalysisConfig())),
    (
        CollectingResult,
        ("reached", "truncated_subsets"),
        ([{(2,): 0b10, (1,): 0b11}], 0b01),
    ),
    (
        OracleReport,
        ("check", "program", "subsets_checked", "mode", "mismatches", "skipped", "partial"),
        ("equivalence", "p", 4, "equality", [{"subset": 1, "node": 2}], [3], [0]),
    ),
    (
        ConsistencyReport,
        ("core", "envelope", "classification", "phi_table", "fixpoints"),
        (1, 3, {"a": Membership.IN_EVERY}, {0: 1}, (1, 3)),
    ),
    (
        SynthesisOutcome,
        ("condition", "verdict", "solutions", "minimal", "per_assertion", "truncated", "atoms"),
        (1, SynthesisVerdict.SOLUTIONS, (0,), (0,), {}, False, (AID,)),
    ),
]

ALL = FROZEN + MUTABLE


def _name(case) -> str:
    return case[0].__name__


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_equal_fields_give_equal_records(case):
    cls, names, values = case
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert tuple(getattr(a, n) for n in names) == values
    if names and cls not in (Interval, AnalysisConfig):  # these two validate their fields
        changed = list(values)
        changed[0] = ("other", changed[0])
        assert cls(*changed) != a


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_records_differ_from_tuples_and_other_types(case):
    cls, _, values = case
    record = cls(*values)
    assert record != values and values != record
    assert record != object()
    assert record.__eq__(values) is NotImplemented


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_repr_lists_every_field(case):
    cls, names, values = case
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("case", FROZEN, ids=_name)
def test_frozen_records_hash_their_field_tuple(case):
    cls, names, values = case
    assert hash(cls(*values)) == hash(values)
    assert hash(cls(*values)) == hash(cls(**dict(zip(names, values))))


@pytest.mark.parametrize("case", FROZEN, ids=_name)
def test_frozen_records_refuse_assignment_and_deletion(case):
    cls, names, values = case
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, n) for n in names) == values


@pytest.mark.parametrize("case", MUTABLE, ids=_name)
def test_mutable_records_are_unhashable_and_assignable(case):
    cls, names, values = case
    record = cls(*values)
    with pytest.raises(TypeError):
        hash(record)
    setattr(record, names[1], values[1])
    assert record == cls(*values)


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_bad_arguments_raise_type_error(case):
    cls, names, values = case
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if names:
        with pytest.raises(TypeError):
            cls(*values[:1], **{names[0]: values[0]})


def test_records_of_different_classes_with_equal_fields_differ():
    assert Entry() != Exit() and Entry() != Skip()
    assert Skip() != Exit()
    assert AssertAnd((CMP,)) != AssertOr((CMP,))
    assert GuardFilter(CMP) != Assert(CMP)
    assert Input("x", EXPR) != Assign("x", EXPR)
    assert TRUE != FALSE and TRUE == TrueCond() and hash(TRUE) == hash(FALSE)
    assert And((TRUE,)) != Or((TRUE,))
    assert Entry() == Entry() and hash(Entry()) == hash(())


def test_repr_text():
    assert repr(Interval(1, POS_INF)) == "Interval(lo=1, hi=inf)"
    assert repr(Entry()) == "Entry()"
    assert repr(CfgNode(0, Entry())) == "CfgNode(id=0, op=Entry(), loop_head=False)"
    assert repr(Input("x")) == "Input(var='x', input_range=None)"
    assert repr(Comparison("x", Rel.LE, 3)) == "Comparison(lhs='x', op=<Rel.LE: '<='>, rhs=3)"
    assert repr(Not(Atom(AID))) == (
        "Not(operand=Atom(assumption=AssumptionId(index=0, label='a', node_id=2)))"
    )
    assert repr(AnalysisConfig()) == "AnalysisConfig(max_iterations=1000, widening_delay=None)"


def test_defaults_and_keyword_construction():
    config = AnalysisConfig(widening_delay=2)
    assert (config.max_iterations, config.widening_delay) == (1000, 2)
    assert AnalysisConfig() == AnalysisConfig(1000, None) != config
    assert AnalysisConfig().to_json()["condition_width_cap"] == WIDTH_CAP
    assert Input("x").input_range is None and Input("x") == Input("x", None)
    assert Input(var="x") == Input("x", None)
    assert CfgNode(0, Entry()).loop_head is False
    assert CfgNode(0, Entry()) == CfgNode(op=Entry(), id=0, loop_head=False)
    assert AssumeState(()).is_empty is False
    assert Interval(hi=2, lo=1) == Interval(1, 2) != Interval(1, 3)
    assert Rule(state=BOTTOM, mask=1) == Rule(1, BOTTOM)
    with pytest.raises(TypeError):
        CfgNode(0)
    with pytest.raises(TypeError):
        Entry(1)


def test_oracle_report_default_lists_are_distinct_per_instance():
    a = OracleReport("equivalence", "p", 4, "equality")
    b = OracleReport("equivalence", "p", 4, "equality")
    assert a.mismatches == a.skipped == a.partial == []
    assert a.mismatches is not b.mismatches
    assert a.skipped is not b.skipped and a.partial is not b.partial
    assert a.mismatches is not a.skipped
    a.record(0b10, 3, detail="x")
    assert b.mismatches == [] and a != b


def test_analysis_config_validates():
    for bad in (
        {"max_iterations": 0},
        {"widening_delay": 0},
    ):
        with pytest.raises(ValueError):
            AnalysisConfig(**bad)
    with pytest.raises(ValueError):
        AnalysisConfig(0)
    with pytest.raises(TypeError):  # the width cap is fixed
        AnalysisConfig(condition_width_cap=WIDTH_CAP)


def test_collecting_results_compare_by_value_and_are_unhashable():
    cfg = parse_cfg("x := input() in [0, 2]; assume a: x >= 1;")
    first, second = run_collecting(cfg), run_collecting(cfg)
    assert first == second and first is not second
    assert first != run_collecting(cfg, step_bound=1)
    assert first != tuple(vars(first).values())
    with pytest.raises(TypeError):
        hash(first)


def test_collecting_results_derive_labelled_from_the_reached_states():
    # `labelled` is each node's reached states sorted by values, read off
    # `reached`, which is all a result keeps besides `truncated_subsets`;
    # the order the enumeration found the states in is no part of the value
    cfg = parse_cfg("x := input() in [0, 2]; assume a: x >= 1;")
    result = run_collecting(cfg)
    assert labelled(result)[2] == [((0,), 0b01), ((1,), 0b11), ((2,), 0b11)]
    assert list(result.reached[1]) == [(0,), (1,), (2,)]
    assert list(vars(result)) == ["reached", "truncated_subsets"]
    backwards = [dict(reversed(node.items())) for node in result.reached]
    assert list(backwards[1]) == [(2,), (1,), (0,)]
    again = CollectingResult(backwards, 0)
    assert again == result and labelled(again) == labelled(result)
