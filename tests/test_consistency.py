import random
from types import SimpleNamespace

import pytest

from paramax import consistency
from paramax.cli import EXIT_OK, main
from paramax.conditions import render_mask
from paramax.consistency import (
    Membership,
    brute_force_fixpoints,
    consistency_bounds,
    consistency_report,
    refuting_condition,
)
from paramax.engine import AnalysisConfig, analyze_param
from paramax.frontend import parse_cfg

from conftest import CORPUS, corpus_cfg, fake_assumptions, unrefuted


def analyzed(name_or_source: str):
    cfg = (
        corpus_cfg(name_or_source)
        if name_or_source.endswith(".pwl")
        else parse_cfg(name_or_source)
    )
    result = analyze_param(cfg)
    assert result.converged
    return cfg, result


def test_refuting_condition_always():
    cfg, result = analyzed("never_consistent.pwl")
    mask = refuting_condition(result, cfg, cfg.assumptions[0])
    assert render_mask(mask, cfg.assumptions) == "true"


def test_refuting_condition_never():
    cfg, result = analyzed("irrefutable.pwl")
    mask = refuting_condition(result, cfg, cfg.assumptions[0])
    assert render_mask(mask, cfg.assumptions) == "false"


def test_refuting_condition_includes_bottom_rules():
    # accepting the assumption against x = 0 leaves the bottom state,
    # whose subsets must appear in the refuting mask
    cfg, result = analyzed("x := 0; assume a: x >= 1;")
    mask = refuting_condition(result, cfg, cfg.assumptions[0])
    assert render_mask(mask, cfg.assumptions) != "false"


def test_refuting_condition_rejects_non_assume_nodes():
    cfg, result = analyzed("never_consistent.pwl")
    from paramax.frontend import AssumptionId

    fake = AssumptionId(0, "a1", cfg.exit)
    with pytest.raises(ValueError, match="not an assume node"):
        refuting_condition(result, cfg, fake)


def test_unrefuted_never_consistent():
    cfg, result = analyzed("never_consistent.pwl")
    assert unrefuted(result, cfg, 0b0) == 0
    assert unrefuted(result, cfg, 0b1) == 0


def test_unrefuted_irrefutable():
    cfg, result = analyzed("irrefutable.pwl")
    assert unrefuted(result, cfg, 0b0) == 0b1
    assert unrefuted(result, cfg, 0b1) == 0b1


def test_bounds_never_consistent():
    cfg, result = analyzed("never_consistent.pwl")
    core, envelope = consistency_bounds(result, cfg)
    assert (core, envelope) == (0, 0)
    assert brute_force_fixpoints(result, cfg) == [0]


def test_bounds_irrefutable():
    cfg, result = analyzed("irrefutable.pwl")
    core, envelope = consistency_bounds(result, cfg)
    assert (core, envelope) == (0b1, 0b1)
    assert brute_force_fixpoints(result, cfg) == [0b1]


def test_bounds_no_assumptions():
    cfg, result = analyzed("straightline.pwl")
    assert consistency_bounds(result, cfg) == (0, 0)
    assert brute_force_fixpoints(result, cfg) == [0]


# The loop carries `x := 4` back to the assume node: accepting `a` refutes
# it (x stays -2), rejecting it lets x reach 4 and leaves `a` unrefuted, so
# the operator swaps {} and {a} and has no fixpoint. The iteration from the
# empty set stops at core {} and the one from the full set at {a}, which
# must equal the envelope. Kept out of the corpus, which the golden test reads.
SWAPPING_LOOP = """
x := -2;
c := input();
while (c >= 1) {
  assume a: x >= 0;
  x := 4;
  c := input();
}
"""


def test_bounds_of_an_operator_without_fixpoints():
    cfg, result = analyzed(SWAPPING_LOOP)
    assert consistency_bounds(result, cfg) == (0, 0b1)
    report = consistency_report(result, cfg)
    assert (report.core, report.envelope, report.fixpoints) == (0, 0b1, ())
    assert report.classification == {"a": Membership.IN_SOME}


def test_bounds_reject_tables_whose_operator_is_not_anti_monotone():
    # table [1]: the empty subset refutes `a`, so the operator maps {} to {}
    # and {a} to {a}; from the empty set the iteration stops at envelope {},
    # from the full set at {a}, and the two must agree
    cfg, result = analyzed("x := input(); assume a: x >= 0;")
    with pytest.raises(AssertionError, match="^fixpoint iterations disagree: envelope 0x0 vs 0x1$"):
        consistency_bounds(result, cfg, [1])


def test_cli_prints_the_bounds_of_an_operator_without_fixpoints(tmp_path, capsys):
    path = tmp_path / "loop.pwl"
    path.write_text(SWAPPING_LOOP)
    assert main(["consistency", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for line in ("core: {}", "envelope: {a}", "consistent-sets: []"):
        assert line in lines


def test_mutex_classification():
    cfg, result = analyzed("mutex.pwl")
    report = consistency_report(result, cfg)
    assert report.classification["lo"] is Membership.IN_EVERY
    assert report.classification["hi"] is Membership.NEVER
    assert report.fixpoints == (0b01,)  # only {lo} survives its own analysis
    # accepting lo refutes hi; not accepting lo leaves hi alive
    assert unrefuted(result, cfg, 0b01) == 0b01
    assert unrefuted(result, cfg, 0b00) == 0b11


def test_report_fixture_classifies_never_consistent():
    cfg, result = analyzed("never_consistent.pwl")
    report = consistency_report(result, cfg)
    assert report.classification == {"a1": Membership.NEVER}


def test_phi_table_inclusion():
    cfg, result = analyzed("mutex.pwl")
    report = consistency_report(result, cfg)
    assert report.phi_table == {0b00: 0b11, 0b01: 0b01, 0b10: 0b11, 0b11: 0b01}
    off = consistency_report(result, cfg, include_phi_table=False)
    assert off.phi_table is None


def corpus_consistency_cases():
    for entry in CORPUS:
        if not entry.kleene:
            continue
        cfg = corpus_cfg(entry.name)
        if not cfg.assumptions or len(cfg.assumptions) > 10:
            continue
        result = analyze_param(cfg)
        yield entry.name, cfg, result


def test_anti_monotonicity_sampled():
    rng = random.Random(31337)
    for name, cfg, result in corpus_consistency_cases():
        width = len(cfg.assumptions)
        for _ in range(100):
            small = rng.randrange(1 << width)
            big = small | rng.randrange(1 << width)
            assert (
                unrefuted(result, cfg, big) & unrefuted(result, cfg, small)
            ) == unrefuted(result, cfg, big), name


def test_sandwich_on_corpus():
    for name, cfg, result in corpus_consistency_cases():
        core, envelope = consistency_bounds(result, cfg)
        assert core & envelope == core, name  # core within envelope
        fixpoints = brute_force_fixpoints(result, cfg)
        for fixed in fixpoints:
            assert core & fixed == core, name
            assert fixed & envelope == fixed, name
        # the pair alternates under the operator
        assert unrefuted(result, cfg, core) == envelope, name
        assert unrefuted(result, cfg, envelope) == core, name


def test_classification_matches_brute_force():
    for name, cfg, result in corpus_consistency_cases():
        report = consistency_report(result, cfg)
        fixpoints = brute_force_fixpoints(result, cfg)
        for aid in cfg.assumptions:
            bit = 1 << aid.index
            label = aid.label
            if report.classification[label] is Membership.IN_EVERY:
                assert all(f & bit for f in fixpoints), (name, label)
            if report.classification[label] is Membership.NEVER:
                assert not any(f & bit for f in fixpoints), (name, label)


def test_report_builds_refuting_tables_once(monkeypatch):
    cfg, result = analyzed("mutex.pwl")
    calls = []
    real = consistency.refuting_condition

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(consistency, "refuting_condition", counting)
    report = consistency_report(result, cfg, include_phi_table=True)
    assert report.phi_table is not None and report.fixpoints is not None
    assert len(calls) == len(cfg.assumptions)


def reference_fixpoints(tables, assumptions):
    """The subsets the operator maps to themselves, one subset at a time."""
    width = len(assumptions)
    return [a for a in range(1 << width) if consistency._phi(tables, assumptions, a) == a]


def test_fixpoints_match_the_per_subset_definition_on_corpus():
    for entry in CORPUS:
        cfg = corpus_cfg(entry.name)
        for config in (entry.config, AnalysisConfig(widening_delay=2)):
            result = analyze_param(cfg, config)
            tables = consistency._refuting_tables(result, cfg)
            expected = reference_fixpoints(tables, cfg.assumptions)
            assert brute_force_fixpoints(result, cfg) == expected, entry.name


def test_fixpoints_match_the_per_subset_definition_on_random_tables():
    rng = random.Random(4099)
    for width in range(11):
        cfg = SimpleNamespace(assumptions=fake_assumptions(width))
        for _ in range(8):
            tables = [rng.getrandbits(1 << width) for _ in range(width)]
            expected = reference_fixpoints(tables, cfg.assumptions)
            assert brute_force_fixpoints(None, cfg, tables=tables) == expected, width


def reference_phi_table(tables, assumptions) -> dict[int, int]:
    """The operator's image of every subset, one `_phi` call per subset."""
    return {a: consistency._phi(tables, assumptions, a) for a in range(1 << len(assumptions))}


def test_phi_table_matches_the_per_subset_images_on_corpus():
    for entry in CORPUS:
        cfg = corpus_cfg(entry.name)
        for config in (entry.config, AnalysisConfig(widening_delay=2)):
            result = analyze_param(cfg, config)
            tables = consistency._refuting_tables(result, cfg)
            report = consistency_report(result, cfg, include_phi_table=True)
            assert report.phi_table == reference_phi_table(tables, cfg.assumptions), entry.name


def test_phi_table_matches_the_per_subset_images_on_random_tables():
    rng = random.Random(4127)
    for width in range(11):
        atoms = fake_assumptions(width)
        for _ in range(8):
            tables = [rng.getrandbits(1 << width) for _ in range(width)]
            expected = reference_phi_table(tables, atoms)
            assert consistency._phi_table(tables, atoms) == expected, width
            assert list(expected) == list(range(1 << width))
