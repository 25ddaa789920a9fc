import random

import pytest
from hypothesis import given, strategies as st

from paramax.conditions import (
    And,
    Atom,
    FALSE,
    Not,
    Or,
    TRUE,
    WidthError,
    _cube_for,
    _literals,
    atom_mask,
    format_subset,
    formula,
    full_mask,
    members,
    render_mask,
    satisfying_sets,
    simplify,
    truth_table,
)
from paramax.engine import analyze_param
from paramax.frontend import AssumptionId

from condition_spec import eval_condition, parse_condition, render
from conftest import CORPUS, corpus_cfg, fake_assumptions

A2 = fake_assumptions(2)
A4 = fake_assumptions(4)
A6 = fake_assumptions(6)
a, b = Atom(A2[0]), Atom(A2[1])


def test_eval():
    assert eval_condition(a, 0b01)
    assert not eval_condition(a, 0b10)
    assert not eval_condition(And((a, Not(a))), 0b01)
    assert not eval_condition(And((a, Not(a))), 0b00)
    assert eval_condition(TRUE, 0)
    assert eval_condition(Or((a, b)), 0b10)


def table2(cond) -> int:
    return truth_table(cond, 2)


def test_sat():
    assert table2(And((a, Not(a)))) == 0
    assert table2(Or((a, Not(a)))) != 0
    assert table2(FALSE) == 0
    assert table2(TRUE) != 0
    assert table2(And((a, b))) != 0


def test_implies():
    assert table2(a) & ~table2(a) == 0
    assert table2(And((a, b))) & ~table2(a) == 0
    assert table2(TRUE) & ~table2(a) != 0  # countermodel: the empty subset
    assert table2(FALSE) & ~table2(a) == 0


def test_equivalent():
    assert table2(Or((a, Not(a)))) == table2(TRUE)
    assert table2(a) != table2(b)
    assert table2(FALSE) == table2(And((a, Not(a))))
    assert table2(And((a, b))) == table2(And((b, a)))


def test_simplify_examples():
    assert simplify(And((a, TRUE))) == a
    assert simplify(And((a, a))) == a
    assert simplify(Or((a, Not(a)))) == TRUE
    assert simplify(Not(Not(a))) == a
    assert simplify(Or((FALSE, b))) == b
    assert simplify(And((a, FALSE))) == FALSE
    # conjunct implied by the rest is dropped
    assert simplify(And((And((a, b)), a))) == And((a, b))


def test_simplify_spans_one_past_the_highest_atom_index():
    # atoms 1 and 3 only: a width of 2 (the atom count) or 3 (the highest
    # index) would reject atom 3, so the table must span 4 atoms
    a2, a4 = Atom(A4[1]), Atom(A4[3])
    assert simplify(And((a4, Not(a2)))) == And((Not(a2), a4))
    assert simplify(Or((a4, Not(a4)))) == TRUE
    assert simplify(Not(a4)) == Not(a4)
    assert simplify(TRUE) == TRUE and simplify(FALSE) == FALSE


def test_satisfying_sets():
    assert satisfying_sets(TRUE, 2) == [0b00, 0b01, 0b10, 0b11]
    assert satisfying_sets(Atom(A2[0]), 1) == [0b1]
    assert satisfying_sets(FALSE, 2) == []
    assert satisfying_sets(And((a, Not(b))), 2) == [0b01]


def reference_members(table, width):
    """The quadratic definition `members` and `satisfying_sets` must agree with."""
    return [a for a in range(1 << width) if (table >> a) & 1]


def reference_satisfying_sets(cond, width):
    return reference_members(truth_table(cond, width), width)


def test_satisfying_sets_width_16():
    atoms = [Atom(x) for x in fake_assumptions(16)]
    cond = Or((And((atoms[0], Not(atoms[15]))), And((atoms[7], atoms[9], atoms[15]))))
    got = satisfying_sets(cond, 16)
    assert got == reference_satisfying_sets(cond, 16)
    assert len(got) == (1 << 14) + (1 << 13)


def test_width_cap():
    with pytest.raises(WidthError):
        truth_table(a, 20)
    wide = Atom(fake_assumptions(5)[4])
    with pytest.raises(WidthError):
        truth_table(wide, 2)  # atom index above the table width


def test_render():
    cond = Or((And((Atom(A4[0]), Not(Atom(A4[1])))), Atom(A4[2])))
    assert render(cond) == "(a1 & !a2) | a3"
    assert render(TRUE) == "true"
    assert render(Not(Or((a, b)))) == "!(a1 | a2)"


def test_format_subset():
    assert format_subset(0b101, fake_assumptions(3)) == "{a1, a3}"
    assert format_subset(0, A2) == "{}"


def test_parse_condition_round_trip():
    atoms = {x.label: x for x in A4}
    for text in ("(a1 & !a2) | a3", "true", "false", "!a1 & (a2 | a4)"):
        cond = parse_condition(text, atoms)
        assert render(cond) == text


def test_parse_condition_errors():
    atoms = {x.label: x for x in A2}
    with pytest.raises(ValueError):
        parse_condition("a1 &", atoms)
    with pytest.raises(ValueError, match="unknown assumption"):
        parse_condition("zz", atoms)


# --- properties ----------------------------------------------------------


@st.composite
def conditions(draw, depth=3, atoms=A4):
    leaves = [TRUE, FALSE] + [Atom(x) for x in atoms]
    if depth == 0:
        return draw(st.sampled_from(leaves))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from(leaves))
    if kind == 1:
        return Not(draw(conditions(depth=depth - 1, atoms=atoms)))
    parts = tuple(
        draw(conditions(depth=depth - 1, atoms=atoms))
        for _ in range(draw(st.integers(1, 3)))
    )
    return And(parts) if kind in (2, 3) else Or(parts)


@given(conditions())
def test_simplify_preserves_meaning(cond):
    simplified = simplify(cond)
    for accepted in range(16):
        assert eval_condition(simplified, accepted) == eval_condition(cond, accepted)


@given(conditions())
def test_sat_iff_nonempty_satisfying_sets(cond):
    assert (truth_table(cond, 4) != 0) == bool(satisfying_sets(cond, 4))


@given(conditions(), conditions())
def test_equivalent_iff_same_sets(x, y):
    same = satisfying_sets(x, 4) == satisfying_sets(y, 4)
    assert (truth_table(x, 4) == truth_table(y, 4)) == same


@given(conditions())
def test_truth_table_matches_eval(cond):
    table = truth_table(cond, 4)
    for accepted in range(16):
        assert bool((table >> accepted) & 1) == eval_condition(cond, accepted)


@given(conditions())
def test_render_parse_round_trips_semantics(cond):
    atoms = {x.label: x for x in A4}
    again = parse_condition(render(cond), atoms)
    assert truth_table(cond, 4) == truth_table(again, 4)


@given(conditions(atoms=A6), st.integers(6, 8))
def test_satisfying_sets_matches_reference(cond, width):
    assert satisfying_sets(cond, width) == reference_satisfying_sets(cond, width)


def test_members_matches_reference():
    # the sparse path, which peels low bits, and the dense one, up to the 2**16-bit masks
    rng = random.Random(0xB175)
    for width in range(17):
        size, full = 1 << width, full_mask(width)
        masks = [0, 1, 1 << (size - 1), full, atom_mask(0, width), 1 << rng.randrange(size)]
        masks += [atom_mask(max(width - 1, 0), width), rng.getrandbits(size)]  # the last one dense
        masks += [rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)]
        masks += [full & ~(1 << rng.randrange(size))]
        for count in (2, 3, 5, 17, 100):  # sparse
            masks.append(sum(1 << bit for bit in rng.sample(range(size), min(count, size))))
        for mask in masks:
            assert members(mask) == reference_members(mask, width), (width, mask)


def _minterms(cond, width):
    """The sum of the condition's minterms: equivalent, structurally unrelated."""
    atoms = [Atom(x) for x in fake_assumptions(width)]
    cubes = [
        And(tuple(x if (s >> i) & 1 else Not(x) for i, x in enumerate(atoms)))
        for s in satisfying_sets(cond, width)
    ]
    return Or(tuple(cubes)) if cubes else FALSE


@given(conditions(atoms=A6), conditions(atoms=A6))
def test_equivalent_conditions_simplify_equal(x, y):
    # rewrites that keep the meaning but not the shape, some on more atoms
    for z in (_minterms(x, 6), Not(Not(x)), Or((And((x, y)), And((Not(y), x))))):
        assert truth_table(x, 6) == truth_table(z, 6)
        assert simplify(x) == simplify(z)
    if truth_table(x, 6) == truth_table(y, 6):
        assert simplify(x) == simplify(y)


@given(conditions(atoms=A6))
def test_formula_of_the_table_is_the_simplified_condition(cond):
    # over all six atoms, not only the ones the condition mentions
    assert formula(truth_table(cond, 6), A6) == simplify(cond)


@given(conditions(atoms=A6))
def test_simplify_idempotent(cond):
    once = simplify(cond)
    assert simplify(once) == once


@given(conditions(atoms=A6))
def test_simplify_sum_of_products_is_prime_and_irredundant(cond):
    out = simplify(cond)
    if not isinstance(out, Or):
        return
    width = 6
    table = truth_table(out, width)
    cubes = [p.parts if isinstance(p, And) else (p,) for p in out.parts]
    for k, cube in enumerate(cubes):
        rest = Or(tuple(p for i, p in enumerate(out.parts) if i != k))
        assert truth_table(rest, width) != table  # irredundant
        for j in range(len(cube)):
            wider = And(cube[:j] + cube[j + 1 :]) if len(cube) > 1 else TRUE
            assert truth_table(wider, width) & ~table  # prime


def reference_atom_mask(index, width):
    """The subsets holding atom `index`: one run of 2**index ones per period."""
    block = 1 << index
    run = (1 << block) - 1
    pattern = 0
    for start in range(block, 1 << width, block * 2):
        pattern |= run << start
    return pattern


def test_atom_mask_matches_the_run_loop():
    for width in range(17):
        for index in range(width + 1):  # index == width: no subset holds it
            assert atom_mask(index, width) == reference_atom_mask(index, width), (index, width)
    assert not hasattr(atom_mask, "cache_info")


def reference_cube_for(table, width, patterns):
    """The literals of the cube `table` is, tested one atom mask at a time."""
    full = full_mask(width)
    literals, cube = [], full
    for index, pattern in enumerate(patterns):
        if table & ~pattern == 0:
            literals.append((index, True))
            cube &= pattern
        elif table & pattern == 0:
            literals.append((index, False))
            cube &= full & ~pattern
    return tuple(literals) if cube == table else None


def cube_literals(table, width):
    """The literals of `_cube_for(table)` over `width` atoms, or None; its
    lowest member leaves every free atom out."""
    cube = _cube_for(table)
    if cube is None:
        return None
    lo, free = cube
    assert lo == (table & -table).bit_length() - 1 and not lo & free, (table, cube)
    return _literals(lo, free, width)


def test_cube_for_matches_the_atom_mask_version():
    assert _cube_for(0) is None
    for width in range(4):
        patterns = [reference_atom_mask(i, width) for i in range(width)]
        for table in range(1, 1 << (1 << width)):
            assert cube_literals(table, width) == reference_cube_for(table, width, patterns)
    rng = random.Random(1107)
    for width in range(4, 17):
        patterns = [reference_atom_mask(i, width) for i in range(width)]
        full = full_mask(width)
        for _ in range(12):
            cube = full
            for pattern in patterns:
                cube &= rng.choice((pattern, full & ~pattern, full, full))
            other = full & (cube ^ (1 << rng.randrange(1 << width)))  # one subset flipped
            for table in (cube, other, cube | other << 1 & full, rng.getrandbits(1 << width)):
                if table:
                    expected = reference_cube_for(table, width, patterns)
                    assert cube_literals(table, width) == expected, (width, table)
            assert _cube_for(cube) is not None


def test_render_mask_matches_the_rendered_tree_at_small_widths():
    for width in range(4):
        atoms = fake_assumptions(width)
        names: dict[int, str] = {}
        for mask in range(1 << (1 << width)):
            expected = render(formula(mask, atoms))
            assert render_mask(mask, atoms) == expected, (width, mask)
            assert render_mask(mask, atoms, names) == expected and names[mask] == expected


def test_render_mask_matches_the_rendered_tree_on_every_width_4_mask():
    atoms = fake_assumptions(4)
    names: dict[int, str] = {}
    for mask in range(1 << 16):
        assert render_mask(mask, atoms, names) == render(formula(mask, atoms)), mask


def _cubes(width):
    """Every cube over `width` atoms: each atom positive, negative or free."""
    full, cubes = full_mask(width), [full_mask(width)]
    for index in range(width):
        pattern = atom_mask(index, width)
        cubes = [c & choice for c in cubes for choice in (pattern, full & ~pattern, full)]
    return cubes


def test_render_mask_matches_the_rendered_tree_on_every_cube_and_its_complement():
    for width in range(7):
        atoms, full = fake_assumptions(width), full_mask(width)
        names: dict[int, str] = {}
        cubes = _cubes(width)
        assert len(set(cubes)) == 3**width
        for mask in cubes + [full & ~cube for cube in cubes]:
            expected = render(formula(mask, atoms))
            assert render_mask(mask, atoms) == expected, (width, mask)
            assert render_mask(mask, atoms, names) == expected, (width, mask)


def test_render_mask_matches_the_rendered_tree_when_atom_indices_skip():
    # atoms 1 and 3 only: the width is 4, and every mask that reads no other atom
    atoms = (AssumptionId(1, "b", 0), AssumptionId(3, "d", 1))
    b, d, full = atom_mask(1, 4), atom_mask(3, 4), full_mask(4)
    names: dict[int, str] = {}
    quarters = [b & d, b & ~d & full, ~b & d & full, ~(b | d) & full]
    for pick in range(16):
        mask = sum(q for k, q in enumerate(quarters) if pick >> k & 1)
        expected = render(formula(mask, atoms))
        assert render_mask(mask, atoms) == expected == render_mask(mask, atoms, names), pick
    assert render_mask(b & ~d & full, atoms) == "b & !d"


def test_render_mask_matches_the_rendered_tree_on_random_masks_and_cubes():
    # random cubes, their complements, unions and differences, `true`, `false`, single
    # subsets, and fully random masks up to width 12 (a random mask at width 16 has an
    # irredundant cover of thousands of cubes)
    rng = random.Random(1211)

    def random_cube(width):
        full, cube = full_mask(width), full_mask(width)
        for index in range(width):
            pattern = atom_mask(index, width)
            cube &= rng.choice((pattern, full & ~pattern, full, full))
        return cube

    for width in range(4, 17):
        atoms = fake_assumptions(width)
        full = full_mask(width)
        for _ in range(6):
            cube, other, third = random_cube(width), random_cube(width), random_cube(width)
            masks = [cube, full & ~cube, cube | other, cube | other | third, cube & ~other, 1]
            masks += [full, 0, 1 << rng.randrange(1 << width), 1 << (full.bit_length() - 1)]
            if width <= 12:
                masks.append(rng.getrandbits(1 << width))
            for mask in masks:
                assert render_mask(mask, atoms) == render(formula(mask, atoms)), (width, mask)


def test_render_mask_matches_the_rendered_tree_on_the_corpus_rules():
    for entry in CORPUS:
        cfg = corpus_cfg(entry.name)
        for state in analyze_param(cfg, entry.config).states:
            for rule in state.rules:
                expected = render(formula(rule.mask, cfg.assumptions))
                assert render_mask(rule.mask, cfg.assumptions) == expected, entry.name
