"""Subset masks and propositional conditions over assumption atoms.

A set of assumption subsets is a mask: an int with bit A set when subset A
(bit i = the assumption with index i) belongs to the set. The analysis works
on masks alone. `atom_mask` builds the mask of the subsets holding one
assumption by doubling one period of it, in O(width) int operations, and
caches nothing. Output prints a mask's canonical cover: `render_mask`
prints a cube straight from its lowest member and free atoms, which one
test gives (`_cube_for`), and any other mask from `_cover` (a negated
cube, or an irredundant sum of products). `members` lists a mask's
subsets, peeling the lowest bit off a sparse one. The width cap keeps
masks at desk scale.

The condition trees are not on any command's path. `formula` builds a
mask's cover as a tree, `truth_table` gives the mask of a tree and
`simplify` its canonical formula; the tests' reference spec evaluates,
prints and parses trees and checks `render_mask` against them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence, Union

from .frontend import AssumptionId, Record

WIDTH_CAP = 16


class WidthError(ValueError):
    """Raised when a condition needs more assumption atoms than configured."""


class TrueCond(Record, frozen=True):
    pass


class FalseCond(Record, frozen=True):
    pass


class Atom(Record, frozen=True):
    assumption: AssumptionId


class Not(Record, frozen=True):
    operand: Condition


class And(Record, frozen=True):
    parts: tuple[Condition, ...]


class Or(Record, frozen=True):
    parts: tuple[Condition, ...]


Condition = Union[TrueCond, FalseCond, Atom, Not, And, Or]

TRUE = TrueCond()
FALSE = FalseCond()


def atoms_of(cond: Condition) -> frozenset[AssumptionId]:
    out: set[AssumptionId] = set()
    stack = [cond]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.assumption)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend(node.parts)
    return frozenset(out)


def full_mask(width: int) -> int:
    """The mask of all 2**width subsets."""
    return (1 << (1 << width)) - 1


def atom_mask(index: int, width: int) -> int:
    """The mask of the subsets that contain the assumption with index `index`."""
    block, period, size = 1 << index, 2 << index, 1 << width
    if period > size:
        return 0
    pattern = ((1 << block) - 1) << block  # one period: `block` zeros, then `block` ones
    while period < size:  # double until it fills 2**width bits
        pattern |= pattern << period
        period <<= 1
    return pattern


@lru_cache(maxsize=1 << 16)
def truth_table(cond: Condition, width: int) -> int:
    """Bitmask over all 2**width subsets that satisfy the condition."""
    if width > WIDTH_CAP:
        raise WidthError(f"condition width {width} exceeds the cap of {WIDTH_CAP}")
    if isinstance(cond, TrueCond):
        return full_mask(width)
    if isinstance(cond, FalseCond):
        return 0
    if isinstance(cond, Atom):
        if cond.assumption.index >= width:
            raise WidthError(
                f"atom {cond.assumption.label!r} has index {cond.assumption.index}, width is {width}"
            )
        return atom_mask(cond.assumption.index, width)
    if isinstance(cond, Not):
        return full_mask(width) & ~truth_table(cond.operand, width)
    if isinstance(cond, And):
        out = full_mask(width)
        for p in cond.parts:
            out &= truth_table(p, width)
        return out
    out = 0
    for p in cond.parts:
        out |= truth_table(p, width)
    return out


_BITS = bytes.maketrans(b"01", b"\0\1")


def members(mask: int) -> list[int]:
    """The subsets of a subset mask, ascending; a sparse one's peeled off as its lowest bits."""
    if mask.bit_count() ** 2 < mask.bit_length():
        out = []
        while mask:
            out.append((low := mask & -mask).bit_length() - 1)
            mask ^= low
        return out
    bits = bin(mask)[:1:-1].encode().translate(_BITS)  # bit 0 first, one 0/1 byte each
    return list(compress(range(len(bits)), bits))


def satisfying_sets(cond: Condition, width: int) -> list[int]:
    """All assumption subsets satisfying the condition, ascending."""
    return members(truth_table(cond, width))


Cube = tuple[tuple[int, bool], ...]  # (atom index, positive) literals, ascending


def _cube_for(table: int) -> tuple[int, int] | None:
    """(lowest member, free atoms) of the cube that `table` is exactly, if any.

    A cube's least and greatest members differ exactly in its free atoms,
    and its mask is the least member doubled once per free atom.
    """
    lo = (table & -table).bit_length() - 1
    free = lo ^ (table.bit_length() - 1)
    if table.bit_count() != 1 << free.bit_count():
        return None
    cube, rest = 1 << lo, free
    while rest:
        shift = rest & -rest  # 2**i for free atom i: from a subset without i to one with it
        cube |= cube << shift
        rest ^= shift
    return (lo, free) if cube == table else None


def _literals(lo: int, free: int, width: int) -> Cube:
    """The literals of the cube (lowest member `lo`, free atoms `free`) over `width` atoms."""
    return tuple((i, bool(lo >> i & 1)) for i in range(width) if not free >> i & 1)


def _cofactors(table: int, pattern: int, shift: int) -> tuple[int, int]:
    """The tables with the atom of `pattern` fixed false and true, spread over both halves."""
    low, high = table & ~pattern, table & pattern
    return low | low << shift, high | high >> shift


def _isop(lower: int, upper: int, indices: list[int], patterns: list[int]) -> tuple[list[Cube], int]:
    """Irredundant sum of products covering `lower` within `upper`.

    The Minato-Morreale recursion: split on the highest atom in `indices`
    either table depends on, cover what only one cofactor must cover with
    cubes carrying that atom's literal, and the rest with cubes free of it.
    `patterns[i]` is `atom_mask(i, width)`, one per atom of the width.
    Returns the cubes and the table of their union.
    """
    if lower == 0:
        return [], 0
    full = full_mask(len(patterns))
    if upper == full:
        return [()], full
    for k, index in enumerate(indices):
        pattern, shift = patterns[index], 1 << index
        lower0, lower1 = _cofactors(lower, pattern, shift)
        upper0, upper1 = _cofactors(upper, pattern, shift)
        if lower0 != lower1 or upper0 != upper1:
            break
    rest = indices[k + 1 :]
    cubes0, cover0 = _isop(lower0 & ~upper1, upper0, rest, patterns)
    cubes1, cover1 = _isop(lower1 & ~upper0, upper1, rest, patterns)
    shared, cover = _isop(
        (lower0 & ~cover0) | (lower1 & ~cover1), upper0 & upper1, rest, patterns
    )
    cover |= (cover0 & ~pattern) | (cover1 & pattern)
    cubes = [c + ((index, False),) for c in cubes0] + [c + ((index, True),) for c in cubes1]
    return cubes + shared, cover


def _cover(mask: int, width: int) -> tuple[bool, list[Cube]]:
    """The canonical cover of a subset mask that is no cube (a cube covers
    itself) as (negated, cubes): no cube if it is empty, else its complement's
    cube, negated, if that is one, else the irredundant sum of products of
    `_isop`, literals and cubes sorted by atom index."""
    if mask == 0:
        return False, []
    anti = _cube_for(full_mask(width) & ~mask)
    if anti is not None:
        return True, [_literals(*anti, width)]
    patterns = [atom_mask(i, width) for i in range(width)]
    cubes, _ = _isop(mask, mask, list(range(width - 1, -1, -1)), patterns)
    return False, sorted(cubes)


def formula(mask: int, atoms: Iterable[AssumptionId]) -> Condition:
    """The canonical formula of a subset mask over `atoms`, built from its
    `_cover` (the width is one past the highest atom index): equal masks
    give equal trees."""
    by_index = {a.index: a for a in atoms}
    width, cube = max(by_index, default=-1) + 1, _cube_for(mask)
    negated, cubes = (False, [_literals(*cube, width)]) if cube else _cover(mask, width)
    parts = [FALSE] if not cubes else []
    for cube in cubes:
        literals = tuple(Atom(by_index[i]) if pos else Not(Atom(by_index[i])) for i, pos in cube)
        parts.append(And(literals) if len(literals) > 1 else literals[0] if literals else TRUE)
    if negated:
        return Not(parts[0])
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def render_mask(mask: int, atoms: Sequence[AssumptionId], names: dict | None = None) -> str:
    """The text of `formula(mask, atoms)`, with no tree built: a cube's from its
    lowest member and free atoms (`_cube_for`), any other mask's from `_cover`.
    `names`, if given, memoizes the text per mask, and under the key -1 the
    (negated, plain) literal texts per atom index: one output document keeps
    one dict, since all its masks range over the same atoms."""
    names = {} if names is None else names
    if (text := names.get(mask)) is not None:
        return text
    if (literals := names.get(-1)) is None:
        literals = names[-1] = [None] * max((a.index + 1 for a in atoms), default=0)
        for a in atoms:
            literals[a.index] = ("!" + a.label, a.label)
    width = len(literals)
    if cube := _cube_for(mask):
        lo, free = cube
        fixed = [literals[i][lo >> i & 1] for i in range(width) if not free >> i & 1]
        text = names[mask] = " & ".join(fixed) or "true"
        return text
    negated, cubes = _cover(mask, width)
    texts = [" & ".join([literals[i][p] for i, p in c]) for c in cubes] or ["false"]
    if negated:
        texts[0] = f"!({texts[0]})" if len(cubes[0]) > 1 else "!" + texts[0]
    elif len(cubes) > 1:  # a sum parenthesizes its cubes of two or more literals
        texts = [f"({t})" if len(c) > 1 else t for c, t in zip(cubes, texts)]
    text = names[mask] = " | ".join(texts)
    return text


@lru_cache(maxsize=1 << 15)
def simplify(cond: Condition) -> Condition:
    """The canonical formula of the condition's truth table (see `formula`).

    Equivalent conditions simplify to equal trees.
    """
    atoms = atoms_of(cond)
    return formula(truth_table(cond, max((a.index + 1 for a in atoms), default=0)), atoms)


def format_subset(accepted: int, assumptions: Iterable[AssumptionId]) -> str:
    labels = [a.label for a in assumptions if (accepted >> a.index) & 1]
    return "{" + ", ".join(labels) + "}"
