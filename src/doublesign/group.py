"""Exact arithmetic in the Klein four-group used for edge labels.

The label domain has four elements, encoded as two bits: ``e`` (identity),
``a``, ``b``, ``c``.  Addition is componentwise mod 2, i.e. XOR on the
2-bit encoding, so every element is its own inverse and the sum of two
distinct nonzero elements is the third.
"""

from __future__ import annotations

from enum import IntEnum


class F22(IntEnum):
    """An element of the Klein four-group, as a 2-bit integer.

    ``E = 0`` is the identity.  The nonzero elements are named ``A = 1``,
    ``B = 2``, ``C = 3``; the naming is a fixed bijection, every claim in
    this library is invariant under renaming the nonzero elements.
    """

    E = 0
    A = 1
    B = 2
    C = 3

    def __xor__(self, other: int) -> "F22":
        return F22(int(self) ^ int(other))

    __rxor__ = __xor__

    def render(self) -> str:
        """Lowercase one-letter form used in all file formats and reports."""
        return self.name.lower()

    @classmethod
    def parse(cls, token: str) -> "F22":
        """Parse a symbolic name (``e a b c``) or a bit pair (``00 01 10 11``)."""
        t = token.strip().lower()
        if t in _BY_NAME:
            return _BY_NAME[t]
        if len(t) == 2 and set(t) <= {"0", "1"}:
            return cls(int(t, 2))
        raise ValueError(f"not a group element: {token!r}")

    def __str__(self) -> str:
        return self.render()


_BY_NAME = {"e": F22.E, "a": F22.A, "b": F22.B, "c": F22.C}

#: All four elements in canonical order, so ``ELEMENTS[i]`` is ``F22(i)``.
ELEMENTS = (F22.E, F22.A, F22.B, F22.C)

#: The three nonzero elements.
NONZERO = (F22.A, F22.B, F22.C)


def add(x: F22, y: F22) -> F22:
    """Group addition: XOR of the bit pairs (commutative, associative)."""
    return F22(int(x) ^ int(y))


def fourth_element(x: F22, y: F22, z: F22) -> F22:
    """The unique element outside ``{x, y, z}`` for pairwise distinct inputs.

    Equals ``x + y + z``: the four elements sum to the identity, so the sum
    of any three distinct ones is the missing fourth.
    """
    if x == y or x == z or y == z:
        raise ValueError(f"arguments must be pairwise distinct, got {x}, {y}, {z}")
    return F22(int(x) ^ int(y) ^ int(z))


def pair_sums(y1: F22, y2: F22, z1: F22, z2: F22) -> tuple[F22, F22, F22, F22]:
    """The multiset ``{y_i + z_j}`` over all four index pairs, sorted.

    Requires ``y1 != y2`` both nonzero and ``z1 != z2``.  When exactly one
    of ``y1, y2`` lies in ``{z1, z2}`` the result is the whole group; when
    ``{z1, z2}`` equals ``{y1, y2}`` or its complement the result collapses
    to two values, each twice.
    """
    if y1 == y2:
        raise ValueError("y1 and y2 must be distinct")
    if y1 == F22.E or y2 == F22.E:
        raise ValueError("y1 and y2 must be nonzero")
    if z1 == z2:
        raise ValueError("z1 and z2 must be distinct")
    sums = [F22(int(y) ^ int(z)) for y in (y1, y2) for z in (z1, z2)]
    sums.sort()
    return tuple(sums)
