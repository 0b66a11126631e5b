from itertools import permutations, product

import pytest

from doublesign import ELEMENTS, F22, add, fourth_element, pair_sums
from doublesign.group import NONZERO


def test_identity_and_self_inverse():
    assert add(F22.E, F22.C) == F22.C
    assert add(F22.B, F22.B) == F22.E
    for x in ELEMENTS:
        assert add(x, F22.E) == x
        assert add(x, x) == F22.E


def test_two_distinct_nonzero_sum_to_the_third():
    assert add(F22.A, F22.C) == F22.B
    assert add(F22.A, F22.B) == F22.C
    assert add(F22.B, F22.C) == F22.A


def test_add_is_commutative_and_associative():
    for x, y in product(ELEMENTS, repeat=2):
        assert add(x, y) == add(y, x)
    for x, y, z in product(ELEMENTS, repeat=3):
        assert add(add(x, y), z) == add(x, add(y, z))


def test_xor_operator_matches_add_and_stays_typed():
    for x, y in product(ELEMENTS, repeat=2):
        assert x ^ y == add(x, y)
        assert isinstance(x ^ y, F22)


@pytest.mark.parametrize("other", [4, -1])
def test_xor_rejects_results_outside_the_group(other):
    with pytest.raises(ValueError, match="not a valid F22"):
        F22.A ^ other
    with pytest.raises(ValueError, match="not a valid F22"):
        other ^ F22.A


def test_fourth_element_examples():
    assert fourth_element(F22.E, F22.A, F22.B) == F22.C
    assert fourth_element(F22.A, F22.B, F22.C) == F22.E
    assert fourth_element(F22.E, F22.B, F22.C) == F22.A


def test_fourth_element_always_outside_inputs():
    for x, y, z in permutations(ELEMENTS, 3):
        assert fourth_element(x, y, z) not in {x, y, z}


def test_fourth_element_rejects_repeats():
    with pytest.raises(ValueError):
        fourth_element(F22.A, F22.A, F22.B)


def test_pair_sums_examples():
    # one shared value: the four sums cover the group
    assert pair_sums(F22.A, F22.B, F22.A, F22.E) == tuple(ELEMENTS)
    # matched pairs collapse to two values twice each
    assert pair_sums(F22.A, F22.B, F22.A, F22.B) == (F22.E, F22.E, F22.C, F22.C)
    # complementary pairs do too
    assert pair_sums(F22.A, F22.B, F22.C, F22.E) == (F22.A, F22.A, F22.B, F22.B)


def test_pair_sums_preconditions():
    with pytest.raises(ValueError):
        pair_sums(F22.A, F22.A, F22.B, F22.C)
    with pytest.raises(ValueError):
        pair_sums(F22.E, F22.A, F22.B, F22.C)
    with pytest.raises(ValueError):
        pair_sums(F22.A, F22.B, F22.C, F22.C)


def test_pair_sums_cover_group_iff_exactly_one_shared():
    # exhaustive over every quadruple meeting the preconditions
    for y1, y2 in permutations(NONZERO, 2):
        for z1, z2 in permutations(ELEMENTS, 2):
            shared = len({y1, y2} & {z1, z2})
            covers = set(pair_sums(y1, y2, z1, z2)) == set(ELEMENTS)
            assert covers == (shared == 1)


@pytest.mark.parametrize(
    "token,expected",
    [("e", F22.E), ("a", F22.A), ("b", F22.B), ("c", F22.C),
     ("00", F22.E), ("01", F22.A), ("10", F22.B), ("11", F22.C),
     ("B", F22.B)],
)
def test_parse(token, expected):
    assert F22.parse(token) == expected


def test_parse_rejects_garbage():
    for bad in ("d", "", "0", "012", "eb"):
        with pytest.raises(ValueError):
            F22.parse(bad)


def test_render_round_trip():
    for x in ELEMENTS:
        assert F22.parse(x.render()) == x
