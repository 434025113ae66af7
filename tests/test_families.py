from fractions import Fraction as F

import pytest

from nodistill.families import (
    MapFamily,
    MapPair,
    deterministic_family,
    random_filter_family,
)
from nodistill.measures import secret_bit_fraction
from nodistill.probvec import Axis, JointDist, LocalMap, apply_local

from oracles import has_duplicates, merge_axes


def test_deterministic_count_copy_one():
    # a cap past the pair count gives the whole family: 3^2 - 1 = 8 non-vacuous codes per side
    fam = deterministic_family(1, 1, cap=100)
    assert len(fam) == 64
    assert not has_duplicates(fam)


def test_cap_zero_is_empty():
    assert len(deterministic_family(2, 2, cap=0)) == 0


def strip_pair(a_copy_size: int, b_copy_size: int) -> MapPair:
    """The pair that measures the bit factor and ignores the copy factor."""
    return deterministic_family(a_copy_size, b_copy_size, cap=1).pairs[0]


def test_strip_pair_is_first():
    # (bit, copy) symbols with bit outermost: bit 0 symbols map to 0, bit 1 to 1
    assert strip_pair(2, 3).map_b.coeffs == (
        (F(1), F(1), F(1), F(0), F(0), F(0)),
        (F(0), F(0), F(0), F(1), F(1), F(1)),
    )
    # and it is not repeated at its place in code order (the tenth pair)
    fam = deterministic_family(1, 1, cap=100)
    assert fam.pairs[0] not in fam.pairs[1:]


def test_strip_pair_matrices():
    pair = strip_pair(2, 2)
    # symbol (bit, copy) with bit outermost: bit 0 symbols map to 0, bit 1 to 1
    assert pair.map_a.coeffs == (
        (F(1), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(1)),
    )


def test_prefix_property():
    small = deterministic_family(1, 1, cap=5)
    big = deterministic_family(1, 1, cap=20)
    assert big.pairs[: len(small)] == small.pairs


def test_enumeration_is_stable():
    a = deterministic_family(2, 2, cap=12)
    b = deterministic_family(2, 2, cap=12)
    assert a.dumps() == b.dumps()


def test_family_json_roundtrip():
    fam = deterministic_family(1, 2, cap=7)
    back = MapFamily.loads(fam.dumps())
    assert back.pairs == fam.pairs
    assert back.generator == "deterministic"


def test_random_family_reproducible():
    a = random_filter_family(2, 2, m=3, seed=11, denom_bound=4)
    b = random_filter_family(2, 2, m=3, seed=11, denom_bound=4)
    assert a.dumps() == b.dumps()
    c = random_filter_family(2, 2, m=3, seed=12, denom_bound=4)
    assert c.dumps() != a.dumps()


def test_random_family_denom_bound_one_gives_01_coefficients():
    fam = random_filter_family(1, 1, m=4, seed=0, denom_bound=1)
    for pair in fam.pairs:
        for m in (pair.map_a, pair.map_b):
            for row in m.coeffs:
                assert all(c in (0, 1) for c in row)


def test_pair_requires_bit_outputs():
    bad = LocalMap(Axis("A", 2), Axis("A", 3), [[1, 0], [0, 1], [0, 0]])
    good = LocalMap(Axis("B", 2), Axis("B", 2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="bit"):
        MapPair(map_a=bad, map_b=good)


# -- strip filtering values ------------------------------------------------------


def correlated_q(sa: int, sb: int) -> JointDist:
    axes = (Axis("A-bit", 2), Axis("A-copy", sa), Axis("B-bit", 2), Axis("B-copy", sb), Axis("E'", 1))
    entries = {(a, a, b, b, 0): F(1, 4) for a in range(2) for b in range(2)}
    return JointDist(axes, entries)


def strip_filtered(q: JointDist, pair: MapPair) -> JointDist:
    merged = merge_axes(merge_axes(q, ["A-bit", "A-copy"], "A"), ["B-bit", "B-copy"], "B")
    return apply_local(pair.map_a, apply_local(pair.map_b, merged, "B"), "A")


def test_strip_on_secret_bit_parts_gives_one():
    # q whose bit parts are the perfectly correlated private bit
    axes = (Axis("A-bit", 2), Axis("A-copy", 2), Axis("B-bit", 2), Axis("B-copy", 2), Axis("E'", 1))
    entries = {(a, x, a, y, 0): F(1, 8) for a in range(2) for x in range(2) for y in range(2)}
    q = JointDist(axes, entries)
    filtered = strip_filtered(q, strip_pair(2, 2))
    assert secret_bit_fraction(filtered) == 1


def test_strip_on_product_bits_gives_half():
    q = correlated_q(2, 2)  # A side independent of B side
    filtered = strip_filtered(q, strip_pair(2, 2))
    assert secret_bit_fraction(filtered) == F(1, 2)


def test_strip_on_zero_distribution_has_no_witness():
    axes = (Axis("A-bit", 2), Axis("A-copy", 1), Axis("B-bit", 2), Axis("B-copy", 1), Axis("E'", 1))
    q = JointDist(axes, {})
    filtered = strip_filtered(q, strip_pair(1, 1))
    assert filtered.total_mass() == 0
    with pytest.raises(ValueError):
        secret_bit_fraction(filtered)
