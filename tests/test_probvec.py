import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodistill.probvec import Axis, JointDist, LocalMap, apply_local, tensor_power

from conftest import rand_dist
from oracles import (
    identity_map,
    marginal,
    merge_axes,
    permute,
    relabel,
    scale,
    secret_bit,
    split_axis,
    tensor,
    tensor_power_by_composition,
    value,
)


def unit_scalar(label="S"):
    return JointDist((Axis(label, 1),), {(0,): F(1)})


def uniform_bit(label):
    return JointDist((Axis(label, 2),), {(0,): F(1, 2), (1,): F(1, 2)})


# -- tensor -------------------------------------------------------------------


def test_tensor_with_unit_scalar_adds_size1_axis():
    q = rand_dist(random.Random(0), (2, 3), labels=("A", "B"))
    out = tensor(unit_scalar(), q)
    assert out.axes[0] == Axis("S", 1)
    assert {idx[1:]: v for idx, v in out.items()} == dict(q.items())


def test_tensor_uniform_bits():
    out = tensor(uniform_bit("A"), uniform_bit("B"))
    assert dict(out.items()) == {(a, b): F(1, 4) for a in range(2) for b in range(2)}


def test_tensor_secret_bit_with_itself():
    s2 = tensor(secret_bit(), relabel(secret_bit(), {"A": "A2", "B": "B2"}))
    expected = {
        (0, 0, 0, 0): F(1, 4),
        (0, 0, 1, 1): F(1, 4),
        (1, 1, 0, 0): F(1, 4),
        (1, 1, 1, 1): F(1, 4),
    }
    assert dict(s2.items()) == expected


def test_tensor_label_collision_names_axis():
    with pytest.raises(ValueError, match="A"):
        tensor(secret_bit(), secret_bit())


def test_tensor_mass_multiplicative():
    rng = random.Random(1)
    p = rand_dist(rng, (2, 2), labels=("A", "B"))
    q = rand_dist(rng, (3,), labels=("E",))
    assert tensor(p, q).total_mass() == p.total_mass() * q.total_mass()


# -- apply_local --------------------------------------------------------------


def test_apply_identity_is_noop():
    p = rand_dist(random.Random(2), (2, 3), labels=("A", "B"))
    out = apply_local(identity_map(p.axes[0]), p, "A")
    assert out == p


def test_apply_zero_map_gives_zero_mass():
    p = rand_dist(random.Random(3), (2, 2), labels=("A", "B"))
    zero = LocalMap(Axis("A", 2), Axis("A", 2), [[0, 0], [0, 0]])
    out = apply_local(zero, p, "A")
    assert out.total_mass() == 0
    assert out.nnz() == 0


def test_bit_flip_on_secret_bit_anticorrelates():
    flip = LocalMap(Axis("A", 2), Axis("A", 2), [[0, 1], [1, 0]])
    out = apply_local(flip, secret_bit(), "A")
    assert dict(out.items()) == {(1, 0): F(1, 2), (0, 1): F(1, 2)}


def test_apply_size_mismatch_rejected():
    m = LocalMap(Axis("A", 3), Axis("A", 2), [[1, 0, 0], [0, 1, 1]])
    with pytest.raises(ValueError, match="size"):
        apply_local(m, secret_bit(), "A")


def test_apply_commutes_across_distinct_axes():
    rng = random.Random(4)
    p = rand_dist(rng, (2, 3, 2))
    ma = LocalMap(Axis("A", 2), Axis("A", 2), [[F(1, 2), 0], [1, F(1, 3)]])
    nb = LocalMap(Axis("B", 3), Axis("B", 2), [[1, 0, F(2, 5)], [0, F(1, 7), 1]])
    ab = apply_local(nb, apply_local(ma, p, "A"), "B")
    ba = apply_local(ma, apply_local(nb, p, "B"), "A")
    assert permute(ab, ba.labels) == ba


def test_column_stochastic_preserves_mass():
    rng = random.Random(5)
    p = rand_dist(rng, (3, 2), labels=("A", "B"))
    m = LocalMap(Axis("A", 3), Axis("A", 2), [[F(1, 3), F(2, 5), 1], [F(2, 3), F(3, 5), 0]])
    assert apply_local(m, p, "A").total_mass() == p.total_mass()


# -- mass and marginals --------------------------------------------------------


def test_total_mass_examples():
    assert secret_bit().total_mass() == 1
    zero = JointDist((Axis("A", 2),), {})
    assert zero.total_mass() == 0
    assert scale(secret_bit(), 3).total_mass() == 3


def test_marginal_keep_all_is_identity():
    p = rand_dist(random.Random(6), (2, 2, 2))
    assert marginal(p, ["A", "B", "E"]) == p


def test_marginal_keep_none_is_scalar_mass():
    p = rand_dist(random.Random(7), (2, 2), labels=("A", "B"))
    out = marginal(p, [])
    assert out.axes == ()
    assert value(out, ()) == p.total_mass()


def test_marginal_unknown_label():
    with pytest.raises(ValueError, match="no axis labeled 'Z'"):
        marginal(secret_bit(), ["Z"])


def test_secret_bit_marginal_is_uniform():
    out = marginal(secret_bit(), ["A"])
    assert dict(out.items()) == {(0,): F(1, 2), (1,): F(1, 2)}


def test_secret_bit_entries():
    s = secret_bit()
    assert value(s, (0, 0)) == F(1, 2)
    assert value(s, (1, 1)) == F(1, 2)
    assert value(s, (0, 1)) == 0
    assert value(s, (1, 0)) == 0
    assert s.total_mass() == 1


# -- invariants ----------------------------------------------------------------


def test_negative_entry_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        JointDist((Axis("A", 2),), {(0,): F(-1, 3)})


def test_zero_mass_is_legal():
    z = JointDist((Axis("A", 2), Axis("B", 2)), {})
    assert z.total_mass() == 0


small_fraction = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def dists(draw, labels=("A", "B")):
    sizes = [draw(st.integers(1, 3)) for _ in labels]
    axes = tuple(Axis(l, s) for l, s in zip(labels, sizes))
    entries = {}
    import itertools

    for idx in itertools.product(*(range(s) for s in sizes)):
        if draw(st.booleans()):
            entries[idx] = draw(small_fraction)
    return JointDist(axes, entries)


@given(dists(labels=("A",)), dists(labels=("B",)))
@settings(max_examples=60, deadline=None)
def test_tensor_mass_multiplicative_property(p, q):
    assert tensor(p, q).total_mass() == p.total_mass() * q.total_mass()


@given(dists(labels=("A", "B", "C")))
@settings(max_examples=60, deadline=None)
def test_marginal_preserves_mass(p):
    assert marginal(p, ["A", "C"]).total_mass() == p.total_mass()


@given(dists(labels=("A", "B")))
@settings(max_examples=40, deadline=None)
def test_merge_then_split_roundtrip(p):
    merged = merge_axes(p, ["A", "B"], "AB")
    back = split_axis(merged, "AB", [p.axis("A").size, p.axis("B").size], ["A", "B"])
    assert back == p


def test_tensor_associative_up_to_order():
    rng = random.Random(8)
    p = rand_dist(rng, (2,), labels=("A",))
    q = rand_dist(rng, (2,), labels=("B",))
    r = rand_dist(rng, (2,), labels=("C",))
    left = tensor(tensor(p, q), r)
    right = tensor(p, tensor(q, r))
    assert left == permute(right, left.labels)


def test_tensor_power_merges_party_axes():
    p = rand_dist(random.Random(9), (2, 2, 2))
    p2 = tensor_power(p, 2)
    assert [ax.size for ax in p2.axes] == [4, 4, 4]
    assert p2.labels == ("A", "B", "E")
    # spot value: entry ((a1,a2),(b1,b2),(e1,e2)) = p(a1,b1,e1) p(a2,b2,e2)
    v = value(p2, (0 * 2 + 1, 1 * 2 + 0, 0 * 2 + 1))
    assert v == value(p, (0, 1, 0)) * value(p, (1, 0, 1))


def tensor_power_input(name):
    """Two to four axes, sizes 1 to 3, a factored axis, an empty distribution
    and one with no axes."""
    rng = random.Random(11)
    if name == "2-axis":
        return rand_dist(rng, (2, 3), labels=("A", "B"))
    if name == "3-axis":
        return rand_dist(rng, (2, 2, 3))
    if name == "4-axis-size-1":
        return rand_dist(rng, (3, 1, 2, 2), labels=("A", "B", "E", "F"))
    if name == "factored":
        return JointDist(
            (Axis("A", 4, (2, 2)), Axis("B", 2), Axis("E", 3)),
            {(3, 0, 2): F(1, 3), (1, 1, 0): F(1, 6), (0, 1, 1): F(1, 2)},
        )
    if name == "empty":
        return JointDist((Axis("A", 2), Axis("B", 3), Axis("E", 2)), {})
    if name == "no-axes":
        return JointDist((), {(): F(2, 3)})
    raise ValueError(name)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["2-axis", "3-axis", "4-axis-size-1", "factored", "empty", "no-axes"])
def test_tensor_power_matches_the_composition_oracle(name, n):
    p = tensor_power_input(name)
    got, want = tensor_power(p, n), tensor_power_by_composition(p, n)
    assert got == want
    assert got.dumps() == want.dumps()


@given(dists(labels=("A", "B")), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_tensor_power_matches_the_composition_oracle_property(p, n):
    assert tensor_power(p, n).dumps() == tensor_power_by_composition(p, n).dumps()


def test_tensor_power_needs_a_positive_power():
    with pytest.raises(ValueError, match="^tensor power needs n >= 1$"):
        tensor_power(secret_bit(), 0)


# -- JSON ----------------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    p = rand_dist(random.Random(10), (2, 2, 3), denom_max=19)
    text = p.dumps()
    q = JointDist.loads(text)
    assert q == p
    assert q.dumps() == text


def test_json_duplicate_index_rejected():
    text = (
        '{"axes": [{"party": "A", "size": 2}], '
        '"entries": [{"index": [0], "p": "1/2"}, {"index": [0], "p": "1/3"}]}'
    )
    with pytest.raises(ValueError, match="duplicate"):
        JointDist.loads(text)


def test_repeated_index_rejected_whatever_the_values():
    axes = [Axis("A", 2)]
    for entries in ([((0,), F(1, 2)), ((0,), F(0))], [((0,), F(0)), ((0,), F(1, 2))]):
        with pytest.raises(ValueError, match="duplicate index"):
            JointDist(axes, entries)


def test_json_omitted_indices_are_zero():
    text = '{"axes": [{"party": "A", "size": 3}], "entries": [{"index": [1], "p": "2/3"}]}'
    p = JointDist.loads(text)
    assert value(p, (0,)) == 0 and value(p, (1,)) == F(2, 3) and value(p, (2,)) == 0


def test_json_factors_annotation_roundtrip():
    p = JointDist((Axis("A", 4, (2, 2)),), {(3,): F(1)})
    q = JointDist.loads(p.dumps())
    assert q.axes[0].factors == (2, 2)
