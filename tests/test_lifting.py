import random
from fractions import Fraction as F

import pytest

from nodistill.probvec import Axis, JointDist, LocalMap, tensor_power

from conftest import rand_dist
from oracles import (
    add,
    compose,
    curry,
    identity_map,
    lift,
    map_tensor,
    marginal,
    merge_axes,
    permute,
    relabel,
    scale,
    split_axis,
    universal_map,
    value,
)


def rand_map(rng, n_out, n_in, party="A", denom_max=7):
    rows = [
        [F(rng.randint(0, denom_max), rng.randint(1, denom_max)) for _ in range(n_in)]
        for _ in range(n_out)
    ]
    return LocalMap(Axis(party, n_in), Axis(party, n_out), rows)


# -- universal map -------------------------------------------------------------


def test_universal_map_trivial_sizes():
    u = universal_map(1, 1)
    assert u.coeffs == ((F(1),),)


def test_universal_map_out2_copy1_is_identity():
    u = universal_map(2, 1)
    assert u.coeffs == ((F(1), F(0)), (F(0), F(1)))


def test_universal_map_out2_copy2_unit_entries():
    u = universal_map(2, 2)
    ones = {(r, c) for r in range(2) for c in range(8) if u.coeffs[r][c] == 1}
    # input triples (x3, x2, y2) with y3 = x3, x2 = y2
    assert ones == {(0, 0), (0, 3), (1, 4), (1, 7)}
    total = sum(sum(row) for row in u.coeffs)
    assert total == 4


# -- curry ---------------------------------------------------------------------


def test_curry_single_symbol_identity():
    m = LocalMap(Axis("A", 1), Axis("A", 1), [[F(1)]])
    assert curry(m, (1, 1)).coeffs == ((F(1),),)


def test_curry_trivial_second_factor_keeps_matrix():
    m = rand_map(random.Random(0), 2, 3)
    c = curry(m, (3, 1))
    assert c.coeffs == m.coeffs


def test_curry_size_mismatch():
    m = rand_map(random.Random(1), 2, 6)
    with pytest.raises(ValueError, match="factor"):
        curry(m, (4, 2))


def reconstruct(m: LocalMap, split):
    """universal . (curry(m) (x) id) as an explicit matrix product."""
    size1, size2 = split
    curried = curry(m, split)
    u = universal_map(m.output_axis.size, size2)
    ident = identity_map(Axis("I", size2))
    return compose(u, map_tensor(curried, ident))


def test_reconstruction_matches_on_random_maps():
    rng = random.Random(2)
    for _ in range(25):
        size1, size2 = rng.randint(1, 4), rng.randint(1, 3)
        n_out = rng.randint(1, 3)
        m = rand_map(rng, n_out, size1 * size2)
        assert reconstruct(m, (size1, size2)).coeffs == m.coeffs


# -- lift ------------------------------------------------------------------------


def canonical_q(sa: int, sb: int) -> JointDist:
    axes = (Axis("A-bit", 2), Axis("A-copy", sa), Axis("B-bit", 2), Axis("B-copy", sb), Axis("E'", 1))
    entries = {(a, a, b, b, 0): F(1, 4) for a in range(2) for b in range(2)}
    return JointDist(axes, entries)


def test_lift_trivial_g_strips_copy_axes():
    g = JointDist((Axis("A", 1), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)})
    rng = random.Random(3)
    q = rand_dist(rng, (2, 1, 2, 1, 3), labels=("A-bit", "A-copy", "B-bit", "B-copy", "E'"))
    out = lift(q, g)
    assert [ax.size for ax in out.axes] == [2, 2, 3, 1]
    for (a, b, ep, _), v in out.items():
        assert v == value(q, (a, 0, b, 0, ep))


def test_lift_of_canonical_embedding_is_quarter_g():
    rng = random.Random(4)
    g = rand_dist(rng, (2, 2, 3))
    out = lift(canonical_q(2, 2), g)
    flat = marginal(out, ["A", "B", "E"])
    assert flat == permute(scale(g, F(1, 4)), flat.labels)


def test_lift_rejects_copy_size_mismatch():
    g = rand_dist(random.Random(5), (3, 2, 2))
    with pytest.raises(ValueError, match="copy"):
        lift(canonical_q(2, 2), g)


def test_lift_bilinear():
    rng = random.Random(6)
    labels = ("A-bit", "A-copy", "B-bit", "B-copy", "E'")
    q1 = rand_dist(rng, (2, 2, 2, 2, 2), labels=labels)
    q2 = rand_dist(rng, (2, 2, 2, 2, 2), labels=labels)
    g = rand_dist(rng, (2, 2, 2))
    left = lift(add(q1, q2), g)
    assert left == add(lift(q1, g), lift(q2, g))
    c = F(3, 7)
    assert lift(q1, scale(g, c)) == scale(lift(q1, g), c)


def test_lift_mass_contraction():
    rng = random.Random(7)
    labels = ("A-bit", "A-copy", "B-bit", "B-copy", "E'")
    g = rand_dist(rng, (2, 2, 2))
    q = rand_dist(rng, (2, 2, 2, 2, 2), labels=labels)
    assert lift(q, g).total_mass() <= q.total_mass() * g.total_mass()
    # equality when g has full support on (x, y) cells
    g_full = JointDist(
        g.axes, {(x, y, e): F(1, 8) for x in range(2) for y in range(2) for e in range(2)}
    )
    got = lift(q, g_full).total_mass()
    want = sum(
        (v * value(marginal(g_full, ["A", "B"]), (x, y)) for (a, x, b, y, e), v in q.items()),
        F(0),
    )
    assert got == want


# -- the n = 2 factoring identity ------------------------------------------------


def lifted_equals_global_filtering(g: JointDist, rng: random.Random) -> bool:
    """Check U_A U_B (curried maps applied to g) (x) g == (M_A N_B) g^(x)2."""
    g2 = tensor_power(g, 2)
    sa, sb = g.axis("A").size, g.axis("B").size
    ma = rand_map(rng, 2, sa * sa, party="A")
    nb = rand_map(rng, 2, sb * sb, party="B")

    from nodistill.probvec import apply_local

    direct = apply_local(nb, apply_local(ma, g2, "A"), "B")

    ca = curry(ma, (sa, sa))
    cb = curry(nb, (sb, sb))
    q = apply_local(cb, apply_local(ca, g, "A"), "B")
    q = split_axis(q, ca.output_axis.party, [2, sa], ["A-bit", "A-copy"])
    q = split_axis(q, cb.output_axis.party, [2, sb], ["B-bit", "B-copy"])
    q = permute(q, ["A-bit", "A-copy", "B-bit", "B-copy", "E"])
    lifted = lift(q, relabel(g, {"E": "E2"}))
    lifted = permute(merge_axes(lifted, ["E", "E2"], "E"), ["A", "B", "E"])
    return lifted == direct


def test_factoring_identity_binary_g():
    rng = random.Random(8)
    for _ in range(8):
        g = rand_dist(rng, (2, 2, 2))
        assert lifted_equals_global_filtering(g, rng)
