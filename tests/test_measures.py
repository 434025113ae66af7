import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodistill.certifier import SizeGuardError
from nodistill.measures import (
    _refit_side,
    _stage1_pairs,
    estimate_lambda_max,
    secret_bit_fraction,
)
from nodistill.probvec import Axis, JointDist, LocalMap, apply_local, tensor_power

from conftest import normalized, rand_dist, trivial_eve
from oracles import (
    advantage,
    refit_side_by_branches,
    scale,
    secret_bit,
    secret_bit_fraction_by_decomposition,
    stage1_pairs,
    tensor,
    witness_from_json_dict,
)


def product_dist(rng, size_a=2, size_b=2, size_e=2):
    pa = rand_dist(rng, (size_a,), labels=("A",))
    pb = rand_dist(rng, (size_b,), labels=("B",))
    pe = rand_dist(rng, (size_e,), labels=("E",))
    return tensor(tensor(pa, pb), pe)


# -- the fraction ---------------------------------------------------------------


def test_fraction_of_private_bit_is_one(secret_bit_e):
    assert secret_bit_fraction(secret_bit_e) == 1
    rng = random.Random(0)
    pe = normalized(rand_dist(rng, (3,), labels=("E",)))
    assert secret_bit_fraction(tensor(secret_bit(), pe)) == 1


def test_fraction_of_uniform_independent_bits(uniform_bits):
    assert secret_bit_fraction(uniform_bits) == F(1, 2)


def test_fraction_of_eve_knows_all_is_zero(eve_knows_all):
    assert secret_bit_fraction(eve_knows_all) == 0


def test_fraction_zero_mass_rejected():
    z = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)), {})
    with pytest.raises(ValueError, match="undefined"):
        secret_bit_fraction(z)


def test_fraction_requires_binary_honest_alphabets():
    p = JointDist((Axis("A", 3), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    with pytest.raises(ValueError, match="binary"):
        secret_bit_fraction(p)


def test_fraction_scale_invariant():
    rng = random.Random(1)
    p = rand_dist(rng, (2, 2, 3))
    for c in (F(1, 3), F(7, 2), 5):
        assert secret_bit_fraction(scale(p, c)) == secret_bit_fraction(p)


# -- the decomposition oracle ----------------------------------------------------


def test_decomposition_on_private_bit(secret_bit_e):
    assert secret_bit_fraction_by_decomposition(secret_bit_e) == 1


def test_decomposition_on_eve_knows_all(eve_knows_all):
    assert secret_bit_fraction_by_decomposition(eve_knows_all) == 0


def test_decomposition_requires_normalization():
    rng = random.Random(2)
    p = scale(rand_dist(rng, (2, 2, 2)), 3)
    with pytest.raises(ValueError, match="mass"):
        secret_bit_fraction_by_decomposition(p)


def test_oracle_equivalence_seeded():
    rng = random.Random(3)
    for _ in range(40):
        p = normalized(rand_dist(rng, (2, 2, rng.randint(1, 4)), denom_max=20))
        assert secret_bit_fraction(p) == secret_bit_fraction_by_decomposition(p)


small_fraction = st.fractions(min_value=0, max_value=2, max_denominator=16)


@st.composite
def tripartite(draw):
    size_e = draw(st.integers(1, 3))
    entries = {}
    for idx in itertools.product(range(2), range(2), range(size_e)):
        if draw(st.booleans()):
            entries[idx] = draw(small_fraction)
    axes = (Axis("A", 2), Axis("B", 2), Axis("E", size_e))
    return JointDist(axes, entries)


@given(tripartite())
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_property(p):
    if p.total_mass() == 0:
        return
    q = normalized(p)
    assert secret_bit_fraction(q) == secret_bit_fraction_by_decomposition(q)


# -- the advantage oracle ---------------------------------------------------------


def test_advantage_examples(secret_bit_e, uniform_bits):
    assert advantage(secret_bit_e, F(1, 2)) == F(1, 2)
    assert advantage(scale(secret_bit_e, 3), F(1, 2)) == F(3, 2)
    assert advantage(uniform_bits, F(1, 2)) == 0
    zero = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)), {})
    assert advantage(zero, F(1, 2)) == 0


@given(tripartite(), st.fractions(min_value=F(1, 2), max_value=F(9, 10), max_denominator=10))
@settings(max_examples=60, deadline=None)
def test_advantage_sign_bridge(p, lam0):
    if p.total_mass() == 0:
        return
    adv = advantage(p, lam0)
    frac = secret_bit_fraction(p)
    assert (adv > 0) == (frac > lam0)
    assert (adv == 0) == (frac == lam0)


# -- witnessed lower bounds -------------------------------------------------------


def test_estimate_on_private_bit_is_one(secret_bit_e):
    w = estimate_lambda_max(secret_bit_e)
    assert w.value == 1
    assert w.recheck(secret_bit_e) == 1
    # identity actions on both sides (coefficients 0/1, no discards)
    assert w.map_a.coeffs == ((F(1), F(0)), (F(0), F(1)))


def test_estimate_on_products_is_half():
    rng = random.Random(4)
    for _ in range(10):
        p = product_dist(rng, rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 3))
        w = estimate_lambda_max(p)
        assert w.value == F(1, 2)
        assert w.recheck(p) == F(1, 2)


def test_estimate_on_eve_knows_all_is_half(eve_knows_all):
    w = estimate_lambda_max(eve_knows_all)
    assert w.value == F(1, 2)
    assert w.recheck(eve_knows_all) == F(1, 2)


def test_estimate_zero_mass_rejected():
    z = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)), {})
    with pytest.raises(ValueError, match="mass"):
        estimate_lambda_max(z)


def test_witness_recheck_on_random_inputs():
    rng = random.Random(6)
    for _ in range(10):
        p = rand_dist(rng, (rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 3)))
        w = estimate_lambda_max(p)
        assert w.recheck(p) == w.value
        assert F(1, 2) <= w.value <= 1


def test_explicit_pair_never_beats_estimate():
    rng = random.Random(7)
    p = rand_dist(rng, (3, 2, 2))
    best = estimate_lambda_max(p)
    # any deterministic filter pair from the searched class
    for code_a in [(0, 1, 0), (1, 0, 2), (0, 0, 1)]:
        for code_b in [(0, 1), (1, 2)]:
            ma = LocalMap(
                Axis("A", 3),
                Axis("A", 2),
                [[F(int(code_a[x] == a)) for x in range(3)] for a in range(2)],
            )
            nb = LocalMap(
                Axis("B", 2),
                Axis("B", 2),
                [[F(int(code_b[y] == b)) for y in range(2)] for b in range(2)],
            )
            filtered = apply_local(ma, apply_local(nb, p, "B"), "A")
            if filtered.total_mass() == 0:
                continue
            assert secret_bit_fraction(filtered) <= best.value


def test_composed_maps_never_raise_the_estimate():
    rng = random.Random(8)
    p = rand_dist(rng, (3, 3, 2))
    base = estimate_lambda_max(p).value
    # deterministic processing applied up front stays inside the searched class
    code_a, code_b = (0, 1, 1), (1, 0, 2)
    ma = LocalMap(
        Axis("A", 3), Axis("A", 2), [[F(int(code_a[x] == a)) for x in range(3)] for a in range(2)]
    )
    nb = LocalMap(
        Axis("B", 3), Axis("B", 2), [[F(int(code_b[y] == b)) for y in range(3)] for b in range(2)]
    )
    filtered = apply_local(ma, apply_local(nb, p, "B"), "A")
    if filtered.total_mass() > 0:
        assert estimate_lambda_max(filtered).value <= base


def test_refinement_never_loses_and_rechecks():
    rng = random.Random(9)
    for _ in range(5):
        p = rand_dist(rng, (2, 2, 2))
        w0 = estimate_lambda_max(p)
        w1 = estimate_lambda_max(p, 2)
        assert w1.value >= w0.value
        assert w1.recheck(p) == w1.value


def test_refinement_keeps_perfect_value(secret_bit_e):
    w = estimate_lambda_max(secret_bit_e, 1)
    assert w.value == 1


RAND_TIE = "689ccfa3e9e055a36b5771bdb804a6bf4ae48c9d561fbba020a291590f86c4ed"
COIN_WINS = "b3fe911ccab6449c74393ed733ac8729add23a807f5362f3272b70a992a06c2b"


@pytest.mark.parametrize(
    "name, refine_rounds, value, digest",
    [
        # six map pairs tie at 70/127; the first in canonical order must win
        ("rand-3x3x2", 0, F(70, 127), RAND_TIE),
        ("rand-3x3x2", 1, F(70, 127), RAND_TIE),
        ("eve_knows_all", 0, F(1, 2), COIN_WINS),
        ("eve_knows_all", 1, F(1, 2), COIN_WINS),
        ("uniform_bits", 0, F(1, 2), "4b01e9d9dfbb3eb6d5a0c601552d474a67cdca2735836ac744540c35265c03c2"),
    ],
)
def test_stage1_witness_pinned(request, name, refine_rounds, value, digest):
    """Which map pair wins a tie is part of the output: pin the witness bytes."""
    if name == "rand-3x3x2":
        p = rand_dist(random.Random(183), (3, 3, 2))
    else:
        p = request.getfixturevalue(name)
    w = estimate_lambda_max(p, refine_rounds)
    assert w.value == value
    blob = json.dumps(w.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


REFIT_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 3, 2), (2, 3, 3), (3, 2, 4))


def refit_sample():
    """105 seeded distributions with up to 5 Eve symbols; refinement gains on 46."""
    return [rand_dist(random.Random(i), REFIT_SHAPES[i % len(REFIT_SHAPES)]) for i in range(105)]


def test_refit_matches_the_branch_oracle():
    """One LP per refit reaches the best of the 2^|E| branch LPs, on both sides."""
    for p in refit_sample():
        w = estimate_lambda_max(p)
        for side in ("A", "B"):
            by_branches = refit_side_by_branches(p, w, side)
            assert _refit_side(p, w, side).value == (by_branches or w).value


def test_refined_witnesses_pinned():
    """The witness bytes of refine_rounds 1, 2 and 3 over the sample, as the
    branch refit gave them."""
    h = hashlib.sha256()
    for p in refit_sample():
        for rounds in (1, 2, 3):
            w = estimate_lambda_max(p, rounds)
            h.update(json.dumps(w.to_json_dict(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "4ab306420eebf59639a0714a88e40f97c1cd84580970a272dea1f098d32c2fc0"


def stage1_input(name):
    if name == "rand-3x3x2":
        return rand_dist(random.Random(183), (3, 3, 2))
    if name == "4x4x2-zeros":
        return rand_dist(random.Random(44), (4, 4, 2), denom_max=5)
    if name == "no-eve":
        # A symbol 2 carries no mass, so every pair keeping only it is skipped
        return JointDist(
            (Axis("A", 3), Axis("B", 2)),
            {(0, 0): F(1, 3), (0, 1): F(1, 6), (1, 1): F(1, 4), (1, 0): F(1, 4)},
        )
    if name == "pow2-two-eve-axes":
        # half the entries are zero, which keeps the reference kernel quick
        p = JointDist(
            (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
            {(0, 0, 0): F(1, 3), (1, 1, 0): F(1, 6), (0, 1, 1): F(1, 4), (1, 1, 1): F(1, 4)},
        )
        return tensor_power(p, 2)
    if name == "a2-b3":
        return rand_dist(random.Random(13), (2, 3, 3))
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["rand-3x3x2", "4x4x2-zeros", "no-eve", "pow2-two-eve-axes", "a2-b3"]
)
def test_stage1_pairs_match_the_fraction_kernel(name):
    """The integer, A-factored search yields the reference kernel's pairs and values."""
    p = stage1_input(name)
    got = [(F(num, den), code_a, code_b) for num, den, code_a, code_b in _stage1_pairs(p)]
    assert got == list(stage1_pairs(p))
    if name == "no-eve":
        # 27 A codes x 9 B codes, less the A codes (2, 2, 0) and (2, 2, 1)
        assert len(got) == 27 * 9 - 2 * 9


@st.composite
def stage1_shapes(draw):
    """A distribution with |A| + |B| <= 5, zero to two Eve axes, its axes in any
    order, and sometimes one A or B symbol of no mass."""
    n_a = draw(st.integers(1, 4))
    n_b = draw(st.integers(1, 5 - n_a))
    n_eve = draw(st.integers(0, 2))
    axes = [Axis("A", n_a), Axis("B", n_b), *(Axis(l, draw(st.integers(1, 3))) for l in "EF"[:n_eve])]
    axes = draw(st.permutations(axes))
    pos = {ax.party: i for i, ax in enumerate(axes)}
    empty = draw(st.none() | st.sampled_from([(l, x) for l, n in (("A", n_a), ("B", n_b)) for x in range(n)]))
    cells = list(itertools.product(*(range(ax.size) for ax in axes)))
    values = draw(st.lists(small_fraction, min_size=len(cells), max_size=len(cells)))
    entries = {idx: v for idx, v in zip(cells, values) if empty is None or idx[pos[empty[0]]] != empty[1]}
    return JointDist(tuple(axes), entries)


@given(stage1_shapes())
@settings(max_examples=80, deadline=None)
def test_stage1_pairs_match_the_fraction_kernel_on_random_shapes(p):
    """The subset-table search yields the reference kernel's pairs and values,
    with |A| != |B|, an alphabet of one symbol, no Eve axis or two, and empty symbols."""
    got = [(F(num, den), code_a, code_b) for num, den, code_a, code_b in _stage1_pairs(p)]
    assert got == list(stage1_pairs(p))


# -- the stage-1 search on tensor powers ---------------------------------------------


def test_distillability_secret_bit_immediate(secret_bit_e):
    assert estimate_lambda_max(tensor_power(secret_bit_e, 1)).value == 1


def test_two_axis_inputs_treat_adversary_as_trivial():
    assert secret_bit_fraction(secret_bit()) == 1
    assert estimate_lambda_max(tensor_power(secret_bit(), 1)).value == 1


def test_distillability_eve_knows_all_none(eve_knows_all):
    # no pair of either power beats the coin's 1/2
    for n in (1, 2):
        assert estimate_lambda_max(tensor_power(eve_knows_all, n)).value == F(1, 2)


def test_distillability_uniform_bits_none(uniform_bits):
    for n in (1, 2):
        assert estimate_lambda_max(tensor_power(uniform_bits, n)).value == F(1, 2)


def test_distillability_ends_at_the_search_bound(eve_knows_all):
    # power 3 has 8 + 8 symbols, past MAX_AB
    with pytest.raises(SizeGuardError) as exc:
        estimate_lambda_max(tensor_power(eve_knows_all, 3))
    assert str(exc.value) == (
        "|A| + |B| = 8 + 8 = 16 exceeds the bound 12: the search would range over 3^16 map pairs"
    )


# -- witness serialization ----------------------------------------------------------


def test_witness_json_roundtrip(secret_bit_e):
    w = estimate_lambda_max(secret_bit_e)
    data = w.to_json_dict()
    back = witness_from_json_dict(data)
    assert back.value == w.value
    assert back.map_a.coeffs == w.map_a.coeffs
    assert back.map_b.coeffs == w.map_b.coeffs


def test_witness_json_number_value_is_refused(secret_bit_e):
    data = estimate_lambda_max(secret_bit_e).to_json_dict()
    data["value"] = 1
    with pytest.raises(ValueError, match="rational must be a string, got int"):
        witness_from_json_dict(data)
