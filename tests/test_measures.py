import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodistill.measures import (
    LambdaWitness,
    SearchBudgetExhausted,
    SearchOptions,
    distillability_witness,
    estimate_lambda_max,
    lambda_advantage,
    secret_bit_fraction,
)
from nodistill.probvec import Axis, JointDist, LocalMap, apply_local, tensor

from conftest import normalized, rand_dist, trivial_eve
from oracles import secret_bit_fraction_by_decomposition


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
    from nodistill.probvec import secret_bit

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
        assert secret_bit_fraction(p.scale(c)) == secret_bit_fraction(p)


# -- the decomposition oracle ----------------------------------------------------


def test_decomposition_on_private_bit(secret_bit_e):
    assert secret_bit_fraction_by_decomposition(secret_bit_e) == 1


def test_decomposition_on_eve_knows_all(eve_knows_all):
    assert secret_bit_fraction_by_decomposition(eve_knows_all) == 0


def test_decomposition_requires_normalization():
    rng = random.Random(2)
    p = rand_dist(rng, (2, 2, 2)).scale(3)
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
    import itertools

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


# -- the advantage --------------------------------------------------------------


def test_advantage_examples(secret_bit_e, uniform_bits):
    assert lambda_advantage(secret_bit_e, F(1, 2)) == F(1, 2)
    assert lambda_advantage(uniform_bits, F(1, 2)) == 0
    zero = JointDist((Axis("A", 2), Axis("B", 2), Axis("E", 1)), {})
    assert lambda_advantage(zero, F(1, 2)) == 0


@given(tripartite(), st.fractions(min_value=F(1, 2), max_value=F(9, 10), max_denominator=10))
@settings(max_examples=60, deadline=None)
def test_advantage_sign_bridge(p, lam0):
    if p.total_mass() == 0:
        return
    adv = lambda_advantage(p, lam0)
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


def test_estimate_budget_zero_is_explicit():
    p = product_dist(random.Random(5))
    with pytest.raises(SearchBudgetExhausted):
        estimate_lambda_max(p, SearchOptions(max_pairs=0))


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
        w1 = estimate_lambda_max(p, SearchOptions(refine_rounds=2))
        assert w1.value >= w0.value
        assert w1.recheck(p) == w1.value


def test_refinement_keeps_perfect_value(secret_bit_e):
    w = estimate_lambda_max(secret_bit_e, SearchOptions(refine_rounds=1))
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
    w = estimate_lambda_max(p, SearchOptions(refine_rounds=refine_rounds))
    assert w.value == value
    blob = json.dumps(w.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# -- tensor-power witness search ---------------------------------------------------


def test_distillability_secret_bit_immediate(secret_bit_e):
    w = distillability_witness(secret_bit_e, max_n=1)
    assert w is not None and w.value == 1


def test_two_axis_inputs_treat_adversary_as_trivial():
    from nodistill.probvec import secret_bit

    assert secret_bit_fraction(secret_bit()) == 1
    w = distillability_witness(secret_bit(), max_n=1)
    assert w is not None and w.value == 1


def test_distillability_eve_knows_all_none(eve_knows_all):
    assert distillability_witness(eve_knows_all, max_n=2) is None


def test_distillability_uniform_bits_none(uniform_bits):
    assert distillability_witness(uniform_bits, max_n=2) is None


def test_distillability_budget_signal(eve_knows_all):
    with pytest.raises(SearchBudgetExhausted):
        distillability_witness(eve_knows_all, max_n=2, opts=SearchOptions(max_pairs=5))


# -- witness serialization ----------------------------------------------------------


def test_witness_json_roundtrip(secret_bit_e):
    w = estimate_lambda_max(secret_bit_e)
    data = w.to_json_dict()
    back = LambdaWitness.from_json_dict(data)
    assert back.value == w.value
    assert back.map_a.coeffs == w.map_a.coeffs
    assert back.map_b.coeffs == w.map_b.coeffs


def test_witness_json_number_value_is_refused(secret_bit_e):
    data = estimate_lambda_max(secret_bit_e).to_json_dict()
    data["value"] = 1
    with pytest.raises(ValueError, match="rational must be a string, got int"):
        LambdaWitness.from_json_dict(data)
