import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from nodistill.probvec import Axis, JointDist

from oracles import scale, secret_bit, tensor

# Property tests draw the same examples on every run, so a failure seen once
# recurs; each test keeps its own max_examples.  For a wider search, draw
# fresh examples with `pytest --hypothesis-profile=random`.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")


def rand_dist(rng: random.Random, sizes, labels=("A", "B", "E"), denom_max=9, allow_zero=False):
    """Random non-negative rational tensor with small denominators."""
    axes = tuple(Axis(l, s) for l, s in zip(labels, sizes))
    entries = {}
    for idx in itertools.product(*(range(s) for s in sizes)):
        den = rng.randint(1, denom_max)
        num = rng.randint(0, den)
        if num:
            entries[idx] = Fraction(num, den)
    if not entries and not allow_zero:
        entries[tuple(0 for _ in sizes)] = Fraction(1)
    return JointDist(axes, entries)


def normalized(p: JointDist) -> JointDist:
    mass = p.total_mass()
    return scale(p, Fraction(1) / mass)


def trivial_eve() -> JointDist:
    return JointDist((Axis("E", 1),), {(0,): Fraction(1)})


@pytest.fixture
def secret_bit_e() -> JointDist:
    """The perfectly correlated private bit with a trivial adversary axis."""
    return tensor(secret_bit(), trivial_eve())


@pytest.fixture
def eve_knows_all() -> JointDist:
    """Uniform correlated bit fully known to the adversary: p(a,a,a) = 1/2."""
    return JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {(0, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)},
    )


@pytest.fixture
def uniform_bits() -> JointDist:
    """Independent uniform bits, adversary constant: p(a,b,0) = 1/4."""
    return JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 1)),
        {(a, b, 0): Fraction(1, 4) for a in range(2) for b in range(2)},
    )
