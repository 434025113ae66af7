"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality; there are no tolerances.
Each criterion also carries a wall-clock budget, asserted at the end.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from nodistill import ratlp
from nodistill.certifier import (
    INCONCLUSIVE,
    UNDISTILLABLE,
    Certificate,
    CertificationProblem,
    build_lp,
    certify,
    verify_certificate,
)
from nodistill.families import MapFamily, deterministic_family, random_filter_family
from nodistill.measures import (
    estimate_lambda_max,
    secret_bit_fraction,
)
from nodistill.probvec import Axis, JointDist, LocalMap, apply_local, tensor_power

from conftest import normalized, rand_dist, trivial_eve
from oracles import (
    compose,
    curry,
    family_constraint_value,
    group_by_selector,
    identity_map,
    lift,
    lifted_objective_value,
    map_tensor,
    merge_axes,
    permute,
    relabel,
    secret_bit,
    secret_bit_fraction_by_decomposition,
    split_axis,
    tensor,
    universal_map,
)
from test_ratlp import brute_force, random_problem

HALF = F(1, 2)


@contextmanager
def criterion(number: int, budget_s: float, summary: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {summary}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"criterion {number} PASS: {summary} ({elapsed:.1f}s)")


def rand_map(rng, n_out, n_in, party="A", denom_max=9):
    rows = [
        [F(rng.randint(0, denom_max), rng.randint(1, denom_max)) for _ in range(n_in)]
        for _ in range(n_out)
    ]
    return LocalMap(Axis(party, n_in), Axis(party, n_out), rows)


def test_criterion_1_fraction_oracle_equivalence():
    rng = random.Random(101)
    with criterion(1, 10, "closed form == decomposition program on 200 random inputs"):
        for _ in range(200):
            p = normalized(rand_dist(rng, (2, 2, rng.randint(1, 4)), denom_max=20))
            assert secret_bit_fraction(p) == secret_bit_fraction_by_decomposition(p)


def test_criterion_2_curry_reconstruction():
    rng = random.Random(102)
    with criterion(2, 5, "universal . curried map reproduces 200 random maps exactly"):
        for _ in range(200):
            size1, size2 = rng.randint(1, 4), rng.randint(1, 3)
            n_out = rng.randint(1, 3)
            m = rand_map(rng, n_out, size1 * size2)
            curried = curry(m, (size1, size2))
            u = universal_map(n_out, size2)
            rebuilt = compose(u, map_tensor(curried, identity_map(Axis("I", size2))))
            assert rebuilt.coeffs == m.coeffs


def test_criterion_3_lift_factoring_identity():
    rng = random.Random(103)
    with criterion(3, 30, "lift of curried maps == global filtering on g^(x)2, 50 pairs"):
        for trial in range(50):
            g = rand_dist(rng, (2, 2, 2))
            g2 = tensor_power(g, 2)
            ma = rand_map(rng, 2, 4, party="A")
            nb = rand_map(rng, 2, 4, party="B")
            direct = apply_local(nb, apply_local(ma, g2, "A"), "B")
            ca, cb = curry(ma, (2, 2)), curry(nb, (2, 2))
            q = apply_local(cb, apply_local(ca, g, "A"), "B")
            q = split_axis(q, ca.output_axis.party, [2, 2], ["A-bit", "A-copy"])
            q = split_axis(q, cb.output_axis.party, [2, 2], ["B-bit", "B-copy"])
            q = permute(q, ["A-bit", "A-copy", "B-bit", "B-copy", "E"])
            lifted = lift(q, relabel(g, {"E": "E2"}))
            lifted = permute(merge_axes(lifted, ["E", "E2"], "E"), ["A", "B", "E"])
            assert lifted == direct


def test_criterion_4_grouping_identity():
    rng = random.Random(104)
    with criterion(4, 60, "objective and family values agree across grouping, 100 inputs"):
        for trial in range(100):
            g = rand_dist(rng, (2, 2, rng.randint(1, 2)))
            q = rand_dist(
                rng,
                (2, 2, 2, 2, rng.randint(1, 4)),
                labels=("A-bit", "A-copy", "B-bit", "B-copy", "E'"),
            )
            m = rng.randint(0, 2)
            fam = (
                random_filter_family(2, 2, m=m, seed=trial, denom_bound=3)
                if m
                else MapFamily(pairs=())
            )
            grouped = group_by_selector(q, g, fam)
            build = build_lp(CertificationProblem(g=g, family=fam))
            assert lifted_objective_value(q, g, HALF) == ratlp.dot(
                build.problem.objective, build.setup.vector_from_dist(grouped)
            )
            for pair in fam.pairs:
                assert family_constraint_value(q, pair, HALF) == family_constraint_value(
                    grouped, pair, HALF
                )


# Certificates produced by criteria 5 and 6, re-used by criterion 8.
_produced_certificates: list[tuple[JointDist, MapFamily, Certificate]] = []


@pytest.fixture(scope="module")
def anchor_certificates():
    if _produced_certificates:
        return _produced_certificates
    sb = tensor(secret_bit(), trivial_eve())
    for cap in range(5):
        fam = deterministic_family(2, 2, cap=cap)
        _produced_certificates.append((sb, fam, certify(sb, fam)))
    triv = JointDist((Axis("A", 1), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)})
    for cap in (1, 2):
        fam = deterministic_family(1, 1, cap=cap)
        _produced_certificates.append((triv, fam, certify(triv, fam)))
    rng = random.Random(106)
    g6 = rand_dist(rng, (2, 2, 2), denom_max=20)
    for cap in range(5):
        fam = deterministic_family(2, 2, cap=cap)
        _produced_certificates.append((g6, fam, certify(g6, fam)))
    return _produced_certificates


def test_criterion_5_soundness_anchors(anchor_certificates):
    with criterion(5, 300, "secret bit >= 1/4; trivial g certifies at 0; optima >= 0"):
        sb_certs = anchor_certificates[:5]
        for _, fam, cert in sb_certs:
            assert cert.verdict == INCONCLUSIVE
            assert cert.optimum >= F(1, 4)
        triv_certs = anchor_certificates[5:7]
        for _, fam, cert in triv_certs:
            assert cert.verdict == UNDISTILLABLE
            assert cert.optimum == 0
        for _, _, cert in anchor_certificates:
            assert cert.optimum >= 0


def test_criterion_6_family_monotonicity(anchor_certificates):
    with criterion(6, 600, "optima non-increasing along the deterministic prefix chain"):
        chain = anchor_certificates[7:12]
        optima = [cert.optimum for _, _, cert in chain]
        assert len(optima) == 5
        for earlier, later in zip(optima, optima[1:]):
            assert later <= earlier


def test_criterion_7_solver_vs_brute_force():
    rng = random.Random(107)
    with criterion(7, 60, "simplex matches vertex enumeration on 500 random programs"):
        for _ in range(500):
            p = random_problem(rng)
            want_status, want_value = brute_force(p)
            s = ratlp.solve(p)
            assert s.status == want_status
            if want_status == ratlp.OPTIMAL:
                assert s.objective_value == want_value
                assert ratlp.check_solution(p, s)


def _tampered_rationals(data: dict):
    """Yield (path, delta) for every rational entry of a certificate body."""
    yield ("optimum",), None
    yield ("lambda0",), None
    if data.get("primal") is not None:
        for i in range(len(data["primal"]["entries"])):
            yield ("primal", "entries", i, "p"), None
    if data.get("dual") is not None:
        for i in range(len(data["dual"]["row_multipliers"])):
            yield ("dual", "row_multipliers", i), None


def _bump(text: str, delta: F) -> str:
    num, den = text.split("/")
    value = F(int(num), int(den)) + delta
    return f"{value.numerator}/{value.denominator}"


def _apply_tamper(data: dict, path, delta: F) -> dict:
    clone = json.loads(json.dumps(data))
    node = clone
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _bump(node[path[-1]], delta)
    return clone


def test_criterion_8_certificate_integrity(anchor_certificates):
    eps = F(1, 1000)
    with criterion(8, 60, "fresh certificates verify; every single-entry tamper fails"):
        for g, fam, cert in anchor_certificates:
            assert verify_certificate(g, fam, HALF, cert)
            data = cert.to_json_dict()
            for path, _ in _tampered_rationals(data):
                for delta in (eps, -eps):
                    tampered = _apply_tamper(data, path, delta)
                    try:
                        loaded = Certificate.from_json_dict(tampered)
                    except ValueError:
                        continue  # unreadable certificates fail verification trivially
                    assert not verify_certificate(g, fam, HALF, loaded), (path, delta)


def test_criterion_9_exploratory_run():
    eka = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {(0, 0, 0): HALF, (1, 1, 1): HALF},
    )
    with criterion(9, 600, "adversary-knows-all chain to M=6 completes, verifies, repeats"):
        results = []
        for cap in range(7):
            fam = deterministic_family(2, 2, cap=cap)
            cert = certify(eka, fam)
            assert verify_certificate(eka, fam, HALF, cert)
            results.append((cap, cert.verdict, cert.optimum))
        fam6 = deterministic_family(2, 2, cap=6)
        again = certify(eka, fam6)
        assert again.dumps() == cert.dumps()
        for cap, verdict, optimum in results:
            print(f"  reported: M={cap} verdict={verdict} optimum={optimum}")


def test_criterion_10_estimator_sanity():
    rng = random.Random(110)
    with criterion(10, 60, "estimator: 1 on the private bit, 1/2 on 50 products, rechecks"):
        sb = tensor(secret_bit(), trivial_eve())
        w = estimate_lambda_max(sb)
        assert w.value == 1 and w.recheck(sb) == 1
        for _ in range(50):
            pa = rand_dist(rng, (rng.randint(2, 3),), labels=("A",))
            pb = rand_dist(rng, (rng.randint(2, 3),), labels=("B",))
            pe = rand_dist(rng, (rng.randint(1, 3),), labels=("E",))
            prod = tensor(tensor(pa, pb), pe)
            w = estimate_lambda_max(prod)
            assert w.value == HALF
            assert w.recheck(prod) == HALF
        for _ in range(5):
            p = rand_dist(rng, (2, 2, 2))
            w = estimate_lambda_max(p, 1)
            assert w.recheck(p) == w.value
