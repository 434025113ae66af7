import hashlib
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from nodistill import certifier, families, ratlp
from nodistill.certifier import (
    INCONCLUSIVE,
    UNDISTILLABLE,
    Certificate,
    CertificationProblem,
    SizeGuardError,
    build_lp,
    certify,
    problem_fingerprint,
    verify_certificate,
)
from nodistill.families import MapFamily, MapPair, deterministic_family, random_filter_family
from nodistill.probvec import Axis, JointDist, LocalMap

from conftest import normalized, rand_dist
from oracles import (
    activation_spotcheck,
    canonical_witness_q,
    certification_rows,
    dual_violation,
    family_constraint_value,
    fraction_table_program,
    group_by_selector,
    lifted_objective_value,
    primal_violation,
    selector_bits,
    selector_index,
)

HALF = F(1, 2)


def trivial_g():
    return JointDist((Axis("A", 1), Axis("B", 1), Axis("E", 1)), {(0, 0, 0): F(1)})


def rand_q(rng, sa=2, sb=2, ep=2):
    return rand_dist(
        rng, (2, sa, 2, sb, ep), labels=("A-bit", "A-copy", "B-bit", "B-copy", "E'")
    )


# -- selector packing -----------------------------------------------------------


def test_selector_roundtrip():
    for k in range(16):
        assert selector_index(selector_bits(k, 4)) == k


# -- grouping ---------------------------------------------------------------------


def test_grouping_single_helper_symbol_single_selector(secret_bit_e):
    q = canonical_witness_q(secret_bit_e)
    grouped = group_by_selector(q, secret_bit_e, deterministic_family(2, 2, cap=1))
    ks = {idx[4] for idx, _ in grouped.items()}
    assert len(ks) == 1


def test_grouping_sums_equal_selector_slices():
    rng = random.Random(0)
    g = rand_dist(rng, (2, 2, 2))
    base = rand_q(rng, ep=1)
    # duplicate the helper slice: both symbols produce identical selectors
    axes = list(base.axes)
    axes[4] = Axis("E'", 2)
    entries = {}
    for (a, x, b, y, _), v in base.items():
        entries[(a, x, b, y, 0)] = v
        entries[(a, x, b, y, 1)] = v
    q = JointDist(tuple(axes), entries)
    grouped = group_by_selector(q, g, MapFamily(pairs=()))
    for (a, x, b, y, _), v in base.items():
        found = [vv for idx, vv in grouped.items() if idx[:4] == (a, x, b, y)]
        assert sum(found, F(0)) == 2 * v


def test_grouping_preserves_objective_and_family_values():
    rng = random.Random(1)
    for trial in range(10):
        g = rand_dist(rng, (2, 2, 2))
        q = rand_q(rng, ep=rng.randint(1, 4))
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


def test_grouping_rejects_bad_shapes():
    rng = random.Random(2)
    g = rand_dist(rng, (3, 2, 2))
    q = rand_q(rng, sa=2, sb=2)
    with pytest.raises(ValueError, match="copy"):
        group_by_selector(q, g, MapFamily(pairs=()))


def test_g_axis_order_is_enforced():
    rng = random.Random(12)
    g = rand_dist(rng, (2, 2, 2), labels=("E", "A", "B"))
    with pytest.raises(ValueError, match="ordered"):
        CertificationProblem(g=g, family=MapFamily(pairs=()))
    with pytest.raises(ValueError, match="ordered"):
        group_by_selector(rand_q(rng), g, MapFamily(pairs=()))


# -- program shape -----------------------------------------------------------------


def test_dimensions_match_for_2x2x2_empty_family():
    rng = random.Random(3)
    g = JointDist(
        (Axis("A", 2), Axis("B", 2), Axis("E", 2)),
        {idx: F(rng.randint(1, 9), 10) for idx in [(a, b, e) for a in (0, 1) for b in (0, 1) for e in (0, 1)]},
    )
    setup = CertificationProblem(g=g, family=MapFamily(pairs=()))
    assert setup.num_vars == 2 * 2 * 2 * 2 * 4 == 64
    build = build_lp(setup)
    kinds = [info[0] for info in build.row_info]
    assert kinds.count("sel-e") == 2 * 4 == 8
    assert kinds.count("norm") == 1
    assert build.problem.num_vars == 64


def test_size_guard_refuses_with_estimate(eve_knows_all):
    # d + M = 2 + 15 = 17
    fam = deterministic_family(2, 2, cap=15)
    with pytest.raises(SizeGuardError, match="variables"):
        certify(eve_knows_all, fam)


def test_a_problem_over_the_bound_cannot_be_made(eve_knows_all):
    # 20 pairs on d = 2: refused when the problem is defined, before any program is built
    with pytest.raises(SizeGuardError, match="^d \\+ M = 2 \\+ 20 = 22 exceeds the bound 16: "):
        CertificationProblem(g=eve_knows_all, family=deterministic_family(2, 2, cap=20))


def test_lambda0_range_enforced(secret_bit_e):
    with pytest.raises(ValueError, match="lambda0"):
        certify(secret_bit_e, MapFamily(pairs=()), lambda0=F(1, 3))
    with pytest.raises(ValueError, match="lambda0"):
        certify(secret_bit_e, MapFamily(pairs=()), lambda0=F(1))


# -- canonical witness ----------------------------------------------------------------


def test_canonical_witness_objective_values(secret_bit_e, eve_knows_all, uniform_bits):
    assert lifted_objective_value(canonical_witness_q(secret_bit_e), secret_bit_e, HALF) == F(1, 4)
    assert lifted_objective_value(canonical_witness_q(eve_knows_all), eve_knows_all, HALF) == F(-1, 4)
    assert lifted_objective_value(canonical_witness_q(uniform_bits), uniform_bits, HALF) == 0


def test_canonical_witness_feasible_with_correct_selectors(secret_bit_e, eve_knows_all):
    for g in (secret_bit_e, eve_knows_all):
        fam = deterministic_family(2, 2, cap=3)
        build = build_lp(CertificationProblem(g=g, family=fam))
        grouped = group_by_selector(canonical_witness_q(g), g, fam)
        x = build.setup.vector_from_dist(grouped)
        value = ratlp.dot(build.problem.objective, x)
        assert ratlp.violation(build.problem, value, x=x) is None


def test_canonical_witness_needs_binary_alphabets():
    with pytest.raises(ValueError, match="size >= 2"):
        canonical_witness_q(trivial_g())


# -- certify ---------------------------------------------------------------------------


def test_trivial_g_with_strip_family_is_undistillable():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    assert cert.verdict == UNDISTILLABLE
    assert cert.optimum == 0
    assert cert.dual is not None and cert.primal is None


def test_secret_bit_inconclusive_at_least_quarter(secret_bit_e):
    for cap in (1, 3):
        cert = certify(secret_bit_e, deterministic_family(2, 2, cap=cap))
        assert cert.verdict == INCONCLUSIVE
        assert cert.optimum >= F(1, 4)
        assert cert.primal is not None


def test_empty_family_with_high_fraction_is_inconclusive(secret_bit_e):
    cert = certify(secret_bit_e, MapFamily(pairs=()))
    assert cert.verdict == INCONCLUSIVE
    assert cert.optimum > 0


def test_certify_deterministic_output(secret_bit_e):
    fam = deterministic_family(2, 2, cap=2)
    a = certify(secret_bit_e, fam)
    b = certify(secret_bit_e, fam)
    assert a.dumps() == b.dumps()


def test_optimum_nonnegative_on_random_instances():
    rng = random.Random(4)
    for trial in range(6):
        g = rand_dist(rng, (2, 2, 2))
        fam = deterministic_family(2, 2, cap=rng.randint(0, 3))
        cert = certify(g, fam)
        assert cert.optimum >= 0


def test_family_monotonicity_prefix_chain():
    rng = random.Random(5)
    g = rand_dist(rng, (2, 2, 2))
    prev = None
    for cap in range(4):
        cert = certify(g, deterministic_family(2, 2, cap=cap))
        if prev is not None:
            assert cert.optimum <= prev
        prev = cert.optimum


def test_objective_pointwise_nonincreasing_in_lambda0(secret_bit_e):
    q = canonical_witness_q(secret_bit_e)
    values = [
        lifted_objective_value(q, secret_bit_e, lam) for lam in (HALF, F(3, 5), F(3, 4), F(9, 10))
    ]
    assert values == sorted(values, reverse=True)


def test_empty_family_optimum_nonincreasing_in_lambda0():
    rng = random.Random(6)
    g = rand_dist(rng, (2, 2, 2))
    fam = MapFamily(pairs=())
    optima = [certify(g, fam, lambda0=lam).optimum for lam in (HALF, F(3, 5), F(3, 4))]
    assert optima == sorted(optima, reverse=True)


@pytest.fixture
def rand_2x2x3():
    return normalized(rand_dist(random.Random(1), (2, 2, 3)))


# Certificate digests and (phase 1, phase 2) pivot counts recorded with the
# Fraction tableau that the integer-row tableau replaced: the same pivot path
# gives the same bytes.
PINNED = [
    pytest.param(
        "eve_knows_all", deterministic_family(2, 2, cap=3),
        "1296755c470077a3486b05e296ee5dbb1730bb3698d0842a1ef2007230f6a571", (61, 56),
        id="eka-det3",
    ),
    pytest.param(
        "eve_knows_all", deterministic_family(2, 2, cap=4),
        "25baa51ec3b249b004739391ed54ba4fe57a1b5405d5b7f04fc4e45f6d35656e", (253, 139),
        id="eka-det4",
    ),
    pytest.param(
        "uniform_bits", deterministic_family(2, 2, cap=3),
        "30011a7ae6bb5ce47c763c15ff8d33e7f593c1bce0feddf36a5ec925315ef2fd", (33, 6),
        id="unif-det3",
    ),
    pytest.param(
        "uniform_bits", random_filter_family(2, 2, m=2, seed=3, denom_bound=4),
        "e9bf3a6f39c1ea62d712cb2764306f75e169705a65cba85c87cdb7de4c92cc19", (32, 58),
        id="unif-rand",
    ),
    # rational g, recorded with the integer-row tableau: the program's rows
    # have fractional coefficients, and about one row elimination in five
    # rescales its row
    pytest.param(
        "rand_2x2x3", deterministic_family(2, 2, cap=3),
        "8d6ef4a4dc3336894d16cb6c0a4c70657cdff586bdca3be51ba1e0129e2bbd0c", (137, 161),
        id="rand2x2x3-det3",
    ),
]


@pytest.mark.parametrize("g_name, family, digest, pivots", PINNED)
def test_certificate_digests_pinned(request, g_name, family, digest, pivots):
    g = request.getfixturevalue(g_name)
    cert = certify(g, family)
    assert cert.digest == digest
    assert verify_certificate(g, family, HALF, cert)


@pytest.mark.parametrize("g_name, family, digest, pivots", PINNED)
def test_pivot_counts_pinned(request, g_name, family, digest, pivots):
    build = build_lp(CertificationProblem(g=request.getfixturevalue(g_name), family=family))
    sol = ratlp.solve(build.problem)
    assert sol.status == ratlp.OPTIMAL
    assert sol.pivots == pivots


STORED = Path(__file__).resolve().parent.parent / "perfbench" / "stored"


@pytest.mark.parametrize("name", ["aka", "unif"])
def test_certify_rebuilds_the_stored_m5_certificates(name):
    # written by `nodistill certify g_<name>.json --gen deterministic --M 5`;
    # stored/PROVENANCE.json records the commit that wrote them
    g = JointDist.loads((STORED / f"g_{name}.json").read_text())
    family = MapFamily.loads((STORED / "family_M5.json").read_text())
    assert certify(g, family).dumps() == (STORED / f"cert_{name}-M5.json").read_text()


@pytest.fixture
def rand_3x2x3():
    return rand_dist(random.Random(7), (3, 2, 3))


# SHA-256 of the assembled program: rows and their order, every coefficient,
# the insertion order of the objective and of each row, and row_info
# (recorded with the block-by-block assembly the per-bit tables replaced).
# Row coefficients and rhs are read as Fractions, so int rows pin alike.
PINNED_LP = [
    pytest.param(
        "eve_knows_all", deterministic_family(2, 2, cap=4), HALF,
        "2f265d76d30b8aaf2c430f8b2e396e9d78e1c2a23888fdfa29e79d13ea6adbdd",
        id="eka-det4",
    ),
    pytest.param(
        "eve_knows_all", deterministic_family(2, 2, cap=3), F(2, 3),
        "c74f50fd2a19912615537cab956f97cc1dff0b2c0662c79704857e829e413f3a",
        id="eka-det3-two-thirds",
    ),
    pytest.param(
        "rand_3x2x3", random_filter_family(3, 2, m=2, seed=1, denom_bound=3), HALF,
        "2f17064a848e8865718c6c5d95dd2b45c0512e97182a3c1d8aff4147c4f34da1",
        id="rand3x2x3-rand2",
    ),
]


@pytest.mark.parametrize("g_name, family, lambda0, digest", PINNED_LP)
def test_build_lp_pinned(request, g_name, family, lambda0, digest):
    g = request.getfixturevalue(g_name)
    build = build_lp(CertificationProblem(g=g, family=family, lambda0=lambda0))
    lp = build.problem
    blob = repr(
        (
            lp.num_vars,
            list(lp.objective.items()),
            [
                ([(j, F(c)) for j, c in r.coeffs.items()], r.sense, F(r.rhs))
                for r in lp.rows
            ],
            build.row_info,
        )
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# Both sides output a fair coin whatever they see, on 2x2 copy alphabets.
COIN_PAIR = MapPair(
    LocalMap(Axis("A", 4), Axis("A'", 2), [[HALF] * 4] * 2),
    LocalMap(Axis("B", 4), Axis("B'", 2), [[HALF] * 4] * 2),
)

# A always outputs 1 and B outputs 1 with probability 1/4: at lambda0 = 1/2 the
# family row's table for output bit 1, 4 * 1 * 1/4 - 1 * 1 * 1, is zero in every cell.
ONE_EMPTY_TABLE = MapPair(
    LocalMap(Axis("A", 2), Axis("A'", 2), [[0, 0], [1, 1]]),
    LocalMap(Axis("B", 2), Axis("B'", 2), [[F(3, 4), F(3, 4)], [F(1, 4), F(1, 4)]]),
)


def assert_rows_match_the_oracle(g, family, lambda0):
    setup = CertificationProblem(g=g, family=family, lambda0=lambda0)
    build = build_lp(setup)
    rows, row_info = certification_rows(setup)
    assert [(r.coeffs, r.sense, r.rhs) for r in build.problem.rows] == rows
    assert build.row_info == tuple(row_info)
    return build


@pytest.mark.parametrize("g_name, family, lambda0, digest", PINNED_LP)
def test_pinned_rows_match_the_oracle(request, g_name, family, lambda0, digest):
    assert_rows_match_the_oracle(request.getfixturevalue(g_name), family, lambda0)


def test_identical_pairs_keep_one_copy_of_each_row(eve_knows_all):
    # member 1's selector rows repeat member 0's in every block k where the
    # members' selector bits, bits 2 and 3 of k, agree
    det = deterministic_family(2, 2, cap=5).pairs[4]
    build = assert_rows_match_the_oracle(eve_knows_all, MapFamily(pairs=(det, det)), HALF)
    sel_1 = [info[2] for info in build.row_info if info[:2] == ("sel-i", 1)]
    assert sel_1 == [k for k in range(16) if (k >> 2) & 1 != (k >> 3) & 1]
    # a coin pair's two per-bit family tables are equal, so member 1's family
    # row, the same table in every block, repeats member 0's
    build = assert_rows_match_the_oracle(eve_knows_all, MapFamily(pairs=(COIN_PAIR,) * 2), F(2, 3))
    assert [info for info in build.row_info if info[0] == "family"] == [("family", 0)]


def test_an_empty_per_bit_table_leaves_its_blocks_out():
    # d = 1 and M = 1, so nk = 4 and the family row fills only blocks 0 and 1,
    # where the selector bit is 0; a family row always fills half the blocks,
    # so it never equals a one-block selector row
    build = assert_rows_match_the_oracle(trivial_g(), MapFamily(pairs=(ONE_EMPTY_TABLE,)), HALF)
    family_row = build.problem.rows[build.row_info.index(("family", 0))]
    assert {j % 4 for j in family_row.coeffs} == {0, 1}


def program_entries(lp: ratlp.LpProblem):
    """The objective and rows, each coefficient and rhs with its type, in insertion order."""
    return (
        lp.num_vars,
        [(j, c, type(c)) for j, c in lp.objective.items()],
        [
            ([(j, c, type(c)) for j, c in r.coeffs.items()], r.sense, r.rhs, type(r.rhs))
            for r in lp.rows
        ],
    )


def random_code_pair(rng, sa, sb) -> MapPair:
    """A pair of 0/1 maps, one action drawn per symbol: a bit, both bits or none."""
    return MapPair(*(
        families.code_map(Axis(party, 2 * size, (2, size)),
                          tuple(rng.randrange(4) for _ in range(2 * size)))
        for party, size in (("A", sa), ("B", sb))
    ))


@pytest.mark.parametrize("lambda0", [HALF, F(2, 3), F(7, 8), F(31, 32)], ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_integer_tables_match_the_fraction_oracle(seed, lambda0):
    # d = 1..3, denom_bound = 1..6, and three kinds of family: rational maps,
    # the deterministic prefix, and drawn 0/1 codes (the all-discard map too)
    rng = random.Random(seed)
    d, sa, sb, m = seed % 3 + 1, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
    g = rand_dist(rng, (sa, sb, d))
    for family in (
        random_filter_family(sa, sb, m=m, seed=seed, denom_bound=seed % 6 + 1),
        deterministic_family(sa, sb, cap=m),
        MapFamily(pairs=[random_code_pair(rng, sa, sb) for _ in range(m)]),
    ):
        setup = CertificationProblem(g=g, family=family, lambda0=lambda0)
        build = build_lp(setup)
        problem, row_info = fraction_table_program(setup)
        assert program_entries(build.problem) == program_entries(problem)
        assert build.row_info == row_info


# -- verification -----------------------------------------------------------------------


def test_verify_roundtrip(secret_bit_e):
    fam = deterministic_family(2, 2, cap=2)
    cert = certify(secret_bit_e, fam)
    assert verify_certificate(secret_bit_e, fam, HALF, cert)


def test_verify_wrong_g_fingerprint(secret_bit_e, eve_knows_all):
    fam = deterministic_family(2, 2, cap=1)
    cert = certify(secret_bit_e, fam)
    res = verify_certificate(eve_knows_all, fam, HALF, cert)
    assert not res and "fingerprint" in res.failure


def test_verify_detects_raw_tampering(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    cert = certify(secret_bit_e, fam)
    data = cert.to_json_dict()
    entry = data["primal"]["entries"][0]
    num, den = entry["p"].split("/")
    entry["p"] = f"{int(num) * 1000 + int(den)}/{int(den) * 1000}"  # +1/1000
    tampered = Certificate.from_json_dict(data)
    res = verify_certificate(secret_bit_e, fam, HALF, tampered)
    assert not res and "digest" in res.failure


def redigest(data: dict) -> Certificate:
    """Re-sign tampered content so the mathematical checks are exercised."""
    from nodistill.certifier import _certificate_digest

    cert = Certificate.from_json_dict(data)
    resigned = Certificate(
        verdict=cert.verdict,
        optimum=cert.optimum,
        lambda0=cert.lambda0,
        fingerprint=cert.fingerprint,
        primal=cert.primal,
        dual=cert.dual,
        digest="",
    )
    return Certificate(
        verdict=cert.verdict,
        optimum=cert.optimum,
        lambda0=cert.lambda0,
        fingerprint=cert.fingerprint,
        primal=cert.primal,
        dual=cert.dual,
        digest=_certificate_digest(resigned),
    )


def test_verify_math_catches_resigned_primal_tamper(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    cert = certify(secret_bit_e, fam)
    data = cert.to_json_dict()
    entry = data["primal"]["entries"][0]
    num, den = entry["p"].split("/")
    entry["p"] = f"{int(num) * 1000 + int(den)}/{int(den) * 1000}"
    res = verify_certificate(secret_bit_e, fam, HALF, redigest(data))
    assert not res and ("row" in res.failure or "objective" in res.failure)


def test_verify_math_catches_resigned_optimum_tamper():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    data = cert.to_json_dict()
    data["optimum"] = "-1/1000"
    res = verify_certificate(trivial_g(), fam, HALF, redigest(data))
    assert res.failure == "dual bound 0 != claimed optimum -1/1000"


def test_verify_math_catches_resigned_dual_sign_tamper():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    data = cert.to_json_dict()
    data["dual"]["row_multipliers"][0] = "-1/1000"
    res = verify_certificate(trivial_g(), fam, HALF, redigest(data))
    assert not res


def test_verify_reports_negative_multiplier_row():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    data = cert.to_json_dict()
    data["dual"]["row_multipliers"][3] = "-1/1000"
    res = verify_certificate(trivial_g(), fam, HALF, redigest(data))
    assert res.failure == "dual multiplier for row 3 ('sel-e', 0, 2) is negative"


def test_verify_reports_first_dual_infeasible_variable():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    data = cert.to_json_dict()
    # raising the family row's multiplier (rhs 0, bound unchanged) breaks the
    # tight columns 2..13; the scan follows the objective's order, so
    # variable 4 is reported, not variable 2
    data["dual"]["row_multipliers"][0] = "2/1"
    res = verify_certificate(trivial_g(), fam, HALF, redigest(data))
    assert res.failure == "dual infeasible at variable 4: -2 < -1"


def strip_certificate() -> Certificate:
    """The undistillable certificate of the trivial g under the strip pair (8 rows)."""
    return certify(trivial_g(), deterministic_family(1, 1, 1))


def verify_trivial(data: dict):
    fam = deterministic_family(1, 1, 1)
    return verify_certificate(trivial_g(), fam, HALF, redigest(data)).failure


def test_verify_refuses_an_unknown_verdict():
    data = strip_certificate().to_json_dict()
    data["verdict"] = "distillable"
    assert verify_trivial(data) == "unknown verdict 'distillable'"


def test_verify_refuses_undistillable_with_optimum_one():
    data = strip_certificate().to_json_dict()
    data["optimum"] = "1/1"
    assert verify_trivial(data) == "verdict/optimum mismatch: undistillable requires optimum <= 0"


def test_verify_refuses_inconclusive_with_optimum_zero(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    data = certify(secret_bit_e, fam).to_json_dict()
    data["optimum"] = "0/1"
    res = verify_certificate(secret_bit_e, fam, HALF, redigest(data))
    assert res.failure == "verdict/optimum mismatch: inconclusive requires optimum > 0"


def test_verify_reports_the_witness_objective(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    data = certify(secret_bit_e, fam).to_json_dict()
    assert data["optimum"] == "1/4"
    data["optimum"] = "5/4"
    res = verify_certificate(secret_bit_e, fam, HALF, redigest(data))
    assert res.failure == "witness objective 1/4 != claimed optimum 5/4"


def test_verify_refuses_a_witness_on_other_axes(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    data = certify(secret_bit_e, fam).to_json_dict()
    data["primal"]["axes"][4]["size"] *= 2
    res = verify_certificate(secret_bit_e, fam, HALF, redigest(data))
    assert res.failure == "witness axes do not match the program's variable layout"


def test_verify_checks_the_norm_row_as_an_equality(secret_bit_e):
    # half the witness, with half the optimum, keeps every "<=" row (all have
    # rhs 0) and the objective; only the mass-1 row catches it
    fam = deterministic_family(2, 2, cap=1)
    data = certify(secret_bit_e, fam).to_json_dict()
    for entry in data["primal"]["entries"]:
        num, den = entry["p"].split("/")
        entry["p"] = f"{num}/{2 * int(den)}"
    data["optimum"] = "1/8"
    res = verify_certificate(secret_bit_e, fam, HALF, redigest(data))
    assert res.failure == "witness violates row 9 ('norm',): 1/2 vs 1"


def test_verify_reports_a_negative_column_outside_the_objective(eve_knows_all):
    # variable 12 has objective coefficient 0; these multipliers keep every
    # "<=" row's sign and every objective column, and make its column -1
    fam = deterministic_family(2, 2, cap=1)
    build = build_lp(CertificationProblem(g=eve_knows_all, family=fam))
    assert 12 not in build.problem.objective
    y = [F(0)] * len(build.problem.rows)
    for r, v in ((5, F(5, 2)), (13, F(5, 2)), (21, F(5, 2)), (25, F(3, 2))):
        y[r] = v
    cert = Certificate(
        verdict=UNDISTILLABLE, optimum=F(0), lambda0=HALF,
        fingerprint=problem_fingerprint(eve_knows_all, fam, HALF), dual=tuple(y),
    )
    res = verify_certificate(eve_knows_all, fam, HALF, redigest(cert.to_json_dict()))
    assert res.failure == "dual infeasible at variable 12: -1 < 0"


@pytest.mark.parametrize("count", [7, 9])
def test_verify_reports_a_dual_of_the_wrong_length(count):
    data = strip_certificate().to_json_dict()
    data["dual"]["row_multipliers"] = (data["dual"]["row_multipliers"] + ["0/1"])[:count]
    assert verify_trivial(data) == f"dual has {count} multipliers for 8 rows"


# -- verify makes only the rows a certificate reads -------------------------------


# The secret bit's witness under one deterministic pair (optimum 1/4; rows:
# family 0, sel-e in blocks 0-3, sel-i in blocks 0-3, norm), and witnesses made
# from it that fail at each kind of row
SB_WITNESS = {(0, 0, 0, 0, 0): F(1, 4), (0, 0, 0, 1, 2): F(1, 2), (1, 0, 1, 0, 0): F(1, 4)}


@pytest.mark.parametrize(
    "entries, failure",
    [
        ({(0, 0, 0, 0, 0): F(1)}, "witness violates row 0 ('family', 0): 3 vs 0"),
        ({(0, 0, 0, 0, 2): F(1)}, "witness violates row 3 ('sel-e', 0, 2): 1 vs 0"),
        # the first entry moved from block 0 to block 1, which it then touches
        ({(0, 0, 0, 0, 1): F(1, 4), (0, 0, 0, 1, 2): F(1, 2), (1, 0, 1, 0, 0): F(1, 4)},
         "witness violates row 6 ('sel-i', 0, 1): 1/4 vs 0"),
        # no entry reads the norm row, whose lhs 0 still fails its rhs 1
        ({}, "witness violates row 9 ('norm',): 0 vs 1"),
        ({k: 2 * v for k, v in SB_WITNESS.items()}, "witness violates row 9 ('norm',): 2 vs 1"),
    ],
    ids=["family", "sel-e", "sel-i", "empty", "mass-2"],
)
def test_verify_names_the_row_a_witness_fails(secret_bit_e, entries, failure):
    fam = deterministic_family(2, 2, cap=1)
    cert = certify(secret_bit_e, fam)
    assert dict(cert.primal.items()) == SB_WITNESS
    forged = redigest(replace(cert, primal=JointDist(cert.primal.axes, entries)).to_json_dict())
    assert verify_certificate(secret_bit_e, fam, HALF, forged).failure == failure


def test_verify_reads_a_dual_on_the_norm_row_alone():
    # every column sum is 3, at least each objective coefficient (3 or -1)
    data = strip_certificate().to_json_dict()
    data["dual"]["row_multipliers"] = ["0/1"] * 7 + ["3/1"]
    assert verify_trivial(data) == "dual bound 3 != claimed optimum 0"


def product_g(*marginals) -> JointDist:
    """g(x, y, e) = pA(x) pB(y) pE(e)."""
    axes = tuple(Axis(party, len(m)) for party, m in zip("ABE", marginals))
    return JointDist(axes, {
        idx: marginals[0][idx[0]] * marginals[1][idx[1]] * marginals[2][idx[2]]
        for idx in itertools.product(*(range(len(m)) for m in marginals))
    })


@pytest.fixture
def uniform_2x2_biased_eve():
    return product_g([HALF] * 2, [HALF] * 2, [F(1, 3), F(2, 3)])


@pytest.fixture
def uniform_3x2_biased_eve():
    return product_g([F(1, 3)] * 3, [HALF] * 2, [F(1, 5), F(4, 5)])


def tampered(cert: Certificate, rng: random.Random) -> list[Certificate]:
    """cert and, re-digested, copies with one entry of its proof perturbed,
    zeroed, or negated (a dual multiplier) or moved (a witness entry: a
    distribution cannot hold a negative one)."""
    out = [cert]
    if cert.primal is not None:
        axes, entries = cert.primal.axes, dict(cert.primal.items())
        for idx, v in entries.items():
            rest = {k: w for k, w in entries.items() if k != idx}
            other = tuple(rng.randrange(ax.size) for ax in axes)
            for changed in ({**rest, idx: v * F(3, 2)}, rest, {**rest, other: rest.get(other, 0) + v}):
                out.append(replace(cert, primal=JointDist(axes, changed)))
    else:
        y = cert.dual
        for r in [r for r, v in enumerate(y) if v] + [rng.randrange(len(y)) for _ in range(4)]:
            for v in (y[r] + F(1, 3), F(0), -y[r]):
                out.append(replace(cert, dual=(*y[:r], v, *y[r + 1:])))
    return [redigest(c.to_json_dict()) for c in out]


@pytest.mark.parametrize(
    "g_name, family, lambda0",
    [
        ("uniform_bits", deterministic_family(2, 2, cap=3), HALF),
        ("eve_knows_all", deterministic_family(2, 2, cap=3), HALF),
        ("eve_knows_all", deterministic_family(2, 2, cap=3), F(2, 3)),
        ("rand_3x2x3", random_filter_family(3, 2, m=2, seed=1, denom_bound=3), HALF),
        ("uniform_2x2_biased_eve", deterministic_family(2, 2, cap=2), HALF),
        ("uniform_3x2_biased_eve", deterministic_family(3, 2, cap=2), F(2, 3)),
    ],
    ids=["unif-det3", "aka-det3", "aka-det3-two-thirds", "rand3x2x3-rand2",
         "unif-biased-eve-det2", "unif3x2-biased-eve-det2-two-thirds"],
)
def test_verify_matches_the_every_row_oracles(request, monkeypatch, g_name, family, lambda0):
    g = request.getfixturevalue(g_name)
    cert = certify(g, family, lambda0)
    build = build_lp(CertificationProblem(g=g, family=family, lambda0=lambda0))
    reported = []
    check = ratlp.violation
    monkeypatch.setattr(ratlp, "violation", lambda *a, **kw: reported.append(check(*a, **kw)) or reported[-1])
    kinds = set()
    for forged in tampered(cert, random.Random(0)):
        result = verify_certificate(g, family, lambda0, forged)
        if forged.primal is not None:
            x = build.setup.vector_from_dist(forged.primal)
            want = primal_violation(build.problem, forged.optimum, x)
        else:
            want = dual_violation(build.problem, forged.optimum, forged.dual)
        assert reported.pop() == want
        assert result.ok == (want is None)
        if want and want[0] in ("row", "multiplier"):
            assert str(build.row_info[want[1]]) in result.failure
        kinds.add(want and want[0])
    assert None in kinds and len(kinds) >= 3


@pytest.mark.parametrize("name", ["unif-M5", "aka-M5", "aka-M5-bad-primal"])
def test_verify_makes_only_the_rows_a_certificate_reads(monkeypatch, name):
    g = JointDist.loads((STORED / f"g_{name.split('-')[0]}.json").read_text())
    family = MapFamily.loads((STORED / "family_M5.json").read_text())
    cert = Certificate.loads((STORED / f"cert_{name}.json").read_text())
    build = build_lp(CertificationProblem(g=g, family=family))
    full = build.problem
    checked = []
    check = ratlp.violation
    monkeypatch.setattr(ratlp, "violation", lambda lp, *a, **kw: checked.append(lp) or check(lp, *a, **kw))
    verify_certificate(g, family, HALF, cert)
    (lp,) = checked
    assert len(lp.rows) == len(full.rows)
    made = [r for r, row in enumerate(lp.rows) if row.coeffs]
    for row, whole in zip(lp.rows, full.rows):
        assert (row.sense, row.rhs) == (whole.sense, whole.rhs)
        if not row.coeffs:
            norm = whole.sense == ratlp.SENSE_EQ
            assert row is (certifier._UNREAD_NORM if norm else certifier._UNREAD_ROW)
    if cert.primal is not None:
        # every row and the objective at the witness's entries alone, each as in the full program
        x = build.setup.vector_from_dist(cert.primal)
        read = [r for r, row in enumerate(full.rows) if not row.coeffs.keys().isdisjoint(x)]
        pairs = [(lp.objective, full.objective), *((r.coeffs, w.coeffs) for r, w in zip(lp.rows, full.rows))]
        for coeffs, whole in pairs:
            assert coeffs.keys() <= x.keys()
            assert coeffs == {j: c for j, c in whole.items() if j in x}
    else:
        # the rows with a nonzero multiplier, in full
        read = [r for r, y in enumerate(cert.dual) if y]
        assert all(lp.rows[r] == full.rows[r] for r in read) and lp.objective == full.objective
    assert made == read and len(read) < len(full.rows) // 4


def test_size_guard_boundary(secret_bit_e):
    # the guard reads sizes only: a problem on either side of the bound builds no program
    assert CertificationProblem(secret_bit_e, deterministic_family(2, 2, cap=15)).m == 15
    # d + M = 1 + 16 = 17
    over = deterministic_family(2, 2, cap=16)
    refusal = (
        "^d \\+ M = 1 \\+ 16 = 17 exceeds the bound 16: the program would have 2097152 "
        "variables and about 2228224 selector rows$"
    )
    # defining the problem fails first, so a missing guard fails here and builds nothing
    with pytest.raises(SizeGuardError, match=refusal):
        CertificationProblem(secret_bit_e, over)
    with pytest.raises(SizeGuardError, match=refusal):
        certify(secret_bit_e, over)
    # verify refuses the program as certify does, instead of judging the certificate
    from nodistill.certifier import _certificate_digest

    cert = Certificate(UNDISTILLABLE, F(0), HALF, problem_fingerprint(secret_bit_e, over, HALF), dual=())
    with pytest.raises(SizeGuardError, match=refusal):
        verify_certificate(secret_bit_e, over, HALF, replace(cert, digest=_certificate_digest(cert)))
    # the variable count 4 * |A| * |B| * 2^(d + M) may reach what d + M = 16 gives at
    # |A| = |B| = 2, 2^20; at |A| = 4, |B| = 2 that is d + M = 15
    wide = JointDist((Axis("A", 4), Axis("B", 2), Axis("E", 1)), {(0, 0, 0): F(1)})
    assert CertificationProblem(wide, deterministic_family(4, 2, cap=14)).m == 14
    with pytest.raises(SizeGuardError, match=(
        "^\\|A\\| = 4 and \\|B\\| = 2 at d \\+ M = 16: the program would have 2097152 variables, "
        "more than the 1048576 the bound 16 allows$"
    )):
        CertificationProblem(wide, deterministic_family(4, 2, cap=15))


def test_two_copy_projection_pairs_certify_aka(eve_knows_all):
    # deterministic pairs 1863 and 4941 each keep one copy symbol on both
    # sides, output the bit and discard the other copy; together they drive
    # the program's maximum to 0 for the bit the adversary knows fully
    codes = list(itertools.islice(families._det_pairs(2, 2), 4942))
    assert (codes[1863], codes[4941]) == (((0, 2, 1, 2),) * 2, ((2, 0, 2, 1),) * 2)
    fam = MapFamily(pairs=tuple(
        MapPair(families._map_from_code("A", 2, a), families._map_from_code("B", 2, b))
        for a, b in (codes[1863], codes[4941])
    ))
    cert = certify(eve_knows_all, fam)
    assert cert.verdict == UNDISTILLABLE and cert.optimum == 0
    assert cert.digest == "6d3a1e5e8ac82a0bb59e9b3c548808f9a15fa662a08202799e57576f2733750a"
    assert len(cert.dual) == 51
    assert sum(1 for y in cert.dual if y) == 18
    assert verify_certificate(eve_knows_all, fam, HALF, cert)


def test_certificate_json_roundtrip(secret_bit_e):
    fam = deterministic_family(2, 2, cap=2)
    cert = certify(secret_bit_e, fam)
    back = Certificate.loads(cert.dumps())
    assert back == cert
    assert verify_certificate(secret_bit_e, fam, HALF, back)


def test_fingerprint_distinguishes_lambda0(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    assert problem_fingerprint(secret_bit_e, fam, HALF) != problem_fingerprint(
        secret_bit_e, fam, F(2, 3)
    )


# -- spot check ---------------------------------------------------------------------------


def test_spotcheck_on_certified_trivial_g():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    report = activation_spotcheck(trivial_g(), fam, HALF, cert, seed=1, vertices=6, mixtures=6)
    assert report.ok()
    assert report.max_advantage <= 0
    assert report.samples >= 2


def test_spotcheck_sees_zero_advantage_at_the_optimum():
    fam = deterministic_family(1, 1, 1)
    cert = certify(trivial_g(), fam)
    report = activation_spotcheck(trivial_g(), fam, HALF, cert, seed=2)
    assert report.max_advantage == 0


def test_spotcheck_requires_undistillable(secret_bit_e):
    fam = deterministic_family(2, 2, cap=1)
    cert = certify(secret_bit_e, fam)
    with pytest.raises(ValueError, match="undistillable"):
        activation_spotcheck(secret_bit_e, fam, HALF, cert)


# -- end-to-end activation shape ---------------------------------------------------


def test_canonical_witness_activates_private_bit(secret_bit_e):
    """A bounded-shape q can lift a distillable g above 1/2 while every
    family filter stays at or below it."""
    from nodistill.measures import estimate_lambda_max, secret_bit_fraction
    from oracles import lift

    q = canonical_witness_q(secret_bit_e)
    lifted = lift(q, secret_bit_e)
    assert secret_bit_fraction(lifted) == 1
    assert estimate_lambda_max(lifted).value == 1
    for pair in deterministic_family(2, 2, cap=6).pairs:
        assert family_constraint_value(q, pair, HALF) <= 0
