import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodistill import ratlp
from nodistill.ratlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    LpRow,
    LpSolution,
    PivotBudgetExceeded,
    check_solution,
    dump_lp,
    solve,
    violation,
)

from oracles import dual_violation, parse_lp, primal_violation


def lp(num_vars, objective, rows):
    return LpProblem(
        num_vars=num_vars,
        objective=objective,
        rows=tuple(LpRow(c, s, r) for c, s, r in rows),
    )


# -- worked examples -------------------------------------------------------------


def test_single_bound():
    p = lp(1, {0: 1}, [({0: 1}, "<=", 3)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.primal == [F(3)]
    assert s.objective_value == 3
    assert s.dual == [F(1)]
    assert check_solution(p, s)


def test_infeasible_negative_bound():
    p = lp(1, {0: 1}, [({0: 1}, "<=", -1)])
    assert solve(p).status == INFEASIBLE


def test_two_variable_vertex():
    p = lp(2, {0: 1, 1: 1}, [({0: 1, 1: 2}, "<=", 4), ({0: 3, 1: 1}, "<=", 6)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective_value == F(14, 5)
    assert s.primal == [F(8, 5), F(6, 5)]
    assert check_solution(p, s)


def test_unbounded():
    p = lp(2, {0: 1}, [({1: 1}, "<=", 5)])
    assert solve(p).status == UNBOUNDED


def test_equality_rows():
    p = lp(2, {0: 2, 1: 1}, [({0: 1, 1: 1}, "=", 1)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective_value == 2
    assert check_solution(p, s)


def test_negative_rhs_equality():
    # -x - y = -1 is x + y = 1 after normalization
    p = lp(2, {0: 1}, [({0: -1, 1: -1}, "=", -1)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.objective_value == 1
    assert check_solution(p, s)


# -- check_solution rejects tampering ----------------------------------------------


def test_check_rejects_wrong_objective():
    p = lp(1, {0: 1}, [({0: 1}, "<=", 3)])
    s = solve(p)
    bad = LpSolution(OPTIMAL, s.primal, s.objective_value + F(1, 7), s.dual)
    assert not check_solution(p, bad)


def test_check_rejects_negative_dual_on_le_row():
    p = lp(1, {0: 1}, [({0: 1}, "<=", 3), ({0: 1}, "<=", 5)])
    s = solve(p)
    bad = LpSolution(OPTIMAL, s.primal, s.objective_value, [s.dual[0], F(-1, 1000)])
    assert not check_solution(p, bad)


def test_check_rejects_infeasible_primal():
    p = lp(1, {0: 1}, [({0: 1}, "<=", 3)])
    s = solve(p)
    bad = LpSolution(OPTIMAL, [F(7, 2)], s.objective_value, s.dual)
    assert not check_solution(p, bad)


@pytest.mark.parametrize(
    "primal, dual",
    [
        ([F(-1), F(2)], [F(1)]),
        ([F(1), F(0), F(5)], [F(1)]),
        ([F(1), F(0)], [F(1), F(0)]),
    ],
    ids=["negative-primal", "primal-length", "dual-length"],
)
def test_check_rejects_malformed_point(primal, dual):
    # max x + y s.t. x + y <= 1 has optimum 1 and dual [1]; each point keeps
    # the row, the dual columns and the objective balanced, and breaks only
    # the sign of x or the length of one vector
    p = lp(2, {0: 1, 1: 1}, [({0: 1, 1: 1}, "<=", 1)])
    assert check_solution(p, LpSolution(OPTIMAL, [F(1), F(0)], F(1), [F(1)]))
    assert not check_solution(p, LpSolution(OPTIMAL, primal, F(1), dual))


# max x0 + x1 subject to row 0, x0 + x1 <= 1, and row 1, x0 - x1 + x2 = 0.  The
# optimum 1 is at x = (1/2, 1/2, 0) with dual (1, 0); x2 is outside the objective.
CHECKED = lp(3, {0: 1, 1: 1}, [({0: 1, 1: 1}, "<=", 1), ({0: 1, 1: -1, 2: 1}, "=", 0)])


@pytest.mark.parametrize(
    "x, y, failure",
    [
        ({0: F(1, 2), 1: F(1, 2)}, [F(1), F(0)], None),
        ({0: F(-1, 2), 1: F(1, 2)}, None, ("entry", 0, F(-1, 2), 0)),
        ({0: F(1)}, None, ("row", 1, F(1), F(0))),
        ({0: F(1), 1: F(1)}, None, ("row", 0, F(2), F(1))),
        ({0: F(1, 4), 1: F(1, 4)}, None, ("objective", None, F(1, 2), F(1))),
        (None, [F(1)], ("length", None, 1, 2)),
        (None, [F(-1), F(0)], ("multiplier", 0, F(-1), 0)),
        (None, [F(1), F(1)], ("column", 1, F(0), F(1))),
        (None, [F(2), F(-1)], ("column", 2, F(-1), F(0))),
        (None, [F(2), F(0)], ("bound", None, F(2), F(1))),
        ({0: F(1, 4), 1: F(1, 4)}, [F(2), F(0)], ("objective", None, F(1, 2), F(1))),
    ],
    ids=["optimal", "entry", "eq-row", "le-row", "objective", "length", "multiplier",
         "column", "column-outside-objective", "bound", "x-before-y"],
)
def test_violation_names_the_first_failed_condition(x, y, failure):
    assert violation(CHECKED, F(1), x=x, y=y) == failure


@pytest.mark.parametrize(
    "primal, value, dual",
    [([F(1, 4), F(1, 4), F(0)], F(1), [F(1), F(0)]), ([F(1, 2), F(1, 2), F(0)], F(1), [F(2), F(0)])],
    ids=["objective-only", "bound-only"],
)
def test_check_needs_objective_and_bound_equal_to_the_value(primal, value, dual):
    # each solution fails exactly one of c.x == value and y.rhs == value
    assert check_solution(CHECKED, LpSolution(OPTIMAL, [F(1, 2), F(1, 2), F(0)], F(1), [F(1), F(0)]))
    assert not check_solution(CHECKED, LpSolution(OPTIMAL, primal, value, dual))


@pytest.mark.parametrize("j", [2, -1])
def test_row_variable_out_of_range_rejected(j):
    with pytest.raises(ValueError, match=f"row 1 references variable {j} out of range"):
        lp(2, {0: 1}, [({0: 1}, "<=", 1), ({j: 1}, "<=", 1)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: LpRow({0: 0.5}, "<=", 1),
        lambda: LpRow({0: True}, "<=", 1),
        lambda: LpRow({0: 1}, "<=", 1.0),
        lambda: LpRow({0: 1}, "=", False),
        lambda: LpProblem(num_vars=1, objective={0: 0.5}, rows=()),
    ],
    ids=["float-coefficient", "bool-coefficient", "float-rhs", "bool-rhs", "float-objective"],
)
def test_lp_rows_refuse_floats_and_bools(make):
    with pytest.raises(ValueError, match="float|bool"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LpRow({0: 1}, ">=", 1), "row sense must be '<=' or '=', got '>='"),
        (lambda: LpProblem(num_vars=2, objective={2: 1}, rows=()),
         "objective references variable 2 out of range"),
    ],
    ids=["sense", "objective-index"],
)
def test_lp_refuses_a_bad_sense_or_objective_index(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: LpRow({1.5: 1}, "<=", 0), "1.5"),
        (lambda: LpRow({True: 1}, "<=", 0), "True"),
        (lambda: LpRow({0: 1, 1.0: 0}, "=", 0), "1.0"),
        (lambda: LpProblem(num_vars=2, objective={0.7: 1}, rows=()), "0.7"),
    ],
    ids=["float-key", "bool-key", "zero-valued-float-key", "float-objective-key"],
)
def test_lp_rows_refuse_non_int_keys(make, key):
    # int() would cut 1.5 and True down to variable 1, and 0.7 to variable 0
    with pytest.raises(ValueError, match=f"^variable index must be an int, got {key}$"):
        make()


def test_lp_row_keeps_ints_and_fractions():
    row = LpRow({0: 2, 1: F(1, 2), 2: "3/4", 3: 0}, "<=", 0)
    assert row.coeffs == {0: 2, 1: F(1, 2), 2: F(3, 4)}
    assert [type(c) for c in row.coeffs.values()] == [int, F, F]
    assert type(row.rhs) is int


@pytest.mark.parametrize(
    "coeffs",
    [{1: 0.5}, {1: True}, {1: "junk"}, {"x": 1}],
    ids=["float", "bool", "junk-string", "non-int-key"],
)
def test_int_rows_are_refused_like_fraction_rows(coeffs):
    # an int row takes a one-pass type test; a bad entry among ints must
    # still get the message it gets among Fractions
    messages = []
    for first in (2, F(2)):
        with pytest.raises(ValueError) as exc:
            LpRow({0: first, **coeffs}, "<=", 0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("coeffs, j", [({0: 1, 5: 1, -1: 1}, 5), ({-1: 1, 0: 1, 5: 1}, -1)])
def test_int_rows_name_their_first_variable_out_of_range(coeffs, j):
    for make in (int, F):
        row = LpRow({k: make(c) for k, c in coeffs.items()}, "<=", 0)
        with pytest.raises(ValueError, match=f"^row 1 references variable {j} out of range$"):
            LpProblem(num_vars=2, objective={0: 1}, rows=(LpRow({0: 1}, "<=", 1), row))


def test_int_rows_drop_zeros():
    row = LpRow({0: 2, 1: 0, 2: -3}, "=", 1)
    assert row.coeffs == {0: 2, 2: -3}
    assert [type(c) for c in row.coeffs.values()] == [int, int]
    problem = LpProblem(num_vars=3, objective={0: F(1), 1: F(0), 2: F(2)}, rows=(row,))
    assert problem.objective == {0: 1, 2: 2}
    assert [type(c) for c in problem.objective.values()] == [F, F]


def test_dot_walks_either_side():
    assert ratlp.dot({0: F(2), 5: F(3)}, {5: F(1, 3)}) == 1
    assert ratlp.dot({5: F(1, 3)}, {0: F(2), 5: F(3), 7: F(1)}) == 1
    assert ratlp.dot({}, {0: F(1)}) == 0


# -- the dual check against its Fraction oracle ---------------------------------

_VALUES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
_MOSTLY = st.sampled_from([True] * 4 + [False])


@st.composite
def dual_checks(draw):
    """A problem of int and Fraction rows, a value and multipliers to check.

    The objective sits at, below or above each drawn column's sum, and the
    value at or off the bound, so every kind of result comes up.
    """
    n = draw(st.integers(1, 4))
    rows = tuple(
        LpRow(draw(st.dictionaries(st.integers(0, n - 1), _VALUES, max_size=n)),
              draw(st.sampled_from(["<=", "="])), draw(_VALUES))
        for _ in range(draw(st.integers(1, 5)))
    )
    y = [draw(st.one_of(st.just(F(0)), _VALUES)) for _ in rows]
    # most "<=" multipliers are made non-negative, or the sign check would
    # end nearly every draw
    y = [abs(yr) if row.sense == "<=" and draw(_MOSTLY) else yr for row, yr in zip(rows, y)]
    sums: dict[int, F] = {}
    for row, yr in zip(rows, y):
        for j, c in row.coeffs.items():
            sums[j] = sums.get(j, F(0)) + yr * c
    objective = {
        j: sums.get(j, F(0)) + draw(st.sampled_from([0, 0, -1, F(1, 7)]))
        for j in draw(st.sets(st.integers(0, n - 1)))
    }
    value = sum((yr * row.rhs for row, yr in zip(rows, y)), F(0)) + draw(st.sampled_from([0, 0, F(1, 3)]))
    if not draw(_MOSTLY):
        y = y[:-1]
    return LpProblem(num_vars=n, objective=objective, rows=rows), value, y


@given(dual_checks())
@settings(max_examples=300, deadline=None)
@example(
    # the product 1/2 * 1/2 has denominator 4, more than the lcm of its parts
    (LpProblem(num_vars=2, objective={0: F(1, 3)}, rows=(LpRow({0: F(1, 2), 1: 1}, "=", 0),)),
     F(0), [F(1, 2)]),
)
@example(
    # an int and a Fraction coefficient in one row, and a negative multiplier on an "=" row
    (LpProblem(num_vars=2, objective={1: F(1, 3)},
               rows=(LpRow({0: 1, 1: F(1, 3)}, "<=", 1), LpRow({1: F(2, 3)}, "=", 0))),
     F(1, 2), [F(1, 2), F(-1, 6)]),
)
def test_dual_check_matches_the_fraction_oracle(case):
    problem, value, y = case
    assert violation(problem, value, y=y) == dual_violation(problem, value, y)


@st.composite
def primal_checks(draw):
    """A problem of int and Fraction rows, a point by its nonzero entries, and a value.

    The point holds at most two of up to six variables, so many rows miss
    its support, and a row's rhs is as often negative as not.
    """
    n = draw(st.integers(1, 6))
    x = draw(st.dictionaries(st.integers(0, n - 1), _VALUES.filter(bool), max_size=2))
    if draw(_MOSTLY):
        x = {j: abs(v) for j, v in x.items()}
    rows = tuple(
        LpRow(draw(st.dictionaries(st.integers(0, n - 1), _VALUES, max_size=3)),
              draw(st.sampled_from(["<=", "="])), draw(_VALUES))
        for _ in range(draw(st.integers(1, 5)))
    )
    objective = draw(st.dictionaries(st.integers(0, n - 1), _VALUES, max_size=n))
    value = ratlp.dot(objective, x) + draw(st.sampled_from([0, 0, F(1, 3)]))
    return LpProblem(num_vars=n, objective=objective, rows=rows), value, x


@given(primal_checks())
@settings(max_examples=300, deadline=None)
@example(
    # the second row misses the point's support, so its lhs is 0, above its rhs
    (LpProblem(num_vars=2, objective={0: 1},
               rows=(LpRow({0: 1}, "<=", 1), LpRow({1: 2}, "<=", -1))),
     F(1, 2), {0: F(1, 2)}),
)
@example(
    # an "=" row the support misses, with a nonzero rhs
    (LpProblem(num_vars=3, objective={}, rows=(LpRow({2: F(1, 3)}, "=", F(1, 4)),)),
     F(0), {0: F(1), 1: F(2)}),
)
def test_primal_check_matches_the_every_row_oracle(case):
    problem, value, x = case
    assert repr(violation(problem, value, x=x)) == repr(primal_violation(problem, value, x))


# -- determinism, scaling, budget ----------------------------------------------------


def test_deterministic_bit_for_bit():
    rng = random.Random(0)
    p = random_problem(rng)
    a, b = solve(p), solve(p)
    assert (a.status, a.primal, a.objective_value, a.dual) == (
        b.status,
        b.primal,
        b.objective_value,
        b.dual,
    )


def test_row_scaling_keeps_primal_and_objective():
    p = lp(2, {0: 1, 1: 1}, [({0: 1, 1: 2}, "<=", 4), ({0: 3, 1: 1}, "<=", 6)])
    scaled = lp(
        2,
        {0: 1, 1: 1},
        [({0: F(2, 3), 1: F(4, 3)}, "<=", F(8, 3)), ({0: 21, 1: 7}, "<=", 42)],
    )
    s, t = solve(p), solve(scaled)
    assert s.primal == t.primal
    assert s.objective_value == t.objective_value
    assert check_solution(scaled, t)


def test_pivot_budget_aborts_loudly(monkeypatch):
    p = lp(2, {0: 1, 1: 1}, [({0: 1, 1: 2}, "<=", 4), ({0: 3, 1: 1}, "<=", 6)])
    monkeypatch.setattr(ratlp, "_PIVOT_BUDGET", 0)
    with pytest.raises(PivotBudgetExceeded):
        solve(p)


def _pure_bland(monkeypatch):
    # stall starts at 0, so a limit of -1 makes every pivot a Bland pivot
    monkeypatch.setattr(ratlp, "_STALL_LIMIT", -1)


def test_bland_rule_agrees(monkeypatch):
    rng = random.Random(1)
    problems = [random_problem(rng) for _ in range(30)]
    default = [solve(p) for p in problems]
    _pure_bland(monkeypatch)
    for p, a in zip(problems, default):
        b = solve(p)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective_value == b.objective_value


# -- brute-force oracle ----------------------------------------------------------------


def solve_linear(a_rows, b_vec):
    """Gaussian elimination over Fractions; None if singular/inconsistent."""
    n = len(b_vec)
    m = [list(row) + [b] for row, b in zip(a_rows, b_vec)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def feasible_points(num_vars, rows):
    """All basic feasible points: vertices of {rows hold, x >= 0}."""
    cands = [("row", i) for i in range(len(rows))] + [("var", j) for j in range(num_vars)]
    points = []
    for subset in itertools.combinations(cands, num_vars):
        a_rows, b_vec = [], []
        for kind, i in subset:
            if kind == "row":
                coeffs, _, rhs = rows[i]
                a_rows.append([coeffs.get(j, F(0)) for j in range(num_vars)])
                b_vec.append(rhs)
            else:
                a_rows.append([F(int(j == i)) for j in range(num_vars)])
                b_vec.append(F(0))
        x = solve_linear(a_rows, b_vec)
        if x is None:
            continue
        if all(xi >= 0 for xi in x) and all(
            (
                sum((c * x[j] for j, c in coeffs.items()), F(0)) <= rhs
                if sense == "<="
                else sum((c * x[j] for j, c in coeffs.items()), F(0)) == rhs
            )
            for coeffs, sense, rhs in rows
        ):
            points.append(x)
    return points


def brute_force(problem: LpProblem):
    """Status and optimum by pure enumeration; independent of any pivoting."""
    rows = [(dict(r.coeffs), r.sense, r.rhs) for r in problem.rows]
    points = feasible_points(problem.num_vars, rows)
    if not points:
        return INFEASIBLE, None
    # unbounded iff some normalized recession direction improves the objective
    dir_rows = [(c, "<=" if s == "<=" else "=", F(0)) for c, s, _ in rows]
    dir_rows.append(({j: F(1) for j in range(problem.num_vars)}, "=", F(1)))
    directions = feasible_points(problem.num_vars, dir_rows)
    obj = lambda x: sum((c * x[j] for j, c in problem.objective.items()), F(0))  # noqa: E731
    if any(obj(d) > 0 for d in directions):
        return UNBOUNDED, None
    return OPTIMAL, max(obj(x) for x in points)


def random_problem(rng: random.Random, max_vars: int = 3) -> LpProblem:
    n = rng.randint(1, max_vars)
    n_rows = rng.randint(1, 5)
    rows = []
    for _ in range(n_rows):
        coeffs = {
            j: F(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(n)
            if rng.random() < 0.8
        }
        sense = "<=" if rng.random() < 0.8 else "="
        rhs = F(rng.randint(-4, 6), rng.randint(1, 3))
        rows.append(LpRow(coeffs, sense, rhs))
    objective = {j: F(rng.randint(-3, 5), rng.randint(1, 2)) for j in range(n)}
    return LpProblem(num_vars=n, objective=objective, rows=tuple(rows))


@pytest.mark.parametrize("seed", range(4))
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(40):
        p = random_problem(rng)
        want_status, want_value = brute_force(p)
        s = solve(p)
        assert s.status == want_status
        if want_status == OPTIMAL:
            assert s.objective_value == want_value
            assert check_solution(p, s)


def _general_lp_digest():
    out = []
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(40):
            s = solve(random_problem(rng))
            out.append((s.status, s.primal, s.objective_value, s.dual, s.pivots))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_general_lp_solutions_pinned(monkeypatch):
    """160 general programs: 35 optimal, 101 infeasible, 24 unbounded.

    Unlike certification programs they have "<=" rows with negative rhs, so
    surplus and artificial columns; every pivot, primal and dual is pinned
    under the default column rule and under pure Bland.
    """
    assert _general_lp_digest() == (
        "befd7ed5b6ef0baecfcee2b6aa7d2b5d66dca997a05642e51f3eb3aed906425f"
    )
    _pure_bland(monkeypatch)
    assert _general_lp_digest() == (
        "e06779b365a5beb5e0a976487fd960d01ad02a5ec1b7ff4cc2a545f4847816b1"
    )


def test_redundant_equality_row_pinned():
    """A redundant "=" row keeps its artificial basic, at zero, into phase 2."""
    cases = [
        (
            lp(2, {0: 1}, [({0: 1, 1: 1}, "=", 1), ({0: 2, 1: 2}, "=", 2)]),
            ([F(1), F(0)], F(1), [F(1), F(0)], (1, 0)),
        ),
        (
            lp(
                3,
                {0: F(1, 2), 2: 1},
                [
                    ({0: 1, 1: 1, 2: 1}, "=", 1),
                    ({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, "=", F(1, 3)),
                    ({0: 1}, "<=", F(1, 2)),
                ],
            ),
            ([F(0), F(0), F(1)], F(1), [F(1), F(0), F(0)], (2, 2)),
        ),
    ]
    for p, want in cases:
        s = solve(p)
        assert s.status == OPTIMAL
        assert (s.primal, s.objective_value, s.dual, s.pivots) == want
        assert check_solution(p, s)


def test_matches_brute_force_four_vars():
    rng = random.Random(41)
    for _ in range(25):
        p = random_problem(rng, max_vars=4)
        want_status, want_value = brute_force(p)
        s = solve(p)
        assert s.status == want_status
        if want_status == OPTIMAL:
            assert s.objective_value == want_value
            assert check_solution(p, s)


# -- dump format --------------------------------------------------------------------


def test_dump_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        p = random_problem(rng)
        assert parse_lp(dump_lp(p)) == p


def test_dump_is_line_oriented():
    p = lp(2, {0: F(1, 2)}, [({1: F(-2, 3)}, "<=", F(1))])
    text = dump_lp(p)
    lines = text.splitlines()
    assert lines[0] == "vars 2"
    assert lines[1] == "max 0:1/2"
    assert lines[2] == "row 1:-2/3 <= 1/1"
