import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

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
)

from oracles import parse_lp


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
