"""Exact rational linear programming: two-phase primal simplex with certificates.

Problems are maximizations over x >= 0 with rows of sense "<=" or "=".
Arithmetic is exact throughout, so an OPTIMAL result comes with an exactly
feasible primal point and an exactly feasible dual vector whose bound equals
the primal objective.  `row_violation` and `dual_violation` are the one
primal and the one dual checker of the package; they work on
`fractions.Fraction`, and `check_solution` uses them to re-verify all of
that independently of the solver.

The tableau keeps each row as Python int numerators over one positive row
denominator and updates it by fraction-free pivoting (Bareiss, Math. Comp.
22, 1968), dividing out each changed row's content; `Fraction` appears only
where rows come in and where the primal, dual and objective go out.  Rows
are stored sparsely (dict per row plus a column index) because the
certification LPs are large but very sparse.  Pivot selection is
deterministic and depends only on the exact rational values: the default
rule takes the most-negative reduced cost and falls back to Bland's
least-index rule during long degenerate stalls, which keeps the method
finite; `rule="bland"` forces pure Bland pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .rat import ensure_fraction, format_rational

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

SENSE_LE = "<="
SENSE_EQ = "="

# Pivots of the default rule allowed without objective progress before
# switching to Bland's rule (switching back once the objective moves).
_STALL_LIMIT = 60

_ZERO = Fraction(0)


class PivotBudgetExceeded(RuntimeError):
    """Raised when the pivot budget runs out; never a silent wrong answer."""


@dataclass(frozen=True)
class LpRow:
    coeffs: Mapping[int, Fraction]
    sense: str
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in (SENSE_LE, SENSE_EQ):
            raise ValueError(f"row sense must be '<=' or '=', got {self.sense!r}")
        object.__setattr__(
            self,
            "coeffs",
            {int(j): ensure_fraction(c) for j, c in dict(self.coeffs).items() if c != 0},
        )
        object.__setattr__(self, "rhs", ensure_fraction(self.rhs))


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to rows, x >= 0."""

    num_vars: int
    objective: Mapping[int, Fraction]
    rows: tuple[LpRow, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "objective",
            {int(j): ensure_fraction(c) for j, c in dict(self.objective).items() if c != 0},
        )
        object.__setattr__(self, "rows", tuple(self.rows))
        for j in self.objective:
            if not (0 <= j < self.num_vars):
                raise ValueError(f"objective references variable {j} out of range")
        for r, row in enumerate(self.rows):
            for j in row.coeffs:
                if not (0 <= j < self.num_vars):
                    raise ValueError(f"row {r} references variable {j} out of range")


@dataclass
class LpSolution:
    status: str
    primal: list[Fraction] = field(default_factory=list)
    objective_value: Fraction = Fraction(0)
    dual: list[Fraction] = field(default_factory=list)
    pivots: tuple[int, int] = (0, 0)  # (phase 1, phase 2); kept out of certificates


class _Tableau:
    """Sparse simplex tableau over integer rows.

    Row r holds integer numerators `rows[r]` and `rhs[r]` over one positive
    row denominator `den[r]`; the rational row is rows[r] / den[r].  Its basic
    variable has numerator den[r], i.e. coefficient 1.  The reduced costs
    z_j - c_j are the numerators `red` over one shared positive denominator
    `red_den`, and the objective value of the basis is `obj` / `red_den`.

    A pivot keeps the pivot row's numerators and makes the pivot numerator
    its denominator, then clears the pivot column from every other row with
    `_eliminate`.  The represented rationals are those of a Fraction
    tableau, so pivot choices, which depend only on them, are too: the
    entering column compares numerators over the shared positive
    denominator, and the ratio test compares rhs/a by cross-multiplication.
    """

    def __init__(self, problem: LpProblem):
        self.n = problem.num_vars
        m = len(problem.rows)
        self.m = m
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.sigma: list[int] = []  # -1 where the original row was negated
        senses = []
        for row in problem.rows:
            den = lcm(row.rhs.denominator, *(c.denominator for c in row.coeffs.values()))
            coeffs = {j: c.numerator * (den // c.denominator) for j, c in row.coeffs.items()}
            rhs = row.rhs.numerator * (den // row.rhs.denominator)
            sense = row.sense
            sig = 1
            if rhs < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                rhs = -rhs
                sense = ">=" if sense == SENSE_LE else SENSE_EQ
                sig = -1
            self.rows.append(coeffs)
            self.rhs.append(rhs)
            self.den.append(den)
            self.sigma.append(sig)
            senses.append(sense)

        self.basis: list[int] = [0] * m
        self.init_col: list[int] = [0] * m
        self.artificial: set[int] = set()
        next_col = self.n
        for r, sense in enumerate(senses):
            den = self.den[r]
            if sense == SENSE_LE:
                j = next_col
                next_col += 1
                self.rows[r][j] = den
                self.basis[r] = j
                self.init_col[r] = j
            elif sense == ">=":
                js = next_col
                ja = next_col + 1
                next_col += 2
                self.rows[r][js] = -den
                self.rows[r][ja] = den
                self.basis[r] = ja
                self.init_col[r] = ja
                self.artificial.add(ja)
            else:
                ja = next_col
                next_col += 1
                self.rows[r][ja] = den
                self.basis[r] = ja
                self.init_col[r] = ja
                self.artificial.add(ja)
        self.total_cols = next_col

        self.col_rows: dict[int, set[int]] = {}
        for r, row in enumerate(self.rows):
            for j in row:
                self.col_rows.setdefault(j, set()).add(r)

        self.red: dict[int, int] = {}
        self.red_den = 1
        self.obj = 0
        self.pivots = 0

    # -- reduced costs ----------------------------------------------------

    def set_costs(self, costs: Mapping[int, Fraction]):
        """Recompute reduced costs z_j - c_j and the objective value."""
        basic = [(r, costs[self.basis[r]]) for r in range(self.m) if costs.get(self.basis[r])]
        d = lcm(
            *(c.denominator for c in costs.values()),
            *(cb.denominator * self.den[r] for r, cb in basic),
        )
        red = {j: -c.numerator * (d // c.denominator) for j, c in costs.items() if c}
        obj = 0
        for r, cb in basic:
            mult = cb.numerator * (d // (cb.denominator * self.den[r]))
            obj += mult * self.rhs[r]
            for j, a in self.rows[r].items():
                s = red.get(j, 0) + mult * a
                if s:
                    red[j] = s
                elif j in red:
                    del red[j]
        g = gcd(d, obj, *red.values())
        self.red = {j: v // g for j, v in red.items()}
        self.red_den = d // g
        self.obj = obj // g

    # -- pivoting ---------------------------------------------------------

    def pivot(self, r: int, j: int):
        prow = self.rows[r]
        p = prow[j]
        pb = self.rhs[r]
        if p < 0:
            for k, v in prow.items():
                prow[k] = -v
            p, pb = -p, -pb
        g = gcd(pb, *prow.values())
        if g > 1:
            for k, v in prow.items():
                prow[k] = v // g
            p //= g
            pb //= g
        self.rhs[r] = pb
        self.den[r] = p
        for rr in self.col_rows[j] - {r}:
            self.rhs[rr], self.den[rr] = _eliminate(
                self.rows[rr], self.rhs[rr], self.den[rr], j, prow, pb, rr, self.col_rows
            )
        if j in self.red:
            self.obj, self.red_den = _eliminate(self.red, self.obj, self.red_den, j, prow, pb)
        self.basis[r] = j
        self.pivots += 1

    def run(self, eligible, budget: int, rule: str) -> str:
        """Pivot until optimal or unbounded; returns OPTIMAL or UNBOUNDED."""
        stall = 0
        bland = rule == "bland"
        rows, rhs, basis = self.rows, self.rhs, self.basis
        while True:
            entering = None
            if bland or stall > _STALL_LIMIT:
                for j, v in self.red.items():
                    if v < 0 and eligible(j) and (entering is None or j < entering):
                        entering = j
            else:
                best = None
                for j, v in self.red.items():
                    if v < 0 and eligible(j):
                        key = (v, j)
                        if best is None or key < best:
                            best = key
                            entering = j
            if entering is None:
                return OPTIMAL
            # ratio test: least rhs/a over a > 0, ties to the least basic
            # index; rows share no denominator, but rhs/a is the ratio of
            # numerators, compared by cross-multiplication
            leaving = None
            for r in self.col_rows.get(entering, ()):
                a = rows[r][entering]
                if a > 0:
                    b = rhs[r]
                    if leaving is not None:
                        lhs, rhs_best = b * best_a, best_b * a
                        if lhs > rhs_best or (lhs == rhs_best and basis[r] > basis[leaving]):
                            continue
                    leaving, best_a, best_b = r, a, b
            if leaving is None:
                return UNBOUNDED
            if self.pivots >= budget:
                raise PivotBudgetExceeded(
                    f"pivot budget {budget} exhausted after {self.pivots} pivots"
                )
            degenerate = best_b == 0
            self.pivot(leaving, entering)
            if not bland:
                stall = stall + 1 if degenerate else 0


def _eliminate(row, b, d, j, prow, pb, r=None, col_rows=None):
    """Clear column j of one integer row against the pivot row.

    `row` and `b` are numerators over the positive denominator `d`; the pivot
    row `prow`, `pb` is over its own pivot entry p = prow[j].  The row
    becomes (row * p/c - f/c * prow) over d * p/c, with f = row[j] and
    c = gcd(f, p), so when p divides f only the pivot row's columns change.
    A scaled row has its content divided out.  `col_rows`, when given,
    records the columns row r occupies.  Returns the new (b, d).
    """
    p = prow[j]
    f = row[j]
    c = gcd(f, p)
    q = f // c
    s = p // c
    if s != 1:
        for k, v in row.items():
            row[k] = v * s
        b *= s
        d *= s
    for k, pv in prow.items():
        cur = row.get(k)
        if cur is None:
            row[k] = -q * pv
            if col_rows is not None:
                col_rows[k].add(r)
        else:
            nv = cur - q * pv
            if nv:
                row[k] = nv
            else:
                del row[k]
                if col_rows is not None:
                    col_rows[k].discard(r)
    b -= q * pb
    if s != 1:
        g = gcd(d, b, *row.values())
        if g > 1:
            for k, v in row.items():
                row[k] = v // g
            b //= g
            d //= g
    return b, d


def solve(problem: LpProblem, pivot_budget: int = 200_000, rule: str = "hybrid") -> LpSolution:
    """Solve exactly; statuses INFEASIBLE/UNBOUNDED are results, not errors.

    OPTIMAL solutions carry the primal point, exact objective value and one
    dual multiplier per input row (valid for the rows exactly as given).
    Every result carries its pivot counts as (phase 1, phase 2); phase 1
    includes the pivots that drive basic artificials out of the basis.
    """
    if rule not in ("hybrid", "bland"):
        raise ValueError(f"unknown pivot rule {rule!r}")
    t = _Tableau(problem)

    if t.artificial:
        costs1 = {j: Fraction(-1) for j in t.artificial}
        t.set_costs(costs1)
        # artificials start basic; once out they never re-enter
        status = t.run(lambda j: j not in t.artificial, pivot_budget, rule)
        if status != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded; solver invariant broken")
        if t.obj != 0:
            return LpSolution(status=INFEASIBLE, pivots=(t.pivots, 0))
        for r in range(t.m):
            if t.basis[r] in t.artificial:
                target = None
                for j in t.rows[r]:
                    if j not in t.artificial and (target is None or j < target):
                        target = j
                if target is not None:
                    t.pivot(r, target)
                # else: row is redundant; its artificial stays basic at zero
    phase1 = t.pivots

    t.set_costs(problem.objective)
    status = t.run(lambda j: j not in t.artificial, pivot_budget, rule)
    pivots = (phase1, t.pivots - phase1)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, pivots=pivots)

    primal = [_ZERO] * t.n
    for r in range(t.m):
        if t.basis[r] < t.n:
            primal[t.basis[r]] = Fraction(t.rhs[r], t.den[r])
    dual = []
    for r in range(t.m):
        w = t.red.get(t.init_col[r], 0)
        dual.append(Fraction(w if t.sigma[r] == 1 else -w, t.red_den))
    return LpSolution(
        status=OPTIMAL,
        primal=primal,
        objective_value=Fraction(t.obj, t.red_den),
        dual=dual,
        pivots=pivots,
    )


def dot(coeffs: Mapping[int, Fraction], x: Sequence[Fraction]) -> Fraction:
    """sum_j coeffs[j] * x[j], exactly."""
    return sum((c * x[j] for j, c in coeffs.items()), _ZERO)


def row_violation(problem: LpProblem, x: Sequence[Fraction]) -> tuple[int, Fraction] | None:
    """The first row the point x violates, as (row index, left-hand side).

    Returns None when x satisfies every row; the sign of x is not checked.
    """
    for r, row in enumerate(problem.rows):
        lhs = dot(row.coeffs, x)
        if lhs > row.rhs if row.sense == SENSE_LE else lhs != row.rhs:
            return r, lhs
    return None


def dual_violation(
    problem: LpProblem, y: Sequence[Fraction]
) -> tuple[str, int, Fraction, Fraction] | None:
    """The first violated dual condition for one multiplier per row, or None.

    Each "<=" row's multiplier must be non-negative; a violation is returned
    as ("row", r, y_r, 0).  Then, for each variable j, the column sum
    sum_r y_r a_rj must reach the objective coefficient c_j; a violation is
    returned as ("variable", j, column sum, c_j).  Columns are scanned in the
    objective's order, then the other columns in order of first appearance,
    so the reported violation is fixed by the problem.
    """
    for r, (row, yr) in enumerate(zip(problem.rows, y)):
        if row.sense == SENSE_LE and yr < 0:
            return "row", r, yr, _ZERO
    col_sums: dict[int, Fraction] = {}
    for row, yr in zip(problem.rows, y):
        if yr == 0:
            continue
        for j, c in row.coeffs.items():
            col_sums[j] = col_sums.get(j, _ZERO) + yr * c
    for j, c in problem.objective.items():
        total = col_sums.get(j, _ZERO)
        if total < c:
            return "variable", j, total, c
    for j, total in col_sums.items():
        if j not in problem.objective and total < 0:
            return "variable", j, total, _ZERO
    return None


def check_solution(problem: LpProblem, sol: LpSolution) -> bool:
    """Certify an OPTIMAL solution independently of the solver.

    Checks exact primal feasibility, dual sign conditions and feasibility,
    and that the primal objective equals the dual bound.  Returns False on
    the first violation; non-OPTIMAL statuses are not certified.
    """
    if sol.status != OPTIMAL:
        return False
    if len(sol.primal) != problem.num_vars or len(sol.dual) != len(problem.rows):
        return False
    if any(x < 0 for x in sol.primal):
        return False
    if row_violation(problem, sol.primal) is not None:
        return False
    if dual_violation(problem, sol.dual) is not None:
        return False
    dual_bound = sum((y * row.rhs for row, y in zip(problem.rows, sol.dual)), _ZERO)
    return dot(problem.objective, sol.primal) == sol.objective_value == dual_bound


# -- text dump for external cross-checking ----------------------------------


def dump_lp(problem: LpProblem) -> str:
    """Line-oriented text form: vars, objective, then one row per line."""
    lines = [f"vars {problem.num_vars}"]
    obj = " ".join(
        f"{j}:{format_rational(c)}" for j, c in sorted(problem.objective.items())
    )
    lines.append(f"max {obj}".rstrip())
    for row in problem.rows:
        terms = " ".join(f"{j}:{format_rational(c)}" for j, c in sorted(row.coeffs.items()))
        lines.append(f"row {terms} {row.sense} {format_rational(row.rhs)}".replace("  ", " "))
    return "\n".join(lines) + "\n"

