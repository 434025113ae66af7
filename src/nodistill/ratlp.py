"""Exact rational linear programming: two-phase primal simplex with certificates.

Problems are maximizations over x >= 0 with rows of sense "<=" or "=".
Arithmetic is exact throughout, so an OPTIMAL result comes with an exactly
feasible primal point and an exactly feasible dual vector whose bound equals
the primal objective.  `violation` is the package's one optimality checker:
exactly, independently of the solver, it tests a point given by its nonzero
entries and one multiplier per row against the rows and a claimed optimum,
and names the first condition that fails; its column sums are ints over one
common denominator.  `check_solution` runs it on a solve's result, and
certificate verification on a certificate.

The tableau is the augmented matrix [A | b] (Dantzig, Linear Programming
and Extensions, 1963): each row is Python int numerators over the row's own
basic entry, its right-hand side one more column, and the objective one
more row, z - c.x = 0.  Every row is updated alike, as one dict, by
fraction-free pivoting (Bareiss, Math. Comp. 22, 1968), and one helper
divides out each changed row's content.  `Fraction` appears only where
rational rows come in and where the primal, dual and objective go out; an
int row is taken as it is.  Rows are stored sparsely, one dict per row, because the
certification LPs are large but very sparse; there is no column index, and
the rows holding a column are found by scanning the rows.  Pivot selection
is deterministic and depends only on the exact rational values: the
entering column has the most-negative reduced cost, falling back to Bland's
least-index rule during long degenerate stalls (more than `_STALL_LIMIT`
pivots without progress), which keeps the method finite.  A solve that
needs more than `_PIVOT_BUDGET` pivots raises `PivotBudgetExceeded`.
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

# Most-negative-cost pivots allowed without objective progress before
# switching to Bland's rule (switching back once the objective moves).
_STALL_LIMIT = 60
# Pivots allowed per solve, both phases together; past it the solve raises.
_PIVOT_BUDGET = 200_000

_ZERO = Fraction(0)
# Tableau column of the objective variable z, basic in the objective row.
_Z = -1
# Tableau column of each row's right-hand side; it never enters the basis.
# Not -2: in CPython hash(-2) == hash(-1), so it would collide with _Z in row m.
_B = -3


class PivotBudgetExceeded(RuntimeError):
    """Raised when the pivot budget runs out; never a silent wrong answer."""


_INT = {int}
_EXACT = {int, Fraction}


def _exact(c) -> int | Fraction:
    """An int or Fraction as it is, anything else through `ensure_fraction`."""
    return c if type(c) in _EXACT else ensure_fraction(c)


def _coefficients(given: Mapping) -> dict:
    """A copy of `given`: less its zeros, the rest through `_exact`, a non-int key refused.

    A copy whose keys are all ints and values all nonzero ints or Fractions
    is taken as it is, after one C-level pass over the keys and one over the
    values, without reading its entries one by one.
    """
    coeffs = dict(given)
    if (
        _INT.issuperset(map(type, coeffs))
        and _EXACT.issuperset(map(type, coeffs.values()))
        and 0 not in coeffs.values()
    ):
        return coeffs
    for j in coeffs:
        if type(j) is not int:
            raise ValueError(f"variable index must be an int, got {j!r}")
    return {j: _exact(c) for j, c in coeffs.items() if c != 0}


@dataclass(frozen=True)
class LpRow:
    """One constraint; coefficients and rhs are ints or Fractions, kept as given.

    Zero coefficients are dropped and any other value goes through
    `ensure_fraction`, which refuses floats and bools; a key that is not an
    int is refused.  A row of int keys and nonzero int or Fraction
    coefficients is taken as it is.
    """

    coeffs: Mapping[int, int | Fraction]
    sense: str
    rhs: int | Fraction

    def __post_init__(self):
        if self.sense not in (SENSE_LE, SENSE_EQ):
            raise ValueError(f"row sense must be '<=' or '=', got {self.sense!r}")
        object.__setattr__(self, "coeffs", _coefficients(self.coeffs))
        if type(self.rhs) is not int:
            object.__setattr__(self, "rhs", _exact(self.rhs))


def _integer_row(coeffs: Mapping[int, int | Fraction], rhs: int | Fraction = 0):
    """(d, coeffs * d, rhs * d) in ints, d the lcm of their denominators.

    A row of ints is returned as it is, with d = 1, after one type test.
    """
    if type(rhs) is int and _INT.issuperset(map(type, coeffs.values())):
        return 1, coeffs, rhs
    d = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    return (
        d,
        {j: c.numerator * (d // c.denominator) for j, c in coeffs.items()},
        rhs.numerator * (d // rhs.denominator),
    )


def _first_out_of_range(keys, n: int) -> int | None:
    """The first of the int `keys` outside 0..n-1, or None."""
    if keys and (min(keys) < 0 or max(keys) >= n):
        return next(j for j in keys if not (0 <= j < n))
    return None


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to rows, x >= 0.

    The objective is taken by the same rule as a row's coefficients: ints
    and Fractions are kept as given and zeros dropped, anything else goes
    through `ensure_fraction`, and a key that is not an int is refused.
    """

    num_vars: int
    objective: Mapping[int, int | Fraction]
    rows: tuple[LpRow, ...]

    def __post_init__(self):
        objective = _coefficients(self.objective)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", tuple(self.rows))
        j = _first_out_of_range(objective, self.num_vars)
        if j is not None:
            raise ValueError(f"objective references variable {j} out of range")
        for r, row in enumerate(self.rows):
            j = _first_out_of_range(row.coeffs, self.num_vars)
            if j is not None:
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

    Rows 0..m-1 are the constraints; row m is the objective row z - c.x = 0,
    with z in column `_Z`.  Row r is the integer numerators `rows[r]` over
    its basic entry, rows[r][basis[r]] > 0 (z's for row m), with its
    right-hand side in column `_B`; like any entry, a zero rhs is not
    stored.  Rows are negated to make rhs >= 0, and each constraint row gets
    one basic column of its own, numbered after the variables in row order:
    a slack for a "<=" row whose rhs was already >= 0, else an artificial; a
    negated "<=" row also gets a surplus column (minus its denominator) just
    before its artificial.  Over rows[m][_Z], row m holds the reduced costs
    z_j - c_j and, in column `_B`, the objective value of the basis.

    A pivot makes the pivot entry its row's denominator, then clears the
    pivot column with `_eliminate` from every other row holding it, found,
    as in the ratio test, by scanning the rows; `_divide_content` divides
    the content out of the pivot row, of each row `_eliminate` scales and of
    a new objective row.  The represented rationals are those of a Fraction
    tableau, so pivot choices, which depend only on them, are too: the
    entering column compares numerators over the one denominator of row m,
    and the ratio test compares rhs/a by cross-multiplication.
    """

    def __init__(self, problem: LpProblem):
        self.n = problem.num_vars
        self.m = len(problem.rows)
        self.rows: list[dict[int, int]] = []
        self.sigma: list[int] = []  # -1 where the original row was negated
        self.basis: list[int] = []
        self.artificial: set[int] = set()
        next_col = self.n
        for row in problem.rows:
            den, coeffs, rhs = _integer_row(row.coeffs, row.rhs)
            coeffs = dict(coeffs)  # basic columns go into a copy, not the row
            sig = 1
            if rhs < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                rhs = -rhs
                sig = -1
            if row.sense == SENSE_LE and sig == -1:
                coeffs[next_col] = -den
                next_col += 1
            if row.sense != SENSE_LE or sig == -1:
                self.artificial.add(next_col)
            coeffs[next_col] = den
            self.basis.append(next_col)
            next_col += 1
            if rhs:
                coeffs[_B] = rhs
            self.rows.append(coeffs)
            self.sigma.append(sig)
        self.init_col = list(self.basis)
        self.rows.append({_Z: 1})
        self.pivots = 0

    # -- objective row ----------------------------------------------------

    def set_costs(self, costs: Mapping[int, int | Fraction]):
        """Make row m z - c.x = 0 for `costs`: basic columns cleared, content divided out."""
        d, coeffs, _ = _integer_row(costs)
        row = {j: -c for j, c in coeffs.items()}
        row[_Z] = d
        for r in range(self.m):
            if self.basis[r] in row:
                _eliminate(row, self.basis[r], self.rows[r])
        _divide_content(row)
        self.rows[self.m] = row

    # -- pivoting ---------------------------------------------------------

    def pivot(self, r: int, j: int):
        prow = self.rows[r]
        if prow[j] < 0:
            for k, v in prow.items():
                prow[k] = -v
        _divide_content(prow)
        for rr, row in enumerate(self.rows):
            if j in row and rr != r:
                _eliminate(row, j, prow)
        self.basis[r] = j
        self.pivots += 1

    def run(self) -> str:
        """Pivot until optimal or unbounded; returns OPTIMAL or UNBOUNDED.

        Artificials never enter: they start basic, and once out stay out.
        Nor does the rhs column, which row m holds negative in phase 1.
        """
        stall = 0
        rows, basis = self.rows, self.basis
        red, barred = self.rows[self.m], self.artificial | {_B}
        while True:
            cands = [(v, j) for j, v in red.items() if v < 0 and j not in barred]
            if not cands:
                return OPTIMAL
            if stall > _STALL_LIMIT:
                entering = min(j for _, j in cands)
            else:
                entering = min(cands)[1]
            # ratio test: least rhs/a over a > 0, ties to the least basic
            # index; rhs/a is a ratio of numerators, compared by
            # cross-multiplication.  Row m has a < 0 here, so never leaves.
            leaving = None
            for r, row in enumerate(rows):
                a = row.get(entering, 0)
                if a > 0:
                    b = row.get(_B, 0)
                    if leaving is not None:
                        lhs, rhs_best = b * best_a, best_b * a
                        if lhs > rhs_best or (lhs == rhs_best and basis[r] > basis[leaving]):
                            continue
                    leaving, best_a, best_b = r, a, b
            if leaving is None:
                return UNBOUNDED
            if self.pivots >= _PIVOT_BUDGET:
                raise PivotBudgetExceeded(
                    f"pivot budget {_PIVOT_BUDGET} exhausted after {self.pivots} pivots"
                )
            self.pivot(leaving, entering)
            stall = stall + 1 if best_b == 0 else 0


def _divide_content(row):
    """Divide a tableau row, rhs included, by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k, v in row.items():
            row[k] = v // g


def _eliminate(row, j, prow):
    """Clear column j of a tableau row against the pivot row, in place.

    `row` is over the row's basic entry, and the pivot row `prow` over its
    pivot entry p = prow[j], each with its rhs in column `_B`.  The row
    becomes row * p/c - f/c * prow, with f = row[j] and c = gcd(f, p), so
    when p divides f only the pivot row's columns change; prow is zero in the
    row's basic column, so the basic entry stays the denominator.  A scaled
    row has its content divided out.
    """
    p = prow[j]
    f = row[j]
    c = gcd(f, p)
    q = f // c
    s = p // c
    if s != 1:
        for k, v in row.items():
            row[k] = v * s
    # an entry the row lacks becomes -q * pv, never 0: q and pv are nonzero
    get = row.get
    for k, pv in prow.items():
        nv = get(k, 0) - q * pv
        if nv:
            row[k] = nv
        else:
            del row[k]
    if s != 1:
        _divide_content(row)


def solve(problem: LpProblem) -> LpSolution:
    """Solve exactly; statuses INFEASIBLE/UNBOUNDED are results, not errors.

    OPTIMAL solutions carry the primal point, exact objective value and one
    dual multiplier per input row (valid for the rows exactly as given).
    Every result carries its pivot counts as (phase 1, phase 2); phase 1
    includes the pivots that drive basic artificials out of the basis.
    """
    t = _Tableau(problem)

    if t.artificial:
        t.set_costs(dict.fromkeys(t.artificial, -1))
        if t.run() != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded; solver invariant broken")
        if t.rows[t.m].get(_B, 0) != 0:
            return LpSolution(status=INFEASIBLE, pivots=(t.pivots, 0))
        for r in range(t.m):
            if t.basis[r] in t.artificial:
                target = min(
                    (j for j in t.rows[r] if j >= 0 and j not in t.artificial), default=None
                )
                if target is not None:
                    t.pivot(r, target)
                # else: row is redundant; its artificial stays basic at zero
    phase1 = t.pivots

    t.set_costs(problem.objective)
    status = t.run()
    pivots = (phase1, t.pivots - phase1)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, pivots=pivots)

    primal = [_ZERO] * t.n
    for r in range(t.m):
        if t.basis[r] < t.n:
            primal[t.basis[r]] = Fraction(t.rows[r].get(_B, 0), t.rows[r][t.basis[r]])
    red = t.rows[t.m]
    dual = []
    for r in range(t.m):
        w = red.get(t.init_col[r], 0)
        dual.append(Fraction(w if t.sigma[r] == 1 else -w, red[_Z]))
    return LpSolution(
        status=OPTIMAL,
        primal=primal,
        objective_value=Fraction(red.get(_B, 0), red[_Z]),
        dual=dual,
        pivots=pivots,
    )


def dot(coeffs: Mapping[int, Fraction], x: Mapping[int, Fraction]) -> Fraction:
    """sum_j coeffs[j] * x[j] over the keys both hold, walking the shorter, exactly."""
    if len(x) < len(coeffs):
        coeffs, x = x, coeffs
    return sum((c * x[j] for j, c in coeffs.items() if j in x), _ZERO)


def violation(
    problem: LpProblem,
    value: Fraction,
    x: Mapping[int, Fraction] | None = None,
    y: Sequence[Fraction] | None = None,
) -> tuple[str, int | None, Fraction, Fraction] | None:
    """The first condition the point x or the multipliers y fail, or None.

    x is the point's nonzero entries {j: x_j}: no entry may be negative, every
    row must hold, and c.x must equal value.  y is one multiplier per row: the
    length must match, each "<=" row's must be non-negative, each column sum
    sum_r y_r a_rj must reach c_j (the objective's columns first, then the
    others by first appearance), and y.rhs must equal value.  A failure is
    (kind, index, got, want) with kind "entry", "row", "objective", "length",
    "multiplier", "column" or "bound", in that order of checking; the index
    is None for the objective, length and bound.
    """
    if x is not None:
        for j, v in x.items():
            if v < 0:
                return "entry", j, v, _ZERO
        support = x.keys()
        for r, row in enumerate(problem.rows):
            # a row that holds none of the point's entries has lhs 0
            lhs = 0 if row.coeffs.keys().isdisjoint(support) else dot(row.coeffs, x)
            if lhs > row.rhs if row.sense == SENSE_LE else lhs != row.rhs:
                return "row", r, Fraction(lhs), row.rhs
        obj = dot(problem.objective, x)
        if obj != value:
            return "objective", None, obj, value
    if y is not None:
        if len(y) != len(problem.rows):
            return "length", None, len(y), len(problem.rows)
        for r, (row, yr) in enumerate(zip(problem.rows, y)):
            if row.sense == SENSE_LE and yr < 0:
                return "multiplier", r, yr, _ZERO
        # each column sum is an int over one denominator d, a multiple of
        # every product y_r a_rj's: of den(y_r) times row r's coefficient lcm
        terms = []
        d = 1
        for row, yr in zip(problem.rows, y):
            if yr:
                scale, coeffs, _ = _integer_row(row.coeffs)
                den = yr.denominator * scale
                d = lcm(d, den)
                terms.append((yr.numerator, den, coeffs))
        col_sums: dict[int, int] = {}
        for num, den, coeffs in terms:
            w = num * (d // den)
            for j, c in coeffs.items():
                col_sums[j] = col_sums.get(j, 0) + w * c
        for j, c in problem.objective.items():
            total = col_sums.get(j, 0)
            if total * c.denominator < c.numerator * d:
                return "column", j, Fraction(total, d), c
        for j, total in col_sums.items():
            if j not in problem.objective and total < 0:
                return "column", j, Fraction(total, d), _ZERO
        bound = sum((yr * row.rhs for row, yr in zip(problem.rows, y) if yr), _ZERO)
        if bound != value:
            return "bound", None, bound, value
    return None


def check_solution(problem: LpProblem, sol: LpSolution) -> bool:
    """Certify an OPTIMAL solution independently of the solver.

    The primal, over its support, and the dual must pass `violation` at the
    solution's objective value; non-OPTIMAL statuses are not certified.
    """
    if sol.status != OPTIMAL or len(sol.primal) != problem.num_vars:
        return False
    support = {j: v for j, v in enumerate(sol.primal) if v}
    return violation(problem, sol.objective_value, x=support, y=sol.dual) is None


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

