"""Assembly, exact solution and verification of non-distillability certificates.

Given a tripartite distribution g (honest parties A, B; adversary alphabet of
size d) and a finite family of M bit-valued filter map pairs, the certifier
maximizes the linearized secrecy advantage of a bounded activation
distribution over the grouped adversary alphabet of 2^(d+M) selector vectors.
A selector vector records, per adversary symbol of g and per family member,
which diagonal output the per-symbol minimum sits on; grouping adversary
symbols with equal selectors preserves every value the program touches, which
is what makes the unbounded helper alphabet finite.

If the exact maximum is zero, no distribution that the family certifies as
secrecy-free can be activated above the trivial fraction by g, and g is
undistillable; the emitted certificate carries exact dual multipliers (or, for
a positive maximum, the maximizing primal point) and can be re-verified
without trusting the solver.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import lcm

from . import ratlp
from .families import MapFamily
from .probvec import Axis, JointDist
from .rat import ensure_fraction, format_rational, parse_rational

UNDISTILLABLE = "undistillable"
INCONCLUSIVE = "inconclusive"


class SizeGuardError(ValueError):
    """The selector alphabet would be too large; refuse instead of thrashing."""


class CertifierError(RuntimeError):
    """Internal failure (solver anomaly); never reported as a verdict."""


# -- problem shape ------------------------------------------------------------


@dataclass(frozen=True)
class CertificationProblem:
    g: JointDist
    family: MapFamily
    lambda0: Fraction = Fraction(1, 2)
    max_dm: int = 16

    def __post_init__(self):
        object.__setattr__(self, "lambda0", ensure_fraction(self.lambda0))
        if not (Fraction(1, 2) <= self.lambda0 < 1):
            raise ValueError(f"lambda0 must lie in [1/2, 1), got {self.lambda0}")
        if len(self.g.axes) != 3 or self.g.labels[:2] != ("A", "B"):
            raise ValueError(
                f"g must have exactly three axes ordered (A, B, adversary), got {self.g.labels}"
            )
        sa, sb = self.size_a, self.size_b
        for i, pair in enumerate(self.family.pairs):
            if pair.map_a.input_axis.size != 2 * sa:
                raise ValueError(
                    f"family pair {i}: map_a input size {pair.map_a.input_axis.size} "
                    f"!= 2*|A| = {2 * sa}"
                )
            if pair.map_b.input_axis.size != 2 * sb:
                raise ValueError(
                    f"family pair {i}: map_b input size {pair.map_b.input_axis.size} "
                    f"!= 2*|B| = {2 * sb}"
                )

    @property
    def size_a(self) -> int:
        return self.g.axis("A").size

    @property
    def size_b(self) -> int:
        return self.g.axis("B").size

    @property
    def d(self) -> int:
        return next(ax.size for ax in self.g.axes if ax.party not in ("A", "B"))

    @property
    def m(self) -> int:
        return len(self.family)

    @property
    def num_selectors(self) -> int:
        return 1 << (self.d + self.m)

    @property
    def num_vars(self) -> int:
        return 4 * self.size_a * self.size_b * self.num_selectors

    def check_size_guard(self):
        dm = self.d + self.m
        if dm > self.max_dm:
            raise SizeGuardError(
                f"d + M = {self.d} + {self.m} = {dm} exceeds the bound {self.max_dm}: "
                f"the program would have {self.num_vars} variables and about "
                f"{dm * self.num_selectors} selector rows; raise max_dm to override"
            )

    def q_axes(self) -> tuple[Axis, ...]:
        return (
            Axis("A-bit", 2),
            Axis("A-copy", self.size_a),
            Axis("B-bit", 2),
            Axis("B-copy", self.size_b),
            Axis("K", self.num_selectors),
        )


# -- program assembly ---------------------------------------------------------


def _cell(sa: int, sb: int, a: int, x: int, b: int, y: int) -> int:
    """Variable (a, x, b, y, k) is cell * num_selectors + k (row-major q_axes())."""
    return ((a * sa + x) * 2 + b) * sb + y


@dataclass(frozen=True)
class CertificationLp:
    """The assembled program plus the variable/row bookkeeping around it."""

    problem: ratlp.LpProblem
    setup: CertificationProblem
    row_info: tuple[tuple, ...]  # ("family", i) | ("sel-e", e, k) | ("sel-i", i, k) | ("norm",)

    def var_index(self, a: int, x: int, b: int, y: int, k: int) -> int:
        sp = self.setup
        return _cell(sp.size_a, sp.size_b, a, x, b, y) * sp.num_selectors + k

    def vector_from_dist(self, qk: JointDist) -> list[Fraction]:
        if qk.axes != self.setup.q_axes():
            raise ValueError("distribution axes do not match the program's variable axes")
        x = [Fraction(0)] * self.problem.num_vars
        for (a, xa, b, yb, k), v in qk.items():
            x[self.var_index(a, xa, b, yb, k)] = v
        return x

    def dist_from_vector(self, vec) -> JointDist:
        sp = self.setup
        nk, sa, sb = sp.num_selectors, sp.size_a, sp.size_b
        entries = {}
        for j, v in enumerate(vec):
            if v:
                cell, k = divmod(j, nk)
                cell, y = divmod(cell, sb)
                cell, b = divmod(cell, 2)
                a, x = divmod(cell, sa)
                entries[(a, x, b, y, k)] = Fraction(v)
        return JointDist(sp.q_axes(), entries)


def _scaled_to_integers(tables):
    """Multiply (cell, coefficient) tables by the lcm of all their denominators."""
    scale = reduce(lcm, (c.denominator for t in tables for _, c in t), 1)
    return [[(cell, c * scale) for cell, c in t] for t in tables]


def _product_table(terms) -> list[tuple[int, Fraction]]:
    """Per cell, the sum of coef * wa[sym_a] * wb[sym_b] over (coef, wa, wb) terms.

    wa and wb are indexed by the composite symbols a*|A| + x and b*|B| + y, so
    the row-major position of (sym_a, sym_b) is the cell.  Zeros are left out.
    """
    _, wa0, wb0 = terms[0]
    table = []
    for cell, (i, j) in enumerate(itertools.product(range(len(wa0)), range(len(wb0)))):
        c = sum(coef * wa[i] * wb[j] for coef, wa, wb in terms)
        if c:
            table.append((cell, c))
    return table


def _family_tables(family: MapFamily):
    """Per pair: output-row coefficient tables and column sums per side."""
    tables = []
    for pair in family.pairs:
        ma, mb = pair.map_a.coeffs, pair.map_b.coeffs
        col_a = [ma[0][s] + ma[1][s] for s in range(len(ma[0]))]
        col_b = [mb[0][s] + mb[1][s] for s in range(len(mb[0]))]
        tables.append((ma, mb, col_a, col_b))
    return tables


def build_lp(problem: CertificationProblem) -> CertificationLp:
    """Emit the certification program for (g, family, lambda0).

    Variables are the entries of the grouped activation distribution
    (non-negative, total mass 1).  The objective doubles the lifted advantage
    with the per-(adversary symbol, selector block) minimum replaced by the
    selected diagonal entry; one row per family member bounds the filtered
    advantage by zero the same way, and per-block selector rows pin each
    selected entry to be the actual minimum (ties allowed, which only closes
    the feasible set and cannot raise a zero maximum).  Constraint rows are
    scaled to integer coefficients; empty and exactly duplicated rows are
    dropped.

    A coefficient depends on the selector block k only through one selector
    bit (through the d adversary bits for the objective), so each one is
    computed once per bit value as a (cell, coefficient) table and copied
    into every block k at cell * num_selectors + k.
    """
    problem.check_size_guard()
    sp = problem
    lam2 = 2 * sp.lambda0
    d, nk = sp.d, sp.num_selectors
    sa, sb = sp.size_a, sp.size_b

    def placed(tables, shift, mask, ks=range(nk)) -> dict[int, Fraction]:
        """tables[(k >> shift) & mask] copied into block k, for each k in ks."""
        return {cell * nk + k: c for k in ks for cell, c in tables[(k >> shift) & mask]}

    g_slices: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(d)]
    g_total: dict[tuple[int, int], Fraction] = {}
    for (x, y, e), v in sp.g.items():
        g_slices[e][(x, y)] = v
        g_total[(x, y)] = g_total.get((x, y), Fraction(0)) + v

    # objective: 4 * [selected diagonal of the lift] - 2*lambda0 * [lift sum],
    # one table per value of the adversary bits k mod 2^d
    obj_tables = []
    for t in range(1 << d):
        diag_sum: list[dict[tuple[int, int], Fraction]] = [dict(), dict()]
        for e in range(d):
            target = diag_sum[(t >> e) & 1]
            for xy, v in g_slices[e].items():
                target[xy] = target.get(xy, Fraction(0)) + v
        table = []
        for (x, y), tot in g_total.items():
            base = -lam2 * tot
            for a in range(2):
                for b in range(2):
                    c = base
                    if a == b:
                        c = c + 4 * diag_sum[a].get((x, y), Fraction(0))
                    if c:
                        table.append((_cell(sa, sb, a, x, b, y), c))
        obj_tables.append(table)
    objective = placed(obj_tables, 0, (1 << d) - 1)

    rows: list[ratlp.LpRow] = []
    row_info: list[tuple] = []
    seen_rows: set[tuple] = set()

    def emit(coeffs: dict[int, Fraction], info: tuple):
        n = len(seen_rows)
        seen_rows.add(tuple(sorted(coeffs.items())))  # hashes the key once
        if coeffs and len(seen_rows) > n:
            rows.append(ratlp.LpRow(coeffs, ratlp.SENSE_LE, Fraction(0)))
            row_info.append(info)

    fam = _family_tables(sp.family)

    # family advantage rows: filtered advantage <= 0
    for i, (ma, mb, col_a, col_b) in enumerate(fam):
        tables = _scaled_to_integers(
            [_product_table(((4, ma[s], mb[s]), (-lam2, col_a, col_b))) for s in range(2)]
        )
        emit(placed(tables, d + i, 1), ("family", i))

    # selector rows for the lifted product: selected diagonal <= other diagonal.
    # A selector row holds one of its two tables, and the two negate each
    # other (here and for the filters below), so one lcm scales both.
    for e, sl in enumerate(g_slices):
        tables = [[], []]
        for (x, y), v in sl.items():
            for s in range(2):
                tables[s] += [(_cell(sa, sb, s, x, s, y), v), (_cell(sa, sb, 1 - s, x, 1 - s, y), -v)]
        tables = _scaled_to_integers(tables)
        for k in range(nk):
            emit(placed(tables, e, 1, (k,)), ("sel-e", e, k))

    # selector rows for each family filter
    for i, (ma, mb, _, _) in enumerate(fam):
        tables = _scaled_to_integers(
            [_product_table(((1, ma[s], mb[s]), (-1, ma[1 - s], mb[1 - s]))) for s in range(2)]
        )
        for k in range(nk):
            emit(placed(tables, d + i, 1, (k,)), ("sel-i", i, k))

    norm = {j: Fraction(1) for j in range(sp.num_vars)}
    rows.append(ratlp.LpRow(norm, ratlp.SENSE_EQ, Fraction(1)))
    row_info.append(("norm",))

    lp = ratlp.LpProblem(num_vars=sp.num_vars, objective=objective, rows=tuple(rows))
    return CertificationLp(problem=lp, setup=sp, row_info=tuple(row_info))


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    verdict: str
    optimum: Fraction
    lambda0: Fraction
    fingerprint: str
    primal: JointDist | None = None
    dual: tuple[Fraction, ...] | None = None
    digest: str = ""

    def body_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "optimum": format_rational(self.optimum),
            "lambda0": format_rational(self.lambda0),
            "fingerprint": self.fingerprint,
            "primal": self.primal.to_json_dict() if self.primal is not None else None,
            "dual": (
                {"row_multipliers": [format_rational(y) for y in self.dual]}
                if self.dual is not None
                else None
            ),
        }

    def to_json_dict(self) -> dict:
        body = self.body_json_dict()
        body["digest"] = self.digest
        return body

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise ValueError("certificate JSON must be an object")
        dual = data.get("dual")
        if dual is not None and not (
            isinstance(dual, dict) and isinstance(dual.get("row_multipliers"), list)
        ):
            raise ValueError(
                "certificate dual must be null or an object with a row_multipliers list, "
                f"got {json.dumps(dual)}"
            )
        return Certificate(
            verdict=str(data["verdict"]),
            optimum=parse_rational(data["optimum"]),
            lambda0=parse_rational(data["lambda0"]),
            fingerprint=str(data["fingerprint"]),
            primal=(
                JointDist.from_json_dict(data["primal"]) if data.get("primal") is not None else None
            ),
            dual=(
                tuple(parse_rational(y) for y in dual["row_multipliers"])
                if dual is not None
                else None
            ),
            digest=str(data.get("digest", "")),
        )

    @staticmethod
    def loads(text: str) -> "Certificate":
        return Certificate.from_json_dict(json.loads(text))


def _canonical_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def problem_fingerprint(g: JointDist, family: MapFamily, lambda0: Fraction) -> str:
    return _canonical_hash(
        {
            "g": g.to_json_dict(),
            "family": family.to_json_dict(),
            "lambda0": format_rational(ensure_fraction(lambda0)),
        }
    )


def _certificate_digest(cert: Certificate) -> str:
    return _canonical_hash(cert.body_json_dict())


def certify(
    g: JointDist,
    family: MapFamily,
    lambda0: Fraction = Fraction(1, 2),
    max_dm: int = 16,
) -> Certificate:
    """Solve the certification program exactly and package the result.

    The maximum is never negative at lambda0 = 1/2 (the independent-sides
    point with tie selectors is feasible at objective zero); a zero maximum
    yields verdict "undistillable" with dual multipliers attached, a positive
    one yields "inconclusive" with the maximizing distribution attached.
    Output is deterministic for fixed input.
    """
    setup = CertificationProblem(g=g, family=family, lambda0=ensure_fraction(lambda0), max_dm=max_dm)
    build = build_lp(setup)
    sol = ratlp.solve(build.problem)
    if sol.status != ratlp.OPTIMAL:
        raise CertifierError(
            f"certification program unexpectedly {sol.status}; it should always be "
            "feasible and bounded"
        )
    if not ratlp.check_solution(build.problem, sol):
        raise CertifierError("solver output failed its independent optimality check")
    positive = sol.objective_value > 0
    cert = Certificate(
        verdict=INCONCLUSIVE if positive else UNDISTILLABLE,
        optimum=sol.objective_value,
        lambda0=setup.lambda0,
        fingerprint=problem_fingerprint(g, family, setup.lambda0),
        primal=build.dist_from_vector(sol.primal) if positive else None,
        dual=None if positive else tuple(sol.dual),
    )
    return replace(cert, digest=_certificate_digest(cert))


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    g: JointDist,
    family: MapFamily,
    lambda0: Fraction,
    cert: Certificate,
    max_dm: int = 16,
) -> VerificationResult:
    """Recheck a certificate exactly, independently of the solver.

    The problem fingerprint and the certificate's own content digest must
    match; an inconclusive certificate must carry a feasible witness whose
    objective equals the claimed optimum; an undistillable one must carry
    sign-correct, feasible dual multipliers whose bound equals the claimed
    (non-positive) optimum.  The first violated condition is reported.
    """

    def fail(reason: str) -> VerificationResult:
        return VerificationResult(False, reason)

    lambda0 = ensure_fraction(lambda0)
    if cert.fingerprint != problem_fingerprint(g, family, lambda0):
        return fail("fingerprint mismatch: certificate was issued for different inputs")
    if cert.digest != _certificate_digest(cert):
        return fail("digest mismatch: certificate content was altered")
    if cert.verdict == UNDISTILLABLE:
        if cert.optimum > 0:
            return fail("verdict/optimum mismatch: undistillable requires optimum <= 0")
        if cert.dual is None:
            return fail("undistillable certificate is missing dual multipliers")
    elif cert.verdict == INCONCLUSIVE:
        if cert.optimum <= 0:
            return fail("verdict/optimum mismatch: inconclusive requires optimum > 0")
        if cert.primal is None:
            return fail("inconclusive certificate is missing a primal witness")
    else:
        return fail(f"unknown verdict {cert.verdict!r}")

    try:
        setup = CertificationProblem(g=g, family=family, lambda0=lambda0, max_dm=max_dm)
        build = build_lp(setup)
    except (ValueError, SizeGuardError) as exc:
        return fail(f"cannot rebuild program: {exc}")
    lp = build.problem

    if cert.verdict == INCONCLUSIVE:
        if cert.primal.axes != setup.q_axes():
            return fail("witness axes do not match the program's variable layout")
        x = build.vector_from_dist(cert.primal)
        bad_row = ratlp.row_violation(lp, x)
        if bad_row is not None:
            r, lhs = bad_row
            return fail(f"witness violates row {r} {build.row_info[r]}: {lhs} vs {lp.rows[r].rhs}")
        obj = ratlp.dot(lp.objective, x)
        if obj != cert.optimum:
            return fail(f"witness objective {obj} != claimed optimum {cert.optimum}")
        return VerificationResult(True)

    y = cert.dual
    if len(y) != len(lp.rows):
        return fail(f"dual has {len(y)} multipliers for {len(lp.rows)} rows")
    bad_dual = ratlp.dual_violation(lp, y)
    if bad_dual is not None:
        kind, i, total, c = bad_dual
        if kind == "row":
            return fail(f"dual multiplier for row {i} {build.row_info[i]} is negative")
        return fail(f"dual infeasible at variable {i}: {total} < {c}")
    bound = sum((yr * row.rhs for row, yr in zip(lp.rows, y)), Fraction(0))
    if bound != cert.optimum:
        return fail(f"dual bound {bound} != claimed optimum {cert.optimum}")
    return VerificationResult(True)
