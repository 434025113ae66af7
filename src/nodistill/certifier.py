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
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from . import ratlp
from .families import MapFamily
from .probvec import Axis, JointDist, _known_keys
from .rat import ensure_fraction, format_rational, parse_rational

UNDISTILLABLE = "undistillable"
INCONCLUSIVE = "inconclusive"
MAX_DM = 16  # bound on d + M; the 4*|A|*|B|*2^(d+M) variables stay <= 2^(MAX_DM+4)


class SizeGuardError(ValueError):
    """The selector alphabet would be too large; refuse instead of thrashing."""


class CertifierError(RuntimeError):
    """Internal failure (solver anomaly); never reported as a verdict."""


# -- problem shape ------------------------------------------------------------


def _count(factor: int, log2: int) -> str:
    """factor * 2^log2 in digits while it is below 2^64, else the power of two at or below it."""
    if factor.bit_length() + log2 <= 64:
        return str(factor << log2)
    return f"2^{factor.bit_length() - 1 + log2} or more"


def alphabet_sizes(g: JointDist) -> tuple[int, int, int]:
    """(|A|, |B|, d) of g; a g whose axes are not (A, B, adversary) is an input error."""
    if len(g.axes) != 3 or g.labels[:2] != ("A", "B"):
        raise ValueError(
            f"g must have exactly three axes ordered (A, B, adversary), got {g.labels}"
        )
    return g.axes[0].size, g.axes[1].size, g.axes[2].size


def check_size_guard(size_a: int, size_b: int, d: int, m: int):
    """Refuse d + M above MAX_DM, and a program of more variables than d + M =
    MAX_DM gives at |A| = |B| = 2, without building the counts it reports.  It
    reads alphabet sizes only, so a family can be checked before it is drawn."""
    if m < 0:
        raise ValueError(f"family size must be >= 0, got {m}")
    dm = d + m
    factor = 4 * size_a * size_b
    if dm > MAX_DM:
        raise SizeGuardError(
            f"d + M = {d} + {m} = {dm} exceeds the bound {MAX_DM}: the program would have "
            f"{_count(factor, dm)} variables and about {_count(dm, dm)} selector rows"
        )
    # factor * 2^dm > 2^(MAX_DM + 4), compared by bit length; dm <= MAX_DM here
    if (factor - 1).bit_length() + dm > MAX_DM + 4:
        raise SizeGuardError(
            f"|A| = {size_a} and |B| = {size_b} at d + M = {dm}: the program "
            f"would have {_count(factor, dm)} variables, more than the {_count(16, MAX_DM)} "
            f"the bound {MAX_DM} allows"
        )


@dataclass(frozen=True)
class CertificationProblem:
    g: JointDist
    family: MapFamily
    lambda0: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "lambda0", ensure_fraction(self.lambda0))
        if not (Fraction(1, 2) <= self.lambda0 < 1):
            raise ValueError(f"lambda0 must lie in [1/2, 1), got {self.lambda0}")
        check_size_guard(*alphabet_sizes(self.g), self.m)
        for i, pair in enumerate(self.family.pairs):
            for side, m, size in (("a", pair.map_a, self.size_a), ("b", pair.map_b, self.size_b)):
                if m.input_axis.size != 2 * size:
                    raise ValueError(f"family pair {i}: map_{side} input size {m.input_axis.size} "
                                     f"!= 2*|{side.upper()}| = {2 * size}")

    @property
    def size_a(self) -> int:
        return self.g.axes[0].size

    @property
    def size_b(self) -> int:
        return self.g.axes[1].size

    @property
    def d(self) -> int:
        return self.g.axes[2].size

    @property
    def m(self) -> int:
        return len(self.family)

    @property
    def num_selectors(self) -> int:
        return 1 << (self.d + self.m)

    @property
    def num_vars(self) -> int:
        return 4 * self.size_a * self.size_b * self.num_selectors

    def q_axes(self) -> tuple[Axis, ...]:
        return (
            Axis("A-bit", 2),
            Axis("A-copy", self.size_a),
            Axis("B-bit", 2),
            Axis("B-copy", self.size_b),
            Axis("K", self.num_selectors),
        )

    def vector_from_dist(self, qk: JointDist) -> dict[int, Fraction]:
        """The program point of qk, as its nonzero entries {variable: value}."""
        if qk.axes != self.q_axes():
            raise ValueError("distribution axes do not match the program's variable axes")
        nk, sa, sb = self.num_selectors, self.size_a, self.size_b
        return {_cell(sa, sb, a, x, b, y) * nk + k: v for (a, x, b, y, k), v in qk.items()}

    def dist_from_vector(self, vec) -> JointDist:
        nk, sa, sb = self.num_selectors, self.size_a, self.size_b
        entries = {}
        for j, v in enumerate(vec):
            if v:
                cell, k = divmod(j, nk)
                cell, y = divmod(cell, sb)
                cell, b = divmod(cell, 2)
                a, x = divmod(cell, sa)
                entries[(a, x, b, y, k)] = Fraction(v)
        return JointDist(self.q_axes(), entries)


# -- program assembly ---------------------------------------------------------


def _cell(sa: int, sb: int, a: int, x: int, b: int, y: int) -> int:
    """Variable (a, x, b, y, k) is cell * num_selectors + k (row-major q_axes())."""
    return ((a * sa + x) * 2 + b) * sb + y


@dataclass(frozen=True)
class CertificationLp:
    """The assembled program, the problem it was built for and each row's kind."""

    problem: ratlp.LpProblem
    setup: CertificationProblem
    row_info: tuple[tuple, ...]  # ("family", i) | ("sel-e", e, k) | ("sel-i", i, k) | ("norm",)


def _integer_map(m) -> tuple[int, list[list[int]]]:
    """A map's rows as ints over the lcm of their denominators: (lcm, rows)."""
    den = lcm(*(c.denominator for row in m.coeffs for c in row))
    return den, [[c.numerator * (den // c.denominator) for c in row] for row in m.coeffs]


def _difference_table(xa, xb, ya, yb) -> list[tuple[int, int]]:
    """(cell, xa[i] * xb[j] - ya[i] * yb[j]) over i, j row-major, zeros left out.

    The lists are indexed by the composite symbols i = a*|A| + x and
    j = b*|B| + y, so the row-major position of (i, j) is the cell.
    """
    nb = len(xb)
    table = []
    for i, (p, q) in enumerate(zip(xa, ya)):
        for j, (r, s) in enumerate(zip(xb, yb)):
            c = p * r - q * s
            if c:
                table.append((i * nb + j, c))
    return table


def _reduced(den: int, tables) -> list[list[tuple[int, int]]]:
    """Integer (cell, coefficient) tables T that stand for T/den, as (T/den) * L in
    ints, L the lcm of the denominators of all the T/den entries.

    That is T divided by g = gcd(den, *entries).  With den = L * k, T is k
    times (T/den) * L, and a prime dividing L divides some entry's reduced
    denominator as often as L, so not that entry of (T/den) * L: g = k.
    """
    g = gcd(den, *(c for t in tables for _, c in t))
    return tables if g == 1 else [[(cell, c // g) for cell, c in t] for t in tables]


def _pair_tables(pair, lam2: Fraction) -> tuple[list, list]:
    """The per-bit family-row and filter-selector tables of one map pair, in ints.

    For output bit s, with ma and mb the maps' rows and col_a, col_b their
    column sums, the family table is 4 * ma[s] (x) mb[s] - lam2 * col_a (x)
    col_b and the filter table ma[s] (x) mb[s] - ma[1-s] (x) mb[1-s], each pair
    of tables scaled by the lcm of its denominators.  Both are worked out over
    the maps' integer rows, the family tables over lam2's denominator too.
    """
    da, (a0, a1) = _integer_map(pair.map_a)
    db, (b0, b1) = _integer_map(pair.map_b)
    ln, ld = lam2.numerator, lam2.denominator
    col_a = [ln * (p + q) for p, q in zip(a0, a1)]
    col_b = [p + q for p, q in zip(b0, b1)]
    family = _reduced(
        da * db * ld,
        [_difference_table([4 * ld * p for p in a], b, col_a, col_b) for a, b in ((a0, b0), (a1, b1))],
    )
    sel = _difference_table(a0, b0, a1, b1)
    return family, _reduced(da * db, [sel, [(cell, -c) for cell, c in sel]])


def _placed(tables, shift: int, block: int | None, nk: int, support: dict | None = None) -> dict:
    """tables[(k >> shift) % len(tables)] at cell * nk + k, in every block k
    (block None) or in block alone; with support, {block: cells}, only at its
    (block, cell) entries."""
    if support is not None:
        blocks = support if block is None else (block,) if block in support else ()
        return {cell * nk + k: c for k in blocks
                for cell, c in tables[(k >> shift) % len(tables)] if cell in support[k]}
    if block is not None:
        return {cell * nk + block: c for cell, c in tables[(block >> shift) % len(tables)]}
    starts = [[(cell * nk, c) for cell, c in t] for t in tables]
    return {j + k: c for k in range(nk) for j, c in starts[(k >> shift) % len(tables)]}


def _program(sp: CertificationProblem) -> tuple[list, list[tuple]]:
    """The certification program for (g, family, lambda0) as per-bit tables:
    the objective's, and the rows in order as (tables, shift, block, row_info).

    Variables are the entries of the grouped activation distribution
    (non-negative, total mass 1).  The objective doubles the lifted advantage
    with the per-(adversary symbol, selector block) minimum replaced by the
    selected diagonal entry; one row per family member bounds the filtered
    advantage by zero the same way, and per-block selector rows pin each
    selected entry to be the actual minimum (ties allowed, which only closes
    the feasible set and cannot raise a zero maximum).

    A coefficient depends on the selector block k only through one selector
    bit (through the d adversary bits for the objective), so each one is
    computed once per bit value, in a (cell, coefficient) table of ints for
    a row.  A row holds tables[(k >> shift) & 1] in block k, at cell *
    num_selectors + k: a family row (block None) in every block, a selector
    row in its own block alone, the objective table k mod 2^d in block k.
    Empty and repeated rows are left out; the norm row, last, is (None, 0,
    None, ("norm",)).
    """
    lam2 = 2 * sp.lambda0
    d, nk = sp.d, sp.num_selectors
    sa, sb = sp.size_a, sp.size_b

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

    rows: list[tuple] = []
    seen_rows: set[tuple] = set()

    def emit(tables, shift: int, info: tuple):
        """Append the row of tables[(k >> shift) & 1] in every block k, unless it
        is empty or an earlier row.

        A row is the table it holds in each block, so its key is the pairs
        (k, keys[table]) over its nonempty blocks, with keys[s] the frozenset
        of table s's (cell, coefficient) pairs: equal keys, equal rows.
        """
        keys = [frozenset(t) for t in tables]
        key = tuple((k, keys[(k >> shift) & 1]) for k in range(nk) if tables[(k >> shift) & 1])
        if key and key not in seen_rows:
            seen_rows.add(key)
            rows.append((tables, shift, None, info))

    def emit_blocks(tables, shift: int, info: tuple):
        """For each block k, append the row of tables[(k >> shift) & 1] in block k
        alone, with info + (k,), unless it is empty or an earlier row; the key
        is `emit`'s for a one-block row."""
        keys = [frozenset(t) for t in tables]
        for k in range(nk):
            s = (k >> shift) & 1
            if tables[s]:
                key = ((k, keys[s]),)
                if key not in seen_rows:
                    seen_rows.add(key)
                    rows.append((tables, shift, k, (*info, k)))

    pair_tables = [_pair_tables(pair, lam2) for pair in sp.family.pairs]

    # family advantage rows: filtered advantage <= 0
    for i, (tables, _) in enumerate(pair_tables):
        emit(tables, d + i, ("family", i))

    # selector rows for the lifted product: selected diagonal <= other diagonal.
    # A selector row holds one of its two tables, and the two negate each
    # other (here and for the filters), so one lcm scales both.
    for e, sl in enumerate(g_slices):
        scale = lcm(*(v.denominator for v in sl.values()))
        tables = [[], []]
        for (x, y), v in sl.items():
            c = v.numerator * (scale // v.denominator)
            for s in range(2):
                tables[s] += [(_cell(sa, sb, s, x, s, y), c), (_cell(sa, sb, 1 - s, x, 1 - s, y), -c)]
        emit_blocks(tables, e, ("sel-e", e))

    # selector rows for each family filter
    for i, (_, tables) in enumerate(pair_tables):
        emit_blocks(tables, d + i, ("sel-i", i))

    rows.append((None, 0, None, ("norm",)))
    return obj_tables, rows


# a row placed on none of its entries: lhs 0, the row's sense and rhs
_UNREAD_ROW = ratlp.LpRow({}, ratlp.SENSE_LE, 0)
_UNREAD_NORM = ratlp.LpRow({}, ratlp.SENSE_EQ, 1)


def _lp_row(row: tuple, nk: int, num_vars: int, support: dict | None = None) -> ratlp.LpRow:
    """A `_program` row as an LpRow: "<=" 0, or total mass "=" 1 for the norm
    row; placed as `_placed` does, and if that leaves it empty, `_UNREAD_*`."""
    tables, shift, block, _ = row
    if tables is None:
        keys = (range(num_vars) if support is None
                else [cell * nk + k for k in support for cell in support[k]])
        return ratlp.LpRow(dict.fromkeys(keys, 1), ratlp.SENSE_EQ, 1) if keys else _UNREAD_NORM
    coeffs = _placed(tables, shift, block, nk, support)
    return ratlp.LpRow(coeffs, ratlp.SENSE_LE, 0) if coeffs else _UNREAD_ROW


def build_lp(problem: CertificationProblem) -> CertificationLp:
    """The certification program of `_program`, every row and the objective in full."""
    obj_tables, rows = _program(problem)
    nk, n = problem.num_selectors, problem.num_vars
    rows_made = tuple(_lp_row(row, nk, n) for row in rows)
    lp = ratlp.LpProblem(n, _placed(obj_tables, 0, None, nk), rows_made)
    return CertificationLp(problem=lp, setup=problem, row_info=tuple(row[3] for row in rows))


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
            "dual": None if self.dual is None else {
                "row_multipliers": [format_rational(y) for y in self.dual]},
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
        _known_keys(data, "certificate",
                    ("verdict", "optimum", "lambda0", "fingerprint", "primal", "dual", "digest"))
        dual = data.get("dual")
        if dual is not None and not (
            isinstance(dual, dict) and isinstance(dual.get("row_multipliers"), list)
        ):
            raise ValueError(
                "certificate dual must be null or an object with a row_multipliers list, "
                f"got {json.dumps(dual)}"
            )
        if dual is not None:
            _known_keys(dual, "certificate dual", ("row_multipliers",))
        return Certificate(
            verdict=str(data["verdict"]),
            optimum=parse_rational(data["optimum"]),
            lambda0=parse_rational(data["lambda0"]),
            fingerprint=str(data["fingerprint"]),
            primal=None if data.get("primal") is None else JointDist.from_json_dict(data["primal"]),
            dual=None if dual is None else _parse_multipliers(dual["row_multipliers"]),
            digest=str(data.get("digest", "")),
        )

    @staticmethod
    def loads(text: str) -> "Certificate":
        return Certificate.from_json_dict(json.loads(text))


def _parse_multipliers(texts: list) -> tuple[Fraction, ...]:
    """parse_rational of each text, each distinct string once (a dual has few
    distinct multipliers); a non-string is refused before it is hashed."""
    parsed: dict[str, Fraction] = {}
    return tuple(parsed[t] if isinstance(t, str) and t in parsed
                 else parsed.setdefault(t, parse_rational(t)) for t in texts)


def _canonical_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def problem_fingerprint(g: JointDist, family: MapFamily, lambda0: Fraction) -> str:
    return _canonical_hash({"g": g.to_json_dict(), "family": family.to_json_dict(),
                            "lambda0": format_rational(ensure_fraction(lambda0))})


def _certificate_digest(cert: Certificate) -> str:
    return _canonical_hash(cert.body_json_dict())


def certify(g: JointDist, family: MapFamily, lambda0: Fraction = Fraction(1, 2)) -> Certificate:
    """Solve the certification program exactly and package the result.

    The maximum is never negative at lambda0 = 1/2 (the independent-sides
    point with tie selectors is feasible at objective zero); a zero maximum
    yields verdict "undistillable" with dual multipliers attached, a positive
    one yields "inconclusive" with the maximizing distribution attached.
    Output is deterministic for fixed input.
    """
    return certify_lp(build_lp(CertificationProblem(g, family, lambda0)))


def certify_lp(build: CertificationLp) -> Certificate:
    """`certify` on a program `build_lp` has already built."""
    setup = build.setup
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
        fingerprint=problem_fingerprint(setup.g, setup.family, setup.lambda0),
        primal=setup.dist_from_vector(sol.primal) if positive else None,
        dual=None if positive else tuple(sol.dual),
    )
    return replace(cert, digest=_certificate_digest(cert))


# verify's message for each kind of failure `ratlp.violation` reports
_FAILURES = {
    "entry": "witness is negative at variable {i}: {got}",
    "row": "witness violates row {i} {info}: {got} vs {want}",
    "objective": "witness objective {got} != claimed optimum {want}",
    "length": "dual has {got} multipliers for {want} rows",
    "multiplier": "dual multiplier for row {i} {info} is negative",
    "column": "dual infeasible at variable {i}: {got} < {want}",
    "bound": "dual bound {got} != claimed optimum {want}",
}


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: JointDist, family: MapFamily, lambda0: Fraction,
                       cert: Certificate) -> VerificationResult:
    """Recheck a certificate exactly, independently of the solver.

    The problem fingerprint and the certificate's own content digest must
    match, and it must state the lambda0 it is checked at; an inconclusive
    certificate must carry a feasible witness whose objective equals the
    claimed optimum; an undistillable one must carry sign-correct, feasible
    dual multipliers whose bound equals the claimed (non-positive) optimum.
    The first violated condition is reported.  Inputs that define no program,
    or one the size guard refuses, raise as `CertificationProblem` does.

    The work follows the certificate: a dual's rows with a nonzero multiplier
    are built in full; for a witness, each row and the objective only at its
    entries, which keeps every lhs and c.x.  A row left empty goes in as
    `_UNREAD_*`, with its sense and rhs, so every check and the first failure
    are those of `build_lp`'s whole program.
    """

    def fail(reason: str) -> VerificationResult:
        return VerificationResult(False, reason)

    lambda0 = ensure_fraction(lambda0)
    if cert.fingerprint != problem_fingerprint(g, family, lambda0):
        return fail("fingerprint mismatch: certificate was issued for different inputs")
    if cert.digest != _certificate_digest(cert):
        return fail("digest mismatch: certificate content was altered")
    if cert.lambda0 != lambda0:
        return fail(f"lambda0 mismatch: certificate states {cert.lambda0}, checked at {lambda0}")
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

    setup = CertificationProblem(g=g, family=family, lambda0=lambda0)
    nk, n = setup.num_selectors, setup.num_vars
    obj_tables, rows = _program(setup)
    if cert.verdict == INCONCLUSIVE:
        if cert.primal.axes != setup.q_axes():
            return fail("witness axes do not match the program's variable layout")
        x, y = setup.vector_from_dist(cert.primal), None
        support: dict[int, set[int]] = {}  # {block: cells} of the witness's entries
        for j in x:
            support.setdefault(j % nk, set()).add(j // nk)
        made = [_lp_row(row, nk, n, support) for row in rows]
    else:
        x, y, support = None, cert.dual, None
        read = {r for r, v in enumerate(y) if v != 0}
        made = [_lp_row(row, nk, n) if r in read else _UNREAD_NORM if row[0] is None else _UNREAD_ROW
                for r, row in enumerate(rows)]
    lp = ratlp.LpProblem(n, _placed(obj_tables, 0, None, nk, support), tuple(made))
    bad = ratlp.violation(lp, cert.optimum, x=x, y=y)
    if bad is None:
        return VerificationResult(True)
    kind, i, got, want = bad
    info = rows[i][3] if kind in ("row", "multiplier") else None
    return fail(_FAILURES[kind].format(i=i, info=info, got=got, want=want))
