"""Secret bit fraction and witnessed lower bounds on its extractable maximum.

The secret bit fraction of a tripartite distribution with bit-valued honest
parties is

    lam(p) = 2 * sum_e min{p(0,0,e), p(1,1,e)} / sum_{a,b,e} p(a,b,e),

the largest weight of a perfectly-correlated-and-private bit component in a
convex decomposition of p.  It is invariant under positive scaling, so it is
well-defined for unnormalized vectors; it is undefined at zero mass.

The extractable maximum (supremum of lam over local bit-valued filter maps by
the two honest parties) is approached from below only: `estimate_lambda_max`
returns a witness pair of maps whose exact filtered fraction is the certified
lower bound.  The searched class is every deterministic filter map (each
input symbol sent to bit 0, bit 1, or discarded) plus the "coin" map that
sends every symbol to both bits with weight 1; the coin achieves exactly 1/2
on any input, matching the lower end of the measure's range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlp
from .families import BOTH, OUTPUTS, code_map, deterministic_codes
from .probvec import Axis, JointDist, LocalMap, apply_local
from .rat import ensure_fraction, format_rational, parse_rational


class SearchBudgetExhausted(RuntimeError):
    """The pair budget ran out before the search space was covered."""


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the witness search.

    max_pairs caps how many map pairs are examined (None = exhaustive);
    refine_rounds > 0 enables alternating linear-fractional refinement of the
    best stage-1 witness.
    """

    max_pairs: int | None = None
    refine_rounds: int = 0

    def __post_init__(self):
        if self.max_pairs is not None and self.max_pairs < 0:
            raise ValueError(f"max_pairs must be >= 0, got {self.max_pairs}")
        if self.refine_rounds < 0:
            raise ValueError(f"refine_rounds must be >= 0, got {self.refine_rounds}")


@dataclass(frozen=True)
class LambdaWitness:
    """A certified lower bound: value equals the exact filtered fraction."""

    value: Fraction
    map_a: LocalMap
    map_b: LocalMap

    def recheck(self, p: JointDist) -> Fraction:
        """Recompute the fraction of the filtered distribution from scratch."""
        filtered = apply_local(self.map_a, apply_local(self.map_b, p, "B"), "A")
        return secret_bit_fraction(filtered)

    def to_json_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "map_a": self.map_a.to_json_dict(),
            "map_b": self.map_b.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "LambdaWitness":
        return LambdaWitness(
            value=parse_rational(data["value"]),
            map_a=LocalMap.from_json_dict(data["map_a"]),
            map_b=LocalMap.from_json_dict(data["map_b"]),
        )


# -- the fraction itself ------------------------------------------------------


def _ab_eve_split(p: JointDist, require_bits: bool = True):
    """Positions of the A and B axes plus the remaining (Eve) positions."""
    pos_a = p.axis_pos("A")
    pos_b = p.axis_pos("B")
    if require_bits:
        if p.axes[pos_a].size != 2:
            raise ValueError(f"A alphabet must be binary, got size {p.axes[pos_a].size}")
        if p.axes[pos_b].size != 2:
            raise ValueError(f"B alphabet must be binary, got size {p.axes[pos_b].size}")
    eve = tuple(i for i in range(len(p.axes)) if i not in (pos_a, pos_b))
    return pos_a, pos_b, eve


def _mins_and_mass(p_items, pos_a, pos_b, eve_pos, code_a, code_b) -> tuple[Fraction, Fraction]:
    """sum_e min_a q(a,a,e) and the total mass of q, the pair-filtered distribution."""
    diag: dict[tuple, list[Fraction]] = {}
    mass = Fraction(0)
    for idx, v in p_items:
        outs_a = OUTPUTS[code_a[idx[pos_a]]]
        if not outs_a:
            continue
        outs_b = OUTPUTS[code_b[idx[pos_b]]]
        if not outs_b:
            continue
        mass += v * len(outs_a) * len(outs_b)
        key = tuple(idx[i] for i in eve_pos)
        for a in outs_a:
            for b in outs_b:
                if a == b:
                    cell = diag.setdefault(key, [Fraction(0), Fraction(0)])
                    cell[a] += v
    mins = sum((min(c) for c in diag.values()), Fraction(0))
    return mins, mass


def _diagonal_mins_and_mass(p: JointDist) -> tuple[Fraction, Fraction]:
    return _mins_and_mass(p.items(), *_ab_eve_split(p), (0, 1), (0, 1))


def secret_bit_fraction(p: JointDist) -> Fraction:
    """Exact secret bit fraction; axes beyond A and B count jointly as Eve."""
    mins, mass = _diagonal_mins_and_mass(p)
    if mass == 0:
        raise ValueError("undefined fraction: distribution has zero total mass")
    return 2 * mins / mass


def lambda_advantage(p: JointDist, lambda0: Fraction) -> Fraction:
    """2 * sum_e min_a p(a,a,e) - lambda0 * mass(p); positive iff fraction > lambda0."""
    lambda0 = ensure_fraction(lambda0)
    mins, mass = _diagonal_mins_and_mass(p)
    return 2 * mins - lambda0 * mass


# -- stage-1 enumeration -------------------------------------------------------


def _filtered_fraction(p_items, pos_a, pos_b, eve_pos, code_a, code_b) -> Fraction | None:
    """Fraction of the pair-filtered distribution, or None on zero mass."""
    mins, mass = _mins_and_mass(p_items, pos_a, pos_b, eve_pos, code_a, code_b)
    if mass == 0:
        return None
    return 2 * mins / mass


def _stage1_pairs(p: JointDist, budget: int | None):
    """Yield (value, code_a, code_b) in canonical order, pairs of zero mass skipped.

    Each side runs over the deterministic filter codes of the families
    module in their lexicographic order, then the coin code (every symbol to
    both bits), so the order is lexicographic in (code_a, code_b).
    """
    pos_a, pos_b, eve = _ab_eve_split(p, require_bits=False)
    n_a = p.axes[pos_a].size
    n_b = p.axes[pos_b].size
    items = list(p.items())
    examined = 0
    for code_a in itertools.chain(deterministic_codes(n_a), [(BOTH,) * n_a]):
        for code_b in itertools.chain(deterministic_codes(n_b), [(BOTH,) * n_b]):
            if budget is not None and examined >= budget:
                raise SearchBudgetExhausted(
                    f"map-pair budget {budget} exhausted after {examined} pairs"
                )
            examined += 1
            value = _filtered_fraction(items, pos_a, pos_b, eve, code_a, code_b)
            if value is not None:
                yield value, code_a, code_b


def _witness(p: JointDist, value: Fraction, code_a: tuple, code_b: tuple) -> LambdaWitness:
    """The stage-1 pair (code_a, code_b) of filtered fraction `value`, as maps on p."""
    pos_a, pos_b, _ = _ab_eve_split(p, require_bits=False)
    return LambdaWitness(
        value=value, map_a=code_map(p.axes[pos_a], code_a), map_b=code_map(p.axes[pos_b], code_b)
    )


def estimate_lambda_max(p: JointDist, opts: SearchOptions = SearchOptions()) -> LambdaWitness:
    """Best witnessed lower bound on the extractable secret bit fraction.

    Stage 1 enumerates the deterministic-plus-coin class exhaustively (ties
    resolved toward the first pair in canonical order); optional
    refinement rounds alternately re-optimize one side's map coefficients by
    exact linear-fractional programming, seeded from both the best pair and
    the best fully deterministic pair (the coin is a stationary point of the
    alternating scheme, so it makes a poor seed on its own).  The result is a
    lower bound only: the witness recheck is exact, no claim of optimality is
    made.
    """
    if opts.max_pairs == 0:
        raise SearchBudgetExhausted("empty search: map-pair budget is 0")
    if p.total_mass() == 0:
        raise ValueError("lambda-max search needs positive total mass")
    best = None
    best_det = None
    for entry in _stage1_pairs(p, opts.max_pairs):
        value, code_a, code_b = entry
        if best is None or value > best[0]:
            best = entry
        if BOTH not in code_a + code_b and (best_det is None or value > best_det[0]):
            best_det = entry
    if best is None:
        raise SearchBudgetExhausted("no map pair with positive filtered mass found")
    witness = _witness(p, *best)
    if opts.refine_rounds > 0:
        seeds = [witness]
        if best_det is not None and best_det != best:
            seeds.append(_witness(p, *best_det))
        for seed in seeds:
            refined = _refine(p, seed, opts.refine_rounds)
            if refined.value > witness.value:
                witness = refined
    return witness


def distillability_witness(
    p: JointDist,
    max_n: int,
    lambda0: Fraction = Fraction(1, 2),
    opts: SearchOptions = SearchOptions(),
) -> LambdaWitness | None:
    """First stage-1 witness on any tensor power up to max_n with value > lambda0.

    Returns None when the bounded search finds nothing; that is not a proof
    of non-distillability.  Exhausting opts.max_pairs raises
    SearchBudgetExhausted instead of silently under-reporting.
    """
    from .probvec import tensor_power

    lambda0 = ensure_fraction(lambda0)
    if opts.max_pairs == 0:
        raise SearchBudgetExhausted("empty search: map-pair budget is 0")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    budget = opts.max_pairs
    for n in range(1, max_n + 1):
        pn = tensor_power(p, n)
        try:
            for value, code_a, code_b in _stage1_pairs(pn, budget):
                if value > lambda0:
                    return _witness(pn, value, code_a, code_b)
        except SearchBudgetExhausted:
            raise SearchBudgetExhausted(
                f"budget exhausted at tensor power n={n} before covering the space"
            ) from None
    return None


# -- stage-2 refinement --------------------------------------------------------


def _refine(p: JointDist, witness: LambdaWitness, rounds: int) -> LambdaWitness:
    """Up to `rounds` alternating passes from `witness`; stops at the first pass
    with no gain and returns the best witness found (the seed if none)."""
    for _ in range(rounds):
        improved = _refine_once(p, witness)
        if improved is None:
            break
        witness = improved
    return witness


def _refine_once(p: JointDist, witness: LambdaWitness) -> LambdaWitness | None:
    """One alternating pass (re-fit A side, then B side); None if no gain."""
    improved = None
    current = witness
    for side in ("A", "B"):
        cand = _refit_side(p, current, side)
        if cand is not None and cand.value > current.value:
            current = cand
            improved = cand
    return improved


def _refit_side(p: JointDist, witness: LambdaWitness, side: str) -> LambdaWitness | None:
    """Exact best map for one side, the other fixed, via branch LPs.

    Branching over which diagonal entry attains the per-Eve-symbol minimum
    turns the fraction into a linear objective over the normalized cone of
    map coefficients (denominator pinned to 1), one LP per branch.
    """
    pos_a, pos_b, eve = _ab_eve_split(p, require_bits=False)
    if side == "A":
        fixed_map, free_pos, other_pos = witness.map_b, pos_a, pos_b
    else:
        fixed_map, free_pos, other_pos = witness.map_a, pos_b, pos_a

    # W[x][b][eve_key] = sum over the fixed side
    w: dict[tuple[int, int, tuple], Fraction] = {}
    for idx, v in p.items():
        x = idx[free_pos]
        yy = idx[other_pos]
        key = tuple(idx[i] for i in eve)
        for b in range(2):
            c = fixed_map.coeffs[b][yy]
            if c:
                k = (x, b, key)
                w[k] = w.get(k, Fraction(0)) + c * v
    if not w:
        return None
    eve_syms = sorted({k[2] for k in w})
    if len(eve_syms) > 10:
        raise ValueError(
            f"refinement needs 2^{len(eve_syms)} branch programs; Eve alphabet too large"
        )
    n = p.axes[free_pos].size
    var = lambda a, x: a * n + x  # noqa: E731 - tiny index helper

    best_val = witness.value
    best_matrix = None
    for sigma in itertools.product((0, 1), repeat=len(eve_syms)):
        sel = dict(zip(eve_syms, sigma))
        objective: dict[int, Fraction] = {}
        norm_row: dict[int, Fraction] = {}
        sel_rows: dict[tuple, dict[int, Fraction]] = {key: {} for key in eve_syms}
        for (x, b, key), val in w.items():
            for a in range(2):
                j = var(a, x)
                norm_row[j] = norm_row.get(j, Fraction(0)) + val
            s = sel[key]
            if b == s:
                j = var(s, x)
                objective[j] = objective.get(j, Fraction(0)) + 2 * val
                sel_rows[key][j] = sel_rows[key].get(j, Fraction(0)) + val
            if b == 1 - s:
                j = var(1 - s, x)
                sel_rows[key][j] = sel_rows[key].get(j, Fraction(0)) - val
        rows = [ratlp.LpRow(norm_row, "=", Fraction(1))]
        for key in eve_syms:
            if sel_rows[key]:
                rows.append(ratlp.LpRow(sel_rows[key], "<=", Fraction(0)))
        problem = ratlp.LpProblem(num_vars=2 * n, objective=objective, rows=tuple(rows))
        sol = ratlp.solve(problem)
        if sol.status != ratlp.OPTIMAL:
            continue
        if sol.objective_value > best_val:
            best_val = sol.objective_value
            best_matrix = [[sol.primal[var(a, x)] for x in range(n)] for a in range(2)]
    if best_matrix is None:
        return None
    axis = p.axes[free_pos]
    new_map = LocalMap(axis, Axis(axis.party, 2), best_matrix)
    if side == "A":
        cand = LambdaWitness(value=best_val, map_a=new_map, map_b=witness.map_b)
    else:
        cand = LambdaWitness(value=best_val, map_a=witness.map_a, map_b=new_map)
    if cand.recheck(p) != cand.value:
        raise RuntimeError("refinement produced a witness that fails its exact recheck")
    return cand
