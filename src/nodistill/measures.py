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
on any input, matching the lower end of the measure's range.  The search is
exhaustive, within MAX_AB; refine_rounds > 0 then refines its best witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import ratlp
from .certifier import SizeGuardError
from .families import BOTH, OUTPUTS, code_map, deterministic_codes
from .probvec import Axis, JointDist, LocalMap, apply_local
from .rat import format_rational, parse_rational

MAX_AB = 12  # bound on |A| + |B|: stage 1 ranges over 3^(|A| + |B|) map pairs


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


def _ab_eve_split(p: JointDist):
    """Positions of the A and B axes plus the remaining (Eve) positions."""
    pos_a = p.axis_pos("A")
    pos_b = p.axis_pos("B")
    eve = tuple(i for i in range(len(p.axes)) if i not in (pos_a, pos_b))
    return pos_a, pos_b, eve


def secret_bit_fraction(p: JointDist) -> Fraction:
    """Exact secret bit fraction; axes beyond A and B count jointly as Eve."""
    pos_a, pos_b, eve = _ab_eve_split(p)
    for party, pos in (("A", pos_a), ("B", pos_b)):
        if p.axes[pos].size != 2:
            raise ValueError(f"{party} alphabet must be binary, got size {p.axes[pos].size}")
    diag: dict[tuple, list[Fraction]] = {}
    mass = Fraction(0)
    for idx, v in p.items():
        mass += v
        a = idx[pos_a]
        if a == idx[pos_b]:
            diag.setdefault(tuple(idx[i] for i in eve), [Fraction(0), Fraction(0)])[a] += v
    if mass == 0:
        raise ValueError("undefined fraction: distribution has zero total mass")
    return 2 * sum((min(c) for c in diag.values()), Fraction(0)) / mass


# -- stage-1 enumeration -------------------------------------------------------


def _entries_by_a(p: JointDist):
    """(by_a, E): p in integer weights, grouped by A symbol.

    by_a[x] lists (y, e, w) for each entry of p at A symbol x: y is its B
    symbol, e numbers its Eve symbol in 0..E-1, and w is the entry times
    the lcm of p's denominators.
    """
    pos_a, pos_b, eve = _ab_eve_split(p)
    items = list(p.items())
    scale = math.lcm(*(v.denominator for _, v in items))
    eve_num: dict[tuple, int] = {}
    by_a: list[list[tuple[int, int, int]]] = [[] for _ in range(p.axes[pos_a].size)]
    for idx, v in items:
        e = eve_num.setdefault(tuple(idx[i] for i in eve), len(eve_num))
        by_a[idx[pos_a]].append((idx[pos_b], e, v.numerator * (scale // v.denominator)))
    return by_a, len(eve_num)


def _subset_tables(by_a, n_eve: int, n_b: int):
    """(P, W): the weights w of `_entries_by_a` summed over every A mask T and B mask S.

    W[T][S][e] sums w over the entries (x, y, e) with x in T and y in S, and
    P[T][S] = sum_e W[T][S][e]: 2^(|A| + |B|) * E ints, 4,096 per Eve symbol
    at MAX_AB, so they are built only past the MAX_AB guard.
    """
    tables = [[[0] * n_eve] * (1 << n_b)]
    for entries in by_a:
        cells = [[0] * n_eve for _ in range(n_b)]
        for y, e, w in entries:
            cells[y][e] += w
        row = [[0] * n_eve]
        for cell in cells:
            row += [list(map(add, r, cell)) for r in row]
        tables += [[list(map(add, r, s)) for r, s in zip(t, row)] for t in tables]
    return [list(map(sum, t)) for t in tables], tables


def _masks(code: tuple) -> tuple[int, int]:
    """(S0, S1): the symbols code sends to bit 0 and to bit 1 as bit masks (the coin's in both)."""
    return tuple(sum(1 << i for i, act in enumerate(code) if t in OUTPUTS[act]) for t in (0, 1))


def _filtered_fraction(side_a, masks_b: tuple[int, int]) -> tuple[int, int] | None:
    """(2 * sum_e min_t q(t,t,e), mass of q) in integer weights, or None on zero
    mass, where q is p filtered by code_a and by the B code of masks (S0, S1).

    side_a holds the `_subset_tables` rows P[T0] + P[T1], W[T0] and W[T1] of
    code_a's masks (T0, T1): the mass is sum_ij P[Ti][Sj] and the diagonal at
    e is W[T0][S0][e], W[T1][S1][e].  Stage 1 calls this once per map pair.
    """
    mass_a, diag0, diag1 = side_a
    s0, s1 = masks_b
    mass = mass_a[s0] + mass_a[s1]
    if mass == 0:
        return None
    if not s0 or not s1:  # code_b outputs one bit only: no diagonal mass
        return 0, mass
    return 2 * sum(map(min, diag0[s0], diag1[s1])), mass


def _stage1_pairs(p: JointDist):
    """Yield (num, den, code_a, code_b) in canonical order, pairs of zero mass skipped.

    num/den, unreduced, is the pair's filtered fraction.  Each side runs over
    the deterministic filter codes of the families module in their
    lexicographic order, then the coin code (every symbol to both bits), so
    the order is lexicographic in (code_a, code_b).  p is scaled to integers
    and summed into the `_subset_tables` once; each pair is then a few
    lookups by its codes' `_masks`.  |A| + |B| above MAX_AB is refused before
    anything is built per symbol; at or below it, every pair is examined.
    """
    n_a, n_b = p.axis("A").size, p.axis("B").size
    if n_a + n_b > MAX_AB:
        raise SizeGuardError(
            f"|A| + |B| = {n_a} + {n_b} = {n_a + n_b} exceeds the bound {MAX_AB}: the search "
            f"would range over 3^{n_a + n_b} map pairs"
        )
    totals, tables = _subset_tables(*_entries_by_a(p), n_b)
    codes_b = [*deterministic_codes(n_b), (BOTH,) * n_b]
    masks_b = list(map(_masks, codes_b))
    for code_a in itertools.chain(deterministic_codes(n_a), [(BOTH,) * n_a]):
        t0, t1 = _masks(code_a)
        side_a = (list(map(add, totals[t0], totals[t1])), tables[t0], tables[t1])
        for code_b, masks in zip(codes_b, masks_b):
            value = _filtered_fraction(side_a, masks)
            if value is not None:
                yield *value, code_a, code_b


def _witness(p: JointDist, num: int, den: int, code_a: tuple, code_b: tuple) -> LambdaWitness:
    """The stage-1 pair (code_a, code_b) of filtered fraction num/den, as maps on p."""
    pos_a, pos_b, _ = _ab_eve_split(p)
    return LambdaWitness(
        value=Fraction(num, den),
        map_a=code_map(p.axes[pos_a], code_a),
        map_b=code_map(p.axes[pos_b], code_b),
    )


def estimate_lambda_max(p: JointDist, refine_rounds: int = 0) -> LambdaWitness:
    """Best witnessed lower bound on the extractable secret bit fraction.

    Stage 1 enumerates the deterministic-plus-coin class exhaustively (ties
    resolved toward the first pair in canonical order); then up to
    refine_rounds (>= 0) rounds alternately re-optimize one side's map by
    exact linear-fractional programming, seeded from both the best pair and
    the best fully deterministic pair (the coin is a stationary point of the
    alternating scheme, so it makes a poor seed on its own).  The result is a
    lower bound only: the witness recheck is exact, no claim of optimality is
    made.
    """
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    if p.total_mass() == 0:
        raise ValueError("lambda-max search needs positive total mass")
    refine = refine_rounds > 0
    best = best_det = None
    for entry in _stage1_pairs(p):
        num, den, code_a, code_b = entry
        if best is None or num * best[1] > best[0] * den:
            best = entry
        if refine and BOTH not in (code_a[0], code_b[0]):  # only the coin codes hold BOTH
            if best_det is None or num * best_det[1] > best_det[0] * den:
                best_det = entry
    witness = _witness(p, *best)
    if refine:
        seeds = [witness]
        if best_det is not None and best_det != best:
            seeds.append(_witness(p, *best_det))
        for seed in seeds:
            refined = _refine(p, seed, refine_rounds)
            if refined.value > witness.value:
                witness = refined
    return witness


# -- stage-2 refinement --------------------------------------------------------


def _refine(p: JointDist, witness: LambdaWitness, rounds: int) -> LambdaWitness:
    """Up to `rounds` alternating passes from `witness`, each re-fitting the A
    side, then the B side; stops after a pass with no gain and returns the best
    witness found (the seed if none)."""
    for _ in range(rounds):
        start = witness
        for side in ("A", "B"):
            cand = _refit_side(p, witness, side)
            if cand.value > witness.value:
                witness = cand
        if witness is start:
            break
    return witness


def _refit_side(p: JointDist, witness: LambdaWitness, side: str) -> LambdaWitness:
    """Exact best map for one side, the other fixed, by one LP.

    With the fixed side applied, the fraction 2 * sum_e min_t q(t,t,e) / mass
    is linear-fractional in the free map's coefficients, with a concave
    numerator.  Pinning the mass to 1 (Charnes and Cooper, Naval Research
    Logistics Quarterly 9, 1962) and bounding one variable t_e per Eve symbol
    by both diagonal entries q(0,0,e) and q(1,1,e) makes its maximum that of
    one LP: maximize 2 * sum_e t_e.  The LP is feasible (the witness's own
    map, rescaled) and bounded (t_e <= mass = 1), so any other status is a
    solver fault.
    """
    pos_a, pos_b, eve = _ab_eve_split(p)
    if side == "A":
        fixed_map, free_pos, other_pos = witness.map_b, pos_a, pos_b
    else:
        fixed_map, free_pos, other_pos = witness.map_a, pos_b, pos_a
    n = p.axes[free_pos].size
    mass: dict[int, Fraction] = {}
    # diag[eve_key][b]: the row t_e - q(b,b,e) <= 0 without its t_e entry
    diag: dict[tuple, tuple[dict, dict]] = {}
    for idx, v in apply_local(fixed_map, p, p.axes[other_pos].party).items():
        x, b = idx[free_pos], idx[other_pos]
        for j in (x, n + x):
            mass[j] = mass.get(j, 0) + v
        row = diag.setdefault(tuple(idx[i] for i in eve), ({}, {}))[b]
        row[b * n + x] = row.get(b * n + x, 0) - v
    ts = range(2 * n, 2 * n + len(diag))
    rows = [ratlp.LpRow(mass, "=", 1)]
    for t, key in zip(ts, sorted(diag)):
        rows.extend(ratlp.LpRow({t: 1, **row}, "<=", 0) for row in diag[key])
    sol = ratlp.solve(ratlp.LpProblem(ts.stop, dict.fromkeys(ts, 2), tuple(rows)))
    if sol.status != ratlp.OPTIMAL:
        raise RuntimeError(f"refinement program is {sol.status}; solver invariant broken")
    axis = p.axes[free_pos]
    new_map = LocalMap(axis, Axis(axis.party, 2), [sol.primal[:n], sol.primal[n : 2 * n]])
    if side == "A":
        cand = LambdaWitness(value=sol.objective_value, map_a=new_map, map_b=witness.map_b)
    else:
        cand = LambdaWitness(value=sol.objective_value, map_a=witness.map_a, map_b=new_map)
    if cand.recheck(p) != cand.value:
        raise RuntimeError("refinement produced a witness that fails its exact recheck")
    return cand
