"""Reference implementations the tests compare the program against.

No command reaches these.  They are the constructions that justify the
certification program (the universal copy-matching map, currying, lifted
products, selector grouping, true-minimum lifted values, feasible-point spot
checks), independent recomputations of values the program works out
another way (the decomposition form of the secret bit fraction and the
advantage over lambda0 built on it, the stage-1 search with one Fraction
sum per map pair, the stage-2 refit with one LP per sign vector over Eve's
symbols, the certification rows written out block by block, the
certification program from per-bit tables summed in Fractions, the witness
check with one dot product per row, the dual check in Fractions, the LP
text parser, the tensor power composed from relabeling, tensor products,
axis merging and permutation), and the distribution and map algebra those
constructions are stated in (the secret bit, entry lookup, scaling, sums,
tensor products, relabeling, permuting, merging and splitting axes,
marginals, the identity map, map composition and Kronecker products, the
duplicate-pair test).  Each reaches its value by a route other than the one
the program takes, which is what makes it an oracle.  The reader of the
witness `lambda-max` prints is here too: no command reads a witness back.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Sequence

from nodistill import ratlp
from nodistill.certifier import (
    UNDISTILLABLE,
    Certificate,
    CertificationProblem,
    _cell,
    build_lp,
)
from nodistill.families import BOTH, OUTPUTS, MapFamily, deterministic_codes
from nodistill.measures import LambdaWitness, _ab_eve_split
from nodistill.probvec import Axis, JointDist, LocalMap, apply_local
from nodistill.ratlp import LpProblem, LpRow
from nodistill.rat import ensure_fraction, parse_rational

# -- distribution and map algebra ---------------------------------------------------


def value(p: JointDist, idx) -> Fraction:
    return dict(p.items()).get(tuple(idx), Fraction(0))


def scale(p: JointDist, c) -> JointDist:
    c = ensure_fraction(c)
    if c < 0:
        raise ValueError("scale factor must be non-negative")
    return JointDist(p.axes, {i: c * v for i, v in p.items()})


def add(p: JointDist, q: JointDist) -> JointDist:
    if p.axes != q.axes:
        raise ValueError("can only add distributions with identical axes")
    out = dict(p.items())
    for i, v in q.items():
        out[i] = out.get(i, Fraction(0)) + v
    return JointDist(p.axes, out)


def secret_bit() -> JointDist:
    """Perfectly correlated uniform bit pair: entries 1/2 on the diagonal."""
    axes = (Axis("A", 2), Axis("B", 2))
    return JointDist(axes, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})


def tensor(p: JointDist, q: JointDist) -> JointDist:
    """Tensor product; axis labels must be disjoint (relabel first)."""
    collision = set(p.labels) & set(q.labels)
    if collision:
        raise ValueError(f"axis label collision in tensor: {sorted(collision)!r}")
    entries = {}
    for ip, vp in p.items():
        for iq, vq in q.items():
            entries[ip + iq] = vp * vq
    return JointDist(p.axes + q.axes, entries)


def relabel(p: JointDist, mapping: dict[str, str]) -> JointDist:
    axes = tuple(Axis(mapping.get(ax.party, ax.party), ax.size, ax.factors) for ax in p.axes)
    return JointDist(axes, dict(p.items()))


def permute(p: JointDist, order: Sequence[str]) -> JointDist:
    """Reorder axes to the given label order (must be a permutation)."""
    if sorted(order) != sorted(p.labels):
        raise ValueError(f"order {list(order)} is not a permutation of {list(p.labels)}")
    perm = [p.axis_pos(l) for l in order]
    axes = tuple(p.axes[i] for i in perm)
    return JointDist(axes, {tuple(idx[i] for i in perm): v for idx, v in p.items()})


def merge_axes(p: JointDist, labels: Sequence[str], new_label: str) -> JointDist:
    """Merge the listed axes into one composite axis.

    The merged index is mixed-radix with the first listed axis outermost:
    idx = ((i0 * s1 + i1) * s2 + i2) ...  The composite axis lands at the
    position of the first merged axis and records the factor sizes.
    """
    if len(labels) == 0:
        raise ValueError("merge_axes needs at least one label")
    positions = [p.axis_pos(l) for l in labels]
    sizes = [p.axes[i].size for i in positions]
    pos_set = set(positions)
    if len(pos_set) != len(positions):
        raise ValueError("merge_axes labels must be distinct")
    first = min(positions)
    merged_size = 1
    for s in sizes:
        merged_size *= s
    new_axes = []
    for pos, ax in enumerate(p.axes):
        if pos == first:
            new_axes.append(Axis(new_label, merged_size, tuple(sizes)))
        elif pos not in pos_set:
            new_axes.append(ax)
    if [ax.party for ax in new_axes].count(new_label) > 1:
        raise ValueError(f"merged label {new_label!r} collides with an existing axis")
    entries: dict[tuple[int, ...], Fraction] = {}
    for idx, v in p.items():
        combined = 0
        for i, s in zip(positions, sizes):
            combined = combined * s + idx[i]
        key = tuple(
            combined if pos == first else idx[pos]
            for pos in range(len(p.axes))
            if pos == first or pos not in pos_set
        )
        entries[key] = entries.get(key, Fraction(0)) + v
    return JointDist(new_axes, entries)


def marginal(p: JointDist, keep: Iterable[str]) -> JointDist:
    """Sum out every axis not in `keep`; mass is preserved exactly."""
    keep = list(keep)
    for l in keep:
        p.axis(l)  # raises on unknown label
    positions = [pos for pos, ax in enumerate(p.axes) if ax.party in keep]
    entries: dict[tuple[int, ...], Fraction] = {}
    for idx, v in p.items():
        key = tuple(idx[pos] for pos in positions)
        entries[key] = entries.get(key, Fraction(0)) + v
    return JointDist(tuple(p.axes[pos] for pos in positions), entries)


def tensor_power_by_composition(p: JointDist, n: int) -> JointDist:
    """`probvec.tensor_power` composed from relabel, tensor, merge_axes and
    permute: copy c is relabeled "<party>#c", the copies are tensored, each
    party's copies are merged in copy order and the axes are put back in p's
    order.  n == 1 returns p itself."""
    if n == 1:
        return p
    result = p
    for copy in range(2, n + 1):
        result = tensor(result, relabel(p, {l: f"{l}#{copy}" for l in p.labels}))
    for l in p.labels:
        result = merge_axes(result, [l] + [f"{l}#{c}" for c in range(2, n + 1)], l)
    return permute(result, p.labels)


def split_axis(p: JointDist, label: str, sizes: Sequence[int], new_labels: Sequence[str]) -> JointDist:
    """Inverse of `merge_axes`: unpack a composite axis into factor axes."""
    pos = p.axis_pos(label)
    ax = p.axes[pos]
    sizes = list(sizes)
    prod = 1
    for s in sizes:
        prod *= s
    if prod != ax.size:
        raise ValueError(f"sizes {sizes} do not factor axis {label!r} of size {ax.size}")
    if len(new_labels) != len(sizes):
        raise ValueError("need one new label per factor")
    new_axes = (
        list(p.axes[:pos])
        + [Axis(l, s) for l, s in zip(new_labels, sizes)]
        + list(p.axes[pos + 1 :])
    )
    entries = {}
    for idx, v in p.items():
        rem = idx[pos]
        parts = [0] * len(sizes)
        for j in range(len(sizes) - 1, -1, -1):
            parts[j] = rem % sizes[j]
            rem //= sizes[j]
        entries[idx[:pos] + tuple(parts) + idx[pos + 1 :]] = v
    return JointDist(new_axes, entries)


def identity_map(axis: Axis) -> LocalMap:
    n = axis.size
    return LocalMap(
        axis, axis, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    )


def compose(outer: LocalMap, inner: LocalMap) -> LocalMap:
    """Matrix product outer . inner (apply `inner` first)."""
    if inner.output_axis.size != outer.input_axis.size:
        raise ValueError("composition size mismatch")
    n_out, n_mid, n_in = outer.output_axis.size, outer.input_axis.size, inner.input_axis.size
    rows = []
    for i in range(n_out):
        row = []
        for j in range(n_in):
            row.append(
                sum((outer.coeffs[i][k] * inner.coeffs[k][j] for k in range(n_mid)), Fraction(0))
            )
        rows.append(row)
    return LocalMap(inner.input_axis, outer.output_axis, rows)


def map_tensor(m1: LocalMap, m2: LocalMap) -> LocalMap:
    """Kronecker product; indices combine with m1's factor outermost."""
    in_ax = Axis(
        f"{m1.input_axis.party}*{m2.input_axis.party}",
        m1.input_axis.size * m2.input_axis.size,
        (m1.input_axis.size, m2.input_axis.size),
    )
    out_ax = Axis(
        f"{m1.output_axis.party}*{m2.output_axis.party}",
        m1.output_axis.size * m2.output_axis.size,
        (m1.output_axis.size, m2.output_axis.size),
    )
    rows = []
    for i1 in range(m1.output_axis.size):
        for i2 in range(m2.output_axis.size):
            row = []
            for j1 in range(m1.input_axis.size):
                for j2 in range(m2.input_axis.size):
                    row.append(m1.coeffs[i1][j1] * m2.coeffs[i2][j2])
            rows.append(row)
    return LocalMap(in_ax, out_ax, rows)


def has_duplicates(family: MapFamily) -> bool:
    seen = set()
    for pair in family.pairs:
        key = (pair.map_a.coeffs, pair.map_b.coeffs)
        if key in seen:
            return True
        seen.add(key)
    return False


# -- universal copy-matching map, currying, lifted products --------------------
#
# Any non-negative map M: H1 (x) H2 -> H3 factors as U . (M' (x) id), where M'
# is a pure re-indexing of M into a map H1 -> H3 (x) H2 and U is a fixed map
# that matches the carried H2 factor against a fresh H2 system:
#
#     U[y3 | (x3, x2, y2)] = [y3 == x3] * [x2 == y2].
#
# `lift` applies the A-side and B-side instances of U to q (x) g without ever
# materializing U: the double delta reduces the contraction to
#
#     out(a', b', e', e) = sum_{x,y} q(a', x, b', y, e') * g(x, y, e).


def universal_map(out_size: int, copy_size: int) -> LocalMap:
    """The fixed matching map on input triples (x3, x2, y2), output x3.

    Exactly out_size * copy_size coefficients are 1, all others 0.
    """
    if out_size < 1 or copy_size < 1:
        raise ValueError("universal_map sizes must be >= 1")
    n_in = out_size * copy_size * copy_size
    in_ax = Axis("U-in", n_in, (out_size, copy_size, copy_size))
    out_ax = Axis("U-out", out_size)
    rows = [[Fraction(0)] * n_in for _ in range(out_size)]
    for x3 in range(out_size):
        for x2 in range(copy_size):
            idx = (x3 * copy_size + x2) * copy_size + x2
            rows[x3][idx] = Fraction(1)
    return LocalMap(in_ax, out_ax, rows)


def curry(m: LocalMap, split: tuple[int, int]) -> LocalMap:
    """Re-index a map on a product alphabet into a map on the first factor.

    Input symbols of `m` are read as pairs (x1, x2) with x1 outermost
    (index = x1 * size2 + x2).  The result sends x1 to the composite output
    (x3, x2), x3 outermost; coefficients are moved, never changed, so
    universal_map(out, size2) composed with curry(m) (x) id reproduces m.
    """
    size1, size2 = split
    if size1 < 1 or size2 < 1 or m.input_axis.size != size1 * size2:
        raise ValueError(
            f"input size {m.input_axis.size} does not factor as {size1}*{size2}"
        )
    out_size = m.output_axis.size
    in_ax = Axis(m.input_axis.party, size1)
    out_ax = Axis(
        f"{m.output_axis.party}*{m.input_axis.party}", out_size * size2, (out_size, size2)
    )
    rows = [[Fraction(0)] * size1 for _ in range(out_size * size2)]
    for x3 in range(out_size):
        for x1 in range(size1):
            for x2 in range(size2):
                rows[x3 * size2 + x2][x1] = m.coeffs[x3][x1 * size2 + x2]
    return LocalMap(in_ax, out_ax, rows)


def lift(q: JointDist, g: JointDist) -> JointDist:
    """Apply the A- and B-side universal maps to q (x) g.

    `q` must have five axes (A-bit, A-copy, B-bit, B-copy, E'), positional,
    with bit axes of size 2 and copy axes matching g's A and B alphabets;
    `g` has three axes (A, B, E).  The result lives on (A, B, E', E) with

        out(a', b', e', e) = sum_{x,y} q(a', x, b', y, e') g(x, y, e).
    """
    if len(q.axes) != 5:
        raise ValueError(f"q must have 5 axes (A-bit, A-copy, B-bit, B-copy, E'), got {len(q.axes)}")
    if len(g.axes) != 3:
        raise ValueError(f"g must have 3 axes (A, B, E), got {len(g.axes)}")
    abit, acopy, bbit, bcopy, eprime = q.axes
    ga, gb, ge = g.axes
    if abit.size != 2 or bbit.size != 2:
        raise ValueError("q's bit axes must have size 2")
    if acopy.size != ga.size:
        raise ValueError(f"A-copy size {acopy.size} does not match g's A alphabet {ga.size}")
    if bcopy.size != gb.size:
        raise ValueError(f"B-copy size {bcopy.size} does not match g's B alphabet {gb.size}")

    by_copy: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (x, y, e), v in g.items():
        by_copy.setdefault((x, y), []).append((e, v))

    ep_label = eprime.party
    while ep_label in {ga.party, gb.party, ge.party}:
        ep_label += "'"
    out_axes = (
        Axis(ga.party, 2),
        Axis(gb.party, 2),
        Axis(ep_label, eprime.size, eprime.factors),
        ge,
    )
    entries: dict[tuple[int, ...], Fraction] = {}
    for (a, x, b, y, ep), qv in q.items():
        hits = by_copy.get((x, y))
        if not hits:
            continue
        for e, gv in hits:
            key = (a, b, ep, e)
            entries[key] = entries.get(key, Fraction(0)) + qv * gv
    return JointDist(out_axes, entries)


# -- selector vectors --------------------------------------------------------


def selector_index(bits) -> int:
    """Pack selector components into an integer, component j at bit j."""
    k = 0
    for j, b in enumerate(bits):
        if b:
            k |= 1 << j
    return k


def selector_bits(k: int, width: int) -> tuple[int, ...]:
    return tuple((k >> j) & 1 for j in range(width))


def _sign_selector(diff: Fraction) -> int:
    """0 when the first diagonal entry attains the minimum; ties pick 0."""
    return 1 if diff > 0 else 0


# -- grouping -----------------------------------------------------------------


def group_by_selector(q: JointDist, g: JointDist, family: MapFamily) -> JointDist:
    """Collapse the helper axis onto the selector alphabet.

    For each helper symbol e' the selector vector stacks, per adversary symbol
    of g, the sign of the lifted diagonal difference, then per family member
    the sign of the filtered diagonal difference (zero differences select 0).
    Slices with equal selector vectors are summed; every lifted or filtered
    value of interest is unchanged because mins on a common side add.
    """
    if len(q.axes) != 5:
        raise ValueError("q must have 5 axes (A-bit, A-copy, B-bit, B-copy, E')")
    abit, acopy, bbit, bcopy, _ep = q.axes
    if len(g.axes) != 3 or g.labels[:2] != ("A", "B"):
        raise ValueError(
            f"g must have exactly three axes ordered (A, B, adversary), got {g.labels}"
        )
    ga, gb, ge = g.axes
    if abit.size != 2 or bbit.size != 2:
        raise ValueError("q's bit axes must have size 2")
    if acopy.size != ga.size or bcopy.size != gb.size:
        raise ValueError("q's copy alphabets must match g's alphabets")
    d = ge.size
    m = len(family)
    tables = [(pair.map_a.coeffs, pair.map_b.coeffs) for pair in family.pairs]
    for i, (ma, mb) in enumerate(tables):
        if len(ma[0]) != 2 * ga.size or len(mb[0]) != 2 * gb.size:
            raise ValueError(f"family pair {i} does not act on q's composite alphabets")

    g_slices: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(d)]
    for (x, y, e), v in g.items():
        g_slices[e][(x, y)] = v

    by_ep: dict[int, list] = {}
    for idx, v in q.items():
        by_ep.setdefault(idx[4], []).append((idx, v))

    out_axes = (
        Axis("A-bit", 2),
        Axis("A-copy", acopy.size),
        Axis("B-bit", 2),
        Axis("B-copy", bcopy.size),
        Axis("K", 1 << (d + m)),
    )
    entries: dict[tuple[int, ...], Fraction] = {}
    for ep, items in sorted(by_ep.items()):
        bits = []
        for e in range(d):
            diff = Fraction(0)
            sl = g_slices[e]
            for (a, x, b, y, _), v in items:
                if a == b:
                    gv = sl.get((x, y))
                    if gv:
                        diff += (gv * v) if a == 0 else -(gv * v)
            bits.append(_sign_selector(diff))
        for ma, mb in tables:
            diff = Fraction(0)
            for (a, x, b, y, _), v in items:
                sym_a = a * acopy.size + x
                sym_b = b * bcopy.size + y
                term0 = ma[0][sym_a] * mb[0][sym_b]
                term1 = ma[1][sym_a] * mb[1][sym_b]
                if term0 or term1:
                    diff += (term0 - term1) * v
            bits.append(_sign_selector(diff))
        k = selector_index(bits)
        for (a, x, b, y, _), v in items:
            key = (a, x, b, y, k)
            entries[key] = entries.get(key, Fraction(0)) + v
    return JointDist(out_axes, entries)


# -- reference values ------------------------------------------------------------


def lifted_objective_value(q: JointDist, g: JointDist, lambda0: Fraction) -> Fraction:
    """Objective evaluated with true minima on an explicit helper alphabet."""
    return 2 * advantage(lift(q, g), lambda0)


def filtered_by_pair(q: JointDist, pair) -> JointDist:
    """Apply a family pair to the merged composite alphabets of q."""
    merged = merge_axes(merge_axes(q, ["A-bit", "A-copy"], "A"), ["B-bit", "B-copy"], "B")
    return apply_local(pair.map_a, apply_local(pair.map_b, merged, "B"), "A")


def family_constraint_value(q: JointDist, pair, lambda0: Fraction) -> Fraction:
    """Filtered advantage (doubled), the quantity each family row bounds by 0."""
    return 2 * advantage(filtered_by_pair(q, pair), lambda0)


def canonical_witness_q(g: JointDist) -> JointDist:
    """The bit-to-alphabet embedding with perfectly correlated copy factors.

    Mass 1/4 on each (a', a', b', b') with a', b' in {0, 1}, trivial helper
    axis.  Its two sides are independent of each other, so every filter pair
    stays at or below the trivial fraction, while lifting it reproduces g on
    the bit axes at weight 1/4.
    """
    sa, sb = g.axis("A").size, g.axis("B").size
    if sa < 2 or sb < 2:
        raise ValueError("canonical witness needs alphabets of size >= 2 on A and B")
    axes = (Axis("A-bit", 2), Axis("A-copy", sa), Axis("B-bit", 2), Axis("B-copy", sb), Axis("E'", 1))
    quarter = Fraction(1, 4)
    entries = {}
    for a in range(2):
        for b in range(2):
            entries[(a, a, b, b, 0)] = quarter
    return JointDist(axes, entries)


# -- feasible-point sampling around an undistillable verdict ------------------


@dataclass(frozen=True)
class SpotcheckReport:
    samples: int
    max_advantage: Fraction
    violations: tuple[str, ...]

    def ok(self) -> bool:
        return not self.violations


def activation_spotcheck(
    g: JointDist,
    family: MapFamily,
    lambda0: Fraction,
    cert: Certificate,
    seed: int = 0,
    vertices: int = 8,
    mixtures: int = 8,
) -> SpotcheckReport:
    """Sample feasible points of a zero-maximum program; none may activate.

    Solves the same feasible region under seeded alternative objectives to
    collect vertices, mixes them with rational convex weights, and recomputes
    each point's lifted advantage from scratch (true minima, no selectors).
    Every advantage must be <= 0 exactly; a violation would mean the verdict
    machinery is unsound.  A zero maximum therefore also rules out g raising
    the extractable fraction of any distribution the family already pins to
    the trivial value, which is what makes products with g inert.
    """
    if cert.verdict != UNDISTILLABLE:
        raise ValueError("spot check applies to undistillable verdicts only")
    lambda0 = ensure_fraction(lambda0)
    setup = CertificationProblem(g=g, family=family, lambda0=lambda0)
    build = build_lp(setup)
    rng = random.Random(seed)
    points: list[JointDist] = []
    base = ratlp.solve(build.problem)
    if base.status == ratlp.OPTIMAL:
        points.append(build.setup.dist_from_vector(base.primal))
    for _ in range(max(0, vertices - 1)):
        alt_obj = {
            j: Fraction(rng.randint(-9, 9))
            for j in rng.sample(range(build.problem.num_vars), min(12, build.problem.num_vars))
        }
        alt = ratlp.LpProblem(
            num_vars=build.problem.num_vars, objective=alt_obj, rows=build.problem.rows
        )
        sol = ratlp.solve(alt)
        if sol.status == ratlp.OPTIMAL:
            points.append(build.setup.dist_from_vector(sol.primal))
    for _ in range(mixtures):
        if len(points) < 2:
            break
        a, b = rng.sample(range(len(points)), 2)
        w = Fraction(rng.randint(1, 9), 10)
        points.append(add(scale(points[a], w), scale(points[b], 1 - w)))

    max_adv: Fraction | None = None
    violations = []
    for n, qk in enumerate(points):
        adv = advantage(lift(qk, g), lambda0)
        if max_adv is None or adv > max_adv:
            max_adv = adv
        if adv > 0:
            violations.append(f"sample {n}: lifted advantage {adv} > 0")
    return SpotcheckReport(
        samples=len(points),
        max_advantage=max_adv if max_adv is not None else Fraction(0),
        violations=tuple(violations),
    )


# -- the secret bit fraction as a decomposition program ------------------------


def secret_bit_fraction_by_decomposition(p: JointDist) -> Fraction:
    """Independent oracle: the best decomposition weight, found by a small LP.

    Maximizes mu = 2 * sum_e t_e over per-Eve-symbol weights t_e bounded by
    both diagonal entries.  Requires p normalized to total mass 1.
    """
    pos_a, pos_b, eve = _ab_eve_split(p)
    if (p.axes[pos_a].size, p.axes[pos_b].size) != (2, 2):
        raise ValueError("decomposition oracle requires binary A and B alphabets")
    if p.total_mass() != 1:
        raise ValueError("decomposition oracle requires total mass exactly 1")
    diag: dict[tuple, list[Fraction]] = {}
    for idx, v in p.items():
        a, b = idx[pos_a], idx[pos_b]
        if a == b:
            key = tuple(idx[i] for i in eve)
            cell = diag.setdefault(key, [Fraction(0), Fraction(0)])
            cell[a] += v
    symbols = sorted(k for k, c in diag.items() if c[0] > 0 and c[1] > 0)
    if not symbols:
        return Fraction(0)
    rows = []
    for j, key in enumerate(symbols):
        d0, d1 = diag[key]
        rows.append(ratlp.LpRow({j: Fraction(1)}, "<=", d0))
        rows.append(ratlp.LpRow({j: Fraction(1)}, "<=", d1))
    problem = ratlp.LpProblem(
        num_vars=len(symbols),
        objective={j: Fraction(2) for j in range(len(symbols))},
        rows=tuple(rows),
    )
    sol = ratlp.solve(problem)
    if sol.status != ratlp.OPTIMAL:
        raise RuntimeError(f"decomposition program unexpectedly {sol.status}")
    return sol.objective_value


def advantage(p: JointDist, lambda0) -> Fraction:
    """2 * sum_e min_a p(a,a,e) - lambda0 * mass(p), positive iff the fraction
    exceeds lambda0, as mass * (fraction - lambda0) with the fraction from the
    decomposition program; 0 at zero mass."""
    mass = p.total_mass()
    if mass == 0:
        return Fraction(0)
    return mass * (secret_bit_fraction_by_decomposition(scale(p, 1 / mass)) - ensure_fraction(lambda0))


# -- the stage-1 search, one Fraction sum per map pair ----------------------------


def mins_and_mass(p_items, pos_a, pos_b, eve_pos, code_a, code_b) -> tuple[Fraction, Fraction]:
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


def filtered_fraction(p_items, pos_a, pos_b, eve_pos, code_a, code_b) -> Fraction | None:
    """Fraction of the pair-filtered distribution, or None on zero mass."""
    mins, mass = mins_and_mass(p_items, pos_a, pos_b, eve_pos, code_a, code_b)
    if mass == 0:
        return None
    return 2 * mins / mass


def stage1_pairs(p: JointDist):
    """(value, code_a, code_b) of every map pair of positive filtered mass, in
    canonical order: each side's deterministic codes, then its coin code.

    Every pair walks all of p in Fractions; the program's search scales p to
    integers and sums it once over every pair of A and B symbol masks.
    """
    pos_a, pos_b, eve = _ab_eve_split(p)
    items = list(p.items())
    codes_a = [*deterministic_codes(p.axes[pos_a].size), (BOTH,) * p.axes[pos_a].size]
    codes_b = [*deterministic_codes(p.axes[pos_b].size), (BOTH,) * p.axes[pos_b].size]
    for code_a in codes_a:
        for code_b in codes_b:
            value = filtered_fraction(items, pos_a, pos_b, eve, code_a, code_b)
            if value is not None:
                yield value, code_a, code_b


# -- stage-2 refit by branch LPs, one per sign vector over Eve's symbols ------------


def refit_side_by_branches(p: JointDist, witness: LambdaWitness, side: str) -> LambdaWitness | None:
    """Exact best map for one side, the other fixed, via branch LPs.

    Branching over which diagonal entry attains the per-Eve-symbol minimum
    turns the fraction into a linear objective over the normalized cone of
    map coefficients (denominator pinned to 1), one LP per branch.
    """
    pos_a, pos_b, eve = _ab_eve_split(p)
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


# -- the certification rows, block by block ------------------------------------------


def certification_rows(problem: CertificationProblem) -> tuple[list[tuple], list[tuple]]:
    """build_lp's rows as (coeffs, sense, rhs) and its row_info.

    Each candidate row is written out in every selector block k from its
    definition, in Fractions, and scaled to integers by the lcm of its
    denominators.  A row is kept unless it is empty or equal to an earlier
    row, compared as its sorted (variable, coefficient) items; the program
    keys rows by their per-bit tables instead.
    """
    sp = problem
    d, nk, sa, sb = sp.d, sp.num_selectors, sp.size_a, sp.size_b
    lam2 = 2 * sp.lambda0
    cells = [(a, x, b, y) for a in range(2) for x in range(sa) for b in range(2) for y in range(sb)]

    def var(a, x, b, y, k):
        return (((a * sa + x) * 2 + b) * sb + y) * nk + k

    maps = [(pair.map_a.coeffs, pair.map_b.coeffs) for pair in sp.family.pairs]
    candidates = []
    for i, (ma, mb) in enumerate(maps):
        row = {}
        for k in range(nk):
            s = (k >> (d + i)) & 1
            for a, x, b, y in cells:
                sym_a, sym_b = a * sa + x, b * sb + y
                row[var(a, x, b, y, k)] = 4 * ma[s][sym_a] * mb[s][sym_b] - lam2 * (
                    ma[0][sym_a] + ma[1][sym_a]
                ) * (mb[0][sym_b] + mb[1][sym_b])
        candidates.append((row, ("family", i)))
    for e in range(d):
        for k in range(nk):
            s = (k >> e) & 1
            row = {}
            for (x, y, ee), v in sp.g.items():
                if ee == e:
                    row[var(s, x, s, y, k)] = v
                    row[var(1 - s, x, 1 - s, y, k)] = -v
            candidates.append((row, ("sel-e", e, k)))
    for i, (ma, mb) in enumerate(maps):
        for k in range(nk):
            s = (k >> (d + i)) & 1
            row = {
                var(a, x, b, y, k): ma[s][a * sa + x] * mb[s][b * sb + y]
                - ma[1 - s][a * sa + x] * mb[1 - s][b * sb + y]
                for a, x, b, y in cells
            }
            candidates.append((row, ("sel-i", i, k)))

    rows, row_info = [], []
    seen: set[tuple] = set()
    for row, info in candidates:
        scale = lcm(*(c.denominator for c in row.values()))
        coeffs = {j: int(c * scale) for j, c in row.items() if c}
        n = len(seen)
        seen.add(tuple(sorted(coeffs.items())))
        if coeffs and len(seen) > n:
            rows.append((coeffs, ratlp.SENSE_LE, 0))
            row_info.append(info)
    rows.append((dict.fromkeys(range(sp.num_vars), 1), ratlp.SENSE_EQ, 1))
    row_info.append(("norm",))
    return rows, row_info


# -- the certification program from Fraction per-bit tables -------------------------


def scaled_to_integers(tables):
    """Multiply (cell, coefficient) tables by the lcm of all their denominators, as ints."""
    scale = reduce(lcm, (c.denominator for t in tables for _, c in t), 1)
    return [[(cell, c.numerator * (scale // c.denominator)) for cell, c in t] for t in tables]


def product_table(terms) -> list[tuple[int, Fraction]]:
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


def fraction_table_program(problem: CertificationProblem) -> tuple[LpProblem, tuple[tuple, ...]]:
    """build_lp's program and row_info, its per-bit tables summed in Fractions.

    Each family pair's tables are Fraction sums over its maps' rows, scaled
    to integers by the lcm of their denominators; every row, one block or
    all of them, is placed and keyed by one generic emit.  The program works
    the tables out in ints and places one-block rows in a loop of their own.
    """
    sp = problem
    lam2 = 2 * sp.lambda0
    d, nk = sp.d, sp.num_selectors
    sa, sb = sp.size_a, sp.size_b

    def placed(tables, shift, mask, ks=range(nk)):
        return {cell * nk + k: c for k in ks for cell, c in tables[(k >> shift) & mask]}

    g_slices: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(d)]
    g_total: dict[tuple[int, int], Fraction] = {}
    for (x, y, e), v in sp.g.items():
        g_slices[e][(x, y)] = v
        g_total[(x, y)] = g_total.get((x, y), Fraction(0)) + v

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

    rows, row_info, seen_rows = [], [], set()

    def emit(tables, shift, ks, info):
        keys = [frozenset(t) for t in tables]
        key = tuple((k, keys[(k >> shift) & 1]) for k in ks if tables[(k >> shift) & 1])
        if key and key not in seen_rows:
            seen_rows.add(key)
            rows.append(LpRow(placed(tables, shift, 1, ks), ratlp.SENSE_LE, 0))
            row_info.append(info)

    maps = []
    for pair in sp.family.pairs:
        ma, mb = pair.map_a.coeffs, pair.map_b.coeffs
        col_a = [ma[0][s] + ma[1][s] for s in range(len(ma[0]))]
        col_b = [mb[0][s] + mb[1][s] for s in range(len(mb[0]))]
        maps.append((ma, mb, col_a, col_b))
    for i, (ma, mb, col_a, col_b) in enumerate(maps):
        tables = scaled_to_integers(
            [product_table(((4, ma[s], mb[s]), (-lam2, col_a, col_b))) for s in range(2)]
        )
        emit(tables, d + i, range(nk), ("family", i))
    for e, sl in enumerate(g_slices):
        tables = [[], []]
        for (x, y), v in sl.items():
            for s in range(2):
                tables[s] += [(_cell(sa, sb, s, x, s, y), v), (_cell(sa, sb, 1 - s, x, 1 - s, y), -v)]
        tables = scaled_to_integers(tables)
        for k in range(nk):
            emit(tables, e, (k,), ("sel-e", e, k))
    for i, (ma, mb, _, _) in enumerate(maps):
        tables = scaled_to_integers(
            [product_table(((1, ma[s], mb[s]), (-1, ma[1 - s], mb[1 - s]))) for s in range(2)]
        )
        for k in range(nk):
            emit(tables, d + i, (k,), ("sel-i", i, k))

    rows.append(LpRow(dict.fromkeys(range(sp.num_vars), 1), ratlp.SENSE_EQ, 1))
    row_info.append(("norm",))
    return LpProblem(num_vars=sp.num_vars, objective=objective, rows=tuple(rows)), tuple(row_info)


# -- the witness check, one dot product per row ----------------------------------------


def primal_violation(problem: LpProblem, value: Fraction, x):
    """`ratlp.violation(problem, value, x=x)` with a dot product for every row,
    whether or not the row holds any of the point's entries."""
    zero = Fraction(0)
    for j, v in x.items():
        if v < 0:
            return "entry", j, v, zero
    for r, row in enumerate(problem.rows):
        lhs = ratlp.dot(row.coeffs, x)
        if lhs > row.rhs if row.sense == ratlp.SENSE_LE else lhs != row.rhs:
            return "row", r, lhs, row.rhs
    obj = ratlp.dot(problem.objective, x)
    if obj != value:
        return "objective", None, obj, value
    return None


# -- the dual check, one Fraction product per nonzero ------------------------------


def dual_violation(problem: LpProblem, value: Fraction, y: Sequence[Fraction]):
    """`ratlp.violation(problem, value, y=y)` with every column sum a Fraction sum."""
    zero = Fraction(0)
    if len(y) != len(problem.rows):
        return "length", None, len(y), len(problem.rows)
    for r, (row, yr) in enumerate(zip(problem.rows, y)):
        if row.sense == ratlp.SENSE_LE and yr < 0:
            return "multiplier", r, yr, zero
    col_sums: dict[int, Fraction] = {}
    for row, yr in zip(problem.rows, y):
        if yr:
            for j, c in row.coeffs.items():
                col_sums[j] = col_sums.get(j, zero) + yr * c
    for j, c in problem.objective.items():
        total = col_sums.get(j, zero)
        if total < c:
            return "column", j, total, c
    for j, total in col_sums.items():
        if j not in problem.objective and total < 0:
            return "column", j, total, zero
    bound = sum((yr * row.rhs for row, yr in zip(problem.rows, y)), zero)
    if bound != value:
        return "bound", None, bound, value
    return None


# -- reading back the LP text dump ------------------------------------------------


def parse_lp(text: str) -> LpProblem:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("vars "):
        raise ValueError("LP dump must start with a 'vars <n>' line")
    num_vars = int(lines[0].split()[1])
    if len(lines) < 2 or not lines[1].startswith("max"):
        raise ValueError("LP dump needs a 'max ...' objective line")

    def parse_terms(tokens: Iterable[str]) -> dict[int, Fraction]:
        out = {}
        for tok in tokens:
            j, _, val = tok.partition(":")
            out[int(j)] = parse_rational(val)
        return out

    objective = parse_terms(lines[1].split()[1:])
    rows = []
    for ln in lines[2:]:
        tokens = ln.split()
        if tokens[0] != "row" or len(tokens) < 3:
            raise ValueError(f"malformed row line: {ln!r}")
        sense = tokens[-2]
        rhs = parse_rational(tokens[-1])
        rows.append(LpRow(parse_terms(tokens[1:-2]), sense, rhs))
    return LpProblem(num_vars=num_vars, objective=objective, rows=tuple(rows))


# -- reading back a lambda-max witness ----------------------------------------------


def witness_from_json_dict(data: dict) -> LambdaWitness:
    """The witness `lambda-max` prints, read back from its JSON object."""
    return LambdaWitness(
        value=parse_rational(data["value"]),
        map_a=LocalMap.from_json_dict(data["map_a"]),
        map_b=LocalMap.from_json_dict(data["map_b"]),
    )
