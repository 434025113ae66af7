"""Unnormalized multipartite distributions as labeled sparse rational tensors.

A distribution is a non-negative vector over a product of finite alphabets,
one axis per party.  Total mass is *not* required to be 1: filtering maps
(non-negative matrices with no column-sum constraint) may shrink or grow it.
Axes are identified by label, not position; relabeling is explicit.

All values are immutable after construction and all operations are pure
functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rat import ensure_fraction, format_rational, parse_rational

Index = tuple[int, ...]


@dataclass(frozen=True)
class Axis:
    """One party's alphabet: a label and an alphabet size.

    Labels may be composite ("A-bit", "A-copy"); `factors` optionally records
    the sizes of the merged sub-alphabets, outermost first, for axes produced
    by merging.  Factors are annotation only and do not affect identity.
    """

    party: str
    size: int
    factors: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"axis {self.party!r} must have size >= 1, got {self.size}")
        if self.factors is not None:
            object.__setattr__(self, "factors", tuple(self.factors))
            prod = 1
            for f in self.factors:
                prod *= f
            if prod != self.size:
                raise ValueError(
                    f"axis {self.party!r}: factors {self.factors} do not multiply to size {self.size}"
                )


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _axis_to_json(ax: Axis) -> dict:
    d = {"party": ax.party, "size": ax.size}
    if ax.factors is not None:
        d["factors"] = list(ax.factors)
    return d


def _axis_from_json(d: dict) -> Axis:
    if not isinstance(d, dict):
        raise ValueError(f"axis must be an object, got {json.dumps(d)}")
    factors = d.get("factors")
    if factors is not None:
        factors = tuple(_json_int(f, "axis factor") for f in factors)
    return Axis(str(d["party"]), _json_int(d["size"], "axis size"), factors)


class JointDist:
    """Sparse non-negative rational tensor over labeled axes.

    Entries are stored in a dict from index tuple to Fraction; zeros are
    dropped.  Construction checks non-negativity and index bounds.
    """

    __slots__ = ("axes", "_entries")

    def __init__(self, axes: Sequence[Axis], entries: Mapping[Index, Fraction] | Iterable):
        axes = tuple(axes)
        labels = [ax.party for ax in axes]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            raise ValueError(f"duplicate axis label {dup!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[Index, Fraction] = {}
        for idx, val in items:
            idx = tuple(idx)
            if len(idx) != len(axes):
                raise ValueError(f"index {idx} has wrong arity for {len(axes)} axes")
            for pos, (i, ax) in enumerate(zip(idx, axes)):
                if not (0 <= i < ax.size):
                    raise ValueError(
                        f"index {idx} out of range on axis {ax.party!r} (position {pos}, size {ax.size})"
                    )
            val = ensure_fraction(val)
            if val < 0:
                raise ValueError(f"negative entry {val} at {idx}: distributions are non-negative")
            if val != 0:
                if idx in store:
                    raise ValueError(f"duplicate index {idx}")
                store[idx] = val
            elif idx in store:
                raise ValueError(f"duplicate index {idx}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("JointDist is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ax.party for ax in self.axes)

    def axis(self, label: str) -> Axis:
        return self.axes[self.axis_pos(label)]

    def axis_pos(self, label: str) -> int:
        for pos, ax in enumerate(self.axes):
            if ax.party == label:
                return pos
        raise KeyError(f"no axis labeled {label!r} (have {list(self.labels)})")

    def value(self, idx: Index) -> Fraction:
        return self._entries.get(tuple(idx), Fraction(0))

    def items(self):
        return self._entries.items()

    def nnz(self) -> int:
        return len(self._entries)

    def total_mass(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDist):
            return NotImplemented
        return self.axes == other.axes and self._entries == other._entries

    def __repr__(self) -> str:
        shape = "x".join(f"{ax.party}:{ax.size}" for ax in self.axes)
        return f"JointDist({shape}, nnz={self.nnz()}, mass={self.total_mass()})"

    # -- algebra ---------------------------------------------------------

    def scale(self, c) -> "JointDist":
        c = ensure_fraction(c)
        if c < 0:
            raise ValueError("scale factor must be non-negative")
        return JointDist(self.axes, {i: c * v for i, v in self.items()})

    def add(self, other: "JointDist") -> "JointDist":
        if self.axes != other.axes:
            raise ValueError("can only add distributions with identical axes")
        out = dict(self._entries)
        for i, v in other.items():
            out[i] = out.get(i, Fraction(0)) + v
        return JointDist(self.axes, out)

    def relabel(self, mapping: Mapping[str, str]) -> "JointDist":
        axes = tuple(
            Axis(mapping.get(ax.party, ax.party), ax.size, ax.factors) for ax in self.axes
        )
        return JointDist(axes, self._entries)

    def permute(self, order: Sequence[str]) -> "JointDist":
        """Reorder axes to the given label order (must be a permutation)."""
        if sorted(order) != sorted(self.labels):
            raise ValueError(f"order {list(order)} is not a permutation of {list(self.labels)}")
        perm = [self.axis_pos(l) for l in order]
        axes = tuple(self.axes[p] for p in perm)
        entries = {tuple(idx[p] for p in perm): v for idx, v in self.items()}
        return JointDist(axes, entries)

    def merge_axes(self, labels: Sequence[str], new_label: str) -> "JointDist":
        """Merge consecutive-in-`labels`-order axes into one composite axis.

        The merged index is mixed-radix with the first listed axis outermost:
        idx = ((i0 * s1 + i1) * s2 + i2) ...  The composite axis lands at the
        position of the first merged axis and records the factor sizes.
        """
        if len(labels) == 0:
            raise ValueError("merge_axes needs at least one label")
        positions = [self.axis_pos(l) for l in labels]
        sizes = [self.axes[p].size for p in positions]
        pos_set = set(positions)
        if len(pos_set) != len(positions):
            raise ValueError("merge_axes labels must be distinct")
        first = min(positions)
        merged_size = 1
        for s in sizes:
            merged_size *= s
        new_axes: list[Axis] = []
        for pos, ax in enumerate(self.axes):
            if pos == first:
                new_axes.append(Axis(new_label, merged_size, tuple(sizes)))
            elif pos not in pos_set:
                new_axes.append(ax)
        labels_after = [ax.party for ax in new_axes]
        if labels_after.count(new_label) > 1:
            raise ValueError(f"merged label {new_label!r} collides with an existing axis")
        entries: dict[Index, Fraction] = {}
        for idx, v in self.items():
            combined = 0
            for p, s in zip(positions, sizes):
                combined = combined * s + idx[p]
            out_idx = []
            for pos in range(len(self.axes)):
                if pos == first:
                    out_idx.append(combined)
                elif pos not in pos_set:
                    out_idx.append(idx[pos])
            key = tuple(out_idx)
            entries[key] = entries.get(key, Fraction(0)) + v
        return JointDist(new_axes, entries)

    def split_axis(self, label: str, sizes: Sequence[int], new_labels: Sequence[str]) -> "JointDist":
        """Inverse of merge_axes: unpack a composite axis into factor axes."""
        pos = self.axis_pos(label)
        ax = self.axes[pos]
        sizes = list(sizes)
        prod = 1
        for s in sizes:
            prod *= s
        if prod != ax.size:
            raise ValueError(f"sizes {sizes} do not factor axis {label!r} of size {ax.size}")
        if len(new_labels) != len(sizes):
            raise ValueError("need one new label per factor")
        new_axes = (
            list(self.axes[:pos])
            + [Axis(l, s) for l, s in zip(new_labels, sizes)]
            + list(self.axes[pos + 1 :])
        )
        entries = {}
        for idx, v in self.items():
            rem = idx[pos]
            parts = [0] * len(sizes)
            for j in range(len(sizes) - 1, -1, -1):
                parts[j] = rem % sizes[j]
                rem //= sizes[j]
            entries[idx[:pos] + tuple(parts) + idx[pos + 1 :]] = v
        return JointDist(new_axes, entries)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            {"index": list(idx), "p": format_rational(v)}
            for idx, v in sorted(self.items())
        ]
        return {"axes": [_axis_to_json(ax) for ax in self.axes], "entries": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "JointDist":
        if not isinstance(data, dict) or "axes" not in data or "entries" not in data:
            raise ValueError("distribution JSON needs 'axes' and 'entries'")
        axes = [_axis_from_json(d) for d in data["axes"]]
        seen: set[Index] = set()
        entries: dict[Index, Fraction] = {}
        for e in data["entries"]:
            if not isinstance(e, dict):
                raise ValueError(f"distribution entry must be an object, got {json.dumps(e)}")
            idx = tuple(_json_int(i, "entry index") for i in e["index"])
            if idx in seen:
                raise ValueError(f"duplicate index {list(idx)} in distribution JSON")
            seen.add(idx)
            entries[idx] = parse_rational(e["p"])
        return JointDist(axes, entries)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "JointDist":
        return JointDist.from_json_dict(json.loads(text))


class LocalMap:
    """Non-negative linear map between two alphabets (rows = outputs).

    No column-sum constraint: filtering (probability loss) is allowed.
    """

    __slots__ = ("input_axis", "output_axis", "coeffs")

    def __init__(self, input_axis: Axis, output_axis: Axis, coeffs):
        rows = tuple(tuple(ensure_fraction(c) for c in row) for row in coeffs)
        if len(rows) != output_axis.size:
            raise ValueError(
                f"map has {len(rows)} rows but output axis {output_axis.party!r} has size {output_axis.size}"
            )
        for row in rows:
            if len(row) != input_axis.size:
                raise ValueError(
                    f"map row has {len(row)} columns but input axis size is {input_axis.size}"
                )
            for c in row:
                if c < 0:
                    raise ValueError(f"negative map coefficient {c}")
        object.__setattr__(self, "input_axis", input_axis)
        object.__setattr__(self, "output_axis", output_axis)
        object.__setattr__(self, "coeffs", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LocalMap is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalMap):
            return NotImplemented
        return (
            self.input_axis == other.input_axis
            and self.output_axis == other.output_axis
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return (
            f"LocalMap({self.input_axis.party}:{self.input_axis.size} -> "
            f"{self.output_axis.party}:{self.output_axis.size})"
        )

    @staticmethod
    def identity(axis: Axis) -> "LocalMap":
        n = axis.size
        return LocalMap(
            axis, axis, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def compose(self, inner: "LocalMap") -> "LocalMap":
        """Matrix product self . inner (apply `inner` first)."""
        if inner.output_axis.size != self.input_axis.size:
            raise ValueError("composition size mismatch")
        n_out, n_mid, n_in = self.output_axis.size, self.input_axis.size, inner.input_axis.size
        rows = []
        for i in range(n_out):
            row = []
            for j in range(n_in):
                row.append(
                    sum((self.coeffs[i][k] * inner.coeffs[k][j] for k in range(n_mid)), Fraction(0))
                )
            rows.append(row)
        return LocalMap(inner.input_axis, self.output_axis, rows)

    def tensor(self, other: "LocalMap") -> "LocalMap":
        """Kronecker product; indices combine with self's factor outermost."""
        in_ax = Axis(
            f"{self.input_axis.party}*{other.input_axis.party}",
            self.input_axis.size * other.input_axis.size,
            (self.input_axis.size, other.input_axis.size),
        )
        out_ax = Axis(
            f"{self.output_axis.party}*{other.output_axis.party}",
            self.output_axis.size * other.output_axis.size,
            (self.output_axis.size, other.output_axis.size),
        )
        rows = []
        for i1 in range(self.output_axis.size):
            for i2 in range(other.output_axis.size):
                row = []
                for j1 in range(self.input_axis.size):
                    for j2 in range(other.input_axis.size):
                        row.append(self.coeffs[i1][j1] * other.coeffs[i2][j2])
                rows.append(row)
        return LocalMap(in_ax, out_ax, rows)

    def to_json_dict(self) -> dict:
        return {
            "input": _axis_to_json(self.input_axis),
            "output": _axis_to_json(self.output_axis),
            "coeffs": [[format_rational(c) for c in row] for row in self.coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "LocalMap":
        if not isinstance(data, dict):
            raise ValueError(f"map must be an object, got {json.dumps(data)}")
        input_axis, output_axis = _axis_from_json(data["input"]), _axis_from_json(data["output"])
        coeffs = data["coeffs"]
        if not (isinstance(coeffs, list) and all(isinstance(row, list) for row in coeffs)):
            raise ValueError(f"map coeffs must be a list of rows, got {json.dumps(coeffs)}")
        rows = [[parse_rational(c) for c in row] for row in coeffs]
        return LocalMap(input_axis, output_axis, rows)


# -- module-level operations ----------------------------------------------


def tensor(p: JointDist, q: JointDist) -> JointDist:
    """Tensor product; axis labels must be disjoint (relabel first)."""
    collision = set(p.labels) & set(q.labels)
    if collision:
        raise ValueError(f"axis label collision in tensor: {sorted(collision)!r}")
    axes = p.axes + q.axes
    entries = {}
    for ip, vp in p.items():
        for iq, vq in q.items():
            entries[ip + iq] = vp * vq
    return JointDist(axes, entries)


def apply_local(m: LocalMap, p: JointDist, axis: str) -> JointDist:
    """Contract a map into the named axis: out(..,y,..) = sum_x m[y,x] p(..,x,..)."""
    pos = p.axis_pos(axis)
    if m.input_axis.size != p.axes[pos].size:
        raise ValueError(
            f"map input size {m.input_axis.size} does not match axis {axis!r} "
            f"of size {p.axes[pos].size}"
        )
    new_axes = p.axes[:pos] + (m.output_axis,) + p.axes[pos + 1 :]
    labels = [ax.party for ax in new_axes]
    if len(set(labels)) != len(labels):
        raise ValueError(
            f"output axis label {m.output_axis.party!r} collides with an existing axis"
        )
    entries: dict[Index, Fraction] = {}
    for idx, v in p.items():
        x = idx[pos]
        for y in range(m.output_axis.size):
            c = m.coeffs[y][x]
            if c == 0:
                continue
            key = idx[:pos] + (y,) + idx[pos + 1 :]
            entries[key] = entries.get(key, Fraction(0)) + c * v
    return JointDist(new_axes, entries)


def total_mass(p: JointDist) -> Fraction:
    return p.total_mass()


def marginal(p: JointDist, keep: Iterable[str]) -> JointDist:
    """Sum out every axis not in `keep`; mass is preserved exactly."""
    keep = list(keep)
    for l in keep:
        p.axis(l)  # raises on unknown label
    keep_set = set(keep)
    positions = [pos for pos, ax in enumerate(p.axes) if ax.party in keep_set]
    axes = tuple(p.axes[pos] for pos in positions)
    entries: dict[Index, Fraction] = {}
    for idx, v in p.items():
        key = tuple(idx[pos] for pos in positions)
        entries[key] = entries.get(key, Fraction(0)) + v
    return JointDist(axes, entries)


def secret_bit() -> JointDist:
    """Perfectly correlated uniform bit pair: entries 1/2 on the diagonal."""
    axes = (Axis("A", 2), Axis("B", 2))
    return JointDist(axes, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})


def tensor_power(p: JointDist, n: int) -> JointDist:
    """n-fold tensor power with each party's copies merged into one axis.

    Copy 1 is the outermost digit of each merged index, matching the
    convention used by currying (the last copy is the consumed factor).
    """
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if n == 1:
        return p
    base_labels = p.labels
    result = p
    for copy in range(2, n + 1):
        q = p.relabel({l: f"{l}#{copy}" for l in base_labels})
        result = tensor(result, q)
    for l in base_labels:
        merged = [l] + [f"{l}#{c}" for c in range(2, n + 1)]
        result = result.merge_axes(merged, l)
    return result.permute(base_labels)
