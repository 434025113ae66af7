"""Unnormalized multipartite distributions as labeled sparse rational tensors.

A distribution is a non-negative vector over a product of finite alphabets,
one axis per party.  Total mass is *not* required to be 1: filtering maps
(non-negative matrices with no column-sum constraint) may shrink or grow it.
Axes are identified by label, not position.

All values are immutable after construction and all operations are pure
functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rat import ensure_fraction, format_rational, parse_rational

Index = tuple[int, ...]


@dataclass(frozen=True)
class Axis:
    """One party's alphabet: a label and an alphabet size.

    Labels may be composite ("A-bit", "A-copy"); `factors` optionally records
    the sizes of the merged sub-alphabets, outermost first, for composite
    axes such as a tensor power's.  Factors are part of identity: two axes
    are equal, and hash alike, only when label, size and factors all agree.
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
                if f < 1:
                    raise ValueError(f"axis {self.party!r}: factor {f} must be >= 1")
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


def _json_list(value, what: str) -> list:
    """A list read from JSON; any other type is refused."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def _json_str(value, what: str) -> str:
    """A string read from JSON; any other type is refused."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {json.dumps(value)}")
    return value


def _json_object(value, what: str, required: tuple[str, ...],
                 optional: tuple[str, ...] = ()) -> dict:
    """A JSON object with every key of `required` and no key outside `required +
    optional`; a non-object, an unknown key and a missing key are refused, each
    in a line that begins with `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {json.dumps(value)}")
    for k in value:
        if k not in required and k not in optional:
            raise ValueError(f"{what} has unknown key {k!r}")
    for k in required:
        if k not in value:
            raise ValueError(f"{what} is missing key {k!r}")
    return value


def _axis_to_json(ax: Axis) -> dict:
    d = {"party": ax.party, "size": ax.size}
    if ax.factors is not None:
        d["factors"] = list(ax.factors)
    return d


def _axis_from_json(d) -> Axis:
    d = _json_object(d, "axis", ("party", "size"), ("factors",))
    party = _json_str(d["party"], "axis party")
    factors = d.get("factors")
    if factors is not None:
        factors = tuple(_json_int(f, "axis factor") for f in _json_list(factors, "axis factors"))
    return Axis(party, _json_int(d["size"], "axis size"), factors)


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
        seen: set[Index] = set()
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
            if idx in seen:
                raise ValueError(f"duplicate index {idx}")
            seen.add(idx)
            if val != 0:
                store[idx] = val
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
        raise ValueError(f"no axis labeled {label!r} (have {list(self.labels)})")

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

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            {"index": list(idx), "p": format_rational(v)}
            for idx, v in sorted(self.items())
        ]
        return {"axes": [_axis_to_json(ax) for ax in self.axes], "entries": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "JointDist":
        _json_object(data, "distribution", ("axes", "entries"))
        axes = [_axis_from_json(d) for d in _json_list(data["axes"], "distribution axes")]
        entries = []
        for e in _json_list(data["entries"], "distribution entries"):
            e = _json_object(e, "distribution entry", ("index", "p"))
            idx = tuple(_json_int(i, "entry index") for i in _json_list(e["index"], "entry index"))
            entries.append((idx, parse_rational(e["p"])))
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

    def to_json_dict(self) -> dict:
        return {
            "input": _axis_to_json(self.input_axis),
            "output": _axis_to_json(self.output_axis),
            "coeffs": [[format_rational(c) for c in row] for row in self.coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "LocalMap":
        data = _json_object(data, "map", ("input", "output", "coeffs"))
        input_axis, output_axis = _axis_from_json(data["input"]), _axis_from_json(data["output"])
        rows = [[parse_rational(c) for c in _json_list(row, "map row")]
                for row in _json_list(data["coeffs"], "map coeffs")]
        return LocalMap(input_axis, output_axis, rows)


# -- module-level operations ----------------------------------------------


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


def tensor_power(p: JointDist, n: int) -> JointDist:
    """n-fold tensor power with each party's copies merged into one axis.

    Copy 1 is the outermost digit of each merged index, matching the
    convention used by currying (the last copy is the consumed factor).
    """
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if n == 1:
        return p
    axes = tuple(Axis(ax.party, ax.size**n, (ax.size,) * n) for ax in p.axes)
    entries = {}
    for copies in itertools.product(p.items(), repeat=n):
        idx = [0] * len(axes)
        for copy_idx, _ in copies:
            idx = [i * ax.size + j for i, ax, j in zip(idx, p.axes, copy_idx)]
        entries[tuple(idx)] = math.prod(v for _, v in copies)
    return JointDist(axes, entries)
