"""Finite families of local map pairs used as certification constraints.

Each pair filters the two composite (bit x copy) alphabets of a candidate
activation distribution down to bits.  Families are ordered and reproducible:
the deterministic generator always starts with the strip pair (measure the
bit factor, ignore the copy factor) followed by every deterministic filter
pair in lexicographic code order, so a family with a smaller cap is a prefix
of any larger one.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .probvec import Axis, LocalMap, _json_int, _known_keys

# per-symbol action codes: 0 -> bit 0, 1 -> bit 1, DISCARD -> drop, BOTH -> both bits
DISCARD = 2
BOTH = 3
OUTPUTS = ((0,), (1,), (), (0, 1))  # the bits each action sends a symbol to


@dataclass(frozen=True)
class MapPair:
    """One constraint: bit-valued filter maps for the A and B sides."""

    map_a: LocalMap
    map_b: LocalMap

    def __post_init__(self):
        for name, m in (("map_a", self.map_a), ("map_b", self.map_b)):
            if m.output_axis.size != 2:
                raise ValueError(f"{name} must output a bit, got size {m.output_axis.size}")

    def to_json_dict(self) -> dict:
        return {"map_a": self.map_a.to_json_dict(), "map_b": self.map_b.to_json_dict()}

    @staticmethod
    def from_json_dict(data: dict) -> "MapPair":
        if not isinstance(data, dict):
            raise ValueError(f"family pair must be an object, got {json.dumps(data)}")
        _known_keys(data, "family pair", ("map_a", "map_b"))
        return MapPair(
            map_a=LocalMap.from_json_dict(data["map_a"]),
            map_b=LocalMap.from_json_dict(data["map_b"]),
        )


@dataclass(frozen=True)
class MapFamily:
    pairs: tuple[MapPair, ...]
    generator: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "pairs": [p.to_json_dict() for p in self.pairs],
            "generator": self.generator,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MapFamily":
        if not isinstance(data, dict):
            raise ValueError(f"family JSON must be an object, got {json.dumps(data)}")
        _known_keys(data, "family", ("pairs", "generator", "seed"))
        if not isinstance(data["pairs"], list):
            raise ValueError(f"family pairs must be a list, got {json.dumps(data['pairs'])}")
        seed = data.get("seed")
        return MapFamily(
            pairs=tuple(MapPair.from_json_dict(p) for p in data["pairs"]),
            generator=str(data.get("generator", "custom")),
            seed=None if seed is None else _json_int(seed, "family seed"),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "MapFamily":
        return MapFamily.from_json_dict(json.loads(text))


def _side_axes(party: str, copy_size: int) -> tuple[Axis, Axis]:
    in_axis = Axis(party, 2 * copy_size, (2, copy_size))
    return in_axis, Axis(party, 2)


def code_map(in_axis: Axis, code: tuple[int, ...]) -> LocalMap:
    """The 0/1 bit-valued map sending input symbol x to the bits OUTPUTS[code[x]]."""
    rows = [[Fraction(0)] * in_axis.size for _ in range(2)]
    for sym, action in enumerate(code):
        for bit in OUTPUTS[action]:
            rows[bit][sym] = Fraction(1)
    return LocalMap(in_axis, Axis(in_axis.party, 2), rows)


def _map_from_code(party: str, copy_size: int, code: tuple[int, ...]) -> LocalMap:
    in_axis, _ = _side_axes(party, copy_size)
    return code_map(in_axis, code)


def _strip_code(copy_size: int) -> tuple[int, ...]:
    # symbol index = bit * copy_size + x; send every symbol to its bit part
    return tuple([0] * copy_size + [1] * copy_size)


def deterministic_codes(n_symbols: int):
    """All deterministic filter codes, lexicographic, all-discard dropped.

    A code gives one action per input symbol: 0 -> bit 0, 1 -> bit 1,
    DISCARD -> drop.
    """
    for code in itertools.product((0, 1, DISCARD), repeat=n_symbols):
        if any(d != DISCARD for d in code):
            yield code


def _det_pairs(a_copy_size: int, b_copy_size: int):
    """Strip pair first, then code-lexicographic pairs (the strip skipped)."""
    strip = (_strip_code(a_copy_size), _strip_code(b_copy_size))
    yield strip
    for code_a in deterministic_codes(2 * a_copy_size):
        for code_b in deterministic_codes(2 * b_copy_size):
            if (code_a, code_b) != strip:
                yield code_a, code_b


def deterministic_family(a_copy_size: int, b_copy_size: int, cap: int) -> MapFamily:
    """The canonical deterministic family, truncated at cap pairs.

    The order is total and stable, so deterministic_family(c) is a prefix of
    deterministic_family(c') whenever c <= c'.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    pairs = tuple(
        MapPair(
            map_a=_map_from_code("A", a_copy_size, code_a),
            map_b=_map_from_code("B", b_copy_size, code_b),
        )
        for code_a, code_b in itertools.islice(_det_pairs(a_copy_size, b_copy_size), cap)
    )
    return MapFamily(pairs=pairs, generator="deterministic")


def random_filter_family(
    a_copy_size: int, b_copy_size: int, m: int, seed: int, denom_bound: int
) -> MapFamily:
    """m pairs with coefficients uniform on {0, 1/denom_bound, ..., 1}."""
    if m < 1:
        raise ValueError("family size m must be >= 1")
    if denom_bound < 1:
        raise ValueError("denom_bound must be >= 1")
    rng = random.Random(seed)

    def draw(party: str, copy_size: int) -> LocalMap:
        in_axis, out_axis = _side_axes(party, copy_size)
        rows = [
            [Fraction(rng.randint(0, denom_bound), denom_bound) for _ in range(in_axis.size)]
            for _ in range(2)
        ]
        return LocalMap(in_axis, out_axis, rows)

    pairs = tuple(
        MapPair(map_a=draw("A", a_copy_size), map_b=draw("B", b_copy_size)) for _ in range(m)
    )
    return MapFamily(pairs=pairs, generator="random", seed=seed)
