"""Instance files and deterministic instance generators.

An instance is a JSON document:

    {"name": "...", "seed": 7,
     "points": [[x, y], ...],
     "edges": {"B": [[u, v], ...], ...}}

name and seed are optional metadata; edges is an optional mapping from
labels to edge lists, canonicalized on load.  Parsing validates
everything a Config would reject and names the offending element.

Generators are seeded and fixed: random instances sample integer
coordinates uniformly from [0, 10^6]^2 with Python's Mersenne Twister,
rejecting any point that collides with or becomes collinear to the
points already kept.  Convex instances grow a sample pool until its
hull has enough vertices, then keep the first n hull vertices in
counterclockwise order, so vertex indices follow the convex order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .geometry import COORD_BOUND, Point, find_general_position_violation, orient
from .graph import Config, EdgeSet


class InstanceError(ValueError):
    """Malformed or invalid instance document."""


@dataclass(frozen=True)
class Instance:
    points: tuple[Point, ...]
    edge_sets: dict[str, EdgeSet] = field(default_factory=dict)
    name: str | None = None
    seed: int | None = None

    def config(self) -> Config:
        return Config.from_points(self.points)

    def edges(self, label: str = "B") -> EdgeSet:
        try:
            return self.edge_sets[label]
        except KeyError:
            raise InstanceError(f"instance has no edge set labeled {label!r}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstanceError(message)


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")

    name = doc.get("name")
    _require(name is None or isinstance(name, str), "name must be a string")
    seed = doc.get("seed")
    _require(
        seed is None or (isinstance(seed, int) and not isinstance(seed, bool)),
        "seed must be an integer",
    )
    unknown = set(doc) - {"name", "seed", "points", "edges"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}")

    raw_points = doc.get("points")
    _require(isinstance(raw_points, list), "points must be a list")
    _require(len(raw_points) >= 3, "at least 3 points required")
    points: list[Point] = []
    for i, item in enumerate(raw_points):
        _require(
            isinstance(item, list) and len(item) == 2,
            f"points[{i}] must be a pair [x, y]",
        )
        x, y = item
        for coord in (x, y):
            _require(
                isinstance(coord, int) and not isinstance(coord, bool),
                f"points[{i}] coordinates must be integers",
            )
        _require(
            abs(x) <= COORD_BOUND and abs(y) <= COORD_BOUND,
            f"points[{i}] coordinate exceeds bound {COORD_BOUND}",
        )
        points.append(Point(x, y))

    violation = find_general_position_violation(points)
    if violation is not None and violation.kind == "duplicate":
        first, later = violation.indices
        raise InstanceError(f"points[{later}] duplicates points[{first}]")
    if violation is not None:
        raise InstanceError(violation.describe())
    n = len(points)

    edge_sets: dict[str, EdgeSet] = {}
    raw_edges = doc.get("edges", {})
    _require(isinstance(raw_edges, dict), "edges must be an object")
    for label, lst in raw_edges.items():
        _require(isinstance(lst, list), f"edges[{label!r}] must be a list")
        pairs = []
        for i, item in enumerate(lst):
            _require(
                isinstance(item, list) and len(item) == 2,
                f"edges[{label!r}][{i}] must be a pair [u, v]",
            )
            u, v = item
            for idx in (u, v):
                _require(
                    isinstance(idx, int) and not isinstance(idx, bool),
                    f"edges[{label!r}][{i}] indices must be integers",
                )
            _require(
                0 <= u < n and 0 <= v < n,
                f"edges[{label!r}][{i}] index out of range for {n} points",
            )
            _require(u != v, f"edges[{label!r}][{i}] endpoints coincide")
            pairs.append((u, v))
        edge_sets[label] = EdgeSet.from_pairs(n, pairs)

    return Instance(points=tuple(points), edge_sets=edge_sets, name=name, seed=seed)


def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {}
    if instance.name is not None:
        doc["name"] = instance.name
    if instance.seed is not None:
        doc["seed"] = instance.seed
    doc["points"] = [[p.x, p.y] for p in instance.points]
    if instance.edge_sets:
        doc["edges"] = {
            label: [[u, v] for u, v in instance.edge_sets[label]]
            for label in sorted(instance.edge_sets)
        }
    return doc


def emit_instance(instance: Instance) -> str:
    """Deterministic serialization; parse(emit(x)) == x for valid x."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))


def _grow_general_position(
    rng: random.Random, points: list[Point], count: int
) -> None:
    """Append `count` fresh points, rejecting general-position violations."""
    while count > 0:
        p = Point(rng.randrange(COORD_BOUND + 1), rng.randrange(COORD_BOUND + 1))
        if p in points:
            continue
        n = len(points)
        bad = False
        for i in range(n):
            for j in range(i + 1, n):
                if orient(points[i], points[j], p) == 0:
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        points.append(p)
        count -= 1


def random_instance(n: int, seed: int, name: str | None = None) -> Instance:
    """n points uniform on the integer grid, general position enforced
    by rejection; fixed algorithm so fuzz failures replay exactly."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    points: list[Point] = []
    _grow_general_position(rng, points, n)
    return Instance(
        points=tuple(points), name=name or f"random-n{n}-seed{seed}", seed=seed
    )


def convex_instance(n: int, seed: int, name: str | None = None) -> Instance:
    """n points in convex position, indexed in counterclockwise hull
    order starting from the lexicographic minimum of the kept points."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    points: list[Point] = []
    from .geometry import convex_hull_ccw

    while True:
        _grow_general_position(rng, points, max(4, n // 2))
        hull = convex_hull_ccw(points)
        if len(hull) >= n:
            kept = [points[i] for i in hull[:n]]
            # Reindex so the cycle again starts at the lexicographic
            # minimum of what was kept.
            start = min(range(n), key=lambda i: kept[i])
            kept = kept[start:] + kept[:start]
            return Instance(
                points=tuple(kept), name=name or f"convex-n{n}-seed{seed}", seed=seed
            )
