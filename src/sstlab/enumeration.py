"""Brute-force ground truth for blocking questions.

Everything here is exhaustive and deterministic: enumerate the
non-crossing spanning trees (optionally diameter-bounded), decide
whether an edge set blocks a family, and find all minimum blockers as
the minimum hitting sets of the family.  Family members are materialized
as edge bit masks so a blocking test is a disjointness scan with early
exit.

Size guards keep misuse loud: enumeration is capped at n <= 10 and the
minimum-blocker search at n <= 8, both overridable with force=True.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .graph import (
    Config,
    EdgeSet,
    bits,
    crossing_masks,
    edge_index,
    edge_pairs,
    star,
)

ENUMERATE_MAX_N = 10
MIN_BLOCKERS_MAX_N = 8


class SizeGuardError(ValueError):
    """Instance exceeds the documented practical bound; pass force=True
    to override."""


@dataclass(frozen=True)
class Family:
    """A family of spanning subgraphs: diameter-bounded trees, all
    non-crossing spanning trees, or all non-crossing spanning subgraphs
    without isolated vertices."""

    kind: str  # "trees_diam_at_most" | "spanning_trees" | "spanning_subgraphs"
    k: int | None = None

    def __post_init__(self):
        if self.kind == "trees_diam_at_most":
            if self.k is None or self.k < 2:
                raise ValueError("diameter bound must be at least 2")
        elif self.kind in ("spanning_trees", "spanning_subgraphs"):
            if self.k is not None:
                raise ValueError(f"{self.kind} takes no diameter bound")
        else:
            raise ValueError(f"unknown family kind: {self.kind}")

    @classmethod
    def trees_diam_at_most(cls, k: int) -> "Family":
        return cls("trees_diam_at_most", k)

    @classmethod
    def spanning_trees(cls) -> "Family":
        return cls("spanning_trees")

    @classmethod
    def spanning_subgraphs(cls) -> "Family":
        return cls("spanning_subgraphs")

    def describe(self) -> str:
        if self.kind == "trees_diam_at_most":
            return f"t{self.k}"
        return "sst" if self.kind == "spanning_trees" else "sss"


@dataclass(frozen=True)
class BlockReport:
    """Outcome of a blocking test; when blocks is False the witness is
    the canonically smallest family member disjoint from the tested set."""

    blocks: bool
    witness: EdgeSet | None


class MinimumBlockers(NamedTuple):
    size: int
    blockers: tuple[EdgeSet, ...]


def _guard(n: int, bound: int, force: bool, what: str) -> None:
    if n > bound and not force:
        raise SizeGuardError(
            f"{what} is capped at n <= {bound} (got n={n}); pass force=True to override"
        )


def _tree_diameter(n: int, edge_ids: list[int], pairs) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in edge_ids:
        u, v = pairs[i]
        adj[u].append(v)
        adj[v].append(u)

    def sweep(start: int) -> tuple[int, int]:
        dist = [-1] * n
        dist[start] = 0
        queue = deque([start])
        far, best = start, 0
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    if dist[w] > best:
                        far, best = w, dist[w]
                    queue.append(w)
        return far, best

    far, _ = sweep(0)
    _, diameter = sweep(far)
    return diameter


def _iter_tree_masks(config: Config) -> Iterator[int]:
    """All non-crossing spanning trees as masks, by recursive edge
    inclusion over the canonical edge list.

    Include is tried before exclude, so trees come out in ascending
    lexicographic order of their edge-index tuples.  Pruning: cycle
    avoidance via component labels, incremental crossing rejection, a
    count bound on remaining edges, and a last-chance check that skips
    branches leaving a vertex permanently uncovered.
    """
    n = config.n
    pairs = edge_pairs(n)
    m = len(pairs)
    cross = crossing_masks(config)
    target = n - 1
    last_chance = [
        edge_index(n, v, n - 1) if v < n - 1 else m - 1 for v in range(n)
    ]

    def rec(i: int, count: int, mask: int, covered: int, comp: list[int]):
        if count == target:
            yield mask
            return
        if m - i < target - count:
            return
        u, v = pairs[i]
        cu, cv = comp[u], comp[v]
        if cu != cv and not (cross[i] & mask):
            merged = [cu if c == cv else c for c in comp]
            yield from rec(
                i + 1, count + 1, mask | (1 << i), covered | (1 << u) | (1 << v), merged
            )
        if ((covered >> u) & 1 or i != last_chance[u]) and (
            (covered >> v) & 1 or i != last_chance[v]
        ):
            yield from rec(i + 1, count, mask, covered, comp)

    yield from rec(0, 0, 0, 0, list(range(n)))


def _diam_le3_masks(config: Config, max_diameter: int) -> list[int]:
    """Direct construction of all non-crossing spanning trees of
    diameter <= 3: the n stars, plus one tree per (central edge,
    two-sided vertex split) that survives the crossing filter.

    Equivalent to filtering the generic enumeration; kept because the
    fuzz harnesses enumerate thousands of small instances.
    """
    n = config.n
    cross = crossing_masks(config)
    out = [star(n, v).mask for v in range(n)]
    if max_diameter >= 3:
        pairs = edge_pairs(n)
        for ei, (x, y) in enumerate(pairs):
            others = [v for v in range(n) if v != x and v != y]
            rest = len(others)
            for split in range(1, (1 << rest) - 1):
                mask = 1 << ei
                ok = True
                for t, v in enumerate(others):
                    hub = y if (split >> t) & 1 else x
                    idx = edge_index(n, hub, v)
                    if cross[idx] & mask:
                        ok = False
                        break
                    mask |= 1 << idx
                if ok:
                    out.append(mask)
    out.sort(key=bits)
    return out


def _compute_family_masks(config: Config, max_diameter: int | None) -> Iterator[int]:
    if max_diameter is not None and max_diameter < 2:
        return
    if max_diameter is not None and max_diameter <= 3:
        yield from _diam_le3_masks(config, max_diameter)
        return
    n = config.n
    pairs = edge_pairs(n)
    if max_diameter is None or max_diameter >= n - 1:
        yield from _iter_tree_masks(config)
        return
    for mask in _iter_tree_masks(config):
        if _tree_diameter(n, bits(mask), pairs) <= max_diameter:
            yield mask


@lru_cache(maxsize=64)
def _family_masks(config: Config, max_diameter: int | None) -> tuple[int, ...]:
    return tuple(_compute_family_masks(config, max_diameter))


def _iter_family_masks(config: Config, max_diameter: int | None) -> Iterator[int]:
    """Lazy family scan: the cheap diameter-<=3 families come from the
    cache, larger ones stream from the recursion so early exits pay off."""
    if max_diameter is not None and max_diameter <= 3:
        yield from _family_masks(config, max_diameter)
    else:
        yield from _compute_family_masks(config, max_diameter)


def enumerate_ssts(
    config: Config, max_diameter: int | None = None, force: bool = False
) -> list[EdgeSet]:
    """All non-crossing spanning trees, optionally with a diameter cap,
    in canonical order (ascending edge-index tuples) and without
    duplicates."""
    _guard(config.n, ENUMERATE_MAX_N, force, "enumeration")
    return [EdgeSet(config.n, mask) for mask in _family_masks(config, max_diameter)]


def _family_diameter(family: Family) -> int | None:
    return family.k if family.kind == "trees_diam_at_most" else None


def blocks(config: Config, b: EdgeSet, family: Family, force: bool = False) -> BlockReport:
    """Does b share an edge with every member of the family?

    Tree families scan the enumeration with early exit, returning the
    first (canonically smallest) avoiding member as witness.  The
    spanning-subgraph family reduces to an edge-cover search on the
    complement: an avoiding member exists iff the complement contains a
    non-crossing edge set covering every vertex.

    t3 and smaller families come from a cache, but t4 and sst re-run
    the SST recursion on every call, so early exit pays off for a single
    query.  A caller asking about many sets should list the members once
    with enumerate_ssts and scan them.
    """
    if b.n != config.n:
        raise ValueError("edge set belongs to a different vertex count")
    if family.kind == "spanning_subgraphs":
        witness = noncrossing_edge_cover(config, b.complement())
        return BlockReport(witness is None, witness)
    _guard(config.n, ENUMERATE_MAX_N, force, "enumeration")
    bmask = b.mask
    for mask in _iter_family_masks(config, _family_diameter(family)):
        if not (mask & bmask):
            return BlockReport(False, EdgeSet(config.n, mask))
    return BlockReport(True, None)


def noncrossing_edge_cover(config: Config, h: EdgeSet) -> EdgeSet | None:
    """A non-crossing subset of h covering every vertex, or None.

    Branches on the lowest-index uncovered vertex, over its incident
    h-edges compatible with the partial selection; the first cover found
    (deterministic) is returned.
    """
    n = config.n
    cross = crossing_masks(config)
    pairs = edge_pairs(n)
    incident: list[list[int]] = [[] for _ in range(n)]
    for i in bits(h.mask):
        u, v = pairs[i]
        incident[u].append(i)
        incident[v].append(i)
    if any(not incident[v] for v in range(n)):
        return None
    full = (1 << n) - 1

    def rec(covered: int, chosen: int) -> int | None:
        if covered == full:
            return chosen
        v = (~covered & (covered + 1)).bit_length() - 1
        for i in incident[v]:
            if cross[i] & chosen:
                continue
            a, b = pairs[i]
            found = rec(covered | (1 << a) | (1 << b), chosen | (1 << i))
            if found is not None:
                return found
        return None

    mask = rec(0, 0)
    return None if mask is None else EdgeSet(n, mask)


def _member_index(members: tuple[int, ...], m: int) -> list[int]:
    """hits[e]: bit j is set when edge e lies in members[j]."""
    rows = [bytearray((len(members) + 7) >> 3) for _ in range(m)]
    for j, mask in enumerate(members):
        for e in bits(mask):
            rows[e][j >> 3] |= 1 << (j & 7)
    return [int.from_bytes(row, "little") for row in rows]


@lru_cache(maxsize=64)
def _minimum_blockers_impl(config: Config, family: Family) -> MinimumBlockers:
    n = config.n
    if family.kind == "spanning_subgraphs":

        def missed(chosen: int) -> int:
            cover = noncrossing_edge_cover(config, EdgeSet(n, chosen).complement())
            return 0 if cover is None else cover.mask

    else:
        members = _family_masks(config, _family_diameter(family))
        hits = _member_index(members, len(edge_pairs(n)))
        everyone = (1 << len(members)) - 1

        def missed(chosen: int) -> int:
            unhit = everyone
            for e in bits(chosen):
                unhit &= ~hits[e]
            return members[(unhit & -unhit).bit_length() - 1] if unhit else 0

    found: list[int] = []

    def search(chosen: int, excluded: int, budget: int) -> None:
        member = missed(chosen)
        if not member:
            found.append(chosen)
        elif budget:
            for e in bits(member & ~excluded):
                search(chosen | (1 << e), excluded, budget - 1)
                excluded |= 1 << e

    for size in range(1, len(edge_pairs(n)) + 1):
        search(0, 0, size)
        if found:
            found.sort(key=bits)
            return MinimumBlockers(size, tuple(EdgeSet(n, mask) for mask in found))
    raise AssertionError("unreachable: the complete edge set blocks every family")


def minimum_blockers(config: Config, family: Family, force: bool = False) -> MinimumBlockers:
    """The minimum blocker cardinality and every blocker of that size,
    in canonical order (ascending edge-index tuples).

    Iterative deepening on the size k: the search branches on the edges
    of a member the partial set misses (for SSS, the edge cover of its
    complement) and excludes the edges of earlier siblings, so at the
    first k with a hit it reaches each size-k blocker exactly once."""
    _guard(config.n, MIN_BLOCKERS_MAX_N, force, "minimum-blocker search")
    if family.kind != "spanning_subgraphs":
        _guard(config.n, ENUMERATE_MAX_N, force, "enumeration")
    return _minimum_blockers_impl(config, family)
