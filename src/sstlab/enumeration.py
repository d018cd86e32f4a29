"""Brute-force ground truth for blocking questions.

Everything here is exhaustive and deterministic: enumerate the
non-crossing spanning trees, decide whether an edge set blocks a
family, and find all minimum blockers as the minimum hitting sets of
the family.  All trees come from a recursion over the canonical edge
list, restricted to an allowed edge mask: an edge set blocks the SST
family iff the recursion over its complement finds no tree.  A
diameter-bounded family is grown around the centres of its trees
instead of filtered out of all of them and materialized as edge bit
masks, so its blocking test is a disjointness scan with early exit;
the hitting-set search carries the bit set of members not yet hit down
its recursion instead of rebuilding it.

Size guards keep misuse loud: enumeration is capped at n <= 10 and the
minimum-blocker search at n <= 8, both overridable with force=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .graph import (
    Config,
    EdgeSet,
    bits,
    crossing_masks,
    edge_pairs,
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


def _iter_tree_masks(config: Config, allowed: int) -> Iterator[int]:
    """All non-crossing spanning trees made of edges in the allowed
    mask, by recursive edge inclusion over the canonical edge list.

    Include is tried before exclude, and only for allowed edges, so
    trees come out in ascending lexicographic order of their edge-index
    tuples.  Pruning: cycle avoidance via component labels, incremental
    crossing rejection, a count bound on remaining edges, and a
    last-chance check that skips branches excluding the last allowed
    edge at a vertex not yet covered.
    """
    n = config.n
    pairs = edge_pairs(n)
    m = len(pairs)
    cross = crossing_masks(config)
    target = n - 1
    last_chance = [-1] * n
    for i in bits(allowed):
        u, v = pairs[i]
        last_chance[u] = last_chance[v] = i
    if -1 in last_chance:
        return

    def rec(i: int, count: int, mask: int, covered: int, comp: list[int]):
        if count == target:
            yield mask
            return
        if m - i < target - count:
            return
        u, v = pairs[i]
        cu, cv = comp[u], comp[v]
        if cu != cv and (allowed >> i) & 1 and not (cross[i] & mask):
            merged = [cu if c == cv else c for c in comp]
            yield from rec(
                i + 1, count + 1, mask | (1 << i), covered | (1 << u) | (1 << v), merged
            )
        if ((covered >> u) & 1 or i != last_chance[u]) and (
            (covered >> v) & 1 or i != last_chance[v]
        ):
            yield from rec(i + 1, count, mask, covered, comp)

    yield from rec(0, 0, 0, 0, list(range(n)))


def _centred_masks(config: Config, k: int) -> list[int]:
    """All non-crossing spanning trees of diameter <= k, grown around
    their centres, in canonical order.

    Every vertex of such a tree lies within k // 2 steps of a centre: a
    vertex when k is even, an edge when k is odd.  From each candidate
    centre the tree grows in BFS layers; each vertex not yet placed
    either hangs on a vertex of the newest layer, through an edge that
    crosses no chosen edge, or waits for a deeper layer, until depth
    k // 2 where no vertex may wait.  A tree with several admissible
    centres is grown once from each, hence the set.
    """
    n = config.n
    cross = crossing_masks(config)
    pairs = edge_pairs(n)
    index = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        index[u][v] = index[v][u] = i
    radius = k // 2
    found: set[int] = set()

    def grow(mask: int, layer: list[int], waiting: list[int], depth: int) -> None:
        if not waiting:
            found.add(mask)
            return
        if depth >= radius:
            return
        may_wait = depth + 1 < radius

        def place(j: int, mask: int, placed: list[int], left: list[int]) -> None:
            if j == len(waiting):
                if placed:
                    grow(mask, placed, left, depth + 1)
                return
            v = waiting[j]
            hung = placed + [v]
            for u in layer:
                i = index[u][v]
                if not cross[i] & mask:
                    place(j + 1, mask | (1 << i), hung, left)
            if may_wait:
                place(j + 1, mask, placed, left + [v])

        place(0, mask, [], [])

    if k % 2 == 0:
        for c in range(n):
            grow(0, [c], [v for v in range(n) if v != c], 0)
    else:
        for i, (x, y) in enumerate(pairs):
            grow(1 << i, [x, y], [v for v in range(n) if v != x and v != y], 0)
    return sorted(found, key=bits)


@lru_cache(maxsize=64)
def _family_masks(config: Config, max_diameter: int | None) -> tuple[int, ...]:
    if max_diameter is None or max_diameter >= config.n - 1:
        return tuple(_iter_tree_masks(config, EdgeSet.complete(config.n).mask))
    return tuple(_centred_masks(config, max_diameter))


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

    Equivalently: does the complement of b contain no member?  sst, like
    any diameter bound of n - 1 or more, runs the SST recursion over the
    complement's edges only and stops at the first tree.  A smaller
    bound scans its cached member list with early exit.  Either way the
    witness is the first (canonically smallest) avoiding member.  The
    spanning-subgraph family reduces to an edge-cover search on the
    complement: an avoiding member exists iff the complement contains a
    non-crossing edge set covering every vertex.
    """
    if b.n != config.n:
        raise ValueError("edge set belongs to a different vertex count")
    if family.kind == "spanning_subgraphs":
        witness = noncrossing_edge_cover(config, b.complement())
        return BlockReport(witness is None, witness)
    _guard(config.n, ENUMERATE_MAX_N, force, "enumeration")
    k = _family_diameter(family)
    if k is None or k >= config.n - 1:
        avoiding = _iter_tree_masks(config, b.complement().mask)
    else:
        avoiding = (mask for mask in _family_masks(config, k) if not mask & b.mask)
    mask = next(avoiding, None)
    return BlockReport(mask is None, None if mask is None else EdgeSet(config.n, mask))


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


def _avoid_index(members: tuple[int, ...], m: int) -> list[int]:
    """avoid[e]: bit j is set when edge e is not in members[j]."""
    rows = [bytearray((len(members) + 7) >> 3) for _ in range(m)]
    for j, mask in enumerate(members):
        for e in bits(mask):
            rows[e][j >> 3] |= 1 << (j & 7)
    everyone = (1 << len(members)) - 1
    return [everyone ^ int.from_bytes(row, "little") for row in rows]


# One `sstlab verify` pass over the default scenarios asks for about 90
# distinct (config, family) keys, and theorem4 re-asks for results of
# theorem1, prop_size and theorem3; 64 entries evicted those before reuse.
@lru_cache(maxsize=256)
def _minimum_blockers_impl(config: Config, family: Family) -> MinimumBlockers:
    n = config.n
    m = len(edge_pairs(n))
    if family.kind == "spanning_subgraphs":
        # members are never listed, so unhit stays empty
        avoid, everyone = [0] * m, 0

        def missed(chosen: int, unhit: int) -> int:
            cover = noncrossing_edge_cover(config, EdgeSet(n, chosen).complement())
            return 0 if cover is None else cover.mask

    else:
        members = _family_masks(config, _family_diameter(family))
        avoid = _avoid_index(members, m)
        everyone = (1 << len(members)) - 1

        def missed(chosen: int, unhit: int) -> int:
            return members[(unhit & -unhit).bit_length() - 1] if unhit else 0

    found: list[int] = []

    def search(chosen: int, unhit: int, excluded: int, budget: int) -> None:
        member = missed(chosen, unhit)
        if not member:
            found.append(chosen)
        elif budget:
            for e in bits(member & ~excluded):
                search(chosen | (1 << e), unhit & avoid[e], excluded, budget - 1)
                excluded |= 1 << e

    for size in range(1, m + 1):
        search(0, everyone, 0, size)
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
    first k with a hit it reaches each size-k blocker exactly once.
    Each branch passes down unhit, the members its set still misses,
    minus those holding the new edge; the next member is its lowest
    bit."""
    _guard(config.n, MIN_BLOCKERS_MAX_N, force, "minimum-blocker search")
    if family.kind != "spanning_subgraphs":
        _guard(config.n, ENUMERATE_MAX_N, force, "enumeration")
    return _minimum_blockers_impl(config, family)
