"""The complete geometric graph on a validated point set.

A Config couples the points with their convex hull and fixes the
canonical edge order: edges are pairs (u, v) with u < v, listed
lexicographically.  Edge sets are bit masks over that order, which keeps
enumeration and blocking tests at a few word operations per candidate
and makes every report byte-stable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .geometry import (
    COORD_BOUND,
    DegeneracyError,
    Point,
    assert_general_position,
    convex_hull_ccw,
    segments_cross,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical form of an edge: endpoints sorted ascending."""
    if u == v:
        raise ValueError(f"edge endpoints coincide: {u}")
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[Edge, ...]:
    """All n(n-1)/2 canonical edges in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@lru_cache(maxsize=None)
def _edge_index(n: int) -> dict[Edge, int]:
    return {e: i for i, e in enumerate(edge_pairs(n))}


def edge_index(n: int, u: int, v: int) -> int:
    return _edge_index(n)[edge(u, v)]


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class EdgeSet:
    """A set of canonical edges over n vertices, stored as a bit mask.

    Bit i corresponds to edge_pairs(n)[i]; iteration is therefore always
    in canonical lexicographic order.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        m = self.n * (self.n - 1) // 2
        if not 0 <= self.mask < (1 << m):
            raise ValueError(f"edge mask out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> "EdgeSet":
        index = _edge_index(n)
        mask = 0
        for p in pairs:
            u, v = int(p[0]), int(p[1])
            e = edge(u, v)
            if e not in index:
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            mask |= 1 << index[e]
        return cls(n, mask)

    @classmethod
    def complete(cls, n: int) -> "EdgeSet":
        return cls(n, (1 << (n * (n - 1) // 2)) - 1)

    def pairs(self) -> tuple[Edge, ...]:
        return tuple(self)

    def complement(self) -> "EdgeSet":
        m = self.n * (self.n - 1) // 2
        return EdgeSet(self.n, ((1 << m) - 1) ^ self.mask)

    def isdisjoint(self, other: "EdgeSet") -> bool:
        return not (self.mask & other.mask)

    def __iter__(self) -> Iterator[Edge]:
        table = edge_pairs(self.n)
        return (table[i] for i in bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, item) -> bool:
        u, v = item
        e = edge(int(u), int(v))
        idx = _edge_index(self.n).get(e)
        return idx is not None and (self.mask >> idx) & 1 == 1

    def _check(self, other: "EdgeSet") -> None:
        if self.n != other.n:
            raise ValueError("edge sets belong to different vertex counts")

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.n, self.mask | other.mask)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.n, self.mask & ~other.mask)

    def __repr__(self) -> str:
        inner = ",".join(f"{u}{v}" if v < 10 else f"{u}-{v}" for u, v in self)
        return f"EdgeSet(n={self.n}, {{{inner}}})"


@dataclass(frozen=True)
class Config:
    """A general-position point set with its hull and canonical edges.

    Immutable and hashable; safe to share between threads and to use as
    a cache key.  Construct with Config.from_points unless the hull is
    already known to be consistent.
    """

    points: tuple[Point, ...]
    hull: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) < 3:
            raise DegeneracyError("a configuration needs at least 3 points")
        for i, p in enumerate(self.points):
            if abs(p[0]) > COORD_BOUND or abs(p[1]) > COORD_BOUND:
                raise ValueError(
                    f"points[{i}] coordinate exceeds bound {COORD_BOUND}: {tuple(p)}"
                )
        assert_general_position(self.points)
        recomputed = tuple(convex_hull_ccw(self.points))
        if recomputed != self.hull:
            raise ValueError("hull inconsistent with points")

    @classmethod
    def from_points(cls, pts: Iterable[Sequence[int]]) -> "Config":
        points = tuple(Point(int(p[0]), int(p[1])) for p in pts)
        return cls(points, tuple(convex_hull_ccw(points)))

    @property
    def n(self) -> int:
        return len(self.points)

    def edge_set(self, pairs: Iterable[Sequence[int]]) -> EdgeSet:
        return EdgeSet.from_pairs(self.n, pairs)


def star(n: int, center: int) -> EdgeSet:
    """The n-1 edges at one vertex."""
    return EdgeSet.from_pairs(n, ((center, v) for v in range(n) if v != center))


@lru_cache(maxsize=64)
def boundary_edges(config: Config) -> EdgeSet:
    """Edges whose endpoints are consecutive on the hull cycle."""
    h = config.hull
    return EdgeSet.from_pairs(
        config.n, (edge(h[i], h[(i + 1) % len(h)]) for i in range(len(h)))
    )


@lru_cache(maxsize=64)
def crossing_masks(config: Config) -> tuple[int, ...]:
    """For each canonical edge, the bit mask of edges crossing it."""
    pairs = edge_pairs(config.n)
    pts = config.points
    masks = [0] * len(pairs)
    for i in range(len(pairs)):
        a, b = pairs[i]
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if segments_cross(pts[a], pts[b], pts[c], pts[d]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def is_noncrossing(config: Config, edges: EdgeSet) -> bool:
    """True iff no two member edges cross (open-segment test)."""
    cross = crossing_masks(config)
    mask = edges.mask
    for i in bits(mask):
        if cross[i] & mask:
            return False
    return True


def component_labels(n: int, pairs: Iterable[Edge]) -> list[int]:
    """Connected-component label per vertex of the abstract graph (V, pairs)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(n)]


@dataclass(frozen=True)
class TreeAnalysis:
    """Structural facts about an edge set viewed as an abstract graph.

    diameter, spine and central_edge are only populated for spanning
    trees; on anything else the analysis degrades to partial data so
    that enumeration filters can call it in bulk.
    """

    is_spanning_tree: bool
    diameter: int | None
    is_caterpillar: bool
    derived_path: tuple[int, ...]
    spine: tuple[int, ...] | None
    central_edge: Edge | None


def _adjacency(n: int, pairs: Iterable[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj: list[list[int]], start: int) -> tuple[list[int], list[int]]:
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
    return dist, parent


def walk_path(adj: dict[int, list[int]], start: int) -> tuple[int, ...]:
    """The vertices of the path through adj that ends at start, in
    order, oriented so that the first vertex is below the last.  Every
    vertex on the path has degree <= 2 in adj."""
    seq = [start]
    prev = -1
    while True:
        nxt = [w for w in adj[seq[-1]] if w != prev]
        if not nxt:
            break
        prev = seq[-1]
        seq.append(nxt[0])
    if seq[0] > seq[-1]:
        seq.reverse()
    return tuple(seq)


def analyze_tree(config: Config, edges: EdgeSet) -> TreeAnalysis:
    """Spanning/diameter/caterpillar analysis of an edge set.

    Diameter comes from a double breadth-first sweep, which is exact on
    trees.  The caterpillar test removes all leaves and checks that the
    derived graph is a path (a single vertex counts; its derived_path is
    reported empty).  When several longest paths exist, the spine is the
    lexicographically smallest vertex sequence, oriented so its first
    endpoint is below its last.
    """
    n = config.n
    pairs = tuple(edges)
    if len(pairs) != n - 1:
        return TreeAnalysis(False, None, False, (), None, None)
    adj = _adjacency(n, pairs)
    dist0, _ = _bfs(adj, 0)
    if min(dist0) < 0:
        return TreeAnalysis(False, None, False, (), None, None)

    # Double sweep for the diameter, then all-pairs distances for spine
    # selection (n is small; clarity over asymptotics).
    far = max(range(n), key=lambda v: (dist0[v], -v))
    dist_far, _ = _bfs(adj, far)
    diameter = max(dist_far)

    degree = [len(adj[v]) for v in range(n)]
    derived_vertices = [v for v in range(n) if degree[v] >= 2]
    derived_adj = {
        v: [w for w in adj[v] if degree[w] >= 2] for v in derived_vertices
    }
    is_caterpillar = all(len(ws) <= 2 for ws in derived_adj.values())

    derived_path: tuple[int, ...] = ()
    if is_caterpillar and len(derived_vertices) >= 2:
        end = next(v for v in derived_vertices if len(derived_adj[v]) <= 1)
        derived_path = walk_path(derived_adj, end)

    spine: tuple[int, ...] | None = None
    central: Edge | None = None
    if is_caterpillar:
        dists = [_bfs(adj, v) for v in range(n)]
        best: tuple[int, ...] | None = None
        for u in range(n):
            du, pu = dists[u]
            for v in range(u + 1, n):
                if du[v] != diameter:
                    continue
                path = [v]
                while path[-1] != u:
                    path.append(pu[path[-1]])
                path.reverse()
                if path[0] > path[-1]:
                    path.reverse()
                cand = tuple(path)
                if best is None or cand < best:
                    best = cand
        spine = best
        if diameter == 3:
            ecc2 = [v for v in range(n) if max(dists[v][0]) == 2]
            central = edge(ecc2[0], ecc2[1])

    return TreeAnalysis(True, diameter, is_caterpillar, derived_path, spine, central)
