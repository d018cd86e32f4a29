"""Star and comb recognition with checkable certificates.

A comb is a caterpillar whose spine is a simple path of hull-boundary
edges, whose off-spine vertices attach by unique edges to interior
spine vertices, and whose edges span lines that cross no other comb
edge.  The recognizer returns either a full certificate (spine, tooth
assignment, per-edge line clearances) or the list of violated
conditions.  comb_masks lists every comb of a configuration by building
it from the definition, not by testing trees.

The boundary intersection is read edge-wise: only the comb edges lying
on hull edges form the spine.  Vertices that merely sit on the hull
(tooth tips in convex position, say) do not break condition 1 -- in
convex position every vertex is a hull vertex, so a vertex-wise reading
would reject valid combs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Config, Edge, EdgeSet, boundary_edges, edge_index, edge_pairs, walk_path
from .geometry import line_meets_open_segment


@dataclass(frozen=True)
class CombCertificate:
    spine: tuple[int, ...]
    spine_edges: EdgeSet
    teeth: tuple[tuple[int, Edge], ...]  # (off-spine vertex, attachment edge)
    line_clearances: tuple[Edge, ...]  # every comb edge, confirmed clear

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class CombFailure:
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class ClassifyResult:
    """Both flags are computed independently: a hull-vertex star in
    convex position is simultaneously a star and a comb."""

    is_star: bool
    star_center: int | None
    is_comb: bool
    comb: CombCertificate | None
    failure_reasons: tuple[str, ...]


def star_center(config: Config, b: EdgeSet) -> int | None:
    """The center vertex if b is exactly the n-1 edges at one vertex."""
    n = config.n
    if len(b) != n - 1:
        return None
    degree = [0] * n
    for u, v in b:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        if degree[v] == n - 1:
            return v
    return None


def is_star(config: Config, b: EdgeSet) -> bool:
    return star_center(config, b) is not None


def _spine_path(config: Config, b: EdgeSet) -> tuple[tuple[int, ...] | None, EdgeSet, str | None]:
    """Extract b's hull-edge subset and check it forms a simple path.

    Returns (vertex sequence, spine edge set, failure reason).  The
    sequence is orientation-normalized: first endpoint below the last.
    """
    spine_set = b & boundary_edges(config)
    if spine_set.mask == 0:
        return None, spine_set, "no edges on the hull boundary"
    adj: dict[int, list[int]] = {}
    for u, v in spine_set:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    ends = [v for v, ws in adj.items() if len(ws) == 1]
    if not ends:
        return None, spine_set, "boundary intersection is the full hull cycle"
    if len(ends) != 2:
        return None, spine_set, "boundary intersection splits into several arcs"
    seq = walk_path(adj, ends[0])
    if len(seq) != len(adj):
        return None, spine_set, "boundary intersection splits into several arcs"
    return seq, spine_set, None


def comb_certificate(config: Config, b: EdgeSet) -> CombCertificate | CombFailure:
    """Decide the three comb conditions, reporting all violations.

    Condition 1: the hull-edge subset of b is a nonempty simple path
    (the spine).  Condition 2: every off-spine vertex has exactly one
    b-edge, ending at an interior spine vertex, and b contains nothing
    beyond spine and teeth.  Condition 3: the line spanned by each edge
    of b meets no open segment of another b-edge.
    """
    n = config.n
    reasons: list[str] = []

    spine, spine_set, why = _spine_path(config, b)
    teeth: list[tuple[int, Edge]] = []
    if spine is None:
        reasons.append(f"condition1: {why}")
    else:
        interior = set(spine[1:-1])
        on_spine = set(spine)
        incident: dict[int, list[Edge]] = {v: [] for v in range(n)}
        for e in b:
            for v in e:
                incident[v].append(e)
        teeth_mask = 0
        cond2_ok = True
        for v in range(n):
            if v in on_spine:
                continue
            mine = incident[v]
            if len(mine) != 1:
                reasons.append(
                    f"condition2: off-spine vertex {v} has {len(mine)} incident edges"
                )
                cond2_ok = False
                continue
            (u, w) = mine[0]
            other = w if v == u else u
            if other not in interior:
                reasons.append(
                    f"condition2: tooth at vertex {v} attaches to {other}, "
                    "not an interior spine vertex"
                )
                cond2_ok = False
                continue
            teeth.append((v, mine[0]))
        if cond2_ok:
            teeth_mask = EdgeSet.from_pairs(n, [e for _, e in teeth]).mask
            extra = b.mask & ~(spine_set.mask | teeth_mask)
            if extra:
                extras = ", ".join(str(e) for e in EdgeSet(n, extra))
                reasons.append(f"condition2: edges beyond spine and teeth: {extras}")

    pts = config.points
    members = b.pairs()
    for ea, eb in members:
        for fa, fb in members:
            if (ea, eb) == (fa, fb):
                continue
            if line_meets_open_segment(pts[ea], pts[eb], pts[fa], pts[fb]):
                reasons.append(
                    f"condition3: line of edge ({ea},{eb}) crosses "
                    f"open segment ({fa},{fb})"
                )

    if reasons:
        return CombFailure(tuple(reasons))
    assert spine is not None
    return CombCertificate(
        spine=spine,
        spine_edges=spine_set,
        teeth=tuple(sorted(teeth)),
        line_clearances=members,
    )


@lru_cache(maxsize=64)
def comb_masks(config: Config) -> frozenset[int]:
    """The edge masks of every comb: each spine is a hull arc of
    2..h-1 boundary edges, each off-spine vertex picks one interior
    spine vertex, and a tooth is kept only if condition 3 holds both
    ways between it and the edges already chosen.  The line of a hull
    edge meets no open segment, so only the teeth need the test."""
    n, pts, pairs = config.n, config.points, edge_pairs(config.n)
    clash = [0] * len(pairs)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if line_meets_open_segment(pts[a], pts[b], pts[c], pts[d]):
                clash[i] |= 1 << j
                clash[j] |= 1 << i
    found: set[int] = set()

    def attach(mask: int, interior: list[int], off: list[int]) -> None:
        if not off:
            found.add(mask)
            return
        for u in interior:
            i = edge_index(n, u, off[0])
            if not clash[i] & mask:
                attach(mask | (1 << i), interior, off[1:])

    hull, h = config.hull, len(config.hull)
    for start in range(h):
        for length in range(2, h):
            spine = [hull[(start + k) % h] for k in range(length + 1)]
            mask = sum(1 << edge_index(n, a, b) for a, b in zip(spine, spine[1:]))
            attach(mask, spine[1:-1], [v for v in range(n) if v not in spine])
    return frozenset(found)


def classify(config: Config, b: EdgeSet) -> ClassifyResult:
    """Independent star and comb flags with certificate or reasons."""
    center = star_center(config, b)
    outcome = comb_certificate(config, b)
    if outcome:
        return ClassifyResult(center is not None, center, True, outcome, ())
    return ClassifyResult(center is not None, center, False, None, outcome.reasons)
