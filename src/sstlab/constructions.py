"""Constructive algorithms that produce explicit avoiding trees.

Each construction either returns a tree with machine-checkable
post-conditions (spanning, non-crossing, diameter bound, edge-disjoint
from the avoided set) or raises PreconditionError naming the failed
hypothesis.  The enumeration module is the independent oracle for all
of them; nothing here trusts its own output.

All angular reasoning uses exact cross/dot sign comparisons, never
trigonometry.  Ties cannot occur under general position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .geometry import Point, segments_cross, side_of_line
from .graph import (
    Config,
    EdgeSet,
    component_labels,
    edge,
    star,
)


class PreconditionError(ValueError):
    """A construction hypothesis does not hold for the given input."""


@dataclass(frozen=True)
class ConeWitness:
    """The rotating-cone data behind a small-diameter avoiding tree:
    apex, the ray vertex it starts from, the pivot the sweep stops at,
    and every vertex inside the closed cone."""

    apex: int
    ray_vertex: int
    pivot: int
    cone_members: tuple[int, ...]


@dataclass(frozen=True)
class SeparatedPair:
    """Two vertices and a separating line: a on one open side together
    with all avoided neighbors of b, b on the other with all avoided
    neighbors of a."""

    a: int
    b: int
    line: tuple[Point, Point]


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _ccw_class(base: tuple[int, int], d: tuple[int, int]) -> int:
    """Coarse CCW angle class of direction d measured from base:
    0 on the base ray, 1 in (0, pi), 2 opposite, 3 in (pi, 2*pi)."""
    c = _cross(base, d)
    if c > 0:
        return 1
    if c < 0:
        return 3
    return 0 if _dot(base, d) > 0 else 2


def _ccw_angle_less(base: tuple[int, int], d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    """Strict comparison of CCW angles from base; equal angles cannot
    occur between directions to distinct general-position vertices."""
    c1 = _ccw_class(base, d1)
    c2 = _ccw_class(base, d2)
    if c1 != c2:
        return c1 < c2
    return _cross(d1, d2) > 0


def cone_sweep_sst3(config: Config, avoid: EdgeSet) -> EdgeSet:
    tree, _ = cone_sweep_sst3_witness(config, avoid)
    return tree


def cone_sweep_sst3_witness(config: Config, avoid: EdgeSet) -> tuple[EdgeSet, ConeWitness | None]:
    """A non-crossing spanning tree of diameter <= 3 avoiding a sparse
    edge set (at most n-2 edges; the bound is tight).

    The avoided graph has fewer edges than vertices, so some component
    is a tree; take the one containing the lowest vertex.  A singleton
    component yields a plain star.  Otherwise pick its lowest leaf x
    with unique neighbor y, sweep the ray x->y until the first vertex
    outside the component, and split: everything outside the swept
    closed cone hangs off x, everything inside hangs off the pivot.

    The sweep goes counterclockwise when its pivot lies within the
    first half-turn, clockwise otherwise; one of the two always does,
    and the swept cone is then convex, which is what makes the two
    stars non-crossing.  (A fixed counterclockwise sweep can produce a
    reflex cone whose stars cross; found by fuzzing.)
    """
    n = config.n
    if avoid.n != n:
        raise ValueError("edge set belongs to a different vertex count")
    if len(avoid) > n - 2:
        raise PreconditionError(
            f"avoided set has {len(avoid)} edges; at most {n - 2} allowed for n={n}"
        )
    pairs = avoid.pairs()
    labels = component_labels(n, pairs)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(labels[v], []).append(v)
    edge_count: dict[int, int] = {}
    for u, v in pairs:
        edge_count[labels[u]] = edge_count.get(labels[u], 0) + 1
    tree_comps = [
        vs for label, vs in members.items() if edge_count.get(label, 0) == len(vs) - 1
    ]
    comp = min(tree_comps, key=min)

    if len(comp) == 1:
        return star(n, comp[0]), None

    in_comp = set(comp)
    adj: dict[int, list[int]] = {v: [] for v in comp}
    for u, v in pairs:
        if u in in_comp:
            adj[u].append(v)
            adj[v].append(u)
    x = min(v for v in comp if len(adj[v]) == 1)
    y = adj[x][0]

    pts = config.points
    px = pts[x]
    base = (pts[y][0] - px[0], pts[y][1] - px[1])
    outside = [v for v in range(n) if v not in in_comp]

    def direction(v: int) -> tuple[int, int]:
        return (pts[v][0] - px[0], pts[v][1] - px[1])

    first_ccw = outside[0]
    last_ccw = outside[0]
    for v in outside[1:]:
        if _ccw_angle_less(base, direction(v), direction(first_ccw)):
            first_ccw = v
        if _ccw_angle_less(base, direction(last_ccw), direction(v)):
            last_ccw = v

    if _ccw_class(base, direction(first_ccw)) == 1:
        pivot = first_ccw  # counterclockwise sweep stays within a half-turn
        pivot_dir = direction(pivot)

        def in_cone(v: int) -> bool:
            if v == x or v == y or v == pivot:
                return True
            return _ccw_angle_less(base, direction(v), pivot_dir)

    else:
        pivot = last_ccw  # all outside vertices sit beyond the half-turn
        pivot_dir = direction(pivot)

        def in_cone(v: int) -> bool:
            if v == x or v == y or v == pivot:
                return True
            return _ccw_angle_less(base, pivot_dir, direction(v))

    cone_members = tuple(v for v in range(n) if in_cone(v))
    tree_edges = [edge(pivot, w) for w in cone_members if w != pivot]
    tree_edges += [edge(x, z) for z in range(n) if not in_cone(z)]
    witness = ConeWitness(apex=x, ray_vertex=y, pivot=pivot, cone_members=cone_members)
    return EdgeSet.from_pairs(n, tree_edges), witness


def validate_separated_pair(config: Config, avoid: EdgeSet, pair: SeparatedPair) -> None:
    """Check the separated-pair hypotheses, raising PreconditionError
    naming the first failing condition.

    Vertices on the line itself are tolerated as long as a and b have
    no common avoided neighbor there.
    """
    n = config.n
    a, b = pair.a, pair.b
    p, q = pair.line
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise PreconditionError(f"invalid vertex pair ({a}, {b})")
    if tuple(p) == tuple(q):
        raise PreconditionError("separating line requires two distinct points")
    if edge(a, b) in avoid:
        raise PreconditionError(f"edge ({a},{b}) is in the avoided set")
    pts = config.points
    side = [side_of_line(p, q, pts[v]) for v in range(n)]
    if side[a] == 0:
        raise PreconditionError(f"vertex {a} lies on the separating line")
    if side[b] == 0:
        raise PreconditionError(f"vertex {b} lies on the separating line")
    if side[a] == side[b]:
        raise PreconditionError(f"vertices {a} and {b} lie on the same side")
    nbrs: dict[int, list[int]] = {a: [], b: []}
    for u, v in avoid:
        if u in nbrs:
            nbrs[u].append(v)
        if v in nbrs:
            nbrs[v].append(u)
    for w in nbrs[b]:
        if side[w] == side[b]:
            raise PreconditionError(
                f"avoided neighbor {w} of {b} lies on {b}'s side of the line"
            )
    for w in nbrs[a]:
        if side[w] == side[a]:
            raise PreconditionError(
                f"avoided neighbor {w} of {a} lies on {a}'s side of the line"
            )
    common_on_line = set(nbrs[a]) & set(nbrs[b])
    for w in common_on_line:
        if side[w] == 0:
            raise PreconditionError(
                f"vertex {w} on the line is an avoided neighbor of both {a} and {b}"
            )


def sample_separated_pair(
    config: Config, avoid: EdgeSet, rng: random.Random
) -> SeparatedPair | None:
    """Rejection sampling of a valid separated pair, None after 80
    failed attempts: random vertex pair, candidate line through integer
    points a + k*rot(d), b - k*rot(d) (a tilted cut through the midpoint
    of [a,b], exactly representable for any coordinates)."""
    n = config.n
    pts = config.points
    for _ in range(80):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b or edge(a, b) in avoid:
            continue
        dx = pts[b][0] - pts[a][0]
        dy = pts[b][1] - pts[a][1]
        k = rng.choice((1, -1, 2, -2, 3, -3, 8, -8))
        p = (pts[a][0] - k * dy, pts[a][1] + k * dx)
        q = (pts[b][0] + k * dy, pts[b][1] - k * dx)
        pair = SeparatedPair(a, b, (p, q))
        try:
            validate_separated_pair(config, avoid, pair)
        except PreconditionError:
            continue
        return pair
    return None


def separated_pair_sst3(config: Config, avoid: EdgeSet, pair: SeparatedPair) -> EdgeSet:
    """Join the separated pair and hang every other vertex off its own
    side's endpoint; the result is non-crossing, spans, has diameter
    <= 3 and avoids the given edges.

    Vertices exactly on the line join a's side, except that an avoided
    neighbor of a sitting on the line attaches to b instead (the
    validation guarantees it is then not an avoided neighbor of b).
    """
    validate_separated_pair(config, avoid, pair)
    n = config.n
    a, b = pair.a, pair.b
    p, q = pair.line
    pts = config.points
    sa = side_of_line(p, q, pts[a])
    tree = [edge(a, b)]
    for v in range(n):
        if v in (a, b):
            continue
        s = side_of_line(p, q, pts[v])
        if s == sa:
            tree.append(edge(a, v))
        elif s != 0:
            tree.append(edge(b, v))
        elif edge(a, v) in avoid:
            tree.append(edge(b, v))
        else:
            tree.append(edge(a, v))
    return EdgeSet.from_pairs(n, tree)


def validate_boundary_leaf(config: Config, avoid: EdgeSet, tip: int, anchor: int) -> None:
    """Check the pended-leaf hypotheses, raising PreconditionError
    naming the first failing condition: tip is a hull vertex joined to
    anchor by a boundary edge outside the avoided set, and at most n-3
    avoided edges miss the tip."""
    n = config.n
    if n < 4:
        raise PreconditionError("need at least 4 vertices to drop one")
    if tip == anchor or not (0 <= tip < n and 0 <= anchor < n):
        raise PreconditionError(f"invalid vertex pair ({tip}, {anchor})")
    hull = config.hull
    if tip not in hull:
        raise PreconditionError(f"vertex {tip} is not a hull vertex")
    i = hull.index(tip)
    if anchor not in (hull[i - 1], hull[(i + 1) % len(hull)]):
        raise PreconditionError(f"edge ({anchor},{tip}) is not a boundary edge")
    if edge(tip, anchor) in avoid:
        raise PreconditionError(f"edge ({anchor},{tip}) is in the avoided set")
    restricted = sum(1 for u, v in avoid if u != tip and v != tip)
    if restricted > n - 3:
        raise PreconditionError(
            f"avoided set restricted to the other {n - 1} vertices has "
            f"{restricted} edges; at most {n - 3} allowed"
        )


def find_leaf4_args(config: Config, avoid: EdgeSet) -> tuple[int, int] | None:
    """First (tip, anchor) in canonical order satisfying the pended-leaf
    preconditions, or None."""
    for tip in sorted(config.hull):
        for anchor in range(config.n):
            try:
                validate_boundary_leaf(config, avoid, tip, anchor)
            except PreconditionError:
                continue
            return tip, anchor
    return None


def boundary_leaf_sst4(config: Config, avoid: EdgeSet, tip: int, anchor: int) -> EdgeSet:
    """A diameter-<=4 avoiding tree when a hull vertex can be pended off
    by a free boundary edge.

    Drop the tip, build a diameter-<=3 tree on the remaining instance
    via the cone sweep, then reattach the tip along the boundary edge --
    a boundary edge crosses nothing, so simplicity survives.
    """
    validate_boundary_leaf(config, avoid, tip, anchor)
    n = config.n
    keep = [v for v in range(n) if v != tip]
    old_of_new = {new: old for new, old in enumerate(keep)}
    new_of_old = {old: new for new, old in old_of_new.items()}
    restricted = [
        edge(new_of_old[u], new_of_old[v]) for u, v in avoid if u != tip and v != tip
    ]
    sub = Config.from_points([config.points[v] for v in keep])
    inner = cone_sweep_sst3(sub, EdgeSet.from_pairs(n - 1, restricted))
    tree = [edge(old_of_new[u], old_of_new[v]) for u, v in inner]
    tree.append(edge(tip, anchor))
    return EdgeSet.from_pairs(n, tree)


def central_edge_obstruction(
    config: Config, avoid: EdgeSet, x: int, y: int
) -> tuple[int, int] | None:
    """A witness pair (z, w) certifying that [x,y] cannot be the central
    edge of any diameter-3 tree avoiding the given set.

    The witness needs [x,w] and [y,z] avoided while the chords [x,z] and
    [y,w] cross: the crossing forces the four points into convex
    position with [x,y] and [z,w] as non-crossing sides, so a tree with
    central edge [x,y] would have to route z to x and w to y through a
    crossing.  Pairs are scanned in canonical order; None means no
    witness exists.
    """
    n = config.n
    if edge(x, y) in avoid:
        raise PreconditionError(f"edge ({x},{y}) is in the avoided set")
    pts = config.points
    for z in range(n):
        if z == x or z == y:
            continue
        if edge(y, z) not in avoid:
            continue
        for w in range(n):
            if w in (x, y, z):
                continue
            if edge(x, w) not in avoid:
                continue
            if segments_cross(pts[x], pts[z], pts[y], pts[w]):
                return (z, w)
    return None


def max_angle_vertex(config: Config, a: int, b: int, side: int) -> int | None:
    """Among vertices strictly on the given side of line(a, b), the one
    maximizing the angle at b between the rays b->a and b->c.

    Exact comparison of cosines by sign-and-square; None when the side
    is empty.
    """
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    pts = config.points
    pa, pb = pts[a], pts[b]
    base = (pa[0] - pb[0], pa[1] - pb[1])
    base_sq = _dot(base, base)

    def angle_greater(u: tuple[int, int], v: tuple[int, int]) -> bool:
        # Larger angle in (0, pi) means smaller cosine: compare
        # dot(base,u)/|u| against dot(base,v)/|v| without square roots.
        du, dv = _dot(base, u), _dot(base, v)
        if du < 0 <= dv:
            return True
        if dv < 0 <= du:
            return False
        lhs = du * du * _dot(v, v)
        rhs = dv * dv * _dot(u, u)
        if du >= 0:
            return lhs < rhs
        return lhs > rhs

    best: int | None = None
    best_dir: tuple[int, int] | None = None
    for c in range(len(pts)):
        if c in (a, b):
            continue
        if side_of_line(pa, pb, pts[c]) != side:
            continue
        d = (pts[c][0] - pb[0], pts[c][1] - pb[1])
        if best_dir is None or angle_greater(d, best_dir):
            best, best_dir = c, d
    return best
