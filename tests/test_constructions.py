import random

import pytest
from hypothesis import given, settings, strategies as st

from sstlab import (
    EdgeSet,
    Point,
    PreconditionError,
    SeparatedPair,
    analyze_tree,
    boundary_leaf_sst4,
    central_edge_obstruction,
    cone_sweep_sst3,
    cone_sweep_sst3_witness,
    enumerate_ssts,
    is_noncrossing,
    max_angle_vertex,
    minimum_blockers,
    separated_pair_sst3,
    validate_separated_pair,
)
from sstlab.constructions import find_leaf4_args, sample_separated_pair
from sstlab.enumeration import Family
from sstlab.graph import component_labels, edge_pairs
from sstlab.instances import random_instance


def assert_sst3(config, tree, avoid, max_diameter=3):
    analysis = analyze_tree(config, tree)
    assert analysis.is_spanning_tree
    assert is_noncrossing(config, tree)
    assert analysis.diameter <= max_diameter
    assert tree.isdisjoint(avoid)


class TestConeSweep:
    def test_k3_singleton_component(self, triangle):
        tree = cone_sweep_sst3(triangle, triangle.edge_set([(0, 1)]))
        assert tree.pairs() == ((0, 2), (1, 2))

    def test_square_example(self, square):
        avoid = square.edge_set([(0, 1), (2, 3)])
        tree, witness = cone_sweep_sst3_witness(square, avoid)
        assert tree.pairs() == ((0, 2), (0, 3), (1, 2))
        assert witness.apex == 0 and witness.ray_vertex == 1 and witness.pivot == 2
        assert witness.cone_members == (0, 1, 2)
        assert_sst3(square, tree, avoid)

    def test_empty_avoid_gives_star(self, pentagon):
        tree = cone_sweep_sst3(pentagon, EdgeSet(pentagon.n))
        assert tree == pentagon.edge_set([(0, v) for v in range(1, 5)])

    def test_precondition_bound_is_tight(self, square):
        with pytest.raises(PreconditionError):
            cone_sweep_sst3(square, square.edge_set([(0, 1), (1, 2), (2, 3)]))

    def test_witness_invariants(self):
        config = random_instance(8, seed=99).config()
        avoid = config.edge_set([(0, 1), (1, 2), (3, 4), (5, 6), (2, 6)])
        tree, witness = cone_sweep_sst3_witness(config, avoid)
        assert_sst3(config, tree, avoid)
        labels = component_labels(config.n, avoid.pairs())
        # the ray vertex is the apex's unique avoided neighbor
        apex_nbrs = [
            v for u, v in avoid if u == witness.apex
        ] + [u for u, v in avoid if v == witness.apex]
        assert apex_nbrs == [witness.ray_vertex]
        # the pivot is outside the apex's component, everything else
        # inside the cone is within it
        assert labels[witness.pivot] != labels[witness.apex]
        for v in witness.cone_members:
            if v != witness.pivot:
                assert labels[v] == labels[witness.apex]

    @given(st.integers(0, 400), st.integers(3, 9))
    @settings(max_examples=60, deadline=None)
    def test_postconditions_random(self, seed, n):
        config = random_instance(n, seed).config()
        rng = random.Random(seed + 1)
        pairs = edge_pairs(n)
        avoid = EdgeSet.from_pairs(n, rng.sample(pairs, rng.randint(0, n - 2)))
        tree = cone_sweep_sst3(config, avoid)
        assert_sst3(config, tree, avoid)

    def test_deterministic(self):
        config = random_instance(9, seed=5).config()
        avoid = config.edge_set([(0, 3), (1, 2), (4, 5), (6, 7)])
        assert cone_sweep_sst3(config, avoid) == cone_sweep_sst3(config, avoid)

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_in_enumeration(self, seed):
        n = 4 + seed % 4
        config = random_instance(n, seed + 50).config()
        rng = random.Random(seed)
        avoid = EdgeSet.from_pairs(
            n, rng.sample(edge_pairs(n), rng.randint(0, n - 2))
        )
        tree = cone_sweep_sst3(config, avoid)
        assert tree in enumerate_ssts(config, max_diameter=3)


class TestSeparatedPair:
    def test_square_example(self, square):
        avoid = square.edge_set([(0, 3), (1, 2)])
        pair = SeparatedPair(0, 2, (Point(0, 3), Point(12, 3)))
        tree = separated_pair_sst3(square, avoid, pair)
        assert tree.pairs() == ((0, 1), (0, 2), (2, 3))
        assert_sst3(square, tree, avoid)

    def test_pair_edge_in_avoid_rejected(self, triangle):
        pair = SeparatedPair(1, 2, (Point(0, 0), Point(1, 1)))
        with pytest.raises(PreconditionError, match="avoided set"):
            separated_pair_sst3(triangle, triangle.edge_set([(1, 2)]), pair)

    def test_same_side_rejected(self, square):
        pair = SeparatedPair(0, 1, (Point(-5, -1), Point(10, -1)))
        with pytest.raises(PreconditionError, match="same side"):
            validate_separated_pair(square, EdgeSet(4), pair)

    def test_neighbor_on_wrong_side_rejected(self, square):
        # line y = 3 separates {0,1} from {2,3}; avoided edge (0,1) puts
        # a neighbor of a on a's own side
        pair = SeparatedPair(0, 2, (Point(0, 3), Point(12, 3)))
        with pytest.raises(PreconditionError, match="neighbor"):
            validate_separated_pair(square, square.edge_set([(0, 1)]), pair)

    def test_vertex_on_line_joins_a_side(self):
        config = random_instance(5, seed=77).config()
        pts = config.points
        # build a line through vertex 3 that separates some pair a, b
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                for v in range(5):
                    if v in (a, b):
                        continue
                    d = (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])
                    p = pts[v]
                    q = Point(p[0] + d[1], p[1] - d[0])
                    try:
                        pair = SeparatedPair(a, b, (p, q))
                        validate_separated_pair(config, EdgeSet(5), pair)
                    except PreconditionError:
                        continue
                    tree = separated_pair_sst3(config, EdgeSet(5), pair)
                    assert (a, v) in tree or (v, a) in tree
                    assert_sst3(config, tree, EdgeSet(5))
                    return
        pytest.skip("no on-line candidate found")

    @given(st.integers(0, 500), st.integers(3, 9))
    @settings(max_examples=60, deadline=None)
    def test_postconditions_random(self, seed, n):
        config = random_instance(n, seed).config()
        rng = random.Random(seed + 2)
        avoid = EdgeSet.from_pairs(
            n, rng.sample(edge_pairs(n), rng.randint(0, n - 2))
        )
        pair = sample_separated_pair(config, avoid, rng)
        if pair is None:
            return
        tree = separated_pair_sst3(config, avoid, pair)
        assert_sst3(config, tree, avoid)


class TestBoundaryLeaf:
    def test_square_example(self, square):
        avoid = square.edge_set([(0, 2), (1, 2), (1, 3)])
        tree = boundary_leaf_sst4(square, avoid, tip=2, anchor=3)
        assert tree.pairs() == ((0, 1), (0, 3), (2, 3))
        assert_sst3(square, tree, avoid, max_diameter=4)

    def test_restriction_too_large(self, square):
        avoid = square.edge_set([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(PreconditionError, match="at most"):
            boundary_leaf_sst4(square, avoid, tip=0, anchor=3)

    def test_not_a_boundary_edge(self, square):
        with pytest.raises(PreconditionError, match="boundary"):
            boundary_leaf_sst4(square, EdgeSet(4), tip=0, anchor=2)

    def test_interior_tip_rejected(self, square_plus_interior):
        with pytest.raises(PreconditionError, match="hull"):
            boundary_leaf_sst4(square_plus_interior, EdgeSet(5), tip=4, anchor=0)

    def test_edge_in_avoid_rejected(self, square):
        with pytest.raises(PreconditionError, match="avoided"):
            boundary_leaf_sst4(square, square.edge_set([(2, 3)]), tip=2, anchor=3)

    @given(st.integers(0, 500), st.integers(4, 9))
    @settings(max_examples=60, deadline=None)
    def test_postconditions_random(self, seed, n):
        config = random_instance(n, seed).config()
        rng = random.Random(seed + 3)
        avoid = EdgeSet.from_pairs(
            n, rng.sample(edge_pairs(n), rng.randint(0, n - 2))
        )
        args = find_leaf4_args(config, avoid)
        if args is None:
            return
        tree = boundary_leaf_sst4(config, avoid, *args)
        assert_sst3(config, tree, avoid, max_diameter=4)


class TestCentralEdgeObstruction:
    def test_square_no_witness(self, square):
        avoid = square.edge_set([(0, 3), (1, 2)])
        assert central_edge_obstruction(square, avoid, 0, 2) is None

    def test_empty_avoid_no_witness(self, pentagon):
        for x in range(5):
            for y in range(x + 1, 5):
                assert central_edge_obstruction(pentagon, EdgeSet(5), x, y) is None

    def test_edge_in_avoid_rejected(self, square):
        with pytest.raises(PreconditionError):
            central_edge_obstruction(square, square.edge_set([(0, 1)]), 0, 1)

    @pytest.mark.parametrize("n,seed", [(5, 41), (6, 42), (7, 43)])
    def test_soundness_against_enumeration(self, n, seed):
        # a witness for [x,y] means no avoiding diameter-3 tree has that
        # central edge
        config = random_instance(n, seed).config()
        rng = random.Random(seed)
        avoid = EdgeSet.from_pairs(
            n, rng.sample(edge_pairs(n), min(n - 1, 4))
        )
        avoiding_central = {
            analyze_tree(config, t).central_edge
            for t in enumerate_ssts(config, max_diameter=3)
            if t.isdisjoint(avoid)
        }
        for x in range(n):
            for y in range(x + 1, n):
                if (x, y) in avoid:
                    continue
                if central_edge_obstruction(config, avoid, x, y) is not None:
                    assert (x, y) not in avoiding_central


class TestMaxAngleVertex:
    def test_square(self, square):
        # for the boundary edge (0,1) the widest angle at 1 belongs to the
        # vertex that follows 1 on the hull
        assert max_angle_vertex(square, 0, 1, side=1) == 2
        assert max_angle_vertex(square, 0, 1, side=-1) is None

    @pytest.mark.parametrize("n,seed", [(5, 61), (6, 62)])
    def test_blocker_contains_max_angle_edge(self, n, seed):
        # at any leaf edge [a,b] of a minimum diameter-3 blocker, the
        # max-angle vertex c on either populated side gives [b,c] in B
        config = random_instance(n, seed).config()
        for blocker in minimum_blockers(config, Family.trees_diam_at_most(3)).blockers:
            degree = [0] * n
            adj = {v: [] for v in range(n)}
            for u, v in blocker:
                degree[u] += 1
                degree[v] += 1
                adj[u].append(v)
                adj[v].append(u)
            for a in range(n):
                if degree[a] != 1:
                    continue
                b = adj[a][0]
                for side in (-1, 1):
                    c = max_angle_vertex(config, a, b, side)
                    if c is not None:
                        assert (min(b, c), max(b, c)) in blocker
