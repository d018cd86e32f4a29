import pytest
from hypothesis import given, settings, strategies as st

from sstlab import (
    Config,
    EdgeSet,
    analyze_tree,
    boundary_edges,
    is_noncrossing,
)
from sstlab.graph import component_labels, edge_pairs
from sstlab.instances import random_instance


class TestEdgeSet:
    def test_canonical_iteration_order(self):
        es = EdgeSet.from_pairs(4, [(3, 2), (1, 0), (0, 2)])
        assert es.pairs() == ((0, 1), (0, 2), (2, 3))

    def test_set_semantics(self):
        es = EdgeSet.from_pairs(4, [(0, 1), (1, 0), (0, 1)])
        assert len(es) == 1

    def test_contains(self):
        es = EdgeSet.from_pairs(4, [(0, 1)])
        assert (1, 0) in es and (0, 1) in es and (2, 3) not in es

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            EdgeSet.from_pairs(4, [(0, 9)])

    def test_loop_edge(self):
        with pytest.raises(ValueError):
            EdgeSet.from_pairs(4, [(2, 2)])

    def test_operators(self):
        a = EdgeSet.from_pairs(4, [(0, 1), (1, 2)])
        b = EdgeSet.from_pairs(4, [(1, 2), (2, 3)])
        assert (a | b).pairs() == ((0, 1), (1, 2), (2, 3))
        assert (a & b).pairs() == ((1, 2),)
        assert (a - b).pairs() == ((0, 1),)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            EdgeSet(4, 1) | EdgeSet(5, 1)


class TestConfig:
    def test_hull_stored(self, square_plus_interior):
        assert square_plus_interior.hull == (0, 1, 2, 3)

    def test_rejects_collinear(self):
        with pytest.raises(Exception, match="collinear"):
            Config.from_points([(0, 3), (3, 0), (2, 1), (9, 9)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bound"):
            Config.from_points([(0, 0), (2 * 10**6, 0), (0, 5)])

    def test_rejects_inconsistent_hull(self, square):
        with pytest.raises(ValueError, match="hull"):
            Config(points=square.points, hull=(0, 2, 1, 3))

    def test_hashable(self, square):
        other = Config.from_points([(0, 0), (6, 0), (6, 6), (0, 6)])
        assert hash(square) == hash(other) and square == other


class TestCompleteAndBoundary:
    @pytest.mark.parametrize("n,count", [(3, 3), (4, 6), (7, 21)])
    def test_complete_count(self, n, count):
        inst = random_instance(n, seed=n)
        assert len(EdgeSet.complete(inst.config().n)) == count

    def test_square_boundary(self, square):
        assert boundary_edges(square).pairs() == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_interior_vertex_excluded(self, square_plus_interior):
        bd = boundary_edges(square_plus_interior)
        assert bd.pairs() == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_triangle_all_edges(self, triangle):
        assert boundary_edges(triangle) == EdgeSet.complete(triangle.n)

    @given(st.integers(0, 500), st.integers(4, 8))
    @settings(max_examples=30, deadline=None)
    def test_boundary_edges_cross_nothing(self, seed, n):
        config = random_instance(n, seed).config()
        bd = boundary_edges(config)
        assert len(bd) == len(config.hull)
        full = EdgeSet.complete(config.n)
        for u, v in bd:
            single = EdgeSet.from_pairs(config.n, [(u, v)])
            for c, d in full - single:
                from sstlab import segments_cross

                assert not segments_cross(
                    config.points[u], config.points[v], config.points[c], config.points[d]
                )


class TestIsNoncrossing:
    def test_diagonals(self, square):
        assert not is_noncrossing(square, square.edge_set([(0, 2), (1, 3)]))

    def test_boundary_path(self, square):
        assert is_noncrossing(square, square.edge_set([(0, 1), (1, 2), (2, 3)]))

    def test_interior_star_plus_boundary(self, square_plus_interior):
        edges = [(v, 4) for v in range(4)] + [(0, 1), (1, 2), (2, 3), (0, 3)]
        assert is_noncrossing(square_plus_interior, square_plus_interior.edge_set(edges))


class TestComplement:
    def test_k3(self, triangle):
        c = triangle.edge_set([(0, 1)]).complement()
        assert c.pairs() == ((0, 2), (1, 2))

    def test_k4(self, square):
        c = square.edge_set([(0, 1), (1, 2), (1, 3)]).complement()
        assert c.pairs() == ((0, 2), (0, 3), (2, 3))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_involution(self, mask):
        es = EdgeSet(7, mask % (1 << 21))
        assert es.complement().complement() == es


class TestAnalyzeTree:
    def test_path(self, square):
        t = analyze_tree(square, square.edge_set([(0, 1), (1, 2), (2, 3)]))
        assert t.is_spanning_tree and t.diameter == 3 and t.is_caterpillar
        assert t.derived_path == (1, 2)
        assert t.central_edge == (1, 2)
        assert t.spine == (0, 1, 2, 3)

    def test_star(self, square):
        t = analyze_tree(square, square.edge_set([(0, 1), (0, 2), (0, 3)]))
        assert t.is_spanning_tree and t.diameter == 2 and t.is_caterpillar
        assert t.derived_path == ()
        assert t.central_edge is None
        assert t.spine == (1, 0, 2)  # lexicographically smallest longest path

    def test_cycle_is_not_a_tree(self, square):
        t = analyze_tree(square, square.edge_set([(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert not t.is_spanning_tree
        assert t.diameter is None and t.spine is None

    def test_disconnected(self, square):
        t = analyze_tree(square, square.edge_set([(0, 1), (2, 3), (0, 1)]))
        assert not t.is_spanning_tree

    def test_cycle_plus_isolated_vertex(self, square):
        # n-1 edges but a triangle plus an untouched vertex
        t = analyze_tree(square, square.edge_set([(0, 1), (1, 2), (0, 2)]))
        assert not t.is_spanning_tree and t.diameter is None

    def test_non_caterpillar(self):
        # spider: center with three legs of length 2
        config = random_instance(7, seed=3).config()
        t = analyze_tree(
            config, config.edge_set([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        )
        assert t.is_spanning_tree and t.diameter == 4
        assert not t.is_caterpillar and t.spine is None

    @given(st.integers(0, 300), st.integers(4, 7))
    @settings(max_examples=25, deadline=None)
    def test_diameter_le_3_implies_caterpillar(self, seed, n):
        from sstlab import enumerate_ssts

        config = random_instance(n, seed).config()
        for tree in enumerate_ssts(config):
            analysis = analyze_tree(config, tree)
            assert analysis.is_spanning_tree
            if analysis.diameter <= 3:
                assert analysis.is_caterpillar
            if analysis.diameter == 3:
                assert analysis.central_edge is not None
            else:
                assert analysis.central_edge is None
            if analysis.spine is not None:
                assert len(analysis.spine) == analysis.diameter + 1


class TestComponents:
    @given(st.integers(0, 1000))
    @settings(max_examples=50)
    def test_forest_edge_count(self, seed):
        # edges of a forest = n - number of components
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 9)
        pairs = list(edge_pairs(n))
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        labels = component_labels(n, chosen)
        components = len(set(labels))
        # acyclic iff every added edge merged two components
        acyclic = True
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in chosen:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            assert len(chosen) == n - components
