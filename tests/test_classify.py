from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sstlab import (
    EdgeSet,
    Family,
    analyze_tree,
    blocks,
    classify,
    comb_certificate,
    comb_masks,
    enumerate_ssts,
    is_noncrossing,
    is_star,
    minimum_blockers,
    orient,
    star_center,
)
from sstlab.instances import convex_instance, random_instance


class TestStar:
    def test_center_found(self, square):
        assert star_center(square, square.edge_set([(0, 1), (0, 2), (0, 3)])) == 0

    def test_path_is_not_a_star(self, square):
        assert star_center(square, square.edge_set([(0, 1), (1, 2), (2, 3)])) is None

    def test_partial_star_is_not_the_star(self, square):
        assert star_center(square, square.edge_set([(0, 1), (0, 2)])) is None

    def test_k3_path_is_star(self, triangle):
        assert star_center(triangle, triangle.edge_set([(0, 1), (1, 2)])) == 1


class TestCombCertificate:
    def test_square_comb(self, square):
        cert = comb_certificate(square, square.edge_set([(0, 1), (1, 2), (1, 3)]))
        assert cert
        assert cert.spine == (0, 1, 2)
        assert cert.teeth == ((3, (1, 3)),)
        assert cert.spine_edges.pairs() == ((0, 1), (1, 2))

    def test_pentagon_comb(self, pentagon):
        cert = comb_certificate(
            pentagon, pentagon.edge_set([(0, 1), (1, 2), (2, 3), (1, 4)])
        )
        assert cert
        assert cert.spine == (0, 1, 2, 3)
        assert cert.teeth == ((4, (1, 4)),)

    def test_line_crossing_violation(self, square_plus_interior):
        # the line through (0,0),(4,1) pierces the open right side
        b = square_plus_interior.edge_set([(0, 3), (0, 1), (1, 2), (0, 4)])
        cert = comb_certificate(square_plus_interior, b)
        assert not cert
        assert any(
            "condition3" in r and "(0,4)" in r and "(1,2)" in r for r in cert.reasons
        )

    def test_disconnected_boundary_arcs(self, square):
        cert = comb_certificate(square, square.edge_set([(0, 1), (2, 3), (0, 2)]))
        assert not cert
        assert any("condition1" in r for r in cert.reasons)

    def test_no_boundary_edges(self, square):
        cert = comb_certificate(square, square.edge_set([(0, 2), (1, 3)]))
        assert not cert
        assert any("condition1" in r for r in cert.reasons)

    def test_tooth_at_path_endpoint_rejected(self, square_plus_interior):
        # interior vertex 4 attaches to spine endpoint 0, not an interior vertex
        b = square_plus_interior.edge_set([(0, 1), (1, 2), (2, 3), (0, 4)])
        cert = comb_certificate(square_plus_interior, b)
        assert not cert
        assert any(
            "condition2" in r and "not an interior spine vertex" in r
            for r in cert.reasons
        )

    def test_k3_boundary_path_is_comb(self, triangle):
        cert = comb_certificate(triangle, triangle.edge_set([(0, 1), (1, 2)]))
        assert cert and cert.spine == (0, 1, 2) and cert.teeth == ()

    def test_chord_between_spine_vertices_rejected(self, pentagon):
        b = pentagon.edge_set([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        cert = comb_certificate(pentagon, b)
        assert not cert

    def test_all_violations_reported(self, square_plus_interior):
        # diagonal pair: no boundary edges and crossing lines
        b = square_plus_interior.edge_set([(0, 2), (1, 3)])
        cert = comb_certificate(square_plus_interior, b)
        kinds = {r.split(":")[0] for r in cert.reasons}
        assert "condition1" in kinds and "condition3" in kinds

    def test_certificate_invariants(self, pentagon):
        b = pentagon.edge_set([(0, 1), (1, 2), (2, 3), (1, 4)])
        cert = comb_certificate(pentagon, b)
        assert cert
        # edge accounting: spine plus teeth is exactly b, n-1 edges
        rebuilt = cert.spine_edges | EdgeSet.from_pairs(
            pentagon.n, [e for _, e in cert.teeth]
        )
        assert rebuilt == b and len(b) == pentagon.n - 1
        # a comb is a caterpillar and non-crossing
        analysis = analyze_tree(pentagon, b)
        assert analysis.is_spanning_tree and analysis.is_caterpillar
        assert is_noncrossing(pentagon, b)


class TestClassify:
    def test_square_star_is_also_comb(self, square):
        result = classify(square, square.edge_set([(0, 1), (0, 2), (0, 3)]))
        assert result.is_star and result.star_center == 0
        assert result.is_comb and result.comb.spine == (1, 0, 3)
        assert result.comb.teeth == ((2, (0, 2)),)

    def test_k3_path(self, triangle):
        result = classify(triangle, triangle.edge_set([(0, 1), (1, 2)]))
        assert result.is_star and result.star_center == 1 and result.is_comb

    def test_neither(self, square):
        result = classify(square, square.edge_set([(0, 2), (1, 3), (0, 1)]))
        assert not result.is_star and not result.is_comb
        assert result.failure_reasons

    @given(
        st.integers(0, 150), st.integers(4, 6), st.integers(0, 1 << 15), st.integers(0, 1 << 15)
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_certificate(self, seed, n, raw, pick):
        # an arbitrary edge subset, and a tree from enumerate_ssts, where
        # accepted combs occur
        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        trees = enumerate_ssts(config)
        for b in (EdgeSet(n, raw % (1 << m)), trees[pick % len(trees)]):
            assert (b.mask in comb_masks(config)) == bool(comb_certificate(config, b))

    @given(st.integers(0, 150), st.integers(4, 6))
    @settings(max_examples=25, deadline=None)
    def test_interior_star_is_not_a_comb(self, seed, n):
        config = random_instance(n, seed).config()
        interior = [v for v in range(n) if v not in config.hull]
        for v in interior:
            star = EdgeSet.from_pairs(n, [(v, u) for u in range(n) if u != v])
            result = classify(config, star)
            assert result.is_star
            assert not result.is_comb  # no comb edge lies on the hull


class TestAgainstOracle:
    """Soundness and completeness of the classification against the
    blocking oracle, at desk scale."""

    @pytest.mark.parametrize("n,seed", [(4, 11), (5, 12), (6, 13), (7, 71)])
    def test_star_or_comb_implies_blocks_sss(self, n, seed):
        # exhaustive over all size-(n-1) subsets up to n = 7
        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        found = 0
        for combo in combinations(range(m), n - 1):
            mask = 0
            for i in combo:
                mask |= 1 << i
            b = EdgeSet(n, mask)
            if is_star(config, b) or comb_certificate(config, b):
                found += 1
                assert blocks(config, b, Family.spanning_subgraphs()).blocks
        assert found >= n  # at least the stars

    @pytest.mark.parametrize("n,seed", [(4, 21), (5, 22), (6, 23)])
    def test_t4_blocker_implies_star_or_comb(self, n, seed):
        config = random_instance(n, seed).config()
        for b in minimum_blockers(config, Family.trees_diam_at_most(4)).blockers:
            assert is_star(config, b) or comb_certificate(config, b)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_convex_t3_blocker_implies_comb(self, n):
        config = convex_instance(n, seed=5 + n).config()
        for b in minimum_blockers(config, Family.trees_diam_at_most(3)).blockers:
            assert comb_certificate(config, b)

    @pytest.mark.parametrize("n,seed", [(5, 31), (6, 32)])
    def test_leaf_pair_quadrilateral_property(self, n, seed):
        # two leaf edges [a,c], [b,d] of a minimum diameter-3 blocker with
        # distinct endpoints give a convex quadrilateral a, b, d, c
        config = random_instance(n, seed).config()
        pts = config.points
        for blocker in minimum_blockers(config, Family.trees_diam_at_most(3)).blockers:
            degree = [0] * n
            adj = {v: [] for v in range(n)}
            for u, v in blocker:
                degree[u] += 1
                degree[v] += 1
                adj[u].append(v)
                adj[v].append(u)
            leaves = [v for v in range(n) if degree[v] == 1]
            for a, b in combinations(leaves, 2):
                c, d = adj[a][0], adj[b][0]
                if len({a, b, c, d}) != 4:
                    continue
                quad = [pts[a], pts[b], pts[d], pts[c]]
                signs = {
                    orient(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4])
                    for i in range(4)
                }
                assert signs == {1} or signs == {-1}
