"""Enumeration and blocking against an independent brute-force oracle.

The oracle in this file shares no code with the library: its own
orientation sign, its own crossing test, its own connectivity check,
and tree counts from the closed-form convex-position formula.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sstlab import (
    EdgeSet,
    Family,
    SizeGuardError,
    analyze_tree,
    blocks,
    comb_masks,
    enumerate_ssts,
    minimum_blockers,
    noncrossing_edge_cover,
)
from sstlab.instances import convex_instance, random_instance


# --- independent oracle -------------------------------------------------

def _sign(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _cross_open(p, q, r, s):
    return (
        _sign(p, q, r) * _sign(p, q, s) < 0
        and _sign(r, s, p) * _sign(r, s, q) < 0
    )


def _is_simple(points, edges):
    return not any(
        _cross_open(points[a], points[b], points[c], points[d])
        for (a, b), (c, d) in combinations(edges, 2)
    )


def _is_spanning_tree(n, edges):
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_ssts(config):
    n = config.n
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    found = []
    for chosen in combinations(all_edges, n - 1):
        if _is_spanning_tree(n, chosen) and _is_simple(config.points, chosen):
            found.append(frozenset(chosen))
    return found


def convex_count(n):
    # non-crossing spanning trees of n points in convex position
    return math.comb(3 * n - 3, n - 1) // (2 * n - 1)


T3 = Family.trees_diam_at_most(3)
T4 = Family.trees_diam_at_most(4)
SST = Family.spanning_trees()
SSS = Family.spanning_subgraphs()

_INSTANCES = {"random": random_instance, "convex": convex_instance}


def _star(n, center):
    return EdgeSet.from_pairs(n, ((center, v) for v in range(n) if v != center))


def _scan_minimum_blockers(config, family):
    """Reference for the minimum-blocker search: test every edge subset,
    ascending by size; (size, blockers in canonical order).  Tree
    families test disjointness from each listed member, SSS asks
    blocks()."""
    n = config.n
    m = n * (n - 1) // 2
    if family == SSS:
        members = None
    else:
        members = [t.mask for t in enumerate_ssts(config, max_diameter=family.k)]
    for s in range(1, m + 1):
        hits = []
        for combo in combinations(range(m), s):
            b = EdgeSet(n, sum(1 << i for i in combo))
            if members is None:
                blocked = blocks(config, b, family).blocks
            else:
                blocked = all(t & b.mask for t in members)
            if blocked:
                hits.append(b)
        if hits:
            return s, hits
    raise AssertionError("no blocker found by the subset scan")


class TestEnumerate:
    def test_k3(self, triangle):
        assert len(enumerate_ssts(triangle)) == 3

    def test_square_12(self, square):
        trees = enumerate_ssts(square)
        assert len(trees) == 12
        assert {frozenset(t.pairs()) for t in trees} == set(brute_ssts(square))

    def test_pentagon_55(self, pentagon):
        trees = enumerate_ssts(pentagon)
        assert len(trees) == 55 == convex_count(5)
        assert {frozenset(t.pairs()) for t in trees} == set(brute_ssts(pentagon))

    def test_triangle_plus_interior_cayley(self, triangle_plus_interior):
        # no two edges cross, so the crossing filter is vacuous: 4^2 trees
        assert len(enumerate_ssts(triangle_plus_interior)) == 16

    def test_canonical_order_no_duplicates(self, pentagon):
        trees = enumerate_ssts(pentagon)
        keys = [t.pairs() for t in trees]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_unbounded_equals_max_diameter_union(self, pentagon):
        everything = enumerate_ssts(pentagon)
        assert enumerate_ssts(pentagon, max_diameter=pentagon.n - 1) == everything
        by_diam = set()
        for k in range(2, pentagon.n):
            by_diam |= {t.pairs() for t in enumerate_ssts(pentagon, max_diameter=k)}
        assert by_diam == {t.pairs() for t in everything}

    @given(st.integers(0, 200))
    @settings(max_examples=5, deadline=None)
    def test_centred_generator_equals_filtered_recursion(self, seed):
        # every bound, including the empty families below 2, against the
        # unbounded recursion filtered by analyze_tree's diameter
        for kind, make in _INSTANCES.items():
            for n in range(4, 8):
                config = make(n, seed).config()
                everything = enumerate_ssts(config)
                diameters = [analyze_tree(config, t).diameter for t in everything]
                for k in range(-1, n):
                    slow = [t for t, d in zip(everything, diameters) if d <= k]
                    assert enumerate_ssts(config, max_diameter=k) == slow, (kind, n, k)

    def test_diameter_2_is_stars(self, pentagon):
        trees = enumerate_ssts(pentagon, max_diameter=2)
        assert len(trees) == 5
        assert all(analyze_tree(pentagon, t).diameter == 2 for t in trees)

    def test_size_guard(self):
        config = random_instance(11, seed=1).config()
        with pytest.raises(SizeGuardError):
            enumerate_ssts(config)

    def test_size_guard_override(self):
        config = random_instance(11, seed=1).config()
        gen = enumerate_ssts(config, max_diameter=2, force=True)
        assert len(gen) == 11


class TestBlocks:
    def test_k3_two_edges_block(self, triangle):
        report = blocks(triangle, triangle.edge_set([(0, 1), (1, 2)]), SST)
        assert report.blocks and report.witness is None

    def test_square_nonblocker_with_witness(self, square):
        report = blocks(square, square.edge_set([(0, 1), (2, 3), (0, 2)]), SST)
        assert not report.blocks
        assert report.witness == square.edge_set([(0, 3), (1, 2), (1, 3)])

    def test_square_boundary_path_blocks(self, square):
        report = blocks(square, square.edge_set([(0, 1), (1, 2), (2, 3)]), SST)
        assert report.blocks

    @pytest.mark.parametrize("family", [T3, T4, SST], ids=Family.describe)
    @pytest.mark.parametrize("instance", ["pentagon", "random"])
    def test_witness_is_canonically_smallest(self, request, instance, family):
        if instance == "pentagon":
            config = request.getfixturevalue("pentagon")
        else:
            config = random_instance(7, seed=2).config()
        b = config.edge_set([(0, 1)])
        report = blocks(config, b, family)
        members = enumerate_ssts(config, max_diameter=family.k)
        assert report.witness == next(t for t in members if t.isdisjoint(b))

    @given(
        st.sampled_from(sorted(_INSTANCES)),
        st.integers(3, 7),
        st.integers(0, 200),
        st.sampled_from(["random", "empty", "star", "comb"]),
        st.integers(0, (1 << 21) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sst_search_matches_first_disjoint_member(self, kind, n, seed, shape, raw):
        # the tree search inside the complement against a scan of the
        # listed family: same verdict and the same canonically first witness
        config = _INSTANCES[kind](n, seed).config()
        m = n * (n - 1) // 2
        if shape == "random":
            b = EdgeSet(n, raw % (1 << m))
        elif shape == "empty":
            b = EdgeSet(n)
        elif shape == "star":
            b = _star(n, raw % n)
        else:
            combs = sorted(comb_masks(config))
            b = EdgeSet(n, combs[raw % len(combs)])
        report = blocks(config, b, SST)
        first = next((t for t in enumerate_ssts(config) if t.isdisjoint(b)), None)
        assert (report.blocks, report.witness) == (first is None, first)

    @pytest.mark.parametrize("kind", sorted(_INSTANCES))
    def test_sst_at_the_top_of_the_guard(self, kind):
        # n = 10 is the top of the enumeration guard, where listing every
        # SST costs the most; the search inside the complement of a
        # blocking star or comb ends early instead.
        n = 10
        config = _INSTANCES[kind](n, 1).config()
        for center in range(n):
            assert blocks(config, _star(n, center), SST).blocks
        assert blocks(config, EdgeSet(n, min(comb_masks(config))), SST).blocks
        # the star at 0 holds edges 0..n-2, the smallest (n-1)-tuple of indices
        report = blocks(config, EdgeSet(n), SST)
        assert not report.blocks and report.witness == _star(n, 0)

    @pytest.mark.parametrize("family", [T4, SST], ids=Family.describe)
    def test_size_guard(self, family):
        config = random_instance(11, seed=1).config()
        with pytest.raises(SizeGuardError):
            blocks(config, _star(11, 0), family)

    def test_size_guard_override(self):
        # the complement of a star leaves its centre uncovered, so the
        # search inside it stops before its first branch at any n
        config = random_instance(11, seed=1).config()
        assert blocks(config, _star(11, 0), SST, force=True).blocks

    @given(st.integers(0, 100), st.integers(4, 6), st.integers(0, 1 << 15))
    @settings(max_examples=40, deadline=None)
    def test_family_monotonicity(self, seed, n, raw):
        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        b = EdgeSet(n, raw % (1 << m))
        r_sss = blocks(config, b, SSS).blocks
        r_sst = blocks(config, b, SST).blocks
        r_t4 = blocks(config, b, T4).blocks
        r_t3 = blocks(config, b, T3).blocks
        if r_sss:
            assert r_sst
        if r_sst:
            assert r_t4
        if r_t4:
            assert r_t3

    @given(st.integers(0, 100), st.integers(4, 6), st.integers(0, 1 << 15))
    @settings(max_examples=30, deadline=None)
    def test_duality_against_complement_reenumeration(self, seed, n, raw):
        # independent route: re-enumerate trees built only from complement edges
        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        b = EdgeSet(n, raw % (1 << m))
        allowed = b.complement()
        members_in_complement = [
            t
            for t in brute_ssts(config)
            if all(e in allowed for e in t)
        ]
        assert blocks(config, b, SST).blocks == (not members_in_complement)


class TestEdgeCover:
    def test_square_crossing_pair_fails(self, square):
        h = square.edge_set([(0, 2), (0, 3), (1, 3)])
        assert noncrossing_edge_cover(square, h) is None

    def test_k3_cover(self, triangle):
        h = triangle.edge_set([(0, 1), (0, 2)])
        assert noncrossing_edge_cover(triangle, h) == h

    def test_square_matching(self, square):
        h = square.edge_set([(0, 1), (2, 3)])
        assert noncrossing_edge_cover(square, h) == h

    @given(st.integers(0, 100), st.integers(4, 6), st.integers(0, 1 << 15))
    @settings(max_examples=40, deadline=None)
    def test_cover_witness_valid(self, seed, n, raw):
        from sstlab import is_noncrossing

        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        h = EdgeSet(n, raw % (1 << m))
        cover = noncrossing_edge_cover(config, h)
        if cover is not None:
            assert cover.mask & ~h.mask == 0
            assert is_noncrossing(config, cover)
            touched = set()
            for u, v in cover:
                touched |= {u, v}
            assert touched == set(range(n))

    @given(st.integers(0, 100), st.integers(4, 6), st.integers(0, 1 << 15))
    @settings(max_examples=60, deadline=None)
    def test_no_cover_iff_subset_scan_finds_none(self, seed, n, raw):
        # An inclusion-minimal edge cover is a star forest, so it has at
        # most n-1 edges, and a subset of a non-crossing set is
        # non-crossing: scanning the subsets of h up to n-1 edges decides
        # whether any non-crossing cover exists.
        config = random_instance(n, seed).config()
        m = n * (n - 1) // 2
        h = EdgeSet(n, raw % (1 << m))
        exists = any(
            {v for e in sub for v in e} == set(range(n))
            and _is_simple(config.points, sub)
            for k in range(1, n)
            for sub in combinations(h.pairs(), k)
        )
        assert (noncrossing_edge_cover(config, h) is None) == (not exists)


class TestMinimumBlockers:
    def test_k3(self, triangle):
        found = minimum_blockers(triangle, SST)
        assert found.size == 2
        assert {b.pairs() for b in found.blockers} == {
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
        }

    def test_square_exhaustive(self, square):
        found = minimum_blockers(square, SST)
        assert found.size == 3 and len(found.blockers) == 8
        stars = [
            square.edge_set([(v, u) for u in range(4) if u != v]).pairs()
            for v in range(4)
        ]
        paths = [
            ((0, 1), (1, 2), (2, 3)),
            ((0, 3), (1, 2), (2, 3)),
            ((0, 1), (0, 3), (2, 3)),
            ((0, 1), (0, 3), (1, 2)),
        ]
        assert {b.pairs() for b in found.blockers} == set(stars) | set(paths)

    def test_matches_independent_search(self, pentagon):
        # brute force the definition with the oracle from this file
        trees = brute_ssts(pentagon)
        n = pentagon.n
        all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        expected = None
        for s in range(1, len(all_edges) + 1):
            hits = [
                set(sub)
                for sub in combinations(all_edges, s)
                if all(set(sub) & t for t in trees)
            ]
            if hits:
                expected = (s, {frozenset(h) for h in hits})
                break
        found = minimum_blockers(pentagon, SST)
        assert (found.size, {frozenset(b.pairs()) for b in found.blockers}) == expected

    @given(st.integers(0, 60), st.integers(4, 6))
    @settings(max_examples=15, deadline=None)
    def test_t3_size_is_n_minus_1(self, seed, n):
        config = random_instance(n, seed).config()
        assert minimum_blockers(config, T3).size == n - 1

    @given(st.integers(0, 60), st.integers(4, 6))
    @settings(max_examples=10, deadline=None)
    def test_t3_blockers_are_spanning_trees(self, seed, n):
        config = random_instance(n, seed).config()
        for b in minimum_blockers(config, T3).blockers:
            assert analyze_tree(config, b).is_spanning_tree

    @given(st.integers(0, 60), st.integers(4, 6))
    @settings(max_examples=10, deadline=None)
    def test_t3_blockers_star_or_boundary_terminal_caterpillar(self, seed, n):
        # A spine with boundary terminal edges must exist; spines are not
        # unique, so this is an existence check over the leaf edges at
        # both ends of the derived path.
        from sstlab import boundary_edges, is_star

        config = random_instance(n, seed).config()
        bd = boundary_edges(config)
        for b in minimum_blockers(config, T3).blockers:
            if is_star(config, b):
                continue
            analysis = analyze_tree(config, b)
            assert analysis.is_caterpillar
            d = analysis.derived_path
            assert len(d) >= 2
            degree = {v: 0 for v in range(n)}
            adj = {v: [] for v in range(n)}
            for u, v in b:
                degree[u] += 1
                degree[v] += 1
                adj[u].append(v)
                adj[v].append(u)
            for end in (d[0], d[-1]):
                leaf_edges = [(w, end) for w in adj[end] if degree[w] == 1]
                assert any(e in bd for e in leaf_edges)

    def test_sss_minimum_blockers_square(self, square):
        found = minimum_blockers(square, SSS)
        assert found.size == 3
        # every SSS blocker also blocks the tree families
        sst_found = minimum_blockers(square, SST)
        assert set(found.blockers) <= set(sst_found.blockers)

    def test_size_guard(self):
        config = random_instance(9, seed=2).config()
        with pytest.raises(SizeGuardError):
            minimum_blockers(config, T3)

    @pytest.mark.parametrize(
        "kind,n,seed,family",
        [
            pytest.param(kind, n, seed, family, id=f"{kind}-{n}-{seed}-{family.describe()}")
            for kind, n, seed in [
                ("random", 4, 6), ("random", 5, 3), ("random", 5, 9), ("random", 6, 1),
                ("convex", 4, 0), ("convex", 5, 0), ("convex", 6, 0),
            ]
            for family in (T3, T4, SST, SSS)
        ],
    )
    def test_matches_per_subset_blocks_scan(self, kind, n, seed, family):
        config = _INSTANCES[kind](n, seed).config()
        fast = minimum_blockers(config, family)
        assert (fast.size, list(fast.blockers)) == _scan_minimum_blockers(config, family)

    @given(
        st.sampled_from(sorted(_INSTANCES)),
        st.integers(4, 6),
        st.integers(0, 200),
        st.sampled_from([T3, T4, SST, SSS]),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_subset_scan_property(self, kind, n, seed, family):
        config = _INSTANCES[kind](n, seed).config()
        fast = minimum_blockers(config, family)
        assert (fast.size, list(fast.blockers)) == _scan_minimum_blockers(config, family)


class TestConvexCounts:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_ballot_formula_larger_n(self, n):
        config = convex_instance(n, seed=40 + n).config()
        assert len(enumerate_ssts(config)) == convex_count(n)
