"""Graph metrics against independent brute-force and spectral oracles."""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import gpi.metrics as metrics
from gpi.metrics import (
    Graph,
    InfeasibleDegree,
    TooLarge,
    ZeroDegreeVertex,
    conductance_bounds,
    conductance_exact,
    generate_regular_expander,
    greedy_independent_set,
    lambda2_enclosure,
    max_independent_set,
    rw_spectrum,
    second_eigenvalue,
)
from gpi.rng import GRAPH_GEN, stream

from helpers import bf_greedy_independent_set, bf_max_independent_set, bf_pairing_attempt, edges_of


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(offset + u, offset + v) for u, v in edges_of(g)]
        offset += g.n
    return Graph.from_edges(offset, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def brute_conductance(graph: Graph) -> tuple[Fraction, frozenset[int]]:
    """Independent oracle: plain itertools enumeration with Fractions.

    Returns the minimum and, among the sets attaining it, the
    lexicographically smallest (as a sorted tuple) that contains vertex 0.
    """
    vertices = range(graph.n)
    scored = []
    for r in range(1, graph.n):
        for subset in itertools.combinations(vertices, r):
            a = set(subset)
            ac = set(vertices) - a
            cut = sum(1 for u in a for w in graph.adj[u] if w in ac)
            den = min(sum(graph.degree(v) for v in a), sum(graph.degree(v) for v in ac))
            scored.append((Fraction(cut, den), subset))
    best = min(value for value, _ in scored)
    return best, frozenset(min(subset for value, subset in scored if value == best and 0 in subset))


def brute_mis_size(graph: Graph) -> int:
    """Independent oracle: check all subsets."""
    best = 0
    for r in range(graph.n, 0, -1):
        for subset in itertools.combinations(range(graph.n), r):
            s = set(subset)
            if all(not (set(graph.adj[u]) & s) for u in s):
                return r
    return best


def rw_eigenvalues_direct(graph: Graph) -> np.ndarray:
    """Independent oracle: eigenvalues of D^-1 A via the general solver."""
    a = graph.adjacency_matrix()
    d = graph.degrees.astype(float)
    p = a / d[:, None]
    return np.sort(np.linalg.eigvals(p).real)


class TestConductance:
    def test_k4_exact_two_thirds(self):
        result = conductance_exact(complete_graph(4))
        assert result.value == Fraction(2, 3)
        assert len(result.argmin) == 2  # any balanced split attains it

    def test_c6_exact_one_third(self):
        result = conductance_exact(cycle_graph(6))
        assert result.value == Fraction(1, 3)
        assert len(result.argmin) == 3

    def test_k2_exact_one(self):
        assert conductance_exact(complete_graph(2)).value == Fraction(1)

    def test_disconnected_reports_zero_with_witness(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        result = conductance_exact(g)
        assert result.value == 0
        assert result.argmin in ({0, 1}, {2, 3})

    def test_too_large_raises(self):
        with pytest.raises(TooLarge):
            conductance_exact(cycle_graph(25))

    def test_matches_brute_force(self):
        # odd and even n, so both equal and unequal halves are covered; the
        # named families tie many splits at the minimum
        rng = np.random.default_rng(7)
        graphs = []
        for n in range(3, 13):
            for p in (0.4, 0.8):
                g = random_graph(n, p, rng)
                while not g.is_connected():
                    g = random_graph(n, p, rng)
                graphs.append(g)
            graphs += [complete_graph(n), cycle_graph(n), Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]),
                       Graph.from_edges(n, [(0, i) for i in range(1, n)])]
        graphs += [
            Graph.from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)]),  # K3,4
            Graph.from_edges(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]),  # Q3
            petersen_graph(),
        ]
        for g in graphs:
            result = conductance_exact(g)
            assert (result.value, result.argmin) == brute_conductance(g)

    @pytest.mark.parametrize(
        "graph,value,argmin",
        [
            (cycle_graph(20), Fraction(1, 10), frozenset(range(10))),
            (complete_graph(20), Fraction(10, 19), frozenset(range(10))),
            (complete_graph(2), Fraction(1), frozenset({0})),  # K2 and P3: a half of one vertex
            (Graph.from_edges(3, [(0, 1), (1, 2)]), Fraction(1), frozenset({0})),
        ],
        ids=["C20", "K20", "K2", "P3"],
    )
    def test_edge_sizes_of_the_halves(self, graph, value, argmin):
        result = conductance_exact(graph)
        assert (result.value, result.argmin) == (value, argmin)


class TestSpectrum:
    def test_k4_lambda_one_third(self):
        assert second_eigenvalue(complete_graph(4)) == pytest.approx(1 / 3, abs=1e-9)

    def test_c4_bipartite_lambda_one(self):
        assert second_eigenvalue(cycle_graph(4)) == pytest.approx(1.0, abs=1e-9)

    def test_petersen_two_thirds(self):
        assert second_eigenvalue(petersen_graph()) == pytest.approx(2 / 3, abs=1e-9)

    def test_zero_degree_vertex_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ZeroDegreeVertex):
            second_eigenvalue(g)

    def test_matches_general_solver(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_graph(int(rng.integers(3, 10)), 0.6, rng)
            if g.n < 2 or (g.degrees == 0).any():
                continue
            w = rw_eigenvalues_direct(g)
            assert rw_spectrum(g)[1] == pytest.approx(w[-2], abs=1e-8)
            lam = max(abs(w[0]), abs(w[-2]))
            assert second_eigenvalue(g) == pytest.approx(min(lam, 1.0), abs=1e-8)

    def test_sparse_solver_agrees_with_dense(self, monkeypatch):
        import gpi.metrics as metrics_mod

        rng = np.random.default_rng(31)
        g = random_graph(40, 0.2, rng)
        if (g.degrees == 0).any() or not g.is_connected():
            g = random_graph(40, 0.3, np.random.default_rng(32))
        dense_lam = second_eigenvalue(g)
        dense_lam2 = rw_spectrum(g)[1]
        monkeypatch.setattr(metrics_mod, "_DENSE_EIG_LIMIT", 10)
        assert second_eigenvalue(g) == pytest.approx(dense_lam, abs=1e-7)
        assert rw_spectrum(g)[1] == pytest.approx(dense_lam2, abs=1e-7)

    def test_lambda_is_one_iff_disconnected_or_bipartite(self):
        rng = np.random.default_rng(17)
        seen_one = seen_below = False
        for _ in range(60):
            g = random_graph(int(rng.integers(3, 9)), 0.4, rng)
            if (g.degrees == 0).any():
                continue
            lam = second_eigenvalue(g)
            expected = (not g.is_connected()) or g.is_bipartite()
            assert (lam >= 1.0 - 1e-9) == expected
            seen_one |= expected
            seen_below |= not expected
        assert seen_one and seen_below


    def test_fewer_than_two_vertices_rejected(self):
        with pytest.raises(ValueError):
            second_eigenvalue(Graph(0, []))
        with pytest.raises(ZeroDegreeVertex):
            rw_spectrum(Graph(1, [[]]))[1]

    def test_large_forest_spectrum_read_off_structure(self, monkeypatch):
        import scipy.sparse.linalg as spl

        import gpi.metrics as metrics_mod

        def no_solver(*args, **kwargs):
            raise AssertionError("eigensolver called on a disconnected graph")

        monkeypatch.setattr(spl, "eigsh", no_solver)
        n = metrics_mod._DENSE_EIG_LIMIT + 10
        forest = Graph.from_edges(n, [(i, i + 1) for i in range(0, n, 2)] + [(0, 2)])
        assert not forest.is_connected()
        assert (second_eigenvalue(forest), rw_spectrum(forest)[1]) == (1.0, 1.0)
        assert conductance_bounds(forest) == (0.0, 0.0)

    def test_lanczos_start_vector_is_fixed(self, monkeypatch):
        import gpi.metrics as metrics_mod

        g = petersen_graph()
        dense = second_eigenvalue(g)
        monkeypatch.setattr(metrics_mod, "_DENSE_EIG_LIMIT", 5)
        first = second_eigenvalue(g)
        assert first == second_eigenvalue(g)
        assert first == pytest.approx(dense, abs=1e-7)


class TestCheegerBounds:
    def test_k4_bounds_bracket_exact(self):
        lower, upper = conductance_bounds(complete_graph(4))
        assert lower == pytest.approx(2 / 3, abs=1e-9)
        assert upper == pytest.approx((8 / 3) ** 0.5, abs=1e-9)
        assert lower - 1e-9 <= 2 / 3 <= upper + 1e-9

    def test_c6_bounds(self):
        lower, upper = conductance_bounds(cycle_graph(6))
        assert lower == pytest.approx(1 / 4, abs=1e-9)
        assert upper == pytest.approx(1.0, abs=1e-9)
        assert lower <= 1 / 3 <= upper

    def test_k2_boundary_case(self):
        lower, upper = conductance_bounds(complete_graph(2))
        assert lower == pytest.approx(1.0, abs=1e-9)
        assert upper == pytest.approx(2.0, abs=1e-9)

    def test_lambda2_enclosure_holds_the_exact_value(self, monkeypatch):
        # exact lambda_2: -1/(n-1) on K_n, cos(2 pi/6) on C6, 1/3 on Petersen, 1 when disconnected
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        cases = [(complete_graph(25), Fraction(-1, 24)), (cycle_graph(6), Fraction(1, 2)),
                 (petersen_graph(), Fraction(1, 3)), (two_triangles, Fraction(1))]
        for graph, exact in cases:
            lo, hi = lambda2_enclosure(graph)
            assert Fraction(lo) <= exact <= Fraction(hi)
            assert hi - lo < 1e-9
        monkeypatch.setattr(metrics, "_DENSE_EIG_LIMIT", 5)
        assert lambda2_enclosure(petersen_graph()) == (-1.0, 1.0)


class TestIndependentSets:
    def test_k4_alpha_one(self):
        assert len(max_independent_set(complete_graph(4)).vertices) == 1

    def test_c6_alternating(self):
        result = max_independent_set(cycle_graph(6))
        assert len(result.vertices) == 3

    def test_petersen_alpha_four_within_expander_bound(self):
        g = petersen_graph()
        result = max_independent_set(g)
        assert len(result.vertices) == 4
        assert len(result.vertices) <= second_eigenvalue(g) * 10 + 1e-9

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_graph(int(rng.integers(3, 11)), 0.4, rng)
            result = max_independent_set(g)
            assert result.exact
            assert len(result.vertices) == brute_mis_size(g)
            for u in result.vertices:
                assert not (set(g.adj[u]) & result.vertices)

    def test_greedy_flagged_beyond_limit(self):
        g = cycle_graph(42)
        result = max_independent_set(g)
        assert not result.exact
        for u in result.vertices:
            assert not (set(g.adj[u]) & result.vertices)

    def test_greedy_on_cycle_takes_alternate_vertices(self):
        assert greedy_independent_set(cycle_graph(6)) == {0, 2, 4}

    def test_same_sets_as_the_candidate_count_search(self):
        """The clique-cover bound prunes more but returns the very set, not only its size."""
        rng = np.random.default_rng(41)
        small = [make(n) for n in range(1, 25) for make in (complete_graph, path_graph)]
        small += [cycle_graph(n) for n in range(3, 25)]
        small += [star_graph(leaves) for leaves in range(24)]
        small += [complete_bipartite_graph(a, b) for a in range(1, 7) for b in range(a, 7)]
        small.append(petersen_graph())
        small += [random_graph(int(rng.integers(1, 31)), p, rng)
                  for p in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8) for _ in range(12)]
        small += [generate_regular_expander(n, d, seed).graph
                  for n, d in CRITERION_7_FAMILY if n <= 30 for seed in range(8)]
        parts = [g for g in small if g.n <= 10]  # up to four parts stay within the exact limit
        unions = [disjoint_union(*(parts[int(i)] for i in rng.choice(len(parts), size=int(k))))
                  for k in rng.integers(2, 5, size=30)]
        for g in small + unions:
            result = max_independent_set(g)
            assert result.exact
            assert result.vertices == bf_max_independent_set(g), edges_of(g)

    def test_max_independent_set_is_pinned(self):
        # sha256 of the sorted vertex lists as the candidate-count search returns them,
        # at the sizes where that search takes seconds
        graphs = [generate_regular_expander(n, d, seed).graph for n, d in CRITERION_7_FAMILY for seed in range(16)]
        graphs += [cycle_graph(40), path_graph(40)]
        graphs += [generate_regular_expander(40, 3, seed).graph for seed in range(16, 26)]
        digest = hashlib.sha256()
        for g in graphs:
            result = max_independent_set(g)
            assert result.exact
            digest.update(json.dumps(sorted(result.vertices)).encode() + b"\n")
        assert digest.hexdigest() == "facb6903e2f18d789a7377aec47be22034a8c9cccf6376b5a3b215a467728b0d"


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_forest(n: int, rng: np.random.Generator) -> Graph:
    """Each vertex after the first joins a uniform earlier vertex or starts a tree."""
    edges = [(int(rng.integers(v)), v) for v in range(1, n) if rng.random() < 0.85]
    return Graph.from_edges(n, edges)


class TestGreedyIndependentSet:
    """The heap greedy picks exactly what the full min-scan picks."""

    def test_empty_graph(self):
        assert greedy_independent_set(Graph(0, [])) == frozenset()

    def test_stars(self):
        for leaves in (0, 1, 2, 5, 40):
            g = star_graph(leaves)
            assert greedy_independent_set(g) == bf_greedy_independent_set(g)

    def test_random_forests(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30, 120, 400):
            g = random_forest(n, rng)
            assert greedy_independent_set(g) == bf_greedy_independent_set(g)

    def test_random_gnp(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            g = random_graph(n, float(rng.choice([0.02, 0.1, 0.3, 0.6, 0.9])), rng)
            assert greedy_independent_set(g) == bf_greedy_independent_set(g)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_regular_backbones(self, seed):
        g = generate_regular_expander(500, 300, seed).graph
        assert greedy_independent_set(g) == bf_greedy_independent_set(g)

    def test_long_paths_take_the_even_vertices(self):
        # the min-scan would make about 10^8 key calls here
        n = 20_000
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert greedy_independent_set(path) == frozenset(range(0, n, 2))
        # disjoint paths of even length, each starting at an even vertex
        cuts = {0, 4_000, 4_002, 11_000, n}
        edges = [(i, i + 1) for i in range(n - 1) if i + 1 not in cuts]
        paths = Graph.from_edges(n, edges)
        assert greedy_independent_set(paths) == frozenset(range(0, n, 2))


# the (n, d) pairs of acceptance criterion 7
CRITERION_7_FAMILY = [(10, 3), (12, 3), (16, 4), (20, 3), (24, 4), (30, 3), (34, 4), (40, 3), (40, 5)]

# sha256 of the JSON sorted edge list and lambda of generate_regular_expander(500, 300, seed),
# as the sequential pairing draws them; a change of the seed -> draw mapping fails here
BACKBONE_PINS = {
    0: ("417b6e9e9b3b46ea6e14c62301802aac6f70e75b89b1fee247e8bd658964c136", 0.07389997191298814),
    1: ("2d6c3582897b4f5e86bf73b4e9685b87bc3c8ea77bb3a13b0d82577838e68dd0", 0.07341474719161231),
    2: ("b67f2edacd56f6f325a308a1d05b6414d191c08024e42d5080b08e96b3a0ebe0", 0.07456270315145164),
    3: ("ec0b90c734253748b2ad1a8861ddc6e4bdeabf6f86e6b540e8e0062a3228a17a", 0.0743752303039053),
}


def pairing_attempts(attempt, n: int, d: int, seed: int, as_edges) -> list:
    """Every attempt's edge set (None for a give-up) until one completes."""
    rng = stream(seed, GRAPH_GEN)
    out = [as_edges(attempt(rng, n, d))]
    while out[-1] is None:
        out.append(as_edges(attempt(rng, n, d)))
    return out


def taken_edges(taken: np.ndarray | None) -> set[tuple[int, int]] | None:
    if taken is None:
        return None
    assert (taken == taken.T).all() and not taken.diagonal().any()
    return {(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(taken)))}


class TestRegularGenerator:
    @pytest.mark.parametrize(
        "n, d, seeds",
        [
            (500, 300, range(8)),
            (500, 199, range(8)),
            *((n, d, range(50)) for n, d in CRITERION_7_FAMILY),
            (4, 3, range(10)),
            (9, 8, range(10)),
            (40, 39, range(10)),
            (2, 1, range(5)),
            (30, 1, range(5)),
        ],
    )
    def test_array_passes_match_sequential_pairing(self, n, d, seeds):
        for seed in seeds:
            want = pairing_attempts(bf_pairing_attempt, n, d, seed, lambda edges: edges)
            got = pairing_attempts(metrics._pairing_attempt, n, d, seed, taken_edges)
            assert got == want, (n, d, seed)
            assert all(len(e) == n * d // 2 for e in got if e is not None)

    def test_backbones_are_pinned(self):
        for seed, (digest, lam) in BACKBONE_PINS.items():
            sample = generate_regular_expander(500, 300, seed)
            edges = json.dumps(sorted(edges_of(sample.graph))).encode()
            assert hashlib.sha256(edges).hexdigest() == digest, seed
            assert sample.lam == lam, seed

    def test_regularity_and_determinism(self):
        s1 = generate_regular_expander(10, 3, seed=7)
        s2 = generate_regular_expander(10, 3, seed=7)
        assert edges_of(s1.graph) == edges_of(s2.graph)
        assert all(d == 3 for d in s1.graph.degrees)
        assert s1.lam == s2.lam

    def test_n4_d3_is_complete(self):
        s = generate_regular_expander(4, 3, seed=0)
        assert len(edges_of(s.graph)) == 6
        assert s.lam == pytest.approx(1 / 3, abs=1e-9)

    def test_odd_product_infeasible(self):
        with pytest.raises(InfeasibleDegree):
            generate_regular_expander(5, 3)
        with pytest.raises(InfeasibleDegree):
            generate_regular_expander(4, 4)

    def test_different_seeds_differ(self):
        s1 = generate_regular_expander(16, 3, seed=1)
        s2 = generate_regular_expander(16, 3, seed=2)
        assert edges_of(s1.graph) != edges_of(s2.graph)
