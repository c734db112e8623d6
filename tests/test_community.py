"""Community replay, penetration and the growth-guarantee checker."""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gpi.community import (
    _CHECKPOINT_EVERY,
    EmptyCommunity,
    Theorem2Params,
    UnknownLabel,
    history_from_ledger,
    infer_params,
    penetration,
    random_lemma_instance,
    theorem2_check,
    vertices_of,
)
from gpi.ledger import Ledger
from gpi import metrics
from gpi.metrics import Graph
from gpi.oracle import classify
from gpi.sim import SimConfig, run_agent_sim

from helpers import bf_community_at

LEMMA_STREAM_DIGEST = "dffc530de66951b59d36a4bc0d4904fcac43566a492fd7ab294dca2ce427af7c"


def star_graph() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestHistory:
    def test_add_declared_member(self, scenario):
        scenario.declare("v", "h")
        scenario.community_add("v")
        history = history_from_ledger(scenario.ledger)
        assert history.final == {scenario.ident("v")}

    def test_add_existing_member_is_noop(self, scenario):
        scenario.declare("v", "h")
        scenario.community_add("v")
        scenario.community_add("v")
        history = history_from_ledger(scenario.ledger)
        assert history.snapshots[-1] == history.snapshots[-2]

    def test_add_undeclared_is_noop(self, scenario):
        scenario.declare("v", "h")  # needed so "ghost" has a key to reference
        scenario.key("ghost")
        scenario.community_add("ghost")
        assert history_from_ledger(scenario.ledger).final == frozenset()

    def test_remove_absent_is_noop(self, scenario):
        scenario.declare("v", "h")
        scenario.community_remove("v")
        history = history_from_ledger(scenario.ledger)
        assert history.final == frozenset()
        assert len(history.snapshots) == len(scenario.ledger) + 1

    def test_elementary_transitions_only(self, scenario):
        scenario.declare("a", "h1")
        scenario.declare("b", "h2")
        scenario.community_add("a")
        scenario.community_add("b")
        scenario.community_remove("a")
        history = history_from_ledger(scenario.ledger)
        snapshots = history.snapshots
        for k in range(len(snapshots) - 1):
            assert len(snapshots[k].symmetric_difference(snapshots[k + 1])) <= 1

    def test_empty_ledger(self):
        history = history_from_ledger(Ledger())
        assert len(history.snapshots) == 1
        assert history.snapshots[0] == history.snapshots[-1] == history.final == frozenset()
        assert list(history.snapshots) == [frozenset()]
        with pytest.raises(IndexError):
            history.snapshots[1]
        with pytest.raises(IndexError):
            history.snapshots[-2]

    def test_length_an_exact_multiple_of_the_checkpoint_spacing(self, scenario):
        scenario.declare("a", "h1")
        scenario.declare("b", "h2")
        names = "ab"
        while len(scenario.ledger) < _CHECKPOINT_EVERY:
            i = len(scenario.ledger)
            if i % 3 == 2:
                scenario.community_remove(names[i % 2])
            else:
                scenario.community_add(names[i % 2])
        events = list(scenario.ledger)
        assert len(events) == _CHECKPOINT_EVERY
        history = history_from_ledger(scenario.ledger)
        assert len(history.snapshots) == _CHECKPOINT_EVERY + 1
        for k in range(len(events) + 1):
            assert history.snapshots[k] == bf_community_at(events, k), k
        assert history.snapshots[-1] == history.final == bf_community_at(events, len(events))

    def test_memory_stays_linear_in_events(self):
        # one frozenset per event (4,597 events, 704 final members) peaks at
        # about 30 MiB; changes plus checkpoints stay well under 4 MiB
        config = SimConfig(n0=100, p=0.5, k=4, sybil_rate=0.4, steps=1000, burn_in=100, seed=5)
        ledger = run_agent_sim(config, emit_ledger=True).ledger
        tracemalloc.start()
        try:
            history_from_ledger(ledger)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ledger) == 4597
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestPenetration:
    def test_two_sybils_of_five(self, scenario):
        scenario.declare("g1", "h1")
        scenario.declare("g2", "h2")
        scenario.declare("g3", "h3")
        scenario.declare("s1", "evil")
        scenario.declare("s2", "evil")  # evil's first stays genuine
        scenario.declare("s3", "evil")
        report = classify(scenario.ledger, scenario.registry)
        community = {scenario.ident(x) for x in ("g1", "g2", "g3", "s2", "s3")}
        pen = penetration(community, report)
        assert pen.sigma == Fraction(2, 5)

    def test_all_harmless(self, scenario):
        scenario.declare("a", "h1")
        scenario.declare("b", "h2")
        report = classify(scenario.ledger, scenario.registry)
        pen = penetration({scenario.ident("a"), scenario.ident("b")}, report)
        assert pen.sigma == 0 and pen.beta == 0

    def test_byzantine_exceeds_sybil(self, scenario):
        scenario.declare("g1", "h1")
        scenario.declare("g2", "h2")
        scenario.declare("ev", "evil")
        scenario.declare("s1", "evil")
        report = classify(scenario.ledger, scenario.registry)
        community = {scenario.ident(x) for x in ("g1", "g2", "ev", "s1")}
        pen = penetration(community, report)
        assert pen.sigma == Fraction(1, 4)
        assert pen.beta == Fraction(2, 4)

    def test_sigma_never_exceeds_beta(self):
        from helpers import random_scenario

        for seed in range(60):
            sc = random_scenario(seed)
            report = classify(sc.ledger, sc.registry)
            declared = report.genuine | report.sybils
            if not declared:
                continue
            pen = penetration(declared, report)
            assert pen.sigma <= pen.beta

    def test_empty_community_rejected(self, scenario):
        scenario.declare("a", "h")
        report = classify(scenario.ledger, scenario.registry)
        with pytest.raises(EmptyCommunity):
            penetration(frozenset(), report)


class TestInferParams:
    def test_k4_self_step(self):
        g = complete_graph(4)
        params = infer_params(g, set(range(4)), set(range(4)), set(), beta=0.25)
        assert params.d == 3
        assert params.alpha == 1
        assert params.delta == 0

    def test_star_alpha_is_leaf_ratio(self):
        params = infer_params(star_graph(), {0, 1, 2, 3}, {0, 1, 2, 3}, set(), beta=0.1)
        assert params.d == 3
        assert params.alpha == Fraction(1, 3)

    def test_growth_ratio(self):
        g = complete_graph(10)
        a = set(range(8))
        params = infer_params(g, a, set(range(10)), set(), beta=0.1)
        assert params.delta == Fraction(2, 8)

    def test_unknown_vertices_rejected(self):
        g = complete_graph(4)
        for grown in ({0, 1, -1}, {0, 1, 4}):
            with pytest.raises(ValueError, match="unknown vertices"):
                infer_params(g, {0, 1}, grown, set(), beta=0.25)


class TestChecker:
    def test_empty_byzantine_set_passes_condition_three(self):
        g = complete_graph(6)
        params = Theorem2Params(d=5, alpha=1, beta=Fraction(1, 10), gamma=0, delta=0)
        report = theorem2_check(g, set(range(6)), set(range(6)), params, set())
        cond3 = report.conditions[2]
        assert cond3.passed

    def test_one_member_grown_community_fails_condition_six(self):
        params = Theorem2Params(d=2, alpha=Fraction(1, 2), beta=Fraction(1, 4), gamma=0, delta=0)
        report = theorem2_check(Graph.from_edges(3, [(0, 1), (1, 2)]), {0}, {0}, params, set())
        assert (report.conditions[5].passed, report.conditions[5].detail) == (
            False, "conductance undefined for a one-member community")
        assert report.verdict == "fail"

    def test_beta_plus_delta_over_half_fails_regardless(self):
        g = complete_graph(6)
        params = Theorem2Params(
            d=5, alpha=1, beta=Fraction(35, 100), gamma=0, delta=Fraction(25, 100)
        )
        report = theorem2_check(g, set(range(5)), set(range(6)), params, set())
        assert not report.conditions[4].passed
        assert not report.guarantee
        assert report.verdict == "fail"

    def test_hand_built_instance_passes_and_conclusion_holds(self):
        # 8 vertices, one byzantine; constants chosen from the instance itself
        g = complete_graph(8)
        byz = {7}
        a = set(range(7))
        grown = set(range(8))
        base = infer_params(g, a, grown, byz, beta=Fraction(1, 2))
        from gpi.metrics import conductance_exact

        phi = conductance_exact(g).value
        floor = base.gamma / (base.gamma + phi * base.alpha)
        beta = max(Fraction(len(a & byz), len(a)), floor) + Fraction(1, 50)
        params = Theorem2Params(
            d=base.d, alpha=base.alpha, beta=beta, gamma=base.gamma, delta=base.delta
        )
        report = theorem2_check(g, a, grown, params, byz)
        assert report.guarantee, [c.detail for c in report.conditions if not c.passed]
        assert Fraction(len(grown & byz), len(grown)) <= beta

    def test_cheeger_path_is_conservative(self):
        # large grown set forces the spectral route; a generous threshold
        # certifies, an impossible one fails, the in-between is inconclusive
        g = complete_graph(25)
        a = set(range(25))
        params_pass = Theorem2Params(d=24, alpha=1, beta=Fraction(1, 4), gamma=Fraction(1, 100), delta=0)
        report = theorem2_check(g, a, a, params_pass, set())
        assert report.conductance_mode == "cheeger"
        assert report.conditions[5].passed is True

        params_fail = Theorem2Params(d=24, alpha=Fraction(1, 100), beta=Fraction(1, 100), gamma=1, delta=0)
        report = theorem2_check(g, a, a, params_fail, set())
        assert report.conditions[5].passed is False

    def test_a_threshold_equal_to_phi_is_not_passed_on_rounding(self):
        # Q5 has Phi = 1/5, exactly its Cheeger lower bound (1 - lambda_2)/2; with this
        # labelling the computed lambda_2 falls below 3/5, and the threshold is 1/5
        perm = np.random.default_rng(14).permutation(32)
        q5 = Graph.from_edges(32, [(int(perm[u]), int(perm[u ^ 1 << b])) for u in range(32) for b in range(5)
                                   if u < u ^ 1 << b])
        a = set(range(32))
        params = Theorem2Params(d=5, alpha=1, beta=Fraction(1, 2), gamma=Fraction(1, 5), delta=0)
        report = theorem2_check(q5, a, a, params, set())
        assert report.conductance_mode == "cheeger"
        assert report.conditions[5].passed is None
        assert report.verdict == "inconclusive"

    def test_inconclusive_verdict_when_bounds_straddle(self):
        ring = Graph.from_edges(24, [(i, (i + 1) % 24) for i in range(24)])
        a = set(range(24))
        # Phi(C24)=1/12; Cheeger gives roughly [0.017, 0.26]: pick a
        # threshold inside that window
        params = Theorem2Params(d=2, alpha=1, beta=Fraction(1, 3), gamma=Fraction(1, 10), delta=0)
        report = theorem2_check(ring, a, a, params, set())
        assert report.conductance_mode == "cheeger"
        assert report.conditions[5].passed is None
        assert report.verdict == "inconclusive"
        assert not report.guarantee

    def test_exact_mode_soundness_on_random_instances(self):
        checked = 0
        for index in range(300):
            inst = random_lemma_instance(seed=1234, index=index)
            if inst is None:
                continue
            report = theorem2_check(
                inst.graph, inst.community, inst.grown, inst.params, inst.byzantine
            )
            assert report.guarantee, [c.detail for c in report.conditions if not c.passed]
            actual = Fraction(len(inst.grown & inst.byzantine), len(inst.grown))
            assert actual <= inst.params.beta
            checked += 1
        assert checked > 150

    def test_growth_checker_stream_is_pinned(self):
        # SHA-256 over the seed-777 draws 0..1999: None for a refused draw,
        # else the instance's graph, sets and params and its check.  A change
        # to any draw, instance or verdict re-pins it and says why in CHANGES.md.
        digest = hashlib.sha256()
        for index in range(2000):
            inst = random_lemma_instance(seed=777, index=index)
            if inst is None:
                digest.update(b"None\n")
                continue
            report = theorem2_check(inst.graph, inst.community, inst.grown, inst.params, inst.byzantine)
            p = inst.params
            digest.update(repr((inst.graph.adj, sorted(inst.community), sorted(inst.grown), sorted(inst.byzantine),
                                p.d, p.alpha, p.beta, p.gamma, p.delta, report.to_dict())).encode() + b"\n")
        assert digest.hexdigest() == LEMMA_STREAM_DIGEST


class TestConductanceOnce:
    """One split-table run per graph: the sampler and the checker share it."""

    @pytest.fixture
    def runs(self, monkeypatch) -> list[int]:
        sizes: list[int] = []
        split_tables = metrics._split_tables

        def counting_split_tables(graph):
            sizes.append(graph.n)
            return split_tables(graph)

        monkeypatch.setattr(metrics, "_split_tables", counting_split_tables)
        return sizes

    def test_one_run_per_draw_of_the_growth_checker(self, runs):
        accepted = draws = 0
        while accepted < 2000:
            before = len(runs)
            inst = random_lemma_instance(seed=777, index=draws)
            draws += 1
            if inst is not None:
                report = theorem2_check(inst.graph, inst.community, inst.grown, inst.params, inst.byzantine)
                assert report.guarantee and report.conductance_mode == "exact"
                accepted += 1
            assert len(runs) - before == 1, draws - 1
        assert (draws, len(runs)) == (3016, 3016)

    def test_the_stored_result_is_returned(self, runs):
        g = complete_graph(5)
        assert metrics.conductance_exact(g) is metrics.conductance_exact(g)
        assert runs == [5]

    def test_a_smaller_grown_set_reads_its_induced_subgraph(self, runs):
        # Phi(G) = 1/2 for the path 0-1-2-3 plus the chord 0-2, but the grown
        # set {0, 1, 2} induces a triangle, Phi = 1; the stored Phi(G) must not answer
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        params = Theorem2Params(d=3, alpha=Fraction(1, 3), beta=Fraction(1, 4), gamma=Fraction(1, 10), delta=0)
        metrics.conductance_exact(g)
        report = theorem2_check(g, {0, 1, 2}, {0, 1, 2}, params, set())
        sub = g.induced({0, 1, 2})[0]
        fresh = theorem2_check(sub, {0, 1, 2}, {0, 1, 2}, params, set())
        assert report.conditions[5] == fresh.conditions[5]
        assert f"Phi(G|A') = {metrics.conductance_exact(sub).value} " in report.conditions[5].detail


class TestLabelMatching:
    def test_byzantine_vertices_match_on_hex(self, scenario):
        scenario.declare("a", "h")
        scenario.declare("b", "h")  # sybil: byzantine
        report = classify(scenario.ledger, scenario.registry)
        labels = [scenario.ident("a").hex, scenario.ident("b").hex]
        g = Graph.from_edges(2, [(0, 1)], labels=labels)
        assert vertices_of(g, [v.label for v in report.byzantine]) == {0, 1}

    def test_vertices_of_rejects_a_label_the_graph_lacks(self):
        g = Graph.from_edges(2, [(0, 1)], labels=["aa", "bb"])
        assert vertices_of(g, ["mock:bb", "aa"]) == {0, 1}
        with pytest.raises(UnknownLabel, match="'mock:cc'"):
            vertices_of(g, ["aa", "mock:cc"])

    @pytest.mark.parametrize("label", ["a:x", "b:x", "c"])
    def test_vertices_of_refuses_graph_labels_sharing_a_hex_key(self, label):
        g = Graph.from_edgelist_lines(["a:x b:x", "b:x c"])
        with pytest.raises(ValueError, match="^graph labels 'a:x' and 'b:x' share a hex key$"):
            vertices_of(g, [label])


class TestParamsFromDict:
    RAW = {"d": 5, "alpha": 1.0, "beta": 0.3, "gamma": "1/5", "delta": 0.2}

    def test_ratios_are_read_from_their_text(self):
        params = Theorem2Params.from_dict(self.RAW)
        assert params == Theorem2Params(
            d=5, alpha=1, beta=Fraction(3, 10), gamma=Fraction(1, 5), delta=Fraction(1, 5)
        )
        assert Theorem2Params.from_dict(params.to_dict()) == params

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"gamma": None}, r"missing params keys: \['gamma'\]"),
            ({"epsilon": 0}, r"unknown params keys: \['epsilon'\]"),
            ({"d": 5.0}, "'d' must be an integer"),
            ({"d": False}, "'d' must be an integer"),
            ({"d": -1}, "d must be non-negative"),
            ({"beta": "1/0"}, "'beta' is not a ratio"),
            ({"beta": [0.1]}, "'beta' is not a ratio"),
            ({"delta": 1.5}, r"delta must lie in \[0,1\]"),
        ],
    )
    def test_bad_params_name_the_key(self, change, message):
        raw = {key: value for key, value in {**self.RAW, **change}.items() if value is not None}
        with pytest.raises(ValueError, match=message):
            Theorem2Params.from_dict(raw)
