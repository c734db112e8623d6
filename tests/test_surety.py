"""Surety graph derivation and edge migration."""

import pytest

from gpi.registry import provenance_chains
from gpi.surety import InvalidChain, graph_at, migrate_edges

from gpi.metrics import Graph
from helpers import random_scenario, shared_key_bytes_scenario


class TestGraphAt:
    def test_one_directional_pledge_makes_no_edge(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.pledge(1, "a", "b", "ha")
        g = graph_at(scenario.ledger, len(scenario.ledger), 1)
        assert g.edges == frozenset()
        assert g.vertices == {scenario.ident("a"), scenario.ident("b")}

    def test_a_type_outside_1_to_4_raises(self, scenario):
        scenario.declare("a", "ha")
        with pytest.raises(ValueError, match="surety type must be 1..4, got 5"):
            graph_at(scenario.ledger, len(scenario.ledger), 5)

    def test_mutual_pledges_make_an_edge_with_witnesses(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        s1, s2 = scenario.mutual_pledge(2, "a", "b", "ha", "hb")
        g = graph_at(scenario.ledger, len(scenario.ledger), 2)
        assert len(g.edges) == 1
        (edge,) = g.edges
        assert set(edge) == {scenario.ident("a"), scenario.ident("b")}
        assert set(g.witness[edge]) == {s1, s2}

    def test_edge_waits_for_late_declaration(self, scenario):
        # pledges may precede the declarations they reference
        scenario.declare("a", "ha")
        scenario.key("b")
        scenario.pledge(3, "a", "b", "ha")
        scenario.pledge(3, "b", "a", "hb")
        k_before = len(scenario.ledger)
        scenario.declare("b", "hb")
        assert graph_at(scenario.ledger, k_before, 3).edges == frozenset()
        g = graph_at(scenario.ledger, len(scenario.ledger), 3)
        assert len(g.edges) == 1

    def test_types_do_not_mix(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.mutual_pledge(4, "a", "b", "ha", "hb")
        assert graph_at(scenario.ledger, len(scenario.ledger), 4).edges
        for t in (1, 2, 3):
            assert graph_at(scenario.ledger, len(scenario.ledger), t).edges == frozenset()

    def test_duplicate_pledges_collapse_to_earliest_witness(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        s1, s2 = scenario.mutual_pledge(1, "a", "b", "ha", "hb")
        scenario.pledge(1, "a", "b", "ha")  # repeat
        g = graph_at(scenario.ledger, len(scenario.ledger), 1)
        (edge,) = g.edges
        assert set(g.witness[edge]) == {s1, s2}

    def test_nullified_vertex_drops_with_incident_edges(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.mutual_pledge(1, "a", "b", "ha", "hb")
        before = len(scenario.ledger)
        scenario.reset("a", "ha")  # no type>=2 neighbours: effective at once
        assert graph_at(scenario.ledger, before, 1).edges
        after = graph_at(scenario.ledger, len(scenario.ledger), 1)
        assert scenario.ident("a") not in after.vertices
        assert after.edges == frozenset()

    def test_edge_monotone_in_prefix_without_resets(self):
        for seed in range(60):
            sc = random_scenario(seed, with_resets=False)
            for t in (1, 2, 3, 4):
                previous: frozenset = frozenset()
                for k in range(len(sc.ledger) + 1):
                    edges = graph_at(sc.ledger, k, t).edges
                    assert previous <= edges
                    previous = edges


class TestMigration:
    def test_edge_follows_valid_update(self, scenario):
        scenario.declare("v1", "h")
        scenario.declare("u", "g")
        scenario.mutual_pledge(2, "v1", "u", "h", "g")
        scenario.update("v2", "v1", "h")
        g = graph_at(scenario.ledger, len(scenario.ledger), 2)
        chains = provenance_chains(scenario.ledger)
        migrated = migrate_edges(g, chains)
        (edge,) = migrated.edges
        assert set(edge) == {scenario.ident("v2"), scenario.ident("u")}

    def test_identity_when_no_superseded_endpoints(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.mutual_pledge(3, "a", "b", "ha", "hb")
        g = graph_at(scenario.ledger, len(scenario.ledger), 3)
        migrated = migrate_edges(g, provenance_chains(scenario.ledger))
        assert migrated.edges == g.edges
        assert migrated.vertices == g.vertices

    def test_both_endpoints_superseded(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.mutual_pledge(2, "a", "b", "ha", "hb")
        scenario.update("a2", "a", "ha")
        scenario.update("b2", "b", "hb")
        g = graph_at(scenario.ledger, len(scenario.ledger), 2)
        migrated = migrate_edges(g, provenance_chains(scenario.ledger))
        (edge,) = migrated.edges
        assert set(edge) == {scenario.ident("a2"), scenario.ident("b2")}

    def test_invalid_chain_raises(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.mutual_pledge(2, "a", "b", "ha", "hb")
        scenario.reset("a", "ha")
        scenario.endorse("a", "b", "hb")  # quorum met: a is nullified
        scenario.update("a2", "a", "ha")  # invalid link onto nullified id
        g = graph_at(scenario.ledger, 4, 2)  # prefix where the edge exists
        chains = provenance_chains(scenario.ledger)
        with pytest.raises(InvalidChain):
            migrate_edges(g, chains)

    def test_idempotent_on_random_logs(self):
        for seed in range(40):
            sc = random_scenario(seed, with_resets=False)
            chains = [c for c in provenance_chains(sc.ledger) if c.valid]
            for t in (1, 2, 3, 4):
                g = graph_at(sc.ledger, len(sc.ledger), t)
                try:
                    once = migrate_edges(g, chains)
                except InvalidChain:
                    continue
                twice = migrate_edges(once, chains)
                assert once.edges == twice.edges
                assert once.vertices == twice.vertices

    def test_collapsing_intra_chain_edge_drops_self_loop(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        # a mutual pledge between two members of one chain collapses
        scenario.pledge(2, "v1", "v2", "h")
        scenario.pledge(2, "v2", "v1", "h")
        g = graph_at(scenario.ledger, len(scenario.ledger), 2)
        assert len(g.edges) == 1
        migrated = migrate_edges(g, provenance_chains(scenario.ledger))
        assert migrated.edges == frozenset()


class TestEdgelist:
    def test_lines_are_sorted_hex_pairs(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.declare("c", "hc")
        scenario.mutual_pledge(3, "a", "b", "ha", "hb")
        scenario.mutual_pledge(3, "b", "c", "hb", "hc")
        g = graph_at(scenario.ledger, len(scenario.ledger), 3)
        lines = g.edgelist_lines()
        assert lines == sorted(lines)
        for line in lines:
            left, right = line.split()
            assert left <= right
            int(left, 16) and int(right, 16)

    def test_identifiers_sharing_key_bytes_are_refused(self):
        sc = shared_key_bytes_scenario()
        g = graph_at(sc.ledger, len(sc.ledger), 3)
        assert (len(g.vertices), len(g.edges)) == (3, 2)
        # bare hex would name both identifiers alike: two equal lines, read back as one edge
        lines = sorted(" ".join(sorted((a.hex, b.hex))) for a, b in g.edges)
        assert len(set(lines)) == 1 and Graph.from_edgelist_lines(lines).n == 2
        ed, mock = sc.ident("ed").label, sc.ident("mock").label
        with pytest.raises(ValueError, match=f"^{ed} and {mock} share key bytes"):
            g.edgelist_lines()
