"""Provenance chains, update validity, currents and reset state."""

import pytest

from gpi import registry
from gpi.community import history_from_ledger
from gpi.keys import generate_keypair
from gpi.ledger import Declare, Reset, append_event
from gpi.oracle import classify, surety_violations
from gpi.registry import (
    CURRENT,
    NEVER_DECLARED,
    NULLIFIED,
    RESET_PENDING,
    SUPERSEDED,
    NotAnUpdate,
    analyze,
    current_identifiers,
    is_valid_update,
    provenance_chains,
    reset_status,
)
from gpi.sim import SimConfig, run_agent_sim
from gpi.surety import graph_at

from helpers import Scenario, bf_nullified, fold_facts, fresh_backing, random_scenario


class TestFirstDeclaration:
    def test_redeclaration_flagged_and_ignored(self, scenario):
        scenario.declare("v1", "h")
        scenario.declare("x", "g")
        scenario.declare("x2", "g")
        scenario.declare("v1", "g")  # re-declared at seq 3
        assert analyze(scenario.ledger).intro.get(scenario.ident("v1")) == 0

    def test_absent_identifier_returns_none(self, scenario):
        scenario.declare("v1", "h")
        assert analyze(scenario.ledger).intro.get(scenario.ident("ghost")) is None

    def test_update_introduces_its_new_identifier(self, scenario):
        scenario.declare("a", "h")
        for name in "bcde":
            scenario.declare(name, "g" + name)
        scenario.update("v2", "a", "h")  # seq 5
        assert analyze(scenario.ledger).intro.get(scenario.ident("v2")) == 5


class TestUpdateValidity:
    def test_base_case(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        assert is_valid_update(scenario.ledger, 1)

    def test_superseded_old_invalidates(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        scenario.update("v3", "v1", "h")
        assert is_valid_update(scenario.ledger, 1)
        assert not is_valid_update(scenario.ledger, 2)

    def test_unknown_old_invalid(self, scenario):
        scenario.key("v9")  # key exists but never declared
        scenario.update("v2", "v9", "h")
        assert not is_valid_update(scenario.ledger, 0)

    def test_non_update_raises(self, scenario):
        scenario.declare("v1", "h")
        with pytest.raises(NotAnUpdate):
            is_valid_update(scenario.ledger, 0)

    def test_invalid_update_does_not_consume_old(self, scenario):
        # the unknown-new / wrong-chain attempt is a no-op for validity
        scenario.declare("v1", "h")
        scenario.declare("w", "g")
        scenario.update("w", "v1", "g")  # duplicate new_v: ignored
        scenario.update("v2", "v1", "h")
        assert is_valid_update(scenario.ledger, 3)

    def test_nullified_old_invalidates(self, scenario):
        scenario.declare("v1", "h")
        scenario.reset("v1", "h")  # no neighbours: effective immediately
        scenario.update("v2", "v1", "h")
        assert not is_valid_update(scenario.ledger, 2)


class TestChains:
    def test_linear_chain(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        scenario.update("v3", "v2", "h")
        chains = provenance_chains(scenario.ledger)
        assert len(chains) == 1
        chain = chains[0]
        assert chain.links == (2, 1, 0)  # oldest declaration last
        assert chain.current == scenario.ident("v3")
        assert chain.valid and chain.maximal

    def test_independent_declares_make_singletons(self, scenario):
        scenario.declare("a", "h1")
        scenario.declare("b", "h2")
        chains = provenance_chains(scenario.ledger)
        assert sorted(len(c.links) for c in chains) == [1, 1]
        assert all(c.valid and c.maximal for c in chains)

    def test_invalid_middle_link_marks_chain_invalid(self, scenario):
        # the lineage is extended structurally from a nullified identifier,
        # so the links exist but validity is lost
        scenario.declare("v1", "h")
        scenario.reset("v1", "h")
        scenario.update("v2", "v1", "h")
        scenario.update("v3", "v2", "h")
        chains = provenance_chains(scenario.ledger)
        assert len(chains) == 1
        chain = chains[0]
        assert chain.links == (3, 2, 0)
        assert chain.current == scenario.ident("v3")
        assert not chain.valid
        assert chain.maximal

    def test_partition_covers_every_introduction(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        scenario.update("v3", "v1", "h")  # invalid, starts its own chain
        scenario.declare("u", "g")
        chains = provenance_chains(scenario.ledger)
        assert sorted(c.links for c in chains) == [(1, 0), (2,), (3,)]


class TestCurrents:
    def test_single_declare_is_current(self, scenario):
        scenario.declare("v1", "h")
        assert current_identifiers(scenario.ledger) == {scenario.ident("v1")}

    def test_update_moves_currency(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        assert current_identifiers(scenario.ledger) == {scenario.ident("v2")}

    def test_effective_reset_clears_currency(self, scenario):
        scenario.declare("v1", "h")
        scenario.reset("v1", "h")
        assert current_identifiers(scenario.ledger) == frozenset()

    def test_superseded_never_returns(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        ledger = scenario.ledger
        v1 = scenario.ident("v1")
        for k in range(2, len(ledger) + 1):
            assert v1 not in current_identifiers(ledger.prefix(k))


class TestResetStatus:
    def _with_neighbors(self, sc: Scenario, count: int) -> None:
        sc.declare("v", "h")
        for i in range(count):
            name = f"n{i}"
            sc.declare(name, f"g{i}")
            sc.mutual_pledge(2, "v", name, "h", f"g{i}")

    def test_no_neighbors_nullified_immediately(self, scenario):
        scenario.declare("v", "h")
        scenario.reset("v", "h")
        assert reset_status(scenario.ledger, scenario.ident("v")).state == NULLIFIED

    @pytest.mark.parametrize("n, needed", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 4)])
    def test_quorum_two_of_three(self, scenario, n, needed):
        # of n mutual neighbours, ceil(2n/3) distinct ones must endorse
        self._with_neighbors(scenario, n)
        scenario.reset("v", "h")
        v = scenario.ident("v")
        for i in range(needed + 1):
            if i:
                scenario.endorse("v", f"n{i - 1}", f"g{i - 1}")
            ledger = scenario.ledger
            assert reset_status(ledger, v).state == (NULLIFIED if i == needed else RESET_PENDING), i
            assert bf_nullified(list(ledger), v, len(ledger)) == (i == needed), i

    def test_duplicate_endorsements_do_not_count_twice(self, scenario):
        self._with_neighbors(scenario, 3)
        scenario.reset("v", "h")
        scenario.endorse("v", "n0", "g0")
        scenario.endorse("v", "n0", "g0")
        assert reset_status(scenario.ledger, scenario.ident("v")).state == RESET_PENDING

    def test_non_neighbor_endorsements_ignored(self, scenario):
        # 2 neighbours need 2 endorsements: two distinct outsiders plus one neighbour must not suffice
        self._with_neighbors(scenario, 2)
        scenario.declare("o0", "z0")
        scenario.declare("o1", "z1")
        scenario.reset("v", "h")
        scenario.endorse("v", "o0", "z0")
        scenario.endorse("v", "o1", "z1")
        scenario.endorse("v", "n0", "g0")
        ledger, v = scenario.ledger, scenario.ident("v")
        assert reset_status(ledger, v).state == RESET_PENDING
        assert not bf_nullified(list(ledger), v, len(ledger))

    def test_states_cover_lifecycle(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        ledger = scenario.ledger
        assert reset_status(ledger, scenario.ident("ghost")).state == NEVER_DECLARED
        assert reset_status(ledger, scenario.ident("v1")).state == SUPERSEDED
        assert reset_status(ledger, scenario.ident("v2")).state == CURRENT

    def test_type_one_pledges_do_not_count_toward_quorum(self, scenario):
        scenario.declare("v", "h")
        scenario.declare("n0", "g")
        scenario.mutual_pledge(1, "v", "n0", "h", "g")
        scenario.reset("v", "h")
        # only type >= 2 neighbours matter, so the quorum is vacuous
        assert reset_status(scenario.ledger, scenario.ident("v")).state == NULLIFIED

    def test_a_reset_once_effective_is_final(self, scenario):
        # two resets of v under different neighbour sets: {n0} needs 1, {n0, n1, n2} needs 2
        for name, agent in (("v", "h"), ("n0", "g0"), ("n1", "g1"), ("n2", "g2")):
            scenario.declare(name, agent)
        scenario.mutual_pledge(2, "v", "n0", "h", "g0")
        assert scenario.reset("v", "h") == 6
        scenario.mutual_pledge(2, "v", "n1", "h", "g1")
        scenario.mutual_pledge(2, "v", "n2", "h", "g2")
        scenario.reset("v", "h")
        assert scenario.endorse("v", "n0", "g0") == 12  # completes the first reset only
        scenario.endorse("v", "n1", "g1")  # would complete the second
        scenario.reset("v", "h")
        scenario.endorse("v", "n2", "g2")
        ledger, v = scenario.ledger, scenario.ident("v")
        events = list(ledger)
        for k in range(1, len(ledger) + 1):
            a = analyze(ledger.prefix(k))
            state = reset_status(ledger.prefix(k), v).state
            assert (v in a.nullified_at) == bf_nullified(events, v, k), k
            assert dict(a.nullified_at) == ({v: 12} if k > 12 else {}), k
            assert a.reset_at.get(v) == (6 if k > 6 else None), k
            assert state == (NULLIFIED if k > 12 else RESET_PENDING if k > 6 else CURRENT), k
        assert v not in analyze(ledger)._fold.pending  # dropped once v was nullified


class TestPrefixMonotonicity:
    def test_validity_never_revoked(self, scenario):
        scenario.declare("v1", "h")
        scenario.update("v2", "v1", "h")
        scenario.update("v3", "v1", "h")
        scenario.reset("v2", "h")
        ledger = scenario.ledger
        assert is_valid_update(ledger.prefix(2), 1)
        for k in range(2, len(ledger) + 1):
            assert is_valid_update(ledger.prefix(k), 1)


class TestNullifiedMatchesBruteForce:
    @pytest.mark.parametrize("n_events", [None, 120])
    def test_quarter_prefixes(self, n_events):
        checked = 0
        for seed in range(200):
            ledger = random_scenario(seed, n_events).ledger
            events = list(ledger)
            targets = {ev.body.old_v for ev in events if isinstance(ev.body, Reset)}
            n = len(ledger)
            for k in (n // 4, n // 2, 3 * n // 4, n):
                a = analyze(ledger.prefix(k))
                for v in targets:
                    assert (v in a.nullified_at) == bf_nullified(events, v, k), (seed, k, v)
                    checked += 1
        assert checked > 0


class TestFoldCache:
    """One registry fold per backing, shared read-only."""

    def _pending_reset(self, sc: Scenario) -> None:
        sc.declare("v", "h")
        sc.declare("w", "g")
        sc.mutual_pledge(2, "v", "w", "h", "g")
        sc.update("v2", "v", "h")
        sc.update("v3", "v", "h")  # invalid: v is already consumed
        sc.reset("w", "g")  # needs v's endorsement

    def test_a_caller_cannot_change_the_cached_fold(self, scenario):
        self._pending_reset(scenario)
        v, w = scenario.ident("v"), scenario.ident("w")
        a = analyze(scenario.ledger)
        before = fold_facts(a)
        with pytest.raises(TypeError):
            a.intro[v] = 99
        with pytest.raises(TypeError):
            a.reset_at[v] = 0
        with pytest.raises(TypeError):
            a.mutual[2][v, w] = (0, 0)
        with pytest.raises(TypeError):
            a.mutual[2] = {}
        a.nullified_at = {w: 0}  # rebinds this view's attribute only
        assert fold_facts(analyze(scenario.ledger)) == before
        assert reset_status(scenario.ledger, w).state == RESET_PENDING

    def test_an_earlier_view_keeps_its_length(self, scenario):
        self._pending_reset(scenario)
        a = analyze(scenario.ledger)
        before = fold_facts(a)
        scenario.endorse("w", "v", "h")  # makes the reset effective
        scenario.declare("late", "z")
        assert analyze(scenario.ledger).nullified_at == {scenario.ident("w"): 7}
        assert fold_facts(a) == before

    def test_a_value_appended_from_a_non_tip_never_sees_the_tip(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        scenario.update("b2", "b", "hb")
        tip = scenario.ledger
        analyze(tip)  # the tip's fold covers all three events
        c = generate_keypair("mock", b"c")
        branch = append_event(tip.prefix(1), Declare(c.public), c)
        assert analyze(branch).intro.get(scenario.ident("b")) is None
        assert analyze(branch).intro.get(scenario.ident("b2")) is None
        assert analyze(branch).intro.get(c.public) == 1
        assert dict(analyze(branch).intro) == {scenario.ident("a"): 0, c.public: 1}
        assert analyze(tip).intro.get(c.public) is None
        assert analyze(tip).intro.get(scenario.ident("b")) == 1

    def test_one_fold_pass_per_backing(self, monkeypatch):
        result = run_agent_sim(
            SimConfig(n0=20, p=0.5, k=3, sybil_rate=0.5, steps=300, burn_in=30, seed=3),
            emit_ledger=True,
        )
        ledger = fresh_backing(result.ledger)  # a backing nobody folded
        built, folded = [], []
        init, advance = registry._Fold.__init__, registry._Fold.advance

        def counting_init(self):
            built.append(self)
            init(self)

        def counting_advance(self, ledger):
            folded.append((self.length, len(ledger)))
            advance(self, ledger)

        monkeypatch.setattr(registry._Fold, "__init__", counting_init)
        monkeypatch.setattr(registry._Fold, "advance", counting_advance)
        n = len(ledger)
        for k in (n // 2, n // 4, n, 3 * n // 4) + tuple(range(1, n, n // 16))[:16]:
            graph_at(ledger, k, 3)
        provenance_chains(ledger)
        classify(ledger, result.registry)
        surety_violations(ledger, result.registry, 3)
        history_from_ledger(ledger.prefix(n))
        assert len(built) == 1
        assert sorted(folded) == [(0, n // 2), (n // 2, n)]
