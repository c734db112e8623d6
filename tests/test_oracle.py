"""Ground-truth classification and surety violation detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpi import oracle
from gpi.keys import PublicIdentifier
from gpi.ledger import Ledger, Pledge, Update, parse_log, serialize_log
from gpi.oracle import MissingActor, classify, pledge_violation, surety_violations
from gpi.sim import SimConfig, run_agent_sim

from helpers import (
    Scenario,
    bf_classify,
    bf_intro_events,
    bf_surety_violations,
    bf_update_valid,
    fresh_backing,
    random_scenario,
)


class TestClassify:
    def test_single_declare_is_genuine_and_honest(self, scenario):
        scenario.declare("v", "h")
        report = classify(scenario.ledger, scenario.registry)
        assert report.genuine == {scenario.ident("v")}
        assert not report.sybils
        assert "h" not in report.corrupt_agents

    def test_second_declaration_is_a_sybil(self, scenario):
        scenario.declare("v", "h")
        scenario.declare("v2", "h")
        report = classify(scenario.ledger, scenario.registry)
        assert report.genuine == {scenario.ident("v")}
        assert report.sybils == {scenario.ident("v2")}
        assert "h" in report.corrupt_agents

    def test_redeclare_after_effective_reset_stays_honest(self, scenario):
        scenario.declare("v", "h")
        scenario.reset("v", "h")
        scenario.declare("v2", "h")
        report = classify(scenario.ledger, scenario.registry)
        assert report.sybils == frozenset()
        assert "h" not in report.corrupt_agents

    def test_redeclare_before_reset_takes_effect_is_sybil(self, scenario):
        scenario.declare("v", "h")
        scenario.declare("n", "g")
        scenario.mutual_pledge(2, "v", "n", "h", "g")
        scenario.reset("v", "h")        # one neighbour, quorum not yet met
        scenario.declare("v2", "h")     # declared while the reset is pending
        report = classify(scenario.ledger, scenario.registry)
        assert scenario.ident("v2") in report.sybils

    def test_valid_update_inherits_genuineness(self, scenario):
        scenario.declare("v", "h")
        scenario.update("w", "v", "h")
        scenario.declare("x", "h")  # second lineage: sybil
        report = classify(scenario.ledger, scenario.registry)
        assert scenario.ident("w") in report.genuine
        assert scenario.ident("x") in report.sybils

    def test_invalid_update_counts_as_fresh_declaration(self, scenario):
        scenario.declare("v", "h")
        scenario.update("w", "v", "h")
        scenario.update("w2", "v", "h")  # invalid: v already superseded
        report = classify(scenario.ledger, scenario.registry)
        assert scenario.ident("w2") in report.sybils
        assert "h" in report.corrupt_agents

    def test_byzantine_includes_corrupt_agents_genuine_identifier(self, scenario):
        scenario.declare("v", "h")
        scenario.declare("v2", "h")
        scenario.declare("u", "g")
        report = classify(scenario.ledger, scenario.registry)
        assert report.byzantine == {scenario.ident("v"), scenario.ident("v2")}
        assert report.genuine - report.byzantine == {scenario.ident("u")}

    def test_lineage_end_decides_later_fresh_declarations(self, scenario):
        # a lineage is alive until its last member is nullified, not its root
        scenario.declare("v", "h")
        scenario.declare("x", "h")       # sybil: v is alive
        scenario.update("w", "v", "h")   # v's lineage continues after x
        scenario.reset("w", "h")         # no neighbours: effective at once
        scenario.declare("y", "h")       # sybil: x is still alive
        scenario.reset("x", "h")
        scenario.reset("y", "h")
        scenario.declare("z", "h")       # genuine: v->w, x and y are all nullified
        report = classify(scenario.ledger, scenario.registry)
        ident = scenario.ident
        assert report.genuine == {ident("v"), ident("w"), ident("z")}
        assert report.sybils == {ident("x"), ident("y")}
        assert report.corrupt_agents == {"h"}
        genuine, sybils, corrupt = bf_classify(list(scenario.ledger), scenario.registry)
        assert (report.genuine, report.sybils, report.corrupt_agents) == (genuine, sybils, corrupt)

    def test_missing_actor_raises(self, scenario):
        scenario.declare("v", "h")
        del scenario.registry.actor[0]
        with pytest.raises(MissingActor):
            classify(scenario.ledger, scenario.registry)

    def test_matches_brute_force_on_random_logs(self):
        for seed in range(200):
            sc = random_scenario(seed)
            report = classify(sc.ledger, sc.registry)
            genuine, sybils, corrupt = bf_classify(list(sc.ledger), sc.registry)
            assert report.genuine == genuine, f"seed {seed}"
            assert report.sybils == sybils, f"seed {seed}"
            assert report.corrupt_agents == corrupt, f"seed {seed}"


class TestAgentRegistryJson:
    def test_a_scheme_id_with_a_colon_round_trips(self):
        # hex never contains ":", so a label splits at its last one
        registry = oracle.AgentRegistry(
            agents={"h"}, key_owner={PublicIdentifier("x:y", b"\x01"): ("h",)}, actor={0: "h"}
        )
        assert oracle.AgentRegistry.from_json(registry.to_json()) == registry


class TestViolations:
    def test_sybil_target_violates_type3(self, scenario):
        # the pledgee declared something else before the pledged identifier
        scenario.declare("v2", "hp")   # seq 0: earlier identifier
        scenario.declare("vp", "hp")   # seq 1: the pledged one (a sybil)
        scenario.declare("v", "h")
        scenario.pledge(3, "v", "vp", "h")
        violations = surety_violations(scenario.ledger, scenario.registry, 3)
        assert violations == {(3, "target-sybil")}

    def test_later_declaration_violates_type4_not_type3(self, scenario):
        scenario.declare("vp", "hp")   # seq 0
        scenario.declare("v", "h")
        scenario.pledge(4, "v", "vp", "h")  # seq 2
        scenario.declare("v2", "hp")   # seq 3: later fresh declaration
        assert surety_violations(scenario.ledger, scenario.registry, 4) == {
            (2, "later-declaration")
        }
        assert pledge_violation(scenario.ledger, scenario.registry, 2, as_type=3) is None

    def test_fresh_declaration_after_the_pledge_violates_type4(self, scenario):
        scenario.declare("vp", "hp")                # seq 0
        scenario.declare("v", "h")
        early = scenario.pledge(4, "v", "vp", "h")  # seq 2
        scenario.update("vp2", "vp", "hp")          # not a fresh declaration
        scenario.reset("vp2", "hp")                 # no neighbours: effective at once
        scenario.declare("vp3", "hp")               # seq 5: fresh, genuine, after the pledge
        late = scenario.pledge(4, "v", "vp3", "h")  # vp3 is hp's latest declaration
        events = list(scenario.ledger)
        report = classify(scenario.ledger, scenario.registry)
        assert (report.genuine, report.sybils, report.corrupt_agents) == bf_classify(
            events, scenario.registry
        )
        assert scenario.ident("vp3") in report.genuine
        intro = bf_intro_events(events)
        fresh = [
            seq for seq in intro.values()
            if not (isinstance(events[seq].body, Update) and bf_update_valid(events, seq))
        ]

        def later_declaration(pledge_seq: int) -> bool:
            target = events[pledge_seq].body.to_v
            owner = scenario.registry.actor_of(intro[target])
            return any(s > intro[target] and scenario.registry.actor_of(s) == owner for s in fresh)

        assert surety_violations(scenario.ledger, scenario.registry, 4) == {
            (seq, "later-declaration") for seq in (early, late) if later_declaration(seq)
        } == {(early, "later-declaration")}
        assert pledge_violation(scenario.ledger, scenario.registry, early, 3) is None

    def test_honest_single_identifier_agent_never_violates(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        seqs = scenario.mutual_pledge(3, "a", "b", "ha", "hb")
        for t in (1, 2, 3, 4):
            for seq in seqs:
                assert pledge_violation(scenario.ledger, scenario.registry, seq, t) is None

    def test_unheld_key_violates_type1(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        seq = scenario.pledge(1, "a", "b", "ha")
        scenario.registry.key_owner[scenario.ident("b")] = ()
        assert surety_violations(scenario.ledger, scenario.registry, 1) == {
            (seq, "target-key-unheld")
        }

    def test_stolen_key_violates_type2_not_type1(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        seq = scenario.pledge(2, "a", "b", "ha")
        scenario.compromise("b", "thief")
        assert pledge_violation(scenario.ledger, scenario.registry, seq, 1) is None
        assert pledge_violation(scenario.ledger, scenario.registry, seq, 2) == "holder-not-declarer"

    def test_pledge_to_undeclared_identifier_violates_type2(self, scenario):
        scenario.declare("a", "ha")
        scenario.key("ghost")
        scenario.registry.key_owner[scenario.ident("ghost")] = ("someone",)
        seq = scenario.pledge(2, "a", "ghost", "ha")
        assert (seq, "target-never-declared") in surety_violations(
            scenario.ledger, scenario.registry, 2
        )

    def test_valid_update_does_not_violate_type4(self, scenario):
        # updating the pledged lineage is not a fresh declaration
        scenario.declare("vp", "hp")
        scenario.declare("v", "h")
        seq = scenario.pledge(4, "v", "vp", "h")
        scenario.update("vp2", "vp", "hp")
        assert pledge_violation(scenario.ledger, scenario.registry, seq, 4) is None

    def test_pledge_violation_rejects_a_type_outside_1_to_4(self, scenario):
        scenario.declare("a", "ha")
        scenario.declare("b", "hb")
        seq = scenario.pledge(1, "a", "b", "ha")
        for bad in (0, 5, -1):
            with pytest.raises(ValueError, match=f"surety type must be 1..4, got {bad}"):
                pledge_violation(scenario.ledger, scenario.registry, seq, bad)
            with pytest.raises(ValueError, match=f"surety type must be 1..4, got {bad}"):
                surety_violations(scenario.ledger, scenario.registry, bad)

    def test_cumulative_monotonicity_on_random_logs(self):
        for seed in range(150):
            sc = random_scenario(seed)
            for ev in sc.ledger:
                if not isinstance(ev.body, Pledge):
                    continue
                flags = [
                    pledge_violation(sc.ledger, sc.registry, ev.seq, t) is not None
                    for t in (1, 2, 3, 4)
                ]
                for lower, higher in zip(flags, flags[1:]):
                    assert not (lower and not higher), f"seed {seed} seq {ev.seq}: {flags}"


class TestObservationOne:
    def _two_chains(self) -> Scenario:
        sc = Scenario()
        sc.declare("m1", "mary")
        sc.declare("j1", "john")
        sc.mutual_pledge(2, "m1", "j1", "mary", "john")
        sc.update("m2", "m1", "mary")
        sc.update("j2", "j1", "john")
        sc.mutual_pledge(2, "m2", "j2", "mary", "john")
        sc.mutual_pledge(2, "m2", "j1", "mary", "john")
        return sc

    def test_pledges_moved_along_valid_chains_stay_valid(self):
        sc = self._two_chains()
        assert surety_violations(sc.ledger, sc.registry, 2) == frozenset()

    def test_all_or_nothing_across_qualifying_chain_pairs(self):
        from itertools import combinations

        from gpi.oracle import chain_has_single_actor
        from gpi.registry import provenance_chains

        checked = 0
        for seed in range(500):
            sc = random_scenario(seed)
            compromised = sc.registry.compromised_identifiers()
            chains = [
                c
                for c in provenance_chains(sc.ledger)
                if c.valid
                and chain_has_single_actor(c, sc.registry)
                and not (set(c.identifiers) & compromised)
            ]
            members = [set(c.identifiers) for c in chains]
            for i, j in combinations(range(len(chains)), 2):
                outcomes = set()
                for ev in sc.ledger:
                    body = ev.body
                    if not (isinstance(body, Pledge) and body.surety_type == 2):
                        continue
                    cross = (body.from_v in members[i] and body.to_v in members[j]) or (
                        body.from_v in members[j] and body.to_v in members[i]
                    )
                    if cross:
                        outcomes.add(
                            pledge_violation(sc.ledger, sc.registry, ev.seq, 2) is not None
                        )
                if len(outcomes) > 1:
                    raise AssertionError(f"seed {seed}: mixed violations between chains {i},{j}")
                if outcomes:
                    checked += 1
        assert checked > 50  # the fuzzer must actually exercise cross-chain pledges


def _answers(ledger: Ledger, registry) -> tuple:
    """``classify``, every ``surety_violations`` type and every pledge's
    ``pledge_violation`` at each type, on one ledger value."""
    pledges = [ev.seq for ev in ledger if isinstance(ev.body, Pledge)]
    return (
        classify(ledger, registry),
        [surety_violations(ledger, registry, t) for t in (1, 2, 3, 4)],
        [pledge_violation(ledger, registry, s, t) for s in pledges for t in (1, 2, 3, 4)],
    )


class TestTraceCache:
    """One oracle walk per ledger value, walked again whenever it could differ."""

    @pytest.fixture
    def walks(self, monkeypatch) -> list[int]:
        lengths: list[int] = []
        walk = oracle._walk

        def counting_walk(ledger, registry):
            lengths.append(len(ledger))
            return walk(ledger, registry)

        monkeypatch.setattr(oracle, "_walk", counting_walk)
        return lengths

    def test_one_walk_per_ledger_value(self, walks):
        sc = random_scenario(7, 120)
        ledger = fresh_backing(sc.ledger)  # a backing nobody traced
        assert any(isinstance(ev.body, Pledge) for ev in ledger)
        assert _answers(ledger, sc.registry) == _answers(ledger, sc.registry)
        assert walks == [len(ledger)]

    def test_classify_returns_the_cached_report(self, walks):
        sc = random_scenario(7, 120)
        ledger, registry = fresh_backing(sc.ledger), sc.registry
        report = classify(ledger, registry)
        assert classify(ledger, registry) is report
        registry.agents.add("newcomer")  # no actor of an introduced seq changes
        assert classify(ledger, registry) is report
        pledge = next(ev.seq for ev in ledger if isinstance(ev.body, Pledge))
        registry.actor[pledge] = "newcomer"
        assert classify(ledger, registry) is report
        assert walks == [len(ledger)]

    def test_an_actor_rewrite_walks_again(self, scenario, walks):
        scenario.declare("v", "h")
        scenario.declare("w", "h2")
        assert classify(scenario.ledger, scenario.registry).sybils == frozenset()
        scenario.registry.actor[1] = "h"  # w becomes h's second fresh declaration
        report = classify(scenario.ledger, scenario.registry)
        assert (report.genuine, report.sybils, report.corrupt_agents) == bf_classify(
            list(scenario.ledger), scenario.registry
        )
        assert report.sybils == {scenario.ident("w")}
        assert walks == [2, 2]

    def test_a_deleted_actor_still_raises(self, scenario):
        scenario.declare("v", "h")
        scenario.declare("w", "h2")
        seq = scenario.pledge(3, "v", "w", "h")
        ledger, registry = scenario.ledger, scenario.registry
        _answers(ledger, registry)
        del registry.actor[0]
        for call in (
            lambda: classify(ledger, registry),
            lambda: surety_violations(ledger, registry, 3),
            lambda: pledge_violation(ledger, registry, seq, 3),
        ):
            with pytest.raises(MissingActor):
                call()

    def test_prefixes_never_share_a_walk(self, scenario):
        # h resets v with four mutual neighbours, two of which endorse: the
        # reset needs 3 endorsements, so h's later declaration w is a sybil.
        scenario.declare("v", "h")
        for i in range(4):
            scenario.declare(f"n{i}", f"h{i}")
            scenario.mutual_pledge(2, "v", f"n{i}", "h", f"h{i}")
        scenario.reset("v", "h")
        scenario.endorse("v", "n0", "h0")
        scenario.endorse("v", "n1", "h1")
        scenario.declare("w", "h")
        ledger, registry = scenario.ledger, scenario.registry
        w = {scenario.ident("w")}
        cases = [(ledger, w), (ledger.prefix(len(ledger) - 1), set())]
        for value, sybils in cases + cases[::-1]:
            assert classify(value, registry).sybils == sybils
            assert _answers(value, registry) == _answers(fresh_backing(value), registry)

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_answers_equal_a_fresh_walk(self, seed, data):
        sc = random_scenario(seed)
        ledger, registry = sc.ledger, sc.registry
        agents = sorted(registry.agents) + ["newcomer"]
        for _ in range(data.draw(st.integers(1, 8))):
            k = data.draw(st.integers(0, len(ledger)))
            fresh = fresh_backing(ledger.prefix(k))
            for _ in range(2):  # the second query reads the cache unless an actor changed
                assert _answers(ledger.prefix(k), registry) == _answers(fresh, registry)
                if data.draw(st.booleans()):
                    s = data.draw(st.sampled_from(sorted(registry.actor)))
                    registry.actor[s] = data.draw(st.sampled_from(agents))


class TestSuretyViolationsReadPledgesOfTheirType:
    """``surety_violations`` reads the fold's per-type pledge seqs; the scan of
    every event in ``bf_surety_violations`` is the reference."""

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_to_the_full_scan_on_prefixes(self, seed, data):
        sc = random_scenario(seed)
        for _ in range(3):
            k = data.draw(st.integers(0, len(sc.ledger)))
            value = sc.ledger.prefix(k)
            for t in (1, 2, 3, 4):
                assert surety_violations(value, sc.registry, t) == bf_surety_violations(value, sc.registry, t)

    def test_equal_to_the_full_scan_on_the_seed_7_log(self):
        # the log of `gpi sim grow --n0 1000 --p 0.5 --k 20 --sybil-rate 0.5
        # --steps 20000 --burn-in 2000 --seed 7 --emit-ledger`, read back from text
        config = SimConfig(n0=1000, p=0.5, k=20, sybil_rate=0.5, steps=20000, burn_in=2000, seed=7)
        result = run_agent_sim(config, emit_ledger=True)
        ledger = parse_log(serialize_log(result.ledger))
        assert len(ledger) == 91657
        found = [surety_violations(ledger, result.registry, t) for t in (1, 2, 3, 4)]
        assert found == [bf_surety_violations(ledger, result.registry, t) for t in (1, 2, 3, 4)]
        assert sum(map(len, found)) > 0
