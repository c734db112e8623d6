"""Property tests over fuzzed event bodies and ledgers."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gpi.keys import generate_keypair
from gpi.ledger import (
    Declare,
    Ledger,
    ParseError,
    Pledge,
    Reset,
    ResetEndorsement,
    SignedEvent,
    Update,
    VerifyError,
    append_event,
    parse_log,
    serialize_log,
    verify_event,
)
from gpi.community import _CHECKPOINT_EVERY, history_from_ledger
from gpi.registry import (
    analyze,
    current_identifiers,
    is_valid_update,
    provenance_chains,
    reset_status,
)
from gpi.sim import SimConfig, run_agent_sim
from gpi.surety import graph_at

from helpers import Scenario, bf_community_at, bf_update_valid, fold_facts, random_scenario

KEYS = [generate_keypair("mock", bytes([i])) for i in range(8)]


def ident(i: int):
    return KEYS[i].public


@st.composite
def bodies(draw):
    kind = draw(st.sampled_from(["declare", "update", "reset", "pledge", "endorse"]))
    i = draw(st.integers(0, len(KEYS) - 1))
    j = draw(st.integers(0, len(KEYS) - 1).filter(lambda x: x != i))
    if kind == "declare":
        return Declare(ident(i)), KEYS[i]
    if kind == "update":
        return Update(ident(i), ident(j)), KEYS[i]
    if kind == "reset":
        return Reset(ident(i)), KEYS[i]
    if kind == "pledge":
        t = draw(st.integers(1, 4))
        return Pledge(t, ident(i), ident(j)), KEYS[i]
    return ResetEndorsement(ident(j), ident(i)), KEYS[i]


class TestRoundTrip:
    @given(st.lists(bodies(), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_is_identity(self, items):
        ledger = Ledger()
        for body, key in items:
            ledger = append_event(ledger, body, key)
        data = serialize_log(ledger)
        again = parse_log(data)
        assert again == ledger
        assert serialize_log(again) == data
        # the canonical line is exactly the compact json.dumps of its record
        for raw in data.decode().splitlines():
            assert json.dumps(json.loads(raw), separators=(",", ":")) == raw

    @given(st.lists(bodies(), min_size=1, max_size=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_append_monotone_prefix(self, items, data):
        ledger = Ledger()
        for body, key in items:
            ledger = append_event(ledger, body, key)
        k = data.draw(st.integers(0, len(ledger)))
        body, key = data.draw(bodies())
        grown = append_event(ledger.prefix(k), body, key)
        assert grown.prefix(k) == ledger.prefix(k)


# bytes that respell JSON (whitespace, case, literals) or break the framing
MUTATION_BYTES = b' \t\r\n\x0c\xff"{}:,01aAfFtrue'


@st.composite
def mutated_logs(draw):
    ledger = Ledger()
    for body, key in draw(st.lists(bodies(), min_size=1, max_size=5)):
        ledger = append_event(ledger, body, key)
    raw = bytearray(serialize_log(ledger))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw) - 1))
        op = draw(st.sampled_from(["upper", "insert", "replace", "delete"]))
        if op == "upper":
            raw[at:at + 1] = bytes(raw[at:at + 1]).upper()
        elif op == "delete":
            del raw[at]
        else:
            byte = draw(st.sampled_from(MUTATION_BYTES))
            raw[at:at + (op == "replace")] = bytes([byte])
    return bytes(raw)


class TestCanonicalParse:
    @given(mutated_logs())
    @settings(max_examples=300, deadline=None)
    def test_parse_success_implies_byte_identity(self, data):
        try:
            parsed = parse_log(data)
        except (ParseError, VerifyError):
            return
        assert serialize_log(parsed) == data


class TestNoForgedEventAccepted:
    @given(bodies(), st.integers(0, len(KEYS) - 1), st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_signatures_never_verify(self, item, signer_idx, noise):
        body, _ = item
        event = SignedEvent(0, body, ident(signer_idx), noise)
        assert verify_event(event) is False

    @given(bodies(), st.integers(0, 255), st.integers(0, 31))
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_never_verify(self, item, byte_xor, position):
        body, key = item
        ledger = append_event(Ledger(), body, key)
        ev = ledger[0]
        if byte_xor == 0:
            return
        sig = bytearray(ev.signature)
        sig[position % len(sig)] ^= byte_xor
        assert not verify_event(SignedEvent(0, ev.body, ev.signer, bytes(sig)))


class TestChainInvariants:
    @given(st.integers(0, 3000))
    @settings(max_examples=120, deadline=None)
    def test_partition_and_determinism(self, seed):
        sc = random_scenario(seed)
        a = analyze(sc.ledger)
        chains = provenance_chains(sc.ledger)
        covered = [seq for chain in chains for seq in chain.links]
        assert sorted(covered) == sorted(a.intro.values())
        assert provenance_chains(sc.ledger) == chains

    @given(st.integers(0, 3000), st.data())
    @settings(max_examples=80, deadline=None)
    def test_update_validity_prefix_stable(self, seed, data):
        sc = random_scenario(seed)
        updates = [
            ev.seq
            for ev in sc.ledger
            if isinstance(ev.body, Update)
        ]
        if not updates:
            return
        seq = data.draw(st.sampled_from(updates))
        full = is_valid_update(sc.ledger, seq)
        k = data.draw(st.integers(seq + 1, len(sc.ledger)))
        assert is_valid_update(sc.ledger.prefix(k), seq) == full

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_update_validity_matches_brute_force(self, seed):
        sc = random_scenario(seed)
        events = list(sc.ledger)
        for ev in events:
            if isinstance(ev.body, Update):
                expected = bf_update_valid(events, ev.seq)
                got = is_valid_update(sc.ledger, ev.seq)
                assert got == expected, f"seed {seed} seq {ev.seq}"

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_currents_never_resurrect(self, seed):
        sc = random_scenario(seed)
        gone = set()
        previous = frozenset()
        for k in range(len(sc.ledger) + 1):
            now = current_identifiers(sc.ledger.prefix(k))
            a = analyze(sc.ledger.prefix(k))
            superseded_or_null = set(a.consumed) | set(a.nullified_at)
            assert not (now & gone)
            gone |= superseded_or_null
            previous = now


class TestPrefixFold:
    """A prefix read through its backing's cached fold answers like a fresh fold."""

    @given(st.integers(0, 10**6), st.sampled_from([None, 120]))
    @settings(max_examples=20, deadline=None)
    def test_cached_prefix_equals_fresh_fold(self, seed, n_events):
        ledger = random_scenario(seed, n_events).ledger
        analyze(ledger)  # the shared fold now covers every event
        mentioned = {getattr(ev.body, attr) for ev in ledger for attr in vars(ev.body)
                     if attr != "surety_type"}
        for k in range(len(ledger) + 1):
            cached, fresh = ledger.prefix(k), Ledger(ledger.events[:k])
            assert fold_facts(analyze(cached)) == fold_facts(analyze(fresh)), k
            for t in (1, 2, 3, 4):
                assert graph_at(ledger, k, t) == graph_at(fresh, k, t), (k, t)
            for ev in fresh:
                if isinstance(ev.body, Update):
                    assert is_valid_update(cached, ev.seq) == is_valid_update(fresh, ev.seq)
            for v in mentioned:
                assert reset_status(cached, v) == reset_status(fresh, v), k
            assert current_identifiers(cached) == current_identifiers(fresh), k
            assert provenance_chains(cached) == provenance_chains(fresh), k


NAMES = "abcdef"


@st.composite
def community_scenarios(draw) -> Scenario:
    """Declarations, updates and resets among a few identifiers, interleaved
    with adds of undeclared identifiers, re-adds and removes of absent ones."""
    sc = Scenario()
    sc.use_admin()
    ops = draw(st.lists(st.tuples(st.sampled_from(["declare", "update", "reset", "add", "remove"]),
                                  st.integers(0, len(NAMES) - 1), st.integers(0, len(NAMES) - 1)),
                        max_size=40))
    for op, i, j in ops:
        name, other = NAMES[i], NAMES[j]
        if op == "declare":
            sc.declare(name, "h")
        elif op == "update" and i != j:
            sc.update(name, other, "h")
        elif op == "reset":
            sc.reset(name, "h")
        elif op == "add":
            sc.community_add(name)
        elif op == "remove":
            sc.community_remove(name)
    return sc


def check_history(ledger: Ledger) -> None:
    """Every form of access to ``snapshots`` against the brute-force replay."""
    events = list(ledger)
    expected = [bf_community_at(events, k) for k in range(len(events) + 1)]
    history = history_from_ledger(ledger)
    snapshots = history.snapshots
    assert len(snapshots) == len(expected)
    for k, members in enumerate(expected):
        got = snapshots[k]
        assert type(got) is frozenset and got == members, k
    assert list(snapshots) == expected
    assert snapshots[-1] == history.final == expected[-1]
    if len(expected) > 1:
        assert snapshots[-2] == expected[-2]


class TestHistoryReplay:
    """``history_from_ledger(L).snapshots[k]`` is the community after k events."""

    @given(community_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_scenario_histories(self, sc):
        check_history(sc.ledger)

    @given(st.integers(0, 2**16), st.integers(520, 640))
    @settings(max_examples=2, deadline=None)
    def test_simulated_histories_across_checkpoints(self, seed, steps):
        config = SimConfig(n0=30, p=0.5, k=4, sybil_rate=0.4, steps=steps, burn_in=50, seed=seed)
        ledger = run_agent_sim(config, emit_ledger=True).ledger
        assert len(ledger) > 2 * _CHECKPOINT_EVERY  # the replay spans several checkpoints
        check_history(ledger)
