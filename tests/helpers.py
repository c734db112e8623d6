"""Shared test utilities: scenario builder, fuzzer and brute-force oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from gpi.keys import KeyPair, PublicIdentifier, generate_keypair
from gpi.ledger import (
    CommunityAdd,
    CommunityRemove,
    Declare,
    EventBody,
    Ledger,
    Pledge,
    Reset,
    ResetEndorsement,
    SignedEvent,
    Update,
    append_event,
    parse_log,
    serialize_log,
)
from gpi.metrics import greedy_independent_set
from gpi.oracle import AgentRegistry, _pledge_violation_reason, _trace, classify


@dataclass
class Scenario:
    """A ledger under construction together with its ground truth."""

    ledger: Ledger = field(default_factory=lambda: Ledger())
    registry: AgentRegistry = field(default_factory=AgentRegistry)
    keys: dict[str, KeyPair] = field(default_factory=dict)
    admin: KeyPair | None = None

    def key(self, name: str) -> KeyPair:
        kp = self.keys.get(name)
        if kp is None:
            kp = generate_keypair("mock", f"scenario:{name}".encode())
            self.keys[name] = kp
        return kp

    def ident(self, name: str) -> PublicIdentifier:
        return self.key(name).public

    def use_admin(self, agent: str = "admin") -> KeyPair:
        if self.admin is None:
            self.admin = self.key("__admin__")
            self.registry.agents.add(agent)
        return self.admin

    def post(self, body: EventBody, signer: KeyPair, agent: str) -> int:
        seq = len(self.ledger)
        admins = () if self.admin is None else (self.admin.public,)
        self.ledger = append_event(self.ledger, body, signer, admins)
        self.registry.actor[seq] = agent
        self.registry.agents.add(agent)
        return seq

    def declare(self, name: str, agent: str) -> int:
        kp = self.key(name)
        self.registry.key_owner.setdefault(kp.public, (agent,))
        return self.post(Declare(kp.public), kp, agent)

    def update(self, new: str, old: str, agent: str) -> int:
        kp = self.key(new)
        self.registry.key_owner.setdefault(kp.public, (agent,))
        return self.post(Update(kp.public, self.ident(old)), kp, agent)

    def reset(self, name: str, agent: str) -> int:
        return self.post(Reset(self.ident(name)), self.key(name), agent)

    def endorse(self, target: str, endorser: str, agent: str) -> int:
        body = ResetEndorsement(self.ident(target), self.ident(endorser))
        return self.post(body, self.key(endorser), agent)

    def pledge(self, surety_type: int, from_name: str, to_name: str, agent: str) -> int:
        body = Pledge(surety_type, self.ident(from_name), self.ident(to_name))
        return self.post(body, self.key(from_name), agent)

    def mutual_pledge(self, surety_type: int, a: str, b: str, agent_a: str, agent_b: str) -> tuple[int, int]:
        return (
            self.pledge(surety_type, a, b, agent_a),
            self.pledge(surety_type, b, a, agent_b),
        )

    def community_add(self, name: str) -> int:
        admin = self.use_admin()
        return self.post(CommunityAdd(self.ident(name)), admin, "admin")

    def community_remove(self, name: str) -> int:
        admin = self.use_admin()
        return self.post(CommunityRemove(self.ident(name)), admin, "admin")

    def compromise(self, name: str, thief: str) -> None:
        ident = self.ident(name)
        owners = self.registry.key_owner.get(ident, ())
        if thief not in owners:
            self.registry.key_owner[ident] = owners + (thief,)


def shared_key_bytes_scenario() -> Scenario:
    """``ed25519:X`` and ``mock:X`` (a mock key is its secret), each mutually type-3 pledged to ``c``."""
    sc = Scenario()
    ed = generate_keypair("ed25519", b"shared")
    sc.keys["ed"] = ed
    sc.keys["mock"] = KeyPair(PublicIdentifier("mock", ed.public.key_bytes), ed.public.key_bytes)
    for name in ("ed", "mock", "c"):
        sc.declare(name, "h" + name)
    sc.mutual_pledge(3, "ed", "c", "hed", "hc")
    sc.mutual_pledge(3, "mock", "c", "hmock", "hc")
    return sc


def timing_scenarios() -> dict[str, Scenario]:
    """The three committed pledge-timing vectors, rebuilt from scratch.

    ``early_sybil``: the pledgee declared another identifier before the
    pledged one, so type-3 (and hence type-4) pledges on it are violated.
    ``late_declaration``: a fresh declaration lands after the pledged
    identifier's declaration (and after the pledge), violating type 4 only.
    ``honest_pair``: two single-identifier agents; nothing is violated.
    """

    def early_sybil() -> Scenario:
        sc = Scenario()
        sc.declare("earlier", "hp")
        sc.declare("pledged", "hp")
        sc.declare("voucher", "h")
        sc.pledge(3, "voucher", "pledged", "h")
        sc.pledge(4, "voucher", "pledged", "h")
        return sc

    def late_declaration() -> Scenario:
        sc = Scenario()
        sc.declare("pledged", "hp")
        sc.declare("voucher", "h")
        sc.pledge(3, "voucher", "pledged", "h")
        sc.pledge(4, "voucher", "pledged", "h")
        sc.declare("later", "hp")
        return sc

    def honest_pair() -> Scenario:
        sc = Scenario()
        sc.declare("alice", "ha")
        sc.declare("bob", "hb")
        for t in (1, 2, 3, 4):
            sc.mutual_pledge(t, "alice", "bob", "ha", "hb")
        return sc

    return {
        "timing_early_sybil": early_sybil(),
        "timing_late_declaration": late_declaration(),
        "timing_honest_pair": honest_pair(),
    }


def noncanonical_probes() -> list[tuple[str, bytes, str, int]]:
    """Spellings of a canonical three-event log that ``parse_log`` must refuse.

    Each entry is ``(name, data, error, where)``: the exception name and the
    line (``ParseError``) or seq (``VerifyError``) it must report.  Most
    probes change the spelling of one record without changing the event it
    denotes, which a lenient parser would accept and re-serialize
    differently.
    """
    sc = Scenario()
    sc.declare("a", "ha")
    sc.declare("b", "hb")
    sc.pledge(1, "a", "b", "ha")
    canonical = serialize_log(sc.ledger)
    lines = canonical.split(b"\n")[:-1]

    def log(index: int, line: bytes) -> bytes:
        return b"".join((line if i == index else old) + b"\n" for i, old in enumerate(lines))

    rec = json.loads(lines[1])
    sig = rec["sig"].encode()
    null_update = json.loads(lines[0])
    null_update["type"] = "update"
    null_update["payload"] = {"new": null_update["payload"]["v"], "old": None}
    probes = [
        ("crlf", log(1, lines[1] + b"\r"), "ParseError", 2),
        ("form feed", log(1, lines[1] + b"\x0c"), "ParseError", 2),
        ("seq true", log(1, lines[1].replace(b'"seq":1', b'"seq":true')), "ParseError", 2),
        ("surety_type true",
         log(2, lines[2].replace(b'"surety_type":1', b'"surety_type":true')), "ParseError", 3),
        ("uppercase hex", log(1, lines[1].replace(sig, sig.upper())), "ParseError", 2),
        ("spaced JSON", log(1, json.dumps(rec).encode()), "ParseError", 2),
        ("key order",
         log(1, json.dumps(dict(reversed(rec.items())), separators=(",", ":")).encode()),
         "ParseError", 2),
        ("extra key", log(1, lines[1][:-1] + b',"note":0}'), "ParseError", 2),
        ("escaped character",
         log(1, lines[1].removesuffix(b'"mock"}') + b'"mo\\u0063k"}'), "ParseError", 2),
        ("missing final newline", canonical[:-1], "ParseError", 3),
        ("blank line", log(1, lines[1] + b"\n"), "ParseError", 3),
        ("non-UTF-8", log(1, lines[1] + b"\xff"), "ParseError", 2),
        ("update from null",
         log(0, json.dumps(null_update, separators=(",", ":")).encode()), "ParseError", 1),
        ("unknown scheme", log(1, lines[1].removesuffix(b'"mock"}') + b'"nope"}'), "VerifyError", 1),
        ("oversized key", log(1, lines[1].replace(rec["signer"].encode(), b"ab" * 70_000)), "ParseError", 2),
    ]
    assert all(data != canonical for _, data, _, _ in probes)
    return probes


def random_scenario(seed: int, n_events: int | None = None, with_resets: bool = True) -> Scenario:
    """A random mixed protocol log with full ground truth.

    Agents declare, update (validly and invalidly), pledge all four surety
    types (sometimes mutually), reset, endorse, and occasionally steal keys.
    """
    rng = np.random.default_rng(seed)
    sc = Scenario()
    agents = [f"a{i}" for i in range(int(rng.integers(2, 5)))]
    if n_events is None:
        n_events = int(rng.integers(6, 22))
    counter = 0
    declared: list[str] = []
    tip_of_agent: dict[str, str] = {}

    def fresh_name() -> str:
        nonlocal counter
        counter += 1
        return f"v{seed}_{counter}"

    actions = ["declare", "dup", "update", "bad_update", "pledge", "mutual", "reset", "endorse"]
    weights = np.array([0.22, 0.05, 0.16, 0.08, 0.16, 0.18, 0.08 if with_resets else 0.0, 0.07])
    weights /= weights.sum()
    for _ in range(n_events):
        act = rng.choice(actions, p=weights)
        agent = agents[int(rng.integers(len(agents)))]
        if act == "declare" or not declared:
            name = fresh_name()
            sc.declare(name, agent)
            declared.append(name)
            tip_of_agent.setdefault(agent, name)
        elif act == "dup":
            name = declared[int(rng.integers(len(declared)))]
            sc.declare(name, agent)
        elif act == "update":
            old = tip_of_agent.get(agent) or declared[int(rng.integers(len(declared)))]
            new = fresh_name()
            sc.update(new, old, agent)
            declared.append(new)
            tip_of_agent[agent] = new
        elif act == "bad_update":
            old = declared[int(rng.integers(len(declared)))]
            new = fresh_name()
            sc.update(new, old, agent)
            declared.append(new)
        elif act == "pledge":
            if len(declared) < 2:
                continue
            a, b = rng.choice(len(declared), size=2, replace=False)
            sc.pledge(int(rng.integers(1, 5)), declared[a], declared[b], agent)
        elif act == "mutual":
            if len(declared) < 2:
                continue
            a, b = rng.choice(len(declared), size=2, replace=False)
            other = agents[int(rng.integers(len(agents)))]
            sc.mutual_pledge(int(rng.integers(1, 5)), declared[a], declared[b], agent, other)
        elif act == "reset":
            name = declared[int(rng.integers(len(declared)))]
            sc.reset(name, agent)
        elif act == "endorse":
            if len(declared) < 2:
                continue
            a, b = rng.choice(len(declared), size=2, replace=False)
            sc.endorse(declared[a], declared[b], agent)
        if rng.random() < 0.03 and declared:
            sc.compromise(declared[int(rng.integers(len(declared)))], "thief")
    return sc


def fresh_backing(ledger: Ledger) -> Ledger:
    """The events of ``ledger`` on a backing no fold has read: its log, parsed again."""
    return parse_log(serialize_log(ledger))


def fold_facts(a) -> tuple:
    """The seq-stamped fact families of a registry fold, as plain values."""
    return (
        dict(a.intro),
        dict(a.consumed),
        dict(a.nullified_at),
        {t: dict(pairs) for t, pairs in a.mutual.items()},
        dict(a.reset_at),
        dict(a.first_child),
        dict(a.referenced_old),
    )


# ---------------------------------------------------------------------------
# Brute-force oracles: direct, non-incremental re-derivations
# ---------------------------------------------------------------------------

def bf_intro_events(events: list[SignedEvent]) -> dict[PublicIdentifier, int]:
    intro: dict[PublicIdentifier, int] = {}
    for ev in events:
        b = ev.body
        if isinstance(b, Declare) and b.v not in intro:
            intro[b.v] = ev.seq
        elif isinstance(b, Update) and b.new_v not in intro:
            intro[b.new_v] = ev.seq
        elif isinstance(b, Reset) and b.old_v not in intro:
            intro[b.old_v] = ev.seq
    return intro


def bf_mutual_neighbors(
    events: list[SignedEvent], v: PublicIdentifier, before: int
) -> set[PublicIdentifier]:
    intro = bf_intro_events(events[:before])
    if v not in intro:
        return set()
    out = set()
    for t in (2, 3, 4):
        for ev in events[:before]:
            if not isinstance(ev.body, Pledge) or ev.body.surety_type != t:
                continue
            if ev.body.from_v != v:
                continue
            u = ev.body.to_v
            if u not in intro:
                continue
            if any(
                isinstance(o.body, Pledge)
                and o.body.surety_type == t
                and o.body.from_v == u
                and o.body.to_v == v
                for o in events[:before]
            ):
                out.add(u)
    return out


def bf_nullified(events: list[SignedEvent], v: PublicIdentifier, before: int) -> bool:
    for ev in events[:before]:
        if not (isinstance(ev.body, Reset) and ev.body.old_v == v):
            continue
        neighbors = bf_mutual_neighbors(events, v, ev.seq)
        needed_frac = Fraction(2, 3) * len(neighbors)  # the protocol's reset quorum
        needed = -(-needed_frac.numerator // needed_frac.denominator)
        if not neighbors:
            return True
        endorsers = {
            o.body.endorser_v
            for o in events[:before]
            if isinstance(o.body, ResetEndorsement)
            and o.body.target_v == v
            and o.seq > ev.seq
            and o.body.endorser_v in neighbors
        }
        if len(endorsers) >= needed:
            return True
    return False


def bf_update_valid(events: list[SignedEvent], seq: int) -> bool:
    """Direct recursive translation of the inductive validity rule."""
    body = events[seq].body
    assert isinstance(body, Update)
    intro = bf_intro_events(events)
    if intro.get(body.new_v) != seq:
        return False
    old = body.old_v
    if old not in intro or intro[old] >= seq:
        return False
    head = intro[old]
    head_body = events[head].body
    if isinstance(head_body, Update) and not bf_update_valid(events, head):
        return False
    for ev in events[:seq]:
        if (
            isinstance(ev.body, Update)
            and ev.body.old_v == old
            and intro.get(ev.body.new_v) == ev.seq
            and bf_update_valid(events, ev.seq)
        ):
            return False
    if bf_nullified(events, old, seq):
        return False
    return True


def bf_classify(
    events: list[SignedEvent], registry: AgentRegistry
) -> tuple[set[PublicIdentifier], set[PublicIdentifier], set[str]]:
    """(genuine, sybils, corrupt agents) straight from the definitions."""
    intro = bf_intro_events(events)
    fresh: list[tuple[int, PublicIdentifier]] = []
    inherit_from: dict[PublicIdentifier, PublicIdentifier] = {}
    for v, seq in intro.items():
        body = events[seq].body
        if isinstance(body, Update) and bf_update_valid(events, seq):
            inherit_from[v] = body.old_v
        else:
            fresh.append((seq, v))
    fresh.sort()

    def root_of(v: PublicIdentifier) -> PublicIdentifier:
        while v in inherit_from:
            v = inherit_from[v]
        return v

    def tip_as_of(root: PublicIdentifier, at: int) -> PublicIdentifier:
        tip = root
        changed = True
        while changed:
            changed = False
            for v, old in inherit_from.items():
                if old == tip and intro[v] < at:
                    tip = v
                    changed = True
                    break
        return tip

    genuine_roots: set[PublicIdentifier] = set()
    for seq, v in fresh:
        h = registry.actor_of(seq)
        earlier = [u for s, u in fresh if s < seq and registry.actor_of(s) == h]
        blocked = False
        for u in earlier:
            tip = tip_as_of(u, seq)
            if not bf_nullified(events, tip, seq):
                blocked = True
                break
        if not blocked:
            genuine_roots.add(v)

    genuine = {v for v in intro if root_of(v) in genuine_roots}
    sybils = set(intro) - genuine
    corrupt = {registry.actor_of(intro[root_of(v)]) for v in sybils}
    return genuine, sybils, corrupt


def bf_surety_violations(
    ledger: Ledger, registry: AgentRegistry, surety_type: int
) -> frozenset[tuple[int, str]]:
    """``surety_violations`` by a scan of every event: each pledge of the type, judged."""
    state = _trace(ledger, registry)
    out = set()
    for ev in ledger:
        if isinstance(ev.body, Pledge) and ev.body.surety_type == surety_type:
            reason = _pledge_violation_reason(state, registry, ev.body, surety_type)
            if reason is not None:
                out.add((ev.seq, reason))
    return frozenset(out)


def bf_community_at(events: list[SignedEvent], k: int) -> frozenset[PublicIdentifier]:
    """The community after the first ``k`` events, replayed from scratch.

    An add counts only for an identifier some earlier event introduced (a
    declaration, the new side of an update, or a reset); a remove of a
    non-member changes nothing.
    """
    introduced: set[PublicIdentifier] = set()
    members: set[PublicIdentifier] = set()
    for ev in events[:k]:
        b = ev.body
        if isinstance(b, CommunityAdd):
            if b.v in introduced:
                members.add(b.v)
        elif isinstance(b, CommunityRemove):
            members.discard(b.v)
        elif isinstance(b, Declare):
            introduced.add(b.v)
        elif isinstance(b, Update):
            introduced.add(b.new_v)
        elif isinstance(b, Reset):
            introduced.add(b.old_v)
    return frozenset(members)


# ---------------------------------------------------------------------------
# Simulation oracles
# ---------------------------------------------------------------------------

def check_expulsions(result) -> None:
    """Replay a ``run_agent_sim(..., emit_ledger=True)`` log against the run.

    Each run of consecutive ``CommunityRemove`` events must be exactly the
    connected component of its first removed member in the mutual type-3
    pledge graph, restricted to present members declared by the
    ``adversary`` agent.  The run sizes must be ``expulsion_sizes`` and the
    number of present sybils after each round must be ``sybil_series``.
    """
    sybil: set[PublicIdentifier] = set()
    present: set[PublicIdentifier] = set()
    pledged: set[tuple[PublicIdentifier, PublicIdentifier]] = set()
    adj: dict[PublicIdentifier, set[PublicIdentifier]] = {}
    runs: list[tuple[set[PublicIdentifier], set[PublicIdentifier]]] = []  # (expelled, component)
    counts: list[int] = []
    adds = 0
    in_run = False

    def component(v: PublicIdentifier) -> set[PublicIdentifier]:
        reached = {v}
        stack = [v]
        while stack:
            for u in adj.get(stack.pop(), ()):
                if u in present and u in sybil and u not in reached:
                    reached.add(u)
                    stack.append(u)
        return reached

    for ev in result.ledger.events:
        b = ev.body
        removing = isinstance(b, CommunityRemove)
        if removing:
            assert b.v in present and b.v in sybil, f"seq {ev.seq} expels a non-sybil or non-member"
            if not in_run:
                runs.append((set(), component(b.v)))
            runs[-1][0].add(b.v)
            present.discard(b.v)
        elif isinstance(b, Declare):
            if adds > result.config.n0:  # a new round: the previous one is complete
                counts.append(len(present & sybil))
            if result.registry.actor_of(ev.seq) == "adversary":
                sybil.add(b.v)
        elif isinstance(b, Pledge) and b.surety_type == 3:
            if (b.to_v, b.from_v) in pledged:
                adj.setdefault(b.from_v, set()).add(b.to_v)
                adj.setdefault(b.to_v, set()).add(b.from_v)
            pledged.add((b.from_v, b.to_v))
        elif isinstance(b, CommunityAdd):
            present.add(b.v)
            adds += 1
        in_run = removing
    counts.append(len(present & sybil))

    for i, (expelled, comp) in enumerate(runs):
        assert expelled == comp, (
            f"expulsion {i} removed {len(expelled)} members, its sybil component has {len(comp)}"
        )
    assert [len(expelled) for expelled, _ in runs] == result.expulsion_sizes
    assert counts == result.sybil_series.tolist()


def bf_series_from_ledger(
    ledger: Ledger, registry: AgentRegistry, n0: int
) -> list[tuple[int, int, float, int, int]]:
    """Every round's ``sim grow`` CSV columns, rebuilt in one pass over the run's ledger.

    Returns (community_size, sybil_count, sigma, num_components,
    max_component) per round.  A round ends where the next candidate's
    ``declare`` begins; the first ``n0`` additions seat the initial members.
    Membership comes from ``community_add`` and ``community_remove``, the
    sybils from ``classify``, and the sybil components from a union-find
    over mutual type-3 pledges between sybils, counting the present
    members of each.  A union-find cannot split a component, so each round
    asserts that an expulsion took every present member of a component.
    """
    sybils = classify(ledger, registry).sybils
    parent: dict[PublicIdentifier, PublicIdentifier] = {}
    present_in: dict[PublicIdentifier, int] = {}  # root -> present members, for roots with any
    shrunk: set[PublicIdentifier] = set()  # roots that lost a member this round
    pledged: set[tuple[PublicIdentifier, PublicIdentifier]] = set()
    rows: list[tuple[int, int, float, int, int]] = []
    members = present_sybils = adds = 0

    def find(v: PublicIdentifier) -> PublicIdentifier:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    def end_round() -> None:
        assert not any(find(r) in present_in for r in shrunk), "an expulsion split a component"
        shrunk.clear()
        rows.append((members, present_sybils, present_sybils / members,
                     len(present_in), max(present_in.values(), default=0)))

    for ev in ledger.events:
        b = ev.body
        if isinstance(b, Declare) and adds > n0:
            end_round()
        elif isinstance(b, Pledge) and b.surety_type == 3:
            if (b.to_v, b.from_v) in pledged and b.from_v in sybils and b.to_v in sybils:
                ra, rb = find(b.from_v), find(b.to_v)
                if ra != rb:
                    parent[ra] = rb
                    joined = present_in.pop(ra, 0) + present_in.pop(rb, 0)
                    if joined:
                        present_in[rb] = joined
            pledged.add((b.from_v, b.to_v))
        elif isinstance(b, CommunityAdd):
            adds += 1
            members += 1
            if b.v in sybils:
                present_sybils += 1
                r = find(b.v)
                present_in[r] = present_in.get(r, 0) + 1
        elif isinstance(b, CommunityRemove):
            members -= 1
            if b.v in sybils:
                present_sybils -= 1
                r = find(b.v)
                shrunk.add(r)
                present_in[r] -= 1
                if not present_in[r]:
                    del present_in[r]
    end_round()
    return rows


def reference_slot_sigma(n: int, k: int, p: float, rounds: int, burn_in: int, seed: int) -> float:
    """Time-averaged penetration of the k-slot sybil process, written out directly.

    A fixed honest community of n members; each round one sybil joins a
    uniform slot of k (founding its component when the slot is empty), then
    one uniform member is inspected and, if it is a sybil, its whole slot is
    expelled with probability p.  Draws come from numpy's default generator,
    so the result agrees with ``run_agent_sim`` in law, not draw for draw.
    """
    rng = np.random.default_rng(seed)
    members = list(range(n))
    pos = {i: i for i in members}
    slots: list[list[int]] = [[] for _ in range(k)]
    slot_of: dict[int, int] = {}
    next_id = n
    sybil_count = 0
    sigma = np.empty(rounds)

    def remove_member(ident: int) -> None:
        idx = pos.pop(ident)
        last = members.pop()
        if last != ident:
            members[idx] = last
            pos[last] = idx

    for row, (u_slot, u_inspect, u_detect) in enumerate(rng.random((rounds, 3)).tolist()):
        slot = min(int(u_slot * k), k - 1)
        slots[slot].append(next_id)
        slot_of[next_id] = slot
        pos[next_id] = len(members)
        members.append(next_id)
        sybil_count += 1
        next_id += 1
        inspected = members[min(int(u_inspect * len(members)), len(members) - 1)]
        if inspected >= n and u_detect < p:
            expelled = slot_of[inspected]
            for m in slots[expelled]:
                remove_member(m)
                del slot_of[m]
                sybil_count -= 1
            slots[expelled] = []
        sigma[row] = sybil_count / len(members)
    return float(sigma[burn_in:].mean())


# ---------------------------------------------------------------------------
# Graph oracles
# ---------------------------------------------------------------------------

def edges_of(graph) -> list[tuple[int, int]]:
    """Every edge ``(u, v)`` with ``u < v``, in order of ``u`` then of ``graph.adj[u]``."""
    return [(u, v) for u in range(graph.n) for v in graph.adj[u] if u < v]


def bf_greedy_independent_set(graph) -> frozenset[int]:
    """Min-degree greedy by a full scan of the live vertices per pick.

    The rule ``metrics.greedy_independent_set`` must reproduce: take the
    live vertex minimising (degree, index), delete it and its live
    neighbours, repeat.  Costs O(n) key calls per chosen vertex.
    """
    alive = set(range(graph.n))
    degree = {v: graph.degree(v) for v in alive}
    chosen: set[int] = set()
    while alive:
        v = min(alive, key=lambda u: (degree[u], u))
        chosen.add(v)
        removed = {v} | (set(graph.adj[v]) & alive)
        alive -= removed
        for u in removed:
            for w in graph.adj[u]:
                if w in alive:
                    degree[w] -= 1
    return frozenset(chosen)


def bf_max_independent_set(graph) -> frozenset[int]:
    """Exact maximum independent set by branch and bound on ``size + |cand|``.

    The set ``metrics.max_independent_set`` must return on every graph at or
    under its exact limit: the same branching (highest degree first, a
    vertex with no candidate neighbour joins outright, include before
    exclude), searched per component from ``greedy ∩ component`` and
    replaced only by a strictly larger set, so the answer is the first
    maximum set in search order.  Its only bound is the candidate count,
    which takes seconds on a 40-vertex cycle.
    """
    adj_masks = graph.bitmasks()
    static_order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))

    greedy = greedy_independent_set(graph)

    def expand(cand: int, size: int, cur: int) -> None:
        nonlocal best_mask, best_size
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:  # the bound above makes this a strictly larger set
            best_mask, best_size = cur, size
            return
        # isolated-in-candidates vertices always join the set
        v = -1
        for u in static_order:
            bit = 1 << u
            if cand & bit:
                if adj_masks[u] & cand == 0:
                    expand(cand & ~bit, size + 1, cur | bit)
                    return
                if v == -1:
                    v = u
        bit = 1 << v
        expand(cand & ~(adj_masks[v] | bit), size + 1, cur | bit)
        expand(cand & ~bit, size, cur)

    # independent components solve independently; their optima add up
    total_mask = 0
    for comp in graph.components():
        comp_mask = sum(1 << v for v in comp)
        sub_greedy = greedy.intersection(comp)
        best_mask, best_size = sum(1 << v for v in sub_greedy), len(sub_greedy)
        expand(comp_mask, 0, 0)
        total_mask |= best_mask
    return frozenset(v for v in range(graph.n) if total_mask >> v & 1)


def bf_pairing_attempt(rng: np.random.Generator, n: int, d: int) -> set[tuple[int, int]] | None:
    """One pairing-model attempt, pairing the stubs one at a time.

    The rule ``metrics._pairing_attempt`` must reproduce, draw for draw:
    each pass shuffles the remaining stubs with one ``rng.permutation``
    draw and pairs them off in order; a pair joins the growing edge set
    unless it is a loop or already an edge, and otherwise both its stubs
    are carried to the next pass, grouped by vertex in order of first
    conflict.  Gives up (None) when no two distinct conflict vertices can
    still form a new edge.
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        conflicts: dict[int, int] = {}
        order = rng.permutation(len(stubs))
        shuffled = [stubs[i] for i in order]
        it = iter(shuffled)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                conflicts[s1] = conflicts.get(s1, 0) + 1
                conflicts[s2] = conflicts.get(s2, 0) + 1
        if conflicts:
            # if no remaining stub pair could form a new simple edge, give up
            suitable = False
            nodes = list(conflicts)
            for i, s1 in enumerate(nodes):
                for s2 in nodes[i:]:
                    if s1 == s2:
                        continue
                    a, b = (s1, s2) if s1 < s2 else (s2, s1)
                    if (a, b) not in edges:
                        suitable = True
                        break
                if suitable:
                    break
            if not suitable:
                return None
        stubs = [node for node, count in conflicts.items() for _ in range(count)]
    return edges
