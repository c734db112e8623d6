"""Simulation-only ground truth about agents behind the ledger.

The protocol itself never references people: posted events only mention
keys.  For simulations and tests, however, we need to know which agent
performed each event in order to decide which identifiers are genuine,
which are sybils, which agents are corrupt, and which pledges are
violated.  The registry kept here lives strictly outside the protocol
boundary; nothing in the ledger, registry or surety modules depends on it.

Classification rules:

* An agent's first fresh declaration is genuine; any later fresh
  declaration while a previous lineage of theirs is still alive is a
  sybil, and the agent is corrupt.
* Identifiers introduced by valid updates inherit their lineage's status
  rather than counting as fresh declarations.
* A fresh declaration made after all of the agent's earlier lineages were
  nullified by effective resets starts a new genuine lineage: resetting
  an identifier and starting over does not make an honest agent corrupt.

Lineage-end rule: a lineage's tip at seq ``s`` is nullified before ``s``
exactly when its *last* member is.  The members are its root followed
along the valid updates: ``LedgerAnalysis.consumed`` gives the seq of the
update superseding a member, and that event's ``new_v`` is the next one.
An update of a nullified identifier is invalid, so a tip nullified before
``s`` is never superseded; and a later member cannot be nullified before
it is introduced.  So one pass in introduction order, keeping per agent
only the seq by which all its lineages so far are nullified, decides
every fresh declaration.

An identifier is byzantine if it is a sybil or the genuine identifier of
a corrupt agent; the rest are harmless.

Cost: that pass reads the cached registry fold (``registry.analyze``),
is O(identifiers) and builds the ``ClassificationReport``.  Its result is
cached per ledger backing, for one ledger length at a time, and is reused
while the registry names the same actor for every introduced seq, the
only registry fact the pass reads.  So ``classify``, ``surety_violations``
and ``pledge_violation`` on one ledger value share one pass; each later
call pays an O(identifiers) actor comparison and then its own work, which
for ``classify`` is O(1): it returns the pass's report.  A call on another
length (a prefix, or the same backing after an append) or after an actor
edit walks again and replaces the cached pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .keys import PublicIdentifier
from .ledger import SURETY_TYPES, Ledger, Pledge, Update
from .registry import LedgerAnalysis, ProvenanceChain, analyze


class MissingActor(KeyError):
    def __init__(self, seq: int):
        super().__init__(f"no actor recorded for event {seq}")
        self.seq = seq


@dataclass
class AgentRegistry:
    """Ground-truth map of agents, key possession and event actors.

    ``key_owner`` lists every agent holding an identifier's secret; two or
    more holders mark the identifier compromised.  ``actor`` names the one
    agent that performed each event.
    """

    agents: set[str] = field(default_factory=set)
    key_owner: dict[PublicIdentifier, tuple[str, ...]] = field(default_factory=dict)
    actor: dict[int, str] = field(default_factory=dict)

    def actor_of(self, seq: int) -> str:
        try:
            return self.actor[seq]
        except KeyError:
            raise MissingActor(seq) from None

    def compromised_identifiers(self) -> frozenset[PublicIdentifier]:
        return frozenset(v for v, owners in self.key_owner.items() if len(owners) >= 2)

    def to_json(self) -> str:
        return json.dumps(
            {
                "agents": sorted(self.agents),
                "key_owner": {
                    v.label: list(owners)
                    for v, owners in sorted(self.key_owner.items(), key=lambda kv: kv[0].label)
                },
                "actor": {str(seq): h for seq, h in sorted(self.actor.items())},
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AgentRegistry":
        raw = json.loads(text)
        key_owner = {}
        for label, owners in raw.get("key_owner", {}).items():
            scheme, _, hexkey = label.rpartition(":")
            key_owner[PublicIdentifier(scheme, bytes.fromhex(hexkey))] = tuple(owners)
        return cls(
            agents=set(raw.get("agents", [])),
            key_owner=key_owner,
            actor={int(seq): h for seq, h in raw.get("actor", {}).items()},
        )


@dataclass(frozen=True)
class ClassificationReport:
    genuine: frozenset[PublicIdentifier]
    sybils: frozenset[PublicIdentifier]
    corrupt_agents: frozenset[str]
    byzantine: frozenset[PublicIdentifier]


@dataclass
class _OracleState:
    analysis: LedgerAnalysis
    report: ClassificationReport
    last_fresh: dict[str, int]  # agent -> seq of its latest fresh declaration
    declarer: dict[PublicIdentifier, str]  # rightful owner (actor of intro event)
    seqs: tuple[int, ...]  # the introduced seqs whose actors declarer holds, in its order


def _trace(ledger: Ledger, registry: AgentRegistry) -> _OracleState:
    """The oracle pass over ``ledger``, cached in one slot per backing.

    The slot holds ``(length, intro seqs, their actors, state)``.  ``_walk``
    reads nothing from the registry except ``actor_of(seq)`` for introduced
    seqs, so the state is reused exactly when the length and those actors
    are unchanged; a missing actor or any edit walks again, which raises
    ``MissingActor`` or answers for the edited registry.
    """
    slot = ledger.derived("oracle", lambda: [None])
    if slot[0] is not None and slot[0][0] == len(ledger):
        _, seqs, actors, state = slot[0]
        if tuple(map(registry.actor.get, seqs)) == actors:  # a missing actor reads None
            return state
    state = _walk(ledger, registry)
    slot[0] = (len(ledger), state.seqs, tuple(state.declarer.values()), state)
    return state


def _walk(ledger: Ledger, registry: AgentRegistry) -> _OracleState:
    a = analyze(ledger)
    sybils: set[PublicIdentifier] = set()
    corrupt: set[str] = set()
    dead_by: dict[str, float] = {}  # agent -> seq by which all its lineages so far are nullified
    last_fresh: dict[str, int] = {}
    declarer: dict[PublicIdentifier, str] = {}
    seqs: list[int] = []

    for v, seq in a.intro.items():  # in seq order
        seqs.append(seq)
        h = declarer[v] = registry.actor_of(seq)
        body = ledger[seq].body
        if isinstance(body, Update) and a.consumed.get(body.old_v) == seq:
            continue  # a later member of the lineage walked from its root
        # fresh declaration: genuine only if every earlier lineage of this
        # agent has been nullified by an effective reset before this event
        members = [v]
        while members[-1] in a.consumed:
            members.append(ledger[a.consumed[members[-1]]].body.new_v)
        if dead_by.get(h, -1) >= seq:
            sybils.update(members)
            corrupt.add(h)
        dead_by[h] = max(dead_by.get(h, -1), a.nullified_at.get(members[-1], math.inf))
        last_fresh[h] = seq

    genuine = frozenset(declarer).difference(sybils)
    byzantine = sybils | {v for v in genuine if declarer[v] in corrupt}
    report = ClassificationReport(genuine, frozenset(sybils), frozenset(corrupt), frozenset(byzantine))
    return _OracleState(a, report, last_fresh, declarer, tuple(seqs))


def classify(ledger: Ledger, registry: AgentRegistry) -> ClassificationReport:
    """Split declared identifiers into genuine/sybil and derive agent status.

    Returns the report of the cached oracle pass (see the module
    docstring): after the actor comparison, O(1), and the same object for
    every call the pass serves.
    """
    return _trace(ledger, registry).report


# ---------------------------------------------------------------------------
# Surety violations
# ---------------------------------------------------------------------------
# The four criteria are cumulative.  "holder" below means an agent that
# possesses the target's secret key (anyone able to answer a signing
# challenge); the declarer is the actor of the target's first declaration.
#
#   type 1: nobody holds the target's key.
#   type 2: ... or the target was never declared, or some holder is not
#           the declarer (theft or compromise).
#   type 3: ... or the target is a sybil.
#   type 4: ... or the declarer makes any fresh personal-identifier
#           declaration after the target's declaration, no matter whether
#           that happens before or after the pledge itself.

def _pledge_violation_reason(
    state: _OracleState,
    registry: AgentRegistry,
    pledge: Pledge,
    as_type: int,
) -> str | None:
    to_v = pledge.to_v
    holders = registry.key_owner.get(to_v, ())
    if not holders:
        return "target-key-unheld"
    if as_type < 2:
        return None
    intro_seq = state.analysis.intro.get(to_v)
    if intro_seq is None:
        return "target-never-declared"
    owner = state.declarer[to_v]
    if any(h != owner for h in holders):
        return "holder-not-declarer"
    if as_type < 3:
        return None
    if to_v in state.report.sybils:
        return "target-sybil"
    if as_type < 4:
        return None
    if state.last_fresh.get(owner, -1) > intro_seq:
        return "later-declaration"
    return None


def surety_violations(
    ledger: Ledger, registry: AgentRegistry, surety_type: int
) -> frozenset[tuple[int, str]]:
    """Violated pledge events of the given type, with the reason for each.

    Runs the cached oracle pass (see the module docstring) and then judges
    the pledge events of that type, which the registry fold lists:
    O(pledges of the type).
    """
    if surety_type not in SURETY_TYPES:
        raise ValueError(f"surety type must be 1..4, got {surety_type}")
    state = _trace(ledger, registry)
    out = set()
    for seq in state.analysis.pledge_seqs(surety_type):
        reason = _pledge_violation_reason(state, registry, ledger[seq].body, surety_type)
        if reason is not None:
            out.add((seq, reason))
    return frozenset(out)


def pledge_violation(ledger: Ledger, registry: AgentRegistry, seq: int, as_type: int) -> str | None:
    """Evaluate one pledge event under any cumulative criterion.

    Lets tests check that the criteria really nest: a pledge violated at
    type t is violated at every type above t.  Once the cached oracle pass
    (see the module docstring) exists for this ledger value, a call costs
    the O(identifiers) actor comparison and O(1) lookups.
    """
    if as_type not in SURETY_TYPES:
        raise ValueError(f"surety type must be 1..4, got {as_type}")
    event = ledger[seq]
    if not isinstance(event.body, Pledge):
        raise ValueError(f"event {seq} is not a pledge")
    state = _trace(ledger, registry)
    return _pledge_violation_reason(state, registry, event.body, as_type)


def chain_has_single_actor(
    chain: ProvenanceChain, registry: AgentRegistry
) -> bool:
    """True iff one agent performed every declaration in the chain."""
    actors = {registry.actor_of(seq) for seq in chain.links}
    return len(actors) == 1
