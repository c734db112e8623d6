"""Seeded generator of mixed-event protocol ledgers with their ground truth.

It follows the action mix of the test suite's random scenarios: agents
declare, re-declare, update validly and invalidly, pledge all four surety
types singly and mutually, reset, endorse resets and now and then steal a
key.  The generator only plans: it returns the event bodies with their
signing key pairs and the ground-truth ``AgentRegistry``.  Signing and
appending are left to the timed part of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpi.keys import KeyPair, generate_keypair
from gpi.ledger import Declare, EventBody, Pledge, Reset, ResetEndorsement, Update
from gpi.oracle import AgentRegistry

ACTIONS = ("declare", "dup", "update", "bad_update", "pledge", "mutual", "reset", "endorse")
WEIGHTS = np.array([0.22, 0.05, 0.16, 0.08, 0.16, 0.18, 0.08, 0.07])
WEIGHTS = WEIGHTS / WEIGHTS.sum()
COMPROMISE_RATE = 0.03


@dataclass
class Script:
    """The planned events of one ledger, in order, with the ground truth."""

    bodies: list[EventBody]
    signers: list[KeyPair]
    registry: AgentRegistry


def stratified_sizes(rng: np.random.Generator, count: int, low: int, high: int) -> list[int]:
    """``count`` ledger sizes, log-uniform on [low, high], one per stratum.

    One draw per equal-width stratum of log-size keeps a batch's total size
    nearly the same for every seed, while the sizes still spread over the
    whole range.
    """
    u = (np.arange(count) + rng.random(count)) / count
    sizes = np.exp(np.log(low) + u * (np.log(high) - np.log(low)))
    order = rng.permutation(count)
    return [int(round(s)) for s in sizes[order]]


def plan(rng: np.random.Generator, n_events: int, scheme: str, tag: str) -> Script:
    """Plan a ledger of exactly ``n_events`` events."""
    registry = AgentRegistry()
    agents = [f"a{i}" for i in range(int(rng.integers(2, 5)) + n_events // 8)]
    keys: dict[str, KeyPair] = {}
    bodies: list[EventBody] = []
    signers: list[KeyPair] = []
    declared: list[str] = []
    tip_of_agent: dict[str, str] = {}

    def key(name: str) -> KeyPair:
        kp = keys.get(name)
        if kp is None:
            kp = keys[name] = generate_keypair(scheme, f"{tag}:{name}".encode())
        return kp

    def post(body: EventBody, signer: str, agent: str) -> None:
        registry.actor[len(bodies)] = agent
        registry.agents.add(agent)
        bodies.append(body)
        signers.append(key(signer))

    def own(name: str, agent: str) -> None:
        registry.key_owner.setdefault(key(name).public, (agent,))

    def two_declared() -> tuple[str, str]:
        a, b = rng.choice(len(declared), size=2, replace=False)
        return declared[a], declared[b]

    while len(bodies) < n_events:
        act = ACTIONS[int(rng.choice(len(ACTIONS), p=WEIGHTS))]
        agent = agents[int(rng.integers(len(agents)))]
        room = n_events - len(bodies)
        if act == "declare" or not declared:
            name = f"v{len(keys)}"
            own(name, agent)
            post(Declare(key(name).public), name, agent)
            declared.append(name)
            tip_of_agent.setdefault(agent, name)
        elif act == "dup":
            name = declared[int(rng.integers(len(declared)))]
            own(name, agent)
            post(Declare(key(name).public), name, agent)
        elif act in ("update", "bad_update"):
            if act == "update":
                old = tip_of_agent.get(agent) or declared[int(rng.integers(len(declared)))]
            else:
                old = declared[int(rng.integers(len(declared)))]
            new = f"v{len(keys)}"
            own(new, agent)
            post(Update(key(new).public, key(old).public), new, agent)
            declared.append(new)
            if act == "update":
                tip_of_agent[agent] = new
        elif act == "pledge" or (act == "mutual" and room < 2):
            if len(declared) < 2:
                continue
            a, b = two_declared()
            post(Pledge(int(rng.integers(1, 5)), key(a).public, key(b).public), a, agent)
        elif act == "mutual":
            if len(declared) < 2:
                continue
            a, b = two_declared()
            other = agents[int(rng.integers(len(agents)))]
            t = int(rng.integers(1, 5))
            post(Pledge(t, key(a).public, key(b).public), a, agent)
            post(Pledge(t, key(b).public, key(a).public), b, other)
        elif act == "reset":
            name = declared[int(rng.integers(len(declared)))]
            post(Reset(key(name).public), name, agent)
        else:  # endorse
            if len(declared) < 2:
                continue
            target, endorser = two_declared()
            post(ResetEndorsement(key(target).public, key(endorser).public), endorser, agent)
        if rng.random() < COMPROMISE_RATE:
            stolen = key(declared[int(rng.integers(len(declared)))]).public
            owners = registry.key_owner.get(stolen, ())
            if "thief" not in owners:
                registry.key_owner[stolen] = owners + ("thief",)
    return Script(bodies, signers, registry)
