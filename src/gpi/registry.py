"""Oracle-free identifier state derived from a ledger.

Everything here is computed from the public event log alone: first
declarations, update validity, provenance chains, current identifiers and
reset effectiveness.  No knowledge of which person performed an event is
used (that belongs to the simulation oracle).

Conventions baked in:

* The first event introducing an identifier wins; re-declarations are
  retained in the log but ignored for state.
* An update ``(new, old)`` is valid iff ``new`` is first introduced by that
  event, ``old``'s chain head is reachable through valid links, and ``old``
  has not already been superseded by a valid update or nullified by an
  effective reset.  An invalid update is a no-op: it does not consume
  ``old``, so a later valid update of the same ``old`` may still succeed.
* A reset enters into effect once endorsements from a quorum of the
  target's mutual-surety neighbours (pledge types 2..4, counted at the
  reset's seq) have been logged after it; with no such neighbours the
  reset is effective immediately.  The quorum fraction is configurable
  and defaults to 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .keys import PublicIdentifier
from .ledger import (
    CommunityAdd,
    CommunityRemove,
    Declare,
    Ledger,
    Pledge,
    Reset,
    ResetEndorsement,
    Update,
)

DEFAULT_RESET_QUORUM = Fraction(2, 3)

NEVER_DECLARED = "never_declared"
CURRENT = "current"
SUPERSEDED = "superseded"
NULLIFIED = "nullified"
RESET_PENDING = "reset_pending"


class NotAnUpdate(ValueError):
    """Raised when update validity is asked of a non-update event."""


@dataclass(frozen=True)
class ProvenanceChain:
    """One identifier lineage: newest link first, base declaration last."""

    links: tuple[int, ...]
    identifiers: tuple[PublicIdentifier, ...]
    current: PublicIdentifier
    valid: bool
    maximal: bool

    def __len__(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class IdentifierStatus:
    identifier: PublicIdentifier
    state: str


@dataclass
class _ResetRecord:
    seq: int
    neighbors: frozenset[PublicIdentifier]
    needed: int
    endorsers: set[PublicIdentifier] = field(default_factory=set)
    effective_at: int | None = None


@dataclass
class LedgerAnalysis:
    """Single-pass derivation shared by the registry, oracle and graphs."""

    quorum: Fraction
    intro: dict[PublicIdentifier, int] = field(default_factory=dict)
    introduced_at: dict[int, PublicIdentifier] = field(default_factory=dict)
    duplicates: list[int] = field(default_factory=list)
    update_valid: dict[int, bool] = field(default_factory=dict)
    consumed: dict[PublicIdentifier, int] = field(default_factory=dict)
    children: dict[PublicIdentifier, list[int]] = field(default_factory=dict)
    resets: dict[PublicIdentifier, list[_ResetRecord]] = field(default_factory=dict)
    nullified_at: dict[PublicIdentifier, int] = field(default_factory=dict)
    referenced_old: set[PublicIdentifier] = field(default_factory=set)
    # directed pledges per type: type -> from -> {to -> first seq}
    pledges: dict[int, dict[PublicIdentifier, dict[PublicIdentifier, int]]] = field(
        default_factory=lambda: {1: {}, 2: {}, 3: {}, 4: {}}
    )

    def is_nullified(self, v: PublicIdentifier, before: int | None = None) -> bool:
        at = self.nullified_at.get(v)
        if at is None:
            return False
        return True if before is None else at < before

    def mutual_neighbors(
        self, v: PublicIdentifier, types: Iterable[int], before: int
    ) -> frozenset[PublicIdentifier]:
        """Identifiers with a completed mutual pledge to ``v`` before ``before``.

        Both directed pledges and both introductions must precede ``before``.
        """
        out: set[PublicIdentifier] = set()
        if self.intro.get(v, before) >= before:
            return frozenset()
        for t in types:
            per_type = self.pledges[t]
            for u, s_vu in per_type.get(v, {}).items():
                if s_vu >= before or u in out:
                    continue
                s_uv = per_type.get(u, {}).get(v)
                if s_uv is None or s_uv >= before:
                    continue
                if self.intro.get(u, before) < before:
                    out.add(u)
        return frozenset(out)


def analyze(ledger: Ledger, quorum_fraction: Fraction | float = DEFAULT_RESET_QUORUM) -> LedgerAnalysis:
    """Derive introduction, validity, reset and pledge state in one pass."""
    q = Fraction(quorum_fraction)
    if not 0 < q <= 1:
        raise ValueError("quorum fraction must lie in (0, 1]")
    a = LedgerAnalysis(quorum=q)

    def introduce(v: PublicIdentifier, seq: int) -> None:
        a.intro[v] = seq
        a.introduced_at[seq] = v

    for ev in ledger:
        body = ev.body
        seq = ev.seq
        if isinstance(body, Declare):
            if body.v in a.intro:
                a.duplicates.append(seq)
            else:
                introduce(body.v, seq)
        elif isinstance(body, Update):
            a.referenced_old.add(body.old_v)
            if body.new_v in a.intro:
                a.duplicates.append(seq)
                continue
            introduce(body.new_v, seq)
            a.children.setdefault(body.old_v, []).append(seq)
            old = body.old_v
            ok = (
                old in a.intro
                and a.intro[old] < seq
                and a.update_valid.get(a.intro[old], True)  # non-update heads are valid
                and old not in a.consumed
                and not a.is_nullified(old, before=seq)
            )
            a.update_valid[seq] = ok
            if ok:
                a.consumed[old] = seq
        elif isinstance(body, Reset):
            v = body.old_v
            if v not in a.intro:
                introduce(v, seq)  # a reset is still a declaration event of v
            neighbors = a.mutual_neighbors(v, (2, 3, 4), before=seq)
            n = len(neighbors)
            needed = -(-(q * n).numerator // (q * n).denominator)  # ceil(q*n)
            rec = _ResetRecord(seq, neighbors, needed)
            if n == 0:  # nobody to object: effective immediately
                rec.effective_at = seq
                if v not in a.nullified_at:
                    a.nullified_at[v] = seq
            a.resets.setdefault(v, []).append(rec)
        elif isinstance(body, ResetEndorsement):
            for rec in a.resets.get(body.target_v, ()):
                if rec.effective_at is not None or seq <= rec.seq:
                    continue
                if body.endorser_v in rec.neighbors:
                    rec.endorsers.add(body.endorser_v)
                    if len(rec.endorsers) >= rec.needed:
                        rec.effective_at = seq
                        prev = a.nullified_at.get(body.target_v)
                        if prev is None or seq < prev:
                            a.nullified_at[body.target_v] = seq
        elif isinstance(body, Pledge):
            per_from = a.pledges[body.surety_type].setdefault(body.from_v, {})
            per_from.setdefault(body.to_v, seq)  # duplicates collapse, earliest wins
        elif isinstance(body, (CommunityAdd, CommunityRemove)):
            pass
    return a


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def first_declaration(ledger: Ledger, v: PublicIdentifier) -> int | None:
    """Smallest seq of an event introducing ``v``, or None if absent."""
    return analyze(ledger).intro.get(v)


def duplicate_declarations(ledger: Ledger) -> tuple[int, ...]:
    """Seqs of declaration events re-introducing an already-known identifier."""
    return tuple(analyze(ledger).duplicates)


def is_valid_update(
    ledger: Ledger,
    seq: int,
    quorum_fraction: Fraction | float = DEFAULT_RESET_QUORUM,
) -> bool:
    event = ledger[seq]
    if not isinstance(event.body, Update):
        raise NotAnUpdate(f"event {seq} is {type(event.body).__name__}, not Update")
    return analyze(ledger, quorum_fraction).update_valid.get(seq, False)


def _thread_chains(ledger: Ledger, a: LedgerAnalysis) -> list[ProvenanceChain]:
    # The continuation of an identifier is the valid update consuming it if
    # one exists, else its earliest referencing update; all other updates of
    # the same identifier start chains of their own.
    continuation: dict[PublicIdentifier, int] = {}
    for old, kids in a.children.items():
        continuation[old] = a.consumed.get(old, kids[0])

    continuation_seqs = set(continuation.values())
    chains: list[ProvenanceChain] = []
    for seq in sorted(a.introduced_at):
        if seq in continuation_seqs:
            continue  # belongs to the middle of some chain
        links: list[int] = []
        idents: list[PublicIdentifier] = []
        cur_seq, cur_id = seq, a.introduced_at[seq]
        while True:
            links.append(cur_seq)
            idents.append(cur_id)
            nxt = continuation.get(cur_id)
            if nxt is None:
                break
            cur_seq, cur_id = nxt, a.introduced_at[nxt]
        valid = all(a.update_valid.get(s, True) for s in links)
        maximal = cur_id not in a.referenced_old
        chains.append(
            ProvenanceChain(
                links=tuple(reversed(links)),
                identifiers=tuple(reversed(idents)),
                current=cur_id,
                valid=valid,
                maximal=maximal,
            )
        )
    return chains


def provenance_chains(
    ledger: Ledger,
    quorum_fraction: Fraction | float = DEFAULT_RESET_QUORUM,
) -> list[ProvenanceChain]:
    """Partition of all introduction events into lineages, oldest base last.

    Every introduced identifier appears in exactly one chain.  A chain is
    valid iff every one of its update links is valid; its current (tip)
    identifier is computed structurally either way.
    """
    return _thread_chains(ledger, analyze(ledger, quorum_fraction))


def current_identifiers(
    ledger: Ledger,
    quorum_fraction: Fraction | float = DEFAULT_RESET_QUORUM,
) -> frozenset[PublicIdentifier]:
    """Tips of maximal valid chains, minus identifiers nullified by reset."""
    a = analyze(ledger, quorum_fraction)
    chains = _thread_chains(ledger, a)
    return frozenset(
        c.current
        for c in chains
        if c.valid and c.maximal and not a.is_nullified(c.current)
    )


def reset_status(
    ledger: Ledger,
    v: PublicIdentifier,
    quorum_fraction: Fraction | float = DEFAULT_RESET_QUORUM,
) -> IdentifierStatus:
    """Lineage-local state of one identifier under the given reset quorum."""
    a = analyze(ledger, quorum_fraction)
    if v not in a.intro:
        return IdentifierStatus(v, NEVER_DECLARED)
    if v in a.resets:
        if a.is_nullified(v):
            return IdentifierStatus(v, NULLIFIED)
        return IdentifierStatus(v, RESET_PENDING)
    if v in a.consumed:
        return IdentifierStatus(v, SUPERSEDED)
    return IdentifierStatus(v, CURRENT)
