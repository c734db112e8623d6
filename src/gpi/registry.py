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
  reset is effective immediately.  The quorum is the protocol constant
  ``RESET_QUORUM`` = 2/3: of n neighbours, ceil(2n/3) must endorse.

Every fact is stamped with the seq at which it became true, and an event's
effect depends only on earlier events, so one fold per ledger backing
(``analyze``) serves the ledger, each of its prefixes and the values
appended at its tip: a prefix reads the cached fold by seq comparison.
The fold keeps one seq-stamped table per kind of fact (``LedgerAnalysis``
lists them).  Two of them index a fact another table holds too, so that it
can be looked up from either side: ``introduced_at`` (seq -> identifier)
inverts ``intro``, and ``mutual`` pairs the first seqs of the two directed
pledges the fold also keeps per type.  A pending reset is dropped once its
target is nullified, as nothing after that changes it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator

from .keys import PublicIdentifier
from .ledger import (
    Declare,
    Ledger,
    Pledge,
    Reset,
    ResetEndorsement,
    Update,
)

RESET_QUORUM = Fraction(2, 3)

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


class _Fold:
    """The registry fold of one ledger backing, advanced one event at a time.

    Every fact is stamped with the seq of the event that made it true, and
    no later event changes a stamp.  So the fold of a prefix of length k is
    this fold with every fact stamped at or after k dropped, and each table
    lists its facts in stamp order.
    """

    def __init__(self):
        self.length = 0  # events folded so far
        self.intro: dict[PublicIdentifier, int] = {}
        self.introduced_at: dict[int, PublicIdentifier] = {}
        self.duplicates: list[int] = []
        self.update_valid: dict[int, bool] = {}
        self.consumed: dict[PublicIdentifier, int] = {}
        self.first_child: dict[PublicIdentifier, int] = {}  # first seq introducing a successor
        self.reset_at: dict[PublicIdentifier, int] = {}  # seq of the first reset
        self.nullified_at: dict[PublicIdentifier, int] = {}
        # target -> [(neighbours, needed, endorsers)]: unstamped, so dropped once target is nullified
        self.pending: dict[PublicIdentifier, list[tuple[frozenset[PublicIdentifier], int, set]]] = {}
        self.referenced_old: dict[PublicIdentifier, int] = {}  # first seq naming it as old
        # directed pledges per type: type -> from -> {to -> first seq}
        self.pledges: dict[int, dict[PublicIdentifier, dict[PublicIdentifier, int]]] = {
            1: {}, 2: {}, 3: {}, 4: {}
        }
        self.pledge_seqs: dict[int, list[int]] = {1: [], 2: [], 3: [], 4: []}  # every pledge event per type
        # mutual pairs per type, in the order they complete:
        # type -> {(u, v): (first seq of u -> v, first seq of v -> u)}, u -> v the later
        self.mutual: dict[int, dict[tuple[PublicIdentifier, PublicIdentifier], tuple[int, int]]] = {
            1: {}, 2: {}, 3: {}, 4: {}
        }

    def _mutual_neighbors(self, v: PublicIdentifier) -> frozenset[PublicIdentifier]:
        """Declared identifiers with a completed type 2..4 mutual pledge to ``v``.

        Everything folded so far precedes the event being folded.
        """
        out: set[PublicIdentifier] = set()
        for t in (2, 3, 4):
            per_type = self.pledges[t]
            out.update(u for u in per_type.get(v, ()) if v in per_type.get(u, ()) and u in self.intro)
        return frozenset(out)

    def _introduce(self, v: PublicIdentifier, seq: int) -> None:
        self.intro[v] = seq
        self.introduced_at[seq] = v

    def advance(self, ledger: Ledger, k: int) -> None:
        """Fold the events of ``ledger`` from ``self.length`` up to seq ``k``."""
        for seq in range(self.length, k):
            body = ledger[seq].body
            if isinstance(body, Declare):
                if body.v in self.intro:
                    self.duplicates.append(seq)
                else:
                    self._introduce(body.v, seq)
            elif isinstance(body, Update):
                old = body.old_v
                self.referenced_old.setdefault(old, seq)
                if body.new_v in self.intro:
                    self.duplicates.append(seq)
                    continue
                self._introduce(body.new_v, seq)
                self.first_child.setdefault(old, seq)
                ok = (
                    old in self.intro
                    and self.intro[old] < seq
                    and self.update_valid.get(self.intro[old], True)  # non-update heads are valid
                    and old not in self.consumed
                    and old not in self.nullified_at  # everything folded so far precedes seq
                )
                self.update_valid[seq] = ok
                if ok:
                    self.consumed[old] = seq
            elif isinstance(body, Reset):
                v = body.old_v
                self.reset_at.setdefault(v, seq)
                if v in self.nullified_at:
                    continue  # moot: the first effective reset stands
                if v in self.intro:
                    neighbors = self._mutual_neighbors(v)
                else:  # a reset is still a declaration event of v, which has no neighbours yet
                    self._introduce(v, seq)
                    neighbors = frozenset()
                n = len(neighbors)
                if n == 0:  # effective at once; neighbours only grow, so no reset of v is pending
                    self.nullified_at[v] = seq
                else:
                    needed = math.ceil(RESET_QUORUM * n)
                    self.pending.setdefault(v, []).append((neighbors, needed, set()))
            elif isinstance(body, ResetEndorsement):
                for neighbors, needed, endorsers in self.pending.get(body.target_v, ()):
                    if body.endorser_v in neighbors:
                        endorsers.add(body.endorser_v)
                        if len(endorsers) >= needed:
                            self.nullified_at[body.target_v] = seq
                            del self.pending[body.target_v]
                            break
            elif isinstance(body, Pledge):
                self.pledge_seqs[body.surety_type].append(seq)
                per_type = self.pledges[body.surety_type]
                per_from = per_type.setdefault(body.from_v, {})
                if body.to_v not in per_from:  # duplicates collapse, earliest wins
                    per_from[body.to_v] = seq
                    back = per_type.get(body.to_v, {}).get(body.from_v)
                    if back is not None:
                        self.mutual[body.surety_type][body.from_v, body.to_v] = (seq, back)
        self.length = max(self.length, k)


_ABSENT = object()


class _Cut(Mapping):
    """Read-only view of one fold table, cut to the facts stamped before ``k``.

    ``stamp(key, value)`` is the seq at which an entry became true.  Stamps
    never decrease in a table's insertion order, so iteration stops at the
    first entry stamped at or after ``k``.  Every value is an int, an
    identifier or a tuple, so it is handed out as it is.
    """

    __slots__ = ("_table", "_k", "_stamp")

    def __init__(self, table: dict, k: int, stamp: Callable):
        self._table, self._k, self._stamp = table, k, stamp

    def get(self, key, default=None):
        value = self._table.get(key, _ABSENT)
        if value is _ABSENT or self._stamp(key, value) >= self._k:
            return default
        return value

    def __getitem__(self, key):
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def __iter__(self) -> Iterator:
        for key, value in self._table.items():
            if self._stamp(key, value) >= self._k:
                return
            yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def items(self) -> ItemsView:
        return _CutItems(self)


class _CutItems(ItemsView):
    def __iter__(self) -> Iterator:  # one table lookup per entry
        cut = self._mapping
        for key, value in cut._table.items():
            if cut._stamp(key, value) >= cut._k:
                return
            yield key, value


def _by_key(key, value):
    return key


def _by_value(key, value):
    return value


def _by_first(key, value):
    return value[0]


class LedgerAnalysis:
    """The registry facts of the first ``k`` events of a ledger, read-only.

    A view of the fold its backing caches: every table is cut at ``k`` by
    seq comparison, so the view of a prefix answers exactly what a fresh
    fold of that prefix would, and a view keeps answering for its ``k``
    after the fold advances.  Each table's view is made on first use.
    The tables: ``intro``, ``introduced_at``, ``duplicates``, ``update_valid``,
    ``consumed``, ``first_child``, ``reset_at``, ``nullified_at``,
    ``referenced_old`` and ``mutual``; ``pledge_seqs(t)`` lists the pledge
    events of one type.  Pending resets are not exposed.
    """

    def __init__(self, fold: _Fold, k: int):
        self._fold, self._k = fold, k

    @cached_property
    def intro(self) -> Mapping[PublicIdentifier, int]:
        return _Cut(self._fold.intro, self._k, _by_value)

    @cached_property
    def introduced_at(self) -> Mapping[int, PublicIdentifier]:
        return _Cut(self._fold.introduced_at, self._k, _by_key)

    @cached_property
    def duplicates(self) -> tuple[int, ...]:
        return tuple(self._fold.duplicates[: bisect_left(self._fold.duplicates, self._k)])

    def pledge_seqs(self, surety_type: int) -> list[int]:
        """Seqs of every pledge event of one type, duplicates included, in order."""
        seqs = self._fold.pledge_seqs[surety_type]
        return seqs[: bisect_left(seqs, self._k)]

    @cached_property
    def update_valid(self) -> Mapping[int, bool]:
        return _Cut(self._fold.update_valid, self._k, _by_key)

    @cached_property
    def consumed(self) -> Mapping[PublicIdentifier, int]:
        return _Cut(self._fold.consumed, self._k, _by_value)

    @cached_property
    def first_child(self) -> Mapping[PublicIdentifier, int]:
        return _Cut(self._fold.first_child, self._k, _by_value)

    @cached_property
    def reset_at(self) -> Mapping[PublicIdentifier, int]:
        return _Cut(self._fold.reset_at, self._k, _by_value)

    @cached_property
    def nullified_at(self) -> Mapping[PublicIdentifier, int]:
        return _Cut(self._fold.nullified_at, self._k, _by_value)

    @cached_property
    def referenced_old(self) -> Mapping[PublicIdentifier, int]:
        """First seq of an update naming each identifier as its old side."""
        return _Cut(self._fold.referenced_old, self._k, _by_value)

    @cached_property
    def mutual(self) -> Mapping[int, Mapping[tuple[PublicIdentifier, PublicIdentifier], tuple[int, int]]]:
        """Mutual pairs per type: (u, v) -> (first seq of u -> v, of v -> u),
        stamped by the later of the two."""
        return MappingProxyType({t: _Cut(pairs, self._k, _by_first) for t, pairs in self._fold.mutual.items()})


def analyze(ledger: Ledger) -> LedgerAnalysis:
    """Introduction, validity, reset and pledge state of ``ledger``.

    One fold per backing serves the ledger, its prefixes and the values
    appended at its tip: it is advanced to ``len(ledger)`` if it has not
    got that far yet, then read through a view cut at that length.
    """
    fold = ledger.derived("registry", _Fold)
    if fold.length < len(ledger):
        fold.advance(ledger, len(ledger))
    return LedgerAnalysis(fold, len(ledger))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def is_valid_update(ledger: Ledger, seq: int) -> bool:
    event = ledger[seq]
    if not isinstance(event.body, Update):
        raise NotAnUpdate(f"event {seq} is {type(event.body).__name__}, not Update")
    return analyze(ledger).update_valid.get(seq, False)


def _thread_chains(a: LedgerAnalysis) -> list[ProvenanceChain]:
    # The continuation of an identifier is the valid update consuming it if
    # one exists, else its earliest referencing update; all other updates of
    # the same identifier start chains of their own.
    continuation: dict[PublicIdentifier, int] = {}
    for old, kid in a.first_child.items():
        continuation[old] = a.consumed.get(old, kid)

    continuation_seqs = set(continuation.values())
    chains: list[ProvenanceChain] = []
    for seq, cur_id in a.introduced_at.items():  # in seq order
        if seq in continuation_seqs:
            continue  # belongs to the middle of some chain
        links: list[int] = []
        idents: list[PublicIdentifier] = []
        cur_seq = seq
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


def provenance_chains(ledger: Ledger) -> list[ProvenanceChain]:
    """Partition of all introduction events into lineages, oldest base last.

    Every introduced identifier appears in exactly one chain.  A chain is
    valid iff every one of its update links is valid; its current (tip)
    identifier is computed structurally either way.
    """
    return _thread_chains(analyze(ledger))


def current_identifiers(ledger: Ledger) -> frozenset[PublicIdentifier]:
    """Tips of maximal valid chains, minus identifiers nullified by reset."""
    a = analyze(ledger)
    chains = _thread_chains(a)
    return frozenset(
        c.current
        for c in chains
        if c.valid and c.maximal and c.current not in a.nullified_at
    )


def reset_status(ledger: Ledger, v: PublicIdentifier) -> IdentifierStatus:
    """Lineage-local state of one identifier."""
    a = analyze(ledger)
    if v not in a.intro:
        return IdentifierStatus(v, NEVER_DECLARED)
    if v in a.nullified_at:  # only a reset nullifies
        return IdentifierStatus(v, NULLIFIED)
    if v in a.reset_at:
        return IdentifierStatus(v, RESET_PENDING)
    if v in a.consumed:
        return IdentifierStatus(v, SUPERSEDED)
    return IdentifierStatus(v, CURRENT)
