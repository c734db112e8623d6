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
The fold keeps each fact in one table (``LedgerAnalysis`` lists them), and
every table maps a key to the seq that made it true, or for ``mutual`` to
a tuple that starts with that seq; so one rule cuts any table at a prefix.
What the tables imply is read from them and the events: the identifier an
update introduces is its ``new_v``, and an update at ``seq`` is valid iff
``consumed[old_v] == seq``.  A pending reset is dropped once its target is
nullified, as nothing after that changes it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator

from .keys import PublicIdentifier
from .ledger import (
    SURETY_TYPES,
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
    valid: bool
    maximal: bool

    @property
    def current(self) -> PublicIdentifier:
        return self.identifiers[0]


@dataclass(frozen=True)
class IdentifierStatus:
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
        self.consumed: dict[PublicIdentifier, int] = {}  # seq of the valid update superseding it
        self.first_child: dict[PublicIdentifier, int] = {}  # first seq introducing a successor
        self.reset_at: dict[PublicIdentifier, int] = {}  # seq of the first reset
        self.nullified_at: dict[PublicIdentifier, int] = {}
        # target -> [(neighbours, needed, endorsers)]: unstamped, so dropped once target is nullified
        self.pending: dict[PublicIdentifier, list[tuple[frozenset[PublicIdentifier], int, set]]] = {}
        self.referenced_old: dict[PublicIdentifier, int] = {}  # first seq naming it as old
        # directed pledges per type: type -> from -> {to -> first seq}
        self.pledges: dict[int, dict[PublicIdentifier, dict[PublicIdentifier, int]]] = {t: {} for t in SURETY_TYPES}
        self.pledge_seqs: dict[int, list[int]] = {t: [] for t in SURETY_TYPES}  # every pledge event per type
        # mutual pairs per type, in the order they complete:
        # type -> {(u, v): (first seq of u -> v, first seq of v -> u)}, u -> v the later
        self.mutual: dict[int, dict[tuple[PublicIdentifier, PublicIdentifier], tuple[int, int]]] = {
            t: {} for t in SURETY_TYPES
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

    def advance(self, ledger: Ledger) -> None:
        """Fold the events of ``ledger`` from ``self.length`` to its end."""
        for seq in range(self.length, len(ledger)):
            body = ledger[seq].body
            if isinstance(body, Declare):
                self.intro.setdefault(body.v, seq)
            elif isinstance(body, Update):
                old = body.old_v
                self.referenced_old.setdefault(old, seq)
                if body.new_v in self.intro:
                    continue
                self.intro[body.new_v] = seq
                self.first_child.setdefault(old, seq)
                head = self.intro.get(old, seq)
                # everything folded so far precedes seq
                if head < seq and old not in self.consumed and old not in self.nullified_at:
                    head_body = ledger[head].body  # non-update heads are valid
                    if not isinstance(head_body, Update) or self.consumed.get(head_body.old_v) == head:
                        self.consumed[old] = seq
            elif isinstance(body, Reset):
                v = body.old_v
                self.reset_at.setdefault(v, seq)
                if v in self.nullified_at:
                    continue  # moot: the first effective reset stands
                if v in self.intro:
                    neighbors = self._mutual_neighbors(v)
                else:  # a reset is still a declaration event of v, which has no neighbours yet
                    self.intro[v] = seq
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
        self.length = max(self.length, len(ledger))


_ABSENT = object()


class _Cut(Mapping):
    """Read-only view of one fold table, cut to the facts stamped before ``k``.

    Every value is the seq at which its entry became true, or a tuple that
    starts with that seq, and ``bound`` is ``k`` or ``(k,)`` to match: a
    tuple ``(s, t) < (k,)`` exactly when ``s < k``.  Stamps never decrease
    in a table's insertion order, so iteration stops at the first entry at
    or past the bound.  Values are ints or tuples, handed out as they are.
    """

    __slots__ = ("_table", "_bound")

    def __init__(self, table: dict, bound: int | tuple[int]):
        self._table, self._bound = table, bound

    def get(self, key, default=None):
        value = self._table.get(key, _ABSENT)
        if value is _ABSENT or value >= self._bound:
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
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def items(self) -> Iterator:  # one table lookup per entry
        for key, value in self._table.items():
            if value >= self._bound:
                return
            yield key, value


class LedgerAnalysis:
    """The registry facts of the first ``k`` events of a ledger, read-only.

    A view of the fold its backing caches: every table is cut at ``k`` by
    seq comparison, so the view of a prefix answers exactly what a fresh
    fold of that prefix would, and a view keeps answering for its ``k``
    after the fold advances.  Each table's view is made on first use.
    The tables, each mapping a key to the seq that made it true:

    * ``intro``: identifier -> its first introducing event (declaration,
      update or reset);
    * ``consumed``: identifier -> the valid update superseding it;
    * ``first_child``: identifier -> the first update introducing a
      successor of it, valid or not;
    * ``referenced_old``: identifier -> the first update naming it as old;
    * ``reset_at``: identifier -> its first reset;
    * ``nullified_at``: identifier -> the event that made a reset of it
      effective;
    * ``mutual``: type -> {(u, v): (first seq of u -> v, of v -> u)}, the
      pairs whose two directed pledges are both logged, u -> v the later,
      so each tuple starts with the seq that completed its pair.

    ``pledge_seqs(t)`` lists the pledge events of one type.  Pending resets
    are not exposed.
    """

    intro: Mapping[PublicIdentifier, int]
    consumed: Mapping[PublicIdentifier, int]
    first_child: Mapping[PublicIdentifier, int]
    referenced_old: Mapping[PublicIdentifier, int]
    reset_at: Mapping[PublicIdentifier, int]
    nullified_at: Mapping[PublicIdentifier, int]
    mutual: Mapping[int, Mapping[tuple[PublicIdentifier, PublicIdentifier], tuple[int, int]]]

    def __init__(self, fold: _Fold, k: int):
        self._fold, self._k = fold, k

    def __getattr__(self, name: str):  # a table's first use: cut it at k and keep the view
        if name not in LedgerAnalysis.__annotations__:
            raise AttributeError(name)
        table = getattr(self._fold, name)
        if name == "mutual":
            view = MappingProxyType({t: _Cut(pairs, (self._k,)) for t, pairs in table.items()})
        else:
            view = _Cut(table, self._k)
        self.__dict__[name] = view
        return view

    def pledge_seqs(self, surety_type: int) -> list[int]:
        """Seqs of every pledge event of one type, duplicates included, in order."""
        seqs = self._fold.pledge_seqs[surety_type]
        return seqs[: bisect_left(seqs, self._k)]


def analyze(ledger: Ledger) -> LedgerAnalysis:
    """Introduction, validity, reset and pledge state of ``ledger``.

    One fold per backing serves the ledger, its prefixes and the values
    appended at its tip: it is advanced to ``len(ledger)`` if it has not
    got that far yet, then read through a view cut at that length.
    """
    fold = ledger.derived("registry", _Fold)
    if fold.length < len(ledger):
        fold.advance(ledger)
    return LedgerAnalysis(fold, len(ledger))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def is_valid_update(ledger: Ledger, seq: int) -> bool:
    event = ledger[seq]
    if not isinstance(event.body, Update):
        raise NotAnUpdate(f"event {seq} is {type(event.body).__name__}, not Update")
    return analyze(ledger).consumed.get(event.body.old_v) == seq


def provenance_chains(ledger: Ledger) -> list[ProvenanceChain]:
    """Partition of all introduction events into lineages, oldest base last.

    Every introduced identifier appears in exactly one chain.  A chain is
    valid iff every one of its update links is valid; its current (tip)
    identifier is computed structurally either way.
    """
    a = analyze(ledger)
    # The continuation of an identifier is the valid update consuming it if
    # one exists, else its earliest referencing update; all other updates of
    # the same identifier start chains of their own.
    continuation: dict[PublicIdentifier, int] = {}
    for old, kid in a.first_child.items():
        continuation[old] = a.consumed.get(old, kid)

    continuation_seqs = set(continuation.values())
    chains: list[ProvenanceChain] = []
    for v, seq in a.intro.items():  # in seq order
        if seq in continuation_seqs:
            continue  # belongs to the middle of some chain
        links, idents, valid = [seq], [v], True
        body = ledger[seq].body
        while True:
            if isinstance(body, Update) and a.consumed.get(body.old_v) != links[-1]:
                valid = False
            nxt = continuation.get(idents[-1])
            if nxt is None:
                break
            body = ledger[nxt].body
            links.append(nxt)
            idents.append(body.new_v)
        chains.append(
            ProvenanceChain(
                links=tuple(reversed(links)),
                identifiers=tuple(reversed(idents)),
                valid=valid,
                maximal=idents[-1] not in a.referenced_old,
            )
        )
    return chains


def current_identifiers(ledger: Ledger) -> frozenset[PublicIdentifier]:
    """Tips of maximal valid chains, minus identifiers nullified by reset."""
    nullified_at = analyze(ledger).nullified_at
    return frozenset(
        c.current
        for c in provenance_chains(ledger)
        if c.valid and c.maximal and c.current not in nullified_at
    )


def reset_status(ledger: Ledger, v: PublicIdentifier) -> IdentifierStatus:
    """Lineage-local state of one identifier."""
    a = analyze(ledger)
    if v not in a.intro:
        return IdentifierStatus(NEVER_DECLARED)
    if v in a.nullified_at:  # only a reset nullifies
        return IdentifierStatus(NULLIFIED)
    if v in a.reset_at:
        return IdentifierStatus(RESET_PENDING)
    if v in a.consumed:
        return IdentifierStatus(SUPERSEDED)
    return IdentifierStatus(CURRENT)
