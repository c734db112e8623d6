"""Append-only, signature-verified, totally-ordered event log.

The ledger is the single shared record every other module derives state
from: identifier declarations, updates, resets, surety pledges, reset
endorsements, and community add/remove events.  Events are signed over a
canonical binary encoding of their body and verified before they are
accepted; once appended they are immutable.

Signer rules
------------
Each body type fixes who must sign it:

* ``Declare``          -> the declared identifier
* ``Update``           -> the new identifier
* ``Reset``            -> the identifier being nullified
* ``Pledge``           -> the pledging identifier
* ``ResetEndorsement`` -> the endorsing identifier
* ``CommunityAdd`` / ``CommunityRemove`` -> any key in the ``admins``
  passed to ``append_event``.  Community governance is out of scope, so who
  gets to sign these is the appender's choice, not ledger state or a
  protocol rule.

Concurrency: the events of a ledger value never change once it is
constructed.  ``append_event`` returns a new value; a single writer per
ledger instance is the contract.  The backing store is shared structurally
between a ledger, its prefixes and the values appended at its tip, and so
are the folds derived from it: each derived fold (see ``Ledger.derived``)
is built once per backing and advanced lazily by whichever value reads it.
Under the single-writer contract one thread at a time reads derived state
from, or appends to, one backing.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
from binascii import unhexlify
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, NoReturn, TypeVar, Union

from .keys import KeyPair, PublicIdentifier, UnknownScheme, get_scheme


class LedgerError(Exception):
    """Base class for ledger failures."""


class SignerMismatch(LedgerError):
    """The signing key does not match the identifier the body speaks for."""


class EncodingError(LedgerError):
    """The event body violates a structural invariant or cannot be encoded."""


class ParseError(LedgerError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class VerifyError(LedgerError):
    def __init__(self, seq: int, reason: str = "signature does not verify"):
        super().__init__(f"event {seq}: {reason}")
        self.seq = seq
        self.reason = reason


# ---------------------------------------------------------------------------
# Event bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Declare:
    v: PublicIdentifier


@dataclass(frozen=True, slots=True)
class Update:
    new_v: PublicIdentifier
    old_v: PublicIdentifier

    def __post_init__(self) -> None:
        if self.new_v == self.old_v:
            raise EncodingError("update must introduce a distinct identifier")


@dataclass(frozen=True, slots=True)
class Reset:
    old_v: PublicIdentifier


SURETY_TYPES = (1, 2, 3, 4)  # the cumulative surety criteria a pledge may name


@dataclass(frozen=True, slots=True)
class Pledge:
    surety_type: int
    from_v: PublicIdentifier
    to_v: PublicIdentifier

    def __post_init__(self) -> None:
        if self.surety_type not in SURETY_TYPES:
            raise EncodingError(f"surety type must be 1..4, got {self.surety_type}")
        if self.from_v == self.to_v:
            raise EncodingError("a pledge to oneself is not allowed")


@dataclass(frozen=True, slots=True)
class ResetEndorsement:
    target_v: PublicIdentifier
    endorser_v: PublicIdentifier


@dataclass(frozen=True, slots=True)
class CommunityAdd:
    v: PublicIdentifier


@dataclass(frozen=True, slots=True)
class CommunityRemove:
    v: PublicIdentifier


EventBody = Union[
    Declare, Update, Reset, Pledge, ResetEndorsement, CommunityAdd, CommunityRemove
]


# ---------------------------------------------------------------------------
# Per-type schema
# ---------------------------------------------------------------------------
# One row per body type: its wire name, its tag byte in the canonical
# encoding and the field naming its required signer (None for admin-signed
# community events).  The fields themselves come from the dataclass in
# declaration order; the JSON key is the attribute name without its "_v"
# suffix, and the annotation says whether the field is an int or an
# identifier.

class _Kind:
    def __init__(self, cls: type, name: str, tag: int, signer: str | None):
        self.cls, self.name, self.tag, self.signer = cls, name, tag, signer
        # (attribute, JSON key, is int) per field, in declaration order
        self.fields: tuple[tuple[str, str, bool], ...] = tuple(
            (f.name, f.name.removesuffix("_v"), f.type == "int")
            for f in dataclasses.fields(cls)
        )


_SCHEMA = (
    _Kind(Declare, "declare", 1, "v"),
    _Kind(Update, "update", 2, "new_v"),
    _Kind(Reset, "reset", 3, "old_v"),
    _Kind(Pledge, "pledge", 4, "from_v"),
    _Kind(ResetEndorsement, "reset_endorsement", 5, "endorser_v"),
    _Kind(CommunityAdd, "community_add", 6, None),
    _Kind(CommunityRemove, "community_remove", 7, None),
)
_BY_TYPE = {kind.cls: kind for kind in _SCHEMA}
_BY_NAME = {kind.name: kind for kind in _SCHEMA}


def _kind_of(body: EventBody) -> _Kind:
    try:
        return _BY_TYPE[type(body)]
    except KeyError:
        raise EncodingError(f"unknown body type {type(body).__name__}") from None


def required_signer(body: EventBody) -> PublicIdentifier | None:
    """The identifier that must sign ``body``; None for admin-signed events."""
    signer = _kind_of(body).signer
    return None if signer is None else getattr(body, signer)


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------
# Signatures need one bit-exact serialization: a single type tag byte
# followed by the body fields in declaration order, every int a single byte
# and every identifier its ``encoded`` bytes (scheme and key, each
# length-prefixed u16 big-endian), built once when the identifier is made.

def encode_body(body: EventBody) -> bytes:
    kind = _kind_of(body)
    out = [bytes([kind.tag])]
    for attr, _, is_int in kind.fields:
        value = getattr(body, attr)
        out.append(bytes([value]) if is_int else value.encoded)
    return b"".join(out)


# ---------------------------------------------------------------------------
# Signed events and the ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SignedEvent:
    seq: int
    body: EventBody
    signer: PublicIdentifier
    signature: bytes


def verify_event(event: SignedEvent) -> bool:
    """True iff the signature verifies under the signer for the canonical body.

    Raises UnknownScheme if the signer's scheme is not registered.
    """
    scheme = get_scheme(event.signer.scheme_id)
    return scheme.verify(event.signer.key_bytes, encode_body(event.body), event.signature)


_Derived = TypeVar("_Derived")


class _Backing:
    """The event list that a ledger, its prefixes and its tip appends share,
    with the folds derived from it, keyed by whoever derives them."""

    __slots__ = ("events", "folds")

    def __init__(self, events: list[SignedEvent]):
        self.events = events
        self.folds: dict[Hashable, object] = {}


class Ledger:
    """Immutable totally-ordered sequence of verified signed events.

    ``Ledger()`` is the empty ledger; every other value comes from
    ``append_event`` or ``parse_log``, which verify each event they add.
    ``append_event`` returns a new ledger value; the original is unchanged.
    Appends at the tip share the backing list structurally, so building a
    long log by repeated appends stays O(1) amortized while every
    previously obtained ledger value keeps observing exactly its prefix.
    An append from a value that is not the tip copies its prefix into a
    fresh backing.
    """

    __slots__ = ("_backing", "_length")

    def __init__(self) -> None:
        self._backing = _Backing([])
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[SignedEvent]:
        return islice(self._backing.events, self._length)

    def __getitem__(self, seq: int) -> SignedEvent:
        if not 0 <= seq < self._length:
            raise IndexError(seq)
        return self._backing.events[seq]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return self._length == other._length and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Ledger({self._length} events)"

    def derived(self, key: Hashable, build: Callable[[], _Derived]) -> _Derived:
        """The fold stored under ``key`` on this value's backing, built on first use.

        Every value sharing the backing gets the same object, so a fold
        must record when each of its facts became true: the caller advances
        it to ``len(self)`` and reads only the facts stamped before that.
        """
        folds = self._backing.folds
        if key not in folds:
            folds[key] = build()
        return folds[key]  # type: ignore[return-value]

    @staticmethod
    def _view(backing: _Backing, length: int) -> Ledger:
        out = Ledger.__new__(Ledger)
        out._backing = backing
        out._length = length
        return out

    def prefix(self, k: int) -> Ledger:
        """The ledger value containing exactly the events with seq < k."""
        if not 0 <= k <= self._length:
            raise ValueError(f"prefix length {k} out of range 0..{self._length}")
        return self._view(self._backing, k)

    def _appended(self, event: SignedEvent) -> Ledger:
        backing = self._backing
        if self._length == len(backing.events):
            backing.events.append(event)
        else:  # appending from a non-tip value: copy the prefix, fold nothing
            backing = _Backing(backing.events[: self._length] + [event])
        return self._view(backing, self._length + 1)


def append_event(
    ledger: Ledger,
    body: EventBody,
    signer_key_pair: KeyPair,
    admins: Iterable[PublicIdentifier] = (),
) -> Ledger:
    """Sign ``body`` with the key pair and append it at the next seq.

    Raises SignerMismatch if the key pair's public half is not the signer
    the body requires or, for community events, not one of ``admins``.
    """
    required = required_signer(body)
    public = signer_key_pair.public
    if required is None:
        if public not in admins:
            raise SignerMismatch("community add/remove must be signed by an admin key")
    elif public != required:
        raise SignerMismatch(
            f"body requires signer {required.label}, got {public.label}"
        )
    message = encode_body(body)
    scheme = get_scheme(public.scheme_id)
    sig = scheme.sign(signer_key_pair.secret, message)
    # never store anything that does not verify (same check as verify_event)
    if not scheme.verify(public.key_bytes, message, sig):
        raise SignerMismatch("produced signature failed verification")
    return ledger._appended(SignedEvent(len(ledger), body, public, sig))


# ---------------------------------------------------------------------------
# Text serialization (one JSON object per line)
# ---------------------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # str -> JSON string literal, as json.dumps


def _json_field(value: object, is_int: bool) -> str:
    if is_int:
        return f"{value:d}"
    return f'{{"scheme":{_quote(value.scheme_id)},"key":"{value.key_bytes.hex()}"}}'


def _line(ev: SignedEvent) -> str:
    """The one canonical text line of ``ev``, without its newline.

    It is the compact ``json.dumps`` of the record, keys in this order.
    """
    kind = _kind_of(ev.body)
    payload = ",".join(
        f'"{key}":{_json_field(getattr(ev.body, attr), is_int)}'
        for attr, key, is_int in kind.fields
    )
    return (
        f'{{"seq":{ev.seq:d},"type":"{kind.name}","payload":{{{payload}}},'
        f'"signer":"{ev.signer.key_bytes.hex()}","sig":"{ev.signature.hex()}",'
        f'"scheme":{_quote(ev.signer.scheme_id)}}}'
    )


def serialize_log(ledger: Ledger) -> bytes:
    """Serialize to UTF-8 text, one compact JSON object per LF-terminated line."""
    return "".join(_line(ev) + "\n" for ev in ledger).encode("utf-8")


# A canonical line matches exactly one of these patterns, built from its
# schema row: seq and int fields in the digits ``f"{n:d}"`` writes,
# lowercase hex, and every scheme as a JSON string literal spelled with the
# characters and escapes ``_quote`` writes (whether it is the literal
# ``_quote`` writes for its value is checked once per distinct literal).
_SEQ = rb"(0|[1-9][0-9]*)"
_INT = rb"(0|-?[1-9][0-9]*)"
_HEX = rb"([0-9a-f]*)"
_STR = rb'("(?:[ !#-\[\]-~]|\\["\\bfnrt]|\\u[0-9a-f]{4})*")'
_IDENT = rb'\{"scheme":' + _STR + rb',"key":"' + _HEX + rb'"\}'


def _line_pattern(kind: _Kind) -> re.Pattern[bytes]:
    payload = b",".join(
        b'"%s":%s' % (key.encode(), _INT if is_int else _IDENT) for _, key, is_int in kind.fields
    )
    return re.compile(
        rb'\{"seq":' + _SEQ + rb',"type":"' + kind.name.encode() + rb'","payload":\{' + payload
        + rb'\},"signer":"' + _HEX + rb'","sig":"' + _HEX + rb'","scheme":' + _STR + rb'\}'
    )


_PATTERNS = {kind.name.encode(): (kind, _line_pattern(kind)) for kind in _SCHEMA}
_TYPE_AT = b'"type":"'


class _Reader:
    """The canonical-line reader of one parse.

    It keeps one identifier object per ``(scheme, key)`` for the whole
    parse, so equal identifiers in the parsed ledger are the same object,
    and the scheme each distinct literal denotes.
    """

    __slots__ = ("idents", "schemes")

    def __init__(self) -> None:
        self.idents: dict[tuple[bytes, bytes], PublicIdentifier] = {}
        self.schemes: dict[bytes, str | None] = {}  # literal -> scheme, None if not canonical

    def ident(self, literal: bytes, hexkey: bytes) -> PublicIdentifier:
        """The identifier a matched scheme literal and key denote; ValueError if irregular."""
        v = self.idents.get((literal, hexkey))
        if v is None:
            if literal not in self.schemes:
                scheme = json.loads(literal)
                self.schemes[literal] = scheme if _quote(scheme) == literal.decode() else None
            scheme = self.schemes[literal]
            if scheme is None:
                raise ValueError("scheme literal is not canonical")
            v = self.idents[literal, hexkey] = PublicIdentifier(scheme, unhexlify(hexkey))
        return v

    def read(self, raw: bytes, i: int) -> SignedEvent | None:
        """The event of line ``raw`` at index ``i`` if the line is the
        canonical line of a well-formed event, else None."""
        at = raw.find(_TYPE_AT) + len(_TYPE_AT)
        entry = _PATTERNS.get(raw[at:raw.find(b'"', at)])
        if entry is None:
            return None
        kind, pattern = entry
        match = pattern.fullmatch(raw)
        if match is None or match[1] != b"%d" % i:
            return None
        groups = match.groups()
        try:
            values, g = [], 1
            for _, _, is_int in kind.fields:
                if is_int:
                    values.append(int(groups[g]))
                    g += 1
                else:
                    values.append(self.ident(groups[g], groups[g + 1]))
                    g += 2
            signer = self.ident(groups[g + 2], groups[g])
            return SignedEvent(i, kind.cls(*values), signer, unhexlify(groups[g + 1]))
        except (ValueError, EncodingError):
            return None


def _parse_ident(obj: object, line: int, field: str) -> PublicIdentifier:
    if not isinstance(obj, dict) or "scheme" not in obj or "key" not in obj:
        raise ParseError(line, f"payload field {field!r} is not an identifier object")
    try:
        return PublicIdentifier(str(obj["scheme"]), bytes.fromhex(str(obj["key"])))
    except ValueError as exc:
        raise ParseError(line, f"bad identifier in field {field!r}: {exc}") from None


def _parse_body(rec: dict, line: int) -> EventBody:
    kind = _BY_NAME.get(rec["type"]) if isinstance(rec["type"], str) else None
    if kind is None:
        raise ParseError(line, f"unknown event type {rec['type']!r}")
    payload = rec["payload"]
    if not isinstance(payload, dict):
        raise ParseError(line, "missing payload object")
    values = []
    for _, key, is_int in kind.fields:
        value = payload.get(key)
        if is_int and type(value) is not int:  # bool is an int subclass: reject it
            raise ParseError(line, f"payload field {key!r} is not an integer")
        values.append(value if is_int else _parse_ident(value, line, key))
    try:
        return kind.cls(*values)
    except EncodingError as exc:
        raise ParseError(line, str(exc)) from None


def _diagnose(raw: bytes, i: int) -> NoReturn:
    """Raise the ParseError that names what is wrong with line ``i + 1``.

    Only called for a line that ``_Reader.read`` refused.  It decodes the
    line with ``json.loads`` and checks the record field by field; a record
    that passes every check is a well-formed event in a non-canonical
    spelling, as the patterns cover the whole canonical grammar.
    """
    line = i + 1
    try:
        rec = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise ParseError(line, "not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ParseError(line, f"bad JSON: {exc.msg}") from None
    except ValueError:  # an integer literal past int's digit limit
        raise ParseError(line, "bad JSON: integer literal too long") from None
    except RecursionError:
        raise ParseError(line, "bad JSON: nested too deeply") from None
    if not isinstance(rec, dict):
        raise ParseError(line, "record is not an object")
    for field in ("seq", "type", "payload", "signer", "sig", "scheme"):
        if field not in rec:
            raise ParseError(line, f"missing field {field!r}")
    if rec["seq"] != i:
        raise ParseError(line, f"expected seq {i}, got {rec['seq']!r}")
    _parse_body(rec, line)
    try:
        signer = bytes.fromhex(str(rec["signer"]))
        bytes.fromhex(str(rec["sig"]))
    except ValueError as exc:
        raise ParseError(line, f"bad signer or signature hex: {exc}") from None
    try:
        PublicIdentifier(str(rec["scheme"]), signer)
    except ValueError as exc:  # UnicodeEncodeError included
        raise ParseError(line, f"bad signer identifier: {exc}") from None
    raise ParseError(line, "record is not in canonical form")


def _parse_lines(lines: Iterable[bytes]) -> Ledger:
    """The ledger of a binary stream of lines, each checked as it is reached."""
    reader = _Reader()
    events: list[SignedEvent] = []
    for raw in lines:
        i = len(events)  # every earlier line became an event
        if not raw.endswith(b"\n"):
            raise ParseError(i + 1, "missing final newline")
        raw = raw[:-1]
        event = reader.read(raw, i)
        if event is None:
            _diagnose(raw, i)
        try:
            verified = verify_event(event)
        except UnknownScheme:
            raise VerifyError(i, f"unknown signature scheme {event.signer.scheme_id!r}") from None
        if not verified:
            raise VerifyError(i)
        required = required_signer(event.body)
        if required is not None and event.signer != required:
            raise VerifyError(i, "signer does not match the identifier the body speaks for")
        events.append(event)
    return Ledger._view(_Backing(events), len(events))


def parse_log(data: bytes) -> Ledger:
    """Parse and re-verify a serialized log; only the canonical form parses.

    The log is read line by line, and each line is checked when it is
    reached, so a log with several faults reports its first faulty line.
    Every line must be exactly what ``serialize_log`` writes for the event
    it denotes, LF included, so a log that parses re-serializes to the same
    bytes.  A line is accepted only through the strict pattern of its event
    type (``_Reader.read``), which covers the whole canonical grammar; any
    other line is decoded with ``json.loads`` only to name the ParseError.
    Every mention of one ``(scheme, key)`` in the returned ledger is the
    same identifier object.  Signatures are re-verified (VerifyError names
    the failing seq, also for an unregistered scheme) and so is the signer
    rule of every body that names its signer; community add/remove events
    are checked cryptographically only, as the admin keys are
    ``append_event``'s ``admins`` argument, which the file does not record.
    Seq values must be dense from 0.
    """
    return _parse_lines(io.BytesIO(data))


def write_log(path, ledger: Ledger) -> None:
    """Write ``serialize_log(ledger)`` to ``path`` line by line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_line(ev) + "\n" for ev in ledger)


def read_log(path) -> Ledger:
    """``parse_log`` of the file at ``path``, read line by line."""
    with open(path, "rb") as fh:
        return _parse_lines(fh)
