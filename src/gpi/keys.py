"""Pluggable signature schemes and key material.

Identifiers are bare public keys tagged with the scheme that verifies them.
Heterogeneous schemes are allowed as long as every scheme in use is
registered, so verification of any event is always possible.

An identifier is an immutable tuple ``(label, scheme_id, key_bytes,
encoded)``, so hashing, equality and ordering run in C: two identifiers are
equal iff their scheme and key bytes are, and they sort in ``label`` order.
Hex never contains ``:``, so the label ``scheme:hexkey`` determines the
pair.  ``encoded``, the bytes a body signs for it, is the UTF-8 scheme and
the key, each behind a u16 length: hence the 65,535-byte limit on both.

Two schemes ship by default:

``ed25519``
    Deterministic Ed25519 signatures via the ``cryptography`` package.
    This is the scheme intended for real logs.

``mock``
    A hash-based stand-in (signature = tagged SHA-256 of secret + message,
    with the public key equal to the secret).  It offers no security and
    exists so that property tests and large simulations can mint thousands
    of key pairs cheaply while exercising the exact same code paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol


class UnknownScheme(KeyError):
    """Raised when an event names a signature scheme that is not registered."""


class PublicIdentifier(tuple):
    """A public key declared (or declarable) as a personal identifier.

    The tuple ``(label, scheme_id, key_bytes, encoded)``, with the
    printable label ``scheme:hexkey`` and the signed encoding computed once.
    Equality and hashing are those of the tuple, i.e. byte equality of
    ``(scheme_id, key_bytes)``, and the natural order is ``label`` order.
    An identifier never equals a plain ``(scheme_id, key_bytes)`` pair.
    """

    __slots__ = ()

    def __new__(cls, scheme_id: str, key_bytes: bytes) -> PublicIdentifier:
        if not key_bytes:
            raise ValueError("identifier key bytes must be non-empty")
        if not scheme_id:
            raise ValueError("identifier scheme id must be non-empty")
        scheme = scheme_id.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
        if len(key_bytes) > 0xFFFF or len(scheme) > 0xFFFF:
            raise ValueError("identifier scheme or key longer than 65535 bytes")
        encoded = len(scheme).to_bytes(2, "big") + scheme + len(key_bytes).to_bytes(2, "big") + key_bytes
        return tuple.__new__(cls, (f"{scheme_id}:{key_bytes.hex()}", scheme_id, key_bytes, encoded))

    label = property(itemgetter(0), doc="Printable ``scheme:hexkey`` form used in JSON interfaces.")
    scheme_id = property(itemgetter(1))
    key_bytes = property(itemgetter(2))
    encoded = property(itemgetter(3), doc="The bytes an event body signs for this identifier.")

    @property
    def hex(self) -> str:
        return self[0][len(self[1]) + 1:]

    def __getnewargs__(self) -> tuple[str, bytes]:  # so pickle and copy call __new__ with two fields
        return self[1], self[2]

    def __repr__(self) -> str:  # keep failure output readable
        return f"PublicIdentifier({self.scheme_id}:{self.hex[:12]}…)"


@dataclass(frozen=True)
class KeyPair:
    public: PublicIdentifier
    secret: bytes


class SignatureScheme(Protocol):
    name: str

    def generate(self, seed: bytes) -> KeyPair: ...

    def sign(self, secret: bytes, message: bytes) -> bytes: ...

    def verify(self, key_bytes: bytes, message: bytes, sig: bytes) -> bool: ...


class Ed25519Scheme:
    name = "ed25519"

    def generate(self, seed: bytes) -> KeyPair:
        from cryptography.hazmat.primitives.asymmetric import ed25519

        raw = hashlib.sha256(b"ed25519-seed" + seed).digest()
        private = ed25519.Ed25519PrivateKey.from_private_bytes(raw)
        public_bytes = private.public_key().public_bytes_raw()
        return KeyPair(PublicIdentifier(self.name, public_bytes), raw)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        from cryptography.hazmat.primitives.asymmetric import ed25519

        return ed25519.Ed25519PrivateKey.from_private_bytes(secret).sign(message)

    def verify(self, key_bytes: bytes, message: bytes, sig: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric import ed25519

        try:
            ed25519.Ed25519PublicKey.from_public_bytes(key_bytes).verify(sig, message)
        except (InvalidSignature, ValueError):
            return False
        return True


class MockScheme:
    """Fast insecure scheme for tests and simulations.

    The public key *is* the secret, so anyone may forge signatures; the
    point is only that verification is deterministic and mismatched keys
    fail, which is all the ledger machinery relies on.
    """

    name = "mock"

    def generate(self, seed: bytes) -> KeyPair:
        secret = hashlib.sha256(b"mock-key" + seed).digest()[:16]
        return KeyPair(PublicIdentifier(self.name, secret), secret)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return hashlib.sha256(b"mock-sig" + secret + message).digest()

    def verify(self, key_bytes: bytes, message: bytes, sig: bytes) -> bool:
        return self.sign(key_bytes, message) == sig


_SCHEMES: dict[str, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme) -> None:
    _SCHEMES[scheme.name] = scheme


def get_scheme(name: str) -> SignatureScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise UnknownScheme(name) from None


def registered_schemes() -> tuple[str, ...]:
    return tuple(sorted(_SCHEMES))


def generate_keypair(scheme: str, seed: bytes) -> KeyPair:
    return get_scheme(scheme).generate(seed)


register_scheme(Ed25519Scheme())
register_scheme(MockScheme())
