"""gpi-lab: protocol engine and simulation lab for personal identifiers."""

__version__ = "0.1.0"

from .keys import KeyPair, PublicIdentifier, generate_keypair
from .ledger import (
    CommunityAdd,
    CommunityRemove,
    Declare,
    EncodingError,
    Ledger,
    ParseError,
    Pledge,
    Reset,
    ResetEndorsement,
    SignedEvent,
    SignerMismatch,
    Update,
    VerifyError,
    append_event,
    parse_log,
    serialize_log,
    verify_event,
)

__all__ = [
    "__version__",
    "KeyPair",
    "PublicIdentifier",
    "generate_keypair",
    "CommunityAdd",
    "CommunityRemove",
    "Declare",
    "EncodingError",
    "Ledger",
    "ParseError",
    "Pledge",
    "Reset",
    "ResetEndorsement",
    "SignedEvent",
    "SignerMismatch",
    "Update",
    "VerifyError",
    "append_event",
    "parse_log",
    "serialize_log",
    "verify_event",
]
