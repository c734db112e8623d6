"""gpi-lab: protocol engine and simulation lab for personal identifiers.

Every name is imported from its submodule, e.g. ``from gpi.ledger import Ledger``.
"""

__version__ = "0.1.0"
