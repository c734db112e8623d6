"""Mutual-surety graphs over declared identifiers.

A mutual surety of type X exists between two identifiers once both
directed pledges of that type are on the ledger and both endpoints have
been declared.  Each type induces its own graph; a pledge of type 4 never
contributes an edge to the type-3 graph.  Pledges may precede the
corresponding declarations; the edge simply materializes at the prefix
where both sides are in place.

There is no pledge retraction.  Vertices (with their incident edges) drop
out of derived graphs only when the identifier is nullified by an
effective reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .keys import PublicIdentifier
from .ledger import SURETY_TYPES, Ledger
from .registry import ProvenanceChain, analyze


class InvalidChain(ValueError):
    """Raised when edges would be migrated along an invalid provenance chain."""


Edge = tuple[PublicIdentifier, PublicIdentifier]


@dataclass(frozen=True)
class SuretyGraph:
    """A surety graph at a prefix; ``witness`` maps each edge to the seqs of its two pledges."""

    surety_type: int
    prefix_k: int
    vertices: frozenset[PublicIdentifier]
    witness: Mapping[Edge, tuple[int, int]]

    edges = property(lambda self: self.witness.keys(), doc="The edges, a read-only view of ``witness``'s keys.")

    def hex_names(self) -> dict[PublicIdentifier, str]:
        """Each edge endpoint's bare key hex, its name in an edge list or dot file.

        Two endpoints with the same key bytes under different schemes would
        get one name, so they raise ValueError naming both labels.
        """
        owner: dict[str, PublicIdentifier] = {}
        for v in {v for edge in self.edges for v in edge}:
            w = owner.setdefault(v.hex, v)
            if w != v:
                first, second = sorted((w.label, v.label))
                raise ValueError(
                    f"{first} and {second} share key bytes, so naming vertices by bare hex would merge them"
                )
        return {v: name for name, v in owner.items()}

    def edgelist_lines(self) -> list[str]:
        """One ``hexid hexid`` pair per line, lexicographically sorted."""
        names = self.hex_names()
        return sorted(" ".join(sorted((names[a], names[b]))) for a, b in self.edges)


def graph_at(ledger: Ledger, k: int, surety_type: int) -> SuretyGraph:
    """The type-X surety graph induced by the first ``k`` events."""
    if surety_type not in SURETY_TYPES:
        raise ValueError(f"surety type must be 1..4, got {surety_type}")
    if not 0 <= k <= len(ledger):
        raise ValueError(f"prefix {k} out of range 0..{len(ledger)}")
    a = analyze(ledger.prefix(k))
    vertices = frozenset(a.intro).difference(a.nullified_at)
    edges: dict[Edge, tuple[int, int]] = {}
    for pair, witness in a.mutual[surety_type].items():
        u, v = pair
        if u in vertices and v in vertices:
            if u <= v:  # the fold's own pair and witness tuples, in edge order already
                edges[pair] = witness
            else:
                edges[v, u] = witness[::-1]
    return SuretyGraph(
        surety_type=surety_type,
        prefix_k=k,
        vertices=vertices,
        witness=edges,
    )


def migrate_edges(graph: SuretyGraph, chains: Sequence[ProvenanceChain]) -> SuretyGraph:
    """Re-attach edges from superseded identifiers to their chain currents.

    Migrating along an invalid chain raises InvalidChain.  An edge whose
    endpoints collapse onto a single identifier is dropped (no self-loops);
    colliding migrated edges keep the smallest witness pair.  Every vertex
    moves to its chain current (an edge's endpoints are among the vertices
    of any graph that ``graph_at`` or this function returns).  The
    operation is idempotent: once every endpoint is a chain current,
    nothing moves.
    """
    # every superseded chain member -> (chain current, chain validity)
    mapping = {
        ident: (chain.current, chain.valid)
        for chain in chains
        for ident in chain.identifiers
        if ident != chain.current
    }
    edges: dict[Edge, tuple[int, int]] = {}

    def resolve(v: PublicIdentifier) -> PublicIdentifier:
        entry = mapping.get(v)
        if entry is None:
            return v
        current, valid = entry
        if not valid:
            raise InvalidChain(f"{v.label} belongs to an invalid chain")
        return current

    for (u, v), wit in graph.witness.items():
        ru, rv = resolve(u), resolve(v)
        if ru == rv:
            continue
        if rv < ru:  # each edge is stored in order, with its witness to match
            ru, rv, wit = rv, ru, (wit[1], wit[0])
        prev = edges.get((ru, rv))
        if prev is None or wit < prev:
            edges[ru, rv] = wit
    return SuretyGraph(
        surety_type=graph.surety_type,
        prefix_k=graph.prefix_k,
        vertices=frozenset(map(resolve, graph.vertices)),
        witness=edges,
    )
