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
from typing import Iterable, Mapping, Sequence

from .keys import PublicIdentifier
from .ledger import Ledger
from .registry import ProvenanceChain, analyze


class InvalidChain(ValueError):
    """Raised when edges would be migrated along an invalid provenance chain."""


Edge = tuple[PublicIdentifier, PublicIdentifier]


def _ordered(u: PublicIdentifier, v: PublicIdentifier) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class SuretyGraph:
    surety_type: int
    prefix_k: int
    vertices: frozenset[PublicIdentifier]
    edges: frozenset[Edge]
    witness: Mapping[Edge, tuple[int, int]]

    def sorted_edges(self) -> list[Edge]:
        """Edges sorted by their endpoints' labels, first endpoint first."""
        return sorted(self.edges)

    def edgelist_lines(self) -> list[str]:
        """One ``hexid hexid`` pair per line, lexicographically sorted."""
        lines = sorted(
            " ".join(sorted((a.hex, b.hex))) for a, b in self.edges
        )
        return lines


def graph_at(ledger: Ledger, k: int, surety_type: int) -> SuretyGraph:
    """The type-X surety graph induced by the first ``k`` events."""
    if surety_type not in (1, 2, 3, 4):
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
        edges=frozenset(edges),
        witness=edges,
    )


def chain_current_map(
    chains: Iterable[ProvenanceChain],
) -> dict[PublicIdentifier, tuple[PublicIdentifier, bool]]:
    """Map every superseded chain member to (chain current, chain validity)."""
    out: dict[PublicIdentifier, tuple[PublicIdentifier, bool]] = {}
    for chain in chains:
        for ident in chain.identifiers:
            if ident != chain.current:
                out[ident] = (chain.current, chain.valid)
    return out


def migrate_edges(graph: SuretyGraph, chains: Sequence[ProvenanceChain]) -> SuretyGraph:
    """Re-attach edges from superseded identifiers to their chain currents.

    Migrating along an invalid chain raises InvalidChain.  An edge whose
    endpoints collapse onto a single identifier is dropped (no self-loops);
    colliding migrated edges keep the smallest witness pair.  The operation
    is idempotent: once every endpoint is a chain current, nothing moves.
    """
    mapping = chain_current_map(chains)
    vertices = set(graph.vertices)
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
        vertices.discard(u)
        vertices.discard(v)
        vertices.update((ru, rv))
        if ru == rv:
            continue
        key = _ordered(ru, rv)
        if key != (ru, rv):
            wit = (wit[1], wit[0])
        prev = edges.get(key)
        if prev is None or wit < prev:
            edges[key] = wit
    # vertices that had no incident edges still migrate
    vertices = {resolve(v) for v in vertices}
    return SuretyGraph(
        surety_type=graph.surety_type,
        prefix_k=graph.prefix_k,
        vertices=frozenset(vertices),
        edges=frozenset(edges),
        witness=edges,
    )
