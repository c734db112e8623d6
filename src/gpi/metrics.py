"""Combinatorial and spectral graph machinery.

Plain undirected graphs over integer vertices (optionally labelled), with
the quantities the community checkers and simulations are built on:

* exact conductance

      Phi(G) = min over nonempty proper A of  e(A, A^c) / min(vol A, vol A^c)

  computed exactly for graphs of up to EXACT_CONDUCTANCE_LIMIT = 20
  vertices by enumerating every split A as a 0/1 vector x, with
  e(A, A^c) = vol A - x^T Adj x evaluated for blocks of splits as matrix
  products (the minimum is settled in exact rationals, so argmin ties are
  resolved deterministically);

* the random-walk spectrum: lambda(G) is the largest modulus among the
  non-principal eigenvalues of D^-1 A, and the signed second-largest
  eigenvalue feeds the Cheeger sandwich

      (1 - lambda_2) / 2  <=  Phi(G)  <=  sqrt(2 (1 - lambda_2)),

  and ``lambda2_enclosure`` widens the computed lambda_2 into an interval
  certain to hold it;

* maximum independent sets, exact by branch and bound up to
  MIS_EXACT_LIMIT = 40 vertices and a min-degree greedy beyond that;

* a random d-regular graph generator that reports the measured lambda of
  each sample.  It pairs stubs and re-pairs the conflicting ones
  (Steger-Wormald style) in array passes over an n x n "taken" matrix,
  restarting when every pair of conflict vertices is already an edge; the
  result is asymptotically uniform only for small d, not the uniform
  model.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .rng import GRAPH_GEN, LANCZOS_START, stream


class TooLarge(ValueError):
    def __init__(self, n: int, limit: int):
        super().__init__(
            f"exact conductance enumerates 2^(n-1) splits; n={n} exceeds limit {limit} "
            "(for Cheeger bounds run `gpi metrics lambda`, or call conductance_bounds)"
        )
        self.n = n
        self.limit = limit


class ZeroDegreeVertex(ValueError):
    def __init__(self, v: int):
        super().__init__(f"vertex {v} has degree 0; restrict to the relevant induced subgraph")
        self.v = v


class InfeasibleDegree(ValueError):
    """No d-regular simple graph exists for the requested (n, d)."""


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "adj", "labels", "_degrees")

    def __init__(
        self,
        n: int,
        adj: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
    ):
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self.labels: tuple[str, ...] | None = tuple(labels) if labels is not None else None
        self._degrees: np.ndarray | None = None
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match vertex count")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, adj, labels)

    @classmethod
    def from_edgelist_lines(cls, lines: Iterable[str]) -> "Graph":
        """Parse ``label label`` pairs; vertices are sorted label order."""
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        for raw in lines:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"expected two labels per line, got {text!r}")
            pairs.append((parts[0], parts[1]))
            seen.update(parts)
        labels = sorted(seen)
        index = {lab: i for i, lab in enumerate(labels)}
        edges = [(index[a], index[b]) for a, b in pairs]
        return cls.from_edges(len(labels), edges, labels)

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = np.array([len(a) for a in self.adj], dtype=np.int64)
        return self._degrees

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def adjacency_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for u in range(self.n):
            m[u, list(self.adj[u])] = 1.0
        return m

    def bitmasks(self) -> list[int]:
        return [sum(1 << v for v in nbrs) for nbrs in self.adj]

    def induced(self, subset: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new indices to old ones."""
        keep = sorted(set(subset))
        index = {old: new for new, old in enumerate(keep)}
        adj = [[index[w] for w in self.adj[old] if w in index] for old in keep]
        labels = [self.labels[old] for old in keep] if self.labels is not None else None
        return Graph(len(keep), adj, labels), keep

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        out: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp, queue = [], [start]
            seen[start] = True
            while queue:
                u = queue.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop()
                for w in self.adj[u]:
                    if color[w] == -1:
                        color[w] = color[u] ^ 1
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True


# ---------------------------------------------------------------------------
# Exact conductance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConductanceResult:
    value: Fraction
    argmin: frozenset[int]


EXACT_CONDUCTANCE_LIMIT = 20
_SPLIT_BLOCK = 1 << 14  # splits evaluated per matrix product; bounds working memory


def conductance_exact(graph: Graph) -> ConductanceResult:
    """Exact conductance by enumerating every nontrivial split.

    Each split A is a 0/1 row x, so vol A = x . deg and

        e(A, A^c) = vol A - x^T Adj x = x^T (D - Adj) x.

    Blocks of splits are evaluated as float32 matrix products, exact
    because every entry and sum is an integer of magnitude at most n(n-1).
    The minimum is settled in exact rationals; among tied splits the
    lexicographically smallest A containing vertex 0 is returned.
    Disconnected graphs are reported as exactly 0 with a witnessing
    component rather than raising.  Raises TooLarge beyond
    EXACT_CONDUCTANCE_LIMIT vertices; callers should fall back to the
    spectral bounds there.
    """
    n = graph.n
    if n < 2:
        raise ValueError("conductance needs at least two vertices")
    comps = graph.components()
    if len(comps) > 1:
        witness = min(comps)  # lexicographically smallest component
        return ConductanceResult(Fraction(0), frozenset(witness))
    if n > EXACT_CONDUCTANCE_LIMIT:
        raise TooLarge(n, EXACT_CONDUCTANCE_LIMIT)

    deg = graph.degrees.astype(np.float32)
    total = deg.sum()
    laplacian = np.diag(deg) - graph.adjacency_matrix().astype(np.float32)
    vertices = np.arange(n, dtype=np.uint32)
    # split i is the mask 2i + 1: vertex 0 is pinned inside A, so each split
    # is enumerated once, and i < 2^(n-1) - 1 keeps A^c nonempty
    splits = (1 << (n - 1)) - 1
    best: Fraction | None = None
    best_set: tuple[int, ...] | None = None
    for lo in range(0, splits, _SPLIT_BLOCK):
        masks = 2 * np.arange(lo, min(lo + _SPLIT_BLOCK, splits), dtype=np.uint32) + 1
        x = (masks[:, None] >> vertices & 1).astype(np.float32)
        vol = x @ deg
        cut = np.einsum("ij,ij->i", x @ laplacian, x)
        den = np.minimum(vol, total - vol)
        ratio = cut / den.astype(np.float64)
        for i in np.nonzero(ratio <= ratio.min() + 1e-9)[0]:
            value = Fraction(int(cut[i]), int(den[i]))
            if best is not None and value > best:
                continue
            members = tuple(v for v in range(n) if int(masks[i]) >> v & 1)
            if best is None or value < best or members < best_set:
                best, best_set = value, members
    assert best is not None and best_set is not None
    return ConductanceResult(best, frozenset(best_set))


# ---------------------------------------------------------------------------
# Random-walk spectrum and Cheeger bounds
# ---------------------------------------------------------------------------

_DENSE_EIG_LIMIT = 2000


def _check_spectrum_input(graph: Graph) -> None:
    zeros = np.nonzero(graph.degrees == 0)[0]
    if zeros.size:
        raise ZeroDegreeVertex(int(zeros[0]))
    if graph.n < 2:
        raise ValueError("the random-walk spectrum needs at least two vertices")


def _dense_symmetrized(graph: Graph) -> np.ndarray:
    scale = 1.0 / np.sqrt(graph.degrees.astype(float))
    return graph.adjacency_matrix() * scale[:, None] * scale[None, :]


def _rw_spectrum_extremes(graph: Graph) -> tuple[float, float]:
    """(smallest eigenvalue, second-largest eigenvalue) of D^-1 A.

    Only called on connected graphs, where 1 is a simple eigenvalue and so
    is -1 when the graph is bipartite; repeated extremes are what stall
    Lanczos.  Computed from the degree-symmetrized similar matrix
    D^-1/2 A D^-1/2, dense for moderate sizes and via sparse Lanczos from a
    fixed seeded start vector beyond that.
    """
    if graph.n <= _DENSE_EIG_LIMIT:
        w = np.linalg.eigvalsh(_dense_symmetrized(graph))
        return float(w[0]), float(w[-2])
    import scipy.sparse as sp
    import scipy.sparse.linalg as spl

    scale = 1.0 / np.sqrt(graph.degrees.astype(float))
    rows = [u for u in range(graph.n) for _ in graph.adj[u]]
    cols = [w for u in range(graph.n) for w in graph.adj[u]]
    data = scale[rows] * scale[cols]
    sym = sp.csr_matrix((data, (rows, cols)), shape=(graph.n, graph.n))
    v0 = stream(0, LANCZOS_START).uniform(-1.0, 1.0, graph.n)
    top = spl.eigsh(sym, k=2, which="LA", v0=v0, return_eigenvectors=False)
    bottom = spl.eigsh(sym, k=1, which="SA", v0=v0, return_eigenvectors=False)
    return float(bottom[0]), float(np.sort(top)[0])


def rw_spectrum(graph: Graph) -> tuple[float, float]:
    """(lambda, lambda_2) of the random walk, from one spectrum computation.

    lambda is the largest modulus among non-principal eigenvalues, always in
    [0, 1]; lambda_2 is the signed second-largest eigenvalue (it feeds
    Cheeger).  On a disconnected graph both are exactly 1, read off its
    components (the eigenvalue 1 repeats once per component) without an
    eigensolver.  On a connected bipartite graph lambda is exactly 1 (-1 is
    an eigenvalue); lambda_2 still needs the spectrum.  Raises
    ZeroDegreeVertex for an isolated vertex and ValueError for fewer than
    two vertices.
    """
    _check_spectrum_input(graph)
    if not graph.is_connected():
        return 1.0, 1.0
    low, second = _rw_spectrum_extremes(graph)
    lam = 1.0 if graph.is_bipartite() else max(abs(low), abs(second))
    if lam > 1.0:
        if lam > 1.0 + 1e-9:
            raise ArithmeticError(f"eigenvalue {lam} outside the stochastic range")
        lam = 1.0
    return lam, min(second, 1.0)


def second_eigenvalue(graph: Graph) -> float:
    """lambda(G); see ``rw_spectrum``."""
    return rw_spectrum(graph)[0]


def lambda2_enclosure(graph: Graph) -> tuple[float, float]:
    """An interval certain to hold lambda_2 (see ``rw_spectrum``) despite rounding.

    On a connected graph of at most _DENSE_EIG_LIMIT vertices, ``eigh`` gives
    eigenpairs (w, V) of S = D^-1/2 A D^-1/2, and lambda_2 lies within
    ||S - V diag(w) V^T||_F + ||V^T V - I||_F + 8 n (n + 2) eps of w[-2]:
    Weyl's theorem covers the first term, Ostrowski's the second (|w_i| <= 1),
    and the third the rounding in S and in both products, whose entries are
    at most 1 in modulus (||S||_2 = 1).  The interval is [1, 1] on a
    disconnected graph, and [-1, 1], certifying nothing, beyond the dense limit.
    """
    _check_spectrum_input(graph)
    if not graph.is_connected():
        return 1.0, 1.0
    if graph.n > _DENSE_EIG_LIMIT:
        return -1.0, 1.0
    sym = _dense_symmetrized(graph)
    w, v = np.linalg.eigh(sym)
    err = float(np.linalg.norm(sym - (v * w) @ v.T) + np.linalg.norm(v.T @ v - np.eye(graph.n)))
    err += 8 * graph.n * (graph.n + 2) * float(np.finfo(float).eps)
    return float(w[-2]) - err, float(w[-2]) + err


def cheeger_bounds(lam2: float) -> tuple[float, float]:
    """Cheeger sandwich from lambda_2: (1-lambda_2)/2 <= Phi(G) <= sqrt(2(1-lambda_2))."""
    gap = 1.0 - lam2
    return gap / 2.0, float(np.sqrt(max(2.0 * gap, 0.0)))


def conductance_bounds(graph: Graph) -> tuple[float, float]:
    """Cheeger sandwich of the graph's conductance; see ``cheeger_bounds``."""
    return cheeger_bounds(rw_spectrum(graph)[1])


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndependentSetResult:
    vertices: frozenset[int]
    exact: bool


def greedy_independent_set(graph: Graph) -> frozenset[int]:
    """Min-degree greedy independent set, in O((n + m) log n).

    Repeatedly take the live vertex of least degree among live vertices
    (ties break toward the smaller index), then delete it and its live
    neighbours.  Picks come off a lazy-deletion heap keyed (degree, vertex):
    degrees only fall, so a live vertex's newest entry carries its current
    degree and pops before its stale ones, which are skipped once it is
    deleted.  Each pick decrements the surviving neighbours of the deleted
    vertices in one batch and pushes one entry per touched vertex, not one
    per edge.
    """
    adj = graph.adj
    degree = [len(a) for a in adj]
    alive = [True] * graph.n
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    chosen: list[int] = []
    while heap:
        _, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        chosen.append(v)
        removed = [v, *(u for u in adj[v] if alive[u])]
        for u in removed:
            alive[u] = False
        for w, drop in Counter(chain.from_iterable(adj[u] for u in removed)).items():
            if alive[w]:
                degree[w] -= drop
                heapq.heappush(heap, (degree[w], w))
    return frozenset(chosen)


MIS_EXACT_LIMIT = 40


def max_independent_set(graph: Graph) -> IndependentSetResult:
    """Maximum independent set, exact via branch and bound.

    Beyond MIS_EXACT_LIMIT vertices a greedy set is returned and flagged
    approximate.
    """
    if graph.n == 0:
        return IndependentSetResult(frozenset(), True)
    if graph.n > MIS_EXACT_LIMIT:
        return IndependentSetResult(greedy_independent_set(graph), False)

    adj_masks = graph.bitmasks()
    static_order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))

    greedy = greedy_independent_set(graph)

    def expand(cand: int, size: int, cur: int) -> None:
        nonlocal best_mask, best_size
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:  # the bound above makes this a strictly larger set
            best_mask, best_size = cur, size
            return
        # isolated-in-candidates vertices always join the set
        v = -1
        for u in static_order:
            bit = 1 << u
            if cand & bit:
                if adj_masks[u] & cand == 0:
                    expand(cand & ~bit, size + 1, cur | bit)
                    return
                if v == -1:
                    v = u
        bit = 1 << v
        expand(cand & ~(adj_masks[v] | bit), size + 1, cur | bit)
        expand(cand & ~bit, size, cur)

    # independent components solve independently; their optima add up
    total_mask = 0
    total_size = 0
    for comp in graph.components():
        comp_mask = sum(1 << v for v in comp)
        sub_greedy = greedy.intersection(comp)
        best_mask, best_size = sum(1 << v for v in sub_greedy), len(sub_greedy)
        expand(comp_mask, 0, 0)
        total_mask |= best_mask
        total_size += best_size
    vertices = frozenset(v for v in range(graph.n) if total_mask >> v & 1)
    return IndependentSetResult(vertices, True)


# ---------------------------------------------------------------------------
# Random regular graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularGraphSample:
    graph: Graph
    lam: float


def _pairing_attempt(rng: np.random.Generator, n: int, d: int) -> np.ndarray | None:
    """One run of the pairing model with conflict re-pairing, in array passes.

    Returns the symmetric n x n boolean adjacency ("taken") matrix, or None
    when the attempt gives up.  Each pass shuffles the remaining stubs with
    one ``rng.permutation`` draw and pairs them off in order.  A pair becomes
    an edge iff it is not a loop, its cell is not yet taken, and it is the
    first pair with its code lo*n + hi in the pass: exactly the pairs that
    adding one at a time to a growing edge set would keep.  The stubs of
    every other pair go to the next pass, grouped by vertex in order of
    first conflict.  The attempt gives up when every off-diagonal cell of
    the conflict vertices' submatrix is taken, since no re-pairing of them
    can then form a new simple edge.
    """
    taken = np.zeros((n, n), dtype=bool)
    # the narrowest vertex dtype lets numpy's stable sorts run as radix sorts
    stubs = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), d)
    while stubs.size:
        a, b = stubs[rng.permutation(stubs.size)].reshape(-1, 2).T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        fresh = np.flatnonzero((lo != hi) & ~taken[lo, hi])
        by_code = fresh[np.lexsort((hi[fresh], lo[fresh]))]  # stable: ties keep pass order
        new = by_code[np.diff(lo[by_code] * np.int64(n) + hi[by_code], prepend=-1) != 0]
        taken[lo[new], hi[new]] = taken[hi[new], lo[new]] = True
        conflict = np.delete(np.column_stack((lo, hi)), new, axis=0).ravel()
        nodes, first, counts = np.unique(conflict, return_index=True, return_counts=True)
        if nodes.size and np.count_nonzero(taken[nodes][:, nodes]) == nodes.size * (nodes.size - 1):
            return None
        order = np.argsort(first)
        stubs = np.repeat(nodes[order], counts[order])
    return taken


def generate_regular_expander(n: int, d: int, seed: int = 0) -> RegularGraphSample:
    """Random d-regular simple graph with its measured lambda(G).

    Repeats ``_pairing_attempt`` (array passes; see there for the give-up
    rule) on one GRAPH_GEN stream until an attempt completes, and reads the
    graph off the rows of its taken matrix.  Deterministic per seed.
    Raises InfeasibleDegree when n*d is odd or d is outside 1 <= d < n.
    """
    if not 1 <= d < n:
        raise InfeasibleDegree(f"need 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InfeasibleDegree(f"n*d must be even, got n={n}, d={d}")
    rng = stream(seed, GRAPH_GEN)
    taken = _pairing_attempt(rng, n, d)
    while taken is None:
        taken = _pairing_attempt(rng, n, d)
    graph = Graph(n, [np.flatnonzero(row).tolist() for row in taken])
    return RegularGraphSample(graph, second_eigenvalue(graph))
