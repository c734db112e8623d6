"""Community histories, penetration metrics and the growth-guarantee checker.

A community is a subset of declared identifiers.  Replaying add/remove
events off the ledger yields its history; against an oracle
classification we measure

    sigma(A) = |A ∩ sybils| / |A|        (sybil penetration)
    beta(A)  = |A ∩ byzantine| / |A|     (byzantine penetration)

and ``theorem2_check`` evaluates the six sufficient conditions under
which one growth step A -> A' keeps byzantine penetration at or below a
target beta:

    1. every vertex of A' has degree <= d;
    2. every member of A' has internal degree >= alpha * d;
    3. |A ∩ B| / |A| <= beta;
    4. e(A'∩H, A'∩B) <= gamma * vol_{A'}(A'∩H);
    5. |A' \\ A| <= delta * |A|  and  beta + delta <= 1/2;
    6. Phi(G|_{A'}) > (gamma/alpha) * (1-beta)/beta.

All ratios are evaluated in exact rational arithmetic.  Condition 6 fails
for a one-member A', whose conductance is undefined, and uses exact
conductance up to 20 vertices.  Beyond that it compares, exactly, the
Cheeger bounds at the ends of ``metrics.lambda2_enclosure``, an interval
certain to hold lambda_2 of G|A' (certifying nothing past 2,000 vertices),
and is ``inconclusive`` when the threshold lies between them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import AbstractSet, Iterable, Optional

from .keys import PublicIdentifier
from .ledger import CommunityAdd, CommunityRemove, Ledger
from .metrics import (
    Graph,
    TooLarge,
    cheeger_bounds,
    conductance_exact,
    lambda2_enclosure,
)
from .oracle import ClassificationReport
from .registry import analyze
from .rng import LEMMA_INSTANCES, substream


class EmptyCommunity(ValueError):
    """Penetration ratios are undefined for an empty community."""


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------

_CHECKPOINT_EVERY = 1024  # events between stored snapshots of a history

_Change = Optional[tuple[PublicIdentifier, bool]]  # (member, added), None if unchanged


class _Snapshots(Sequence[frozenset[PublicIdentifier]]):
    """The community after each ledger prefix, rebuilt on demand.

    ``self[k]`` starts from the checkpoint stored at the largest multiple
    of ``_CHECKPOINT_EVERY`` at or below ``k`` and replays the membership
    changes after it.
    """

    def __init__(self, changes: list[_Change], checkpoints: list[frozenset[PublicIdentifier]]):
        self._changes = changes
        self._checkpoints = checkpoints

    def __len__(self) -> int:
        return len(self._changes) + 1

    def __getitem__(self, index):
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("snapshot index out of range")
        block, offset = divmod(k, _CHECKPOINT_EVERY)
        if offset == 0:
            return self._checkpoints[block]
        members = set(self._checkpoints[block])
        for change in self._changes[k - offset : k]:
            if change is not None:
                v, added = change
                if added:
                    members.add(v)
                else:
                    members.discard(v)
        return frozenset(members)


@dataclass(frozen=True)
class CommunityHistory:
    """The community after every ledger prefix, kept as membership changes.

    ``snapshots[k]`` is the community after the first ``k`` events:
    ``snapshots[0]`` is the empty set and ``len(snapshots)`` is the number
    of events plus one; invalid add/remove events leave it unchanged.
    What is stored is one change (or None) per event plus a frozenset
    checkpoint every ``_CHECKPOINT_EVERY`` events, so memory is O(events
    + checkpoints × community size).  ``snapshots[k]`` is a new frozenset
    built from the nearest checkpoint at or below ``k``, costing up to the
    checkpoint spacing in replayed events plus the community size; a
    checkpoint itself is returned as stored, and iteration indexes each k.
    """

    snapshots: Sequence[frozenset[PublicIdentifier]]
    final: frozenset[PublicIdentifier]


def history_from_ledger(ledger: Ledger) -> CommunityHistory:
    """Replay add/remove events: add only declared non-members, remove members.

    One pass over the ledger records, per event, the membership change it
    makes (None for every other event and for invalid adds and removes),
    and a frozenset of the members every ``_CHECKPOINT_EVERY`` events.
    """
    members: set[PublicIdentifier] = set()
    changes: list[_Change] = []
    checkpoints = [frozenset()]
    intro = analyze(ledger).intro
    for ev in ledger:
        body = ev.body
        change: _Change = None
        if isinstance(body, CommunityAdd):
            # the identifier must be declared strictly before the add event
            if intro.get(body.v, ev.seq) < ev.seq and body.v not in members:
                members.add(body.v)
                change = (body.v, True)
        elif isinstance(body, CommunityRemove):
            if body.v in members:
                members.remove(body.v)
                change = (body.v, False)
        changes.append(change)
        if len(changes) % _CHECKPOINT_EVERY == 0:
            checkpoints.append(frozenset(members))
    return CommunityHistory(_Snapshots(changes, checkpoints), frozenset(members))


# ---------------------------------------------------------------------------
# Penetration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenetrationReport:
    sigma: Fraction
    beta: Fraction
    size: int
    sybil_count: int


def penetration(
    community: AbstractSet[PublicIdentifier], report: ClassificationReport
) -> PenetrationReport:
    if not community:
        raise EmptyCommunity("penetration of an empty community is undefined")
    size = len(community)
    sybils = len(community & report.sybils)
    return PenetrationReport(
        sigma=Fraction(sybils, size),
        beta=Fraction(len(community & report.byzantine), size),
        size=size,
        sybil_count=sybils,
    )


# ---------------------------------------------------------------------------
# Growth-step checker
# ---------------------------------------------------------------------------

_RATIOS = ("alpha", "beta", "gamma", "delta")


@dataclass(frozen=True)
class Theorem2Params:
    """Degree bound and the four ratio parameters of the growth guarantee."""

    d: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self) -> None:
        for name in _RATIOS:
            value = Fraction(getattr(self, name))
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0,1], got {value}")
            object.__setattr__(self, name, value)
        if self.d < 0:
            raise ValueError(f"degree bound d must be non-negative, got {self.d}")

    @classmethod
    def from_dict(cls, raw: dict) -> "Theorem2Params":
        """Exactly the five keys; ``d`` an integer, each ratio read from its text."""
        unknown = set(raw) - {"d", *_RATIOS}
        if unknown:
            raise ValueError(f"unknown params keys: {sorted(unknown)}")
        missing = [name for name in ("d", *_RATIOS) if name not in raw]
        if missing:
            raise ValueError(f"missing params keys: {missing}")
        if type(raw["d"]) is not int:
            raise ValueError(f"params key 'd' must be an integer, got {raw['d']!r}")
        ratios = {}
        for name in _RATIOS:
            try:
                ratios[name] = Fraction(str(raw[name]))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"params key {name!r} is not a ratio: {raw[name]!r}") from None
        return cls(d=raw["d"], **ratios)

    def to_dict(self) -> dict:
        return {"d": self.d, **{name: float(getattr(self, name)) for name in _RATIOS}}


@dataclass(frozen=True)
class ConditionResult:
    index: int
    description: str
    passed: bool | None  # None: not decidable with the certified bounds
    detail: str


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[ConditionResult, ...]
    guarantee: bool
    verdict: str  # "pass" | "fail" | "inconclusive"
    conductance_mode: str  # "exact" | "cheeger"

    def to_dict(self) -> dict:
        return asdict(self)


class UnknownLabel(LookupError):
    """A label names no vertex of the graph."""


def vertices_of(graph: Graph, labels: Iterable[str]) -> frozenset[int]:
    """The vertices carrying ``labels``, matched on the hex key.

    A label is bare hex or ``scheme:hex``; one the graph lacks raises
    ``UnknownLabel``.  Two graph labels with the same hex key cannot be told
    apart this way, so they raise ValueError naming both.
    """
    if graph.labels is None:
        raise ValueError("graph carries no labels to match identifiers against")
    index: dict[str, int] = {}
    for v, label in enumerate(graph.labels):
        w = index.setdefault(label.rpartition(":")[2], v)
        if w != v:
            raise ValueError(f"graph labels {graph.labels[w]!r} and {label!r} share a hex key")
    out = set()
    for label in labels:
        v = index.get(label.rpartition(":")[2])
        if v is None:
            raise UnknownLabel(f"identifier {label!r} does not appear in the graph")
        out.add(v)
    return frozenset(out)


@dataclass(frozen=True)
class _Step:
    """What the six conditions read off a step A -> A' with byzantine set B."""

    size: int  # |A|
    growth: int  # |A' \ A|
    byzantine_in_a: int  # |A ∩ B|
    max_degree: int  # over A'
    min_internal: int  # least degree inside G|A' over A'
    harmless_volume: int  # vol_{A'}(A' \ B)
    boundary: int  # e(A' \ B, A' ∩ B)


def _measure(
    graph: Graph,
    community: AbstractSet[int],
    grown: AbstractSet[int],
    byzantine: AbstractSet[int],
) -> _Step:
    """Check that community -> grown is a step of ``graph`` and measure it."""
    a = frozenset(community)
    a_next = frozenset(grown)
    if not a <= a_next:
        raise ValueError("community must be a subset of the grown community")
    if not a_next <= set(range(graph.n)):
        raise ValueError("grown community contains unknown vertices")
    if not a:
        raise EmptyCommunity("the initial community must be nonempty")
    byz_in = a_next.intersection(byzantine)
    harmless = a_next - byz_in
    internal = {v: sum(1 for w in graph.adj[v] if w in a_next) for v in a_next}
    return _Step(
        size=len(a),
        growth=len(a_next - a),
        byzantine_in_a=len(a & byz_in),
        max_degree=max(graph.degree(v) for v in a_next),
        min_internal=min(internal.values()),
        harmless_volume=sum(internal[v] for v in harmless),
        boundary=sum(1 for v in harmless for w in graph.adj[v] if w in byz_in),
    )


def theorem2_check(
    graph: Graph,
    community: AbstractSet[int],
    grown: AbstractSet[int],
    params: Theorem2Params,
    byzantine: AbstractSet[int],
) -> ConditionReport:
    """Evaluate the six growth conditions for the step community -> grown.

    Conditions 1 to 5 compare the step's one measurement, the same one
    ``infer_params`` returns as constants, with ``params``; condition 6
    computes the conductance of the induced subgraph G|A'.
    """
    step = _measure(graph, community, grown, byzantine)
    results: list[ConditionResult] = []

    results.append(
        ConditionResult(
            1,
            "degree bound over the grown community",
            step.max_degree <= params.d,
            f"max degree {step.max_degree} vs d={params.d}",
        )
    )

    if params.d > 0:
        cond2 = Fraction(step.min_internal, params.d) >= params.alpha
        detail2 = f"min internal degree {step.min_internal}/{params.d} vs alpha={params.alpha}"
    else:
        cond2 = params.alpha == 0
        detail2 = "degree bound is 0"
    results.append(ConditionResult(2, "internal degree floor", cond2, detail2))

    byz_share = Fraction(step.byzantine_in_a, step.size)
    results.append(
        ConditionResult(
            3,
            "byzantine share of the initial community",
            byz_share <= params.beta,
            f"|A∩B|/|A| = {byz_share} vs beta={params.beta}",
        )
    )

    gamma_vol = params.gamma * step.harmless_volume
    results.append(
        ConditionResult(
            4,
            "harmless-byzantine boundary is scarce",
            step.boundary <= gamma_vol,
            f"e(H,B)={step.boundary} vs gamma*vol={float(gamma_vol):.6g}",
        )
    )

    delta_size = params.delta * step.size
    cond5 = step.growth <= delta_size and params.beta + params.delta <= Fraction(1, 2)
    results.append(
        ConditionResult(
            5,
            "growth step bounded and beta+delta <= 1/2",
            cond5,
            f"|A'\\A|={step.growth}, delta*|A|={float(delta_size):.6g}, "
            f"beta+delta={float(params.beta + params.delta):.6g}",
        )
    )

    mode = "exact"
    if params.alpha == 0 or params.beta == 0:
        cond6: bool | None = False
        detail6 = "conductance threshold undefined for alpha=0 or beta=0"
    elif len(grown) == 1:
        cond6 = False
        detail6 = "conductance undefined for a one-member community"
    else:
        threshold = (params.gamma / params.alpha) * (1 - params.beta) / params.beta
        sub = graph if len(grown) == graph.n else graph.induced(grown)[0]  # G keeps its stored Phi
        try:
            phi = conductance_exact(sub).value
            cond6 = phi > threshold
            detail6 = f"Phi(G|A') = {phi} vs threshold {float(threshold):.6g} (exact)"
        except TooLarge:
            mode = "cheeger"
            lo, hi = lambda2_enclosure(sub)
            lower, upper = cheeger_bounds(hi)[0], cheeger_bounds(lo)[1]
            if (1 - Fraction(hi)) / 2 > threshold:
                cond6 = True
                detail6 = f"Cheeger lower bound {lower:.6g} > threshold {float(threshold):.6g}"
            elif 2 * (1 - Fraction(lo)) <= threshold**2:
                cond6 = False
                detail6 = f"Cheeger upper bound {upper:.6g} <= threshold {float(threshold):.6g}"
            else:
                cond6 = None
                detail6 = (
                    f"threshold {float(threshold):.6g} falls between the Cheeger bounds "
                    f"[{lower:.6g}, {upper:.6g}]"
                )
    results.append(ConditionResult(6, "induced conductance above threshold", cond6, detail6))

    guarantee = all(c.passed is True for c in results)
    if guarantee:
        verdict = "pass"
    elif any(c.passed is False for c in results):
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return ConditionReport(tuple(results), guarantee, verdict, mode)


def infer_params(
    graph: Graph,
    community: AbstractSet[int],
    grown: AbstractSet[int],
    byzantine: AbstractSet[int],
    beta: Fraction | float,
) -> Theorem2Params:
    """Tightest constants satisfying conditions 1, 2, 4 and 5; beta is yours.

    The constants are the step's one measurement, the same one
    ``theorem2_check`` compares with its params, as exact rationals, so
    they re-check cleanly.  The step is validated as in ``theorem2_check``.
    """
    step = _measure(graph, community, grown, byzantine)
    d = step.max_degree
    return Theorem2Params(
        d=d,
        alpha=Fraction(step.min_internal, d) if d else Fraction(0),
        beta=Fraction(beta),
        gamma=Fraction(step.boundary, step.harmless_volume) if step.harmless_volume else Fraction(0),
        delta=Fraction(step.growth, step.size),
    )


# ---------------------------------------------------------------------------
# Random all-pass instances (soundness fodder for the checker)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaInstance:
    graph: Graph
    community: frozenset[int]
    grown: frozenset[int]
    byzantine: frozenset[int]
    params: Theorem2Params


_LEMMA_MAX_N = 16  # vertex count of the largest sampled graph


def random_lemma_instance(seed: int, index: int = 0) -> LemmaInstance | None:
    """One random instance engineered to satisfy all six conditions.

    Samples a connected dense-ish graph, a small byzantine set and a small
    growth step, infers the tightest constants and picks a feasible beta.
    Returns None when 40 graph draws give no connected graph, or when the
    sampled geometry admits no feasible beta (caller draws again); sampling
    is deterministic per (seed, index).
    """
    rng = substream(seed, LEMMA_INSTANCES, index)
    n = int(rng.integers(6, _LEMMA_MAX_N + 1))
    p_edge = 0.45 + 0.4 * float(rng.random())
    for _ in range(40):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p_edge
        ]
        graph = Graph.from_edges(n, edges)
        if graph.is_connected():
            break
    else:
        return None

    grown = frozenset(range(n))
    drop = int(rng.integers(0, max(1, n // 5) + 1))
    removable = list(rng.permutation(n))[:drop]
    community = grown - frozenset(int(v) for v in removable)
    n_byz = int(rng.integers(0, 3))
    byzantine = frozenset(int(v) for v in rng.permutation(n)[:n_byz])

    base = infer_params(graph, community, grown, byzantine, beta=Fraction(1, 2))
    phi = conductance_exact(graph).value  # grown is every vertex, so theorem2_check reuses it
    # beta must cover the byzantine share of A, exceed the conductance
    # threshold gamma/(gamma + phi*alpha), and leave room for delta
    share = Fraction(len(community & byzantine), len(community))
    floor = base.gamma / (base.gamma + phi * base.alpha)
    upper = Fraction(1, 2) - base.delta
    lower = max(share, floor)
    if lower >= upper:
        return None
    beta = lower + (upper - lower) * Fraction(1, 3)  # > lower >= floor: condition 6 is strict
    return LemmaInstance(graph, community, grown, byzantine, replace(base, beta=beta))
