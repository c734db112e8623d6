"""Stochastic community-growth simulations.

Three layers, each validating a different quantitative claim:

* ``run_markov_component`` — the scalar birth-reset chain for a single
  sybil component: each round the component is expelled with probability
  p*x/n, otherwise it grows by one with probability 1/k.  Its drift
  balances at the positive root of x^2 + x/k - n/(pk) = 0, which is
  bounded by sqrt(n/(pk)).  Note that the root is a drift fixed point,
  not the chain's arithmetic time average: in stationarity the chain
  satisfies E[x^2] + E[x]/k = n/(pk) exactly, so the root coincides with
  the moment-matched component size while the plain mean sits below it
  (the stationary law is roughly half-normal).  Results expose both.

* ``run_agent_sim`` — the full agent-based model, and the one place the
  sybil-component process is written: candidates obtain one type-3 surety
  edge to a member and join; sybils land in one of at most k components
  uniformly; each admission is followed by one uniform member inspection
  which, on detecting a sybil (probability p), expels that sybil's entire
  connected component.  Optionally emits a replayable signed event ledger
  plus the matching ground-truth registry.

* ``capped_admission_sim`` / ``expander_bound_experiment`` — admission
  streams with a per-candidate sybil probability cap, and the fixed
  expander-backbone experiment bounding time-averaged penetration by
  sqrt(lambda/p).  The backbone enters the process only through
  k = floor(lambda*n), so the experiment runs ``run_agent_sim`` with an
  all-sybil candidate stream.

All randomness is drawn from counter-based streams keyed by (seed,
purpose, block), a fixed number of draws per round, so every trajectory
is bit-reproducible regardless of parallelism.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .keys import KeyPair, generate_keypair
from .ledger import (
    CommunityAdd,
    CommunityRemove,
    Declare,
    Ledger,
    Pledge,
    append_event,
)
from .metrics import generate_regular_expander, greedy_independent_set
from .oracle import AgentRegistry
from .rng import AGENT_SIM, CAPPED_ADMISSION, MARKOV_CHAIN, stream, substream

_BLOCK = 1 << 15
_BATCHES = 100  # batch count of the batch-means standard error


class ConfigError(ValueError):
    """Simulation configuration violates a parameter constraint."""


class ExpanderViolation(RuntimeError):
    """The sampled backbone cannot satisfy the requested lambda target."""


Strategy = Literal["uniform", "greedy_independent_set"]


class MeanWithError(NamedTuple):
    mean: float
    stderr: float


def _mean_with_error(series: np.ndarray) -> MeanWithError:
    """Batch-means estimate; plain std/sqrt(n) would ignore autocorrelation."""
    m = len(series)
    mean = float(series.mean())
    b = min(_BATCHES, m)
    if b < 2:
        return MeanWithError(mean, math.nan)
    usable = (m // b) * b
    batches = series[:usable].reshape(b, -1).mean(axis=1)
    stderr = float(batches.std(ddof=1) / math.sqrt(b))
    return MeanWithError(mean, stderr)


# what a JSON config value of each field annotation may be; a boolean is neither
_JSON_TYPES = {"int": ("an integer", (int,)), "float": ("a number", (int, float)), "Strategy": ("a string", (str,))}


@dataclass(frozen=True)
class SimConfig:
    n0: int
    p: float
    k: int
    sybil_rate: float
    steps: int
    burn_in: int
    seed: int
    adversary: Strategy = "uniform"

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ConfigError("initial community must have at least one member")
        if not 0 < self.p <= 1:
            raise ConfigError("detection probability must lie in (0, 1]")
        if self.k < 1:
            raise ConfigError("component budget k must be >= 1")
        if not 0 <= self.sybil_rate <= 1:
            raise ConfigError("sybil_rate must lie in [0, 1]")
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < steps")
        if self.adversary not in ("uniform", "greedy_independent_set"):
            raise ConfigError(f"unknown adversary strategy {self.adversary!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        if not isinstance(raw, dict):
            raise ConfigError("sim config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        for f in fields(cls):
            kind, types = _JSON_TYPES[f.type]
            if f.name in raw and type(raw[f.name]) not in types:
                raise ConfigError(f"config key {f.name!r} must be {kind}, got {raw[f.name]!r}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Scalar component chain
# ---------------------------------------------------------------------------

def steady_state_root(n: int, p: float, k: int) -> float:
    """Positive root of x^2 + x/k - n/(pk) = 0; always <= sqrt(n/(pk))."""
    if n < 1 or k < 1:
        raise ConfigError("n and k must be >= 1")
    if not 0 < p <= 1:
        raise ConfigError("detection probability must lie in (0, 1]")
    return (-1.0 / k + math.sqrt(1.0 / k**2 + 4.0 * n / (p * k))) / 2.0


@dataclass(frozen=True)
class MarkovChainResult:
    mean: float
    stderr: float
    mean_square: float
    steps: int
    burn_in: int


def moment_matched_component_size(result: MarkovChainResult, k: int) -> float:
    """Component size whose drift balances the chain's measured moments."""
    rhs = result.mean_square + result.mean / k
    return (-1.0 / k + math.sqrt(1.0 / k**2 + 4.0 * rhs)) / 2.0


def run_markov_component(n: int, p: float, k: int, steps: int, seed: int) -> MarkovChainResult:
    """Simulate the scalar chain exactly; time average of x after the first tenth of the run."""
    if steps < 1:
        raise ConfigError("steps must be positive")
    if steps < 2:
        raise ConfigError("steps must be at least 2 to estimate a standard error")
    steady_state_root(n, p, k)  # parameter validation
    burn_in = steps // 10
    xs = np.empty(steps, dtype=np.int64)
    x = 0
    grow_base = 1.0 / k
    pn = p / n
    for block_idx in range(-(-steps // _BLOCK)):
        start = block_idx * _BLOCK
        u = substream(seed, MARKOV_CHAIN, block_idx).random(min(_BLOCK, steps - start))
        for i, ui in enumerate(u.tolist(), start):
            q = pn * x
            if ui < q:
                x = 0
            elif ui < q + (1.0 - q) * grow_base:
                x += 1
            xs[i] = x
    kept = xs[burn_in:]
    # integer sums below 2**53 are exact in float64, whatever their order
    mean, stderr = _mean_with_error(kept)
    return MarkovChainResult(mean, stderr, float(kept @ kept) / len(kept), steps, burn_in)


# ---------------------------------------------------------------------------
# Agent-based model
# ---------------------------------------------------------------------------

@dataclass
class SimResult:
    config: SimConfig
    sigma_series: np.ndarray
    size_series: np.ndarray
    sybil_series: np.ndarray
    component_count_series: np.ndarray
    max_component_series: np.ndarray
    expulsion_sizes: list[int]
    time_avg_sigma: MeanWithError
    time_avg_sybils: MeanWithError
    time_avg_size: MeanWithError
    final_members: tuple[int, ...] = ()
    ledger: Ledger | None = None
    registry: AgentRegistry | None = None

    @property
    def expulsion_count(self) -> int:
        return len(self.expulsion_sizes)


class _Emitter:
    """Builds the replayable ledger and ground-truth registry alongside a run."""

    def __init__(self, seed: int):
        self.admin = generate_keypair("mock", f"sim-admin:{seed}".encode())
        self.seed = seed
        self.ledger = Ledger()
        self.registry = AgentRegistry()
        self.keys: dict[int, KeyPair] = {}
        # the adversary's own genuine identifier predates all sybils, so
        # every sybil it later declares is a later declaration of its agent
        self.adversary_root = generate_keypair("mock", f"sim-adv:{seed}".encode())
        self._record(Declare(self.adversary_root.public), self.adversary_root, "adversary")

    def _record(self, body, keypair: KeyPair, agent: str) -> None:
        seq = len(self.ledger)
        self.ledger = append_event(self.ledger, body, keypair, (self.admin.public,))
        self.registry.actor[seq] = agent
        self.registry.agents.add(agent)

    def key_for(self, ident: int) -> KeyPair:
        kp = self.keys.get(ident)
        if kp is None:
            kp = generate_keypair("mock", f"sim:{self.seed}:{ident}".encode())
            self.keys[ident] = kp
        return kp

    def agent_for(self, ident: int, sybil: bool) -> str:
        return "adversary" if sybil else f"h{ident}"

    def declare(self, ident: int, sybil: bool) -> None:
        kp = self.key_for(ident)
        agent = self.agent_for(ident, sybil)
        self.registry.key_owner[kp.public] = (agent,)
        self._record(Declare(kp.public), kp, agent)

    def admit(self, ident: int, sybil: bool, target: int, target_sybil: bool) -> None:
        self.declare(ident, sybil)
        kp = self.key_for(ident)
        tp = self.key_for(target)
        self._record(
            Pledge(3, tp.public, kp.public), tp, self.agent_for(target, target_sybil)
        )
        self._record(
            Pledge(3, kp.public, tp.public), kp, self.agent_for(ident, sybil)
        )
        self._record(CommunityAdd(kp.public), self.admin, "admin")

    def add_initial(self, ident: int) -> None:
        self.declare(ident, sybil=False)
        self._record(CommunityAdd(self.key_for(ident).public), self.admin, "admin")

    def remove(self, ident: int) -> None:
        self._record(CommunityRemove(self.key_for(ident).public), self.admin, "admin")


def run_agent_sim(config: SimConfig, emit_ledger: bool = False) -> SimResult:
    """Full agent-based run of the admission/detection/expulsion model.

    Each round admits one candidate (sybil with probability ``sybil_rate``)
    through a fresh type-3 surety edge, then inspects one uniform member;
    a detected sybil takes its whole connected component down with it.
    """
    k = config.k
    members: list[int] = list(range(config.n0))
    pos: dict[int, int] = {ident: i for i, ident in enumerate(members)}
    honest_members: list[int] = list(members)
    components: list[list[int]] = []
    comp_of: dict[int, int] = {}  # present sybil -> its component; a member is a sybil iff here
    anchors: list[int] = []  # honest attachment point of each component
    largest = 0  # size of the largest component; rescanned only when one that large leaves
    next_id = config.n0

    # only the greedy adversary's founding-target search reads the edges
    track_edges = config.adversary == "greedy_independent_set"
    neighbors: dict[int, set[int]] = {ident: set() for ident in members} if track_edges else {}

    emitter = _Emitter(config.seed) if emit_ledger else None
    if emitter is not None:
        for ident in members:
            emitter.add_initial(ident)

    steps = config.steps
    size_series = np.empty(steps, dtype=np.int64)
    sybil_series = np.empty(steps, dtype=np.int64)
    comp_count = np.empty(steps, dtype=np.int64)
    max_comp = np.empty(steps, dtype=np.int64)
    expulsion_sizes: list[int] = []

    def remove_member(ident: int) -> None:
        idx = pos.pop(ident)
        last = members.pop()
        if last != ident:
            members[idx] = last
            pos[last] = idx

    def pick_founding_target(u: float) -> int:
        # uniform honest member; the greedy adversary retries a few times
        # for one not adjacent to an existing anchor (independent-set demo)
        idx = int(u * len(honest_members))
        target = honest_members[min(idx, len(honest_members) - 1)]
        if config.adversary == "greedy_independent_set":
            taken = set(anchors)
            for _ in range(16):
                clashes = target in taken or bool(neighbors.get(target, set()) & taken)
                if not clashes:
                    break
                u = (u * 9973.0) % 1.0
                idx = int(u * len(honest_members))
                target = honest_members[min(idx, len(honest_members) - 1)]
        return target

    row = 0
    for block_idx in range(-(-steps // _BLOCK)):
        rows = min(_BLOCK, steps - block_idx * _BLOCK)
        draws = substream(config.seed, AGENT_SIM, block_idx).random((rows, 5))
        for draw in draws:
            u_type, u_slot, u_member, u_inspect, u_detect = draw.tolist()
            cand = next_id
            next_id += 1
            if u_type < config.sybil_rate:
                slot = int(u_slot * k)
                if slot < len(components):
                    comp = components[slot]
                    target = comp[min(int(u_member * len(comp)), len(comp) - 1)]
                    comp.append(cand)
                    comp_of[cand] = slot
                    largest = max(largest, len(comp))
                else:
                    target = pick_founding_target(u_member)
                    components.append([cand])
                    anchors.append(target)
                    comp_of[cand] = len(components) - 1
                    largest = max(largest, 1)
            else:
                target = members[min(int(u_member * len(members)), len(members) - 1)]
                honest_members.append(cand)
            pos[cand] = len(members)
            members.append(cand)
            if track_edges:
                neighbors.setdefault(target, set()).add(cand)
                neighbors.setdefault(cand, set()).add(target)
            if emitter is not None:
                emitter.admit(cand, cand in comp_of, target, target in comp_of)

            inspected = members[min(int(u_inspect * len(members)), len(members) - 1)]
            if inspected in comp_of and u_detect < config.p:
                ci = comp_of[inspected]
                comp = components[ci]
                for m in comp:
                    remove_member(m)
                    del comp_of[m]
                    if emitter is not None:
                        emitter.remove(m)
                last = components.pop()
                anchors_last = anchors.pop()
                if ci < len(components):
                    components[ci] = last
                    anchors[ci] = anchors_last
                    for m in last:
                        comp_of[m] = ci
                expulsion_sizes.append(len(comp))
                if len(comp) == largest:
                    largest = max(map(len, components), default=0)

            size_series[row] = len(members)
            sybil_series[row] = len(comp_of)
            comp_count[row] = len(components)
            max_comp[row] = largest
            row += 1

    # counts below 2**53 are exact in float64, so each ratio is the correctly rounded quotient
    sigma = sybil_series / size_series
    tail = slice(config.burn_in, None)
    result = SimResult(
        config=config,
        sigma_series=sigma,
        size_series=size_series,
        sybil_series=sybil_series,
        component_count_series=comp_count,
        max_component_series=max_comp,
        expulsion_sizes=expulsion_sizes,
        time_avg_sigma=_mean_with_error(sigma[tail]),
        time_avg_sybils=_mean_with_error(sybil_series[tail].astype(float)),
        time_avg_size=_mean_with_error(size_series[tail].astype(float)),
        final_members=tuple(members),
    )
    if emitter is not None:
        result.ledger = emitter.ledger
        result.registry = emitter.registry
    return result


# ---------------------------------------------------------------------------
# Capped-admission stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CappedAdmissionResult:
    penetration: np.ndarray  # sigma(A) after each admission
    mean: float


def capped_admission_sim(sigma_cap: float, steps: int, seed: int) -> CappedAdmissionResult:
    """Admissions to one honest member, each a sybil with probability <= cap.

    Penetration after step t (from 0) is (sybils so far) / (t + 2); with
    the cap sigma the expected penetration of every snapshot stays <= sigma.
    """
    if not 0 <= sigma_cap <= 1:
        raise ConfigError("sigma_cap must lie in [0, 1]")
    if steps < 1:
        raise ConfigError("steps must be positive")
    rng = stream(seed, CAPPED_ADMISSION)
    draws = rng.random(steps) < sigma_cap
    counts = np.cumsum(draws)
    sizes = np.arange(2, steps + 2)
    series = counts / sizes
    return CappedAdmissionResult(series, float(series.mean()))


# ---------------------------------------------------------------------------
# Expander backbone experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpanderFamily:
    n: int
    d: int


@dataclass(frozen=True)
class ExpanderSeedOutcome:
    """One backbone seed of ``expander_bound_experiment``.

    ``placement_fallback`` is True when the backbone's greedy independent
    set has fewer than k vertices, i.e. k components could not all hang off
    pairwise non-adjacent members.  No attachment point enters the process,
    so the flag is descriptive only.  It stays because ``perfbench`` reports
    it as ``sim.placement_fallbacks``; it goes once that metric is dropped
    (ROADMAP item 4).
    """

    seed: int
    lam: float
    k: int
    time_avg_sigma: float
    placement_fallback: bool


@dataclass(frozen=True)
class ExpanderExperimentReport:
    family: ExpanderFamily
    p: float
    lambda_target: float
    bound: float
    outcomes: tuple[ExpanderSeedOutcome, ...]
    max_sigma: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n": self.family.n,
            "d": self.family.d,
            "p": self.p,
            "lambda_target": self.lambda_target,
            "bound": self.bound,
            "max_sigma": self.max_sigma,
            "ok": self.ok,
            "outcomes": [
                {
                    "seed": o.seed,
                    "lambda": o.lam,
                    "k": o.k,
                    "time_avg_sigma": o.time_avg_sigma,
                    "placement_fallback": o.placement_fallback,
                }
                for o in self.outcomes
            ],
        }


def _expander_single(
    family: ExpanderFamily,
    p: float,
    lambda_target: float,
    rounds: int,
    seed: int,
) -> ExpanderSeedOutcome:
    sample = generate_regular_expander(family.n, family.d, seed)
    lam = sample.lam
    if lam > lambda_target:
        raise ExpanderViolation(
            f"seed {seed}: measured lambda {lam:.4f} exceeds target {lambda_target}"
        )
    # trace(P^2) = n/d gives lambda^2 >= (n-d)/(d(n-1)) >= 1/n^2, so k >= 1
    k = int(lam * family.n)
    result = run_agent_sim(
        SimConfig(n0=family.n, p=p, k=k, sybil_rate=1.0, steps=rounds, burn_in=rounds // 10, seed=seed)
    )
    return ExpanderSeedOutcome(
        seed=seed,
        lam=lam,
        k=k,
        time_avg_sigma=result.time_avg_sigma.mean,
        placement_fallback=len(greedy_independent_set(sample.graph)) < k,
    )


def expander_bound_experiment(
    family: ExpanderFamily,
    p: float,
    seeds: Sequence[int],
    lambda_target: float,
    rounds: int = 20000,
    jobs: int = 1,
) -> ExpanderExperimentReport:
    """Fixed expander backbone, adversarial sybil flood, measured penetration.

    Every seed samples a fresh d-regular backbone; its measured lambda must
    stay at or below the target (ExpanderViolation otherwise).  The
    backbone's n members are the honest community, and every candidate is
    a sybil spread over at most k = floor(lambda*n) components: that budget
    is all the backbone contributes (alpha(G) <= lambda*n), so each seed is
    one ``run_agent_sim`` with ``sybil_rate = 1`` whose first ``rounds // 10``
    rounds are burn-in.  Reported time-averaged penetration is asserted
    against sqrt(lambda_target/p) by callers.
    """
    if not 0 < p <= 1:
        raise ConfigError("detection probability must lie in (0, 1]")
    if rounds < 1:
        raise ConfigError("rounds must be at least 1")
    if not seeds:
        raise ConfigError("need at least one seed")
    if not 0 <= lambda_target <= 1:
        raise ConfigError("lambda target must lie in [0, 1]")
    bound = math.sqrt(lambda_target / p)
    single = partial(_expander_single, family, p, lambda_target, rounds)
    if jobs > 1:
        # spawn, not fork: forking once numpy's BLAS threads run is unsafe
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            outcomes = tuple(pool.map(single, seeds))
    else:
        outcomes = tuple(map(single, seeds))
    max_sigma = max(o.time_avg_sigma for o in outcomes)
    return ExpanderExperimentReport(
        family=family,
        p=p,
        lambda_target=lambda_target,
        bound=bound,
        outcomes=outcomes,
        max_sigma=max_sigma,
        ok=max_sigma <= bound,
    )
