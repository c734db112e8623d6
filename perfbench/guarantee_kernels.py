"""Workload ``guarantee_kernels``: a scaled-down mix of the acceptance criteria.

One round runs the simulation and metrics kernels behind acceptance
criteria 1-5 and 7 once each at reduced counts: two agent-based runs at
the criterion-2 configuration (one uniform, one greedy-independent-set
adversary), the scalar chain, capped admission streams, the expander
experiment at (n=500, d=300) over four fixed backbone seeds, 250
growth-checker instances and exact maximum independent sets on the
criterion-7 regular-graph family.  A run has at least four rounds.  The
unit op is one accepted growth-checker instance: its draw, the rejected
draws before it, and its check.  No ledger is written.

The expander backbone seeds are the same in every round and every run:
the time to sample a (500, 300) graph ranges from 0.2 s to 5 s with the
seed, and the round time should not depend on which seeds were drawn.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

import numpy as np

from gpi.community import random_lemma_instance, theorem2_check
from gpi.metrics import (
    conductance_bounds,
    conductance_exact,
    generate_regular_expander,
    max_independent_set,
)
from gpi.sim import (
    ExpanderFamily,
    SimConfig,
    capped_admission_sim,
    expander_bound_experiment,
    moment_matched_component_size,
    run_agent_sim,
    run_markov_component,
    steady_state_root,
)

from common import Clock, median

AGENT = {"n0": 1000, "p": 0.5, "k": 20, "sybil_rate": 0.5, "steps": 10**5, "burn_in": 10**4}
MARKOV = {"n": 10**4, "p": 0.5, "k": 100, "steps": 10**6}
CAPPED = {"sigma_cap": 0.1, "steps": 10**4, "runs": 50}
EXPANDER = {"family": ExpanderFamily(n=500, d=300), "p": 1.0, "lambda_target": 0.09, "rounds": 20000,
            "seeds": (0, 1, 2, 3)}
LEMMA_ACCEPTED = 250  # per round
MIS_FAMILY = [(10, 3), (12, 3), (16, 4), (20, 3), (24, 4), (30, 3), (34, 4), (40, 3), (40, 5)]
EIG_TOL = 1e-9


class GuaranteeKernels:
    name = "guarantee_kernels"
    min_rounds = 4  # 1,000 growth-checker instances

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.instances: list = []

    def prepare(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, r])
        seeds = [int(s) for s in rng.integers(1 << 31, size=6)]
        return {
            "agent": [(seeds[0], "uniform"), (seeds[1], "greedy_independent_set")],
            "markov": seeds[2],
            "capped": seeds[3],
            "lemma": seeds[4],
            "mis": seeds[5],
        }

    def run_round(self, inputs: dict, clock: Clock, tally) -> dict:
        facts = {"expulsions": 0, "fallbacks": 0, "agent_steps": 0, "draws": 0, "accepted": 0, "exact": 0}
        for part in (self._agent, self._markov, self._capped, self._expander, self._lemmas, self._mis):
            with tally.section():
                part(inputs, clock, tally, facts)
        return facts

    def _agent(self, inputs, clock, tally, facts) -> None:
        for seed, adversary in inputs["agent"]:
            with tally.op(f"run_agent_sim {adversary}"):
                config = SimConfig(**AGENT, seed=seed, adversary=adversary)
                result = clock("sim.run_agent_sim", run_agent_sim, config)
                bound = math.sqrt(result.time_avg_size.mean * config.k / config.p) * 1.15
                tally.expect(result.time_avg_sybils.mean <= bound,
                             f"agent sim seed {seed}: {result.time_avg_sybils.mean:.1f} sybils > {bound:.1f}")
                facts["expulsions"] += result.expulsion_count
                facts["agent_steps"] += config.steps
                tally.feed(seed, result.expulsion_count, result.time_avg_sybils.mean, result.final_members[-5:])

    def _markov(self, inputs, clock, tally, facts) -> None:
        m = MARKOV
        with tally.op("run_markov_component"):
            result = clock("sim.run_markov_component", run_markov_component,
                           m["n"], m["p"], m["k"], m["steps"], inputs["markov"])
            root = steady_state_root(m["n"], m["p"], m["k"])
            matched = moment_matched_component_size(result, m["k"])
            # in stationarity E[x^2] + E[x]/k = n/(pk): the moments, not the mean, meet the root
            tally.expect(abs(matched - root) <= 0.1 * root,
                         f"markov chain: moment-matched size {matched:.3f} vs root {root:.3f}")
            tally.feed(result.mean, result.mean_square)

    def _capped(self, inputs, clock, tally, facts) -> None:
        c = CAPPED
        with tally.op("capped_admission_sim"):
            means = [
                clock("sim.capped_admission_sim", capped_admission_sim, c["sigma_cap"], c["steps"],
                      inputs["capped"] + i).mean
                for i in range(c["runs"])
            ]
            stderr = statistics.stdev(means) / math.sqrt(len(means))
            grand = statistics.fmean(means)
            tally.expect(grand <= c["sigma_cap"] + 5 * stderr,
                         f"capped admission: mean penetration {grand:.4f} above the cap")
            tally.feed(grand)

    def _expander(self, inputs, clock, tally, facts) -> None:
        e = EXPANDER
        with tally.op("expander_bound_experiment"):
            report = clock("sim.expander_bound_experiment", expander_bound_experiment, e["family"], e["p"],
                           e["seeds"], e["lambda_target"], e["rounds"])
            for o in report.outcomes:
                tally.expect(o.lam <= e["lambda_target"] and o.k == int(o.lam * e["family"].n),
                             f"expander seed {o.seed}: lambda {o.lam:.4f}, k {o.k}")
                tally.expect(o.time_avg_sigma <= report.bound,
                             f"expander seed {o.seed}: penetration {o.time_avg_sigma:.3f} > {report.bound:.3f}")
                facts["fallbacks"] += o.placement_fallback
                tally.feed(o.seed, o.lam, o.time_avg_sigma)

    def _lemmas(self, inputs, clock, tally, facts) -> None:
        """Accepted instances; an op's latency includes the draws it took.

        The first draw or check that raises ends the section: its op fails
        and no further instances are drawn in this round.
        """
        self.instances = []
        index = 0
        draws_ns = 0
        while facts["accepted"] < LEMMA_ACCEPTED:
            with tally.op("growth checker instance"):
                inst = clock("community.random_lemma_instance", random_lemma_instance,
                             seed=inputs["lemma"], index=index)
                draws_ns += clock.last_ns
                index += 1
                facts["draws"] += 1
                if inst is None:
                    continue
                result = clock("community.theorem2_check", theorem2_check,
                               inst.graph, inst.community, inst.grown, inst.params, inst.byzantine)
                tally.latencies_ns.append(draws_ns + clock.last_ns)
                draws_ns = 0
                facts["accepted"] += 1
                facts["exact"] += result.conductance_mode == "exact"
                if result.guarantee:
                    share = Fraction(len(inst.grown & inst.byzantine), len(inst.grown))
                    tally.expect(share <= inst.params.beta,
                                 f"checker instance {index - 1}: byzantine share {share} > beta {inst.params.beta}")
                self.instances.append(inst)
                tally.feed(index, result.verdict)

    def _mis(self, inputs, clock, tally, facts) -> None:
        seed = inputs["mis"]
        for n, d in MIS_FAMILY:
            with tally.section(), tally.op(f"regular graph ({n}, {d})"):
                sample = clock("metrics.generate_regular_expander", generate_regular_expander, n, d, seed)
                tally.expect(bool((sample.graph.degrees == d).all()), f"({n}, {d}, {seed}) is not {d}-regular")
                if not sample.graph.is_connected():
                    continue
                mis = clock("metrics.max_independent_set", max_independent_set, sample.graph)
                tally.expect(mis.exact and len(mis.vertices) <= sample.lam * n + EIG_TOL,
                             f"({n}, {d}, {seed}): alpha {len(mis.vertices)} > lambda*n {sample.lam * n:.3f}")
                tally.feed(n, d, seed, len(mis.vertices))

    def layer_metrics(self, tracer, facts: dict, tally) -> dict:
        """Per-layer metrics from the traced round, plus two passes of their own."""
        probe = Clock(tracer)
        exact_ns, bounds_ns = [], []
        for inst in self.instances:
            grown = inst.graph.induced(inst.grown)[0]
            probe("metrics.conductance_exact", conductance_exact, grown)
            exact_ns.append(probe.last_ns)
            probe("metrics.conductance_bounds", conductance_bounds, grown)
            bounds_ns.append(probe.last_ns)
        regular_s = []
        for seed in EXPANDER["seeds"]:
            n, d = EXPANDER["family"].n, EXPANDER["family"].d
            with tally.op(f"regular graph ({n}, {d})"):
                sample = probe("metrics.generate_regular_expander", generate_regular_expander, n, d, seed,
                               tag="expander")
                regular_s.append(probe.last_ns / 1e9)
                tally.expect(bool((sample.graph.degrees == d).all()) and sample.lam <= EXPANDER["lambda_target"],
                             f"({n}, {d}, {seed}): lambda {sample.lam:.4f}")

        def per_s(count: float, name: str) -> float:
            busy = tracer.total(name)
            return count / busy if busy else 0.0

        return {
            "community.random_lemma_instance_ms": median(tracer.durations("community.random_lemma_instance")) * 1e3,
            "community.theorem2_check_ms": median(tracer.durations("community.theorem2_check")) * 1e3,
            "community.lemma_accept_ratio": facts["accepted"] / max(facts["draws"], 1),
            "community.exact_mode_ratio": facts["exact"] / max(facts["accepted"], 1),
            "metrics.conductance_exact_ms": median(exact_ns) / 1e6,
            "metrics.conductance_bounds_ms": median(bounds_ns) / 1e6,
            "metrics.generate_regular_expander_s": median(regular_s),
            "metrics.max_independent_set_s": tracer.total("metrics.max_independent_set"),
            "sim.run_agent_sim_rounds_per_s": per_s(facts["agent_steps"], "sim.run_agent_sim"),
            "sim.run_markov_component_steps_per_s": per_s(MARKOV["steps"], "sim.run_markov_component"),
            "sim.expander_bound_experiment_s": tracer.total("sim.expander_bound_experiment") / len(EXPANDER["seeds"]),
            "sim.expulsions": facts["expulsions"],
            "sim.placement_fallbacks": facts["fallbacks"],
        }
