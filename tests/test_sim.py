"""Simulations against analytic and exact-stationary oracles."""

import json
import math

import numpy as np
import pytest

from gpi.community import history_from_ledger
from gpi.ledger import parse_log, serialize_log
from gpi.metrics import generate_regular_expander, greedy_independent_set
from gpi.oracle import classify
from gpi.sim import (
    CappedAdmissionResult,
    ConfigError,
    ExpanderFamily,
    ExpanderViolation,
    SimConfig,
    capped_admission_sim,
    expander_bound_experiment,
    moment_matched_component_size,
    run_agent_sim,
    run_markov_component,
    steady_state_root,
)
from gpi.rng import AGENT_SIM, stream, substream

from helpers import check_expulsions, reference_slot_sigma


def exact_stationary_mean(n: float, p: float, k: int, xmax: int = 400) -> float:
    """Independent oracle: closed-form stationary law of the birth-reset chain.

    The chain only moves up or resets to 0, so the stationary weight of
    level x is (probability a cycle reaches x) times (expected dwell at x).
    """
    weights = []
    reach = 1.0
    for x in range(xmax):
        q = min(p * x / n, 1.0)
        leave = q + (1.0 - q) / k
        weights.append(reach / leave)
        advance = ((1.0 - q) / k) / leave
        reach *= advance
    weights = np.array(weights)
    weights /= weights.sum()
    return float((weights * np.arange(xmax)).sum())


class TestSteadyStateRoot:
    def test_exact_factorization(self):
        assert steady_state_root(2, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_formula_cases(self):
        assert steady_state_root(10000, 0.5, 100) == pytest.approx(14.137136507614398, abs=1e-9)
        assert steady_state_root(100, 0.5, 10) == pytest.approx(4.4224, abs=1e-4)

    def test_root_below_bound(self):
        for n, p, k in [(10, 1, 1), (10000, 0.5, 100), (100, 0.5, 10), (7, 0.3, 2)]:
            assert steady_state_root(n, p, k) <= math.sqrt(n / (p * k)) + 1e-12


class TestMarkovChain:
    def test_degenerate_immediate_expulsion(self):
        # n=1, p=1, k=1: the component never exceeds size 1
        result = run_markov_component(1, 1, 1, steps=5000, seed=0)
        assert result.mean <= 1.0

    def test_mean_matches_exact_stationary_law(self):
        exact = exact_stationary_mean(10000, 0.5, 100)
        result = run_markov_component(10000, 0.5, 100, steps=400000, seed=11)
        assert result.mean == pytest.approx(exact, abs=max(4 * result.stderr, 0.3))

    def test_stationary_moment_identity(self):
        # in stationarity E[x^2] + E[x]/k = n/(pk); the moment-matched size
        # therefore reproduces the analytic root
        result = run_markov_component(10000, 0.5, 100, steps=400000, seed=3)
        root = steady_state_root(10000, 0.5, 100)
        matched = moment_matched_component_size(result, 100)
        assert matched == pytest.approx(root, rel=0.05)

    def test_two_seeds_agree_within_errors(self):
        a = run_markov_component(1000, 0.5, 20, steps=200000, seed=1)
        b = run_markov_component(1000, 0.5, 20, steps=200000, seed=2)
        combined = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 3 * combined

    def test_deterministic_per_seed(self):
        a = run_markov_component(500, 0.4, 10, steps=30000, seed=9)
        b = run_markov_component(500, 0.4, 10, steps=30000, seed=9)
        assert a == b


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(n0=0, p=0.5, k=1, sybil_rate=0, steps=10, burn_in=0, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(n0=1, p=0.0, k=1, sybil_rate=0, steps=10, burn_in=0, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(n0=1, p=0.5, k=1, sybil_rate=0, steps=10, burn_in=10, seed=1)
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n0": 1, "p": 1, "k": 1, "sybil_rate": 0, "steps": 2, "burn_in": 0, "seed": 1, "bogus": 3})

    def test_from_dict_names_missing_keys_and_round_trips(self):
        raw = {"n0": 1, "p": 1, "k": 1, "sybil_rate": 0, "steps": 2, "seed": 1}
        with pytest.raises(ConfigError, match="burn_in"):
            SimConfig.from_dict(raw)
        config = SimConfig.from_dict({**raw, "burn_in": 0})
        assert list(config.to_dict()) == ["n0", "p", "k", "sybil_rate", "steps", "burn_in", "seed", "adversary"]
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            SimConfig.from_dict([1])


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_a_seed_outside_64_bits_raises(self, seed):
        with pytest.raises(ValueError, match="outside"):
            stream(seed, AGENT_SIM)
        with pytest.raises(ValueError, match="outside"):
            substream(seed, AGENT_SIM, 0)


class TestAgentSim:
    def config(self, **overrides) -> SimConfig:
        base = dict(n0=50, p=0.5, k=4, sybil_rate=0.4, steps=1500, burn_in=150, seed=5)
        base.update(overrides)
        return SimConfig(**base)

    def test_no_sybils_without_sybil_candidates(self):
        result = run_agent_sim(self.config(sybil_rate=0.0))
        assert result.sigma_series.max() == 0.0

    def test_component_budget_respected(self):
        result = run_agent_sim(self.config(sybil_rate=0.8, k=3))
        assert result.component_count_series.max() <= 3

    def test_expelled_sets_are_connected_components(self):
        # every expulsion, replayed from the emitted ledger, is one whole
        # connected sybil component of the mutual type-3 pledge graph
        for adversary in ("uniform", "greedy_independent_set"):
            result = run_agent_sim(self.config(steps=2500, adversary=adversary), emit_ledger=True)
            assert max(result.expulsion_sizes) > 1
            check_expulsions(result)

    def test_incremental_sigma_matches_recount(self):
        config = self.config(steps=800, n0=30)
        result = run_agent_sim(config, emit_ledger=True)
        history = history_from_ledger(result.ledger)
        report = classify(result.ledger, result.registry)
        # recount sigma of the final replayed community against the run's last value
        snapshot = history.snapshots[-1]
        recount = len(snapshot & report.sybils) / len(snapshot)
        assert recount == pytest.approx(result.sigma_series[-1], abs=1e-12)

    def test_deterministic_per_seed(self):
        a = run_agent_sim(self.config())
        b = run_agent_sim(self.config())
        assert np.array_equal(a.sigma_series, b.sigma_series)
        assert a.expulsion_sizes == b.expulsion_sizes

    def test_seed_changes_trajectory(self):
        a = run_agent_sim(self.config())
        b = run_agent_sim(self.config(seed=6))
        assert not np.array_equal(a.sigma_series, b.sigma_series)

    def test_emitted_ledger_replays_to_final_membership(self):
        result = run_agent_sim(self.config(steps=600, n0=20), emit_ledger=True)
        reparsed = parse_log(serialize_log(result.ledger))
        history = history_from_ledger(reparsed)
        expected = {result.id_to_key[m] for m in result.final_members}
        assert history.final == expected
        # the oracle classification of the replayed log matches the sim's
        # own sybil accounting
        report = classify(reparsed, result.registry)
        sybil_members = history.final & report.sybils
        assert len(sybil_members) == result.sybil_series[-1]

    def test_greedy_adversary_strategy_runs(self):
        result = run_agent_sim(self.config(adversary="greedy_independent_set"))
        assert result.component_count_series.max() <= 4


class TestCappedAdmission:
    def test_zero_cap_stays_clean(self):
        result = capped_admission_sim(0.0, 500, seed=4)
        assert result.penetration.max() == 0.0

    def test_full_cap_saturates(self):
        result = capped_admission_sim(1.0, 2000, seed=4)
        assert result.penetration[-1] > 0.99

    def test_mean_respects_cap_within_noise(self):
        series = np.vstack(
            [capped_admission_sim(0.1, 5000, seed=s).penetration for s in range(30)]
        )
        stderr = series.mean(axis=0).std() / math.sqrt(30)
        assert series.mean() <= 0.1 + 3 * max(stderr, series.std() / math.sqrt(series.size))

    def test_returns_a_capped_admission_result(self):
        assert isinstance(capped_admission_sim(0.2, 10, seed=0), CappedAdmissionResult)


# expander_bound_experiment(ExpanderFamily(500, 300), 1.0, (0, 1, 2, 3), 0.09, 20000).to_dict()
# on backbones drawn by the sequential pairing; a change of the seed -> draw mapping fails here
EXPANDER_PIN = {
    "bound": 0.3, "d": 300, "lambda_target": 0.09, "max_sigma": 0.18558527912497708, "n": 500,
    "ok": True, "p": 1.0,
    "outcomes": [
        {"k": 36, "lambda": 0.07389997191298814, "placement_fallback": True, "seed": 0, "time_avg_sigma": 0.17960527299292356},
        {"k": 36, "lambda": 0.07341474719161231, "placement_fallback": True, "seed": 1, "time_avg_sigma": 0.17788050520355747},
        {"k": 37, "lambda": 0.07456270315145164, "placement_fallback": True, "seed": 2, "time_avg_sigma": 0.18392311351089896},
        {"k": 37, "lambda": 0.0743752303039053, "placement_fallback": True, "seed": 3, "time_avg_sigma": 0.18558527912497708},
    ],
}


class TestExpanderExperiment:
    def test_four_backbones_are_pinned(self):
        report = expander_bound_experiment(ExpanderFamily(500, 300), 1.0, (0, 1, 2, 3), 0.09, 20000)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(EXPANDER_PIN, sort_keys=True)

    def test_small_run_stays_under_bound(self):
        report = expander_bound_experiment(
            ExpanderFamily(n=120, d=60),
            p=1.0,
            seeds=range(3),
            lambda_target=0.25,
            rounds=4000,
        )
        assert report.bound == pytest.approx(0.5)
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.lam <= 0.25
            assert outcome.k <= 0.25 * 120

    def test_unreachable_target_raises(self):
        with pytest.raises(ExpanderViolation):
            expander_bound_experiment(
                ExpanderFamily(n=30, d=4),
                p=1.0,
                seeds=[0],
                lambda_target=0.05,
                rounds=100,
            )

    def test_bound_arithmetic(self):
        report = expander_bound_experiment(
            ExpanderFamily(n=60, d=30), p=0.25, seeds=[1], lambda_target=0.4, rounds=200
        )
        assert report.bound == pytest.approx(math.sqrt(0.4 / 0.25))

    @pytest.mark.parametrize("rounds", [0, -5])
    def test_no_rounds_is_rejected_before_any_backbone(self, rounds, monkeypatch):
        def sample(*args):
            raise AssertionError("a backbone was sampled")

        monkeypatch.setattr("gpi.sim.generate_regular_expander", sample)
        with pytest.raises(ConfigError, match="rounds"):
            expander_bound_experiment(ExpanderFamily(n=60, d=30), p=0.5, seeds=[1], lambda_target=0.4, rounds=rounds)

    def test_no_seeds_is_rejected_before_any_backbone(self, monkeypatch):
        def sample(*args):
            raise AssertionError("a backbone was sampled")

        monkeypatch.setattr("gpi.sim.generate_regular_expander", sample)
        with pytest.raises(ConfigError, match="seed"):
            expander_bound_experiment(ExpanderFamily(n=60, d=30), p=0.5, seeds=[], lambda_target=0.4, rounds=200)

    def test_parallel_jobs_match_sequential(self):
        kwargs = dict(
            family=ExpanderFamily(n=60, d=30),
            p=1.0,
            seeds=range(2),
            lambda_target=0.4,
            rounds=1500,
        )
        seq = expander_bound_experiment(**kwargs, jobs=1)
        par = expander_bound_experiment(**kwargs, jobs=2)
        assert seq.outcomes == par.outcomes

    def test_matches_the_direct_slot_process_in_law(self):
        # the experiment runs the agent kernel; the k-slot process written
        # out directly, on independent draws, gives the same mean penetration
        # over the experiment's burn-in of rounds // 10
        family, p, rounds, burn_in = ExpanderFamily(n=60, d=30), 0.5, 3000, 300
        report = expander_bound_experiment(family, p=p, seeds=range(40), lambda_target=0.4, rounds=rounds)
        kernel = np.array([o.time_avg_sigma for o in report.outcomes])
        direct = np.array(
            [reference_slot_sigma(family.n, o.k, p, rounds, burn_in, o.seed) for o in report.outcomes]
        )
        pooled = math.sqrt(kernel.var(ddof=1) / len(kernel) + direct.var(ddof=1) / len(direct))
        assert abs(kernel.mean() - direct.mean()) <= 4 * pooled

    def test_placement_fallback_is_greedy_independent_set_short_of_k(self):
        flags = set()
        for family, target in [(ExpanderFamily(n=60, d=30), 0.4), (ExpanderFamily(n=10, d=9), 0.2)]:
            report = expander_bound_experiment(family, p=1.0, seeds=range(3), lambda_target=target, rounds=100)
            for o in report.outcomes:
                graph = generate_regular_expander(family.n, family.d, o.seed).graph
                assert o.placement_fallback == (len(greedy_independent_set(graph)) < o.k)
                flags.add(o.placement_fallback)
        assert flags == {False, True}  # the complete graph K_10 has k = 1
