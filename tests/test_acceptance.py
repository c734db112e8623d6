"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a ``[criterion N] PASS/FAIL`` line with the measured
quantities (visible with ``pytest -s`` and in failure output).  Seeds are
fixed, so every run is bit-reproducible.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gpi.community import random_lemma_instance, theorem2_check
from gpi.ledger import Pledge, Update, parse_log, serialize_log
from gpi.metrics import (
    Graph,
    conductance_bounds,
    conductance_exact,
    generate_regular_expander,
    max_independent_set,
    second_eigenvalue,
)
from gpi.oracle import AgentRegistry, chain_has_single_actor, classify, pledge_violation, surety_violations
from gpi.registry import analyze, is_valid_update, provenance_chains
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

from helpers import bf_classify, random_scenario, timing_scenarios

DATA = Path(__file__).parent / "data"
EIG_TOL = 1e-9


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_steady_state_formula():
    """Scalar-chain Monte Carlo against the analytic root and its bound."""
    n, p, k = 10000, 0.5, 100
    started = time.time()
    result = run_markov_component(n, p, k, steps=10**6, seed=2024)
    elapsed = time.time() - started
    root = steady_state_root(n, p, k)
    bound = math.sqrt(n / (p * k))
    rel_err = abs(result.mean - root) / root
    matched = moment_matched_component_size(result, k)
    ok = rel_err <= 0.10 and root <= bound and elapsed < 30
    report(
        1,
        ok,
        f"mc_mean={result.mean:.4f} root={root:.4f} rel_err={rel_err:.3f} "
        f"(tolerance 0.10), moment_matched={matched:.4f}, bound={bound:.4f}, "
        f"runtime={elapsed:.1f}s",
    )
    assert root <= bound, "analytic root must not exceed sqrt(n/(pk))"
    assert elapsed < 30, "runtime budget exceeded"
    # The chain is implemented exactly as specified (reset w.p. p*x/n, else
    # grow by one w.p. 1/k).  Its stationary arithmetic mean provably sits
    # near 0.78 * root: in stationarity E[x^2] + E[x]/k = n/(pk) holds, so
    # the root matches the second moment, not the mean (the moment-matched
    # figure above lands on the root; the plain mean cannot).  The 10%
    # tolerance on the plain mean is therefore unattainable; the assertion
    # is kept as specified rather than weakened.
    assert rel_err <= 0.10, (
        f"time-averaged component size {result.mean:.4f} differs from the "
        f"analytic root {root:.4f} by {rel_err:.1%} (> 10%); the root is a "
        f"drift fixed point, matched by the chain's moments "
        f"(moment-matched size {matched:.4f}) but not by its mean"
    )


def test_criterion_2_total_sybil_bound():
    """Agent-based runs stay under sqrt(n*k/p) * 1.15 in every seed."""
    k, p = 20, 0.5
    started = time.time()
    worst = 0.0
    for seed in range(20):
        config = SimConfig(
            n0=1000, p=p, k=k, sybil_rate=0.5, steps=10**5, burn_in=10**4, seed=seed
        )
        result = run_agent_sim(config)
        n_bar = result.time_avg_size.mean
        bound = math.sqrt(n_bar * k / p) * 1.15
        ratio = result.time_avg_sybils.mean / bound
        worst = max(worst, ratio)
        assert result.time_avg_sybils.mean <= bound, (
            f"seed {seed}: {result.time_avg_sybils.mean:.1f} > {bound:.1f}"
        )
    elapsed = time.time() - started
    report(2, elapsed < 300, f"20 seeds, worst sybils/bound={worst:.3f}, runtime={elapsed:.0f}s")
    assert elapsed < 300, "runtime budget exceeded"


def test_criterion_3_expander_penetration_bound():
    """Measured lambda <= 0.09, p=1: penetration <= 0.3 on all 100 seeds."""
    reportx = expander_bound_experiment(
        ExpanderFamily(n=500, d=300),
        p=1.0,
        seeds=range(100),
        lambda_target=0.09,
        rounds=20000,
    )
    violations = [o for o in reportx.outcomes if o.time_avg_sigma > reportx.bound]
    report(
        3,
        not violations,
        f"bound={reportx.bound:.3f} max_sigma={reportx.max_sigma:.3f} "
        f"violations={len(violations)}/100",
    )
    assert reportx.bound == pytest.approx(0.3)
    assert not violations, f"{len(violations)} seeds exceeded the bound"


def test_criterion_4_capped_admission_mean():
    """Per-step mean penetration stays below cap + 3 stderr at every step."""
    cap, steps, n_seeds = 0.1, 10**4, 50
    series = np.vstack(
        [capped_admission_sim(cap, steps, seed=s).penetration for s in range(n_seeds)]
    )
    mean = series.mean(axis=0)
    stderr = series.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    excess = mean - (cap + 3 * stderr)
    worst = float(excess.max())
    report(4, worst <= 0, f"50 seeds, worst step excess={worst:.5f} (<= 0 required)")
    assert worst <= 0, f"step {int(excess.argmax())} exceeded cap + 3*stderr"


def test_criterion_5_growth_checker_soundness():
    """10^4 all-pass instances with exact conductance: conclusion always holds."""
    started = time.time()
    checked = index = 0
    while checked < 10**4:
        inst = random_lemma_instance(seed=777, index=index)
        index += 1
        if inst is None:
            continue
        result = theorem2_check(
            inst.graph, inst.community, inst.grown, inst.params, inst.byzantine
        )
        if not result.guarantee or result.conductance_mode != "exact":
            continue
        actual = Fraction(len(inst.grown & inst.byzantine), len(inst.grown))
        assert actual <= inst.params.beta, (
            f"instance {index - 1}: byzantine share {actual} exceeds beta "
            f"{inst.params.beta} despite an all-pass check"
        )
        checked += 1
    elapsed = time.time() - started
    report(5, elapsed < 120, f"{checked} instances, zero conclusion failures, runtime={elapsed:.0f}s")
    assert elapsed < 120, "runtime budget exceeded"


def test_criterion_6_spectral_consistency():
    """Cheeger sandwich on 500 random graphs plus frozen exact values."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 500:
        n = int(rng.integers(3, 13))
        p_edge = 0.25 + 0.55 * float(rng.random())
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
        graph = Graph.from_edges(n, edges)
        if not graph.is_connected() or (graph.degrees == 0).any():
            continue
        lower, upper = conductance_bounds(graph)
        phi = float(conductance_exact(graph).value)
        assert lower - EIG_TOL <= phi <= upper + EIG_TOL, (
            f"graph #{checked}: {lower} <= {phi} <= {upper} violated"
        )
        checked += 1

    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert conductance_exact(k4).value == Fraction(2, 3)
    assert conductance_exact(c6).value == Fraction(1, 3)
    assert abs(second_eigenvalue(k4) - 1 / 3) <= EIG_TOL
    assert abs(second_eigenvalue(petersen) - 2 / 3) <= EIG_TOL
    report(6, True, "500 sandwich checks and 4 frozen exact values hold")


def test_criterion_7_independent_set_bound():
    """Exact max independent set <= lambda(G) * n on d-regular graphs."""
    cases = 0
    for n, d in [(10, 3), (12, 3), (16, 4), (20, 3), (24, 4), (30, 3), (34, 4), (40, 3), (40, 5)]:
        for seed in (0, 1, 2):
            sample = generate_regular_expander(n, d, seed=seed)
            if not sample.graph.is_connected():
                continue
            mis = max_independent_set(sample.graph)
            assert mis.exact
            assert len(mis.vertices) <= sample.lam * n + EIG_TOL, (
                f"n={n} d={d} seed={seed}: alpha={len(mis.vertices)} "
                f"lambda*n={sample.lam * n:.3f}"
            )
            cases += 1
    report(7, True, f"{cases} connected regular graphs within the bound")
    assert cases >= 20


def _check_timing_vectors() -> None:
    expected = {
        "timing_early_sybil": {3: {(3, "target-sybil")}, 4: {(4, "target-sybil")}},
        "timing_late_declaration": {3: set(), 4: {(3, "later-declaration")}},
        "timing_honest_pair": {1: set(), 2: set(), 3: set(), 4: set()},
    }
    scenarios = timing_scenarios()
    for name, by_type in expected.items():
        golden = (DATA / f"{name}.log").read_bytes()
        assert serialize_log(scenarios[name].ledger) == golden, f"{name} drifted"
        ledger = parse_log(golden)
        registry = AgentRegistry.from_json((DATA / f"{name}.registry.json").read_text())
        for surety_type, expected_set in by_type.items():
            got = surety_violations(ledger, registry, surety_type)
            assert got == frozenset(expected_set), (name, surety_type, got)


def test_criterion_8_protocol_property_suite():
    """10^4 fuzzed ledgers: partitions, monotonicity, oracles, round trips."""
    started = time.time()
    _check_timing_vectors()
    obs1_checked = 0
    for seed in range(10**4):
        sc = random_scenario(seed)
        ledger = sc.ledger
        a = analyze(ledger)
        chains = provenance_chains(ledger)

        covered = sorted(s for c in chains for s in c.links)
        assert covered == sorted(a.introduced_at), f"seed {seed}: partition broken"

        data = serialize_log(ledger)
        again = parse_log(data)
        assert again == ledger and serialize_log(again) == data, f"seed {seed}: round trip"

        if seed % 2 == 0:
            rep = classify(ledger, sc.registry)
            genuine, sybils, corrupt = bf_classify(list(ledger), sc.registry)
            assert rep.genuine == genuine and rep.sybils == sybils, f"seed {seed}"
            assert rep.corrupt_agents == corrupt, f"seed {seed}"

        if seed % 5 == 0:
            for ev in ledger:
                if isinstance(ev.body, Update) and ev.seq in a.introduced_at:
                    full = a.update_valid.get(ev.seq, False)
                    for k in {ev.seq + 1, (ev.seq + 1 + len(ledger)) // 2, len(ledger)}:
                        assert is_valid_update(ledger.prefix(k), ev.seq) == full

        if seed % 5 == 0:
            compromised = sc.registry.compromised_identifiers()
            good_chains = [
                c
                for c in chains
                if c.valid
                and chain_has_single_actor(c, sc.registry)
                and not (set(c.identifiers) & compromised)
            ]
            members = [set(c.identifiers) for c in good_chains]
            for i in range(len(good_chains)):
                for j in range(i + 1, len(good_chains)):
                    outcomes = set()
                    for ev in ledger:
                        body = ev.body
                        if not (isinstance(body, Pledge) and body.surety_type == 2):
                            continue
                        if (body.from_v in members[i] and body.to_v in members[j]) or (
                            body.from_v in members[j] and body.to_v in members[i]
                        ):
                            outcomes.add(
                                pledge_violation(ledger, sc.registry, ev.seq, 2) is not None
                            )
                    assert len(outcomes) <= 1, f"seed {seed}: mixed cross-chain violations"
                    if outcomes:
                        obs1_checked += 1
    elapsed = time.time() - started
    report(
        8,
        True,
        f"10^4 fuzzed ledgers, {obs1_checked} cross-chain pledge groups, runtime={elapsed:.0f}s",
    )
    assert obs1_checked > 200
