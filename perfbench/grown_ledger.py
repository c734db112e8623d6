"""Workload ``grown_ledger``: the CLI pipeline and bulk replay of a grown log.

One round, at each of two ledger sizes, runs ``gpi sim grow --emit-ledger``
in-process, then ``ledger validate`` and ``ledger graph --type 3``, then the
library analysis the CLI lacks on the written log and its
``.registry.json``, then ``surety_violations`` and the three ``metrics``
commands on the edge list.  The unit op is a penetration query: the sigma
of the community at one ledger prefix, answered from the history and the
classification.  The queries are asked in four batches, one after each of
the last four stages, so that their percentiles sample several seconds of
the run rather than one burst of a fraction of a second.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

from gpi import cli
from gpi.community import EmptyCommunity, history_from_ledger, penetration
from gpi.ledger import CommunityAdd, CommunityRemove, Declare, read_log, serialize_log
from gpi.oracle import AgentRegistry, classify, surety_violations
from gpi.registry import provenance_chains
from gpi.surety import graph_at

from common import Abandon, Clock, median, run_cli, slope

# the README's `sim grow` configuration, at two run lengths
GROW = {"n0": 1000, "p": 0.5, "k": 20, "sybil_rate": 0.5}
SIZES = (("small", 1250), ("large", 5000))
QUERIES_PER_SIZE = 1000
SCALING_REPEATS = 3
ADVERSARY = "adversary"


class GrownLedger:
    name = "grown_ledger"
    min_rounds = 2  # a round takes about half of a 30 s run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cli_exit_codes: dict[str, list] = {}
        self.kept: dict[str, tuple] = {}

    def prepare(self, r: int) -> list[tuple[str, Path, int]]:
        """Write one sim config per size; the seed comes from the workload seed."""
        rng = np.random.default_rng([self.seed, r])
        out = []
        for tag, steps in SIZES:
            config = dict(GROW, steps=steps, burn_in=steps // 10, seed=int(rng.integers(1 << 31)))
            path = self.workdir / f"{tag}.config.json"
            path.write_text(json.dumps(config))
            out.append((tag, path, int(rng.integers(1 << 62))))
        return out

    def run_round(self, inputs, clock: Clock, tally) -> dict:
        facts: dict = {"events": {}, "bytes": {}, "expulsions": 0}
        for tag, config, qseed in inputs:
            with tally.section():
                self._one_size(tag, config, np.random.default_rng(qseed), clock, tally, facts)
        return facts

    def _cli(self, clock, tally, tag, command: str, argv: list[str]) -> str:
        with tally.op(f"cli {command} ({tag})"):
            code, out = clock(f"cli.{command.replace(' ', '_')}", run_cli, cli.main, argv, tag=tag)
            self.cli_exit_codes.setdefault(command, []).append(code)
            tally.expect(code == 0, f"gpi {' '.join(argv[:2])} ({tag}) exited {code}: {out[-300:]}")
            tally.feed(command, code, out)
            if code != 0:
                raise Abandon(command)
        return out

    def _one_size(self, tag, config, rng, clock, tally, facts) -> None:
        base = self.workdir / tag
        log, csv_path, edges = f"{base}.log", f"{base}.csv", f"{base}.edges"

        out = self._cli(clock, tally, tag, "sim grow",
                        ["sim", "grow", "--config", str(config), "--emit-ledger", log, "--out", csv_path])
        facts["expulsions"] += json.loads(out)["expulsions"]
        data = Path(log).read_bytes()
        n_lines = data.count(b"\n")

        summary = json.loads(self._cli(clock, tally, tag, "ledger validate", ["ledger", "validate", log]))
        with tally.op("validate summary"):
            tally.expect(summary.get("ok") is True and summary.get("events") == n_lines,
                         f"ledger validate ({tag}): {summary}")
        self._cli(clock, tally, tag, "ledger graph", ["ledger", "graph", log, "--type", "3", "--out", edges])
        edge_list = [tuple(line.split()) for line in Path(edges).read_text().splitlines()]

        # library analysis of the written log and its ground truth
        with tally.op("read_log"):
            ledger = clock("ledger.read_log", read_log, log, tag=tag)
            text = clock("ledger.serialize_log", serialize_log, ledger, tag=tag)
            tally.expect(text == data, f"serialize_log(parse_log(x)) != x ({tag})")
        n = len(ledger)
        facts["events"][tag] = n
        facts["bytes"][tag] = len(data)
        truth = Path(f"{log}.registry.json").read_text()
        raw_truth = json.loads(truth)
        registry = AgentRegistry.from_json(truth)
        sybils = _declared_sybils(ledger, raw_truth)
        replay = _replay(ledger, sybils)

        with tally.op("provenance_chains"):
            chains = clock("registry.provenance_chains", provenance_chains, ledger, tag=tag)
            tally.expect(len(chains) == summary.get("chains"), f"provenance_chains ({tag}) disagrees with validate")
        with tally.op("graph_at"):
            sizes = []
            for k in _quarters(n):
                sizes.append(len(clock("surety.graph_at", graph_at, ledger, k, 3, tag=tag).edges))
            tally.expect(sizes == sorted(sizes) and sizes[-1] == len(edge_list),
                         f"graph_at ({tag}): edge counts {sizes} vs edge list {len(edge_list)}")
        with tally.op("classify"):
            report = clock("oracle.classify", classify, ledger, registry, tag=tag)
            tally.expect({v.label for v in report.sybils} == sybils,
                         f"classify ({tag}): {len(report.sybils)} sybils, the run declared {len(sybils)}")
        with tally.op("history_from_ledger"):
            history = clock("community.history_from_ledger", history_from_ledger, ledger, tag=tag)
            tally.expect({v.label for v in history.final} == replay["final"],
                         f"history_from_ledger ({tag}): final community differs from the replay")

        last = Path(csv_path).read_text().splitlines()[-1].split(",")
        final_size, final_sybils = int(last[1]), int(last[2])
        with tally.op("final sigma"):
            full = clock("community.penetration", penetration, history.final, report, tag=tag)
            tally.expect(full.size == final_size and full.sigma == Fraction(final_sybils, final_size),
                         f"penetration ({tag}): {full.sybil_count}/{full.size} vs the run's "
                         f"{final_sybils}/{final_size}")

        def violations() -> None:
            with tally.op("surety_violations"):
                violated = clock("oracle.surety_violations", surety_violations, ledger, registry, 3, tag=tag)
                expected = {seq for seq, to_label in replay["type3_pledges"] if to_label in sybils}
                tally.expect({seq for seq, _ in violated} == expected,
                             f"surety_violations ({tag}): {len(violated)} violated, expected {len(expected)}")
                tally.feed(len(violated))

        stages = [
            lambda: self._metric(clock, tally, tag, "conductance", edges, lambda phi: 0 <= phi["phi_float"] <= 1),
            violations,
            lambda: self._metric(clock, tally, tag, "lambda", edges, _lambda_ok),
            lambda: self._metric(clock, tally, tag, "mis", edges, lambda mis: _independent(mis, edge_list)),
        ]
        prefixes = _quarters(n)[:3] + [int(k) for k in rng.integers(0, n + 1, QUERIES_PER_SIZE - 3)]
        for stage, batch in zip(stages, np.array_split(prefixes, len(stages))):
            with tally.section():  # the stages feed nothing below, so a failure skips only its own checks
                stage()
            for k in batch:
                with tally.op("penetration query"):
                    self._penetration_query(int(k), history, report, replay, clock, tally, tag)
        tally.feed(tag, n, len(chains), sizes, len(report.sybils), len(history.final))
        self.kept[tag] = (ledger, registry)

    def _metric(self, clock, tally, tag, command: str, edges: str, check) -> None:
        out = json.loads(self._cli(clock, tally, tag, f"metrics {command}", ["metrics", command, "--in", edges]))
        with tally.op(f"{command} output"):
            tally.expect(check(out), f"metrics {command} ({tag}): {str(out)[:300]}")

    @staticmethod
    def _penetration_query(k, history, report, replay, clock, tally, tag) -> None:
        size, sybil_count = replay["size"][k], replay["sybils"][k]
        try:
            got = clock("community.penetration", penetration, history.snapshots[k], report, tag=tag)
        except EmptyCommunity:
            tally.expect(size == 0, f"penetration at prefix {k} ({tag}): raised on {size} members")
        else:
            tally.expect((got.size, got.sybil_count) == (size, sybil_count),
                         f"penetration at prefix {k} ({tag}): {got.sybil_count}/{got.size}, "
                         f"replay {sybil_count}/{size}")
        finally:
            tally.latencies_ns.append(clock.last_ns)

    def layer_metrics(self, tracer, facts: dict, tally) -> dict:
        ev = facts["events"]
        if set(ev) != {"small", "large"}:
            return {}
        n_small, n_large = ev["small"], ev["large"]
        scaled = self._scaling_pass()

        def at(name: str, tag: str = "large") -> float:
            return tracer.total(name, tag)

        def slope_of(name: str) -> float:
            return slope(scaled[name, "small"], scaled[name, "large"], n_small, n_large)

        ledger, registry = self.kept["large"]
        return {
            "ledger.serialize_log_us": at("ledger.serialize_log") / n_large * 1e6,
            "ledger.parse_log_us": scaled["ledger.read_log", "large"] / n_large * 1e6,
            "ledger.bytes_per_event": facts["bytes"]["large"] / n_large,
            "ledger.parse_log_slope": slope_of("ledger.read_log"),
            "registry.provenance_chains_s": scaled["registry.provenance_chains", "large"],
            "registry.provenance_chains_slope": slope_of("registry.provenance_chains"),
            "oracle.classify_s": scaled["oracle.classify", "large"],
            "oracle.classify_slope": slope_of("oracle.classify"),
            "oracle.surety_violations_s": scaled["oracle.surety_violations", "large"],
            "oracle.surety_violations_slope": slope_of("oracle.surety_violations"),
            "oracle.classify_peak_mb": _peak_mb(classify, ledger, registry),
            "surety.graph_at_s": scaled["surety.graph_at", "large"],
            "surety.graph_at_slope": slope_of("surety.graph_at"),
            "community.history_from_ledger_s": scaled["community.history_from_ledger", "large"],
            "community.history_from_ledger_slope": slope_of("community.history_from_ledger"),
            "community.history_from_ledger_peak_mb": _peak_mb(history_from_ledger, ledger),
            "community.penetration_us": median(tracer.durations("community.penetration", "large")) * 1e6,
            "sim.expulsions": facts["expulsions"],
            "cli.sim_grow_s": at("cli.sim_grow"),
            "cli.ledger_validate_s": at("cli.ledger_validate"),
            "cli.ledger_graph_s": at("cli.ledger_graph"),
            "cli.metrics_lambda_dense_s": at("cli.metrics_lambda", "small"),
            "cli.metrics_lambda_lanczos_s": at("cli.metrics_lambda"),
            "cli.metrics_conductance_s": at("cli.metrics_conductance"),
            "cli.metrics_mis_s": at("cli.metrics_mis"),
        }

    def _scaling_pass(self) -> dict[tuple[str, str], float]:
        """Median seconds of each size-dependent library call at both sizes.

        Each call is repeated, alternating the sizes, so that one slow
        moment of the machine does not decide a slope.  A full collection
        before each call keeps the garbage of earlier calls, and of the
        kept ledgers, from being collected inside a short small-size call.
        """
        calls = {
            "ledger.read_log": lambda tag, ledger, registry: read_log(self.workdir / f"{tag}.log"),
            "registry.provenance_chains": lambda tag, ledger, registry: provenance_chains(ledger),
            "surety.graph_at": lambda tag, ledger, registry: [graph_at(ledger, k, 3) for k in _quarters(len(ledger))],
            "oracle.classify": lambda tag, ledger, registry: classify(ledger, registry),
            "oracle.surety_violations": lambda tag, ledger, registry: surety_violations(ledger, registry, 3),
            "community.history_from_ledger": lambda tag, ledger, registry: history_from_ledger(ledger),
        }
        samples: dict[tuple[str, str], list[int]] = {}
        for _ in range(SCALING_REPEATS):
            for name, call in calls.items():
                for tag in ("small", "large"):
                    gc.collect()
                    t0 = time.perf_counter_ns()
                    call(tag, *self.kept[tag])
                    samples.setdefault((name, tag), []).append(time.perf_counter_ns() - t0)
        return {key: median(ns) / 1e9 for key, ns in samples.items()}


def _lambda_ok(lam: dict) -> bool:
    return (-1 - 1e-9 <= lam["lambda2_signed"] <= 1 + 1e-9
            and lam["cheeger_lower"] <= lam["cheeger_upper"] + 1e-12)


def _independent(mis: dict, edge_list: list[tuple[str, ...]]) -> bool:
    chosen = set(mis["vertices"])
    return len(chosen) == mis["size"] and not any(a in chosen and b in chosen for a, b in edge_list)


def _quarters(n: int) -> list[int]:
    return [n // 4, n // 2, 3 * n // 4, n]


def _peak_mb(fn, *args) -> float:
    """Peak traced allocation of one call, in MiB, in a pass of its own."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _declared_sybils(ledger, raw_truth: dict) -> set[str]:
    """Labels the adversary declared, except its first (genuine) declaration."""
    actor = raw_truth["actor"]
    declared = [ev.body.v.label for ev in ledger
                if isinstance(ev.body, Declare) and actor.get(str(ev.seq)) == ADVERSARY]
    return set(declared[1:])


def _replay(ledger, sybils: set[str]) -> dict:
    """Community size and sybil count after every prefix, by a plain replay."""
    members: set[str] = set()
    size, count, type3 = [0], [0], []
    running = 0
    for ev in ledger:
        body = ev.body
        if isinstance(body, CommunityAdd) and body.v.label not in members:
            members.add(body.v.label)
            running += body.v.label in sybils
        elif isinstance(body, CommunityRemove) and body.v.label in members:
            members.discard(body.v.label)
            running -= body.v.label in sybils
        elif getattr(body, "surety_type", None) == 3:
            type3.append((ev.seq, body.to_v.label))
        size.append(len(members))
        count.append(running)
    return {"size": size, "sybils": count, "final": members, "type3_pledges": type3}
