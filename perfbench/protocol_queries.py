"""Workload ``protocol_queries``: many small ed25519 ledgers, written then queried.

One round builds a batch of mixed-event ledgers (sizes log-uniform from 20
to 800 events) and, per ledger: signs and appends every event, serializes
and re-parses the log, derives the oracle-free and oracle state, answers a
seeded sample of per-item queries, and feeds two tampered copies to the
parser, which must reject them at the right place.  The unit op is one
per-item query.
"""

from __future__ import annotations

import numpy as np

from gpi.ledger import (
    Ledger,
    ParseError,
    Pledge,
    Reset,
    Update,
    VerifyError,
    append_event,
    parse_log,
    serialize_log,
)
from gpi.oracle import classify, pledge_violation, surety_violations
from gpi.registry import (
    NULLIFIED,
    RESET_PENDING,
    current_identifiers,
    is_valid_update,
    provenance_chains,
    reset_status,
)
from gpi.surety import graph_at, migrate_edges

from common import Clock, median
from scenario import plan, stratified_sizes

SCHEME = "ed25519"
LEDGERS_PER_ROUND = 8
MIN_EVENTS, MAX_EVENTS = 20, 800
ITEMS_PER_LEDGER = 48  # sampled pledges, updates and reset targets per ledger


class ProtocolQueries:
    name = "protocol_queries"
    min_rounds = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        sizes = stratified_sizes(rng, LEDGERS_PER_ROUND, MIN_EVENTS, MAX_EVENTS)
        return [
            (plan(rng, n, SCHEME, f"pq:{self.seed}:{r}:{i}"), int(rng.integers(1 << 62)))
            for i, n in enumerate(sizes)
        ]

    def run_round(self, scripts, clock: Clock, tally) -> dict:
        facts = {"events": 0, "bytes": 0, "queries": 0, "rejects_ok": 0}
        for script, qseed in scripts:
            with tally.section():
                self._one_ledger(script, np.random.default_rng(qseed), clock, tally, facts)
        return facts

    def _one_ledger(self, script, rng, clock, tally, facts) -> None:
        n = len(script.bodies)
        registry = script.registry
        with tally.op("build"):
            ledger = Ledger()
            for body, kp in zip(script.bodies, script.signers):
                ledger = clock("ledger.append_event", append_event, ledger, body, kp)

        with tally.op("serialize+parse"):
            data = clock("ledger.serialize_log", serialize_log, ledger)
            parsed = clock("ledger.parse_log", parse_log, data, tag="intact")
            tally.expect(parsed == ledger and serialize_log(parsed) == data,
                         "serialize_log(parse_log(x)) != x")
        facts["events"] += n
        facts["bytes"] += len(data)
        tally.feed(data)

        with tally.op("state"):
            chains = clock("registry.provenance_chains", provenance_chains, parsed)
            current = clock("registry.current_identifiers", current_identifiers, parsed)
            report = clock("oracle.classify", classify, parsed, registry)
            violations = {
                t: clock("oracle.surety_violations", surety_violations, parsed, registry, t)
                for t in (1, 2, 3, 4)
            }
            valid = [c for c in chains if c.valid]
            edges = []
            for t in (1, 2, 3, 4):
                graph = clock("surety.graph_at", graph_at, parsed, n, t)
                edges.append(len(clock("surety.migrate_edges", migrate_edges, graph, valid).edges))
            tally.feed(len(chains), len(current), len(report.sybils), len(report.byzantine),
                       sorted(len(v) for v in violations.values()), edges)

        for kind, seq in self._sample(parsed, rng):
            with tally.op(f"query {kind}"):
                before = clock.ns
                self._query(kind, seq, parsed, registry, violations, clock, tally)
                tally.latencies_ns.append(clock.ns - before)
            facts["queries"] += 1

        facts["rejects_ok"] += self._tampered(data, n, rng, clock, tally)

    @staticmethod
    def _sample(ledger, rng) -> list[tuple[str, int]]:
        items = [
            ev.seq for ev in ledger if isinstance(ev.body, (Pledge, Update, Reset))
        ]
        picked = rng.choice(len(items), size=min(ITEMS_PER_LEDGER, len(items)), replace=False)
        out = []
        for i in sorted(picked):
            seq = items[int(i)]
            body = ledger[seq].body
            if isinstance(body, Pledge):
                out.append(("pledge", seq))
            elif isinstance(body, Update):
                out.append(("update", seq))
            else:
                out.append(("reset", seq))
        return out

    @staticmethod
    def _query(kind, seq, ledger, registry, violations, clock, tally) -> None:
        """One per-item query: every gpi call it makes counts toward its latency."""
        if kind == "pledge":
            own = ledger[seq].body.surety_type
            at_own = clock("oracle.pledge_violation", pledge_violation, ledger, registry, seq, own)
            at_top = clock("oracle.pledge_violation", pledge_violation, ledger, registry, seq, 4)
            tally.expect(at_own is None or at_top is not None,
                         f"pledge {seq}: violated at type {own} but not at type 4")
            listed = {s for s, _ in violations[own]}
            tally.expect((at_own is not None) == (seq in listed),
                         f"pledge {seq}: pledge_violation disagrees with surety_violations")
            tally.feed(seq, at_own, at_top)
        elif kind == "update":
            n = len(ledger)
            answers = []
            for k in sorted({seq + 1, (seq + 1 + n) // 2, n}):
                prefix = ledger.prefix(k)
                answers.append(clock("registry.is_valid_update", is_valid_update, prefix, seq))
            tally.expect(len(set(answers)) == 1, f"update {seq}: validity changes across prefixes")
            tally.feed(seq, answers)
        else:
            target = ledger[seq].body.old_v
            status = clock("registry.reset_status", reset_status, ledger, target)
            tally.expect(status.state in (NULLIFIED, RESET_PENDING),
                         f"reset target of {seq} has status {status.state}")
            tally.feed(seq, status.state)

    @staticmethod
    def _tampered(data: bytes, n: int, rng, clock, tally) -> int:
        """Flip one signature byte, then drop one line; count correct rejections."""
        lines = data.split(b"\n")
        ok = 0
        s = int(rng.integers(n))
        line = lines[s]
        at = line.index(b'"sig":"') + len(b'"sig":"')
        flipped = b"0" if line[at:at + 1] != b"0" else b"1"
        bad = b"\n".join(lines[:s] + [line[:at] + flipped + line[at + 1:]] + lines[s + 1:])
        with tally.section(), tally.op("reject flipped signature"):
            try:
                clock("ledger.parse_log", parse_log, bad, tag="tampered")
                tally.expect(False, f"flipped signature at seq {s} accepted")
            except VerifyError as exc:
                tally.expect(exc.seq == s, f"flipped signature at seq {s} rejected at seq {exc.seq}")
                ok += exc.seq == s

        j = int(rng.integers(n - 1))
        gap = b"\n".join(lines[:j] + lines[j + 1:])
        with tally.section(), tally.op("reject seq gap"):
            try:
                clock("ledger.parse_log", parse_log, gap, tag="tampered")
                tally.expect(False, f"seq gap at line {j + 1} accepted")
            except ParseError as exc:
                tally.expect(exc.line == j + 1, f"seq gap at line {j + 1} rejected at line {exc.line}")
                ok += exc.line == j + 1
        return ok

    def layer_metrics(self, tracer, facts: dict, tally) -> dict:
        """Per-layer metrics from the traced round."""
        events = max(facts["events"], 1)

        def per_call_us(name: str) -> float:
            return median(tracer.durations(name)) * 1e6

        def per_event_us(name: str, tag=None) -> float:
            return tracer.total(name, tag) / events * 1e6

        return {
            "ledger.append_event_us": per_event_us("ledger.append_event"),
            "ledger.rejects_ok": facts["rejects_ok"],
            "ledger.serialize_log_us": per_event_us("ledger.serialize_log"),
            "ledger.parse_log_us": per_event_us("ledger.parse_log", "intact"),
            "ledger.bytes_per_event": facts["bytes"] / events,
            "registry.is_valid_update_us": per_call_us("registry.is_valid_update"),
            "registry.reset_status_us": per_call_us("registry.reset_status"),
            "registry.current_identifiers_us": per_call_us("registry.current_identifiers"),
            "oracle.pledge_violation_us": per_call_us("oracle.pledge_violation"),
            "surety.migrate_edges_us": per_call_us("surety.migrate_edges"),
        }
