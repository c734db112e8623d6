"""In-memory spans and counts recorded around the benchmark's calls into gpi.

A span is opened by the benchmark at a layer boundary (``<layer>.<function>``
or ``cli.<command>``).  Signing and verifying are reached only from inside
other layers, so a traced run registers wrapping schemes through
``gpi.keys.register_scheme`` (see ``traced_schemes``); their spans nest
under the ledger and CLI spans that caused them.  It records its start and end, the span that was
open when it started, the op id it belongs to and an optional tag (for
example the ledger size).  Spans are kept in memory and written out once,
when the run ends.  A disabled tracer records nothing and hands out one
shared no-op context, so untraced runs pay a method call per boundary.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from gpi.keys import get_scheme, register_scheme, registered_schemes

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "tag", "start", "end", "parent", "op", "index")

    def __init__(self, tracer: "Tracer", name: str, tag: str | None):
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.parent = tr._stack[-1].index if tr._stack else None
        self.op = tr.ops.attempted if tr.ops is not None else None
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr._stack.append(self)
        self.end = None
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        self.tracer._stack.pop()

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Spans and counts of one run; ``ops`` supplies the current op id."""

    def __init__(self, enabled: bool, ops=None):
        self.enabled = enabled
        self.ops = ops
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self._stack: list[_Span] = []

    def span(self, name: str, tag: str | None = None):
        return _Span(self, name, tag) if self.enabled else _NULL

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    # -- queries over the recorded spans ------------------------------------

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name and (tag is None or s.tag == tag)]

    def total(self, name: str, tag: str | None = None) -> float:
        return sum(self.durations(name, tag))

    def self_times(self) -> dict[str, float]:
        """Busy time per layer: each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        busy: Counter = Counter()
        for s in self.spans:
            busy[s.name.split(".", 1)[0]] += (s.end - s.start - child[s.index]) / 1e9
        return dict(busy)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.index, "name": s.name, "tag": s.tag, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "op": s.op,
                }) + "\n")


class TracedScheme:
    """A registered signature scheme with a span around each sign and verify.

    Verify calls are also counted, as ``keys.verify_calls``.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def generate(self, seed: bytes | None = None):
        return self.inner.generate(seed)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        with self.tracer.span("keys.sign"):
            return self.inner.sign(secret, message)

    def verify(self, key_bytes: bytes, message: bytes, sig: bytes) -> bool:
        self.tracer.count("keys.verify_calls")
        with self.tracer.span("keys.verify"):
            return self.inner.verify(key_bytes, message, sig)


@contextlib.contextmanager
def traced_schemes(tracer: Tracer):
    """Trace every registered scheme while the block runs, then restore them."""
    originals = [get_scheme(name) for name in registered_schemes()]
    for scheme in originals:
        register_scheme(TracedScheme(scheme, tracer))
    try:
        yield
    finally:
        for scheme in originals:
            register_scheme(scheme)
