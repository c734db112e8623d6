"""Op accounting, the in-process CLI runner and small statistics helpers."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import signal
import statistics
import time

# A CLI call normally takes a few seconds; one that runs past this limit
# fails its op, so that a stuck call cannot stretch a run without bound.
CLI_LIMIT_S = 30


class Abandon(Exception):
    """An op failed; the rest of the enclosing section depends on it."""


class Tally:
    """Ops attempted and failed, unit-op latencies and an output digest.

    An op is one call into gpi together with the checks on its result.  It
    fails when the call raises, when a CLI command exits nonzero, or when a
    check on its output does not hold.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ns: list[int] = []
        self.digest = hashlib.sha256()
        self._op_failed = False

    def _fail(self, what: str) -> None:
        if not self._op_failed:
            self._op_failed = True
            self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        self._op_failed = False
        try:
            yield
        except Abandon:
            raise
        except Exception as exc:
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
            raise Abandon(name) from exc

    def expect(self, ok: bool, what: str) -> None:
        """A check inside the current op; a false one fails the op."""
        if not ok:
            self._fail(what)

    @contextlib.contextmanager
    def section(self):
        """Skip the rest of a section once an op in it is abandoned."""
        try:
            yield
        except Abandon:
            pass

    def feed(self, *parts) -> None:
        for part in parts:
            self.digest.update(repr(part).encode() + b"\x00")


class OpTimeout(Exception):
    """A call ran past its time limit."""


def _expire(signum, frame):
    raise OpTimeout(f"no result within {CLI_LIMIT_S} s")


def run_cli(main, argv: list[str]) -> tuple[int | None, str]:
    """Call ``gpi.cli.main`` in-process; returns (exit code, stdout text).

    An exception escaping ``main``, including the time limit running out,
    is returned as exit code None, so the caller counts it as a failed op
    like any nonzero exit.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CLI_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught error breaks the CLI's exit contract
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


class Clock:
    """Times the calls into gpi made during one round.

    Each call adds its duration to ``ns`` (the round's timed work) and, when
    the tracer is on, records a span named after the layer and function.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.ns = 0
        self.last_ns = 0

    def __call__(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            with self.tracer.span(name, tag):
                return fn(*args, **kwargs)
        finally:
            self.last_ns = time.perf_counter_ns() - t0
            self.ns += self.last_ns


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def slope(t_small: float, t_large: float, n_small: int, n_large: int) -> float:
    """Log-log slope of time against input size between two sizes."""
    if min(t_small, t_large) <= 0 or n_small == n_large:
        return 0.0
    return math.log(t_large / t_small) / math.log(n_large / n_small)
