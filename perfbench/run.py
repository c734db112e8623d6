"""gpi-lab benchmark: one workload, one process, a closed loop with one caller.

    python3 perfbench/run.py --workload grown_ledger --seed 1 --seconds 30 --trace 0

Workloads: grown_ledger, protocol_queries, guarantee_kernels (see NOTES.md).
A run repeats rounds of its workload, each built from the seed and the round
number, while another round still fits in ``--seconds``; the workload's
minimum number of rounds always runs.  Every call into gpi is timed and
every output is checked.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` the run times one round untraced and
the same round again with spans around every call into gpi and around every
sign and verify, then reports the per-layer metrics.  Full results, the run
context and (traced) the spans go to ``.perfbench/results/`` under the
checkout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("grown_ledger", "protocol_queries", "guarantee_kernels")
LAYERS = ("keys", "ledger", "registry", "oracle", "surety", "metrics", "community", "sim", "cli")
SETUP_PROBES = 5



def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _load_gpi() -> None:
    """Import gpi from this checkout's ``src``, or exit 2 without a result."""
    if not (SRC / "gpi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gpi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpi

    if Path(gpi.__file__).resolve().parent != SRC / "gpi":
        sys.exit(f"perfbench: imported gpi from {gpi.__file__}, not from {SRC}")


def _workload(name: str, seed: int, workdir: Path):
    if name == "grown_ledger":
        from grown_ledger import GrownLedger as cls
    elif name == "protocol_queries":
        from protocol_queries import ProtocolQueries as cls
    else:
        from guarantee_kernels import GuaranteeKernels as cls
    return cls(seed, workdir)


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args) -> dict:
    import cryptography
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
        "git_sha": _git_sha(),
    }


def _machine_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    Stored in the context only, so a reader can tell a slow machine from a
    slow program when runs disagree.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    return sorted(samples)[2]


class SetupProbes:
    """Process start to the first timed call, measured in fresh processes.

    The machine's speed drifts over tens of seconds, so the samples are
    spread over the run: ``due(progress)`` takes the samples owed by that
    share of the run's budget, between rounds, while the parent only waits.
    """

    def __init__(self, args):
        self.args = args
        self.samples: list[float] = []

    def due(self, progress: float) -> None:
        while len(self.samples) < min(SETUP_PROBES, 1 + int(progress * SETUP_PROBES)):
            self.samples.append(self._probe())

    def _probe(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", self.args.workload, "--seed",
             str(self.args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            seconds = time.perf_counter() - t0
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed with code {child.returncode}")
        return seconds


def _run_rounds(wl, tally, tracer, budget_s: float, max_rounds: int | None = None, setup=None):
    """Rounds while another fits in the budget; returns per-round seconds and facts.

    A round's seconds are the time spent inside calls into gpi.  Whether
    another round fits is judged on the rounds' elapsed time, checks and
    input generation included.  The workload's ``min_rounds`` always run,
    so that a run has enough unit ops for its percentiles.  ``setup``, if
    given, takes its set-up samples between rounds.
    """
    from common import Clock, median

    walls, elapsed, facts = [], [], []
    t0 = time.perf_counter()
    while max_rounds is None or len(walls) < max_rounds:
        if setup is not None:
            setup.due((time.perf_counter() - t0) / budget_s)
        started = time.perf_counter()
        inputs = wl.prepare(len(walls))
        clock = Clock(tracer)
        facts.append(wl.run_round(inputs, clock, tally))
        walls.append(clock.ns / 1e9)
        elapsed.append(time.perf_counter() - started)
        if len(walls) >= wl.min_rounds and time.perf_counter() - t0 + median(elapsed) > budget_s:
            break
    return walls, facts


def _keys_metrics(tracer) -> dict[str, float]:
    """Median sign and verify time and the verify count, from the scheme spans."""
    from common import median

    if not tracer.counts["keys.verify_calls"]:
        return {}
    return {
        "keys.sign_us": median(tracer.durations("keys.sign")) * 1e6,
        "keys.verify_us": median(tracer.durations("keys.verify")) * 1e6,
        "keys.verify_calls": tracer.counts["keys.verify_calls"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_gpi()
    from common import Tally, median, percentile
    from spans import Tracer, traced_schemes

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        wl = _workload(args.workload, args.seed, Path(work))
        if args.setup_probe:
            wl.prepare(0)
            print("ready", flush=True)
            return 0
        own_setup_s = time.perf_counter() - STARTED
        tally = Tally()
        context = _context(args)
        context["machine_ms_before"] = _machine_ms()
        if args.trace == 0:
            setup = SetupProbes(args)
            walls, _ = _run_rounds(wl, tally, Tracer(False), args.seconds, setup=setup)
            setup.due(1.0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lat_ms = [ns / 1e6 for ns in tally.latencies_ns]
            values = {
                "wall_s": median(walls),
                "setup_s": median(setup.samples),
                "peak_rss_mb": peak_rss_mb,
                "op_p50_ms": percentile(lat_ms, 50),
                "op_p99_ms": percentile(lat_ms, 99),
            }
            units = _units("end_to_end")
            context.update(rounds=len(walls), round_wall_s=walls, setup_samples_s=setup.samples,
                           own_setup_s=own_setup_s, op_count=len(lat_ms))
        else:
            base_walls, _ = _run_rounds(wl, tally, Tracer(False), args.seconds, max_rounds=1)
            tracer = Tracer(True, ops=tally)
            with traced_schemes(tracer):
                traced_walls, facts = _run_rounds(wl, tally, tracer, args.seconds, max_rounds=1)
            busy = tracer.self_times()
            values = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in LAYERS}
            values.update(_keys_metrics(tracer))
            values.update(wl.layer_metrics(tracer, facts[0], tally))
            values["trace.overhead_frac"] = traced_walls[0] / base_walls[0] - 1
            units = _units("per_layer")
            missing = sorted(set(units) - set(values))
            # a metric whose layer call this workload does not make reads 0
            values.update({name: 0 for name in missing})
            context.update(untraced_wall_s=base_walls[0], traced_wall_s=traced_walls[0],
                           not_exercised=missing, spans=len(tracer.spans),
                           **{"trace.overhead_frac": values["trace.overhead_frac"]})
            tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        failed_frac = tally.failed / max(tally.attempted, 1)
        context["machine_ms_after"] = _machine_ms()
        context.update(attempted=tally.attempted, failed=tally.failed, failed_ops_frac=failed_frac,
                       errors=tally.errors, digest=tally.digest.hexdigest(),
                       cli_exit_codes=getattr(wl, "cli_exit_codes", {}))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    (OUT / "results").mkdir(exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"context": context, **result}, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ops_frac':42s} {failed_frac:>16.6g} ({tally.failed}/{tally.attempted})")
    for err in tally.errors:
        print(f"FAILED: {err}")
    print("context " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
