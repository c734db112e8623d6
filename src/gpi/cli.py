"""Command-line entry point.

Subcommands map one-to-one onto the library: ledger inspection, graph
derivation, spectral metrics, the growth-guarantee checker and the
simulations.  Structured results go to JSON, time series to CSV, graphs
to plain edge lists; every file-producing invocation also writes a
``<out>.manifest.json`` recording the resolved configuration, seed, tool
version, the digest of every file it read and wrote, and when it started
and finished, so runs can be reproduced bit-exactly (timestamps aside).

Exit codes: 0 success, 1 validation failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, community, metrics, sim
from .ledger import LedgerError, ParseError, VerifyError, read_log, write_log
from .registry import provenance_chains
from .surety import graph_at


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(args: argparse.Namespace, beside: str, config: dict, seed: int | None,
                    inputs: list[str], outputs: list[str]) -> None:
    """Write ``<beside>.manifest.json`` for a command whose files all exist.

    It lists the SHA-256 of every file the command read and wrote; ``started``
    is the time ``main`` took before the command ran.
    """
    manifest = {
        "command": f"{args.command} {args.subcommand}",
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": {path: _sha256(path) for path in outputs},
        "started": args.started,
        "finished": _now(),
    }
    Path(beside + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_graph(path: str) -> metrics.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return metrics.Graph.from_edgelist_lines(fh)


def _read_object(path: str) -> dict:
    """Load a JSON input file that must hold one object; errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or a file that is not UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return raw


# ---------------------------------------------------------------------------
# ledger subcommands
# ---------------------------------------------------------------------------

def _cmd_ledger_validate(args: argparse.Namespace) -> int:
    ledger = read_log(args.file)
    chains = provenance_chains(ledger)
    summary = {
        "ok": True,
        "events": len(ledger),
        "identifiers": sum(len(c.identifiers) for c in chains),
        "chains": len(chains),
        "valid_chains": sum(1 for c in chains if c.valid),
    }
    print(json.dumps(summary))
    return 0


def _chain_dict(chain) -> dict:
    return {
        "links": list(chain.links),
        "identifiers": [v.label for v in chain.identifiers],
        "current": chain.current.label,
        "valid": chain.valid,
        "maximal": chain.maximal,
    }


def _cmd_ledger_chains(args: argparse.Namespace) -> int:
    ledger = read_log(args.file)
    chains = provenance_chains(ledger)
    print(json.dumps({"chains": [_chain_dict(c) for c in chains]}, indent=2))
    return 0


def _cmd_ledger_graph(args: argparse.Namespace) -> int:
    ledger = read_log(args.file)
    at = len(ledger) if args.at is None else args.at
    graph = graph_at(ledger, at, args.type)
    if args.format == "edgelist":
        text = "\n".join(graph.edgelist_lines())
        text = text + "\n" if text else ""
    elif args.format == "json":
        text = json.dumps(
            {
                "surety_type": graph.surety_type,
                "prefix": graph.prefix_k,
                "vertices": sorted(v.label for v in graph.vertices),
                "edges": [[a.label, b.label] for a, b in sorted(graph.edges)],
            },
            indent=2,
        ) + "\n"
    else:  # dot
        body = "\n".join(f'  "{a.hex}" -- "{b.hex}";' for a, b in sorted(graph.edges))
        text = "graph sureties {\n" + body + ("\n" if body else "") + "}\n"
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(args, args.out, {"type": args.type, "at": at, "format": args.format}, None,
                        [args.file], [args.out])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# metrics subcommands
# ---------------------------------------------------------------------------

def _cmd_metrics_conductance(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input)
    result = metrics.conductance_exact(graph)
    print(json.dumps({
        "phi": str(result.value),
        "phi_float": float(result.value),
        "argmin": sorted(graph.labels[v] for v in result.argmin),
    }))
    return 0


def _cmd_metrics_lambda(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input)
    lam, lam2 = metrics.rw_spectrum(graph)
    lower, upper = metrics.cheeger_bounds(lam2)
    print(json.dumps({
        "lambda": lam,
        "lambda2_signed": lam2,
        "cheeger_lower": lower,
        "cheeger_upper": upper,
    }))
    return 0


def _cmd_metrics_mis(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input)
    result = metrics.max_independent_set(graph)
    print(json.dumps({
        "size": len(result.vertices),
        "exact": result.exact,
        "vertices": sorted(graph.labels[v] for v in result.vertices),
    }))
    return 0


# ---------------------------------------------------------------------------
# check theorem2
# ---------------------------------------------------------------------------

def _label_list(path: str, raw: dict, key: str, default: list | None = None) -> list[str]:
    labels = raw.get(key, default)
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"{path}: {key!r} must be a list of label strings")
    return labels


def _cmd_check_theorem2(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    ids = _read_object(args.community)
    cls = _read_object(args.classification)
    params = community.Theorem2Params.from_dict(_read_object(args.params))
    members = _label_list(args.community, ids, "community")
    grown = _label_list(args.community, ids, "grown", members)
    byzantine = _label_list(args.classification, cls, "byzantine", [])
    report = community.theorem2_check(
        graph,
        community.vertices_of(graph, members),
        community.vertices_of(graph, grown),
        params,
        community.vertices_of(graph, byzantine),
    )
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(args, args.out, {"params": params.to_dict()}, None,
                        [args.graph, args.community, args.classification, args.params], [args.out])
    sys.stdout.write(text)
    if args.expect_pass and not report.guarantee:
        print("guarantee not established", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# sim subcommands
# ---------------------------------------------------------------------------

def _cmd_sim_grow(args: argparse.Namespace) -> int:
    raw = _read_object(args.config) if args.config else {}
    for f in dataclasses.fields(sim.SimConfig):
        value = getattr(args, f.name)
        if value is not None:
            raw[f.name] = value
    config = sim.SimConfig.from_dict(raw)
    result = sim.run_agent_sim(config, emit_ledger=args.emit_ledger is not None)
    outputs = []
    if args.emit_ledger:
        registry = args.emit_ledger + ".registry.json"
        write_log(args.emit_ledger, result.ledger)
        Path(registry).write_text(result.registry.to_json() + "\n")
        outputs += [args.emit_ledger, registry]
    if args.out:
        header = ["round", "community_size", "sybil_count", "sigma", "num_components", "max_component"]
        _write_csv(args.out, header, (
            [i, int(result.size_series[i]), int(result.sybil_series[i]), f"{result.sigma_series[i]:.9f}",
             int(result.component_count_series[i]), int(result.max_component_series[i])]
            for i in range(config.steps)
        ))
        outputs.append(args.out)
    if outputs:
        _write_manifest(args, args.out or args.emit_ledger, config.to_dict(), config.seed,
                        [args.config] if args.config else [], outputs)
    summary = {
        "time_avg_sigma": result.time_avg_sigma.mean,
        "time_avg_sybils": result.time_avg_sybils.mean,
        "time_avg_size": result.time_avg_size.mean,
        "expulsions": result.expulsion_count,
    }
    print(json.dumps(summary))
    return 0


def _cmd_sim_steady_state(args: argparse.Namespace) -> int:
    root = sim.steady_state_root(args.n, args.p, args.k)
    bound = (args.n / (args.p * args.k)) ** 0.5
    result = sim.run_markov_component(args.n, args.p, args.k, args.steps, args.seed)
    matched = sim.moment_matched_component_size(result, args.k)
    print(json.dumps({
        "analytic_root": root,
        "bound": bound,
        "mc_mean": result.mean,
        "mc_stderr": result.stderr,
        "mc_moment_matched": matched,
        "steps": result.steps,
        "burn_in": result.burn_in,
    }))
    return 0


def _cmd_sim_observation2(args: argparse.Namespace) -> int:
    rows = [sim.capped_admission_sim(args.sigma_cap, args.steps, args.seed + s).penetration
            for s in range(args.seeds)]
    per_step_mean = np.vstack(rows).mean(axis=0)
    if args.out:
        _write_csv(args.out, ["step", "mean_penetration"],
                   ([i, f"{value:.9f}"] for i, value in enumerate(per_step_mean)))
        config = {"sigma_cap": args.sigma_cap, "steps": args.steps, "seeds": args.seeds}
        _write_manifest(args, args.out, config, args.seed, [], [args.out])
    print(json.dumps({
        "sigma_cap": args.sigma_cap,
        "max_step_mean": float(per_step_mean.max()),
        "final_mean": float(per_step_mean[-1]),
    }))
    return 0


def _cmd_sim_corollary1(args: argparse.Namespace) -> int:
    report = sim.expander_bound_experiment(
        sim.ExpanderFamily(args.n, args.d),
        p=args.p,
        seeds=range(args.seed, args.seed + args.seeds),
        lambda_target=args.lambda_target,
        rounds=args.rounds,
        jobs=args.jobs,
    )
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        config = {"n": args.n, "d": args.d, "p": args.p, "lambda_target": args.lambda_target,
                  "rounds": args.rounds, "seeds": args.seeds}
        _write_manifest(args, args.out, config, args.seed, [], [args.out])
    sys.stdout.write(text)
    if not report.ok:
        print("measured penetration exceeds the bound", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpi", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gpi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ledger_p = sub.add_parser("ledger", help="event-log inspection")
    ledger_sub = ledger_p.add_subparsers(dest="subcommand", required=True)

    p = ledger_sub.add_parser("validate", help="parse, re-verify and summarize a log")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ledger_validate)

    p = ledger_sub.add_parser("chains", help="dump provenance chains as JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ledger_chains)

    p = ledger_sub.add_parser("graph", help="derive a surety graph")
    p.add_argument("file")
    p.add_argument("--type", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--at", type=int, default=None, help="prefix length (default: full log)")
    p.add_argument("--format", choices=("edgelist", "json", "dot"), default="edgelist")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ledger_graph)

    metrics_p = sub.add_parser("metrics", help="graph metrics over edge lists")
    metrics_sub = metrics_p.add_subparsers(dest="subcommand", required=True)

    p = metrics_sub.add_parser("conductance", help="exact conductance")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_metrics_conductance)

    p = metrics_sub.add_parser("lambda", help="random-walk spectrum and Cheeger bounds")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_metrics_lambda)

    p = metrics_sub.add_parser("mis", help="maximum independent set")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_metrics_mis)

    check_p = sub.add_parser("check", help="guarantee checkers")
    check_sub = check_p.add_subparsers(dest="subcommand", required=True)

    p = check_sub.add_parser("theorem2", help="six-condition growth guarantee")
    p.add_argument("--graph", required=True)
    p.add_argument("--community", required=True)
    p.add_argument("--classification", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--expect-pass", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_theorem2)

    sim_p = sub.add_parser("sim", help="growth simulations")
    sim_sub = sim_p.add_subparsers(dest="subcommand", required=True)

    p = sim_sub.add_parser("grow", help="agent-based growth run")
    p.add_argument("--config", help="JSON config; flags override file values")
    p.add_argument("--out", help="per-round CSV")
    p.add_argument("--emit-ledger", help="write the replayable event log here")
    p.add_argument("--n0", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--sybil-rate", dest="sybil_rate", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--adversary", choices=("uniform", "greedy_independent_set"))
    p.set_defaults(func=_cmd_sim_grow)

    p = sim_sub.add_parser("steady-state", help="scalar component chain vs the analytic root")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sim_steady_state)

    p = sim_sub.add_parser("observation2", help="capped-probability admission stream")
    p.add_argument("--sigma-cap", dest="sigma_cap", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seeds", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sim_observation2)

    p = sim_sub.add_parser("corollary1", help="expander-backbone penetration bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda-target", dest="lambda_target", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seeds", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20000)
    # a string default goes through the type only when this subcommand parses
    p.add_argument("--jobs", type=_positive_int, default=os.environ.get("GPI_JOBS", "1"),
                   help="worker processes (default: $GPI_JOBS, else 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sim_corollary1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = _now()
    try:
        return args.func(args)
    except (community.UnknownLabel, sim.ExpanderViolation) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ParseError, VerifyError) as exc:
        # an unreadable log is a validation failure, reported as JSON
        print(json.dumps({"ok": False, "error": type(exc).__name__, "detail": str(exc),
                          **({"seq": exc.seq} if isinstance(exc, VerifyError) else {"line": exc.line})}))
        return 1
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe: not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError, LedgerError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
