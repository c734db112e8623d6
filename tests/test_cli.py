"""Command-line surface: exit codes, formats, manifests, no input mutation."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest

from gpi import cli, community, sim
from gpi.cli import build_parser, main
from gpi.ledger import SURETY_TYPES, parse_log, read_log, write_log
from gpi.metrics import MIS_EXACT_LIMIT, Graph
from gpi.oracle import AgentRegistry

from helpers import (
    Scenario,
    bf_greedy_independent_set,
    bf_series_from_ledger,
    edges_of,
    noncanonical_probes,
    shared_key_bytes_scenario,
    timing_scenarios,
)

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def pledged_log(tmp_path) -> Path:
    sc = Scenario()
    sc.declare("a", "ha")
    sc.declare("b", "hb")
    sc.declare("c", "hc")
    sc.mutual_pledge(3, "a", "b", "ha", "hb")
    sc.mutual_pledge(3, "b", "c", "hb", "hc")
    path = tmp_path / "good.log"
    write_log(path, sc.ledger)
    return path


def strict_json(text: str):
    """``json.loads`` refusing ``NaN`` and ``Infinity``, which RFC 8259 does not allow."""
    def refuse(constant: str):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def tampered_copy(src: Path, dst: Path, line_index: int = 2) -> Path:
    lines = src.read_text().splitlines()
    record = json.loads(lines[line_index])
    record["sig"] = ("0" if record["sig"][0] != "0" else "f") + record["sig"][1:]
    lines[line_index] = json.dumps(record, separators=(",", ":"))
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestLedgerCommands:
    def test_validate_good_log_exits_zero(self, pledged_log, capsys):
        assert main(["ledger", "validate", str(pledged_log)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] and summary["events"] == 7

    def test_validate_tampered_log_exits_one_with_seq(self, pledged_log, tmp_path, capsys):
        bad = tampered_copy(pledged_log, tmp_path / "tampered.log")
        assert main(["ledger", "validate", str(bad)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "VerifyError"
        assert out["seq"] == 2

    def test_golden_tampered_vector(self, tmp_path, capsys):
        bad = tampered_copy(DATA / "timing_honest_pair.log", tmp_path / "bad.log")
        assert main(["ledger", "validate", str(bad)]) == 1
        assert json.loads(capsys.readouterr().out)["seq"] == 2

    @pytest.mark.parametrize(
        "data,error,where",
        [pytest.param(data, error, where, id=name) for name, data, error, where in noncanonical_probes()],
    )
    def test_validate_noncanonical_log_exits_one_with_json(self, data, error, where, tmp_path, capsys):
        # every command that reads a log reports an unreadable one the same way
        bad = tmp_path / "bad.log"
        bad.write_bytes(data)
        for command in (["validate"], ["chains"], ["graph", "--type", "3"]):
            assert main(["ledger", command[0], str(bad), *command[1:]]) == 1, command
            out = json.loads(capsys.readouterr().out)
            assert out["ok"] is False and out["error"] == error
            assert out["line" if error == "ParseError" else "seq"] == where

    def test_missing_file_exits_two(self, capsys):
        assert main(["ledger", "validate", "/nonexistent/x.log"]) == 2

    def test_chains_dump(self, pledged_log, capsys):
        assert main(["ledger", "chains", str(pledged_log)]) == 0
        chains = json.loads(capsys.readouterr().out)["chains"]
        assert len(chains) == 3
        assert all(c["valid"] for c in chains)

    def test_graph_edgelist_sorted(self, pledged_log, capsys):
        assert main(["ledger", "graph", str(pledged_log), "--type", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines == sorted(lines)

    def test_closed_stdout_exits_zero(self, pledged_log, monkeypatch):
        # the consumer (head, less) closed the pipe: not an error
        class ClosedPipe(io.StringIO):
            def write(self, s: str) -> int:
                raise BrokenPipeError

        stdout = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["ledger", "graph", str(pledged_log), "--type", "3"]) == 0
        assert stdout.closed

    def test_graph_formats(self, pledged_log, capsys):
        assert main(["ledger", "graph", str(pledged_log), "--type", "3", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed["edges"]) == 2
        assert main(["ledger", "graph", str(pledged_log), "--type", "3", "--format", "dot"]) == 0
        assert "graph sureties" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["edgelist", "dot", "json"])
    def test_graph_refuses_hex_names_that_merge_identifiers(self, fmt, tmp_path, capsys):
        sc = shared_key_bytes_scenario()
        write_log(tmp_path / "shared.log", sc.ledger)
        code = main(["ledger", "graph", str(tmp_path / "shared.log"), "--type", "3", "--format", fmt])
        out, err = capsys.readouterr()
        if fmt == "json":  # labels keep the scheme, so nothing merges
            assert code == 0 and len(json.loads(out)["vertices"]) == 3
            return
        ed, mock = sc.ident("ed").label, sc.ident("mock").label
        assert (code, out) == (2, "")
        assert err == (
            f"ValueError: {ed} and {mock} share key bytes, so naming vertices by bare hex would merge them\n"
        )

    def test_graph_prefix_flag(self, pledged_log, capsys):
        assert main(["ledger", "graph", str(pledged_log), "--type", "3", "--at", "4"]) == 0
        assert capsys.readouterr().out == ""  # only one direction pledged yet

    def test_graph_prefix_past_the_log_exits_two(self, pledged_log, capsys):
        assert main(["ledger", "graph", str(pledged_log), "--type", "3", "--at", "8"]) == 2
        assert capsys.readouterr() == ("", "ValueError: prefix 8 out of range 0..7\n")

    def test_inputs_never_mutated(self, pledged_log, capsys, tmp_path):
        digest = hashlib.sha256(pledged_log.read_bytes()).hexdigest()
        main(["ledger", "validate", str(pledged_log)])
        main(["ledger", "chains", str(pledged_log)])
        main(["ledger", "graph", str(pledged_log), "--type", "3",
              "--out", str(tmp_path / "edges.txt")])
        capsys.readouterr()
        assert hashlib.sha256(pledged_log.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command", [["validate"], ["chains"], ["graph", "--type", "3"]], ids=lambda c: c[0])
    def test_quorum_is_not_an_option(self, command, pledged_log, capsys):
        # the reset quorum is the protocol constant 2/3
        with pytest.raises(SystemExit) as err:
            main(["ledger", command[0], str(pledged_log), *command[1:], "--quorum", "0.5"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "unrecognized arguments: --quorum 0.5" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestMetricsCommands:
    @pytest.fixture
    def edgelist(self, tmp_path) -> Path:
        path = tmp_path / "k4.edges"
        path.write_text("a b\na c\na d\nb c\nb d\nc d\n")
        return path

    def test_conductance(self, edgelist, capsys):
        assert main(["metrics", "conductance", "--in", str(edgelist)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"] == "2/3"

    def test_conductance_beyond_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "p21.edges"
        path.write_text("".join(f"v{i:02d} v{i + 1:02d}\n" for i in range(20)))
        assert main(["metrics", "conductance", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "TooLarge" in err and "gpi metrics lambda" in err

    def test_lambda(self, edgelist, capsys):
        assert main(["metrics", "lambda", "--in", str(edgelist)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == pytest.approx(1 / 3, abs=1e-9)

    def test_lambda_computes_the_spectrum_once(self, edgelist, capsys, monkeypatch):
        import gpi.metrics as metrics_mod

        calls = []
        extremes = metrics_mod._rw_spectrum_extremes
        monkeypatch.setattr(metrics_mod, "_rw_spectrum_extremes",
                            lambda graph: calls.append(graph) or extremes(graph))
        assert main(["metrics", "lambda", "--in", str(edgelist)]) == 0
        assert len(calls) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["lambda2_signed"] == pytest.approx(-1 / 3, abs=1e-9)
        assert out["cheeger_lower"] == pytest.approx(2 / 3, abs=1e-9)

    def test_lambda_empty_edge_list_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.edges"
        empty.write_text("")
        assert main(["metrics", "lambda", "--in", str(empty)]) == 2
        assert "at least two vertices" in capsys.readouterr().err

    def test_mis(self, edgelist, capsys):
        assert main(["metrics", "mis", "--in", str(edgelist)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] == 1 and out["exact"]

    def test_mis_is_exact_up_to_the_limit(self, tmp_path, capsys):
        for n, printed in ((MIS_EXACT_LIMIT, '"size": 20, "exact": true'), (MIS_EXACT_LIMIT + 1, '"exact": false')):
            cycle = tmp_path / f"c{n}.edges"
            cycle.write_text("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n)))
            assert main(["metrics", "mis", "--in", str(cycle)]) == 0
            assert printed in capsys.readouterr().out, n

    def test_mis_beyond_exact_limit_is_the_min_scan_greedy(self, tmp_path, capsys):
        log, edges = tmp_path / "run.log", tmp_path / "run.edges"
        assert main(["sim", "grow", "--n0", "30", "--p", "0.5", "--k", "3",
                     "--sybil-rate", "0.5", "--steps", "300", "--burn-in", "30",
                     "--seed", "2", "--out", str(tmp_path / "run.csv"),
                     "--emit-ledger", str(log)]) == 0
        capsys.readouterr()
        assert main(["ledger", "graph", str(log), "--type", "3"]) == 0
        edges.write_text(capsys.readouterr().out)
        graph = Graph.from_edgelist_lines(edges.read_text().splitlines())
        assert graph.n > MIS_EXACT_LIMIT and len(edges_of(graph)) == graph.n - len(graph.components())
        chosen = bf_greedy_independent_set(graph)
        expected = json.dumps({
            "size": len(chosen),
            "exact": False,
            "vertices": sorted(graph.labels[v] for v in chosen),
        }) + "\n"
        assert main(["metrics", "mis", "--in", str(edges)]) == 0
        assert capsys.readouterr().out == expected


class TestCheckCommand:
    def test_theorem2_pass_and_expect_pass(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text(
            "\n".join(f"v{i} v{j}" for i in range(6) for j in range(i + 1, 6)) + "\n"
        )
        labels = [f"v{i}" for i in range(6)]
        (tmp_path / "ids.json").write_text(json.dumps({
            "community": labels[:5], "grown": labels,
        }))
        (tmp_path / "cls.json").write_text(json.dumps({"byzantine": [labels[5]]}))
        (tmp_path / "params.json").write_text(json.dumps({
            "d": 5, "alpha": 1.0, "beta": 0.3, "gamma": "1/5", "delta": 0.2,
        }))
        code = main([
            "check", "theorem2",
            "--graph", str(tmp_path / "g.edges"),
            "--community", str(tmp_path / "ids.json"),
            "--classification", str(tmp_path / "cls.json"),
            "--params", str(tmp_path / "params.json"),
            "--expect-pass",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["guarantee"] is True

    def test_theorem2_failure_with_expect_pass_exits_one(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("a b\n")
        (tmp_path / "ids.json").write_text(json.dumps({"community": ["a", "b"]}))
        (tmp_path / "cls.json").write_text(json.dumps({"byzantine": ["a"]}))
        (tmp_path / "params.json").write_text(json.dumps({
            "d": 1, "alpha": 1.0, "beta": 0.4, "gamma": 0.9, "delta": 0.2,
        }))
        code = main([
            "check", "theorem2",
            "--graph", str(tmp_path / "g.edges"),
            "--community", str(tmp_path / "ids.json"),
            "--classification", str(tmp_path / "cls.json"),
            "--params", str(tmp_path / "params.json"),
            "--expect-pass",
        ])
        capsys.readouterr()
        assert code == 1

    def test_theorem2_one_member_grown_community_gets_a_verdict(self, tmp_path, capsys):
        flags = write_theorem2_inputs(tmp_path, "a b\nb c\n", {"community": ["a"], "grown": ["a"]}, {"byzantine": []},
                                      {"d": 2, "alpha": 0.5, "beta": 0.25, "gamma": 0.1, "delta": 0.1})
        assert main(["check", "theorem2", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"
        assert out["conditions"][5] == {"index": 6, "description": "induced conductance above threshold",
                                        "passed": False, "detail": "conductance undefined for a one-member community"}

    @pytest.mark.parametrize("params, index, detail", [
        ({"d": 0, "alpha": 0.5, "beta": 0.25, "gamma": 0.1, "delta": 0.5}, 2, "degree bound is 0"),
        ({"d": 2, "alpha": 0, "beta": 0.25, "gamma": 0.1, "delta": 0.5}, 6,
         "conductance threshold undefined for alpha=0 or beta=0"),
    ], ids=["d-0", "alpha-0"])
    def test_theorem2_degenerate_params_fail_their_condition(self, tmp_path, capsys, params, index, detail):
        flags = write_theorem2_inputs(tmp_path, "a b\nb c\n", {"community": ["a", "b"], "grown": ["a", "b", "c"]},
                                      {"byzantine": []}, params)
        assert main(["check", "theorem2", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"
        assert (out["conditions"][index - 1]["passed"], out["conditions"][index - 1]["detail"]) == (False, detail)


def write_theorem2_inputs(directory: Path, edges: str, ids, cls, params) -> list[str]:
    """Write the four ``check theorem2`` inputs; return their flags."""
    files = {"graph": "g.edges", "community": "ids.json", "classification": "cls.json", "params": "params.json"}
    (directory / files["graph"]).write_text(edges)
    for key, value in (("community", ids), ("classification", cls), ("params", params)):
        (directory / files[key]).write_text(json.dumps(value))
    return [arg for key, name in files.items() for arg in (f"--{key}", str(directory / name))]


K6_GOLDEN = {
    "conditions": [
        {"index": 1, "description": "degree bound over the grown community", "passed": True,
         "detail": "max degree 5 vs d=5"},
        {"index": 2, "description": "internal degree floor", "passed": True,
         "detail": "min internal degree 5/5 vs alpha=1"},
        {"index": 3, "description": "byzantine share of the initial community", "passed": True,
         "detail": "|A\u2229B|/|A| = 0 vs beta=3/10"},
        {"index": 4, "description": "harmless-byzantine boundary is scarce", "passed": True,
         "detail": "e(H,B)=5 vs gamma*vol=5"},
        {"index": 5, "description": "growth step bounded and beta+delta <= 1/2", "passed": True,
         "detail": "|A'\\A|=1, delta*|A|=1, beta+delta=0.5"},
        {"index": 6, "description": "induced conductance above threshold", "passed": True,
         "detail": "Phi(G|A') = 3/5 vs threshold 0.466667 (exact)"},
    ],
    "guarantee": True,
    "verdict": "pass",
    "conductance_mode": "exact",
}

# (name, file, content, exit code, stderr line); "{path}" stands for the file
THEOREM2_PROBES = [
    ("community-list", "ids.json", ["a", "b"], 2, "ValueError: {path}: expected a JSON object"),
    ("classification-list", "cls.json", ["a"], 2, "ValueError: {path}: expected a JSON object"),
    ("params-list", "params.json", [1, 1.0, 0.4, 0.9, 0.2], 2, "ValueError: {path}: expected a JSON object"),
    ("community-int-label", "ids.json", {"community": [1]}, 2,
     "ValueError: {path}: 'community' must be a list of label strings"),
    ("community-string", "ids.json", {"community": "ab"}, 2,
     "ValueError: {path}: 'community' must be a list of label strings"),
    ("params-missing-gamma", "params.json", {"d": 1, "alpha": 1.0, "beta": 0.4, "delta": 0.2}, 2,
     "ValueError: missing params keys: ['gamma']"),
    ("params-unknown-key", "params.json",
     {"d": 1, "alpha": 1.0, "beta": 0.4, "gamma": 0.9, "delta": 0.2, "epsilon": 0.1}, 2,
     "ValueError: unknown params keys: ['epsilon']"),
    ("params-d-string", "params.json", {"d": "x", "alpha": 1.0, "beta": 0.4, "gamma": 0.9, "delta": 0.2}, 2,
     "ValueError: params key 'd' must be an integer, got 'x'"),
    ("params-d-bool", "params.json", {"d": True, "alpha": 1.0, "beta": 0.4, "gamma": 0.9, "delta": 0.2}, 2,
     "ValueError: params key 'd' must be an integer, got True"),
    ("params-ratio-above-one", "params.json", {"d": 1, "alpha": 2, "beta": 0.4, "gamma": 0.9, "delta": 0.2}, 2,
     "ValueError: alpha must lie in [0,1], got 2"),
    ("unknown-byzantine-label", "cls.json", {"byzantine": ["c"]}, 1,
     "identifier 'c' does not appear in the graph"),
    ("graph-labels-sharing-a-hex-key", "g.edges", b"a:x b:x\nb:x c\n", 2,
     "ValueError: graph labels 'a:x' and 'b:x' share a hex key"),
    # bytes are written as they are: a file that is not JSON at all
    ("classification-not-json", "cls.json", b"not json", 2,
     "ValueError: {path}: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("params-not-utf8", "params.json", b'{"d": "\xff"}', 2,
     "ValueError: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
]


class TestJsonInputs:
    def test_theorem2_golden_output_and_manifest(self, tmp_path, capsys):
        labels = [f"v{i}" for i in range(6)]
        flags = write_theorem2_inputs(
            tmp_path,
            "\n".join(f"v{i} v{j}" for i in range(6) for j in range(i + 1, 6)) + "\n",
            {"community": labels[:5], "grown": labels},
            {"byzantine": [labels[5]]},
            {"d": 5, "alpha": 1.0, "beta": 0.3, "gamma": "1/5", "delta": 0.2},
        )
        out = tmp_path / "report.json"
        assert main(["check", "theorem2", *flags, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == json.dumps(K6_GOLDEN, indent=2) + "\n"
        assert out.read_text() == stdout
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert list(manifest["inputs"]) == flags[1::2]
        assert manifest["config"] == {"params": {"d": 5, "alpha": 1.0, "beta": 0.3, "gamma": 0.2, "delta": 0.2}}

    @pytest.mark.parametrize(
        "name,content,code,line", [pytest.param(*row[1:], id=row[0]) for row in THEOREM2_PROBES]
    )
    def test_theorem2_malformed_input(self, name, content, code, line, tmp_path, capsys):
        flags = write_theorem2_inputs(
            tmp_path, "a b\n", {"community": ["a", "b"]}, {"byzantine": ["a"]},
            {"d": 1, "alpha": 1.0, "beta": 0.4, "gamma": 0.9, "delta": 0.2},
        )
        bad = tmp_path / name
        bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        assert main(["check", "theorem2", *flags]) == code
        captured = capsys.readouterr()
        assert captured.err == line.format(path=bad) + "\n"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("extra", [[], ["--seed", "1"]], ids=["file-only", "with-flag"])
    def test_grow_config_that_is_not_an_object_exits_two(self, extra, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1]")
        assert main(["sim", "grow", "--config", str(config), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ValueError: {config}: expected a JSON object\n"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "key,value,line",
        [
            ("steps", 1.5, "config key 'steps' must be an integer, got 1.5"),
            ("seed", "7", "config key 'seed' must be an integer, got '7'"),
            ("p", "0.5", "config key 'p' must be a number, got '0.5'"),
            ("k", 2.5, "config key 'k' must be an integer, got 2.5"),
            ("n0", True, "config key 'n0' must be an integer, got True"),
        ],
        ids=["steps-float", "seed-string", "p-string", "k-float", "n0-bool"],
    )
    def test_grow_config_value_of_a_wrong_json_type_exits_two_naming_the_key(self, key, value, line, tmp_path,
                                                                             capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n0": 25, "p": 0.5, "k": 2, "sybil_rate": 0.5, "steps": 100,
                                      "burn_in": 10, "seed": 1, key: value}))
        assert main(["sim", "grow", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ConfigError: {line}\n"
        assert "Traceback" not in captured.out + captured.err

    def test_grow_config_that_is_not_json_exits_two_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{'seed': 1}")
        assert main(["sim", "grow", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"ValueError: {config}: not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
        )
        assert "Traceback" not in captured.out + captured.err


STEADY_STATE = ["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "20"]
OBSERVATION2 = ["sim", "observation2", "--sigma-cap", "0.1", "--steps", "20", "--seeds", "2"]
GROW = ["sim", "grow", "--n0", "30", "--p", "0.5", "--k", "3", "--sybil-rate", "0.2", "--steps", "20",
        "--burn-in", "5", "--seed", "1"]
COROLLARY1 = ["sim", "corollary1", "--n", "100", "--d", "50", "--lambda-target", "0.3", "--p", "1.0",
              "--seeds", "2", "--rounds", "20"]

# (id, argv, edge list written to {edges} or None, stderr line); a flag given twice takes its last value
INPUT_CHECKS = [
    ("conductance-three-labels", ["metrics", "conductance", "--in", "{edges}"], "a b c\n",
     "ValueError: expected two labels per line, got 'a b c'"),
    ("mis-self-loop", ["metrics", "mis", "--in", "{edges}"], "a a\n", "ValueError: self-loop at vertex 0"),
    ("steady-state-k-0", [*STEADY_STATE, "--k", "0"], None, "ConfigError: n and k must be >= 1"),
    ("steady-state-p-1.5", [*STEADY_STATE, "--p", "1.5"], None,
     "ConfigError: detection probability must lie in (0, 1]"),
    ("observation2-sigma-cap-2", [*OBSERVATION2, "--sigma-cap", "2"], None,
     "ConfigError: sigma_cap must lie in [0, 1]"),
    ("observation2-steps-0", [*OBSERVATION2, "--steps", "0"], None, "ConfigError: steps must be positive"),
    ("grow-k-0", [*GROW, "--k", "0"], None, "ConfigError: component budget k must be >= 1"),
    ("grow-sybil-rate-1.5", [*GROW, "--sybil-rate", "1.5"], None, "ConfigError: sybil_rate must lie in [0, 1]"),
    ("grow-steps-0", [*GROW, "--steps", "0"], None, "ConfigError: steps must be positive"),
    ("corollary1-p-0", [*COROLLARY1, "--p", "0"], None, "ConfigError: detection probability must lie in (0, 1]"),
]


@pytest.mark.parametrize("argv,edges,line", [pytest.param(*row[1:], id=row[0]) for row in INPUT_CHECKS])
def test_input_check_exits_two_in_one_line(argv, edges, line, tmp_path, capsys):
    path = tmp_path / "g.edges"
    if edges is not None:
        path.write_text(edges)
    assert main([arg.format(edges=path) for arg in argv]) == 2
    assert capsys.readouterr() == ("", line + "\n")


class TestSimCommands:
    def test_steady_state_reports_root_bound_and_mean(self, capsys):
        code = main(["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10",
                     "--steps", "20000"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["analytic_root"] == pytest.approx(4.4224, abs=1e-4)
        assert out["bound"] == pytest.approx(4.4721, abs=1e-4)
        assert 0 < out["mc_mean"] < out["bound"]

    def test_two_step_steady_state_prints_strict_json(self, capsys):
        assert main(["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "2"]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["steps"] == 2 and out["mc_stderr"] >= 0

    def test_one_step_steady_state_exits_two(self, capsys):
        # one kept step gives the batch means no spread, so no standard error
        assert main(["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ConfigError: steps must be at least 2 to estimate a standard error\n"

    @pytest.mark.parametrize("target", ["nan", "inf", "1.5", "-0.1"])
    def test_corollary1_lambda_target_outside_the_unit_interval_exits_two(self, target, capsys):
        assert main(["sim", "corollary1", "--n", "20", "--d", "5", "--p", "1.0", "--rounds", "100",
                     "--lambda-target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "ConfigError: lambda target must lie in [0, 1]\n"

    def test_corollary1_prints_strict_json_at_lambda_target_one(self, capsys):
        assert main(["sim", "corollary1", "--n", "20", "--d", "5", "--p", "1.0", "--rounds", "100",
                     "--lambda-target", "1"]) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["lambda_target"] == out["bound"] == 1.0

    def test_grow_writes_csv_ledger_and_manifest(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        out_log = tmp_path / "run.log"
        code = main([
            "sim", "grow", "--n0", "30", "--p", "0.5", "--k", "3",
            "--sybil-rate", "0.3", "--steps", "300", "--burn-in", "30",
            "--seed", "2", "--out", str(out_csv), "--emit-ledger", str(out_log),
        ])
        assert code == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == "round,community_size,sybil_count,sigma,num_components,max_component"
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "sim grow"
        assert manifest["seed"] == 2
        assert str(out_csv) in manifest["outputs"]
        capsys.readouterr()
        assert main(["ledger", "validate", str(out_log)]) == 0

    def test_grow_reproducible_outputs(self, tmp_path, capsys):
        args = ["sim", "grow", "--n0", "20", "--p", "0.5", "--k", "2",
                "--sybil-rate", "0.5", "--steps", "200", "--burn-in", "20", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {"n0": 25, "p": 0.5, "k": 2, "sybil_rate": 0.2,
                  "steps": 100, "burn_in": 10, "seed": 1}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        assert main(["sim", "grow", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "c.csv")]) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        capsys.readouterr()

    def test_grow_without_burn_in_exits_two_naming_it(self, capsys):
        code = main(["sim", "grow", "--n0", "10", "--p", "0.5", "--k", "2",
                     "--sybil-rate", "0.5", "--steps", "10", "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "burn_in" in err

    def test_steady_state_without_steps_exits_two_naming_them(self, capsys):
        code = main(["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "0"])
        assert code == 2
        assert capsys.readouterr().err == "ConfigError: steps must be positive\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["corollary1", "--n", "20", "--d", "4", "--lambda-target", "0.9", "--p", "1.0", "--seeds", "0"],
             "argument --seeds: expected a positive integer"),
            (["corollary1", "--n", "20", "--d", "4", "--lambda-target", "0.9", "--p", "1.0", "--seeds", "-2"],
             "argument --seeds: expected a positive integer"),
            (["observation2", "--sigma-cap", "0.1", "--steps", "10", "--seeds", "0"],
             "argument --seeds: expected a positive integer"),
            (["steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "100", "--burn-in", "10"],
             "unrecognized arguments: --burn-in 10"),
            (["observation2", "--sigma-cap", "0.1", "--steps", "10", "--n0", "1"],
             "unrecognized arguments: --n0 1"),
        ],
        ids=["corollary1-seeds-0", "corollary1-seeds-minus-2", "observation2-seeds-0", "steady-state-burn-in",
             "observation2-n0"],
    )
    def test_no_seeds_and_removed_flags_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sim", *argv])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "adversary,n0,k,steps",
        [("uniform", 30, 3, 1500), ("greedy_independent_set", 30, 3, 1500), ("uniform", 300, 12, 6000)],
        ids=["uniform", "greedy", "uniform-larger"],
    )
    def test_every_csv_round_replays_from_the_emitted_ledger(self, adversary, n0, k, steps, tmp_path, capsys):
        out_csv, out_log = tmp_path / "run.csv", tmp_path / "run.log"
        assert main(["sim", "grow", "--n0", str(n0), "--p", "0.5", "--k", str(k), "--sybil-rate", "0.5",
                     "--steps", str(steps), "--burn-in", str(steps // 10), "--seed", "4",
                     "--adversary", adversary, "--out", str(out_csv), "--emit-ledger", str(out_log)]) == 0
        capsys.readouterr()
        registry = AgentRegistry.from_json(Path(f"{out_log}.registry.json").read_text())
        replayed = bf_series_from_ledger(read_log(out_log), registry, n0=n0)
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(i), str(size), str(sybils), f"{sigma:.9f}", str(count), str(largest)]
                        for i, (size, sybils, sigma, count, largest) in enumerate(replayed)]
        assert max(row[4] for row in replayed) > 1 and max(row[3] for row in replayed) > 1

    def test_observation2(self, capsys):
        code = main(["sim", "observation2", "--sigma-cap", "0.1", "--steps", "2000",
                     "--seeds", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["final_mean"] <= 0.2

    def test_corollary1_small(self, capsys):
        code = main(["sim", "corollary1", "--n", "100", "--d", "50",
                     "--lambda-target", "0.3", "--p", "1.0", "--seeds", "2",
                     "--rounds", "2000"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["bound"] == pytest.approx((0.3) ** 0.5, rel=1e-9)

    def test_corollary1_missed_lambda_target_exits_one_in_one_line(self, capsys):
        code = main(["sim", "corollary1", "--n", "10", "--d", "3",
                     "--p", "0.5", "--lambda-target", "0.09"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "seed 0: measured lambda 0.6667 exceeds target 0.09\n"
        assert "Traceback" not in captured.out + captured.err

    def test_corollary1_penetration_over_the_bound_exits_one(self, monkeypatch, capsys):
        experiment = sim.expander_bound_experiment
        monkeypatch.setattr(sim, "expander_bound_experiment",
                            lambda *args, **kwargs: dataclasses.replace(experiment(*args, **kwargs), ok=False))
        assert main(["sim", "corollary1", "--n", "20", "--d", "5", "--p", "1.0", "--rounds", "100",
                     "--lambda-target", "1"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is False
        assert captured.err == "measured penetration exceeds the bound\n"

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("argv", [
        ["grow", "--n0", "10", "--p", "0.5", "--k", "2", "--sybil-rate", "0.5", "--steps", "20", "--burn-in", "2",
         "--out", "run.csv", "--emit-ledger", "run.log"],
        ["steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "100"],
        ["observation2", "--sigma-cap", "0.1", "--steps", "10", "--out", "run.csv"],
        ["corollary1", "--n", "20", "--d", "4", "--lambda-target", "0.9", "--p", "1.0", "--rounds", "20",
         "--out", "run.json"],
    ], ids=lambda argv: argv[0])
    def test_a_seed_outside_64_bits_exits_two(self, argv, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sim", *argv, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ValueError: seed {seed} is outside [0, 2**64)\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_observation2_seeds_past_the_top_seed_exit_two(self, capsys):
        assert main(["sim", "observation2", "--sigma-cap", "0.1", "--steps", "10",
                     "--seed", str((1 << 64) - 1), "--seeds", "2"]) == 2
        assert capsys.readouterr().err == f"ValueError: seed {1 << 64} is outside [0, 2**64)\n"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sim", "steady-state", "--n", "10"])
        assert err.value.code == 2

    def test_jobs_default_comes_from_environment(self, monkeypatch):
        from gpi.cli import build_parser

        monkeypatch.setenv("GPI_JOBS", "3")
        args = build_parser().parse_args(
            ["sim", "corollary1", "--n", "20", "--d", "4",
             "--lambda-target", "0.9", "--p", "1.0"]
        )
        assert args.jobs == 3

    @pytest.mark.parametrize(
        "env,flags",
        [("abc", []), ("0", []), ("-3", []), ("1", ["--jobs", "-2"]), ("abc", ["--jobs", "0"])],
        ids=["env-abc", "env-0", "env-minus-3", "flag-minus-2", "flag-0"],
    )
    def test_jobs_must_be_a_positive_integer(self, env, flags, monkeypatch, capsys):
        monkeypatch.setenv("GPI_JOBS", env)
        with pytest.raises(SystemExit) as err:
            main(["sim", "corollary1", "--n", "20", "--d", "4",
                  "--lambda-target", "0.9", "--p", "1.0", *flags])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "argument --jobs: expected a positive integer" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_other_commands_ignore_jobs_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("GPI_JOBS", "abc")
        assert main(["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "100"]) == 0
        capsys.readouterr()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _grow_case(*outputs: str):
    def setup(tmp_path, log):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n0": 25, "p": 0.5, "k": 2, "sybil_rate": 0.5,
                                      "steps": 100, "burn_in": 10, "seed": 1}))
        flags = {"csv": ["--out", str(tmp_path / "run.csv")], "log": ["--emit-ledger", str(tmp_path / "run.log")]}
        return ["sim", "grow", "--config", str(config), *(f for o in outputs for f in flags[o])], [config]
    return setup


def _graph_case(tmp_path, log):
    return ["ledger", "graph", str(log), "--type", "3", "--out", str(tmp_path / "g.edges")], [log]


def _theorem2_case(tmp_path, log):
    labels = [f"v{i}" for i in range(6)]
    flags = write_theorem2_inputs(
        tmp_path,
        "\n".join(f"v{i} v{j}" for i in range(6) for j in range(i + 1, 6)) + "\n",
        {"community": labels[:5], "grown": labels},
        {"byzantine": [labels[5]]},
        {"d": 5, "alpha": 1.0, "beta": 0.3, "gamma": "1/5", "delta": 0.2},
    )
    return ["check", "theorem2", *flags, "--out", str(tmp_path / "report.json")], [Path(f) for f in flags[1::2]]


def _observation2_case(tmp_path, log):
    return ["sim", "observation2", "--sigma-cap", "0.1", "--steps", "200", "--seeds", "2",
            "--out", str(tmp_path / "o.csv")], []


def _corollary1_case(tmp_path, log):
    return ["sim", "corollary1", "--n", "60", "--d", "30", "--lambda-target", "0.4", "--p", "1.0",
            "--rounds", "200", "--jobs", "1", "--out", str(tmp_path / "c.json")], []


# (setup, module and name of the library call the command makes)
MANIFEST_CASES = {
    "ledger-graph": (_graph_case, cli, "graph_at"),
    "check-theorem2": (_theorem2_case, community, "theorem2_check"),
    "sim-grow-out": (_grow_case("csv"), sim, "run_agent_sim"),
    "sim-grow-emit-ledger": (_grow_case("log"), sim, "run_agent_sim"),
    "sim-grow-both": (_grow_case("log", "csv"), sim, "run_agent_sim"),
    "sim-observation2": (_observation2_case, sim, "capped_admission_sim"),
    "sim-corollary1": (_corollary1_case, sim, "expander_bound_experiment"),
}


class TestManifests:
    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_manifest_lists_every_file_and_brackets_the_command(self, case, pledged_log, tmp_path, monkeypatch,
                                                                capsys):
        setup, module, kernel = MANIFEST_CASES[case]
        argv, inputs = setup(tmp_path, pledged_log)
        calls = []
        real = getattr(module, kernel)

        def timed(*args, **kwargs):
            calls.append(datetime.now(timezone.utc))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, kernel, timed)
        before = set(tmp_path.iterdir())
        assert main(argv) == 0
        capsys.readouterr()
        created = set(tmp_path.iterdir()) - before
        manifests = [p for p in created if p.name.endswith(".manifest.json")]
        assert len(manifests) == 1 and calls
        manifest = json.loads(manifests[0].read_text())
        assert manifest["outputs"] == {str(p): _sha256(p) for p in sorted(created - set(manifests))}
        assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}
        started, finished = (datetime.fromisoformat(manifest[key]) for key in ("started", "finished"))
        assert started <= calls[0] and started <= finished


def test_module_entry_point_prints_the_version():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "gpi.cli", "--version"], capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stdout == "gpi 0.1.0\n"


def test_every_readme_command_line_parses():
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gpi ")]
    assert len(commands) == 11
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README line 'gpi {shlex.join(argv)}' does not parse")


PINNED = DATA / "pinned"
GROW = ["sim", "grow", "--n0", "100", "--p", "0.5", "--k", "10", "--sybil-rate", "0.5", "--steps", "3000",
        "--burn-in", "300", "--seed", "7", "--out", "grown.csv", "--emit-ledger", "grown.log"]
# SHA-256 of each command's stdout and of each file it writes, run in the
# directory of the GROW run (whose log the ledger commands read) and on the
# committed inputs in tests/data/pinned (a 20-vertex graph, so conductance
# and theorem2 run the exact conductance at its size limit).  Manifests hold
# timestamps; TestManifests ties their output digests to the files.  A change
# to any output byte re-pins its entry and says why in CHANGES.md.
GRAPH = ["ledger", "graph", "grown.log", "--type"]
PINNED_OUTPUTS = {
    "sim-grow": (
        GROW,
        {
            "stdout": "e365a35b6bb26c736e78969f77bcf1c616168557fe1a1a27e457a93a3a8f64d5",
            "grown.csv": "b8ac67852e4cc7caf6d1728d7b171fe9e108e2c76c0837474d5b61bde5de1963",
            "grown.log": "75660593c85817a7180ae73b4c1e0389a6642c558b56673d9313a4dcf2f7270b",
            "grown.log.registry.json": "5caae93ca8b9f9d267e844143300e99cff5504a928774eda07e69247dd931c6e",
        },
    ),
    "ledger-validate": (
        ["ledger", "validate", "grown.log"],
        {"stdout": "ebcb9139ff6937e5d2d478e2348a07c91aa9d6d213f7dfaba131a526b8003c09"},
    ),
    "ledger-chains": (
        ["ledger", "chains", "grown.log"],
        {"stdout": "2082d9192b09076f7b28b6ded9caa30c764d8a0f0a0a07ee9771a0b98cc55ded"},
    ),
    "ledger-graph-type1": (
        [*GRAPH, "1"],
        {"stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "ledger-graph-type2": (
        [*GRAPH, "2"],
        {"stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "ledger-graph-type3": (
        [*GRAPH, "3"],
        {"stdout": "5618155c11432312ed4962db3f9b4fc535761685dcdbeb26b1bf6ba44e4a5c3d"},
    ),
    "ledger-graph-type4": (
        [*GRAPH, "4"],
        {"stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    ),
    "ledger-graph-json": (
        [*GRAPH, "3", "--format", "json"],
        {"stdout": "2fda22897aa0cc8b476945dd46daa77fdfdf8fb9b9ee840a67eb72e662fa776c"},
    ),
    "ledger-graph-dot": (
        [*GRAPH, "3", "--format", "dot"],
        {"stdout": "850d21e797fca2807fe5468fff59456fe4e7585389298dd911fc5d73c21fa498"},
    ),
    "ledger-graph-at": (
        [*GRAPH, "3", "--at", "6000"],
        {"stdout": "65602a320b90ef1cacfb03170639465ce7fc7694ea450664b1921d0b4f013028"},
    ),
    "metrics-conductance": (
        ["metrics", "conductance", "--in", str(PINNED / "graph.edges")],
        {"stdout": "8369cd3aed56f12ba892cdb1ae81330d877bf2639a5dcfc2dcb25abe1aff8416"},
    ),
    "metrics-lambda": (
        ["metrics", "lambda", "--in", str(PINNED / "graph.edges")],
        {"stdout": "e8ae6ec12c9492f54da2859bbf78ecf7a5d9d940a6545d1db8df05ce37902c72"},
    ),
    "metrics-mis": (
        ["metrics", "mis", "--in", str(PINNED / "graph.edges")],
        {"stdout": "0b3d331b618ea00de9a80bfe3b7d3c56f93dc155b70cacdb5fd18d4552c3b73c"},
    ),
    "check-theorem2": (
        ["check", "theorem2", "--graph", str(PINNED / "graph.edges"),
         "--community", str(PINNED / "community.json"),
         "--classification", str(PINNED / "classification.json"),
         "--params", str(PINNED / "params.json")],
        {"stdout": "12786a68d541bc80e80ccd3d483c574695b3baa1991b65173d2a11bc70afae7c"},
    ),
    "sim-steady-state": (
        ["sim", "steady-state", "--n", "100", "--p", "0.5", "--k", "10", "--steps", "20000", "--seed", "3"],
        {"stdout": "a875f64656ce908be6105a939ed4b7aadb0678e6e27b3685a21b10c635691d11"},
    ),
    "sim-observation2": (
        ["sim", "observation2", "--sigma-cap", "0.3", "--steps", "2000", "--seeds", "3", "--seed", "1",
         "--out", "obs.csv"],
        {
            "stdout": "48a6aed17b88e4a6879482ab4477ab145e90289847fc95e69a4afe7043e4d919",
            "obs.csv": "f20ccb3949f2cfd7c6d661fc2452823a57cdae1bb207b0a6782b67751d058b2e",
        },
    ),
    "sim-corollary1": (
        ["sim", "corollary1", "--n", "60", "--d", "30", "--lambda-target", "0.4", "--p", "1.0", "--seeds", "2",
         "--rounds", "300", "--jobs", "1", "--out", "cor.json"],
        {
            "stdout": "8762e5f26c39f034429a12a4734f3e364879417729899413f8822165d77fd56c",
            "cor.json": "8762e5f26c39f034429a12a4734f3e364879417729899413f8822165d77fd56c",
        },
    ),
}


@pytest.fixture(scope="module")
def grown(tmp_path_factory) -> tuple[Path, str]:
    """The directory the GROW run wrote its files to, and its stdout."""
    where, out = tmp_path_factory.mktemp("grown"), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.chdir(where)
        assert main(GROW) == 0
    return where, out.getvalue()


@pytest.mark.parametrize("case", list(PINNED_OUTPUTS))
def test_pinned_stdout(case, grown, capsys, monkeypatch):
    argv, digests = PINNED_OUTPUTS[case]
    where, stdout = grown
    monkeypatch.chdir(where)
    if argv is not GROW:
        assert main(argv) == 0
        stdout = capsys.readouterr().out
    outputs = {"stdout": stdout.encode(), **{name: (where / name).read_bytes() for name in digests if name != "stdout"}}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == digests


def test_log_is_read_and_written_line_by_line(grown, tmp_path):
    # traced bytes beyond what parsing the bytes in memory allocates: a
    # reader or writer that held the whole file would need its size again
    log = grown[0] / "grown.log"
    data = log.read_bytes()

    def peak(call, *args):
        tracemalloc.start()
        try:
            return call(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ledger, from_bytes = peak(parse_log, data)
    again, from_file = peak(read_log, log)
    _, writing = peak(write_log, tmp_path / "again.log", ledger)
    assert len(ledger) > 13_000
    assert from_file - from_bytes <= len(data) / 4
    assert writing <= len(data) / 4
    assert again == ledger and (tmp_path / "again.log").read_bytes() == data


class TestGoldenVectors:
    def test_goldens_regenerate_byte_identically(self):
        from gpi.ledger import serialize_log

        for name, sc in timing_scenarios().items():
            expected = (DATA / f"{name}.log").read_bytes()
            assert serialize_log(sc.ledger) == expected, name

    def test_golden_registries_load(self):
        from gpi.oracle import AgentRegistry

        for name in ("timing_early_sybil", "timing_late_declaration", "timing_honest_pair"):
            registry = AgentRegistry.from_json((DATA / f"{name}.registry.json").read_text())
            assert registry.actor
