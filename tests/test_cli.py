"""End-to-end checks for the command-line front end.

Covers the exit-code contract (0 all checks hold, 1 some check failed,
2 usage/config error), byte-determinism of the JSON and CSV reports, the
MINENTLAB_OUTDIR redirection, value agreement between CLI output and the
underlying library calls, and the sweep machinery (cell seeds, error rows,
row ordering).  The console-script test runs the entry point declared in
``pyproject.toml`` in a fresh interpreter, the way an installed script would,
plus the installed ``minentlab`` executable when one is on PATH, to make sure
the entry point wiring matches in-process ``main``.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from minentlab import cli, concentration, protocols, qkd, uncertainty


def run_main(capsysbinary, argv):
    """Invoke cli.main and hand back (exit code, stdout bytes, stderr bytes)."""
    code = cli.main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def parse_report(out_bytes):
    return json.loads(out_bytes.decode())


def check_named(report, name):
    for ch in report["checks"]:
        if ch["name"] == name:
            return ch
    raise AssertionError(f"no check named {name!r} in {report['checks']}")


def canon(x):
    """Round the way the CLI does before serializing."""
    return float(f"{float(x):.12g}")


# ------------------------------------------------------------- exit code 0


def test_bound_overall_text_output(capsysbinary):
    code, out, err = run_main(capsysbinary, ["bound", "overall", "--d", "16"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "overallBound  value=3.43466591223"
    # timing goes to stderr only, so stdout stays byte-stable
    assert b"wall-clock" not in out
    assert b"wall-clock" in err


def test_bound_overall_json_matches_library(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["bound", "overall", "--d", "16", "--json"])
    assert code == 0
    report = parse_report(out)
    assert report["artifact"]["name"] == "minentlab"
    assert report["config"] == {"subcommand": "bound overall", "d": 16}
    value = check_named(report, "overallBound")["value"]
    assert value == canon(uncertainty.overall_bound(16))
    assert round(value, 2) == 3.43


def test_bound_mu_and_sixstate(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["bound", "mu", "--basis1", "plus",
                             "--basis2", "breidbart", "--json"])
    assert code == 0
    value = check_named(parse_report(out), "muBound")["value"]
    expected = -math.log2(math.cos(math.pi / 8) ** 2) / 2.0
    assert value == canon(expected)

    code, out, _ = run_main(capsysbinary, ["bound", "sixstate", "--json"])
    assert code == 0
    assert check_named(parse_report(out), "sixStateBound")["value"] == canon(2 / 3)


def test_bound_numeric_bb84(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["bound", "numeric", "--bases", "bb84",
                             "--seed", "0", "--json"])
    assert code == 0
    ch = check_named(parse_report(out), "numericBound")
    assert ch["holds"] is True          # holds carries the converged flag
    assert ch["value"] == 0.5
    assert sorted(ch["detail"]) == ["lower", "squares"]
    assert 0.5 - 1e-12 <= ch["detail"]["lower"] <= 0.5


def test_bound_numeric_haar_repeatable_and_fast(capsysbinary):
    argv = ["bound", "numeric", "--bases", "haar:3", "--seed", "0", "--json"]
    t0 = time.perf_counter()
    first = run_main(capsysbinary, argv)
    elapsed = time.perf_counter() - t0
    assert first[0] == 0
    assert run_main(capsysbinary, argv)[1] == first[1]
    assert elapsed < 1.0, elapsed


def test_back_to_back_calls_keep_defaults(capsysbinary):
    # one call's options must not become the next call's defaults, however
    # main builds or keeps its parser
    code, out, _ = run_main(capsysbinary, ["verify", "pa", "--n", "5",
                                           "--json"])
    assert code == 0 and parse_report(out)["config"]["n"] == 5
    code, out, _ = run_main(capsysbinary, ["verify", "pa", "--json"])
    assert code == 0 and parse_report(out)["config"]["n"] == 4
    code, out, _ = run_main(capsysbinary, ["ot", "run", "--epr", "--json"])
    assert code == 0 and parse_report(out)["config"]["epr"] is True
    code, out, _ = run_main(capsysbinary, ["ot", "run", "--json"])
    assert code == 0 and parse_report(out)["config"]["epr"] is False


def test_qkd_threshold_and_rate_match_library(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["qkd", "threshold", "--h", "0.6667", "--json"])
    assert code == 0
    value = check_named(parse_report(out), "threshold")["value"]
    assert value == canon(qkd.noise_threshold(0.6667))
    assert value == pytest.approx(0.173967162977, abs=1e-9)

    # --bases resolves h from the basis-set constant when --h is absent
    code, out, _ = run_main(capsysbinary,
                            ["qkd", "rate", "--bases", "sixstate",
                             "--p", "0.05", "--json"])
    assert code == 0
    report = parse_report(out)
    assert report["config"]["h"] == canon(2 / 3)
    rep = qkd.rate_report(2 / 3, 0.05)
    assert check_named(report, "rate")["value"] == canon(rep.rate)
    assert check_named(report, "threshold")["value"] == canon(rep.threshold)


def test_verify_paths_all_hold(capsysbinary):
    # one pass through each verifier subcommand with cheap parameters
    argvs = [
        ["verify", "azuma", "--trials", "20000", "--seed", "1"],
        ["verify", "sequence-bound", "--p", "0.5,0.5", "--n", "6",
         "--lam", "0.2"],
        ["verify", "delta-bound", "--x", "0.05"],
        ["verify", "chain-rule", "--nx", "6", "--ny", "3", "--eps", "0.01",
         "--eps-prime", "0.05", "--seed", "3"],
        ["verify", "splitting", "--size", "6", "--seed", "2"],
        ["verify", "pa", "--n", "4", "--l", "1", "--q", "0", "--seed", "5"],
        ["verify", "relation", "--n", "3", "--bases", "bb84",
         "--lam", "0.05", "--state", "haar", "--seed", "7"],
    ]
    for argv in argvs:
        code, out, _ = run_main(capsysbinary, argv + ["--json"])
        assert code == 0, argv
        for ch in parse_report(out)["checks"]:
            assert ch["holds"] is True, (argv, ch)


# ---------------------------------------------------------- determinism


def test_json_output_is_canonical_and_repeatable(capsysbinary):
    argv = ["ot", "run", "--n", "6", "--l", "2", "--c", "1", "--seed", "9",
            "--json"]
    _, first, _ = run_main(capsysbinary, argv)
    _, second, _ = run_main(capsysbinary, argv)
    assert first == second
    assert first.endswith(b"\n")
    # canonical form: sorted keys, compact separators, floats already
    # rounded, so re-serializing the parsed report reproduces the bytes
    report = json.loads(first.decode())
    redump = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert redump.encode() == first


def test_ot_run_matches_library_transcript(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["ot", "run", "--n", "6", "--l", "2", "--c", "1",
                             "--seed", "9", "--json"])
    assert code == 0
    ch = check_named(parse_report(out), "correctness")
    assert ch["holds"] is True
    t = protocols.run_ot(6, 2, 1, seed=9)
    assert ch["detail"]["transcript"] == cli._canonical(t.to_json())


def test_ot_epr_run(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["ot", "run", "--n", "4", "--l", "1", "--c", "0",
                             "--seed", "3", "--epr", "--json"])
    assert code == 0
    ch = check_named(parse_report(out), "correctness")
    assert ch["holds"] is True
    t = protocols.run_epr_ot(4, 1, 0, seed=3)
    assert ch["detail"]["transcript"] == cli._canonical(t.to_json())


# ------------------------------------------------------- output plumbing


def test_outdir_env_redirects_relative_out(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main(["bound", "sixstate", "--out", "rep.json"])
    assert code == 0
    payload = (tmp_path / "rep.json").read_bytes()
    report = json.loads(payload.decode())
    assert check_named(report, "sixStateBound")["value"] == canon(2 / 3)

    # absolute --out ignores the environment variable
    other = tmp_path / "other"
    other.mkdir()
    monkeypatch.setenv(cli.OUTDIR_ENV, str(other))
    target = tmp_path / "abs.json"
    assert cli.main(["bound", "sixstate", "--out", str(target)]) == 0
    assert target.exists()
    assert not (other / "abs.json").exists()

    # without the variable a relative path lands in the working directory
    monkeypatch.delenv(cli.OUTDIR_ENV)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["bound", "sixstate", "--out", "cwd.json"]) == 0
    assert (tmp_path / "cwd.json").exists()


def test_csv_report_format(tmp_path):
    out = tmp_path / "delta.csv"
    code = cli.main(["verify", "delta-bound", "--x", "0.05",
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["name", "value", "bound", "holds"]
    rep = concentration.verify_delta_lower_bound(0.05)
    assert rows[1] == ["deltaBound", cli._fmt(rep.x), cli._fmt(rep.lower),
                       "yes"]


def test_verbose_detail_goes_to_stderr(capsysbinary):
    code, out, err = run_main(capsysbinary,
                              ["ot", "run", "--n", "4", "--l", "1",
                               "--c", "0", "--seed", "1", "-v"])
    assert code == 0
    assert b"transcript" not in out
    assert b'"transcript"' in err


def test_emit_reports_failures():
    # _emit decides the exit code and prints the FAIL summary line
    args = Namespace(json=False, out=None)
    checks = [cli._check("good", value=1.0, bound=2.0, holds=True),
              cli._check("bad", value=3.0, bound=2.0, holds=False)]
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli._emit(args, {"subcommand": "synthetic"}, checks)
    finally:
        sys.stdout = old
    assert code == 1
    assert "FAIL: bad" in buf.getvalue()


def test_canonical_and_fmt_helpers():
    assert cli._fmt(True) == "yes"
    assert cli._fmt(False) == "no"
    assert cli._fmt(0.5) == "0.5"
    assert cli._fmt(12) == "12"
    got = cli._canonical({"a": np.float64(math.pi), "b": (np.int64(3),
                          np.bool_(True)), "c": [1.0, {"d": np.float32(0.25)}]})
    assert got == {"a": canon(math.pi), "b": [3, True],
                   "c": [1.0, {"d": 0.25}]}
    assert isinstance(got["b"][0], int) and isinstance(got["b"][1], bool)


# -------------------------------------------------------------- protocols


def test_ot_check_receiver_battery(capsysbinary, tmp_path):
    out = tmp_path / "recv.csv"
    code, raw, _ = run_main(capsysbinary,
                            ["ot", "check-receiver", "--n", "3", "--l", "1",
                             "--json", "--out", str(out), "--format", "csv"])
    assert code == 0
    report = parse_report(raw)
    names = [ch["name"] for ch in report["checks"]]
    assert names == ["receiverSecurity[uniform-comp]",
                     "receiverSecurity[ghz-side]",
                     "receiverSecurity[tilted-product]"]
    for ch in report["checks"]:
        assert ch["holds"] is True
        assert ch["bound"] == 0.0
        assert abs(ch["value"]) <= 1e-9
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 4 and rows[0] == ["name", "value", "bound", "holds"]


def test_ot_check_sender_builtin_matches_library(capsysbinary):
    rep = protocols.check_sender_security(
        cli._builtin_adversary("all-plus", 4), 1)
    code, out, _ = run_main(capsysbinary,
                            ["ot", "check-sender", "--adversary", "all-plus",
                             "--n", "4", "--l", "1", "--json"])
    assert code == (0 if rep.holds else 1)
    ch = check_named(parse_report(out), "senderSecurity[all-plus]")
    assert ch["value"] == canon(rep.distance)
    assert ch["holds"] is rep.holds
    assert ch["detail"]["alpha"] == canon(rep.alpha)
    assert ch["detail"]["q"] == rep.q
    assert ch["detail"]["trivial"] is rep.trivial


def test_commit_run_and_binding(capsysbinary):
    code, out, _ = run_main(capsysbinary,
                            ["commit", "run", "--n", "6", "--b", "1",
                             "--seed", "2", "--json"])
    assert code == 0
    assert check_named(parse_report(out), "honestOpen")["holds"] is True

    rep = protocols.check_binding(cli._builtin_adversary("all-plus", 4))
    code, out, _ = run_main(capsysbinary,
                            ["commit", "check-binding",
                             "--adversary", "all-plus", "--n", "4", "--json"])
    assert code == (0 if (rep.holds and rep.weak_holds) else 1)
    report = parse_report(out)
    ch = check_named(report, "binding[all-plus]")
    assert ch["value"] == canon(rep.cheat_upper)
    assert ch["bound"] == canon(rep.eps)
    weak = check_named(report, "weakBinding[all-plus]")
    assert weak["value"] == canon(rep.weak_sum)
    assert weak["bound"] == canon(1.0 + rep.eps)


def test_binding_file_at_desk_scale(tmp_path, capsysbinary):
    # a per-wire file at n = 7 whose binding link is not capped at 1
    path = tmp_path / "circular.json"
    path.write_text(json.dumps({"name": "circular", "n": 7,
                                "measure": {str(i): "o" for i in range(7)}}))
    code, out, _ = run_main(capsysbinary, ["commit", "check-binding",
                                           "--adversary", str(path),
                                           "--n", "7", "--json"])
    assert code == 0
    ch = check_named(parse_report(out), "binding[circular]")
    assert ch["detail"]["trivial"] is False
    assert ch["value"] == canon(0.023132324218749993)
    assert ch["bound"] == canon(0.8408964152537143)


def test_adversary_json_file(tmp_path, capsysbinary):
    adv = cli._builtin_adversary("store-one-diag", 4)
    path = tmp_path / "adv.json"
    path.write_text(json.dumps(adv.to_json()))
    rep = protocols.check_sender_security(adv, 1)
    code, out, _ = run_main(capsysbinary,
                            ["ot", "check-sender", "--adversary", str(path),
                             "--n", "4", "--l", "1", "--json"])
    assert code == (0 if rep.holds else 1)
    ch = check_named(parse_report(out), "senderSecurity[store-one-diag]")
    assert ch["value"] == canon(rep.distance)

    # n mismatch between the file and the request is a usage error
    assert cli.main(["ot", "check-sender", "--adversary", str(path),
                     "--n", "5", "--l", "1"]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["ot", "check-sender", "--adversary", str(bad),
                     "--n", "4", "--l", "1"]) == 2


def test_qkd_run_matches_library(capsysbinary):
    run = qkd.run_qkd(uncertainty.bb84_basis_set(), 300,
                      qkd.ChannelModel(0.08), mode="ideal-reconciliation",
                      seed=11, eps=1e-9, q=0, max_sift=None)
    code, out, _ = run_main(capsysbinary,
                            ["qkd", "run", "--bases", "bb84", "--p", "0.08",
                             "--N", "300", "--seed", "11", "--json"])
    assert code == (0 if run.keys_match else 1)
    report = parse_report(out)
    assert check_named(report, "keysMatch")["holds"] is run.keys_match
    assert check_named(report, "keyLength")["value"] == float(run.l)
    assert check_named(report, "qber")["value"] == canon(run.qber)
    # an empty block is a valid request; a negative one exits 2
    code, out, _ = run_main(capsysbinary, ["qkd", "run", "--max-sift", "0",
                                           "--json"])
    assert code == 0
    assert check_named(parse_report(out), "keyLength")["value"] == 0.0


# ------------------------------------------------------------------ sweep


def write_config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


def test_sweep_overall_deterministic(tmp_path, capsysbinary):
    cfg = write_config(tmp_path, "# overall-bound grid\n"
                                 "task = overall\n"
                                 "d = 2,4,8,16\n"
                                 "seed = 5\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, raw1, _ = run_main(capsysbinary, ["sweep", "--config", cfg,
                                            "--out", str(out1)])
    assert code == 0
    code, raw2, _ = run_main(capsysbinary, ["sweep", "--config", cfg,
                                            "--out", str(out2)])
    assert code == 0
    assert raw1 == raw2
    # stdout shows the same CSV that gets persisted
    assert out1.read_bytes() == out2.read_bytes() == raw1

    rows = list(csv.DictReader(io.StringIO(raw1.decode())))
    assert [r["d"] for r in rows] == ["2", "4", "8", "16"]
    for r in rows:
        assert r["error"] == ""
        assert r["bound"] == cli._fmt(uncertainty.overall_bound(int(r["d"])))
    seeds = [int(r["seed"]) for r in rows]
    assert len(set(seeds)) == len(seeds)


def test_sweep_cell_seeds_follow_documented_recipe(tmp_path, capsysbinary):
    cfg = write_config(tmp_path, "task=epsilon\nlam=0.1,0.2\nn=4\nseed=12\n")
    code, raw, _ = run_main(capsysbinary, ["sweep", "--config", cfg])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    assert len(rows) == 2
    for r in rows:
        tag = f"12|epsilon|lam={r['lam']}|n={r['n']}"
        digest = hashlib.sha256(tag.encode()).digest()
        assert int(r["seed"]) == int.from_bytes(digest[:8], "big")
        assert r["epsilon"] == cli._fmt(concentration.dependent_sequence_epsilon(
            float(r["lam"]), int(r["n"]), 2))


def test_sweep_rate_monotone_in_noise(tmp_path, capsysbinary):
    cfg = write_config(tmp_path, "task=rate\nbases=bb84\np=0.01,0.05,0.1\n")
    code, raw, _ = run_main(capsysbinary, ["sweep", "--config", cfg])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    assert [r["p"] for r in rows] == ["0.01", "0.05", "0.1"]
    rates = [float(r["rate"]) for r in rows]
    assert rates[0] > rates[1] > rates[2]
    for r in rows:
        assert float(r["h"]) == 0.5
        assert float(r["threshold"]) == canon(qkd.noise_threshold(0.5))


# ------------------------------------------------------------ exit code 1


def test_sweep_records_per_cell_errors(tmp_path, capsysbinary):
    # lam = 0.6 is outside (0, 1/2): that cell fails, the sweep finishes,
    # and the exit code reports the failure
    cfg = write_config(tmp_path, "task=epsilon\nlam=0.1,0.6\nn=4\n")
    code, raw, _ = run_main(capsysbinary, ["sweep", "--config", cfg])
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    assert rows[0]["error"] == ""
    assert rows[1]["error"].startswith("ValueError:")
    assert rows[1]["epsilon"] == ""


# ---------------------------------------------------------- report config


# one command or more per subcommand kind; qkd rate and threshold resolve
# h from --h and from --bases
CONFIG_COMMANDS = (
    ["bound", "mu", "--basis2", "circular"],
    ["bound", "sixstate"],
    ["bound", "overall", "--d", "8"],
    ["bound", "numeric"],
    ["verify", "azuma", "--trials", "100"],
    ["verify", "sequence-bound", "--n", "3"],
    ["verify", "delta-bound", "--x", "0.02"],
    ["verify", "chain-rule", "--eps-prime", "0.02"],
    ["verify", "splitting", "--size", "4"],
    ["verify", "pa", "--n", "3"],
    ["verify", "relation", "--n", "2", "--state", "zero"],
    ["ot", "run", "--epr"],
    ["ot", "check-receiver", "--n", "2"],
    ["ot", "check-sender", "--adversary", "all-plus", "--n", "3"],
    ["commit", "run", "--b", "1"],
    ["commit", "check-binding", "--adversary", "breidbart", "--n", "3"],
    ["qkd", "run", "--N", "200", "--max-sift", "50"],
    ["qkd", "rate", "--h", "0.6", "--p", "0.02"],
    ["qkd", "rate", "--bases", "sixstate", "--p", "0.02"],
    ["qkd", "threshold", "--h", "0.5"],
    ["qkd", "threshold", "--bases", "bb84"],
    ["sweep"],
)


@pytest.mark.parametrize("argv", CONFIG_COMMANDS, ids=" ".join)
def test_config_is_the_parsed_arguments(argv, tmp_path, capsysbinary):
    # a report's config is the subcommand plus every parsed argument in
    # camelCase, without the dispatch keys, the output flags and sweep's
    # file path; qkd's resolved h and sweep's grid are the only additions
    if argv == ["sweep"]:
        argv = ["sweep", "--config",
                write_config(tmp_path, "task = overall\nd = 2,3\nseed = 5\n")]
    args = cli.build_parser().parse_args(argv)
    left_out = {"command", "kind", "config", "out", "format", "json",
                "verbose"}
    want = {"subcommand": " ".join(argv[:1] if argv[0] == "sweep"
                                   else argv[:2])}
    want.update({re.sub(r"_(\w)", lambda m: m.group(1).upper(), key): value
                 for key, value in vars(args).items() if key not in left_out})
    if argv[0] == "qkd" and argv[1] != "run" and args.h is None:
        want["h"] = {"bb84": uncertainty.bb84_basis_set,
                     "sixstate": uncertainty.six_state_basis_set}[
                         args.bases]().h
    if argv[0] == "sweep":
        want.update({"task": "overall", "seed": 5, "cells": 2})
    configs = []
    for extra in ([], ["--out", str(tmp_path / "r.csv"), "--format", "csv",
                       "-v"]):
        code, out, _ = run_main(capsysbinary, argv + extra + ["--json"])
        assert code in (0, 1), argv
        configs.append(parse_report(out)["config"])
    assert configs == [cli._canonical(want)] * 2


def test_config_leaves_out_exactly_the_output_flags():
    # a new output flag must be named here too, or it would leak into every
    # report's config and change its bytes
    p = argparse.ArgumentParser()
    cli._add_common(p)
    assert set(vars(p.parse_args([]))) == set(cli._OUTPUT_FLAGS)


# ------------------------------------------------------------ exit code 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "overall", "--d", "4", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "overall"])   # --d is required
    assert exc.value.code == 2


# adversary files the reader refuses: not an object, no n, a unitary
# without its imaginary part, kept not a list, ancillas beside per-wire bases;
# then an n, kept wire or ancillas that is not a JSON integer (null, a list,
# a float, a bool), which is refused, never rounded or cast
MALFORMED_ADVERSARIES = (
    {"name": "x"},
    {"n": 2, "unitary": {"re": [[1, 0], [0, 1]]}},
    [1, 2],
    {"n": 2, "measure": {"0": "+", "1": "x"}, "kept": None},
    {"n": 2, "kept": [0], "measure": {"1": "+"}, "ancillas": "a"},
    {"n": None},
    {"n": 2, "kept": [[0]], "measure": {"1": "+"}},
    {"n": 1, "unitary": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
     "ancillas": None},
    {"n": 2.7, "measure": {"0": "+", "1": "+"}},
    {"n": True, "measure": {"0": "+"}},
)


def test_domain_errors_exit_2(capsysbinary, tmp_path):
    # x = 0.4 lies past 1/e; x = 0.1 maps to y > 1/4
    for x in ("0.4", "0.1"):
        code, _, err = run_main(capsysbinary,
                                ["verify", "delta-bound", "--x", x])
        assert code == 2
        assert err.startswith(b"error:")
    code, _, _ = run_main(capsysbinary, ["qkd", "rate", "--p", "0.05"])
    assert code == 2          # needs --h or --bases
    code, _, _ = run_main(capsysbinary,
                          ["ot", "check-sender", "--adversary",
                           "/no/such/adversary.json", "--n", "4"])
    assert code == 2
    code, _, _ = run_main(capsysbinary,
                          ["bound", "numeric", "--bases", "haar:1"])
    assert code == 2          # haar family needs at least two bases
    # sizes past a library gate are refused before anything of that size
    # is built (an adversary, a script battery, a state, a source, a joint,
    # a sample or an honest run), and before a gate's own arithmetic grows
    # with n
    for argv in (["ot", "check-sender", "--adversary", "all-plus",
                  "--n", "20"],
                 ["commit", "check-binding", "--adversary", "breidbart",
                  "--n", "20"],
                 ["ot", "check-receiver", "--n", "20"],
                 ["verify", "relation", "--n", "40", "--state", "zero"],
                 ["verify", "pa", "--n", "16"],
                 ["verify", "pa", "--n", "2", "--q", "30"],
                 ["verify", "pa", "--n", "8", "--l", "8", "--q", "6"],
                 ["verify", "pa", "--n", "8", "--l", "8", "--q", "1"],
                 ["verify", "relation", "--n", "100000000000",
                  "--state", "zero"],
                 ["verify", "sequence-bound", "--n", "100000000000"],
                 ["verify", "azuma", "--trials", "1000000000000"],
                 ["verify", "chain-rule", "--nx", "100000", "--ny", "100000"],
                 ["verify", "splitting", "--size", "1000000"],
                 ["ot", "run", "--n", "1000000000000"],
                 ["ot", "run", "--epr", "--n", "1000000000000"],
                 ["commit", "run", "--n", "1000000000000"],
                 ["ot", "run", "--n", "4", "--l", "1000000000000"],
                 ["ot", "check-receiver", "--n", "2", "--l", "40"]):
        code, out, err = run_main(capsysbinary, argv)
        assert code == 2, argv
        assert out == b"" and err.startswith(b"error:"), argv
    # values outside a checker's domain: a negative memory, an empty output,
    # an adversary without qubits, no trials, a noise rate past 1/2, a
    # dimension past the exact harmonic sum's gate
    for argv in (["verify", "azuma", "--trials", "0"],
                 ["qkd", "rate", "--h", "0.5", "--p", "0.7"],
                 ["bound", "overall", "--d", "100000000"],
                 ["verify", "pa", "--q", "-1"],
                 ["verify", "pa", "--l", "0"],
                 ["qkd", "run", "--max-sift", "-5"],
                 ["ot", "check-sender", "--adversary", "all-plus", "--n", "0"],
                 ["ot", "check-sender", "--adversary", "all-plus",
                  "--n", "-1"],
                 ["commit", "check-binding", "--adversary", "all-plus",
                  "--n", "0"],
                 ["commit", "check-binding", "--adversary", "all-plus",
                  "--n", "-1"],
                 ["verify", "relation", "--n", "0"],
                 ["verify", "relation", "--n", "-1"],
                 ["verify", "chain-rule", "--nx", "0"],
                 ["verify", "chain-rule", "--nx", "-3", "--ny", "-3"],
                 ["verify", "splitting", "--size", "0"]):
        code, out, err = run_main(capsysbinary, argv)
        assert code == 2, argv
        assert out == b"" and err.startswith(b"error:"), argv
        assert b"Traceback" not in err, argv
    # malformed adversary files (the library refuses the same ones)
    for i, data in enumerate(MALFORMED_ADVERSARIES):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        code, out, err = run_main(capsysbinary,
                                  ["commit", "check-binding", "--adversary",
                                   str(path), "--n", "2"])
        assert code == 2, data
        assert out == b"" and err.startswith(b"error:"), data
        assert b"Traceback" not in err, data


def test_open_numeric_bracket_exits_2(capsysbinary, monkeypatch):
    monkeypatch.setattr(uncertainty, "MAX_FRONTIER", 16)
    code, out, err = run_main(capsysbinary, ["verify", "relation", "--bases",
                                             "haar:2", "--n", "2"])
    assert code == 2
    assert out == b"" and err.startswith(b"error:")


def test_sweep_config_errors_exit_2(tmp_path, capsysbinary):
    cases = [
        "task=epsilon\nlam=0.1\nwidget=3\n",     # unknown key
        "lam=0.1\n",                             # task missing
        "task=bogus\n",                          # unknown task
        "task=epsilon\njust a line\n",           # not key=value
    ]
    for text in cases:
        cfg = write_config(tmp_path, text)
        code, _, err = run_main(capsysbinary, ["sweep", "--config", cfg])
        assert code == 2, text
        assert err.startswith(b"error:")
    code, _, _ = run_main(capsysbinary,
                          ["sweep", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


# --------------------------------------------------------- console script


def check_console_command(capsysbinary, command, env=None):
    """Run ``command`` as the CLI in a fresh process and hold it to the
    contract of in-process ``main``: the same stdout bytes with exit code 0,
    and exit code 2 with ``error:`` on stderr for a bad argument."""
    argv = ["bound", "overall", "--d", "16", "--json"]
    _, expected, _ = run_main(capsysbinary, argv)
    proc = subprocess.run(command + argv, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected

    proc = subprocess.run(command + ["verify", "delta-bound", "--x", "0.4"],
                          capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:")


def declared_entry_point():
    """The ``minentlab`` entry of ``[project.scripts]`` in the repo's
    pyproject.toml, as (module, attribute)."""
    tomllib = pytest.importorskip("tomllib")     # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["minentlab"]
    module, _, attr = spec.partition(":")
    return module, attr


def test_console_script_matches_in_process(capsysbinary):
    exe = shutil.which("minentlab")
    if exe:
        check_console_command(capsysbinary, [exe])

    # Launch the declared entry point the way a setuptools console script
    # does, against the same copy of the package this test imported.
    module, attr = declared_entry_point()
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    check_console_command(capsysbinary, [sys.executable, "-c", launcher],
                          env=env)


STARTUP_PROBE = """
import importlib, pkgutil, sys
import minentlab, minentlab.cli
for info in pkgutil.iter_modules(minentlab.__path__):
    importlib.import_module("minentlab." + info.name)
main = minentlab.cli.main

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for argv in (["bound", "overall", "--d", "16"],
             ["qkd", "run", "--N", "4000", "--seed", "3"],
             ["ot", "check-sender", "--adversary", "store-one-diag", "--n", "3"],
             ["commit", "check-binding", "--adversary", "all-plus", "--n", "3"],
             ["commit", "check-binding", "--adversary", "store-one-diag",
              "--n", "3"]):
    assert main(argv) in (0, 1), argv
    assert not scipy_loaded(), (argv, scipy_loaded()[:5])
"""


def test_startup_loads_no_scipy():
    """Importing the package and running commands, a binding check with a
    stored qubit among them, loads no scipy module (a fresh interpreter, so
    nothing imported by other tests counts)."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
