"""The benchmark's own tests: every independent check passes a real output
and fails a perturbed one, so no check is vacuous.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from minentlab import (cli, concentration, distrib, hashing, protocols,  # noqa: E402
                       uncertainty)


def fails(check, result, expect, round_results=None):
    return bool(checks.CHECKS[check](result, expect, round_results or {}))


def perturbed(rep, **changes):
    return dataclasses.replace(rep, **changes)


# ------------------------------------------------------------- protocols

@pytest.fixture(scope="module")
def sender_case():
    adv = workloads.builtin_adversary("store-one-diag", 4)
    expect = {"adversary": adv, "alpha": 1.0}
    return protocols.check_sender_security(adv, 1), expect


def test_sender_check(sender_case):
    rep, expect = sender_case
    assert not fails("sender", rep, expect)
    assert fails("sender", perturbed(rep, alpha=rep.alpha + 0.01), expect)
    assert fails("sender", perturbed(rep, distance=rep.bound + 1e-6), expect)
    assert fails("sender", perturbed(rep, distance=-1e-6), expect)
    assert fails("sender", perturbed(rep, prob_cprime1=1.0 + 1e-6), expect)
    assert fails("sender", perturbed(rep, holds=False), expect)


def test_dense_alpha_oracles_agree():
    adv = workloads.haar_one_ancilla(4, np.random.default_rng(5))
    rep = protocols.check_sender_security(adv, 1)
    expect = {"adversary": adv, "alpha": None}
    assert checks.alpha_enumeration(adv) == pytest.approx(
        checks.oracles().min_entropy_alpha_oracle(adv), abs=1e-12)
    assert not fails("sender", rep, expect)
    assert fails("sender", perturbed(rep, alpha=rep.alpha - 0.01), expect)


def test_receiver_check():
    script = workloads.scripted_senders(4, np.random.default_rng(3))[1]
    rep = protocols.check_receiver_security(script, 1)
    assert not fails("receiver", rep, {})
    assert fails("receiver", perturbed(rep, distance=rep.distance + 1e-6), {})
    assert fails("receiver",
                 perturbed(rep, independence=rep.independence + 1e-6), {})


@pytest.mark.parametrize("name, alpha", [("all-plus", 0.0),
                                         ("store-one-diag", 1.0)])
def test_binding_check(name, alpha):
    adv = workloads.builtin_adversary(name, 4)
    expect = {"adversary": adv, "alpha": alpha}
    rep = protocols.check_binding(adv)
    assert not fails("binding", rep, expect)
    assert fails("binding", perturbed(rep, alpha=rep.alpha + 0.01), expect)
    assert fails("binding", perturbed(rep, cheat_lower=rep.cheat_upper + 1e-6),
                 expect)
    assert fails("binding", perturbed(
        rep, open_success=(rep.open_success[0], 1.0 + 1e-6)), expect)
    assert fails("binding", perturbed(
        rep, prob_bound_bit=(rep.prob_bound_bit[0] + 1e-6,
                             rep.prob_bound_bit[1])), expect)
    assert fails("binding", perturbed(rep, weak_holds=False), expect)
    if rep.q == 0:
        assert fails("binding", perturbed(rep, cheat_lower=rep.cheat_upper
                                          - 1e-10), expect)


# ------------------------------------------------------------- verifiers

@pytest.mark.parametrize("n, l, q", [(4, 1, 0), (4, 2, 1), (5, 2, 2)])
def test_pa_check(n, l, q):
    cq, ops = workloads.random_ccq(n, q, np.random.default_rng(n + l + q))
    expect = {"ops": ops, "n": n, "l": l, "q": q, "eps": workloads.PA_EPS}
    rep = hashing.verify_pa(cq, l, workloads.PA_EPS)
    assert not fails("pa", rep, expect)
    assert fails("pa", perturbed(rep, exact_distance=rep.exact_distance + 1e-6),
                 expect)
    assert fails("pa", perturbed(rep, h_smooth=rep.h_smooth + 1e-6), expect)
    assert fails("pa", perturbed(rep, bound=rep.bound * 1.001), expect)


@pytest.mark.parametrize("family, kind", [("bb84", "haar"),
                                          ("sixstate", "zero")])
def test_relation_check(family, kind):
    bs = {"bb84": uncertainty.bb84_basis_set(),
          "sixstate": uncertainty.six_state_basis_set()}[family]
    state = workloads.relation_state(kind, 4, np.random.default_rng(9))
    expect = {"amp": state.amplitudes, "bases": bs, "n": 4,
              "lam": workloads.RELATION_LAM}
    rep = uncertainty.verify_uncertainty_relation(state, bs,
                                                  workloads.RELATION_LAM)
    assert not fails("relation", rep, expect)
    assert fails("relation", perturbed(
        rep, shannon_conditional=rep.shannon_conditional + 1e-6), expect)
    assert fails("relation", perturbed(
        rep, smooth_min_entropy=rep.smooth_min_entropy + 1e-6), expect)


def test_sequence_check():
    p = np.array([0.3, 0.7])
    expect = {"init": p, "trans": np.tile(p, (2, 1)), "n": 8, "lam": 0.2}
    rep = concentration.verify_dependent_sequence_bound(
        concentration.iid_model(p), 8, 0.2)
    assert not fails("sequence", rep, expect)
    assert fails("sequence", perturbed(
        rep, smooth_min_entropy=rep.smooth_min_entropy + 1e-6), expect)
    assert fails("sequence", perturbed(
        rep, entropy_floor=rep.entropy_floor + 1e-6), expect)


def test_chain_and_split_checks():
    rng = np.random.default_rng(4)
    pxy = workloads.random_joint((8, 4), ("x", "y"), rng)
    expect = {"joint": pxy, "eps": 0.01, "eps_prime": 0.01}
    rep = distrib.verify_chain_rule(pxy, 0.01, 0.01)
    assert not fails("chain", rep, expect)
    assert fails("chain", perturbed(rep, lhs=rep.lhs + 1e-6), expect)

    pair = workloads.random_joint((8, 8), ("x0", "x1"), rng)
    assignment, rep = distrib.min_entropy_split(pair, distrib.min_entropy(pair))
    expect = {"joint": pair}
    assert not fails("split", (assignment, rep), expect)
    assert fails("split", (assignment, perturbed(
        rep, max_weight=rep.max_weight + 1e-6)), expect)


# ------------------------------------------------------------------ cli

def invocation(argv, tmp_path, monkeypatch):
    """Run the command in-process, as the cli-session workload does."""
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    out_name = argv[argv.index("--out") + 1] if "--out" in argv else None
    return workloads.run_main(argv, tmp_path, out_name)


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def test_cli_value_and_byte_checks(tmp_path, monkeypatch):
    argv = ["qkd", "threshold", "--h", "0.6667", "--json"]
    first = invocation(argv, tmp_path, monkeypatch)
    again = invocation(argv, tmp_path, monkeypatch)
    saved = invocation(argv + ["--out", "thr.json"], tmp_path, monkeypatch)
    base = {"threshold": 0.6667}
    same = {"same_as": "first", "out_is_stdout": True}
    assert not fails("cli", first, base)
    assert not fails("cli", saved, dict(base, **same), {"first": first})

    digit = first.stdout.index(b'"value":') + len(b'"value":') + 4
    assert fails("cli", dataclasses.replace(
        first, stdout=flip(first.stdout, digit)), base)
    for at in range(len(saved.stdout)):        # any one byte, anywhere
        assert fails("cli", dataclasses.replace(
            saved, out_bytes=flip(saved.out_bytes, at)), same, {"first": first})
        assert fails("cli", again, {"same_as": "first"},
                     {"first": dataclasses.replace(
                         first, stdout=flip(first.stdout, at))})
    assert fails("cli", dataclasses.replace(first, code=1), base)


def test_cli_sweep_and_receiver_checks(tmp_path, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("task = overall\nd = 2,5,9\nseed = 3\n")
    inv = invocation(["sweep", "--config", str(cfg), "--out", "s.csv"],
                     tmp_path, monkeypatch)
    expect = {"sweep": [2, 5, 9], "out_is_stdout": True}
    assert not fails("cli", inv, expect)
    bound_at = inv.stdout.index(b"\n") + len(b"overall,2,") + 22
    assert fails("cli", dataclasses.replace(
        inv, stdout=flip(inv.stdout, bound_at),
        out_bytes=flip(inv.stdout, bound_at)), expect)

    rcv = invocation(["ot", "check-receiver", "--n", "3", "--json"],
                     tmp_path, monkeypatch)
    assert not fails("cli", rcv, {"receiver": True})
    report = json.loads(rcv.stdout)
    report["checks"][0]["value"] += 1e-6          # a distance raised by 1e-6
    bad = json.dumps(report).encode()
    assert fails("cli", dataclasses.replace(rcv, stdout=bad), {"receiver": True})
