"""Workload inputs and verdicts.

``build(workload, seed, workdir)`` turns a seed into one round of verdicts:
a fixed list of ``Item``s, the same operations in the same order for every
seed, with seed-dependent inputs (Haar unitaries, product bases, cq-states,
command-line values).  Each item knows how to run its verdict against the
program and which independent check (in ``checks``) judges the output.
A round lasts a few seconds, so a run repeats it several times and every
verdict's time is a mean over samples spread across the whole run.

This module imports the program but not the test oracles, so a fresh
interpreter that only builds inputs measures the set-up a user pays.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from minentlab import (cli, concentration, distrib, hashing, protocols, qsim,
                       uncertainty)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Item:
    """One verdict: ``call()`` runs it, ``check`` names its independent check
    and ``expect`` carries what that check needs besides the output."""

    label: str
    call: Callable[[], object]
    check: str
    expect: dict = field(default_factory=dict)
    basis_strings: int = 0          # 2^n for checkers that walk basis strings
    spawn: Callable[[], object] | None = None   # the same verdict, own process


# ------------------------------------------------------------ adversaries

def builtin_adversary(name: str, n: int) -> protocols.BoundedAdversary:
    """The three built-in attacks of the command line, built from the public
    ``product_adversary``."""
    if name == "all-plus":
        return protocols.product_adversary(name, n, {i: "+" for i in range(n)})
    if name == "breidbart":
        return protocols.product_adversary(name, n,
                                           {i: "breidbart" for i in range(n)})
    return protocols.product_adversary(name, n, {i: "x" for i in range(1, n)},
                                       kept=(0,))


BUILTIN_ALPHA = {
    "all-plus": lambda n: 0.0,
    "breidbart": lambda n: n * math.log2(1.0 / math.cos(math.pi / 8.0) ** 2),
    "store-one-diag": lambda n: 1.0,
}


def product_q2(n: int, rng: np.random.Generator) -> protocols.BoundedAdversary:
    """Stores two random wires raw and measures the rest in random
    computational-or-diagonal bases: H_min(X | Theta K) = 2 exactly."""
    kept = tuple(sorted(int(w) for w in rng.choice(n, size=2, replace=False)))
    measure = {i: ("+", "x")[int(rng.integers(2))]
               for i in range(n) if i not in kept}
    return protocols.product_adversary("product-q2", n, measure, kept=kept)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_one_ancilla(n: int, rng: np.random.Generator) -> protocols.BoundedAdversary:
    """Dense Haar-random attack on n received wires plus one ancilla,
    keeping one random wire (q = 1)."""
    u = haar_unitary(2 ** (n + 1), rng)
    kept = (int(rng.integers(n + 1)),)
    return protocols.BoundedAdversary(f"haar-anc1-n{n}", n, kept, 1, u)


# --------------------------------------------------------------- ot-sender

def scripted_senders(n: int, rng: np.random.Generator):
    """Three dishonest-sender scripts: a maximally mixed state, a GHZ state
    with one kept qubit, and a tilted product state; hashes and angles come
    from the seed."""
    dim = 2 ** n
    f0 = hashing.sample_hash(n, 1, rng)
    f1 = hashing.sample_hash(n, 1, rng)
    theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
    mixed = qsim.DensityOperator((2,) * n, np.eye(dim) / dim)
    ghz = np.zeros(2 * dim)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    amp = np.array([1.0])
    for angle in rng.uniform(0.0, math.pi, size=n):
        amp = np.kron(amp, np.array([math.cos(angle), math.sin(angle)]))
    return [
        protocols.ScriptedSender("uniform-comp", n, mixed, (), theta, f0, f1),
        protocols.ScriptedSender("ghz-side", n,
                                 qsim.StateVector((2,) * n + (2,), ghz), (2,),
                                 theta, f0, f1),
        protocols.ScriptedSender("tilted-product", n,
                                 qsim.StateVector((2,) * n, amp), (),
                                 tuple(1 - t for t in theta), f0, f1),
    ]


def _sender_item(label, adv, alpha):
    return Item(label, lambda: protocols.check_sender_security(adv, 1),
                "sender", {"adversary": adv, "alpha": alpha},
                basis_strings=2 ** adv.n)


def ot_sender(seed: int) -> list[Item]:
    """Eleven checks; the three n=6 dense receivers, of equal cost, hold
    the median verdict (the 6th of 11)."""
    rng = np.random.default_rng(seed)
    builtin = [_sender_item(f"sender/{name}/n7", builtin_adversary(name, 7),
                            BUILTIN_ALPHA[name](7))
               for name in ("all-plus", "breidbart", "store-one-diag")]
    q2 = _sender_item("sender/product-q2/n6", product_q2(6, rng), 2.0)
    dense = [_sender_item(f"sender/haar-anc1/n{n}{tag}",
                          haar_one_ancilla(n, rng), None)
             for tag, n in (("a", 5), ("a", 6), ("b", 6), ("c", 6))]
    scripts = [Item(f"receiver/{script.label}/n6",
                    lambda s=script: protocols.check_receiver_security(s, 1),
                    "receiver")
               for script in scripted_senders(6, rng)]
    return builtin + [q2] + dense + scripts


# ----------------------------------------------------------- commit-binding

def commit_binding(seed: int) -> list[Item]:
    """Five checks; the median verdict (the 3rd of 5) is one of the two n=7
    q=0 checks, which cost the same, between the q=2 check (a third of
    their cost) and the q=1 searches (twice their cost or more)."""
    rng = np.random.default_rng(seed)
    advs = [(product_q2(6, rng), 2.0),
            (builtin_adversary("all-plus", 7), 0.0),
            (builtin_adversary("breidbart", 7), BUILTIN_ALPHA["breidbart"](7)),
            (builtin_adversary("store-one-diag", 4), 1.0),
            (haar_one_ancilla(2, rng), None)]
    return [Item(f"binding/{adv.name}/n{adv.n}",
                 lambda a=adv: protocols.check_binding(a), "binding",
                 {"adversary": adv, "alpha": alpha}, basis_strings=2 ** adv.n)
            for adv, alpha in advs]


# ---------------------------------------------------------------- verifiers

def random_ccq(n: int, q: int, rng: np.random.Generator):
    """Random source over n bits with one pure q-qubit memory state per
    symbol; returns the cq-state and its (2^n, D, D) operator stack."""
    probs = rng.random(2 ** n)
    probs /= probs.sum()
    dim = 2 ** q
    psi = rng.normal(size=(2 ** n, dim)) + 1j * rng.normal(size=(2 ** n, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    ops = probs[:, None, None] * np.einsum("xi,xj->xij", psi, psi.conj())
    branches = {}
    for xi in range(2 ** n):
        x = tuple((xi >> (n - 1 - i)) & 1 for i in range(n))
        branches[(x, 0)] = ops[xi]
    return qsim.CqState((dim,), branches), ops


def random_joint(shape, names, rng) -> distrib.JointDistribution:
    w = rng.random(shape)
    w /= w.sum()
    return distrib.JointDistribution(
        names, {(i, j): float(w[i, j]) for i in range(shape[0])
                for j in range(shape[1])})


def relation_state(kind: str, n: int, rng) -> qsim.StateVector:
    dim = 2 ** n
    if kind == "zero":
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
    else:
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
    return qsim.StateVector((2,) * n, amp)


PA_EPS = 0.01
RELATION_LAM = 0.05


def verifiers(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for n in (5, 6, 7):
        for l in (1, 2):
            for q in (0, 1, 2):
                cq, ops = random_ccq(n, q, rng)
                items.append(Item(
                    f"pa/n{n}-l{l}-q{q}",
                    lambda c=cq, l=l: hashing.verify_pa(c, l, PA_EPS), "pa",
                    {"ops": ops, "n": n, "l": l, "q": q, "eps": PA_EPS}))
    sets = {"bb84": uncertainty.bb84_basis_set(),
            "sixstate": uncertainty.six_state_basis_set()}
    # twelve BB84 n=8 relations of equal cost hold the median verdict (the
    # 19th of 37): 17 verdicts cost less, 8 cost more
    for family, kind, n in ((("bb84", "haar", 8),) * 10
                            + (("bb84", "zero", 8),) * 2
                            + (("sixstate", "haar", 6), ("sixstate", "zero", 6),
                               ("bb84", "haar", 6))):
        state = relation_state(kind, n, rng)
        bs = sets[family]
        items.append(Item(
            f"relation/{family}-{kind}/n{n}/{len(items)}",
            lambda s=state, b=bs: uncertainty.verify_uncertainty_relation(
                s, b, RELATION_LAM),
            "relation", {"amp": state.amplitudes, "bases": bs, "n": n,
                         "lam": RELATION_LAM}))
    p = rng.dirichlet(np.ones(2)) * 0.5 + 0.25
    items.append(Item("sequence/iid/n10",
                      lambda: concentration.verify_dependent_sequence_bound(
                          concentration.iid_model(p), 10, 0.2),
                      "sequence", {"init": p, "trans": np.tile(p, (2, 1)),
                                   "n": 10, "lam": 0.2}))
    init = rng.dirichlet(np.ones(3)) * 0.4 + 0.2
    trans = rng.dirichlet(np.ones(3), size=3) * 0.4 + 0.2
    items.append(Item("sequence/markov/n6",
                      lambda: concentration.verify_dependent_sequence_bound(
                          concentration.markov_model(init, trans), 6, 0.2),
                      "sequence", {"init": init, "trans": trans, "n": 6,
                                   "lam": 0.2}))
    pxy = random_joint((8, 4), ("x", "y"), rng)
    items.append(Item("chain-rule/8x4",
                      lambda: distrib.verify_chain_rule(pxy, 0.01, 0.01),
                      "chain", {"joint": pxy, "eps": 0.01, "eps_prime": 0.01}))
    pair = random_joint((8, 8), ("x0", "x1"), rng)
    items.append(Item("splitting/8x8",
                      lambda: distrib.min_entropy_split(
                          pair, distrib.min_entropy(pair)),
                      "split", {"joint": pair}))
    return items


# -------------------------------------------------------------- cli-session

def console_launcher() -> list[str]:
    """Interpreter command that runs the ``minentlab`` entry of
    ``[project.scripts]`` the way a generated console script does."""
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["minentlab"]
    module, attr = spec.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def child_env(outdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[cli.OUTDIR_ENV] = outdir
    return env


@dataclass
class Invocation:
    code: int
    stdout: bytes
    stderr: bytes
    out_bytes: bytes | None


def _take_out(workdir: Path, out_name) -> bytes | None:
    if out_name is None:
        return None
    path = workdir / out_name
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def run_main(argv, workdir: Path, out_name=None) -> Invocation:
    """Run one command through ``cli.main`` in this process, with standard
    output and error captured as a console script's would be.  ``cli.main``
    is looked up at call time, so a traced run sees the call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(argv))
        out.flush()
        stdout = out.buffer.getvalue()
    finally:
        sys.stdout, sys.stderr = saved
    return Invocation(code, stdout, err.getvalue().encode(),
                      _take_out(workdir, out_name))


def run_console(launcher, argv, env, workdir: Path, out_name=None) -> Invocation:
    """Spawn one console-script invocation and wait for it."""
    proc = subprocess.run(launcher + argv, capture_output=True, env=env,
                          cwd=workdir)
    return Invocation(proc.returncode, proc.stdout, proc.stderr,
                      _take_out(workdir, out_name))


def cli_commands(seed: int, workdir: Path) -> list[tuple[str, list[str], dict]]:
    """(label, argv, expectations) for one session; identical command lines
    recur and some reports are also written with --out."""
    rng = np.random.default_rng(seed)
    s = lambda: str(int(rng.integers(0, 2 ** 31)))
    d = int(rng.integers(2, 65))
    x = float(rng.uniform(0.001, 0.05))
    h_rate = float(rng.uniform(0.5, 0.9))
    p_rate = float(rng.uniform(0.005, 0.08))
    sweep_d = sorted(int(v) for v in rng.choice(np.arange(2, 129), 6,
                                                replace=False))
    cfg = workdir / "grid.cfg"
    cfg.write_text("task = overall\nd = " + ",".join(map(str, sweep_d))
                   + f"\nseed = {s()}\n")
    overall = ["bound", "overall", "--d", str(d), "--json"]
    threshold = ["qkd", "threshold", "--h", "0.6667", "--json"]
    return [
        ("bound-mu", ["bound", "mu", "--basis1", "plus", "--basis2", "x",
                      "--json"], {"value": ("muBound", 0.5)}),
        ("bound-sixstate", ["bound", "sixstate", "--json"],
         {"value": ("sixStateBound", 2.0 / 3.0)}),
        ("bound-overall", overall, {"overall": d}),
        ("bound-overall-again", overall, {"same_as": "bound-overall"}),
        ("bound-overall-out", overall + ["--out", "overall.json"],
         {"same_as": "bound-overall", "out_is_stdout": True}),
        ("bound-numeric", ["bound", "numeric", "--bases", "bb84", "--seed",
                           s(), "--json"], {"numeric": 0.5}),
        ("verify-delta", ["verify", "delta-bound", "--x", f"{x:.6f}",
                          "--json"], {"delta": float(f"{x:.6f}")}),
        ("verify-chain", ["verify", "chain-rule", "--seed", s(), "--json"], {}),
        ("verify-splitting", ["verify", "splitting", "--seed", s()],
         {"text": True}),
        ("verify-pa", ["verify", "pa", "--n", "4", "--l", "2", "--q", "1",
                       "--seed", s(), "--json"], {}),
        ("verify-relation", ["verify", "relation", "--seed", s(), "--json"],
         {}),
        ("ot-run", ["ot", "run", "--seed", s(), "--json"], {"ot": True}),
        ("ot-run-epr", ["ot", "run", "--epr", "--seed", s(), "--json"],
         {"ot": True}),
        ("ot-check-receiver", ["ot", "check-receiver", "--n", "4", "--json"],
         {"receiver": True}),
        ("commit-run", ["commit", "run", "--seed", s()], {"text": True}),
        ("qkd-run-ideal", ["qkd", "run", "--N", "100000", "--max-sift", "30000",
                           "--seed", s(),
                           "--json"], {"keys": True}),
        ("qkd-run-syndrome", ["qkd", "run", "--mode", "linear-syndrome",
                              "--bases", "bb84", "--p", "0", "--N", "40",
                              "--max-sift", "20", "--seed", s(), "--json"],
         {"keys": True}),
        ("qkd-rate", ["qkd", "rate", "--h", f"{h_rate:.6f}", "--p",
                      f"{p_rate:.6f}", "--json"],
         {"rate": (float(f"{h_rate:.6f}"), float(f"{p_rate:.6f}"))}),
        ("qkd-threshold", threshold, {"threshold": 0.6667}),
        ("qkd-threshold-out", threshold + ["--out", "threshold.json"],
         {"same_as": "qkd-threshold", "out_is_stdout": True}),
        ("sweep", ["sweep", "--config", str(cfg), "--out", "sweep.csv"],
         {"sweep": sweep_d, "out_is_stdout": True}),
    ]


def cli_session(seed: int, workdir: Path) -> list[Item]:
    """Each verdict is one command run through ``cli.main`` in the driving
    process; ``spawn`` runs the same command as a fresh console script,
    which the traced run uses to measure the process overhead."""
    launcher = console_launcher()
    env = child_env(str(workdir))
    items = []
    for label, argv, expect in cli_commands(seed, workdir):
        out_name = argv[argv.index("--out") + 1] if "--out" in argv else None
        if "same_as" in expect:
            expect = dict(expect, same_as=f"cli/{expect['same_as']}")
        items.append(Item(
            f"cli/{label}",
            lambda a=argv, o=out_name: run_main(a, workdir, o),
            "cli", dict(expect, argv=argv),
            spawn=lambda a=argv, o=out_name: run_console(launcher, a, env,
                                                         workdir, o)))
    return items


def build(workload: str, seed: int, workdir: Path) -> list[Item]:
    if workload == "ot-sender":
        return ot_sender(seed)
    if workload == "commit-binding":
        return commit_binding(seed)
    if workload == "verifiers":
        return verifiers(seed)
    if workload == "cli-session":
        return cli_session(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """Untimed small calls through the same paths, so lazy imports and
    first-call set-up are paid before the timed phase."""
    rng = np.random.default_rng(12345)
    if workload == "ot-sender":
        protocols.check_sender_security(builtin_adversary("store-one-diag", 3), 1)
        protocols.check_sender_security(product_q2(3, rng), 1)
        protocols.check_receiver_security(scripted_senders(2, rng)[1], 1)
    elif workload == "commit-binding":
        protocols.check_binding(builtin_adversary("store-one-diag", 3))
        protocols.check_binding(product_q2(3, rng))
    elif workload == "verifiers":
        hashing.verify_pa(random_ccq(3, 1, rng)[0], 1, PA_EPS)
        uncertainty.verify_uncertainty_relation(
            relation_state("haar", 2, rng), uncertainty.six_state_basis_set(),
            RELATION_LAM)

