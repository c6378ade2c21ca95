"""Command-line front end for the whole toolkit.

One executable, six subcommands:

  bound    closed-form and numeric entropic-uncertainty constants
  verify   exact verifiers for the individual inequalities
  ot       oblivious-transfer runs and security checkers
  commit   commitment runs and the binding checker
  qkd      key-distribution runs, rates, noise thresholds
  sweep    parameter grids driven by a flat key=value config file

Reports are deterministic: the same configuration produces byte-identical
output (floats are rounded to 12 significant digits before serialization,
and wall-clock goes to stderr only).  A report's config is its parsed
arguments, camelCased, without the output flags.  Exit status is 0 when
every check holds, 1 when some check fails, 2 on usage or configuration
errors, a malformed adversary file or a size past a library gate.

Relative ``--out`` paths are resolved against the MINENTLAB_OUTDIR
environment variable when it is set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import concentration, distrib, hashing, protocols, qkd, qsim, uncertainty

OUTDIR_ENV = "MINENTLAB_OUTDIR"
# built-in adversaries: the basis of every measured wire, and the kept wires
_BUILTINS = {"all-plus": ("+", ()), "breidbart": ("breidbart", ()),
             "store-one-diag": ("x", (0,))}
BUILTIN_ADVERSARIES = tuple(_BUILTINS)
SWEEP_TASKS = ("rate", "epsilon", "overall")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _canonical(obj):
    """Round floats to 12 significant digits and strip numpy types so the
    serialized report is byte-stable."""
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _report_bytes(report: dict) -> bytes:
    text = json.dumps(_canonical(report), sort_keys=True,
                      separators=(",", ":"))
    return (text + "\n").encode()


def _checks_csv_bytes(checks: list[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "bound", "holds"])
    for ch in checks:
        writer.writerow([
            ch["name"],
            _fmt(ch["value"]) if ch.get("value") is not None else "",
            _fmt(ch["bound"]) if ch.get("bound") is not None else "",
            _fmt(ch["holds"]) if ch.get("holds") is not None else "",
        ])
    return buf.getvalue().encode()


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _check(name: str, value=None, bound=None, holds=None, **detail) -> dict:
    entry = {"name": name, "value": value, "bound": bound, "holds": holds}
    if detail:
        entry["detail"] = detail
    return entry


def _emit(args, config: dict, checks: list[dict], raw_bytes=None) -> int:
    """Print the report, optionally persist it, and derive the exit code.

    ``raw_bytes`` overrides the serialized form (used by sweep, whose
    report is the CSV itself).
    """
    report = {
        "artifact": {"name": "minentlab", "version": __version__},
        "config": config,
        "checks": checks,
    }
    failed = [c for c in checks if c["holds"] is False]

    if getattr(args, "json", False):
        sys.stdout.buffer.write(_report_bytes(report))
    elif raw_bytes is not None:
        sys.stdout.buffer.write(raw_bytes)
    else:
        for ch in checks:
            parts = [ch["name"]]
            if ch["value"] is not None:
                parts.append(f"value={_fmt(ch['value'])}")
            if ch["bound"] is not None:
                parts.append(f"bound={_fmt(ch['bound'])}")
            if ch["holds"] is not None:
                parts.append(f"holds={_fmt(ch['holds'])}")
            print("  ".join(parts))
            if getattr(args, "verbose", False) and "detail" in ch:
                print(json.dumps(_canonical(ch["detail"]), sort_keys=True),
                      file=sys.stderr)
        if failed:
            print("FAIL: " + ", ".join(c["name"] for c in failed))

    out = getattr(args, "out", None)
    if out:
        path = _resolve_out(out)
        if raw_bytes is not None:
            payload = raw_bytes
        elif getattr(args, "format", "json") == "csv":
            payload = _checks_csv_bytes(checks)
        else:
            payload = _report_bytes(report)
        with open(path, "wb") as fh:
            fh.write(payload)

    return 1 if failed else 0


# the dests _add_common registers: how a report is written, not what it holds
_OUTPUT_FLAGS = ("out", "format", "json", "verbose")


def _config(args) -> dict:
    """A report's config: the subcommand, then every parsed argument under
    its camelCase name (eps_prime -> epsPrime) but the dispatch keys, the
    output flags and sweep's file path."""
    kind = getattr(args, "kind", None)  # sweep has none
    config = {"subcommand": f"{args.command} {kind}" if kind
              else args.command}
    for key, value in vars(args).items():
        if key not in ("command", "kind", "config") + _OUTPUT_FLAGS:
            head, *rest = key.split("_")
            config[head + "".join(w.capitalize() for w in rest)] = value
    return config


# ---------------------------------------------------------------- bases

_BASIS_LABELS = ("plus", "x", "circular", "breidbart")


def _qubit_basis(label: str) -> qsim.Basis:
    comp, diag, circ = qsim.standard_bases_qubit()
    table = {"plus": comp, "x": diag, "circular": circ,
             "breidbart": protocols.breidbart_basis()}
    if label not in table:
        raise ValueError(f"unknown basis {label!r} (choose from {_BASIS_LABELS})")
    return table[label]


def _parse_bases_spec(spec: str, seed: int):
    """bb84 | sixstate | haar:k -> list of Basis objects."""
    comp, diag, circ = qsim.standard_bases_qubit()
    if spec == "bb84":
        return [comp, diag]
    if spec == "sixstate":
        return [comp, diag, circ]
    if spec.startswith("haar:"):
        k = int(spec.split(":", 1)[1])
        if k < 2:
            raise ValueError("need at least two bases")
        rng = np.random.default_rng(seed)
        return [qsim.haar_random_basis(2, rng) for _ in range(k)]
    raise ValueError(f"unknown basis family {spec!r}")


def _basis_set(spec: str, seed: int) -> uncertainty.BasisSet:
    if spec == "bb84":
        return uncertainty.bb84_basis_set()
    if spec == "sixstate":
        return uncertainty.six_state_basis_set()
    return uncertainty.numeric_basis_set(_parse_bases_spec(spec, seed))


def _builtin_adversary(name: str, n: int) -> protocols.BoundedAdversary:
    label, kept = _BUILTINS[name]
    return protocols.product_adversary(
        name, n, {i: label for i in range(n) if i not in kept}, kept)


def _load_adversary(spec: str, n: int) -> protocols.BoundedAdversary:
    protocols.check_attack_size(n)
    if spec in BUILTIN_ADVERSARIES:
        return _builtin_adversary(spec, n)
    with open(spec) as fh:
        adv = protocols.BoundedAdversary.from_json(json.load(fh))
    if adv.n != n:
        raise ValueError(f"adversary file is for n={adv.n}, requested n={n}")
    return adv


def _script_battery(n: int, l: int) -> list[protocols.ScriptedSender]:
    """Three fixed dishonest-sender scripts used by ``ot check-receiver``."""
    protocols.check_receiver_size(n)
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n = {n}, got l = {l}")
    dim = 2 ** n
    f0 = hashing.sample_hash(n, l, np.random.default_rng(101))
    f1 = hashing.sample_hash(n, l, np.random.default_rng(202))

    mixed = qsim.DensityOperator((2,) * n, np.eye(dim) / dim)
    uniform = protocols.ScriptedSender("uniform-comp", n, mixed, (), (0,) * n,
                                       f0, f1)

    ghz = np.zeros(2 * dim)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    entangled = protocols.ScriptedSender(
        "ghz-side", n, qsim.StateVector((2,) * n + (2,), ghz), (2,),
        tuple(i % 2 for i in range(n)), f0, f1)

    amp = np.array([1.0])
    for i in range(n):
        amp = np.kron(amp, np.array([math.cos(0.3 + 0.2 * i),
                                     math.sin(0.3 + 0.2 * i)]))
    tilted = protocols.ScriptedSender(
        "tilted-product", n, qsim.StateVector((2,) * n, amp), (),
        tuple(1 - (i % 2) for i in range(n)), f0, f1)
    return [uniform, entangled, tilted]


# ---------------------------------------------------------------- bound

def cmd_bound(args, config: dict) -> list[dict]:
    checks = []
    if args.kind == "mu":
        value = uncertainty.maassen_uffink_bound(_qubit_basis(args.basis1),
                                                 _qubit_basis(args.basis2))
        checks.append(_check("muBound", value=value))
    elif args.kind == "sixstate":
        checks.append(_check("sixStateBound",
                             value=uncertainty.six_state_bound()))
    elif args.kind == "overall":
        checks.append(_check("overallBound",
                             value=uncertainty.overall_bound(args.d)))
    else:  # numeric
        bases = _parse_bases_spec(args.bases, args.seed)
        res = uncertainty.numeric_average_bound(bases)
        checks.append(_check("numericBound", value=res.value,
                             holds=res.converged, lower=res.lower,
                             squares=res.squares))
    return checks


# ---------------------------------------------------------------- verify

def cmd_verify(args, config: dict) -> list[dict]:
    checks = []
    if args.kind == "azuma":
        bound = concentration.azuma_tail_bound(args.lam, 1.0, args.n)
        rng = np.random.default_rng(args.seed)
        freq = concentration.azuma_empirical_tail(args.lam, args.n,
                                                  args.trials, rng)
        checks.append(_check("azumaTail", value=freq, bound=bound,
                             holds=freq <= bound))
    elif args.kind == "sequence-bound":
        probs = [float(t) for t in args.p.split(",")]
        model = concentration.iid_model(probs)
        rep = concentration.verify_dependent_sequence_bound(model, args.n,
                                                            args.lam)
        checks.append(_check("sequenceBound", value=rep.smooth_min_entropy,
                             bound=rep.bound, holds=rep.holds,
                             eps=rep.eps, entropyFloor=rep.entropy_floor))
    elif args.kind == "delta-bound":
        rep = concentration.verify_delta_lower_bound(args.x)
        checks.append(_check("deltaBound", value=rep.x, bound=rep.lower,
                             holds=rep.holds, y=rep.y))
    elif args.kind == "chain-rule":
        if args.nx * args.ny > distrib.MAX_JOINT_ATOMS:
            raise ValueError("joint too large "
                             f"(nx * ny <= {distrib.MAX_JOINT_ATOMS})")
        rng = np.random.default_rng(args.seed)
        w = rng.random((args.nx, args.ny))
        w /= w.sum()
        pxy = distrib.JointDistribution(
            ("x", "y"), {(i, j): w[i, j] for i in range(args.nx)
                         for j in range(args.ny)})
        rep = distrib.verify_chain_rule(pxy, args.eps, args.eps_prime)
        checks.append(_check("chainRule", value=rep.lhs, bound=rep.rhs,
                             holds=rep.holds, nearEquality=rep.near_equality))
    elif args.kind == "splitting":
        if args.size ** 2 > distrib.MAX_JOINT_ATOMS:
            raise ValueError("joint too large "
                             f"(size^2 <= {distrib.MAX_JOINT_ATOMS})")
        rng = np.random.default_rng(args.seed)
        w = rng.random((args.size, args.size))
        w /= w.sum()
        p = distrib.JointDistribution(
            ("x0", "x1"), {(i, j): w[i, j] for i in range(args.size)
                           for j in range(args.size)})
        alpha = distrib.min_entropy(p)
        _, rep = distrib.min_entropy_split(p, alpha)
        checks.append(_check("splitting", value=rep.max_weight,
                             bound=rep.threshold, holds=rep.holds,
                             alpha=rep.alpha,
                             splitMinEntropy=rep.split_min_entropy))
    elif args.kind == "pa":
        hashing.check_pa_size(args.n, args.l, args.q, 1)
        cq = _random_ccq(args.n, args.q, args.seed)
        rep = hashing.verify_pa(cq, args.l, args.eps)
        checks.append(_check("privacyAmp", value=rep.exact_distance,
                             bound=rep.bound, holds=rep.holds,
                             hSmooth=rep.h_smooth))
    else:  # relation
        bs = _basis_set(args.bases, args.seed)
        uncertainty.check_relation_size(bs, args.n)
        state = _relation_state(args.state, args.n, args.seed)
        rep = uncertainty.verify_uncertainty_relation(state, bs, args.lam)
        checks.append(_check("relation", value=rep.smooth_min_entropy,
                             bound=rep.bound, holds=rep.holds,
                             eps=rep.eps,
                             shannonConditional=rep.shannon_conditional))
    return checks


def _random_ccq(n: int, q: int, seed: int) -> qsim.CqState:
    """Random ccq-state for the privacy-amplification verifier: a random
    source distribution with one pure memory state per symbol."""
    rng = np.random.default_rng(seed)
    probs = rng.random(2 ** n)
    probs /= probs.sum()
    dim = 2 ** q
    branches = {}
    for xi in range(2 ** n):
        x = tuple((xi >> (n - 1 - i)) & 1 for i in range(n))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        branches[(x, 0)] = probs[xi] * np.outer(psi, psi.conj())
    return qsim.CqState((dim,), branches)


def _relation_state(kind: str, n: int, seed: int):
    dim = 2 ** n
    if kind == "zero":
        amp = np.zeros(dim)
        amp[0] = 1.0
    elif kind == "haar":
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return qsim.StateVector((2,) * n, amp)


# ---------------------------------------------------------------- ot

def cmd_ot(args, config: dict) -> list[dict]:
    checks = []
    if args.kind == "run":
        runner = protocols.run_epr_ot if args.epr else protocols.run_ot
        t = runner(args.n, args.l, args.c, seed=args.seed)
        chosen = t.s0 if t.c == 0 else t.s1
        match = tuple(chosen) == tuple(t.y)
        checks.append(_check("correctness", value=1.0 if match else 0.0,
                             holds=match, transcript=t.to_json()))
    elif args.kind == "check-receiver":
        for sender in _script_battery(args.n, args.l):
            rep = protocols.check_receiver_security(sender, args.l)
            checks.append(_check(f"receiverSecurity[{rep.label}]",
                                 value=rep.distance, bound=0.0,
                                 holds=rep.holds,
                                 independence=rep.independence))
    else:  # check-sender
        adv = _load_adversary(args.adversary, args.n)
        rep = protocols.check_sender_security(adv, args.l)
        checks.append(_check(f"senderSecurity[{rep.name}]",
                             value=rep.distance, bound=rep.bound,
                             holds=rep.holds, alpha=rep.alpha,
                             q=rep.q, boundRaw=rep.bound_raw,
                             trivial=rep.trivial, chain=rep.chain,
                             probCprime1=rep.prob_cprime1))
    return checks


# ---------------------------------------------------------------- commit

def cmd_commit(args, config: dict) -> list[dict]:
    checks = []
    if args.kind == "run":
        t = protocols.run_commit(args.n, args.b, seed=args.seed)
        checks.append(_check("honestOpen", value=1.0 if t.accept else 0.0,
                             holds=t.accept, transcript=t.to_json()))
    else:  # check-binding
        adv = _load_adversary(args.adversary, args.n)
        rep = protocols.check_binding(adv)
        checks.append(_check(f"binding[{rep.name}]", value=rep.cheat_upper,
                             bound=rep.eps, holds=rep.holds,
                             alpha=rep.alpha, q=rep.q,
                             cheatLower=rep.cheat_lower,
                             cheatJoint=list(rep.cheat_joint),
                             openSuccess=list(rep.open_success),
                             probBoundBit=list(rep.prob_bound_bit),
                             epsRaw=rep.eps_raw, trivial=rep.trivial))
        checks.append(_check(f"weakBinding[{rep.name}]", value=rep.weak_sum,
                             bound=1.0 + rep.eps, holds=rep.weak_holds))
    return checks


# ---------------------------------------------------------------- qkd

def cmd_qkd(args, config: dict) -> list[dict]:
    checks = []
    if args.kind == "run":
        bs = _basis_set(args.bases, args.seed)
        run = qkd.run_qkd(bs, args.N, qkd.ChannelModel(args.p),
                          mode=args.mode, seed=args.seed, eps=args.eps,
                          q=args.q, max_sift=args.max_sift)
        checks.append(_check("keysMatch",
                             value=1.0 if run.keys_match else 0.0,
                             holds=run.keys_match,
                             run=run.to_json(include_strings=False)))
        checks.append(_check("keyLength", value=float(run.l)))
        checks.append(_check("qber", value=run.qber))
    elif args.kind == "rate":
        h = config["h"] = _resolve_h(args)
        rep = qkd.rate_report(h, args.p)
        checks.append(_check("rate", value=rep.rate, errorEntropy=rep.e))
        checks.append(_check("threshold", value=rep.threshold))
    else:  # threshold
        h = config["h"] = _resolve_h(args)
        checks.append(_check("threshold", value=qkd.noise_threshold(h)))
    return checks


def _resolve_h(args) -> float:
    if args.h is not None:
        return args.h
    if args.bases is not None:
        return _basis_set(args.bases, args.seed).h
    raise ValueError("give either --h or --bases")


# ---------------------------------------------------------------- sweep

def _parse_sweep_config(path: str) -> dict:
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    if "task" not in entries:
        raise ValueError("sweep config needs a task= line")
    if entries["task"] not in SWEEP_TASKS:
        raise ValueError(f"unknown task {entries['task']!r} "
                         f"(choose from {SWEEP_TASKS})")
    return entries


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _cell_seed(master: int, task: str, coords: list[tuple[str, str]]) -> int:
    tag = f"{master}|{task}|" + "|".join(f"{k}={v}" for k, v in coords)
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sweep_plan(entries: dict):
    """Expand the config into (columns, rows of coordinate dicts)."""
    task = entries["task"]
    master = int(entries.get("seed", "0"))
    known = {"task", "seed"}

    if task == "rate":
        axes = [("bases", _split_list(entries.get("bases", "bb84"))),
                ("p", _split_list(entries.get("p", "0.05")))]
        columns = ["task", "bases", "p", "seed", "h", "rate", "threshold",
                   "error"]
        known |= {"bases", "p"}
    elif task == "epsilon":
        axes = [("lam", _split_list(entries.get("lam", "0.1"))),
                ("n", _split_list(entries.get("n", "4")))]
        columns = ["task", "lam", "n", "alphabet", "seed", "epsilon", "error"]
        known |= {"lam", "n", "alphabet"}
    else:  # overall
        axes = [("d", _split_list(entries.get("d", "2,4,8,16")))]
        columns = ["task", "d", "seed", "bound", "error"]
        known |= {"d"}

    extra = set(entries) - known
    if extra:
        raise ValueError(f"unknown config keys for task {task}: "
                         f"{sorted(extra)}")

    cells = [[]]
    for name, values in axes:
        cells = [cell + [(name, v)] for cell in cells for v in values]
    rows = [{"coords": cell, "seed": _cell_seed(master, task, cell)}
            for cell in cells]
    return task, master, columns, rows


def _sweep_cell(task: str, entries: dict, row: dict) -> dict:
    coords = dict(row["coords"])
    out = {"task": task, "seed": row["seed"], "error": ""}
    out.update(coords)
    try:
        if task == "rate":
            p = float(coords["p"])
            h = _basis_set(coords["bases"], row["seed"]).h
            rep = qkd.rate_report(h, p)
            out.update({"h": h, "rate": rep.rate,
                        "threshold": rep.threshold})
        elif task == "epsilon":
            k = int(entries.get("alphabet", "2"))
            out["alphabet"] = k
            out["epsilon"] = concentration.dependent_sequence_epsilon(
                float(coords["lam"]), int(coords["n"]), k)
        else:
            out["bound"] = uncertainty.overall_bound(int(coords["d"]))
    except Exception as exc:  # recorded per-row, sweep continues
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_sweep(args, config: dict) -> tuple[list[dict], bytes]:
    entries = _parse_sweep_config(args.config)
    task, master, columns, rows = _sweep_plan(entries)

    results = [_sweep_cell(task, entries, row) for row in rows]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for res in results:
        writer.writerow([_fmt(res.get(col, "")) for col in columns])
    payload = buf.getvalue().encode()

    config.update({"task": task, "seed": master, "cells": len(results)})
    failures = [r for r in results if r["error"]]
    checks = [_check("sweep", value=float(len(results)),
                     holds=not failures,
                     failures=[r["error"] for r in failures],
                     rows=results)]
    return checks, payload


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="persisted report format (default json)")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report to stdout")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print check details to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minentlab",
        description="exact desk-scale checkers for entropic-uncertainty "
                    "cryptography")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="uncertainty constants")
    sb = p_bound.add_subparsers(dest="kind", required=True)
    b_mu = sb.add_parser("mu")
    b_mu.add_argument("--basis1", default="plus", choices=_BASIS_LABELS)
    b_mu.add_argument("--basis2", default="x", choices=_BASIS_LABELS)
    b_six = sb.add_parser("sixstate")
    b_ov = sb.add_parser("overall")
    b_ov.add_argument("--d", type=int, required=True)
    b_num = sb.add_parser("numeric")
    b_num.add_argument("--bases", default="bb84")
    b_num.add_argument("--seed", type=int, default=0)
    for sp in (b_mu, b_six, b_ov, b_num):
        _add_common(sp)

    p_verify = sub.add_parser("verify", help="inequality verifiers")
    sv = p_verify.add_subparsers(dest="kind", required=True)
    v_az = sv.add_parser("azuma")
    v_az.add_argument("--lam", type=float, default=0.5)
    v_az.add_argument("--n", type=int, default=100)
    v_az.add_argument("--trials", type=int, default=100_000)
    v_az.add_argument("--seed", type=int, default=0)
    v_sq = sv.add_parser("sequence-bound")
    v_sq.add_argument("--p", default="0.5,0.5",
                      help="iid symbol probabilities, comma separated")
    v_sq.add_argument("--n", type=int, default=6)
    v_sq.add_argument("--lam", type=float, default=0.2)
    v_db = sv.add_parser("delta-bound")
    v_db.add_argument("--x", type=float, required=True)
    v_cr = sv.add_parser("chain-rule")
    v_cr.add_argument("--nx", type=int, default=8)
    v_cr.add_argument("--ny", type=int, default=4)
    v_cr.add_argument("--eps", type=float, default=0.01)
    v_cr.add_argument("--eps-prime", type=float, default=0.01)
    v_cr.add_argument("--seed", type=int, default=0)
    v_sp = sv.add_parser("splitting")
    v_sp.add_argument("--size", type=int, default=8)
    v_sp.add_argument("--seed", type=int, default=0)
    v_pa = sv.add_parser("pa")
    v_pa.add_argument("--n", type=int, default=4)
    v_pa.add_argument("--l", type=int, default=1)
    v_pa.add_argument("--q", type=int, default=0)
    v_pa.add_argument("--eps", type=float, default=0.0)
    v_pa.add_argument("--seed", type=int, default=0)
    v_re = sv.add_parser("relation")
    v_re.add_argument("--n", type=int, default=4)
    v_re.add_argument("--bases", default="bb84")
    v_re.add_argument("--lam", type=float, default=0.05)
    v_re.add_argument("--state", default="haar", choices=("haar", "zero"))
    v_re.add_argument("--seed", type=int, default=0)
    for sp in (v_az, v_sq, v_db, v_cr, v_sp, v_pa, v_re):
        _add_common(sp)

    p_ot = sub.add_parser("ot", help="oblivious transfer")
    so = p_ot.add_subparsers(dest="kind", required=True)
    o_run = so.add_parser("run")
    o_run.add_argument("--n", type=int, default=8)
    o_run.add_argument("--l", type=int, default=1)
    o_run.add_argument("--c", type=int, default=0, choices=(0, 1))
    o_run.add_argument("--seed", type=int, default=0)
    o_run.add_argument("--epr", action="store_true",
                       help="run the entangled-pair variant")
    o_rcv = so.add_parser("check-receiver")
    o_rcv.add_argument("--n", type=int, default=4)
    o_rcv.add_argument("--l", type=int, default=1)
    o_snd = so.add_parser("check-sender")
    o_snd.add_argument("--adversary", required=True,
                       help=f"one of {BUILTIN_ADVERSARIES} or a JSON file")
    o_snd.add_argument("--n", type=int, default=8)
    o_snd.add_argument("--l", type=int, default=1)
    for sp in (o_run, o_rcv, o_snd):
        _add_common(sp)

    p_commit = sub.add_parser("commit", help="bit commitment")
    sc = p_commit.add_subparsers(dest="kind", required=True)
    c_run = sc.add_parser("run")
    c_run.add_argument("--n", type=int, default=8)
    c_run.add_argument("--b", type=int, default=0, choices=(0, 1))
    c_run.add_argument("--seed", type=int, default=0)
    c_bind = sc.add_parser("check-binding")
    c_bind.add_argument("--adversary", required=True,
                        help=f"one of {BUILTIN_ADVERSARIES} or a JSON file")
    c_bind.add_argument("--n", type=int, default=8)
    for sp in (c_run, c_bind):
        _add_common(sp)

    p_qkd = sub.add_parser("qkd", help="key distribution")
    sq = p_qkd.add_subparsers(dest="kind", required=True)
    q_run = sq.add_parser("run")
    q_run.add_argument("--bases", default="sixstate")
    q_run.add_argument("--p", type=float, default=0.05)
    q_run.add_argument("--N", type=int, default=1000)
    q_run.add_argument("--mode", default="ideal-reconciliation",
                       choices=("ideal-reconciliation", "linear-syndrome"))
    q_run.add_argument("--seed", type=int, default=0)
    q_run.add_argument("--q", type=int, default=0)
    q_run.add_argument("--eps", type=float, default=1e-9)
    q_run.add_argument("--max-sift", type=int, default=None)
    q_rate = sq.add_parser("rate")
    q_rate.add_argument("--h", type=float, default=None)
    q_rate.add_argument("--bases", default=None)
    q_rate.add_argument("--p", type=float, required=True)
    q_rate.add_argument("--seed", type=int, default=0)
    q_thr = sq.add_parser("threshold")
    q_thr.add_argument("--h", type=float, default=None)
    q_thr.add_argument("--bases", default=None)
    q_thr.add_argument("--seed", type=int, default=0)
    for sp in (q_run, q_rate, q_thr):
        _add_common(sp)

    p_sweep = sub.add_parser("sweep", help="parameter grids")
    p_sweep.add_argument("--config", required=True,
                         help="flat key=value config file")
    _add_common(p_sweep)

    return parser


# handlers take the parsed arguments and the config, which qkd and sweep extend
_COMMANDS = {"bound": cmd_bound, "verify": cmd_verify, "ot": cmd_ot,
             "commit": cmd_commit, "qkd": cmd_qkd, "sweep": cmd_sweep}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        config = _config(args)
        result = _COMMANDS[args.command](args, config)
        # sweep hands back its raw CSV payload beside its checks
        checks, raw = result if args.command == "sweep" else (result, None)
        code = _emit(args, config, checks, raw)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall-clock {time.monotonic() - start:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
