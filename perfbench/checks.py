"""Independent checks of every verdict.

Each check recomputes what it can apart from the program, with numpy and
the reference computations of ``tests/oracles.py`` (linear programs for
smoothing, SVD trace norms, enumeration of adversary records, mpmath
scalars), and returns a list of problems; an empty list is a pass.  The
program's own ``holds`` flags are read too, but never trusted alone.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import traceback
from functools import lru_cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
LP_TOL = 1e-7          # the LP oracle's accuracy on an entropy, in bits
SMOOTH_TOL = 1e-7      # bits, when nearly all mass is smoothed away


@lru_cache(maxsize=None)
def oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles as mod
    return mod


def _close(problems, what, got, want, tol):
    if not (abs(got - want) <= tol):
        problems.append(f"{what} = {got!r}, independent value {want!r}")


def _at_most(problems, what, got, limit):
    if not (got <= limit):
        problems.append(f"{what} = {got!r} exceeds {limit!r}")


# ---------------------------------------------------------------- alpha

def alpha_enumeration(adv) -> float:
    """H_min(X | Theta K) by direct matrix action: for every basis string,
    send all 2^n BB84 states through the isometry at once and read the
    measured wires' outcome probabilities."""
    n, a = adv.n, adv.ancillas
    wires = n + a
    iso = adv.isometry()
    kept = list(adv.kept)
    measured = [w for w in range(wires) if w not in kept]
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    best = 0.0
    for theta in itertools.product((0, 1), repeat=n):
        enc = np.array([[1.0]])
        for t in theta:
            enc = np.kron(enc, h if t else np.eye(2))
        out = (iso @ enc).reshape((2,) * wires + (2 ** n,))
        out = np.transpose(out, measured + kept + [wires])
        p = (np.abs(out.reshape(2 ** len(measured), 2 ** len(kept), 2 ** n))
             ** 2).sum(axis=1)                       # (record, x)
        mass = p.sum(axis=1)
        live = mass > 1e-15
        best = max(best, float((p[live].max(axis=1) / mass[live]).max()))
    return -math.log2(best)


def expected_alpha(expect) -> float:
    if expect.get("alpha") is not None:
        return expect["alpha"]
    adv = expect["adversary"]
    if adv.n <= 5:
        return oracles().min_entropy_alpha_oracle(adv)
    return alpha_enumeration(adv)


def _once(expect, key, compute):
    """Independent values are computed once per input and kept with it:
    repeated verdicts on the same input reuse them."""
    if key not in expect:
        expect[key] = compute()
    return expect[key]


def _alpha(expect) -> float:
    return _once(expect, "_alpha", lambda: expected_alpha(expect))


# ---------------------------------------------------------- protocol checks

def sender(rep, expect, _round=None) -> list[str]:
    problems = []
    _close(problems, "alpha", rep.alpha, _alpha(expect), TOL)
    if not rep.distance >= 0.0:
        problems.append(f"distance = {rep.distance!r} is negative")
    _at_most(problems, "distance", rep.distance, rep.bound + TOL)
    if not 0.0 <= rep.prob_cprime1 <= 1.0:
        problems.append(f"prob_cprime1 = {rep.prob_cprime1!r} outside [0, 1]")
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def receiver(rep, expect=None, _round=None) -> list[str]:
    problems = []
    _at_most(problems, "distance", abs(rep.distance), TOL)
    _at_most(problems, "independence", abs(rep.independence), TOL)
    _close(problems, "output match probability", rep.output_match_probability,
           1.0, 1e-7)
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def binding(rep, expect, _round=None) -> list[str]:
    problems = []
    _at_most(problems, "cheat_lower", rep.cheat_lower, rep.cheat_upper + TOL)
    if rep.q == 0:
        _close(problems, "bracket gap (q=0, exact solve)",
               rep.cheat_upper - rep.cheat_lower, 0.0, 1e-12)
    if rep.holds is not True:
        problems.append("holds is not true")
    if rep.weak_holds is not True:
        problems.append("weak_holds is not true")
    _close(problems, "sum of prob_bound_bit", sum(rep.prob_bound_bit), 1.0, TOL)
    for t, v in enumerate(rep.open_success):
        _at_most(problems, f"open_success[{t}]", v, 1.0 + TOL)
    _close(problems, "alpha", rep.alpha, _alpha(expect), TOL)
    return problems


# ----------------------------------------------------------- verifier checks

def pa_distance(ops: np.ndarray, n: int, l: int) -> float:
    """Family-averaged distance from uniform, by explicit enumeration of all
    2^(n+l-1) Toeplitz matrices with SVD trace norms."""
    members = 2 ** (n + l - 1)
    params = ((np.arange(members)[:, None]
               >> (n + l - 2 - np.arange(n + l - 1))[None, :]) & 1)
    i = np.arange(l)[:, None]
    j = np.arange(n)[None, :]
    # entry (i, j): first_row[j - i] above the diagonal, first_col[i - j] below
    index = np.where(j >= i, j - i, n + (i - j) - 1)
    mats = params[:, index]                               # (members, l, n)
    xs = ((np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)
    out = np.einsum("mij,xj->mxi", mats, xs) & 1
    s = out @ (1 << (l - 1 - np.arange(l)))               # (members, 2^n)
    onehot = (s[:, None, :] == np.arange(2 ** l)[None, :, None]).astype(float)
    d = ops.shape[-1]
    real = onehot @ ops.reshape(2 ** n, d * d)             # (members, 2^l, d*d)
    ideal = ops.sum(axis=0).reshape(d * d) / 2 ** l
    diff = (real - ideal).reshape(-1, d, d)
    norms = np.linalg.svd(diff, compute_uv=False).sum(axis=-1)
    return 0.5 * float(norms.sum()) / members


def lp_entropy(weights, groups, eps) -> float:
    return -math.log2(oracles().lp_smooth_cap(weights, groups, eps))


def bisect_entropy(weights, groups, eps) -> float:
    """Smooth (conditional) min-entropy by bisection on the common cap t of
    the conditional atoms: the smallest t whose removed mass
    sum(max(w - g t, 0)) is at most eps.  Used where eps is close to the
    total mass, so the cap is far below the LP oracle's tolerance."""
    w = np.asarray(weights, dtype=float)
    g = np.asarray(groups, dtype=float)
    live = w > 0
    w, g = w[live], g[live]
    lo, hi = 0.0, float((w / g).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(w - g * mid, 0.0).sum() <= eps:
            hi = mid
        else:
            lo = mid
    # final linear solve on the clipped atoms, with exactly rounded sums
    clipped = w > g * hi
    if clipped.any():
        t = (math.fsum(w[clipped]) - eps) / math.fsum(g[clipped])
        hi = min(max(t, lo), hi) if t > 0 else hi
    return -math.log2(hi)


def _pa_oracle(expect):
    probs = np.einsum("xii->x", expect["ops"]).real
    return (pa_distance(expect["ops"], expect["n"], expect["l"]),
            lp_entropy(probs, np.ones_like(probs), expect["eps"]))


def pa(rep, expect, _round=None) -> list[str]:
    dist, h = _once(expect, "_oracle", lambda: _pa_oracle(expect))
    problems = []
    _close(problems, "exact_distance", rep.exact_distance, dist, TOL)
    _close(problems, "h_smooth", rep.h_smooth, h, LP_TOL)
    bound = (0.5 * 2.0 ** (-0.5 * (h - expect["q"] - expect["l"]))
             + 2.0 * expect["eps"])
    _close(problems, "bound", rep.bound, bound, 1e-6 * max(1.0, bound))
    _at_most(problems, "exact_distance", rep.exact_distance, rep.bound + TOL)
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def sequence_eps(lam: float, n: int, alphabet: int) -> float:
    """The paper's failure probability of the sequence min-entropy bound,
    exp(-lambda^2 n / (32 log2(alphabet / lambda)^2))."""
    return math.exp(-(lam * lam) * n / (32.0 * math.log2(alphabet / lam) ** 2))


def relation_joint(amp, bases, n) -> np.ndarray:
    """P(x | theta) for every basis string at once, shape (|B|^n, d^n):
    each system is rotated under every basis of the family in turn, the
    basis digits collecting in front of the outcome axes."""
    rot = np.stack([b.vectors.conj().T for b in bases.bases])   # (B, d, d)
    nb, dim = rot.shape[0], rot.shape[1]
    t = np.asarray(amp).reshape((dim,) * n)
    for i in range(n):
        # axes now: i basis digits, then n systems; system i sits at 2i
        t = np.tensordot(rot, t, axes=([2], [2 * i]))
        t = np.moveaxis(t, [0, 1], [i, 2 * i + 1])
    return np.abs(t.reshape(nb ** n, dim ** n)) ** 2


def _relation_oracle(expect, eps):
    probs = relation_joint(expect["amp"], expect["bases"], expect["n"])
    shannon = float(np.mean([oracles().shannon_bits(row) for row in probs]))
    hmin = -math.log2(float(probs.max()))
    w = probs.reshape(-1) / probs.shape[0]
    g = np.repeat(w.reshape(probs.shape).sum(axis=1), probs.shape[1])
    return shannon, hmin, bisect_entropy(w, g, eps)


def relation(rep, expect, _round=None) -> list[str]:
    n, bs = expect["n"], expect["bases"]
    lam = expect["lam"]
    eps = sequence_eps(lam, n, len(bs.bases) * bs.dim)
    shannon, hmin, h_smooth = _once(expect, "_oracle",
                                    lambda: _relation_oracle(expect, eps))
    problems = []
    _close(problems, "eps", rep.eps, eps, 1e-12)
    _close(problems, "bound", rep.bound, (bs.h - 2.0 * lam) * n, 1e-12)
    _close(problems, "shannon_conditional", rep.shannon_conditional, shannon,
           TOL)
    _at_most(problems, "n*h", n * bs.h, shannon + TOL)
    _at_most(problems, "bound", rep.bound, rep.smooth_min_entropy + TOL)
    _at_most(problems, "unsmoothed H_min", hmin, rep.smooth_min_entropy + TOL)
    _close(problems, "smooth_min_entropy", rep.smooth_min_entropy, h_smooth,
           SMOOTH_TOL)
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def sequence(rep, expect, _round=None) -> list[str]:
    init, trans, n, lam = (expect["init"], expect["trans"], expect["n"],
                           expect["lam"])
    k = init.size
    joint = []
    for z in itertools.product(range(k), repeat=n):
        p = init[z[0]]
        for a, b in zip(z, z[1:]):
            p *= trans[a, b]
        joint.append(p)
    joint = np.array(joint)
    row_h = [oracles().shannon_bits(r) for r in (init, *trans)]
    floor = min(row_h)
    eps = sequence_eps(lam, n, k)
    h = bisect_entropy(joint, np.ones_like(joint), eps)
    problems = []
    _close(problems, "entropy_floor", rep.entropy_floor, floor, TOL)
    _close(problems, "eps", rep.eps, eps, 1e-12)
    _close(problems, "smooth_min_entropy", rep.smooth_min_entropy, h,
           SMOOTH_TOL)
    _close(problems, "bound", rep.bound, (floor - 2.0 * lam) * n, 1e-8)
    _at_most(problems, "bound", rep.bound, rep.smooth_min_entropy + TOL)
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def _joint_table(joint):
    items = dict(joint.items())
    nx = 1 + max(k[0] for k in items)
    ny = 1 + max(k[1] for k in items)
    w = np.zeros((nx, ny))
    for (i, j), v in items.items():
        w[i, j] = v
    return w


def chain(rep, expect, _round=None) -> list[str]:
    w = _joint_table(expect["joint"])
    eps, eps_prime = expect["eps"], expect["eps_prime"]
    flat = w.reshape(-1)
    groups = np.repeat(w.sum(axis=0)[None, :], w.shape[0], axis=0).reshape(-1)
    lhs = lp_entropy(flat, groups, eps + eps_prime)
    support_y = int((w.sum(axis=0) > 0).sum())
    rhs = (lp_entropy(flat, np.ones_like(flat), eps) - math.log2(support_y)
           - math.log2(1.0 / eps_prime))
    problems = []
    _close(problems, "lhs", rep.lhs, lhs, LP_TOL)
    _close(problems, "rhs", rep.rhs, rhs, LP_TOL)
    if not rep.lhs > rep.rhs - TOL:
        problems.append(f"lhs {rep.lhs!r} not above rhs {rep.rhs!r}")
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


def split(result, expect, _round=None) -> list[str]:
    _, rep = result
    w = _joint_table(expect["joint"])
    alpha = -math.log2(float(w.max()))
    threshold = 2.0 ** (-alpha / 2.0)
    c = w.sum(axis=0) >= threshold                     # by x1
    kept0 = (w * c[None, :]).sum(axis=1)               # C = 1 keeps x0
    kept1 = np.where(c, 0.0, w.sum(axis=0))            # C = 0 keeps x1
    max_weight = float(max(kept0.max(), kept1.max()))
    problems = []
    _close(problems, "alpha", rep.alpha, alpha, 1e-12)
    _close(problems, "max_weight", rep.max_weight, max_weight, 1e-12)
    _at_most(problems, "max_weight", rep.max_weight, threshold + 1e-12)
    if rep.holds is not True:
        problems.append("holds is not true")
    return problems


# ----------------------------------------------------------------- cli

def _binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _named(report, name):
    for ch in report["checks"]:
        if ch["name"] == name:
            return ch
    raise KeyError(name)


def _canon(x: float) -> float:
    return float(f"{x:.12g}")


def cli(inv, expect, round_results) -> list[str]:
    problems = []
    if inv.code != 0:
        return [f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-300:]}"]
    if "same_as" in expect:
        other = round_results.get(expect["same_as"])
        if other is None or other.stdout != inv.stdout:
            problems.append(f"stdout differs from {expect['same_as']}")
    if expect.get("out_is_stdout") and inv.out_bytes != inv.stdout:
        problems.append("--out file differs from stdout")
    if expect.get("text"):
        text = inv.stdout.decode(errors="replace")
        if "holds=yes" not in text or "holds=no" in text or "FAIL" in text:
            problems.append(f"text report does not hold: {text!r}")
        return problems
    if "sweep" in expect:
        return problems + _sweep(inv.stdout, expect["sweep"])
    try:
        report = json.loads(inv.stdout)
    except ValueError as exc:
        return problems + [f"report does not parse: {exc}"]
    checks = report.get("checks") or []
    if not checks or any(ch.get("holds") is False for ch in checks):
        problems.append("a check in the report does not hold")
    try:
        problems += _cli_values(report, expect)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report lacks a field: {exc!r}")
    return problems


def _cli_values(report, expect) -> list[str]:
    problems = []
    if "value" in expect:
        name, want = expect["value"]
        _close(problems, name, _named(report, name)["value"], want, 1e-11)
    if "overall" in expect:
        want = oracles().harmonic_bound(expect["overall"])
        _close(problems, "overallBound", _named(report, "overallBound")["value"],
               want, 1e-11 * max(1.0, want))
    if "numeric" in expect:
        ch = _named(report, "numericBound")
        _close(problems, "numericBound", ch["value"], expect["numeric"], 1e-6)
    if "delta" in expect:
        x = expect["delta"]
        y = x * math.log2(1.0 / x)
        ch = _named(report, "deltaBound")
        _close(problems, "y", ch["detail"]["y"], _canon(y), 1e-12)
        _close(problems, "lower", ch["bound"],
               _canon(y / (4.0 * math.log2(1.0 / y))), 1e-12)
    if expect.get("ot"):
        ch = _named(report, "correctness")
        t = ch["detail"]["transcript"]
        chosen = t["s0"] if t["c"] == 0 else t["s1"]
        if chosen != t["y"]:
            problems.append("receiver output differs from the chosen string")
        subset = [i for i, b in enumerate(t["theta"]) if b == t["c"]]
        f = (t["f0"], t["f1"])[t["c"]]
        sub = [t["xPrime"][i] for i in subset]
        sub += [0] * (f["inputBits"] - len(sub))
        row, col = f["firstRow"], f["firstCol"]
        y = [sum((col[i - j] if i >= j else row[j - i]) * sub[j]
                 for j in range(len(sub))) % 2 for i in range(len(col))]
        if y != t["y"]:
            problems.append("receiver output is not the hash of its substring")
    if expect.get("receiver"):
        for ch in report["checks"]:
            _at_most(problems, ch["name"], abs(ch["value"]), TOL)
            _at_most(problems, "independence",
                     abs(ch["detail"]["independence"]), TOL)
    if expect.get("keys"):
        ch = _named(report, "keysMatch")
        run = ch["detail"]["run"]
        if ch["value"] != 1.0 or run.get("keysMatch") is False:
            problems.append("keys do not match")
    if "rate" in expect:
        h, p = expect["rate"]
        _close(problems, "rate", _named(report, "rate")["value"],
               _canon(h - _binary_entropy(p)), 1e-11)
        _close(problems, "threshold", _named(report, "threshold")["value"],
               oracles().entropy_threshold_mp(h), 1e-9)
    if "threshold" in expect:
        _close(problems, "threshold", _named(report, "threshold")["value"],
               oracles().entropy_threshold_mp(expect["threshold"]), 1e-9)
    return problems


def _sweep(payload: bytes, ds) -> list[str]:
    import csv
    import io
    rows = list(csv.DictReader(io.StringIO(payload.decode())))
    problems = []
    if [int(r["d"]) for r in rows] != list(ds):
        return [f"sweep rows {[r.get('d') for r in rows]} != {ds}"]
    for r in rows:
        if r["error"]:
            problems.append(f"sweep cell d={r['d']} failed: {r['error']}")
            continue
        want = oracles().harmonic_bound(int(r["d"]))
        _close(problems, f"bound(d={r['d']})", float(r["bound"]), want,
               1e-11 * max(1.0, want))
    return problems


CHECKS = {"sender": sender, "receiver": receiver, "binding": binding,
          "pa": pa, "relation": relation, "sequence": sequence,
          "chain": chain, "split": split, "cli": cli}


def judge(item, result, round_results) -> list[str]:
    try:
        return CHECKS[item.check](result, item.expect, round_results)
    except Exception as exc:          # a check that cannot run is a failure
        return ["check raised " + "".join(traceback.format_exception(exc))]
