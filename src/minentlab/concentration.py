"""Concentration bounds for dependent symbol sequences.

A sequence model supplies conditional next-symbol distributions given any
history, with a per-step Shannon-entropy floor h.  The central claim checked
here: the smooth min-entropy of the whole n-symbol string is at least
(h - 2*lambda)*n, up to a failure probability eps that decays exponentially
in n.  The verifier enumerates the exact joint distribution, so no sampling
error enters the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distrib import PreconditionError, _entropy_bits, smooth_min_entropy

SLACK = 1e-9


class EntropyFloorViolation(PreconditionError):
    """A reachable history has conditional entropy below the declared floor."""


@dataclass(frozen=True)
class SequenceModel:
    """Table-backed distribution of a dependent symbol sequence.

    Attributes
    ----------
    alphabet_size:
        Number of symbols (coded 0..k-1).
    cond:
        Callable mapping a history tuple to the next-symbol probability
        vector.  Called with () for the first symbol.
    entropy_floor:
        Claimed lower bound h on H(Z_i | history), in bits, for every
        reachable history.
    markov_order:
        When not None, ``cond`` only depends on the last ``markov_order``
        symbols; enables the vectorized enumeration path.
    """

    alphabet_size: int
    cond: Callable[[tuple], np.ndarray]
    entropy_floor: float
    markov_order: int | None = None

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet must have at least two symbols")
        if self.entropy_floor < 0.0:
            raise ValueError("entropy floor must be non-negative")

    def distribution_row(self, history: tuple) -> np.ndarray:
        row = np.asarray(self.cond(tuple(history)), dtype=float)
        if row.shape != (self.alphabet_size,):
            raise ValueError(f"conditional row shape {row.shape} at {history!r}")
        if float(row.min()) < -1e-12 or abs(float(row.sum()) - 1.0) > 1e-9:
            raise ValueError(f"conditional row not a distribution at {history!r}")
        return np.clip(row, 0.0, None)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[int, ...]:
        out = []
        for _ in range(n):
            row = self.distribution_row(tuple(out))
            out.append(int(rng.choice(self.alphabet_size, p=row / row.sum())))
        return tuple(out)


def iid_model(p: Sequence[float]) -> SequenceModel:
    row = np.asarray(p, dtype=float)
    h = _entropy_bits(row)
    return SequenceModel(alphabet_size=row.size, cond=lambda hist: row,
                        entropy_floor=h, markov_order=0)


def markov_model(initial: Sequence[float], transition) -> SequenceModel:
    """Order-1 Markov model; the floor is the worst row entropy."""
    init = np.asarray(initial, dtype=float)
    trans = np.asarray(transition, dtype=float)
    k = init.size
    if trans.shape != (k, k):
        raise ValueError("transition matrix shape mismatch")
    floor = min(_entropy_bits(init), min(_entropy_bits(trans[i]) for i in range(k)))

    def cond(history: tuple) -> np.ndarray:
        return init if not history else trans[history[-1]]

    return SequenceModel(alphabet_size=k, cond=cond, entropy_floor=floor,
                        markov_order=1)


def azuma_tail_bound(lam: float, c: float, n: int) -> float:
    """exp(-lambda^2 n / (2 c^2)): tail bound for a bounded-difference
    martingale sum exceeding lambda*n."""
    lam, c, n = float(lam), float(c), int(n)
    if lam <= 0.0 or c <= 0.0 or n < 1:
        raise ValueError("need lam > 0, c > 0, n >= 1")
    return math.exp(-(lam * lam) * n / (2.0 * c * c))


@dataclass(frozen=True)
class AzumaBound:
    lam: float
    c: float
    n: int
    bound: float

    @classmethod
    def evaluate(cls, lam: float, c: float, n: int) -> "AzumaBound":
        return cls(lam=float(lam), c=float(c), n=int(n),
                   bound=azuma_tail_bound(lam, c, n))

    def to_json(self) -> dict:
        return {"lambda": self.lam, "c": self.c, "n": self.n, "bound": self.bound}


def azuma_empirical_tail(lam: float, n: int, trials: int,
                         rng: np.random.Generator) -> float:
    """Monte-Carlo frequency of sum(R_i) >= lam*n for fair +-1 coins."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if int(trials) < 1:
        raise ValueError("need trials >= 1")
    heads = rng.binomial(int(n), 0.5, size=int(trials))
    sums = 2 * heads - int(n)
    return float(np.count_nonzero(sums >= lam * n)) / float(trials)


def dependent_sequence_epsilon(lam: float, n: int, alphabet_size: int) -> float:
    """Failure probability of the sequence min-entropy bound:
    exp(-lambda^2 n / (32 * log2(alphabet_size/lambda)^2)).

    Requires 0 < lambda < 1/2 and alphabet_size >= 2.
    """
    lam = float(lam)
    n = int(n)
    k = int(alphabet_size)
    if not (0.0 < lam < 0.5):
        raise ValueError("lambda must lie in (0, 1/2)")
    if k < 2 or n < 1:
        raise ValueError("need alphabet_size >= 2 and n >= 1")
    denom = 32.0 * (math.log2(k / lam)) ** 2
    return math.exp(-(lam * lam) * n / denom)


def _enumerate_joint(model: SequenceModel, n: int) -> np.ndarray:
    """Exact joint over all strings of length n, flat array of size k^n.

    Checks the entropy floor at every reachable history along the way and
    raises EntropyFloorViolation on the first failure.
    """
    k = model.alphabet_size
    floor = model.entropy_floor

    def check_row(row: np.ndarray, history) -> None:
        if _entropy_bits(row) < floor - SLACK:
            raise EntropyFloorViolation(
                f"H = {_entropy_bits(row):.9f} < floor {floor} at history {history!r}")

    if model.markov_order is not None and model.markov_order <= 3:
        # joint flat index is (z_1 .. z_i) base k with z_i least significant,
        # so the trailing `m` symbols are exactly the index modulo k^m
        order = model.markov_order
        probs = np.ones(1)
        for step in range(n):
            m = min(step, order)
            n_states = k ** m
            state_mass = probs.reshape(-1, n_states).sum(axis=0)
            rows = np.empty((n_states, k))
            for s_idx in range(n_states):
                state = tuple((s_idx // k ** (m - 1 - j)) % k for j in range(m))
                row = model.distribution_row(state)
                if state_mass[s_idx] > 0.0:
                    check_row(row, state)
                rows[s_idx] = row
            probs = (probs.reshape(-1, n_states, 1) * rows[None, :, :]).reshape(-1)
        return probs

    # generic path: depth-first over reachable histories only
    joint = np.zeros(k ** n)
    strides = [k ** (n - 1 - i) for i in range(n)]
    stack: list[tuple[tuple, float]] = [((), 1.0)]
    while stack:
        history, p = stack.pop()
        row = model.distribution_row(history)
        check_row(row, history)
        depth = len(history)
        for s in range(k):
            q = p * float(row[s])
            if q <= 0.0:
                continue
            if depth + 1 == n:
                idx = sum(sym * strides[i] for i, sym in enumerate(history + (s,)))
                joint[idx] = q
            else:
                stack.append((history + (s,), q))
    return joint


@dataclass(frozen=True)
class SequenceBoundReport:
    """Exact check of the dependent-sequence min-entropy bound."""

    n: int
    lam: float
    entropy_floor: float
    eps: float
    smooth_min_entropy: float
    bound: float
    holds: bool

    def to_json(self) -> dict:
        return {"n": self.n, "lambda": self.lam,
                "entropyFloor": self.entropy_floor, "eps": self.eps,
                "smoothMinEntropy": self.smooth_min_entropy,
                "bound": self.bound, "holds": self.holds}


def verify_dependent_sequence_bound(model: SequenceModel, n: int,
                                    lam: float) -> SequenceBoundReport:
    """Exact verification of H_inf^eps(Z_1..Z_n) >= (h - 2 lambda) n.

    Enumerates the full joint (k^n atoms; keep k^n <= ~10^6), computes the
    smooth min-entropy at eps = dependent_sequence_epsilon(lam, n, k), and
    compares.  Raises EntropyFloorViolation when the model's declared floor
    fails at a reachable history (a precondition failure, not a violation of
    the claim).
    """
    n = int(n)
    k = model.alphabet_size
    if k ** n > 2_000_000:
        raise ValueError(f"k^n = {k**n} too large for exact enumeration")
    eps = dependent_sequence_epsilon(lam, n, k)
    joint = _enumerate_joint(model, n)
    total = float(joint.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint mass {total} not normalized")
    h_smooth = smooth_min_entropy(joint, eps)
    bound = (model.entropy_floor - 2.0 * float(lam)) * n
    return SequenceBoundReport(n=n, lam=float(lam),
                               entropy_floor=model.entropy_floor, eps=eps,
                               smooth_min_entropy=h_smooth, bound=bound,
                               holds=h_smooth >= bound - SLACK)


def solve_truncation_delta(lam: float, alphabet_size: int,
                           tol: float = 1e-12) -> float:
    """Solve alphabet_size * delta * log2(1/delta) = lam for delta in (0, 1/e).

    The left side is strictly increasing on (0, 1/e), so bisection converges;
    a root exists whenever lam < alphabet_size * log2(e)/e (checked).
    """
    lam = float(lam)
    k = int(alphabet_size)
    if k < 2 or lam <= 0.0:
        raise ValueError("need alphabet_size >= 2 and lam > 0")
    hi = 1.0 / math.e

    def f(d: float) -> float:
        return k * d * math.log2(1.0 / d) - lam

    if f(hi) < 0.0:
        raise ValueError(f"no root in (0, 1/e) for lam = {lam}, k = {k}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(hi, 1e-300):
            break
    return hi


@dataclass(frozen=True)
class DeltaBoundReport:
    x: float
    y: float
    lower: float
    holds: bool

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "lower": self.lower, "holds": self.holds}


def verify_delta_lower_bound(x: float) -> DeltaBoundReport:
    """For y = x log2(1/x) with 0 < x < 1/e and y < 1/4, check the inversion
    bound x > y / (4 log2(1/y))."""
    x = float(x)
    if not (0.0 < x < 1.0 / math.e):
        raise ValueError("x must lie in (0, 1/e)")
    y = x * math.log2(1.0 / x)
    if not (0.0 < y < 0.25):
        raise ValueError(f"y = {y} outside (0, 1/4); bound not applicable")
    lower = y / (4.0 * math.log2(1.0 / y))
    return DeltaBoundReport(x=x, y=y, lower=lower, holds=x > lower)
