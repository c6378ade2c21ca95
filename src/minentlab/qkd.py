"""One-way quantum key distribution over a noisy channel, desk scale.

Pipeline: prepare random bits in random bases from a basis family, measure
in independently random bases, sift matching positions, correct errors,
and hash down to the final key.  The adversary is not simulated (a memory
bounded eavesdropper on 10^5 channel uses is out of reach); instead the key
length follows the entropic accounting: the sifted string carries h bits of
min-entropy per symbol against the eavesdropper, error correction leaks its
message length, stored qubits and a security margin are subtracted, and the
remainder is extracted with a Toeplitz hash.

Channel noise is white: each transmitted qubit is replaced by the maximally
mixed state with probability 2p, which produces an i.i.d. bit-flip rate of
exactly p in every measurement basis.  Error correction is either accounted
ideally (charge ceil(M * H_b(p)) bits) or realized as a random linear
syndrome code with exact maximum-likelihood decoding, feasible for blocks
of at most 24 sifted bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qsim
from .distrib import binary_entropy
from .hashing import ToeplitzHash, apply_hash, sample_hash
from .uncertainty import BasisSet

MAX_SENT = 10 ** 6
MAX_SYNDROME_BLOCK = 24
MAX_SYNDROME_ROWS = 20
SYNDROME_MARGIN = 7


@dataclass(frozen=True)
class ChannelModel:
    """I.i.d. bit-flip noise at rate p on sifted positions."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError("bit-flip probability must lie in [0, 1/2]")


@dataclass(frozen=True)
class RateReport:
    """Asymptotic rate accounting for one basis family and noise level."""

    h: float
    e: float
    rate: float
    threshold: float

    def to_json(self) -> dict:
        return {"h": self.h, "e": self.e, "rate": self.rate,
                "threshold": self.threshold}


@dataclass(frozen=True)
class QkdRun:
    """Everything produced by one protocol execution."""

    n_sent: int
    sifted: int
    mode: str
    p: float
    qber: float
    x: tuple[int, ...]
    y: tuple[int, ...]
    x_hat: tuple[int, ...]
    syndrome: tuple[int, ...]
    e_bits: int
    q: int
    eps: float
    l: int
    rate: float
    hash_used: ToeplitzHash | None
    decode_success: bool
    key_a: tuple[int, ...]
    key_b: tuple[int, ...]

    @property
    def keys_match(self) -> bool:
        return self.decode_success and self.key_a == self.key_b

    def to_json(self, include_strings: bool = False) -> dict:
        out = {"nSent": self.n_sent, "sifted": self.sifted, "mode": self.mode,
               "p": self.p, "qber": self.qber, "eBits": self.e_bits,
               "q": self.q, "eps": self.eps, "l": self.l, "rate": self.rate,
               "decodeSuccess": self.decode_success,
               "keysMatch": self.keys_match,
               "keyA": list(self.key_a), "keyB": list(self.key_b)}
        if include_strings:
            out["x"] = list(self.x)
            out["y"] = list(self.y)
            out["xHat"] = list(self.x_hat)
            out["syndrome"] = list(self.syndrome)
        return out


def key_rate(h: float, p: float) -> float:
    """Asymptotic key bits per sifted symbol: h minus the reconciliation
    cost of a rate-p binary symmetric error pattern."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    return h - binary_entropy(p)


def noise_threshold(h: float) -> float:
    """The unique p in (0, 1/2] where the binary entropy reaches h.

    Below this noise level the asymptotic rate is positive.  Bisection to
    1e-10; the binary entropy is strictly increasing on [0, 1/2].
    """
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def rate_report(h: float, p: float) -> RateReport:
    return RateReport(h=h, e=binary_entropy(p), rate=key_rate(h, p),
                      threshold=noise_threshold(h))


def security_margin(eps: float) -> int:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return math.ceil(2.0 * math.log2(1.0 / eps))


def key_length_accounting(m: int, h: float, eps: float, q: int,
                          e_bits: int) -> int:
    """Final key length: floor(M*h) minus stored qubits, error-correction
    leakage and the smoothing margin, floored at zero."""
    if min(m, q, e_bits) < 0:
        raise ValueError("inputs must be non-negative")
    return max(0, math.floor(m * h) - int(q) - int(e_bits)
               - security_margin(eps))


def _outcome_probabilities(basis_set: BasisSet, p: float) -> np.ndarray:
    """P[measured bit = 1] indexed (send basis, sent bit, receive basis),
    after white noise calibrated to bit-flip rate p."""
    lam = 1.0 - 2.0 * p
    return lam * qsim.outcome_table(basis_set.bases) + (1.0 - lam) / 2.0


def _pack_int(bits: np.ndarray) -> int:
    # position j lives in bit j
    return int(sum(int(b) << j for j, b in enumerate(bits)))


def _subset_syndromes(col_ints: Sequence[int]) -> np.ndarray:
    """XOR of column integers over every subset; index bit j selects
    column j."""
    syn = np.zeros(1, dtype=np.int64)
    for c in col_ints:
        syn = np.concatenate([syn, syn ^ np.int64(c)])
    return syn


def _ml_decode(a: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact maximum-likelihood decoding of a random linear syndrome code.

    Finds the string with syndrome s closest in Hamming distance to y by a
    meet-in-the-middle split: precompute, for every syndrome reachable from
    the left half, the best left assignment; then scan right assignments.
    """
    r, m = a.shape
    col_ints = [_pack_int(a[:, j]) for j in range(m)]
    half = m // 2
    syn_l = _subset_syndromes(col_ints[:half])
    syn_r = _subset_syndromes(col_ints[half:])
    yl = _pack_int(y[:half])
    yr = _pack_int(y[half:])
    us = np.arange(syn_l.size, dtype=np.int64)
    vs = np.arange(syn_r.size, dtype=np.int64)
    dist_l = np.bitwise_count(us ^ yl).astype(np.int64)
    dist_r = np.bitwise_count(vs ^ yr).astype(np.int64)

    best_u = np.full(2 ** r, -1, dtype=np.int64)
    order = np.argsort(dist_l, kind="stable")[::-1]
    best_u[syn_l[order]] = us[order]          # last write = smallest distance

    target = syn_r ^ np.int64(_pack_int(s))
    cand_u = best_u[target]
    ok = cand_u >= 0
    if not np.any(ok):
        raise AssertionError("syndrome unreachable; code matrix degenerate")
    total = np.where(ok, dist_l[np.maximum(cand_u, 0)] + dist_r, np.iinfo(np.int64).max)
    v_star = int(np.argmin(total))
    u_star = int(cand_u[v_star])
    out = np.empty(m, dtype=np.uint8)
    for j in range(half):
        out[j] = (u_star >> j) & 1
    for j in range(m - half):
        out[half + j] = (v_star >> j) & 1
    return out


def run_qkd(basis_set: BasisSet, n_sent: int, channel: ChannelModel,
            mode: str = "ideal-reconciliation", seed: int = 0, *,
            eps: float = 1e-9, q: int = 0,
            max_sift: int | None = None) -> QkdRun:
    """One full protocol execution over a qubit basis family.

    ideal-reconciliation hands the receiver the sender's sifted string and
    charges ceil(M * H_b(p)) bits of leakage; linear-syndrome sends an
    actual random syndrome of ceil(M * H_b(p)) + 7 bits and decodes by
    exact maximum likelihood, which caps the block at 24 sifted bits
    (pass max_sift to truncate the sifted string to a block).

    A decoding that returns the wrong string is detected (the simulator is
    omniscient; a deployment would compare a verification hash) and aborts
    the key, leaving both keys empty with decode_success False.
    """
    n_sent = int(n_sent)
    if not 1 <= n_sent <= MAX_SENT:
        raise ValueError(f"need 1 <= N <= {MAX_SENT}")
    if mode not in ("ideal-reconciliation", "linear-syndrome"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_sift is not None and max_sift < 0:
        raise ValueError(f"max_sift must be non-negative, got {max_sift}")
    if basis_set.dim != 2:
        raise ValueError(f"qubit families only, got d = {basis_set.dim}")
    p = channel.p
    rng = np.random.default_rng(seed)
    nb = len(basis_set.bases)

    # Every pulse draws its channel outcome, but only sifted pulses are
    # evaluated, and bases and bits are narrowed as they are drawn, so a run
    # holds about one int64 array of N at a time.
    theta = rng.integers(0, nb, size=n_sent).astype(np.int32)
    x = rng.integers(0, 2, size=n_sent).astype(np.uint8)
    keep = theta == rng.integers(0, nb, size=n_sent)
    theta, x = theta[keep], x[keep]
    prob1 = _outcome_probabilities(basis_set, p)
    y = (rng.random(n_sent)[keep] < prob1[theta, x, theta]).astype(np.uint8)
    if max_sift is not None:
        x = x[:int(max_sift)]
        y = y[:int(max_sift)]
    m = x.size
    qber = float(np.mean(x != y)) if m else 0.0
    h = basis_set.h

    if mode == "ideal-reconciliation":
        syndrome: tuple[int, ...] = ()
        e_bits = math.ceil(m * binary_entropy(p))
        x_hat = x.copy()
        decode_success = True
    else:
        if m > MAX_SYNDROME_BLOCK:
            raise ValueError(
                f"linear-syndrome mode needs at most {MAX_SYNDROME_BLOCK} "
                f"sifted bits, got {m}; lower N or set max_sift")
        r = min(m, math.ceil(m * binary_entropy(p)) + SYNDROME_MARGIN)
        if r > MAX_SYNDROME_ROWS:
            raise ValueError("syndrome too long for exact decoding; "
                             "reduce the noise level or the block")
        if m == 0:
            syndrome = ()
            x_hat = x.copy()
            e_bits = 0
            decode_success = True
        else:
            a = rng.integers(0, 2, size=(r, m)).astype(np.uint8)
            s = (a @ x) & 1
            syndrome = tuple(int(b) for b in s)
            e_bits = r
            x_hat = _ml_decode(a, y, s)
            decode_success = bool(np.array_equal(x_hat, x))

    l = key_length_accounting(m, h, eps, q, e_bits)
    hash_used = None
    key_a: tuple[int, ...] = ()
    key_b: tuple[int, ...] = ()
    if l > 0 and m > 0:
        hash_used = sample_hash(m, l, rng)
        if decode_success:
            key_a = apply_hash(hash_used, x)
            key_b = apply_hash(hash_used, x_hat)
    rate = l / m if m else 0.0

    return QkdRun(n_sent=n_sent, sifted=m, mode=mode, p=p, qber=qber,
                  x=tuple(x.tolist()), y=tuple(y.tolist()),
                  x_hat=tuple(x_hat.tolist()),
                  syndrome=syndrome, e_bits=e_bits, q=int(q), eps=eps, l=l,
                  rate=rate, hash_used=hash_used,
                  decode_success=decode_success, key_a=key_a, key_b=key_b)
