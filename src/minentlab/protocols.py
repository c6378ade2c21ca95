"""Randomized oblivious transfer and bit commitment against bounded quantum
storage, with exact security checkers.

The honest protocol: the sender transmits n qubits, each a uniformly random
bit encoded in a uniformly random computational-or-diagonal basis; the
receiver measures everything in one basis determined by the choice bit; the
sender then announces the basis string and two hashes, one per basis subset,
and outputs the two hashed substrings.  Commitment replaces the hashes by
revealing the substring on the committed basis subset.

The checkers treat a dishonest bounded-storage party in the purified
picture: the transmitted qubits are halves of EPR pairs, the adversary
applies any isometry (up to two ancilla qubits) and measures all but q
qubits before the basis announcement.  After that, everything is a finite
ccq-state computed exactly, up to a certified bracket on a committer's best
opening; no sampling enters any security figure.

Every adversary figure reads one object per announced basis string, the
attack tableau: the post-measurement amplitudes indexed by the sender's two
basis substrings, the record and the memory, with their masses.
`_EprAttack.tableaux` is the only loop over basis strings; the exact
min-entropy, the sender distance and the binding operators each make one
pass over it.  The last two read the memory operators |a><a| as real
coordinates (`qsim._outer_coordinates`): the sender distance transforms
them, the binding check sums them and builds complex matrices once, for
the POVM solver.  The tableaux come from one `qsim.basis_string_walk`,
which rotates each prefix once and shares it: about one Hadamard
contraction per basis string, with at most n + 1 rotated tensors live.

The family-averaged distance over both announced hashes is evaluated with a
Walsh-Hadamard character identity over the Toeplitz row family, which turns
an infeasible enumeration over hash pairs into a transform of the
post-measurement operators.  The operators enter as real coordinates (mass,
trace and gap vector, or the float64 view for q = 2), so the transforms are
float64 GEMMs; the x0 transform of each basis string is shared by both
branches of the split, and q <= 1 trace norms are one closed form.  At n=8
a sender check takes 0.65-1.0 s for all-plus and breidbart and 1.5-2.05 s
for store-one-diag (one BLAS thread, 2-core x86-64).  Tests cross-check
the distance against direct enumeration at n <= 4 and against the complex
transform path up to n = 7.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import hashing, qsim
from .hashing import ToeplitzHash, apply_hash, sample_hash
from .qsim import hadamard  # the benchmark's tracer wraps it by this name

SLACK = 1e-9
# Size gates of the exact checkers, read by the command line before it
# builds an adversary or a script.
MAX_ATTACK_QUBITS = 8
MAX_RECEIVER_QUBITS = 6
# Longest honest run, in qubits and in hashed output bits (the scale of
# qkd.MAX_SENT); the runs refuse a larger n or l before drawing anything.
MAX_RUN_QUBITS = 10 ** 6

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def breidbart_basis() -> qsim.Basis:
    """Intermediate basis halfway between computational and diagonal."""
    c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    return qsim.Basis("breidbart", np.array([[c, -s], [s, c]]))


def _basis_matrix(spec) -> np.ndarray:
    if isinstance(spec, qsim.Basis):
        return np.asarray(spec.vectors)
    if isinstance(spec, str):
        comp, diag, circ = qsim.standard_bases_qubit()
        table = {"+": comp, "x": diag, "o": circ, "breidbart": breidbart_basis()}
        if spec not in table:
            raise ValueError(f"unknown basis label {spec!r}")
        return np.asarray(table[spec].vectors)
    arr = np.asarray(spec, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValueError("explicit basis must be a 2x2 matrix")
    return arr


def _hadamard_wires(arr: np.ndarray, theta: Sequence[int],
                    offsets: Sequence[int] = (0,)) -> np.ndarray:
    """Rotate the [+,x]_theta measurement to the computational one: apply H
    to axis offset + i of arr, for each offset, wherever theta[i] = 1.  H is
    real and symmetric, so it serves row and column axes alike."""
    for i, t in enumerate(theta):
        if t:
            for offset in offsets:
                arr = qsim._contract_axis(arr, _H2, offset + i)
    return arr


def _subset_indices(theta: Sequence[int], b: int) -> list[int]:
    return [i for i, t in enumerate(theta) if t == b]


def _subset_codes(n: int, indices: Sequence[int]) -> np.ndarray:
    """For every n-bit string x (most significant bit first), the integer
    whose bits are x[i] for i in ``indices``, the first index most
    significant: the substring index that hash tables and (x0, x1) axes
    use."""
    x = np.arange(2 ** n)
    code = np.zeros(2 ** n, dtype=np.int64)
    for wire in indices:
        code = (code << 1) | ((x >> (n - 1 - wire)) & 1)
    return code


# ---------------------------------------------------------------------------
# Honest protocol runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OtTranscript:
    """Everything both honest parties saw in one randomized OT run."""

    n: int
    l: int
    c: int
    x: tuple[int, ...]
    theta: tuple[int, ...]
    x_prime: tuple[int, ...]
    f0: ToeplitzHash
    f1: ToeplitzHash
    s0: tuple[int, ...]
    s1: tuple[int, ...]
    y: tuple[int, ...]
    seed: int = 0
    epr: bool = False

    @property
    def i0(self) -> tuple[int, ...]:
        return tuple(_subset_indices(self.theta, 0))

    @property
    def i1(self) -> tuple[int, ...]:
        return tuple(_subset_indices(self.theta, 1))

    def to_json(self) -> dict:
        return {"n": self.n, "l": self.l, "c": self.c, "x": list(self.x),
                "theta": list(self.theta), "xPrime": list(self.x_prime),
                "f0": self.f0.to_json(), "f1": self.f1.to_json(),
                "s0": list(self.s0), "s1": list(self.s1), "y": list(self.y),
                "seed": self.seed, "epr": self.epr}


@dataclass(frozen=True)
class CommitTranscript:
    """One full commit-and-open run."""

    n: int
    b: int
    x: tuple[int, ...]
    theta: tuple[int, ...]
    x_prime: tuple[int, ...]
    accept: bool
    seed: int = 0

    def to_json(self) -> dict:
        return {"n": self.n, "b": self.b, "x": list(self.x),
                "theta": list(self.theta), "xPrime": list(self.x_prime),
                "accept": self.accept, "seed": self.seed}


def _prepare_and_measure(x: Sequence[int], theta: Sequence[int], b: int,
                         rng: np.random.Generator) -> tuple[int, ...]:
    """Send bit x[i] in basis [+,x]_theta[i] and measure it in [+,x]_b,
    one uniform draw per qubit, in qubit order."""
    table = qsim.outcome_table(qsim.standard_bases_qubit()[:2])
    p1 = table[list(theta), list(x), b]
    return tuple((rng.random(len(p1)) < p1).astype(int).tolist())


def _ot_transcript(n: int, l: int, c: int, x: tuple[int, ...],
                   theta: tuple[int, ...], x_prime: tuple[int, ...],
                   rng: np.random.Generator, seed: int,
                   epr: bool) -> OtTranscript:
    """The OT tail shared by both honest runs: draw f0 then f1, hash each
    subset of x, and hash the receiver's subset of x'."""
    f0 = sample_hash(n, l, rng)
    f1 = sample_hash(n, l, rng)
    s0 = apply_hash(f0, [x[i] for i in _subset_indices(theta, 0)])
    s1 = apply_hash(f1, [x[i] for i in _subset_indices(theta, 1)])
    y = apply_hash((f0, f1)[c],
                   [x_prime[i] for i in _subset_indices(theta, c)])
    return OtTranscript(n=n, l=l, c=c, x=x, theta=theta, x_prime=x_prime,
                        f0=f0, f1=f1, s0=s0, s1=s1, y=y, seed=int(seed),
                        epr=epr)


def run_ot(n: int, l: int, c: int, seed: int) -> OtTranscript:
    """One honest noiseless randomized-OT run, simulated qubit by qubit.

    The receiver learns s_c exactly; the hash for the other subset is applied
    to a substring measured in the wrong basis.  Warns when l > n/2 because
    the typical subset is then too short to extract l bits.
    """
    n, l, c = int(n), int(l), int(c)
    if not (1 <= n <= MAX_RUN_QUBITS and 1 <= l <= MAX_RUN_QUBITS
            and c in (0, 1)):
        raise ValueError(f"need 1 <= n, l <= {MAX_RUN_QUBITS}, c in {{0, 1}}")
    if l > n // 2:
        warnings.warn(f"l = {l} exceeds n/2 = {n // 2}; subsets are typically "
                      "too short for this output length", stacklevel=2)
    rng = np.random.default_rng(seed)
    x = tuple(int(v) for v in rng.integers(0, 2, size=n))
    theta = tuple(int(v) for v in rng.integers(0, 2, size=n))
    x_prime = _prepare_and_measure(x, theta, c, rng)
    return _ot_transcript(n, l, c, x, theta, x_prime, rng, seed, epr=False)


def run_epr_ot(n: int, l: int, c: int, seed: int) -> OtTranscript:
    """EPR variant of the honest run: the receiver measures halves of EPR
    pairs first, then the sender measures her halves in random bases.

    Pair i takes two uniforms, for the receiver's x'_i (the pair's marginal)
    and then the sender's x_i (epr_outcome_table); both laws are computed
    once per run.  Same joint distribution of (x, x', theta) as run_ot.
    """
    n, l, c = int(n), int(l), int(c)
    if not (1 <= n <= MAX_RUN_QUBITS and 1 <= l <= MAX_RUN_QUBITS
            and c in (0, 1)):
        raise ValueError(f"need 1 <= n, l <= {MAX_RUN_QUBITS}, c in {{0, 1}}")
    rng = np.random.default_rng(seed)
    theta = rng.integers(0, 2, size=n)
    receiver = qsim.standard_bases_qubit()[c]
    p1 = qsim.measure(qsim.epr_pair().to_density(), {1: receiver})[(1,)]
    u = rng.random((n, 2))
    x_prime = (u[:, 0] < p1).astype(int)
    x = (u[:, 1] < epr_outcome_table(c)[theta, x_prime, 1]).astype(int)
    return _ot_transcript(n, l, c, tuple(x.tolist()), tuple(theta.tolist()),
                          tuple(x_prime.tolist()), rng, seed, epr=True)


def epr_outcome_table(c: int) -> np.ndarray:
    """P(x | x', theta) for one EPR pair, receiver basis [+,x]_c.

    Exact projector arithmetic: the receiver's outcome x' collapses the
    sender's half, measured in [+,x]_theta.  Shape (2 thetas, 2 receiver
    outcomes, 2 sender outcomes).  run_epr_ot draws the sender's bit from
    it.
    """
    comp, diag, _ = qsim.standard_bases_qubit()
    bases = (comp, diag)
    table = np.empty((2, 2, 2))
    pair = qsim.epr_pair().to_density()
    probs, branches = qsim.measure(pair, {1: bases[int(c)]}, return_branches=True)
    for xp in range(2):
        residual = qsim.partial_trace(branches[(xp,)], [0]).normalized()
        for t in range(2):
            out = qsim.measure(residual, {0: bases[t]})
            table[t, xp, 0] = out[(0,)]
            table[t, xp, 1] = out[(1,)]
    return table


# ---------------------------------------------------------------------------
# Receiver security: scripted dishonest senders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptedSender:
    """A dishonest sender committed to fixed messages and a fixed state.

    ``state`` lives on n transmitted qubits (first) plus an arbitrary kept
    register (side_dims).  ``theta``, ``f0``, ``f1`` are the classical
    announcements.  Scripts are deterministic; mixtures can be checked
    script by script since the security figure is linear in the script.
    """

    label: str
    n: int
    state: object
    side_dims: tuple[int, ...]
    theta: tuple[int, ...]
    f0: ToeplitzHash
    f1: ToeplitzHash

    def __post_init__(self):
        expect = (2,) * self.n + tuple(self.side_dims)
        if tuple(self.state.dims) != expect:
            raise qsim.DimensionMismatchError(
                f"script state dims {self.state.dims} != {expect}")
        if len(self.theta) != self.n:
            raise ValueError("theta length mismatch")


@dataclass(frozen=True)
class ReceiverSecurityReport:
    """Exact receiver-security figures for one scripted sender.

    ``distance`` compares the real (choice bit, output, sender register)
    state against the ideal one where the output is defined through the
    sender's own announced quantities; ``independence`` is the distance of
    the ideal state from an exact product over the choice bit.  Both are
    zero for every script, certifying that the receiver leaks nothing.
    """

    label: str
    n: int
    l: int
    distance: float
    independence: float
    output_match_probability: float
    holds: bool

    def to_json(self) -> dict:
        return {"label": self.label, "n": self.n, "l": self.l,
                "distance": self.distance, "independence": self.independence,
                "outputMatchProbability": self.output_match_probability,
                "holds": self.holds}


def _rotated_side_ops(state, n: int, side_dim: int,
                      basis_bits: Sequence[int]) -> np.ndarray:
    """Sub-normalized side-register operators per measurement outcome.

    Measures all n qubits, qubit i in basis [+,x]_{basis_bits[i]}; returns
    array (2^n, side_dim, side_dim).
    """
    if isinstance(state, qsim.StateVector):
        amp = _hadamard_wires(state.amplitudes.reshape((2,) * n + (side_dim,)),
                              basis_bits)
        amp = amp.reshape(2 ** n, side_dim)
        return np.einsum("xi,xj->xij", amp, amp.conj())
    rho = state.matrix.reshape((2,) * n + (side_dim,) + (2,) * n + (side_dim,))
    rho = _hadamard_wires(rho, basis_bits, (0, n + 1))
    rho = rho.reshape(2 ** n, side_dim, 2 ** n, side_dim)
    return np.einsum("xixj->xij", rho)


def check_receiver_security(sender: ScriptedSender, l: int,
                            prior_c: Sequence[float] = (0.5, 0.5)
                            ) -> ReceiverSecurityReport:
    """Exact check that an honest receiver reveals nothing about c.

    Builds the real experiment (receiver measures everything in basis c and
    outputs the hash of the c-subset) and the comparison experiment (the
    sender's own measurement defines both outputs; an independent uniform
    bit picks which one the receiver reports) and evaluates the trace
    distance between the two (choice, output, sender-register) states, plus
    the factorization defect of the comparison state.  Both vanish for any
    script: the two experiments differ only in bases of qubits that get
    traced out.
    """
    n = sender.n
    if n > MAX_RECEIVER_QUBITS:
        raise ValueError("exact receiver-security check handles "
                         f"n <= {MAX_RECEIVER_QUBITS}")
    side_dim = int(np.prod(sender.side_dims)) if sender.side_dims else 1
    prior = np.asarray(prior_c, dtype=float)
    if prior.shape != (2,) or abs(prior.sum() - 1.0) > 1e-9 or prior.min() < 0:
        raise ValueError("prior_c must be a distribution over {0, 1}")
    hashes = (sender.f0, sender.f1)
    # out[c][x]: hash c of the subset-c substring of x, as an integer
    out = []
    for c in (0, 1):
        subset = _subset_indices(sender.theta, c)
        # through the module, so a wrapper of hashing.hash_output_table
        # (the benchmark's tracer) sees these calls
        out.append(hashing.hash_output_table(hashes[c], len(subset))
                   [_subset_codes(n, subset)])
    size = 2 ** max(f.output_bits for f in hashes)
    shape = (side_dim, side_dim)

    # (choice, output) branches of both experiments; (choice, s0, s1)
    # branches of the comparison experiment
    real = np.zeros((2, size) + shape, complex)
    ideal = np.zeros((2, size) + shape, complex)
    triple = np.zeros((2, size, size) + shape, complex)
    own = _rotated_side_ops(sender.state, n, side_dim, sender.theta)
    for c in (0, 1):
        ops = _rotated_side_ops(sender.state, n, side_dim, [c] * n)
        np.add.at(real[c], out[c], prior[c] * ops)
        np.add.at(ideal[c], out[c], prior[c] * own)
        np.add.at(triple[c], (out[0], out[1]), prior[c] * own)
    distance = 0.5 * float(qsim._trace_norms(real - ideal).sum())

    # factorization defect: (C, S0, S1, side) vs P_C x (S0, S1, side)
    marg_c = np.einsum("cabii->c", triple).real
    marg_s = triple.sum(axis=0)
    independence = 0.5 * float(qsim._trace_norms(
        triple - marg_c[:, None, None, None, None] * marg_s).sum())

    # in the comparison experiment the reported output is s_c by definition;
    # the figure below is that tautology evaluated numerically (total mass)
    match = float(np.einsum("csii->", ideal).real)
    if abs(match - 1.0) > 1e-7:
        raise qsim.DimensionMismatchError(
            f"comparison state mass {match} is not 1; script state invalid")

    return ReceiverSecurityReport(
        label=sender.label, n=n, l=int(l), distance=distance,
        independence=independence,
        output_match_probability=match,
        holds=(distance <= SLACK and independence <= SLACK))


# ---------------------------------------------------------------------------
# Bounded-storage adversaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedAdversary:
    """A receiver or committer limited to q stored qubits.

    The attack is fixed before the basis announcement: append `ancillas`
    fresh qubits, apply `unitary` to the n received wires plus ancillas
    (received wires first), keep the wires listed in `kept` and measure the
    rest in the computational basis.  Product strategies (measure each wire
    in some basis, store a few untouched) are a special case.
    """

    name: str
    n: int
    kept: tuple[int, ...]
    ancillas: int = 0
    unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("an adversary needs n >= 1 qubits, "
                             f"got n = {self.n}")
        wires = self.n + self.ancillas
        if any(not 0 <= w < wires for w in self.kept):
            raise ValueError("kept wires out of range")
        if len(set(self.kept)) != len(self.kept):
            raise ValueError("kept wires must be distinct")
        if tuple(sorted(self.kept)) != tuple(self.kept):
            raise ValueError("kept wires must be sorted")
        if self.unitary is not None:
            u = np.asarray(self.unitary, dtype=np.complex128)
            d = 2 ** wires
            if u.shape != (d, d):
                raise ValueError(f"unitary must be {d}x{d}")
            if not np.allclose(u.conj().T @ u, np.eye(d), atol=1e-9):
                raise ValueError("attack matrix is not unitary")
            object.__setattr__(self, "unitary", u)

    @property
    def q(self) -> int:
        return len(self.kept)

    def isometry(self) -> np.ndarray:
        """The 2^(n+a) x 2^n isometry |z> -> U |z>|0...0>."""
        wires = self.n + self.ancillas
        if self.unitary is None:
            u = np.eye(2 ** wires, dtype=np.complex128)
        else:
            u = self.unitary
        cols = np.arange(2 ** self.n) * (2 ** self.ancillas)
        return u[:, cols]

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "n": self.n, "kept": list(self.kept),
                     "ancillas": self.ancillas}
        if self.unitary is not None:
            out["unitary"] = {"re": self.unitary.real.tolist(),
                              "im": self.unitary.imag.tolist()}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "BoundedAdversary":
        u = None
        if "unitary" in data and data["unitary"] is not None:
            spec = data["unitary"]
            u = np.array(spec["re"], dtype=float) + 1j * np.array(spec["im"], dtype=float)
        if "measure" in data:
            if u is not None:
                raise ValueError("give either a full unitary or per-wire bases")
            return product_adversary(
                data.get("name", "adversary"), int(data["n"]),
                {int(k): v for k, v in data["measure"].items()},
                data.get("kept", ()))
        return cls(name=data.get("name", "adversary"), n=int(data["n"]),
                   kept=tuple(int(w) for w in data.get("kept", ())),
                   ancillas=int(data.get("ancillas", 0)), unitary=u)


def product_adversary(name: str, n: int, measure: Mapping[int, object],
                      kept: Sequence[int] = ()) -> BoundedAdversary:
    """Adversary that measures wire i in measure[i] and stores `kept` raw.

    measure maps wire index to a basis (label, Basis, or 2x2 matrix); kept
    wires must not appear in it.  No ancillas.
    """
    kept = tuple(sorted(int(w) for w in kept))
    if set(measure) & set(kept):
        raise ValueError("a wire cannot be both measured and kept")
    if set(measure) | set(kept) != set(range(n)):
        raise ValueError("every wire needs a basis or a slot in kept")
    factors = []
    for i in range(n):
        if i in kept:
            factors.append(np.eye(2, dtype=np.complex128))
        else:
            factors.append(_basis_matrix(measure[i]).conj().T)
    u = functools.reduce(np.kron, factors, np.ones((1, 1)))
    return BoundedAdversary(name=name, n=n, kept=kept, ancillas=0, unitary=u)


def _guard_attack_size(adversary: BoundedAdversary) -> None:
    if adversary.n > MAX_ATTACK_QUBITS:
        raise ValueError("exact checkers handle at most "
                         f"n = {MAX_ATTACK_QUBITS} qubits")
    if adversary.q > 2:
        raise ValueError("memory bound capped at q = 2")
    if adversary.ancillas > 2:
        raise ValueError("at most 2 ancilla qubits")


@dataclass(frozen=True)
class _Tableau:
    """The adversary's view after one basis string theta is announced.

    ``a`` holds the amplitudes indexed (x0, x1, record, memory): x_b is the
    sender's substring on the positions with theta_i = b, first position
    most significant.  ``p`` is the (x0, x1, record) mass and
    ``codes[b][x]`` the x_b index of the full n-bit string x, built when
    first read.
    """

    theta: tuple[int, ...]
    a: np.ndarray
    p: np.ndarray

    @functools.cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.theta)
        return tuple(_subset_codes(n, _subset_indices(self.theta, b))
                     for b in (0, 1))

    def heavy(self, tau: float) -> np.ndarray:
        """Boolean (2^m1, record) mask of atoms whose diagonal-subset string
        is heavy: P(x1 | theta, record) >= tau.  Records with zero mass are
        left unmasked (they never contribute weight)."""
        p_x1k = self.p.sum(axis=0)
        p_k = p_x1k.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(p_k > 0.0, p_x1k / np.where(p_k > 0.0, p_k, 1.0),
                            0.0)
        return cond >= tau - 1e-12


class _EprAttack:
    """Exact post-announcement view of one bounded adversary.

    In the purified protocol the sender holds halves of n EPR pairs, so the
    adversary's isometry V acting on the transmitted halves gives the joint
    amplitude matrix V^T / 2^(n/2) between the sender wires and the
    adversary register.  `tableaux` rotates the sender wires to each basis
    string in turn and yields its `_Tableau`, from which every security
    figure follows.
    """

    def __init__(self, adversary: BoundedAdversary):
        self.n = adversary.n
        wires = adversary.n + adversary.ancillas
        measured = [w for w in range(wires) if w not in adversary.kept]
        self.k_dim = 2 ** len(measured)
        self.mem_dim = 2 ** adversary.q
        v = adversary.isometry()
        self.base = (v.T / 2 ** (self.n / 2.0)).reshape(
            (2,) * self.n + (2,) * wires)
        # adversary axes of base in (record, memory) order
        self.register = tuple(self.n + w
                              for w in measured + list(adversary.kept))

    def tableaux(self) -> Iterator[_Tableau]:
        """One tableau per basis string, theta read as an n-bit integer with
        the first position most significant, in increasing order.

        The sender wires are rotated by one `qsim.basis_string_walk` with H
        where theta_i = 1 and nothing where theta_i = 0: 2^n - 1 Hadamard
        contractions in all, about one per basis string instead of up to
        n, with at most n + 1 rotated tensors live.
        """
        n = self.n
        walk = qsim.basis_string_walk(self.base, (None, _H2), n)
        for theta, rotated in walk:
            i0, i1 = _subset_indices(theta, 0), _subset_indices(theta, 1)
            arr = np.transpose(rotated, tuple(i0) + tuple(i1) + self.register)
            a = np.ascontiguousarray(arr).reshape(
                2 ** len(i0), 2 ** len(i1), self.k_dim, self.mem_dim)
            yield _Tableau(theta, a, (np.abs(a) ** 2).sum(axis=3))

    def min_entropy_alpha(self) -> float:
        """Exact min-entropy of the sender string given theta and the
        adversary's pre-announcement measurement record."""
        worst = 0.0
        for tab in self.tableaux():
            p = tab.p.reshape(-1, self.k_dim)
            pk = p.sum(axis=0)
            live = pk > 1e-300
            if not np.any(live):
                continue
            ratios = p[:, live].max(axis=0) / pk[live]
            worst = max(worst, float(ratios.max()))
        if worst <= 0.0:
            raise ValueError("adversary state carries no probability mass")
        return 0.0 - math.log2(worst)     # +0.0, not -0.0, when worst == 1


# ---------------------------------------------------------------------------
# Sender security for randomized OT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SenderSecurityReport:
    """Exact leakage and the proved bound for one bounded receiver.

    ``distance`` is the family-averaged trace distance between the real
    (secrets, hashes, basis string, record, memory) state and the ideal one
    in which the secret on the high-entropy subset is replaced by a fresh
    uniform bit, averaged over the split bit.  ``bound`` is the assembled
    analytic claim (capped at one); ``trivial`` flags the cap.
    """

    name: str
    n: int
    l: int
    q: int
    alpha: float
    tau: float
    distance: float
    bound_raw: float
    bound: float
    eps_split: float
    eps_chain: float
    chain: dict
    prob_cprime1: float
    trivial: bool
    holds: bool

    def to_json(self) -> dict:
        return {"name": self.name, "n": self.n, "l": self.l, "q": self.q,
                "alpha": self.alpha, "tau": self.tau,
                "distance": self.distance, "boundRaw": self.bound_raw,
                "bound": self.bound, "epsSplit": self.eps_split,
                "epsChain": self.eps_chain, "chain": dict(self.chain),
                "trivial": self.trivial, "holds": self.holds}


def _family_average_distance(attack: _EprAttack, tau: float
                             ) -> tuple[float, float]:
    """Family-averaged real-vs-ideal distance, exact, for one-bit hashes.

    Per basis string the masked post-measurement operators are transformed
    over both substring indices with Sylvester-Hadamard matrices; each
    frequency pair contributes two trace norms.  The identity behind this:
    a uniformly drawn one-bit GF(2)-linear hash of an m-bit string is the
    character family, so averaging the branch distances over the family is
    the same as averaging transform magnitudes over frequencies.

    The operators enter as real coordinates (`qsim._outer_coordinates`):
    the mass for q = 0, the trace and gap vector for q = 1, the float64 view
    of the complex operator for q = 2.  Both transforms are float64 GEMMs,
    and q <= 1 builds no complex operator.  The heavy mask depends only on
    (x1, record), so the x0 transform runs once per basis string and both
    branches share it: each masked entry is the same sum times 0 or 1.  A
    branch that masks in no atom adds exactly 0 and is skipped.  Per basis
    string that is one x0 and at most two x1 transforms of a (coordinate,
    2^n, record) array and at most four trace-norm stacks, closed form for
    q <= 1 and eigvalsh for q = 2.
    """
    total = 0.0
    prob_c1 = 0.0
    theta_prior = freq_prior = 2.0 ** (-attack.n)
    for tab in attack.tableaux():
        mask1 = tab.heavy(tau)
        prob_c1 += theta_prior * float(tab.p.sum(axis=0)[mask1].sum())
        coords = qsim._outer_coordinates(tab.a.swapaxes(0, 1))
        size, n1, n0 = coords.shape[:3]                  # (c, x1, x0, k)
        t = hadamard(n0) @ coords                        # (c, x1, a0, k)
        h1 = hadamard(n1)
        for uniform_axis, mask in ((0, mask1), (1, ~mask1)):
            if not mask.any():
                continue
            masked = (t * mask[:, None, :]).reshape(size, n1, -1)
            b2 = (h1 @ masked).reshape(t.shape)          # (c, a1, a0, k)
            if uniform_axis == 0:
                ref = b2[:, 0:1]       # frequency 0 on the x1 side
            else:
                ref = b2[:, :, 0:1]    # frequency 0 on the x0 side
            part = (qsim._coordinate_trace_norms(ref + b2).sum()
                    + qsim._coordinate_trace_norms(ref - b2).sum())
            total += theta_prior * freq_prior * 0.25 * float(part)
    return total, prob_c1


def security_error_bound(alpha: float, q: int, l: int) -> dict:
    """Assemble the analytic sender-security bound from the exact alpha.

    Chain: splitting with smoothing eps', one-bit-per-hash leakage of the
    other secret via the chain rule with eps'', then the extractor bound
    against q stored qubits.  Both smoothing parameters are optimized in
    closed form: 0.5 * 2^(-a/2) / t + 4 t is least at t* = 2^(-a/4 - 1.5).
    """
    a_eff = alpha / 2.0 - 1.0 - 2.0 * l - q
    t_star = 2.0 ** (-a_eff / 4.0 - 1.5)
    raw = 2.0 ** 1.5 * 2.0 ** (-a_eff / 4.0)
    return {"exponent": a_eff, "epsSmooth": t_star, "raw": raw,
            "capped": min(1.0, raw),
            "minEntropyAfterSplit": alpha / 2.0 - 1.0 - math.log2(1.0 / t_star),
            "minEntropyAfterLeak": (alpha / 2.0 - 1.0 - math.log2(1.0 / t_star)
                                    - l - math.log2(1.0 / t_star))}


def check_sender_security(receiver: BoundedAdversary, l: int = 1
                          ) -> SenderSecurityReport:
    """Exact sender-security audit of one bounded receiver.

    Computes the receiver's exact min-entropy about the transmitted string
    given the basis announcement and its measurement record, the exact
    family-averaged real-vs-ideal distance, and the analytic bound the
    security argument promises.  Everything is deterministic; no sampling.

    Only single-bit hash outputs are supported here: for those the family
    average has a closed form.  Longer outputs would need explicit hash
    enumeration, which the test suite does at small n as a cross-check.
    """
    l = int(l)
    if l != 1:
        raise ValueError("exact family averaging needs l = 1")
    _guard_attack_size(receiver)
    attack = _EprAttack(receiver)
    alpha = attack.min_entropy_alpha()
    tau = 2.0 ** (-alpha / 2.0)
    distance, prob_c1 = _family_average_distance(attack, tau)
    chain = security_error_bound(alpha, receiver.q, l)
    bound = chain["capped"]
    return SenderSecurityReport(
        name=receiver.name, n=receiver.n, l=l, q=receiver.q, alpha=alpha,
        tau=tau, distance=distance, bound_raw=chain["raw"], bound=bound,
        eps_split=chain["epsSmooth"], eps_chain=chain["epsSmooth"],
        chain=chain, prob_cprime1=prob_c1, trivial=chain["raw"] >= 1.0,
        holds=distance <= bound + SLACK)


# ---------------------------------------------------------------------------
# Bit commitment
# ---------------------------------------------------------------------------

def run_commit(n: int, b: int, seed: int) -> CommitTranscript:
    """One honest commit-and-open run over a noiseless channel.

    The verifier sends random bits in random bases; the committer measures
    everything in basis b and later reveals (b, outcomes); the verifier
    checks the positions whose sending basis matches b.  Honest runs always
    accept.
    """
    n, b = int(n), int(b)
    if not 1 <= n <= MAX_RUN_QUBITS or b not in (0, 1):
        raise ValueError(f"need 1 <= n <= {MAX_RUN_QUBITS} and b in {{0, 1}}")
    rng = np.random.default_rng(seed)
    x = tuple(int(v) for v in rng.integers(0, 2, size=n))
    theta = tuple(int(v) for v in rng.integers(0, 2, size=n))
    x_prime = _prepare_and_measure(x, theta, b, rng)
    accept = commit_accepts(x, theta, b, x_prime)
    return CommitTranscript(n=n, b=b, x=x, theta=theta, x_prime=x_prime,
                            accept=accept, seed=int(seed))


def commit_accepts(x: Sequence[int], theta: Sequence[int], b: int,
                   x_prime: Sequence[int]) -> bool:
    """The verifier's opening check: announced bits must match the sent
    ones on every position whose sending basis equals the opened bit."""
    return all(x_prime[i] == x[i] for i in _subset_indices(theta, int(b)))


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.  Nothing calls
    it; it stays while the benchmark's tracer wraps it by name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


# `_povm_bracket` stops at gap POVM_GAP or after POVM_MAX_ITER cycles.
# Unclipped, its extrapolation steps grow to thousands and keep failing.
POVM_GAP = 1e-13
POVM_MAX_ITER = 1000
POVM_MAX_STEP = 1024.0


def _povm_step(m: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors B_x = R^-1 F_x, R = (sum_x F_x F_x^dagger)^(1/2) inverted on
    its support, of the POVM E_x = B_x B_x^dagger + K / X (K the kernel
    projector of R), and Y = Herm(sum_x M_x E_x), per (X, D, D) stack."""
    vals, vecs = np.linalg.eigh(
        np.einsum("nxij,nxkj->nik", f, f.conj(), optimize=True))
    good = vals > 1e-13 * np.maximum(vals[:, -1:], 1e-300)
    inv_sqrt = np.where(good, 1.0 / np.sqrt(np.where(good, vals, 1.0)), 0.0)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    b = ((vecs * inv_sqrt[:, None, :]) @ vecs_h)[:, None] @ f
    e = (b @ b.conj().swapaxes(-1, -2)
         + ((vecs * ~good[:, None, :]) @ vecs_h)[:, None] / f.shape[1])
    y = np.einsum("nxij,nxjk->nik", m, e, optimize=True)
    return b, 0.5 * (y + y.conj().swapaxes(-1, -2))


def _povm_bracket(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lower, upper) on max over POVMs of sum_x tr(M_x E_x), per
    PSD (X, D, D) stack of a (..., X, D, D) array, any D.  Primal: the
    Jezek-Rehacek-Fiurasek fixed point E_x <- R^-1 M_x E_x M_x R^-1 from the
    square-root measurement, on factors, so that SQUAREM extrapolation
    (Varadhan-Roland 2008) stays a POVM; the lower end is the best value or
    single guess (exact for D = 1).  Dual: Y + s I, s the largest positive
    eigenvalue sum of any M_x - Y, dominates every M_x: tr Y + D s, or the
    total trace, is an upper end.  Stacks leave once POVM_GAP close."""
    ops = np.asarray(ops)
    batch, (outcomes, d) = ops.shape[:-3], ops.shape[-3:-1]
    m = ops.reshape((-1, outcomes, d, d))
    traces = np.einsum("nxii->nx", m).real
    lower, upper = traces.max(axis=1), traces.sum(axis=1)
    vals, vecs = np.linalg.eigh(m)
    b, y = _povm_step(m, (vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :])
                      @ vecs.conj().swapaxes(-1, -2))
    live, ml = np.arange(len(m)), m
    for cycle in range(POVM_MAX_ITER + 1):
        value = np.einsum("nii->n", y).real
        excess = ml - y[:, None]
        positive = np.maximum(np.einsum("nxii->nx", excess).real
                              + qsim._trace_norms(excess), 0.0) / 2.0
        lower[live] = np.maximum(lower[live], value)
        upper[live] = np.minimum(upper[live], value + d * positive.max(axis=1))
        still = upper[live] - lower[live] > POVM_GAP
        if cycle == POVM_MAX_ITER or not still.any():
            break
        live, ml, b = live[still], ml[still], b[still]
        b1 = _povm_step(ml, ml @ b)[0]
        b2, y2 = _povm_step(ml, ml @ b1)
        r, v = b1 - b, b2 - 2.0 * b1 + b
        r_norm, v_norm = (np.linalg.norm(a.reshape(len(a), -1), axis=1)
                          for a in (r, v))
        alpha = np.clip(-r_norm / np.maximum(v_norm, 1e-300),
                        -POVM_MAX_STEP, -1.0)[:, None, None, None]
        b3, y3 = _povm_step(ml, ml @ (b - 2.0 * alpha * r + alpha ** 2 * v))
        pick = (np.einsum("nii->n", y3).real
                >= np.einsum("nii->n", y2).real)[:, None, None]
        b, y = np.where(pick[:, None], b3, b2), np.where(pick, y3, y2)
    return lower.reshape(batch), upper.reshape(batch)


@dataclass(frozen=True)
class BindingReport:
    """Exact binding audit of one bounded committer.

    ``bound_bit`` distributions and acceptance figures refer to the split
    bit computed from the committer's record: the basis subset whose string
    stays heavy is the openable one, the other is certified hard.  The
    cheat figure is the total probability of a successful opening of the
    hard bit, maximized over opening strategies: for any q, a measurement
    reaches ``cheat_lower`` and a dual solution certifies ``cheat_upper``.
    """

    name: str
    n: int
    q: int
    alpha: float
    tau: float
    prob_bound_bit: tuple[float, float]
    cheat_joint: tuple[float, float]
    cheat_upper: float
    cheat_lower: float
    open_success: tuple[float, float]
    eps_raw: float
    eps: float
    trivial: bool
    holds: bool
    weak_sum: float
    weak_holds: bool

    def to_json(self) -> dict:
        return {"name": self.name, "n": self.n, "q": self.q,
                "alpha": self.alpha, "tau": self.tau,
                "probBoundBit": list(self.prob_bound_bit),
                "cheatJoint": list(self.cheat_joint),
                "cheatUpper": self.cheat_upper,
                "cheatLower": self.cheat_lower,
                "openSuccess": list(self.open_success),
                "epsRaw": self.eps_raw, "eps": self.eps,
                "trivial": self.trivial, "holds": self.holds,
                "weakSum": self.weak_sum, "weakHolds": self.weak_holds}


def binding_error_bound(alpha: float, q: int) -> float:
    """Claimed cap on the hard-bit opening probability, before the cap at 1:
    splitting with an optimized smoothing parameter against q stored
    qubits."""
    return 2.0 * 2.0 ** ((1.0 + q - alpha / 2.0) / 2.0)


def check_binding(committer: BoundedAdversary) -> BindingReport:
    """Exact binding audit of one bounded committer.

    The committer never learns the verifier's basis string, so its opening
    measurement may depend only on its record; the relevant operators are
    therefore basis-averaged before the per-record optimization.  One
    `_povm_bracket` call brackets the best opening of every record and
    target, with and without the split bit, for any q.
    """
    _guard_attack_size(committer)
    attack = _EprAttack(committer)
    n, q = committer.n, committer.q
    alpha = attack.min_entropy_alpha()
    tau = 2.0 ** (-alpha / 2.0)
    k_dim = attack.k_dim
    theta_prior = 2.0 ** (-n)

    # real coordinates of the basis-summed opening operators [cond or unc,
    # target t, coordinate, x', record], scaled by theta's prior 2^-n once
    # at the end (exact); sized from the first string's coordinates
    opening = None
    prob_bb = np.zeros(2)

    for tab in attack.tableaux():
        coords = qsim._outer_coordinates(tab.a)          # (c, x0, x1, k)
        if opening is None:
            opening = np.zeros((2, 2, len(coords), 2 ** n, k_dim))
        mask1 = tab.heavy(tau)
        mass = tab.p.sum(axis=0)
        # bound bit 1 - t leaves subset t as the hard target: group by x_t
        # and unpack the group index to the announced x'; unconditional
        # openings ignore the split bit
        for t, keep in ((0, mask1), (1, ~mask1)):
            prob_bb[1 - t] += theta_prior * float(mass[keep].sum())
            for acc, ops in ((opening[0, t], coords * keep),
                             (opening[1, t], coords)):
                acc += ops.sum(axis=2 - t)[:, tab.codes[t]]
    opening *= theta_prior

    # complex (record, x') stacks of D x D operators, built once
    lower, upper = _povm_bracket(qsim._coordinate_matrices(
        np.moveaxis(opening, 2, 0)).swapaxes(2, 3))
    per_k_hi, open_hi = upper[0], upper[1].sum(axis=1)

    eps_raw = binding_error_bound(alpha, q)
    eps = min(1.0, eps_raw)
    # cheat_joint[v]: best strategy aimed only at the bound-bit-v branch,
    # whose hard target is subset 1-v; the overall cheat strategy picks the
    # better target per record
    cheat_hi = (float(per_k_hi[1].sum()), float(per_k_hi[0].sum()))
    cheat_upper = float(per_k_hi.max(axis=0).sum())
    cheat_lower = float(lower[0].max(axis=0).sum())
    weak_sum = float(open_hi.sum())
    return BindingReport(
        name=committer.name, n=n, q=q, alpha=alpha, tau=tau,
        prob_bound_bit=(float(prob_bb[0]), float(prob_bb[1])),
        cheat_joint=(float(cheat_hi[0]), float(cheat_hi[1])),
        cheat_upper=cheat_upper, cheat_lower=cheat_lower,
        open_success=(float(open_hi[0]), float(open_hi[1])),
        eps_raw=eps_raw, eps=eps, trivial=eps_raw >= 1.0,
        holds=cheat_upper <= eps + SLACK,
        weak_sum=weak_sum, weak_holds=weak_sum <= 1.0 + eps + SLACK)
