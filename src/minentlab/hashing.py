"""Two-universal Toeplitz hashing over GF(2) and privacy amplification.

An l x n Toeplitz matrix is fixed by its n + l - 1 bit diagonal string g:
first_row[j] is bit n-1-j of g and first_col[i] is bit n-1+i.  Row i is then
bits i .. i+n-1 of g, a mask over the input read most significant bit first,
and output bit i is the parity of input & row.  The family of all strings is
two-universal: extracting l bits from a source with smooth min-entropy H
given q qubits of side information leaves a state within
(1/2) * 2^(-(H - q - l)/2) + 2*eps of uniform-and-independent, which
verify_pa checks exactly over the whole family.  One evaluator serves each
job: apply_hash hashes one input of any length (an OT substring or a QKD
key) as a numpy.fft convolution with the diagonal string,
hash_output_table every input of a short string as row-mask parities, and
verify_pa whole families as one Walsh-Hadamard transform of the source
operators' real coordinates, read at the XORs of each member's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import qsim
from .distrib import JointDistribution, smooth_min_entropy_conditional

SLACK = 1e-9
# Longest source verify_pa enumerates the hash family for; check_pa_size
# applies it and the next two gates, also on the command line.
MAX_PA_SOURCE_BITS = 8
# Largest adversary memory, in qubits, that verify_pa accepts.  Each further
# qubit makes the 2^q x 2^q trace norms about four times slower.
MAX_PA_MEMORY_QUBITS = 6
# Bound on verify_pa's work, 2^(n+l-1) hashes * 2^n inputs * side symbols
# * 4^q operator entries; n=8, l=8, q=6 would take 2^12 times as many.  Its
# transform reads 2^l frequencies for each of a hash's 2^l outputs, which
# is 2^(n+2l-1) * side symbols * 4^q and, as l <= n, within the bound.
MAX_PA_WORK = 1 << 23
# verify_pa gathers and transforms the operator coordinates of this many
# (hash, side symbol, output, coordinate) cells at a time, which caps its
# working memory at a few megabytes whatever n, l and the memory size are.
_PA_BLOCK_ENTRIES = 1 << 17


def _row(g, n: int, i):
    """Row i for diagonal string g, as Python ints or broadcast arrays."""
    return (g >> i) & ((1 << n) - 1)


@dataclass(frozen=True)
class ToeplitzHash:
    """Toeplitz matrix hash GF(2)^n -> GF(2)^l.

    ``first_row`` has n bits, ``first_col`` has l bits, and they share the
    top-left entry; the free parameters are the n + l - 1 bits
    first_row ++ first_col[1:], read as the module docstring's string g.
    """

    input_bits: int
    output_bits: int
    first_row: tuple[int, ...]
    first_col: tuple[int, ...]

    def __init__(self, first_row: Sequence[int], first_col: Sequence[int]):
        row = tuple(int(b) & 1 for b in first_row)
        col = tuple(int(b) & 1 for b in first_col)
        if not row or not col:
            raise ValueError("row and column must be non-empty")
        if row[0] != col[0]:
            raise ValueError("first_row[0] and first_col[0] must agree")
        object.__setattr__(self, "input_bits", len(row))
        object.__setattr__(self, "output_bits", len(col))
        object.__setattr__(self, "first_row", row)
        object.__setattr__(self, "first_col", col)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The l matrix rows as n-bit masks, column j at bit n-1-j."""
        g = int("".join(map(str, self.first_col[:0:-1] + self.first_row)), 2)
        return tuple(_row(g, self.input_bits, i)
                     for i in range(self.output_bits))

    @property
    def parameter_bits(self) -> tuple[int, ...]:
        return self.first_row + self.first_col[1:]

    def to_hex(self) -> str:
        """Compact descriptor: first_row then first_col packed to hex,
        most significant bit first, zero padded at the tail."""
        bits = self.first_row + self.first_col
        value = 0
        for b in bits:
            value = (value << 1) | b
        width = -(-len(bits) // 4)
        value <<= 4 * width - len(bits)
        return format(value, f"0{width}x")

    @classmethod
    def from_hex(cls, n: int, l: int, descriptor: str) -> "ToeplitzHash":
        total = n + l
        value = int(descriptor, 16)
        value >>= 4 * len(descriptor) - total
        bits = [(value >> (total - 1 - i)) & 1 for i in range(total)]
        return cls(bits[:n], bits[n:])

    def to_json(self) -> dict:
        return {"inputBits": self.input_bits, "outputBits": self.output_bits,
                "firstRow": list(self.first_row),
                "firstCol": list(self.first_col), "hex": self.to_hex()}

    @classmethod
    def from_json(cls, data) -> "ToeplitzHash":
        if "firstRow" in data:
            return cls(data["firstRow"], data["firstCol"])
        return cls.from_hex(data["inputBits"], data["outputBits"], data["hex"])


def sample_hash(n: int, l: int, rng: np.random.Generator) -> ToeplitzHash:
    """Uniform member of the Toeplitz family for n input and l output bits."""
    n, l = int(n), int(l)
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 and l >= 1")
    row = rng.integers(0, 2, size=n)
    col = rng.integers(0, 2, size=l)
    col[0] = row[0]
    return ToeplitzHash(row.tolist(), col.tolist())


def apply_hash(h: ToeplitzHash, x) -> tuple[int, ...]:
    """Hash an input bit string (sequence of bits or integer).

    An integer must lie in [0, 2^n), its most significant bit first; it is
    unpacked to n bits.  Sequences shorter than ``input_bits`` are
    zero-padded on the right, so only the first ``len(x)`` columns of the
    matrix act; longer inputs are rejected.

    Output bit i is the parity of sum_j d[i - j + n - 1] x[j], where d is the
    diagonal string read from the top-right entry down to the bottom-left
    one: a convolution of d with x, computed with numpy.fft at the next
    power of two >= n + l - 1 (long enough that the needed entries do not
    wrap) and rounded back to integers.  The sums are bounded by the input
    length, far below where float64 rounding could flip a parity; a guard
    checks the rounding residue anyway.
    """
    n, l = h.input_bits, h.output_bits
    if isinstance(x, (int, np.integer)):
        value = int(x)
        if not 0 <= value < 1 << n:
            raise ValueError(f"integer input must lie in [0, 2^{n})")
        x = [(value >> (n - 1 - j)) & 1 for j in range(n)]
    xb = np.asarray(x, dtype=np.uint8)
    if xb.ndim != 1 or xb.size > n or xb.max(initial=0) > 1:
        raise ValueError(f"input must be at most {n} bits")
    d = np.concatenate([np.asarray(h.first_row[:0:-1], dtype=float),
                        np.asarray(h.first_col, dtype=float)])
    size = 1 << (n + l - 2).bit_length()
    spectrum = np.fft.rfft(d, size)
    spectrum *= np.fft.rfft(xb, size)
    counts = np.fft.irfft(spectrum, size)[n - 1:n - 1 + l]
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max(initial=0.0) > 1e-6:
        raise ArithmeticError("FFT Toeplitz product strayed from integers")
    return tuple(int(b) & 1 for b in rounded.astype(np.int64))


def enumerate_hash_family(n: int, l: int) -> list[ToeplitzHash]:
    """All 2^(n+l-1) members of the Toeplitz family; member g has diagonal
    string g."""
    n, l = int(n), int(l)
    if n + l - 1 > 20:
        raise ValueError("family too large to enumerate")
    return [ToeplitzHash([(g >> (n - 1 - j)) & 1 for j in range(n)],
                         [(g >> (n - 1 + i)) & 1 for i in range(l)])
            for g in range(2 ** (n + l - 1))]


def hash_output_table(h: ToeplitzHash, m: int | None = None) -> np.ndarray:
    """Outputs (as integers) for all 2^m inputs, m defaulting to input_bits,
    output bit i at bit l-1-i."""
    n = h.input_bits
    m = n if m is None else int(m)
    if m > n:
        raise ValueError("m exceeds input_bits")
    x = np.arange(2 ** m)
    out = np.zeros(2 ** m, dtype=np.int64)
    for row in h.rows:
        out = (out << 1) | (np.bitwise_count((row >> (n - m)) & x) & 1)
    return out


def pa_bound(h_smooth: float, q: int, l: int, eps: float) -> float:
    """Privacy amplification distance bound
    (1/2) * 2^(-(h_smooth - q - l)/2) + 2*eps."""
    if q < 0 or l < 1 or eps < 0.0:
        raise ValueError("need q >= 0, l >= 1, eps >= 0")
    return 0.5 * 2.0 ** (-0.5 * (float(h_smooth) - q - l)) + 2.0 * float(eps)


@dataclass(frozen=True)
class PrivacyAmpReport:
    """Exact family-averaged distance from uniform versus its bound."""

    n: int
    l: int
    q: int
    eps: float
    h_smooth: float
    exact_distance: float
    bound: float
    holds: bool

    def to_json(self) -> dict:
        return {"n": self.n, "l": self.l, "q": self.q, "eps": self.eps,
                "hSmooth": self.h_smooth, "exactDistance": self.exact_distance,
                "bound": self.bound, "holds": self.holds}


def _quantum_bit_count(dims: Sequence[int]) -> int:
    total = int(np.prod(dims))
    q = int(round(math.log2(total)))
    if 2 ** q != total:
        raise ValueError(f"quantum register dimension {total} is not a power of two")
    return q


def check_pa_size(n: int, l: int, q: int, symbols: int) -> None:
    """Refuse sizes verify_pa cannot enumerate; symbols counts the u's."""
    if n > MAX_PA_SOURCE_BITS:
        raise ValueError(f"source too long (n <= {MAX_PA_SOURCE_BITS})")
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n = {n}, got l = {l}")
    if not 0 <= q <= MAX_PA_MEMORY_QUBITS:
        raise ValueError(f"need 0 <= q <= {MAX_PA_MEMORY_QUBITS}, got q = {q}")
    if 2 ** (2 * n + l - 1 + 2 * q) * symbols > MAX_PA_WORK:
        raise ValueError(f"hash family too large (work <= {MAX_PA_WORK})")


def verify_pa(cq: qsim.CqState, l: int, eps: float) -> PrivacyAmpReport:
    """Exact check of the privacy amplification bound on a ccq-state.

    ``cq`` holds branches keyed by (x, u): x a tuple of bits (the source), u
    any hashable side-information symbol; the quantum register is the
    adversary memory E.  The reported distance is the exact trace distance
    between (F(X), F, U, E) and (uniform, F, U, E) for a uniformly random
    Toeplitz hash F, computed by enumerating the full family, so the sizes
    must pass check_pa_size.
    """
    keys = list(cq.branches)
    if not keys:
        raise ValueError("empty cq-state")
    first = keys[0]
    if not (isinstance(first, tuple) and len(first) == 2 and isinstance(first[0], tuple)):
        raise ValueError("branches must be keyed by (x bits, u)")
    n = len(first[0])
    q = _quantum_bit_count(cq.quantum_dims)
    u_values = sorted({k[1] for k in keys}, key=repr)
    l = int(l)
    check_pa_size(n, l, q, len(u_values))
    dim = int(np.prod(cq.quantum_dims))

    u_index = {u: i for i, u in enumerate(u_values)}
    ops = np.zeros((len(u_values), 2 ** n, dim, dim), dtype=np.complex128)
    for (x, u), op in cq.branches.items():
        if len(x) != n:
            raise ValueError("inconsistent source lengths")
        if any(b not in (0, 1) for b in x):
            raise ValueError(f"source entries must be bits, got {x!r}")
        xi = int("".join(str(int(b)) for b in x), 2)
        ops[u_index[u], xi] += op.matrix

    # By [F x = s] = 2^-l sum_v (-1)^(v.(F x + s)), the (u, E) operator at
    # output s less its ideal share (the v = 0 term) is 2^-l sum_{v != 0}
    # (-1)^(v.s) w[F^T v]: w is the Walsh-Hadamard transform over x of the
    # real coordinates, F^T v the XOR of the rows v selects (row i: bit l-1-i).
    w = qsim._coordinates(ops) @ qsim.hadamard(2 ** n)     # (c, u, r)
    v = np.arange(2 ** l)
    family = 2 ** (n + l - 1)
    block = max(1, _PA_BLOCK_ENTRIES // (w.shape[0] * w.shape[1] * 2 ** l))
    total = 0.0
    for start in range(0, family, block):
        g = np.arange(start, min(start + block, family))[:, None]
        freq = np.zeros((len(g), 2 ** l), dtype=np.int64)
        for i in range(l):
            freq ^= _row(g, n, i) * ((v >> (l - 1 - i)) & 1)
        spectrum = w[..., freq]                             # (c, u, g, v)
        spectrum[..., 0] = 0.0
        diff = spectrum.reshape(-1, 2 ** l) @ qsim.hadamard(2 ** l)
        total += float(qsim._coordinate_trace_norms(
            diff.reshape(spectrum.shape)).sum())
    dist = 0.5 * total / 2 ** l / family

    weights = {key: op.trace for key, op in cq.branches.items()}
    joint = JointDistribution(("x", "u"), weights)
    h_smooth = smooth_min_entropy_conditional(joint, eps, given=("u",))
    bound = pa_bound(h_smooth, q, l, eps)
    return PrivacyAmpReport(n=n, l=l, q=q, eps=float(eps), h_smooth=h_smooth,
                            exact_distance=dist, bound=bound,
                            holds=dist <= bound + SLACK)
