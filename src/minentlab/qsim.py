"""Exact linear algebra for small quantum registers.

Dense state vectors and density operators over a list of subsystem
dimensions, projective measurements with sub-normalized branch operators,
the prepare-and-measure outcome table of a qubit basis family, partial
trace, trace norms and trace distance, and Haar-random bases.  Everything
is exact at desk scale (up to roughly twelve qubits); there is no sparse or
stabilizer path and no approximation anywhere.  Trace norms come from one
batched kernel over stacks of Hermitian operators: one closed form for 1x1
and 2x2 blocks, read from the operators' real coordinates, LAPACK eigvalsh
above that.  Checkers that sum or transform many operators do so on the
real coordinates, the Walsh-Hadamard transforms as GEMMs with the cached
Sylvester-Hadamard matrix `hadamard`, and turn them back into matrices
only where a solver needs them.

All functions are pure.  Randomness enters only through an explicitly passed
``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-10
NORM_TOL = 1e-12
ORTHO_TOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class DimensionMismatchError(ValueError):
    """Operands act on registers of different shape."""


def _as_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValueError(f"invalid subsystem dimensions {dims!r}")
    return out


def _frozen_array(a, shape=None) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatchError(f"array shape {arr.shape} != expected {shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state on a register of subsystems.

    Attributes
    ----------
    dims:
        Dimension of each subsystem, e.g. ``(2, 2, 2)`` for three qubits.
    amplitudes:
        Complex vector of length ``prod(dims)``, unit norm within 1e-12.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __init__(self, dims: Sequence[int], amplitudes) -> None:
        dims = _as_dims(dims)
        total = int(np.prod(dims))
        amps = _frozen_array(amplitudes, (total,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def to_density(self) -> "DensityOperator":
        a = self.amplitudes
        return DensityOperator(self.dims, np.outer(a, a.conj()))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.dims + other.dims,
                           np.kron(self.amplitudes, other.amplitudes))

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "StateVector":
        amps = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(tuple(data["dims"]), amps)


@dataclass(frozen=True)
class DensityOperator:
    """Possibly sub-normalized density operator on a register.

    Hermitian within 1e-9 (the check of ``hermitian_eigenvalues``), lowest
    eigenvalue >= -1e-10 * max(1, trace), trace in (-1e-10, 1 + 1e-9].
    Sub-normalized operators represent measurement branches and event-
    restricted states, so the trace may be well below one.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, dims: Sequence[int], matrix, validate: bool = True) -> None:
        dims = _as_dims(dims)
        total = int(np.prod(dims))
        mat = _frozen_array(matrix, (total, total))
        if validate:
            lo = float(hermitian_eigenvalues(mat)[0])
            tr = float(mat.trace().real)
            if tr > 1.0 + 1e-9 or tr <= -PSD_TOL:
                raise ValueError(f"trace {tr} outside (0, 1]")
            if lo < -PSD_TOL * max(1.0, tr):
                raise ValueError(f"operator has negative eigenvalue {lo:g}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def normalized(self) -> "DensityOperator":
        tr = self.trace
        if tr <= 0.0:
            raise ValueError("cannot normalize an all-zero operator")
        return DensityOperator(self.dims, self.matrix / tr, validate=False)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "DensityOperator":
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(tuple(data["dims"]), mat)


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of a d-dimensional subsystem.

    ``vectors[:, j]`` is the j-th basis vector; the matrix is unitary within
    1e-10.  ``label`` is an opaque identifier used in transcripts.
    """

    label: str
    vectors: np.ndarray

    def __init__(self, label: str, vectors) -> None:
        vec = _frozen_array(vectors)
        if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
            raise DimensionMismatchError("basis matrix must be square")
        gram = vec.conj().T @ vec
        if float(np.max(np.abs(gram - np.eye(vec.shape[0])))) > ORTHO_TOL:
            raise ValueError(f"basis {label!r} is not orthonormal")
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "vectors", vec)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def vector(self, j: int) -> np.ndarray:
        return self.vectors[:, j]

    def to_json(self) -> dict:
        return {"label": self.label,
                "re": self.vectors.real.tolist(),
                "im": self.vectors.imag.tolist()}

    @classmethod
    def from_json(cls, data: Mapping) -> "Basis":
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(data["label"], mat)


def standard_bases_qubit() -> tuple[Basis, Basis, Basis]:
    """The computational, diagonal and circular qubit bases.

    Computational: |0>, |1>.  Diagonal: (|0> +- |1>)/sqrt2.  Circular:
    (|0> +- i|1>)/sqrt2.  Any two of the three have all mutual overlaps of
    magnitude 1/sqrt2.
    """
    comp = Basis("+", np.eye(2))
    diag = Basis("x", np.array([[_INV_SQRT2, _INV_SQRT2],
                                [_INV_SQRT2, -_INV_SQRT2]]))
    circ = Basis("o", np.array([[_INV_SQRT2, _INV_SQRT2],
                                [1j * _INV_SQRT2, -1j * _INV_SQRT2]]))
    return comp, diag, circ


def epr_pair() -> StateVector:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt2."""
    return StateVector((2, 2), np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2]))


# ---------------------------------------------------------------------------
# Spectra and trace norms.
#
# _trace_norms is the one trace-norm kernel of the package: every checker
# builds a stack of Hermitian operators and hands it over in one call.  The
# public entries below validate Hermiticity first; package code calls the
# kernel directly on operators that are Hermitian by construction, so hot
# loops do not pay for the check.  For D <= 2 it is the one closed form
# of `_coordinate_trace_norms`, which takes the operators as real
# coordinates (the sender distance transforms those in float64, the
# binding check sums them, and neither builds a complex operator per basis
# string); above that, eigvalsh.  `_coordinate_matrices` turns coordinates
# back into matrices.  Tests pin every entry against SVD and against an
# independent Jacobi eigensolver.
# ---------------------------------------------------------------------------

def _require_hermitian(a: np.ndarray) -> None:
    """Raise unless ``a`` is a square matrix or a (..., D, D) stack whose
    matrices each deviate from Hermitian by at most
    HERMITIAN_TOL * max(1, its largest entry)."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError("matrix must be square")
    if a.size == 0:
        return
    dev = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(dev > HERMITIAN_TOL * scale):
        raise ValueError(f"matrix is not Hermitian (deviation {dev.max():g})")


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    (..., D, D) stack (LAPACK eigvalsh).  Raises ValueError on input that is
    not Hermitian."""
    a = np.asarray(matrix, dtype=np.complex128)
    _require_hermitian(a)
    return np.linalg.eigvalsh(a)


def _trace_norms(mats: np.ndarray) -> np.ndarray:
    """tr|M| for each matrix of a Hermitian (..., D, D) stack, unchecked:
    the closed form of `_coordinate_trace_norms` on its real coordinates
    for D <= 2, the sum of the absolute eigenvalues from eigvalsh above."""
    if mats.shape[-1] in (1, 2):
        return _coordinate_trace_norms(_coordinates(mats))
    return np.abs(np.linalg.eigvalsh(mats)).sum(axis=-1)


# Real coordinates of Hermitian D x D operators: a float64 array whose
# FIRST axis holds the coordinates of the operators indexed by the rest.
# They are linear in the operator, so a real transform over the stack axes
# (a Hadamard, a sum) acts on them as on the operators, in float64
# arithmetic, and each coordinate is one contiguous plane:
#   D = 1: (m,), the one entry;
#   D = 2: (a + b, a - b, 2 Re c, 2 Im c) for M = [[a, c], [c*, b]], the
#          trace and the gap vector: M = (tr I + gap . sigma) / 2, whose
#          eigenvalues are (tr +- |gap|) / 2;
#   D > 2: the float64 view of the complex matrix, 2 D^2 numbers.

def _coordinates(mats: np.ndarray) -> np.ndarray:
    """Real coordinates (C, ...) of a Hermitian (..., D, D) stack."""
    d = mats.shape[-1]
    if d == 1:
        return mats[None, ..., 0, 0].real
    if d == 2:
        a, b, c = mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 0, 1]
        out = np.empty((4,) + a.shape)      # `...`: 0-d planes stay arrays
        np.add(a, b, out=out[0, ...])
        np.subtract(a, b, out=out[1, ...])
        np.multiply(c.real, 2.0, out=out[2, ...])
        np.multiply(c.imag, 2.0, out=out[3, ...])
        return out
    flat = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64)
    return np.ascontiguousarray(np.moveaxis(
        flat.reshape(mats.shape[:-2] + (2 * d * d,)), -1, 0))


def _coordinate_matrices(coords: np.ndarray) -> np.ndarray:
    """The Hermitian (..., D, D) stack of a (C, ...) coordinate array, the
    inverse of `_coordinates`."""
    size = coords.shape[0]
    if size == 1:
        return coords[0, ..., None, None].astype(np.complex128)
    if size == 4:
        mats = np.zeros(coords.shape[1:] + (2, 2), dtype=np.complex128)
        re, im = mats.real, mats.imag
        np.add(coords[0], coords[1], out=re[..., 0, 0])
        np.subtract(coords[0], coords[1], out=re[..., 1, 1])
        re[..., 0, 1] = re[..., 1, 0] = coords[2]
        im[..., 0, 1] = coords[3]
        np.negative(coords[3], out=im[..., 1, 0])
        mats *= 0.5
        return mats
    d = math.isqrt(size // 2)
    mats = np.ascontiguousarray(np.moveaxis(coords, 0, -1)).view(np.complex128)
    return mats.reshape(coords.shape[1:] + (d, d))


def _outer_coordinates(amps: np.ndarray) -> np.ndarray:
    """Real coordinates (C, ...) of |a><a| for an (..., D) stack of
    amplitude vectors, C-contiguous in the stack's axis order whatever its
    strides.  For D <= 2 they come from the real and imaginary parts, with
    no complex operator built."""
    d = amps.shape[-1]
    if d > 2:
        return _coordinates(amps[..., :, None] * amps[..., None, :].conj())
    re, im = np.moveaxis(amps.real, -1, 0), np.moveaxis(amps.imag, -1, 0)
    out = np.empty((d * d,) + amps.shape[:-1])
    if d == 1:
        np.multiply(re[0], re[0], out=out[0])
        out[0] += im[0] * im[0]
        return out
    mass0 = re[0] * re[0] + im[0] * im[0]
    mass1 = re[1] * re[1] + im[1] * im[1]
    np.add(mass0, mass1, out=out[0])
    np.subtract(mass0, mass1, out=out[1])
    np.multiply(re[0], re[1], out=out[2])
    out[2] += im[0] * im[1]
    out[2] *= 2.0
    np.multiply(im[0], re[1], out=out[3])
    out[3] -= re[0] * im[1]
    out[3] *= 2.0
    return out


def _coordinate_trace_norms(coords: np.ndarray) -> np.ndarray:
    """tr|M| for each operator of a (C, ...) coordinate array (C = 1, 4 or
    2 D^2 for D = 1, 2 or D > 2), unchecked.  D <= 2 is the one closed form
    max(|tr M|, |gap|): the first when M is semidefinite, the second (its
    eigenvalue gap) when it is indefinite; D = 1 has no gap.  Larger D goes
    to eigvalsh on the complex matrices."""
    size = coords.shape[0]
    if size == 1:
        return np.abs(coords[0])
    if size == 4:
        gap = np.multiply(coords[1], coords[1], out=np.empty(coords.shape[1:]))
        gap += coords[2] * coords[2]
        gap += coords[3] * coords[3]
        np.sqrt(gap, out=gap)
        return np.maximum(np.abs(coords[0]), gap, out=gap)
    return _trace_norms(_coordinate_matrices(coords))


def _operand_matrix(x) -> tuple[tuple[int, ...] | None, np.ndarray]:
    if isinstance(x, DensityOperator):
        return x.dims, x.matrix
    if isinstance(x, StateVector):
        a = x.amplitudes
        return x.dims, np.outer(a, a.conj())
    arr = np.asarray(x, dtype=np.complex128)
    return None, arr


def trace_distance(a, b) -> float:
    """Trace distance (1/2)*tr|a - b| between two (sub-normalized) operators.

    Accepts DensityOperator, StateVector or a raw Hermitian matrix for either
    argument.
    """
    dims_a, mat_a = _operand_matrix(a)
    dims_b, mat_b = _operand_matrix(b)
    if mat_a.shape != mat_b.shape:
        raise DimensionMismatchError(
            f"operator shapes differ: {mat_a.shape} vs {mat_b.shape}")
    if dims_a is not None and dims_b is not None and dims_a != dims_b:
        raise DimensionMismatchError(f"register shapes differ: {dims_a} vs {dims_b}")
    return 0.5 * trace_norm(mat_a - mat_b)


def trace_norm(matrix):
    """tr|M| of a Hermitian matrix (a float), or of each matrix in a
    (..., D, D) stack (an array).  Raises ValueError on input that is not
    Hermitian."""
    a = np.asarray(matrix, dtype=np.complex128)
    _require_hermitian(a)
    norms = _trace_norms(a)
    return float(norms) if a.ndim == 2 else norms


def partial_trace(op: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep`` (order preserved).

    ``keep`` is a list of distinct subsystem indices; an empty list is
    rejected (the result would be a scalar, use ``op.trace``).
    """
    keep = [int(k) for k in keep]
    n = len(op.dims)
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise IndexError(f"invalid subsystem indices {keep} for {n} subsystems")
    if sorted(keep) != keep:
        raise IndexError("keep indices must be strictly increasing")
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    dims = op.dims
    t = op.matrix.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for count, i in enumerate(drop):
        # axes shift left as earlier subsystems are traced out
        shift = sum(1 for j in drop[:count] if j < i)
        ax = i - shift
        rem = n - count
        t = np.trace(t, axis1=ax, axis2=ax + rem)
    new_dims = tuple(dims[k] for k in keep)
    total = int(np.prod(new_dims))
    return DensityOperator(new_dims, t.reshape(total, total), validate=False)


def _contract_axis(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Replace axis content z by sum_z mat[x, z] * tensor[..., z, ...]."""
    t = np.tensordot(mat, tensor, axes=([1], [axis]))
    return np.moveaxis(t, 0, axis)


@functools.cache
def hadamard(size: int) -> np.ndarray:
    """The size x size Sylvester-Hadamard matrix, entry (i, j) =
    (-1)^popcount(i & j), as read-only float64 (the same +-1 matrix as
    scipy.linalg.hadamard).  Cached per size: the sender distance and the
    privacy-amplification check transform with the same few sizes."""
    if size < 1 or size & (size - 1):
        raise ValueError("size must be a positive power of 2")
    i = np.arange(size)
    h = 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)
    h.flags.writeable = False
    return h


def basis_string_walk(tensor: np.ndarray,
                      rotations: Sequence[np.ndarray | None], n: int,
                      density: bool = False
                      ) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Rotate the first n axes of ``tensor`` to every basis string.

    Yields (digits, rotated) for every string of n digits in
    range(len(rotations)), in lexicographic order with the first position
    most significant; ``rotated`` has position i contracted with
    ``rotations[digits[i]]`` on axis i, for i = 0..n-1 in that order.  A
    None rotation leaves its axis untouched.  With ``density`` set, each
    position is contracted a second time, with the conjugate rotation on
    axis i + n (the column side of a density operator).

    The walk is depth-first: the tensor of each prefix is computed once and
    shared by every string that extends it, so each string gets exactly the
    contractions, in the same order, that rotating it from scratch would
    apply.  With k non-None rotations among |B| = len(rotations) the walk
    makes k * (|B|^n - 1) / (|B| - 1) contractions, twice that with
    ``density``: about k / (|B| - 1) per string instead of up to n.  One
    tensor per prefix length is live, n + 1 at most.  The yielded arrays
    may be views of one another: read, do not write.
    """
    last = len(rotations) - 1
    digits = [0] * n
    prefix = [tensor] + [None] * n
    start = 0
    while True:
        for i in range(start, n):
            t, b = prefix[i], digits[i]
            if rotations[b] is not None:
                t = _contract_axis(t, rotations[b], i)
                if density:
                    t = _contract_axis(t, rotations[b].conj(), i + n)
            prefix[i + 1] = t
        yield tuple(digits), prefix[n]
        start = n - 1
        while start >= 0 and digits[start] == last:
            digits[start] = 0
            start -= 1
        if start < 0:
            return
        digits[start] += 1


def measure(state, bases: Mapping[int, Basis], return_branches: bool = False):
    """Projective measurement of selected subsystems in product bases.

    Parameters
    ----------
    state:
        StateVector or DensityOperator.
    bases:
        Mapping {subsystem index: Basis} of the subsystems to measure.
    return_branches:
        When true, also return the sub-normalized branch operators
        P_x rho P_x (on the full register) for each outcome.

    Returns
    -------
    probabilities: dict mapping outcome tuples (ordered by increasing
    subsystem index) to floats summing to tr(rho).
    branches: dict mapping outcome tuples to DensityOperator (only when
    ``return_branches`` is set).  Zero-probability outcomes are kept in the
    probability dict but omitted from the branch dict.
    """
    basis_for = {int(i): b for i, b in bases.items()}
    targets = sorted(basis_for)
    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError("state must be a StateVector or DensityOperator")
    dims = state.dims
    n = len(dims)
    if not targets:
        raise ValueError("no subsystems selected")
    if any(i < 0 or i >= n for i in targets):
        raise IndexError(f"invalid subsystem index in {targets}")
    for i in targets:
        if basis_for[i].dim != dims[i]:
            raise DimensionMismatchError(
                f"basis {basis_for[i].label!r} dim {basis_for[i].dim} != subsystem dim {dims[i]}")

    out_dims = tuple(dims[i] for i in targets)
    sum_axes = tuple(i for i in range(n) if i not in targets)

    if isinstance(state, StateVector):
        psi = state.amplitudes.reshape(dims)
        for i in targets:
            psi = _contract_axis(psi, basis_for[i].vectors.conj().T, i)
        prob_tensor = (np.abs(psi) ** 2)
    else:
        rho = state.matrix.reshape(dims + dims)
        for i in targets:
            u = basis_for[i].vectors
            rho = _contract_axis(rho, u.conj().T, i)      # rows: U^dagger rho
            rho = _contract_axis(rho, u.T, i + n)         # cols: rho U
        diag = np.diagonal(rho.reshape(state.dim, state.dim)).real
        prob_tensor = diag.reshape(dims)
    probs = prob_tensor.sum(axis=sum_axes) if sum_axes else prob_tensor

    prob_map: dict[tuple[int, ...], float] = {}
    for outcome in np.ndindex(*out_dims):
        prob_map[tuple(int(o) for o in outcome)] = float(probs[outcome])

    if not return_branches:
        return prob_map

    branches: dict[tuple[int, ...], DensityOperator] = {}
    _, rho_full = _operand_matrix(state)
    total = int(np.prod(dims))
    rho_t = rho_full.reshape(dims + dims)
    for outcome, p in prob_map.items():
        if p <= 1e-15:
            continue
        t = rho_t
        for k, i in enumerate(targets):
            v = basis_for[i].vectors[:, outcome[k]]
            proj = np.outer(v, v.conj())
            t = _contract_axis(t, proj, i)        # P rho (projector, Hermitian)
            t = _contract_axis(t, proj.T, i + n)  # rho P on the column side
        branches[outcome] = DensityOperator(dims, t.reshape(total, total), validate=False)
    return prob_map, branches


def outcome_table(bases: Sequence[Basis]) -> np.ndarray:
    """(|B|, 2, |B|) array whose entry (s, x, b) is |<b_1|s_x>|^2: P(outcome
    1) when basis state x of qubit basis bases[s] is measured in bases[b],
    as ``measure`` gives it for that one state.  Every honest run draws its
    outcomes from this table."""
    if any(b.dim != 2 for b in bases):
        raise DimensionMismatchError("outcome_table takes qubit bases")
    v = np.stack([b.vectors for b in bases])
    return np.abs(np.einsum("bk,skx->sxb", v[:, :, 1].conj(), v)) ** 2


def haar_random_basis(dim: int, rng: np.random.Generator) -> Basis:
    """Haar-distributed orthonormal basis of dimension ``dim``.

    Complex Gaussian matrix, QR decomposition, each R diagonal entry phase-
    normalized to positive real so the distribution is exactly Haar.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be positive")
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.abs(d)
    q = q * phases  # broadcasts over columns
    tag = rng.integers(0, 2 ** 32)
    return Basis(f"haar-{tag:08x}", q)


@dataclass(frozen=True)
class CqState:
    """Classical-quantum state: classical symbols paired with branch operators.

    ``branches`` maps classical tuples to sub-normalized DensityOperators on
    a shared quantum register; branch traces are the classical probabilities
    and sum to at most one.  The quantum register may be trivial
    (``quantum_dims == (1,)``) for purely classical states.
    """

    quantum_dims: tuple[int, ...]
    branches: dict

    def __init__(self, quantum_dims: Sequence[int], branches: Mapping) -> None:
        qd = _as_dims(quantum_dims)
        bmap = {}
        total = 0.0
        for key, op in branches.items():
            if not isinstance(op, DensityOperator):
                op = DensityOperator(qd, op)
            if op.dims != qd:
                raise DimensionMismatchError(
                    f"branch {key!r} dims {op.dims} != {qd}")
            bmap[key] = op
            total += op.trace
        if total > 1.0 + 1e-9:
            raise ValueError(f"branch traces sum to {total} > 1")
        object.__setattr__(self, "quantum_dims", qd)
        object.__setattr__(self, "branches", bmap)

    @property
    def mass(self) -> float:
        return float(sum(op.trace for op in self.branches.values()))

    def average_operator(self) -> DensityOperator:
        total = int(np.prod(self.quantum_dims))
        acc = np.zeros((total, total), dtype=np.complex128)
        for op in self.branches.values():
            acc += op.matrix
        return DensityOperator(self.quantum_dims, acc, validate=False)


def cq_trace_distance(a: CqState, b: CqState) -> float:
    """Trace distance between two cq-states with a shared classical alphabet.

    Decomposes branch-by-branch: distinct classical symbols are perfectly
    distinguishable, so the distance is the sum of branch trace distances.
    """
    if a.quantum_dims != b.quantum_dims:
        raise DimensionMismatchError("quantum registers differ")
    total = int(np.prod(a.quantum_dims))
    keys = list(a.branches) + [k for k in b.branches if k not in a.branches]
    diffs = np.zeros((len(keys), total, total), dtype=np.complex128)
    for i, key in enumerate(keys):
        if key in a.branches:
            diffs[i] += a.branches[key].matrix
        if key in b.branches:
            diffs[i] -= b.branches[key].matrix
    return 0.5 * float(_trace_norms(diffs).sum())
