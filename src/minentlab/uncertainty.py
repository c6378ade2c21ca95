"""Average-entropy uncertainty bounds for families of measurement bases.

For a set B of orthonormal bases of a d-dimensional system, the figure of
merit is h = min over pure states of the average Shannon entropy of the
outcome distribution, the average running over a uniformly random basis
choice.  Closed forms are provided for two mutually unbiased qubit bases
(1/2), the three mutually unbiased qubit bases (2/3) and for the full
Haar-averaged family (sum_{i=2..d} 1/i / ln 2).  For any other finite
qubit family a branch and bound over the Bloch sphere brackets h to within
1e-12, and the certified lower end of that bracket is the "numeric" h.

The n-fold consequence: measuring n independent systems in uniformly random
per-system bases yields a string whose smooth min-entropy given the basis
string is at least (h - 2*lambda)*n except with probability
exp(-lambda^2 n / (32 log2(|B| d / lambda)^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import qsim
from .concentration import dependent_sequence_epsilon
from .distrib import _entropy_bits, smooth_min_entropy_conditional_arrays

SLACK = 1e-9
# Largest exact joint (|B|^n * d^n atoms) verify_uncertainty_relation builds.
MAX_RELATION_ATOMS = 5_000_000
# Largest d of overall_bound's exact harmonic sum, whose cost outgrows d.
MAX_OVERALL_DIM = 2 ** 14


def maassen_uffink_bound(b1: qsim.Basis, b2: qsim.Basis) -> float:
    """Entropic overlap bound -log2 c with c = max_ij |<b1_i|b2_j>|.

    For every state, H(outcomes in b1) + H(outcomes in b2) >= -2 log2 c, so
    the uniform two-basis average entropy is at least the returned value.
    Equals 1/2 for any pair of the standard qubit bases.
    """
    if b1.dim != b2.dim:
        raise qsim.DimensionMismatchError("bases have different dimension")
    overlaps = np.abs(b1.vectors.conj().T @ b2.vectors)
    return float(-math.log2(float(overlaps.max())))


def six_state_bound() -> float:
    """Average-entropy bound 2/3 for the three mutually unbiased qubit bases."""
    return 2.0 / 3.0


def overall_bound(d: int) -> float:
    """Haar-average bound: (sum_{i=2}^{d} 1/i) / ln 2 bits.

    This is the exact mean outcome entropy of a fixed pure state measured in
    a Haar-random basis of dimension d, and a bound for the average over any
    exact projective design.
    """
    d = int(d)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d > MAX_OVERALL_DIM:
        raise ValueError(f"exact harmonic sum handles d <= {MAX_OVERALL_DIM}")
    harmonic = sum(Fraction(1, i) for i in range(2, d + 1))
    return float(harmonic) / math.log(2.0)


# numeric_average_bound's bracket width, per-square rounding allowance and
# the most squares it keeps: a bracket that will not close stops there.
NUMERIC_GAP = 1e-12
NUMERIC_SLACK = 1e-13
MAX_FRONTIER = 1 << 16
_CORNERS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class NumericBoundResult:
    """Certified bracket lower <= h <= value; ``value`` is the objective at
    ``minimizer`` and ``squares`` counts the squares bounded."""

    value: float
    lower: float
    minimizer: qsim.StateVector
    squares: int
    converged: bool


def _average_entropy(psi: np.ndarray, rotations: Sequence[np.ndarray]) -> float:
    total = 0.0
    for u in rotations:
        total += _entropy_bits(np.abs(u @ psi) ** 2)
    return total / len(rotations)


def _bloch_entropy(t: np.ndarray) -> np.ndarray:
    """g(t) = h2((1 + t) / 2), concave on [-1, 1]."""
    p = np.clip(np.stack([1.0 + t, 1.0 - t]) / 2.0, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log2(p), 0.0).sum(axis=0)


def _angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between vectors along the last axis; atan2 stays accurate near
    0 and pi, where arccos does not."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1),
                      np.sum(a * b, axis=-1))


def _bloch_state(r: np.ndarray) -> np.ndarray:
    """Qubit amplitudes whose Bloch vector is the unit vector r."""
    x, y, z = r
    psi = np.array([1.0 + z, x + 1j * y] if z >= 0.0 else [x - 1j * y, 1.0 - z])
    return psi / np.linalg.norm(psi)


def numeric_average_bound(bases: Sequence[qsim.Basis]) -> NumericBoundResult:
    """Certified minimum of the average outcome entropy of a qubit family.

    On the Bloch sphere the objective is f(r) = mean_b g(r . n_b), n_b the
    Bloch axis of basis b.  Branch and bound over the six cube faces,
    quartering each surviving square every round.  A square lies in the cap
    about its normalised centre c whose radius rho is the largest angle from
    c to a corner (exact: that cap's cone is convex for rho < pi/2).  On the
    cap r . n_b lies in [cos(min(pi, phi_b + rho)), cos(max(0, phi_b - rho))],
    phi_b the angle from c to n_b, so f is at least the mean of the smaller
    end values of g and, g lying above its chords, at least a + w . r, whose
    minimum on the cap is a + |w| cos(min(pi, angle(w, c) + rho)).  The
    larger, less NUMERIC_SLACK, bounds the square; f at the best centre is
    the upper end.  A square is pruned once its bound is within NUMERIC_GAP
    of the upper end, and ``lower`` is the least bound pruned.  n_b is read
    from each basis's first vector, so the bound holds for bases that are
    orthonormal to rounding.  Any basis of dimension other than 2 raises
    ValueError.
    """
    if not bases:
        raise ValueError("need at least one basis")
    if any(b.dim != 2 for b in bases):
        raise ValueError("certified bound handles qubit families only")
    rotations = [b.vectors.conj().T for b in bases]
    v0, v1 = np.array([b.vectors[:, 0] for b in bases]).T
    axes = np.stack([2.0 * (v0 * v1.conj()).real, -2.0 * (v0 * v1.conj()).imag,
                     np.abs(v0) ** 2 - np.abs(v1) ** 2], axis=1)

    # square centres on the cube's surface, and each square's two edge axes
    points = np.vstack([np.eye(3), -np.eye(3)])
    frames = np.stack([np.roll(points, 1, axis=1),
                       np.roll(points, 2, axis=1)], axis=1)
    half, squares = 1.0, 0
    value, lower, psi_best = math.inf, math.inf, None
    while points.size:
        squares += len(points)
        c = points / np.linalg.norm(points, axis=1, keepdims=True)
        offsets = _CORNERS @ frames
        rho = _angle(c[:, None], points[:, None] + half * offsets).max(axis=1)

        best = c[np.argmin(_bloch_entropy(c @ axes.T).mean(axis=1))]
        psi = _bloch_state(best)
        f_psi = _average_entropy(psi, rotations)
        if f_psi < value:
            value, psi_best = f_psi, psi

        phi = _angle(c[:, None], axes)
        lo = np.cos(np.minimum(np.pi, phi + rho[:, None]))
        hi = np.cos(np.maximum(0.0, phi - rho[:, None]))
        g_lo, g_hi = _bloch_entropy(lo), _bloch_entropy(hi)
        slope = np.divide(g_hi - g_lo, hi - lo, out=np.zeros_like(lo),
                          where=hi > lo)
        w = slope @ axes / len(bases)
        reach = np.minimum(np.pi, _angle(w, c) + rho)
        chord = ((g_lo - slope * lo).mean(axis=1)
                 + np.linalg.norm(w, axis=1) * np.cos(reach))
        bound = np.maximum(chord, np.minimum(g_lo, g_hi).mean(axis=1))
        bound -= NUMERIC_SLACK

        keep = value - bound > NUMERIC_GAP
        if 4 * keep.sum() > MAX_FRONTIER:
            keep[:] = False       # give up; the bracket stays open
        lower = min(lower, bound[~keep].min(initial=math.inf))
        half /= 2.0
        points = (points[:, None] + half * offsets)[keep].reshape(-1, 3)
        frames = np.repeat(frames[keep], 4, axis=0)

    lower = max(float(lower), 0.0)
    return NumericBoundResult(value=float(value), lower=lower,
                              minimizer=qsim.StateVector((2,), psi_best),
                              squares=squares,
                              converged=value - lower <= NUMERIC_GAP)


@dataclass(frozen=True)
class BasisSet:
    """A family of bases with an average-entropy figure h.

    ``h_provenance`` records where h came from: "closed-form" (the exact
    minimum), "numeric" (the certified lower end of numeric_average_bound's
    bracket) or "supplied".
    """

    bases: tuple[qsim.Basis, ...]
    h: float
    h_provenance: str

    def __init__(self, bases: Sequence[qsim.Basis], h: float, h_provenance: str):
        bases = tuple(bases)
        if not bases:
            raise ValueError("empty basis family")
        d = bases[0].dim
        if any(b.dim != d for b in bases):
            raise qsim.DimensionMismatchError("bases have mixed dimensions")
        if not (0.0 <= h <= math.log2(d) + SLACK):
            raise ValueError(f"bound h = {h} outside [0, log2 d]")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "h_provenance", str(h_provenance))

    @property
    def dim(self) -> int:
        return self.bases[0].dim


def bb84_basis_set() -> BasisSet:
    comp, diag, _ = qsim.standard_bases_qubit()
    return BasisSet((comp, diag), 0.5, "closed-form")


def six_state_basis_set() -> BasisSet:
    comp, diag, circ = qsim.standard_bases_qubit()
    return BasisSet((comp, diag, circ), six_state_bound(), "closed-form")


def numeric_basis_set(bases: Sequence[qsim.Basis]) -> BasisSet:
    result = numeric_average_bound(bases)
    if not result.converged:
        raise ValueError(f"numeric bound bracket [{result.lower}, "
                         f"{result.value}] did not close to {NUMERIC_GAP}")
    return BasisSet(tuple(bases), result.lower, "numeric")


@dataclass(frozen=True)
class UncertaintyBound:
    """String min-entropy bound for n systems at deviation lambda."""

    n: int
    lam: float
    h: float
    bound: float
    eps: float

    def to_json(self) -> dict:
        return {"n": self.n, "lambda": self.lam, "h": self.h,
                "bound": self.bound, "eps": self.eps}


def measurement_uncertainty_bound(basis_set: BasisSet, n: int,
                                  lam: float) -> UncertaintyBound:
    """Bound (h - 2 lambda) n with failure probability
    exp(-lambda^2 n / (32 log2(|B| d / lambda)^2))."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    eps = dependent_sequence_epsilon(lam, n, len(basis_set.bases) * basis_set.dim)
    return UncertaintyBound(n=n, lam=float(lam), h=basis_set.h,
                            bound=(basis_set.h - 2.0 * float(lam)) * n, eps=eps)


@dataclass(frozen=True)
class RelationReport:
    """Exact evaluation of the n-fold uncertainty relation on one state."""

    n: int
    lam: float
    eps: float
    bound: float
    smooth_min_entropy: float
    shannon_conditional: float
    holds: bool

    def to_json(self) -> dict:
        return {"n": self.n, "lambda": self.lam, "eps": self.eps,
                "bound": self.bound,
                "smoothMinEntropy": self.smooth_min_entropy,
                "shannonConditional": self.shannon_conditional,
                "holds": self.holds}


def check_relation_size(basis_set: BasisSet, n: int) -> None:
    """Raise ValueError when the exact joint of n systems, |B|^n * d^n
    atoms, exceeds MAX_RELATION_ATOMS, or when n < 1.  Both factors are
    at least 1, so capping n at the gate's bit length keeps the verdict."""
    if n < 1:
        raise ValueError("n must be positive")
    n = min(n, MAX_RELATION_ATOMS.bit_length())
    if (len(basis_set.bases) * basis_set.dim) ** n > MAX_RELATION_ATOMS:
        raise ValueError("joint too large for exact enumeration "
                         f"(|B|^n * d^n > {MAX_RELATION_ATOMS})")


def verify_uncertainty_relation(state, basis_set: BasisSet,
                                lam: float) -> RelationReport:
    """Check H_inf^eps(X | Theta) >= (h - 2 lambda) n on a concrete state.

    ``state`` is a StateVector or DensityOperator on n systems of the family
    dimension.  The joint of (outcome string, basis string) is computed
    exactly: |B|^n * d^n atoms, so keep n small (n <= 8 for qubit families).
    `qsim.basis_string_blocks` rotates the state's `qsim.spectral_tensor`
    to every basis string, a block of up to `qsim.WALK_BLOCK` entries at a
    time, with the same contractions and bits as rotating each string on
    its own.  A density operator rotates its eigenvectors together, and
    each string's outcome law is their eigenvalue-weighted sum: one matmul
    per block, one clip per block, then one entropy per string, in string
    order.  Also reports the exact conditional Shannon entropy H(X|Theta).
    """
    d = basis_set.dim
    # gates first, so an oversized density fails before its eigh; anything
    # without dims is no state and fails in spectral_tensor
    dims = getattr(state, "dims", ())
    if any(dd != d for dd in dims):
        raise qsim.DimensionMismatchError(
            f"state dims {dims} incompatible with basis dimension {d}")
    n = len(dims)
    nb = len(basis_set.bases)
    if dims:
        check_relation_size(basis_set, n)
    vectors, state_weights = qsim.spectral_tensor(state)
    rotations = [b.vectors.conj().T for b in basis_set.bases]

    theta_weight = nb ** (-n)
    weights = np.empty((nb ** n, d ** n))
    shannon_sum = 0.0
    row = 0
    for _, blk in qsim.basis_string_blocks(vectors, rotations, n):
        probs = ((np.abs(blk) ** 2).reshape(len(blk), d ** n, -1)
                 @ state_weights)
        for p in np.clip(probs, 0.0, None):
            shannon_sum += _entropy_bits(p)
        weights[row:row + len(blk)] = probs * theta_weight
        row += len(blk)
    del blk, probs      # free the last block before the smoothing
    mass = float(weights.sum())
    trace = float(state_weights.sum())
    if abs(mass - trace) > 1e-8:
        raise RuntimeError(f"probability mass {mass} != state trace {trace}")

    ub = measurement_uncertainty_bound(basis_set, n, lam)
    flat = weights.reshape(-1)
    group = np.repeat(weights.sum(axis=1), d ** n)
    h_smooth = smooth_min_entropy_conditional_arrays(flat, group, ub.eps)
    shannon_cond = shannon_sum / nb ** n
    return RelationReport(n=n, lam=float(lam), eps=ub.eps, bound=ub.bound,
                          smooth_min_entropy=h_smooth,
                          shannon_conditional=shannon_cond,
                          holds=h_smooth >= ub.bound - SLACK)
