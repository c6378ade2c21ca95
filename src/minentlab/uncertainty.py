"""Average-entropy uncertainty bounds for families of measurement bases.

For a set B of orthonormal bases of a d-dimensional system, the figure of
merit is h = min over pure states of the average Shannon entropy of the
outcome distribution, the average running over a uniformly random basis
choice.  Closed forms are provided for two mutually unbiased qubit bases
(1/2), the three mutually unbiased qubit bases (2/3) and for the full
Haar-averaged family (sum_{i=2..d} 1/i / ln 2).  For any other finite
family a multi-start projected gradient descent estimates h: the value it
returns is the objective at its best iterate, an upper estimate of the
minimum, not a certified lower bound.

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


@dataclass(frozen=True)
class NumericBoundResult:
    value: float
    minimizer: qsim.StateVector
    iterations: int
    converged: bool
    starts: int


def _average_entropy(psi: np.ndarray, rotations: Sequence[np.ndarray]) -> float:
    total = 0.0
    for u in rotations:
        total += _entropy_bits(np.abs(u @ psi) ** 2)
    return total / len(rotations)


def numeric_average_bound(bases: Sequence[qsim.Basis], tol: float = 1e-10,
                          starts: int = 64, max_iter: int = 1500,
                          seed: int = 7) -> NumericBoundResult:
    """Minimize the average outcome entropy over pure states.

    Multi-start projected gradient descent on the unit sphere of C^d with a
    finite-difference gradient and backtracking line search.  Every basis
    vector of the family is used as a deterministic start (minimizers of
    mutually unbiased families sit there) along with ``starts`` random
    starts.  The returned value is an exact objective evaluation at the best
    iterate, hence always an upper bound on the true minimum; convergence
    failures are reported in the result, never silently swallowed.
    """
    if not bases:
        raise ValueError("need at least one basis")
    d = bases[0].dim
    if any(b.dim != d for b in bases):
        raise qsim.DimensionMismatchError("bases have mixed dimensions")
    rotations = [b.vectors.conj().T for b in bases]
    rng = np.random.default_rng(seed)

    def objective(x: np.ndarray) -> float:
        psi = x[:d] + 1j * x[d:]
        return _average_entropy(psi, rotations)

    seeds = [b.vectors[:, j] for b in bases for j in range(d)]
    start_points = [np.concatenate([p.real, p.imag]) for p in seeds]
    start_points += [rng.normal(size=2 * d) for _ in range(int(starts))]

    best_val = math.inf
    best_x = None
    total_iters = 0
    all_converged = True
    fd = 1e-6
    for x in start_points:
        x = x / np.linalg.norm(x)
        val = objective(x)
        step = 0.5
        converged = False
        it = 0
        for it in range(max_iter):
            grad = np.empty(2 * d)
            for j in range(2 * d):
                e = np.zeros(2 * d)
                e[j] = fd
                xp = x + e
                xm = x - e
                grad[j] = (objective(xp / np.linalg.norm(xp))
                           - objective(xm / np.linalg.norm(xm))) / (2 * fd)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-12:
                converged = True
                break
            improved = False
            while step > 1e-14:
                cand = x - step * grad
                cand /= np.linalg.norm(cand)
                cval = objective(cand)
                if cval < val - 1e-16:
                    x, val = cand, cval
                    improved = True
                    step *= 1.3
                    break
                step *= 0.5
            if not improved:
                converged = True
                break
        total_iters += it + 1
        all_converged = all_converged and converged
        if val < best_val:
            best_val = val
            best_x = x.copy()

    psi = best_x[:d] + 1j * best_x[d:]
    psi /= np.linalg.norm(psi)
    return NumericBoundResult(value=float(best_val),
                              minimizer=qsim.StateVector((d,), psi),
                              iterations=total_iters,
                              converged=all_converged,
                              starts=len(start_points))


@dataclass(frozen=True)
class BasisSet:
    """A family of bases with an average-entropy figure h.

    ``h_provenance`` records where h came from: "closed-form" (the exact
    minimum), "numeric" (gradient descent; an upper estimate of the minimum,
    so not certified) or "supplied".
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

    def spot_check(self, samples: int, rng: np.random.Generator) -> float:
        """Smallest average entropy over random pure states; must stay above
        h - 1e-7 for a sound bound."""
        rotations = [b.vectors.conj().T for b in self.bases]
        d = self.dim
        worst = math.inf
        for _ in range(samples):
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            z /= np.linalg.norm(z)
            worst = min(worst, _average_entropy(z, rotations))
        return worst


def bb84_basis_set() -> BasisSet:
    comp, diag, _ = qsim.standard_bases_qubit()
    return BasisSet((comp, diag), 0.5, "closed-form")


def six_state_basis_set() -> BasisSet:
    comp, diag, circ = qsim.standard_bases_qubit()
    return BasisSet((comp, diag, circ), six_state_bound(), "closed-form")


def numeric_basis_set(bases: Sequence[qsim.Basis], **kwargs) -> BasisSet:
    result = numeric_average_bound(bases, **kwargs)
    if not result.converged:
        raise RuntimeError("numeric bound search did not converge")
    return BasisSet(tuple(bases), result.value, "numeric")


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
    atoms, exceeds MAX_RELATION_ATOMS."""
    if (len(basis_set.bases) * basis_set.dim) ** n > MAX_RELATION_ATOMS:
        raise ValueError("joint too large for exact enumeration "
                         f"(|B|^n * d^n > {MAX_RELATION_ATOMS})")


def verify_uncertainty_relation(state, basis_set: BasisSet,
                                lam: float) -> RelationReport:
    """Check H_inf^eps(X | Theta) >= (h - 2 lambda) n on a concrete state.

    ``state`` is a StateVector or DensityOperator on n systems of the family
    dimension.  The joint of (outcome string, basis string) is computed
    exactly: |B|^n * d^n atoms, so keep n small (n <= 8 for qubit families).
    Also reports the exact conditional Shannon entropy H(X|Theta).
    """
    if not isinstance(state, (qsim.StateVector, qsim.DensityOperator)):
        raise TypeError("state must be a StateVector or DensityOperator")
    d = basis_set.dim
    dims = state.dims
    if any(dd != d for dd in dims):
        raise qsim.DimensionMismatchError(
            f"state dims {dims} incompatible with basis dimension {d}")
    n = len(dims)
    nb = len(basis_set.bases)
    check_relation_size(basis_set, n)
    rotations = [b.vectors.conj().T for b in basis_set.bases]

    pure = isinstance(state, qsim.StateVector)
    if pure:
        base_tensor = state.amplitudes.reshape(dims)
    else:
        base_tensor = state.matrix.reshape(dims + dims)

    theta_weight = nb ** (-n)
    weights = np.empty((nb ** n, d ** n))
    shannon_sum = 0.0
    for t_idx in range(nb ** n):
        digits = [(t_idx // nb ** (n - 1 - i)) % nb for i in range(n)]
        if pure:
            t = base_tensor
            for ax, b_i in enumerate(digits):
                t = qsim._contract_axis(t, rotations[b_i], ax)
            probs = (np.abs(t) ** 2).reshape(-1)
        else:
            t = base_tensor
            for ax, b_i in enumerate(digits):
                t = qsim._contract_axis(t, rotations[b_i], ax)
                t = qsim._contract_axis(t, rotations[b_i].conj(), ax + n)
            probs = np.diagonal(t.reshape(d ** n, d ** n)).real
        shannon_sum += _entropy_bits(np.clip(probs, 0.0, None))
        weights[t_idx] = probs * theta_weight
    mass = float(weights.sum())
    trace = 1.0 if pure else state.trace
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
