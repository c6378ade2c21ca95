"""Sub-normalized classical distributions and smooth entropies.

The smoothing solvers are exact: removing probability mass to minimize the
largest (conditional) atom is a piecewise-linear water-filling problem whose
breakpoints are the atom weights, so the optimum is found by sorting, not by
iterative optimization.  Tests check the solvers against an independent
linear-programming oracle.

Conventions: all entropies are in bits; distributions may have total mass
below one (events); conditional quantities follow the worst-case convention
H(X|Y) = min over y of H(X | Y=y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

WEIGHT_FLOOR = 1e-15
SLACK = 1e-9
# Size gate of the random joints the command line draws, atom by atom, for
# the chain-rule and splitting verifiers (at the gate about 6 s and 0.45 GB
# on a 2-core x86-64).
MAX_JOINT_ATOMS = 1_000_000


class InfeasibleMassError(ValueError):
    """Total mass is too small for the requested smoothing parameter."""


class PreconditionError(ValueError):
    """A declared entropy precondition does not hold for the input."""


class SubDistribution:
    """Finite sub-normalized distribution over hashable values.

    Weights are non-negative and sum to at most 1 + 1e-12.  Atoms with
    weight <= 1e-15 are dropped at construction so the support is always
    strictly positive.
    """

    __slots__ = ("_values", "_weights", "_index")

    def __init__(self, weights: Mapping[Any, float] | Iterable[tuple[Any, float]]):
        items = weights.items() if isinstance(weights, Mapping) else list(weights)
        values = []
        wlist = []
        for v, w in items:
            w = float(w)
            if w < -1e-12:
                raise ValueError(f"negative weight {w} at {v!r}")
            if w <= WEIGHT_FLOOR:
                continue
            values.append(v)
            wlist.append(w)
        arr = np.asarray(wlist, dtype=float)
        if arr.size and float(arr.sum()) > 1.0 + 1e-9:
            raise ValueError(f"total mass {arr.sum()} exceeds 1")
        self._values = values
        self._weights = arr
        self._index = {v: i for i, v in enumerate(values)}
        if len(self._index) != len(values):
            raise ValueError("duplicate atoms in input")

    @property
    def mass(self) -> float:
        return float(self._weights.sum()) if self._weights.size else 0.0

    @property
    def support(self) -> list:
        return list(self._values)

    def weight(self, value) -> float:
        i = self._index.get(value)
        return float(self._weights[i]) if i is not None else 0.0

    def weights_array(self) -> np.ndarray:
        return self._weights.copy()

    def items(self):
        return list(zip(self._values, self._weights.tolist()))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"SubDistribution({len(self)} atoms, mass={self.mass:.6g})"

    def restrict(self, predicate) -> "SubDistribution":
        return SubDistribution([(v, w) for v, w in self.items() if predicate(v)])

    def scaled(self, factor: float) -> "SubDistribution":
        return SubDistribution([(v, w * factor) for v, w in self.items()])

    def to_json(self) -> list:
        return [[list(v) if isinstance(v, tuple) else v, w] for v, w in self.items()]

    @classmethod
    def from_json(cls, data) -> "SubDistribution":
        return cls([(tuple(v) if isinstance(v, list) else v, w) for v, w in data])


class JointDistribution(SubDistribution):
    """SubDistribution over tuples with named coordinates."""

    __slots__ = ("names",)

    def __init__(self, names: Sequence[str], weights):
        super().__init__(weights)
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for v in self._values:
            if not isinstance(v, tuple) or len(v) != len(names):
                raise ValueError(f"atom {v!r} does not match coordinates {names}")
        self.names = names

    def _positions(self, names: Sequence[str]) -> list[int]:
        pos = []
        for n in names:
            if n not in self.names:
                raise KeyError(f"unknown coordinate {n!r}")
            pos.append(self.names.index(n))
        return pos

    def project(self, names: Sequence[str]) -> "JointDistribution":
        """Marginal over the named coordinates (order as given)."""
        pos = self._positions(names)
        acc: dict[tuple, float] = {}
        for v, w in self.items():
            key = tuple(v[p] for p in pos)
            acc[key] = acc.get(key, 0.0) + w
        return JointDistribution(names, acc)

    def split_keys(self, given: Sequence[str]):
        """Atom keys split into (rest, given) parts, plus weights."""
        gpos = self._positions(given)
        rpos = [i for i in range(len(self.names)) if i not in gpos]
        rest = [tuple(v[p] for p in rpos) for v in self._values]
        cond = [tuple(v[p] for p in gpos) for v in self._values]
        return rest, cond, self._weights.copy()


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def shannon_entropy(p: SubDistribution | np.ndarray) -> float:
    """Shannon entropy in bits of a normalized distribution.

    Requires mass within 1e-9 of one; zero atoms contribute zero.
    """
    w = p.weights_array() if isinstance(p, SubDistribution) else np.asarray(p, dtype=float)
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"shannon_entropy needs a normalized input, mass={w.sum()}")
    return _entropy_bits(w)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    p = float(p)
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def min_entropy(p: SubDistribution | np.ndarray) -> float:
    """-log2 of the largest atom weight."""
    w = p.weights_array() if isinstance(p, SubDistribution) else np.asarray(p, dtype=float)
    if not w.size or float(w.max()) <= 0.0:
        raise ValueError("empty distribution has no min-entropy")
    return float(-math.log2(float(w.max())))


def max_entropy(p: SubDistribution | np.ndarray) -> float:
    """log2 of the support size (atoms above the 1e-15 floor)."""
    if isinstance(p, SubDistribution):
        k = len(p)
    else:
        w = np.asarray(p, dtype=float)
        k = int((w > WEIGHT_FLOOR).sum())
    if k == 0:
        raise ValueError("empty support")
    return float(math.log2(k))


def _smoothing_cap(weights: np.ndarray, group_mass: np.ndarray, eps: float) -> float:
    """Smallest cap t on conditional atoms with removed mass <= eps.

    Atom i carries joint weight w_i inside a group of mass g_i; capping the
    conditional value u_i = w_i/g_i at t removes sum_i g_i*max(u_i - t, 0).
    The removal curve is piecewise linear in t with breakpoints at the u_i,
    so the smallest feasible t is found by a sort and one linear solve.
    """
    w = np.asarray(weights, dtype=float)
    g = np.asarray(group_mass, dtype=float)
    keep = w > 0
    w, g = w[keep], g[keep]
    if not w.size:
        raise ValueError("empty distribution")
    u = w / g
    order = np.argsort(-u)
    u, w, g = u[order], w[order], g[order]
    if eps <= 0.0:
        return float(u[0])
    cum_w = np.cumsum(w)
    cum_g = np.cumsum(g)
    mass = float(cum_w[-1])
    if eps >= mass:
        raise InfeasibleMassError(f"eps={eps} >= total mass {mass}")
    # removal when capping exactly at breakpoint u_k (atoms 0..k-1 clipped)
    removed_at = np.concatenate(([0.0], cum_w[:-1] - u[1:] * cum_g[:-1]))
    k = int(np.searchsorted(removed_at, eps, side="right"))  # crossing segment
    # cap lies between breakpoints k-1 and k; atoms 0..k-1 are clipped
    t = (cum_w[k - 1] - eps) / cum_g[k - 1] if k >= 1 else float(u[0])
    lo = float(u[k]) if k < u.size else 0.0
    return float(min(max(t, lo), u[0]))


def smooth_min_entropy(p: SubDistribution | np.ndarray, eps: float) -> float:
    """Smooth min-entropy: max of -log2(max atom) over events keeping
    mass >= mass(p) - eps.

    The optimal event caps every atom at a common threshold (water-filling);
    the exact cap comes from the piecewise-linear removal curve.
    """
    w = p.weights_array() if isinstance(p, SubDistribution) else np.asarray(p, dtype=float)
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    mass = float(w.sum())
    if mass < 1.0 - eps - 1e-12:
        raise InfeasibleMassError(f"mass {mass} below 1 - eps")
    t = _smoothing_cap(w, np.ones_like(w), eps)
    return float(-math.log2(t))


def smooth_min_entropy_conditional(pxy: JointDistribution, eps: float,
                                   given: Sequence[str] | None = None) -> float:
    """Worst-case conditional smooth min-entropy with a shared event.

    ``given`` names the conditioning coordinates (default: the last one).
    Equals max over events E with Pr[E] >= mass - eps of
    min over y of -log2 max_x P[X=x and E | Y=y].
    """
    if not isinstance(pxy, JointDistribution):
        raise TypeError("smooth_min_entropy_conditional needs a JointDistribution")
    if given is None:
        given = (pxy.names[-1],)
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    mass = pxy.mass
    if mass < 1.0 - eps - 1e-12:
        raise InfeasibleMassError(f"mass {mass} below 1 - eps")
    _, cond_keys, w = pxy.split_keys(given)
    groups: dict[tuple, float] = {}
    for key, wt in zip(cond_keys, w):
        groups[key] = groups.get(key, 0.0) + float(wt)
    g = np.array([groups[k] for k in cond_keys])
    t = _smoothing_cap(w, g, eps)
    return float(-math.log2(t))


def smooth_min_entropy_conditional_arrays(weights: np.ndarray,
                                          group_mass: np.ndarray,
                                          eps: float) -> float:
    """Array fast path used by the verifiers; see the JointDistribution
    version for semantics.  ``group_mass[i]`` is the total conditioning-value
    mass of atom i's group."""
    t = _smoothing_cap(weights, group_mass, eps)
    return float(-math.log2(t))


@dataclass(frozen=True)
class EntropyReport:
    """All entropies of one distribution at one smoothing level."""

    shannon: float
    min_entropy: float
    smooth_min_entropy: float
    max_entropy: float
    eps: float

    def to_json(self) -> dict:
        return {"shannon": self.shannon, "minEntropy": self.min_entropy,
                "smoothMinEntropy": self.smooth_min_entropy,
                "maxEntropy": self.max_entropy, "eps": self.eps}


def entropy_report(p: SubDistribution, eps: float) -> EntropyReport:
    return EntropyReport(
        shannon=shannon_entropy(p),
        min_entropy=min_entropy(p),
        smooth_min_entropy=smooth_min_entropy(p, eps),
        max_entropy=max_entropy(p),
        eps=float(eps),
    )


@dataclass(frozen=True)
class ChainRuleReport:
    """One instance of the smooth-entropy chain rule.

    lhs = H_inf^{eps+eps'}(X|Y) must strictly exceed
    rhs = H_inf^{eps}(XY) - H_0(Y) - log2(1/eps'); ``holds`` certifies this
    within a 1e-9 slack and ``near_equality`` flags saturation.
    """

    lhs: float
    rhs: float
    eps: float
    eps_prime: float
    holds: bool
    near_equality: bool

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "eps": self.eps,
                "epsPrime": self.eps_prime, "holds": self.holds,
                "nearEquality": self.near_equality}


def verify_chain_rule(pxy: JointDistribution, eps: float, eps_prime: float,
                      given: Sequence[str] | None = None) -> ChainRuleReport:
    """Check the chain rule on a concrete joint distribution.

    ``given`` names the Y coordinates (default: last).  eps_prime must be
    positive; the rule is vacuous otherwise.
    """
    if eps_prime <= 0.0:
        raise ValueError("eps_prime must be positive")
    if given is None:
        given = (pxy.names[-1],)
    lhs = smooth_min_entropy_conditional(pxy, eps + eps_prime, given=given)
    h_joint = smooth_min_entropy(pxy, eps)
    h0_y = max_entropy(pxy.project(given))
    rhs = h_joint - h0_y - math.log2(1.0 / eps_prime)
    holds = lhs > rhs - SLACK
    near = abs(lhs - rhs) <= SLACK
    return ChainRuleReport(lhs=lhs, rhs=rhs, eps=float(eps),
                           eps_prime=float(eps_prime), holds=holds,
                           near_equality=near)


@dataclass(frozen=True)
class SplitReport:
    """Certificate for the constructive min-entropy splitting step.

    ``max_weight`` is the largest atom of P_{X_{1-C}, C}; the construction
    guarantees max_weight <= 2^(-alpha/2) whenever H_inf(X0 X1) >= alpha.
    """

    alpha: float
    threshold: float
    max_weight: float
    split_min_entropy: float
    holds: bool

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "threshold": self.threshold,
                "maxWeight": self.max_weight,
                "splitMinEntropy": self.split_min_entropy, "holds": self.holds}


def min_entropy_split(p: JointDistribution, alpha: float):
    """Deterministic side-selection bit C with H_inf(X_{1-C}, C) >= alpha/2.

    ``p`` is a joint distribution over (x0, x1) with H_inf >= alpha (checked;
    PreconditionError otherwise).  C depends on x1 only: C = 1 exactly when
    the x1-marginal weight is >= 2^(-alpha/2).

    Returns (assignment, report) where assignment maps each x1 value to the
    chosen bit.
    """
    if len(p.names) != 2:
        raise ValueError("min_entropy_split needs a two-coordinate joint")
    alpha = float(alpha)
    h = min_entropy(p)
    if h < alpha - SLACK:
        raise PreconditionError(f"H_inf = {h} below alpha = {alpha}")
    threshold = 2.0 ** (-alpha / 2.0)
    marg1 = p.project(p.names[-1:])
    assignment = {v[0]: (1 if w >= threshold else 0) for v, w in marg1.items()}
    # joint of (X_{1-C}, C): on C=1 branches keep x0, on C=0 keep x1
    acc: dict[tuple, float] = {}
    for (x0, x1), w in p.items():
        c = assignment.get(x1, 0)
        key = (x0, 1) if c == 1 else (x1, 0)
        acc[key] = acc.get(key, 0.0) + w
    max_weight = max(acc.values())
    report = SplitReport(
        alpha=alpha, threshold=threshold, max_weight=max_weight,
        split_min_entropy=float(-math.log2(max_weight)),
        holds=max_weight <= threshold + 1e-12,
    )
    return assignment, report


@dataclass(frozen=True)
class ConditionalSplitReport:
    """Certificate for conditional splitting followed by the chain rule."""

    alpha: float
    eps: float
    eps_prime: float
    certified: float
    achieved: float
    holds: bool

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "eps": self.eps, "epsPrime": self.eps_prime,
                "certified": self.certified, "achieved": self.achieved,
                "holds": self.holds}


def min_entropy_split_conditional(p: JointDistribution, alpha: float,
                                  eps: float, eps_prime: float,
                                  given: Sequence[str] | None = None):
    """Side-selection bit C(z, x1) with a certified conditional entropy.

    ``p`` is a joint over coordinates (x0, x1, z...) with
    H_inf^eps(X0 X1 | Z) >= alpha (checked).  Applies the splitting
    construction to the eps-smoothed conditionals for each z, then certifies
    via the chain rule that
    H_inf^{eps+eps'}(X_{1-C} | Z, C) >= alpha/2 - 1 - log2(1/eps').

    Returns (assignment, report); assignment maps (z, x1) pairs to the bit.
    """
    if eps_prime <= 0.0:
        raise ValueError("eps_prime must be positive")
    if given is None:
        given = p.names[2:]
    if len(given) == 0 or len(p.names) - len(given) != 2:
        raise ValueError("need coordinates (x0, x1) plus conditioning")
    x0n, x1n = [n for n in p.names if n not in given]
    alpha = float(alpha)
    h = smooth_min_entropy_conditional(p, eps, given=given)
    if h < alpha - SLACK:
        raise PreconditionError(f"H_inf^eps = {h} below alpha = {alpha}")

    # eps-smoothed sub-distribution: cap conditionals at the water level
    rest, cond_keys, w = p.split_keys(given)
    groups: dict[tuple, float] = {}
    for key, wt in zip(cond_keys, w):
        groups[key] = groups.get(key, 0.0) + float(wt)
    g = np.array([groups[k] for k in cond_keys])
    cap = _smoothing_cap(w, g, eps) if eps > 0.0 else None
    w_smooth = np.minimum(w, cap * g) if cap is not None else w

    # smoothed x1-marginal per z, conditioned on the original z-mass
    x1_pos = p.names.index(x1n)
    gpos = [p.names.index(n) for n in given]
    marg: dict[tuple, float] = {}
    for v, wt in zip(p.support, w_smooth):
        key = (tuple(v[i] for i in gpos), v[x1_pos])
        marg[key] = marg.get(key, 0.0) + float(wt)
    threshold = 2.0 ** (-alpha / 2.0)
    assignment = {}
    for (z, x1), wt in marg.items():
        assignment[(z, x1)] = 1 if wt / groups[z] >= threshold else 0

    # extended original joint with C; certify via the conditional smoothing
    ext: dict[tuple, float] = {}
    for v, wt in zip(p.support, w):
        z = tuple(v[i] for i in gpos)
        c = assignment.get((z, v[x1_pos]), 0)
        kept = v[p.names.index(x0n)] if c == 1 else v[x1_pos]
        key = (kept, z, c)
        ext[key] = ext.get(key, 0.0) + float(wt)
    extended = JointDistribution(("kept", "z", "c"), ext)
    achieved = smooth_min_entropy_conditional(extended, eps + eps_prime,
                                              given=("z", "c"))
    certified = alpha / 2.0 - 1.0 - math.log2(1.0 / eps_prime)
    report = ConditionalSplitReport(
        alpha=alpha, eps=float(eps), eps_prime=float(eps_prime),
        certified=certified, achieved=achieved,
        holds=achieved >= certified - SLACK,
    )
    return assignment, report
