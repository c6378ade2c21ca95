"""Independent reference computations used by the test suite.

Everything here is deliberately written through different algorithms and
different libraries than the package code: scipy linprog for smoothing,
numpy svd and a self-contained cyclic Jacobi eigensolver for spectra (the
package itself uses closed forms and LAPACK eigvalsh), mpmath for
high-precision scalars, Python-int row masks for Toeplitz hashing (the
package uses numpy.fft), one qsim.measure call per qubit for honest runs
(the package draws from one outcome table), complex memory operators and
complex transforms for the family-averaged sender distance (the package
transforms real coordinates), one hashed branch at a time for the
privacy-amplification distance (the package reads a Walsh-Hadamard
transform), and plain dictionary bookkeeping for protocol state
enumeration.  The sender and binding checks also have their former
two-walk path here (alpha first, then every basis string under the final
tau; the package keeps a running tau in one walk and redoes the strings
whose heavy mask moved).  Agreement between a package routine and its
oracle is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import linprog, minimize

from minentlab import hashing, protocols, qsim


def lp_smooth_cap(weights, group_mass, eps: float) -> float:
    """Smallest achievable max conditional atom after removing eps mass.

    One linear program: variables (q_1..q_m, t), minimize t subject to
    q_i <= w_i, q_i <= g_i * t, sum q_i >= mass - eps, q >= 0.
    """
    w = np.asarray(weights, dtype=float)
    g = np.asarray(group_mass, dtype=float)
    m = w.size
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((m + 1, m + 1))
    b_ub = np.zeros(m + 1)
    for i in range(m):
        a_ub[i, i] = 1.0
        a_ub[i, -1] = -g[i]
    a_ub[m, :m] = -1.0
    b_ub[m] = -(w.sum() - eps)
    bounds = [(0.0, float(wi)) for wi in w] + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.x[-1])


def lp_smooth_min_entropy(weights, eps: float) -> float:
    w = np.asarray(weights, dtype=float)
    return -math.log2(lp_smooth_cap(w, np.ones_like(w), eps))


def trace_norm_svd(m) -> float:
    return float(np.linalg.svd(np.asarray(m, dtype=complex),
                               compute_uv=False).sum())


def jacobi_eigenvalues(matrix, max_sweeps: int = 60,
                       tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Converges when the off-diagonal Frobenius mass drops below ``tol`` times
    the matrix scale.  Raises RuntimeError if that does not happen within
    ``max_sweeps`` sweeps (does not occur for Hermitian input).
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    if a.shape != (n, n):
        raise qsim.DimensionMismatchError("matrix must be square")
    herm = float(np.max(np.abs(a - a.conj().T))) if n else 0.0
    scale = max(1.0, float(np.max(np.abs(a))) if n else 0.0)
    if herm > 1e-9 * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {herm:g})")
    a = 0.5 * (a + a.conj().T)
    if n < 2:
        return a.real.diagonal().copy()
    for _ in range(max_sweeps):
        # Off-diagonal Frobenius mass, summed directly.  Subtracting the
        # diagonal mass from the total cancels to ~sqrt(eps)*scale and can
        # never reach tol.
        off_part = a.copy()
        np.fill_diagonal(off_part, 0.0)
        off = math.sqrt(float(np.sum(np.abs(off_part) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-18 * scale:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- N^dag A N with N = [[c*u, s*u], [-s, c]] on the
                # (p, q) plane; kills the pivot, keeps Hermiticity.
                u = phase
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * np.conj(u) * row_p - s * row_q
                a[q, :] = s * np.conj(u) * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * u * col_p - s * col_q
                a[:, q] = s * u * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi eigensolver failed to converge")
    vals = a.real.diagonal().copy()
    vals.sort()
    return vals


def helstrom_value(m0, m1) -> float:
    """Optimal two-outcome discrimination value for PSD operator rewards:
    sup over POVMs of tr(M0 E0) + tr(M1 E1)."""
    m0 = np.asarray(m0, dtype=complex)
    m1 = np.asarray(m1, dtype=complex)
    return 0.5 * float(np.trace(m0 + m1).real + trace_norm_svd(m0 - m1))


def diagonal_povm_value(ops) -> float:
    """Discrimination value for simultaneously diagonal reward operators:
    the optimal POVM is diagonal, so each basis vector goes to the best
    reward."""
    diags = np.stack([np.real(np.diagonal(op)) for op in ops])
    return float(diags.max(axis=0).sum())


def binomial_tail_exact(n: int, lam: float) -> float:
    """P[sum of n fair +-1 steps >= lam*n], exact rational arithmetic."""
    threshold = lam * n
    total = 0
    for k in range(n + 1):
        if 2 * k - n >= threshold:
            total += math.comb(n, k)
    return total / 2 ** n


def harmonic_bound(d: int) -> float:
    """(sum_{k=2}^{d} 1/k) / ln 2 at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.fsum(mpmath.mpf(1) / k for k in range(2, d + 1))
        return float(s / mpmath.log(2))


def entropy_threshold_mp(h: float) -> float:
    """Solve H_b(p) = h for p in (0, 1/2) with mpmath's root finder."""
    with mpmath.workdps(40):
        hh = mpmath.mpf(h)

        def f(p):
            return (-p * mpmath.log(p, 2)
                    - (1 - p) * mpmath.log(1 - p, 2) - hh)

        bracket = (mpmath.mpf("1e-6"), mpmath.mpf("0.499999"))
        return float(mpmath.findroot(f, bracket, solver="anderson",
                                     tol=1e-30))


def shannon_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def relation_joint_oracle(state, rotations) -> np.ndarray:
    """(|B|^n, d^n) joint P(theta, x) of the n-fold relation, by Kronecker
    products: row theta (first position most significant) is |B|^-n times
    the outcome distribution of K_theta = kron of rotations[theta_i],
    applied to ``state`` (a d^n amplitude vector or a d^n x d^n density
    matrix) as K psi or diag(K rho K^dagger)."""
    state = np.asarray(state, dtype=np.complex128)
    nb, d = len(rotations), rotations[0].shape[0]
    n = round(math.log(state.shape[0], d))
    rows = []
    for theta in itertools.product(range(nb), repeat=n):
        k = np.ones((1, 1))
        for b in theta:
            k = np.kron(k, rotations[b])
        if state.ndim == 1:
            probs = np.abs(k @ state) ** 2
        else:
            probs = np.diagonal(k @ state @ k.conj().T).real
        rows.append(probs / nb ** n)
    return np.array(rows)


def min_average_entropy_oracle(bases, grid: int = 256,
                               polish: int = 6) -> float:
    """Minimum over qubit pure states psi = (cos(t/2), e^{ip} sin(t/2)) of
    the mean over ``bases`` of the outcome entropy, taken from the
    amplitudes |<b_j|psi>|^2 rather than from Bloch axes: a (t, p) grid of
    grid x 2 grid points, then Nelder-Mead from the ``polish`` best grid
    points.  Every value it returns is the objective at a state, so it is
    never below the true minimum."""
    adjoints = np.array([b.vectors.conj().T for b in bases])

    def mean_entropy(t, p):
        psi = np.array([np.cos(t / 2) + 0j, np.exp(1j * p) * np.sin(t / 2)])
        probs = np.clip(np.abs(np.einsum("bjk,k...->bj...", adjoints,
                                         psi)) ** 2, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0, probs * np.log2(probs), 0.0)
        return -terms.sum(axis=1).mean(axis=0)

    t, p = np.meshgrid(np.linspace(0, np.pi, grid + 1),
                       np.linspace(0, 2 * np.pi, 2 * grid, endpoint=False))
    values = mean_entropy(t.ravel(), p.ravel())
    best = float(values.min())
    for i in np.argsort(values)[:polish]:
        res = minimize(lambda v: float(mean_entropy(v[0], v[1])),
                       [t.ravel()[i], p.ravel()[i]], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15,
                                "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


def apply_hash_rows(h, x) -> tuple[int, ...]:
    """hashing.apply_hash through Python-int row masks: output bit i is the
    parity of input & row i, the input read as an integer with its first bit
    most significant (an integer input is taken as it is).  Same input rules
    as apply_hash."""
    n = h.input_bits
    if isinstance(x, (int, np.integer)):
        value = int(x)
        if not 0 <= value < 1 << n:
            raise ValueError(f"integer input must lie in [0, 2^{n})")
    else:
        xb = np.asarray(x, dtype=np.uint8)
        bits = xb.tolist()
        if xb.ndim != 1 or len(bits) > n or max(bits, default=0) > 1:
            raise ValueError(f"input must be at most {n} bits")
        value = int("0" + "".join(map(str, bits)), 2) << (n - len(bits))
    return tuple((value & row).bit_count() & 1 for row in h.rows)


def pa_distance_oracle(cq, l: int) -> float:
    """hashing.verify_pa's exact_distance by brute force: for each member of
    enumerate_hash_family, every branch is hashed with apply_hash_rows and
    added to its (output, side symbol) cell one at a time, and each cell is
    compared by SVD with its symbol's operator spread evenly over the 2^l
    outputs."""
    n = len(next(iter(cq.branches))[0])
    family = hashing.enumerate_hash_family(n, l)
    total = 0.0
    for h in family:
        cells, marginal = {}, {}
        for (x, u), op in cq.branches.items():
            s = apply_hash_rows(h, x)
            cells[s, u] = cells.get((s, u), 0.0) + op.matrix
            marginal[u] = marginal.get(u, 0.0) + op.matrix
        for s in itertools.product((0, 1), repeat=l):
            for u, m in marginal.items():
                total += trace_norm_svd(cells.get((s, u), 0.0) - m / 2 ** l)
    return 0.5 * total / len(family)


# ---------------------------------------------------------------------------
# Protocol-level enumeration oracles
# ---------------------------------------------------------------------------

def honest_run_oracle(n: int, b: int, seed: int, epr: bool = False):
    """(x, theta, x') of an honest run, one qsim.measure per qubit or pair.

    Replays the draws of protocols.run_ot and run_commit (x, theta, then one
    uniform per qubit, sent in [+,x]_theta[i] and measured in [+,x]_b) or,
    with ``epr``, of run_epr_ot (theta, then per EPR pair one uniform for
    the receiver's outcome in [+,x]_b and one for the sender's in
    [+,x]_theta[i], measured on the collapsed half).
    """
    bases = qsim.standard_bases_qubit()[:2]
    rng = np.random.default_rng(seed)
    if not epr:
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        theta = tuple(int(v) for v in rng.integers(0, 2, size=n))
        x_prime = []
        for xi, ti in zip(x, theta):
            sent = qsim.StateVector((2,), bases[ti].vector(xi))
            probs = qsim.measure(sent, {0: bases[b]})
            x_prime.append(int(rng.random() < probs[(1,)]))
        return x, theta, tuple(x_prime)
    theta = tuple(int(v) for v in rng.integers(0, 2, size=n))
    x, x_prime = [], []
    for ti in theta:
        probs, branches = qsim.measure(qsim.epr_pair().to_density(),
                                       {1: bases[b]}, return_branches=True)
        r_out = int(rng.random() < probs[(1,)])
        x_prime.append(r_out)
        residual = qsim.partial_trace(branches[(r_out,)], [0]).normalized()
        s_probs = qsim.measure(residual, {0: bases[ti]})
        x.append(int(rng.random() < s_probs[(1,)]))
    return tuple(x), theta, tuple(x_prime)


def adversary_cq_table(adv):
    """Exact measurement records of a bounded receiver, state by state.

    Returns (k_count, mem_dim, table) where table[(x, theta)] is a list of
    (k, memory amplitude vector) pairs with squared norms summing to one.
    Everything is computed by direct matrix action on each sent state,
    avoiding the package's tensor-contraction path.
    """
    n, a = adv.n, adv.ancillas
    wires = n + a
    iso = adv.isometry()
    kept = list(adv.kept)
    measured = [w for w in range(wires) if w not in kept]
    mem_dim = 2 ** len(kept)
    k_count = 2 ** len(measured)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

    table = {}
    for theta in itertools.product((0, 1), repeat=n):
        for x in itertools.product((0, 1), repeat=n):
            vec = np.array([1.0])
            for xi, ti in zip(x, theta):
                qubit = np.zeros(2)
                qubit[xi] = 1.0
                if ti:
                    qubit = h @ qubit
                vec = np.kron(vec, qubit)
            out = (iso @ vec).reshape((2,) * wires)
            out = np.transpose(out, measured + kept).reshape(k_count, mem_dim)
            table[(x, theta)] = [(k, out[k].copy()) for k in range(k_count)
                                 if np.abs(out[k]).max() > 1e-14]
    return k_count, mem_dim, table


def min_entropy_alpha_oracle(adv) -> float:
    """H_inf(X | Theta, K) from the enumerated record table."""
    n = adv.n
    _, _, table = adversary_cq_table(adv)
    best = 0.0
    for theta in itertools.product((0, 1), repeat=n):
        cond = {}
        for x in itertools.product((0, 1), repeat=n):
            for k, amp in table[(x, theta)]:
                cond.setdefault(k, {})[x] = float(np.vdot(amp, amp).real)
        for branch in cond.values():
            total = sum(branch.values())
            if total > 1e-15:
                best = max(best, max(branch.values()) / total)
    return -math.log2(best)


def sender_distance_oracle(adv, tau: float) -> tuple[float, float]:
    """Family-averaged real-vs-ideal distance by explicit enumeration.

    Iterates every basis string and every (f0, f1) pair of one-bit Toeplitz
    hashes, accumulates the classical-quantum branch operators of the real
    and idealized experiments, and sums trace-norm differences via SVD.
    Hashes go through apply_hash_rows, memoised per (hash, substring).
    Also returns P[C' = 1].  Exponential everywhere: keep n <= 4.
    """
    n = adv.n
    _, mem_dim, table = adversary_cq_table(adv)
    family = hashing.enumerate_hash_family(n, 1)
    memo = {}

    def hashed(f, sub):
        if (f, sub) not in memo:
            memo[f, sub] = apply_hash_rows(f, sub)
        return memo[f, sub]

    theta_prior = 2.0 ** (-n)
    x_prior = 2.0 ** (-n)
    pair_prior = 1.0 / len(family) ** 2
    total = 0.0
    prob_c1 = 0.0

    for theta in itertools.product((0, 1), repeat=n):
        i0 = [i for i in range(n) if theta[i] == 0]
        i1 = [i for i in range(n) if theta[i] == 1]

        # split bit: per (x1 substring, k) conditional probability of x1
        sub_mass = {}
        k_mass = {}
        for x in itertools.product((0, 1), repeat=n):
            x1 = tuple(x[i] for i in i1)
            for k, amp in table[(x, theta)]:
                w = x_prior * float(np.vdot(amp, amp).real)
                sub_mass[(x1, k)] = sub_mass.get((x1, k), 0.0) + w
                k_mass[k] = k_mass.get(k, 0.0) + w
        split = {key: (1 if sub_mass[key] / k_mass[key[1]] >= tau - 1e-12
                       else 0) for key in sub_mass}
        prob_c1 += theta_prior * sum(w for key, w in sub_mass.items()
                                     if split[key] == 1)

        # (x0, x1, [(k, branch operator)]) per x; the same for every pair
        branches = [(tuple(x[i] for i in i0), tuple(x[i] for i in i1),
                     [(k, x_prior * np.outer(amp, amp.conj()))
                      for k, amp in table[(x, theta)]])
                    for x in itertools.product((0, 1), repeat=n)]
        for f0 in family:
            for f1 in family:
                real = {}
                ideal = {}
                for x0, x1, ops in branches:
                    s0 = hashed(f0, x0)
                    s1 = hashed(f1, x1)
                    for k, op in ops:
                        c = split[(x1, k)]
                        kept_s = s1 if c == 1 else s0
                        other_s = s0 if c == 1 else s1
                        key = (c, kept_s, other_s, k)
                        real[key] = real.get(key, 0.0) + op
                        for guess in ((0,), (1,)):
                            ikey = (c, kept_s, guess, k)
                            ideal[ikey] = ideal.get(ikey, 0.0) + 0.5 * op
                branch_sum = 0.0
                for key in set(real) | set(ideal):
                    diff = (real.get(key, np.zeros((mem_dim, mem_dim)))
                            - ideal.get(key, np.zeros((mem_dim, mem_dim))))
                    branch_sum += trace_norm_svd(diff)
                total += theta_prior * pair_prior * 0.5 * branch_sum
    return total, prob_c1


def family_average_distance_complex(attack, tau: float
                                    ) -> tuple[float, float]:
    """Family-averaged real-vs-ideal distance, exact, for one-bit hashes.

    Per basis string the masked post-measurement operators are transformed
    over both substring indices with Sylvester-Hadamard matrices; each
    frequency pair contributes two trace norms.  The identity behind this:
    a uniformly drawn one-bit GF(2)-linear hash of an m-bit string is the
    character family, so averaging the branch distances over the family is
    the same as averaging transform magnitudes over frequencies.

    A mid-size reference in complex arithmetic: full complex memory
    operators, complex tensordots, both transforms per mask.  Same identity
    as the package, other arithmetic; reaches n = 7 in seconds where
    sender_distance_oracle stops at n = 4.
    """
    hadamard = protocols.hadamard
    total = 0.0
    prob_c1 = 0.0
    theta_prior = freq_prior = 2.0 ** (-attack.n)
    for tab in attack.tableaux():
        mask1 = tab.heavy(tau)
        w = np.einsum("abki,abkj->abkij", tab.a, tab.a.conj())
        prob_c1 += theta_prior * float(tab.p.sum(axis=0)[mask1].sum())
        h0 = hadamard(w.shape[0])
        h1 = hadamard(w.shape[1])
        for uniform_axis, mask in ((0, mask1), (1, ~mask1)):
            wm = w * mask[None, :, :, None, None]
            t = np.tensordot(h0, wm, axes=(1, 0))       # (a0, x1, k, i, j)
            b2 = np.tensordot(h1, t, axes=(1, 1))       # (a1, a0, k, i, j)
            if uniform_axis == 0:
                ref = b2[0:1]          # frequency 0 on the x1 side
            else:
                ref = b2[:, 0:1]       # frequency 0 on the x0 side
            part = (qsim._trace_norms(ref + b2).sum()
                    + qsim._trace_norms(ref - b2).sum())
            total += theta_prior * freq_prior * 0.25 * float(part)
    return total, prob_c1


def two_pass_alpha_tau(attack) -> tuple[float, float]:
    """Exact alpha = H_min(X | Theta, K) and tau = 2^(-alpha/2) from a walk
    of their own over the tableaux, the first of the two walks the package
    used to make (it now keeps a running tau inside one walk)."""
    worst = 0.0
    for tab in attack.tableaux():
        p = tab.p.reshape(-1, attack.k_dim)
        pk = p.sum(axis=0)
        live = pk > 1e-300
        if not np.any(live):
            continue
        ratios = p[:, live].max(axis=0) / pk[live]
        worst = max(worst, float(ratios.max()))
    if worst <= 0.0:
        raise ValueError("adversary state carries no probability mass")
    alpha = 0.0 - math.log2(worst)
    return alpha, 2.0 ** (-alpha / 2.0)


def sender_two_pass(adv) -> tuple[float, float, float, float]:
    """alpha, tau, the family-averaged distance and P[C' = 1] in two walks:
    alpha first, then every basis string's `protocols._sender_terms` under
    the final tau, added in theta order.  The package's per-string
    arithmetic, without its running tau and redone strings."""
    attack = protocols._EprAttack(adv)
    alpha, tau = two_pass_alpha_tau(attack)
    work = np.empty((4, qsim._coordinate_count(attack.mem_dim)
                     * 2 ** attack.n * attack.k_dim))
    total = prob_c1 = 0.0
    for tab in attack.tableaux():
        p_term, d_term0, d_term1 = protocols._sender_terms(
            tab, tab.heavy(tau), work)
        prob_c1 += p_term
        total += d_term0
        total += d_term1
    return alpha, tau, total, prob_c1


def binding_openings_two_pass(adv):
    """alpha, tau, the summed opening coordinates [cond or unc, target,
    coordinate, x', record] and the split-bit masses of a committer, in two
    walks: alpha first, then every basis string under the final tau,
    gathered onto x' through each subset's substring codes."""
    attack = protocols._EprAttack(adv)
    alpha, tau = two_pass_alpha_tau(attack)
    n = adv.n
    theta_prior = 2.0 ** (-n)
    opening = None
    prob_bb = np.zeros(2)
    for tab in attack.tableaux():
        coords = qsim._outer_coordinates(tab.a)          # (c, x0, x1, k)
        if opening is None:
            opening = np.zeros((2, 2, len(coords), 2 ** n, attack.k_dim))
        mask1 = tab.heavy(tau)
        mass = tab.p.sum(axis=0)
        for t, keep in ((0, mask1), (1, ~mask1)):
            codes = protocols._subset_codes(
                n, protocols._subset_indices(tab.theta, t))
            prob_bb[1 - t] += theta_prior * float(mass[keep].sum())
            for acc, ops in ((opening[0, t], coords * keep),
                             (opening[1, t], coords)):
                acc += ops.sum(axis=2 - t)[:, codes]
    opening *= theta_prior
    return alpha, tau, opening, prob_bb


def ml_syndrome_decode_oracle(h_mat, syndrome, y):
    """Exhaustive maximum-likelihood syndrome decoding.

    Returns the minimal Hamming distance to ``y`` among all strings with
    the given syndrome.  Cost 2^M; keep M small.
    """
    h_mat = np.asarray(h_mat, dtype=np.uint8)
    syndrome = tuple(int(b) for b in syndrome)
    y = np.asarray(y, dtype=np.uint8)
    m = h_mat.shape[1]
    best = None
    for bits in itertools.product((0, 1), repeat=m):
        x = np.array(bits, dtype=np.uint8)
        if tuple((h_mat @ x) & 1) != syndrome:
            continue
        dist = int((x ^ y).sum())
        if best is None or dist < best:
            best = dist
    return best


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
