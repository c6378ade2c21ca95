"""Acceptance suite: fourteen end-to-end checks, one per shipped guarantee.

Each test prints a single "[criterion NN] PASS/FAIL ..." line before any
assert fires, so the captured transcript of this file doubles as the
acceptance report.  Every criterion pins both value conditions and a
wall-clock budget.  Where a quantity admits an exact computation the check
is exact; the two Monte-Carlo criteria (02 and 14) carry explicit sampling
allowances.
"""

import math
import time

import numpy as np
import pytest

from minentlab import (concentration, distrib, hashing, protocols, qkd,
                       qsim, uncertainty)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")


def test_criterion_01_overall_bound_table():
    t0 = time.perf_counter()
    values = {d: uncertainty.overall_bound(d) for d in (2, 4, 8, 16)}
    elapsed = time.perf_counter() - t0
    expected = {2: 0.72, 4: 1.56, 8: 2.48, 16: 3.43}
    rounded = {d: round(v, 2) for d, v in values.items()}
    ok = rounded == expected and elapsed < 1e-3
    report(1, ok, f"all-bases bound table {rounded} "
                  f"({elapsed * 1e3:.3f} ms)")
    assert rounded == expected, values
    assert elapsed < 1e-3, elapsed


def test_criterion_02_haar_entropy_monte_carlo():
    # mean outcome entropy of a fixed pure qubit over Haar-random bases;
    # by unitary invariance the choice of state does not matter
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    psi = np.array([1.0, 0.0])
    total = 0.0
    samples = 10 ** 4
    for _ in range(samples):
        basis = qsim.haar_random_basis(2, rng)
        p = np.abs(basis.vectors.conj().T @ psi) ** 2
        total += distrib.shannon_entropy(p)
    mean = total / samples
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 0.7213) <= 0.02 and elapsed < 10.0
    report(2, ok, f"Haar mean entropy {mean:.5f} vs 0.7213 +- 0.02 "
                  f"over {samples} bases ({elapsed:.2f} s)")
    assert abs(mean - 0.7213) <= 0.02, mean
    assert elapsed < 10.0, elapsed


def test_criterion_03_numeric_bound_anchors():
    t0 = time.perf_counter()
    comp, diag, circ = qsim.standard_bases_qubit()
    two = uncertainty.numeric_average_bound([comp, diag])
    three = uncertainty.numeric_average_bound([comp, diag, circ])
    elapsed = time.perf_counter() - t0
    ok = (two.converged and abs(two.value - 0.5) <= 1e-5
          and three.converged and abs(three.value - 2.0 / 3.0) <= 1e-4
          and elapsed < 60.0)
    report(3, ok, f"numeric bounds {two.value:.7f} (target 0.5 +- 1e-5), "
                  f"{three.value:.6f} (target 2/3 +- 1e-4) ({elapsed:.2f} s)")
    assert two.converged and abs(two.value - 0.5) <= 1e-5, two
    assert three.converged and abs(three.value - 2.0 / 3.0) <= 1e-4, three
    assert elapsed < 60.0, elapsed


def test_criterion_04_noise_thresholds():
    windows = [(0.5, 0.1099, 0.1101),
               (2.0 / 3.0, 0.170, 0.176),
               (0.7213, 0.197, 0.202)]
    results = []
    for h, lo, hi in windows:
        t0 = time.perf_counter()
        p = qkd.noise_threshold(h)
        results.append((h, p, lo, hi, time.perf_counter() - t0))
    ok = all(lo <= p <= hi and dt < 1e-3 for _, p, lo, hi, dt in results)
    report(4, ok, "noise thresholds " + ", ".join(
        f"h={h:.4f}: {p:.5f} in [{lo}, {hi}]" for h, p, lo, hi, _ in results))
    for h, p, lo, hi, dt in results:
        assert lo <= p <= hi, (h, p)
        assert dt < 1e-3, (h, dt)


def test_criterion_05_uncertainty_relation_soundness():
    t0 = time.perf_counter()
    bs = uncertainty.bb84_basis_set()
    comp, diag, _ = qsim.standard_bases_qubit()
    rng = np.random.default_rng(505)
    failures = []
    for i in range(100):
        n = (6, 7, 8)[i % 3]
        dim = 2 ** n
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        rep = uncertainty.verify_uncertainty_relation(
            qsim.StateVector((2,) * n, amp), bs, 0.05)
        if not rep.holds:
            failures.append(("haar", i, n))
    for i in range(10):
        # adversarial preparation: a product of basis eigenvectors, so every
        # position whose basis is guessed right leaks its outcome for free
        n = (6, 7, 8)[i % 3]
        amp = np.array([1.0])
        for _ in range(n):
            basis = comp if rng.integers(2) == 0 else diag
            amp = np.kron(amp, basis.vector(int(rng.integers(2))))
        rep = uncertainty.verify_uncertainty_relation(
            qsim.StateVector((2,) * n, amp), bs, 0.05)
        if not rep.holds:
            failures.append(("eigenstate", i, n))
    zero = np.zeros(2 ** 8)
    zero[0] = 1.0
    witness = uncertainty.verify_uncertainty_relation(
        qsim.StateVector((2,) * 8, zero), bs, 0.05)
    elapsed = time.perf_counter() - t0
    tight = abs(witness.shannon_conditional - 4.0) <= 1e-9
    ok = not failures and witness.holds and tight and elapsed < 600.0
    report(5, ok, f"110 states, {len(failures)} violations; all-zeros "
                  f"witness H(X|Theta) = {witness.shannon_conditional:.9f} "
                  f"vs 4.0 ({elapsed:.1f} s)")
    assert not failures, failures
    assert witness.holds
    assert tight, witness.shannon_conditional
    assert elapsed < 600.0, elapsed


def test_criterion_06_sequence_bound_models():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    failures = []
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        n = int(rng.integers(4, 13))
        lam = float(rng.uniform(0.02, 0.45))
        if i % 4 < 2:
            p = rng.random(k) + 0.1
            model = concentration.iid_model(p / p.sum())
        else:
            init = rng.random(k) + 0.1
            trans = rng.random((k, k)) + 0.1
            model = concentration.markov_model(
                init / init.sum(), trans / trans.sum(axis=1, keepdims=True))
        rep = concentration.verify_dependent_sequence_bound(model, n, lam)
        if not rep.holds:
            failures.append((i, k, n, lam))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(6, ok, f"100 sequence models (alphabet <= 3, n <= 12), "
                  f"{len(failures)} violations ({elapsed:.1f} s)")
    assert not failures, failures
    assert elapsed < 300.0, elapsed


def random_ccq(n: int, q: int, rng: np.random.Generator) -> qsim.CqState:
    """Random source over n-bit strings with one pure q-qubit memory state
    per symbol (q = 0 collapses the memory to a scalar)."""
    probs = rng.random(2 ** n)
    probs /= probs.sum()
    dim = 2 ** q
    branches = {}
    for xi in range(2 ** n):
        x = tuple((xi >> (n - 1 - i)) & 1 for i in range(n))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        branches[(x, 0)] = float(probs[xi]) * np.outer(psi, psi.conj())
    return qsim.CqState((dim,), branches)


def test_criterion_07_privacy_amplification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    combos = ((1, 0), (1, 1), (2, 0), (2, 1))
    failures = []
    for i in range(100):
        l, q = combos[i % 4]
        rep = hashing.verify_pa(random_ccq(4, q, rng), l, 0.0)
        if not rep.holds:
            failures.append((i, l, q, rep.exact_distance, rep.bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(7, ok, f"100 cq instances (n=4, l in {{1,2}}, q in {{0,1}}), "
                  f"{len(failures)} violations ({elapsed:.1f} s)")
    assert not failures, failures
    assert elapsed < 300.0, elapsed


def test_criterion_08_min_entropy_splitting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    failures = []
    for i in range(500):
        nx = int(rng.integers(2, 13))
        ny = int(rng.integers(2, 13))
        w = rng.random((nx, ny))
        w /= w.sum()
        p = distrib.JointDistribution(
            ("x0", "x1"), {(a, b): w[a, b] for a in range(nx)
                           for b in range(ny)})
        alpha = distrib.min_entropy(p)
        _, rep = distrib.min_entropy_split(p, alpha)
        if not (rep.holds and rep.max_weight <= 2.0 ** (-alpha / 2.0) + 1e-12):
            failures.append((i, nx, ny, alpha, rep.max_weight))

    # analytic anchor 1: uniform pair, certificate met with equality
    m = 3
    unif = distrib.JointDistribution(
        ("x0", "x1"), {(a, b): 4.0 ** -m for a in range(2 ** m)
                       for b in range(2 ** m)})
    _, rep_u = distrib.min_entropy_split(unif, 2.0 * m)
    anchor_u = (rep_u.holds and rep_u.threshold == pytest.approx(2.0 ** -m)
                and rep_u.max_weight == pytest.approx(2.0 ** -m))

    # analytic anchor 2: constant second half, all weight rides on one side
    wv = np.array([0.3, 0.25, 0.2, 0.1, 0.08, 0.04, 0.02, 0.01])
    det = distrib.JointDistribution(
        ("x0", "x1"), {(a, 0): float(wv[a]) for a in range(8)})
    alpha_d = distrib.min_entropy(det)
    _, rep_d = distrib.min_entropy_split(det, alpha_d)
    anchor_d = (rep_d.holds
                and rep_d.max_weight == pytest.approx(2.0 ** -alpha_d))

    elapsed = time.perf_counter() - t0
    ok = not failures and anchor_u and anchor_d and elapsed < 30.0
    report(8, ok, f"500 joint tables, {len(failures)} violations; "
                  f"uniform and constant-half anchors "
                  f"{'hold' if anchor_u and anchor_d else 'FAIL'} "
                  f"({elapsed:.1f} s)")
    assert not failures, failures
    assert anchor_u, (rep_u.threshold, rep_u.max_weight)
    assert anchor_d, (alpha_d, rep_d.max_weight)
    assert elapsed < 30.0, elapsed


def test_criterion_09_chain_rule():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    shapes = ((8, 4), (16, 4), (4, 16), (12, 12), (2, 32))
    failures = []
    for i in range(1000):
        nx, ny = shapes[i % len(shapes)]
        w = rng.random((nx, ny))
        w /= w.sum()
        pxy = distrib.JointDistribution(
            ("x", "y"), {(a, b): w[a, b] for a in range(nx)
                         for b in range(ny)})
        for eps_prime in (0.05, 0.25):
            rep = distrib.verify_chain_rule(pxy, 0.0, eps_prime)
            if not rep.holds:
                failures.append((i, nx, ny, eps_prime, rep.lhs, rep.rhs))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(9, ok, f"1000 joint tables x eps' in {{0.05, 0.25}}, "
                  f"{len(failures)} violations ({elapsed:.1f} s)")
    assert not failures, failures
    assert elapsed < 60.0, elapsed


def script_battery(n: int, l: int) -> list:
    """Three dishonest senders: maximally mixed transmission, a symmetric
    state entangled with a kept side qubit, and a tilted product state."""
    dim = 2 ** n
    f0 = hashing.sample_hash(n, l, np.random.default_rng(101))
    f1 = hashing.sample_hash(n, l, np.random.default_rng(202))

    mixed = qsim.DensityOperator((2,) * n, np.eye(dim) / dim)
    senders = [protocols.ScriptedSender("uniform-comp", n, mixed, (),
                                        (0,) * n, f0, f1)]
    ghz = np.zeros(2 * dim)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    senders.append(protocols.ScriptedSender(
        "ghz-side", n, qsim.StateVector((2,) * n + (2,), ghz), (2,),
        tuple(i % 2 for i in range(n)), f0, f1))
    amp = np.array([1.0])
    for i in range(n):
        amp = np.kron(amp, np.array([math.cos(0.3 + 0.2 * i),
                                     math.sin(0.3 + 0.2 * i)]))
    senders.append(protocols.ScriptedSender(
        "tilted-product", n, qsim.StateVector((2,) * n, amp), (),
        tuple(1 - (i % 2) for i in range(n)), f0, f1))
    return senders


def test_criterion_10_receiver_security():
    t0 = time.perf_counter()
    results = []
    for n in (5, 6):
        for sender in script_battery(n, 1):
            rep = protocols.check_receiver_security(sender, 1)
            results.append((n, rep.label, rep.distance, rep.holds))
    elapsed = time.perf_counter() - t0
    worst = max(abs(d) for _, _, d, _ in results)
    ok = (all(h and abs(d) <= 1e-9 for _, _, d, h in results)
          and elapsed < 300.0)
    report(10, ok, f"{len(results)} scripted senders at n=5,6; worst "
                   f"choice-bit leakage {worst:.2e} vs 1e-9 ({elapsed:.1f} s)")
    for n, label, d, h in results:
        assert h and abs(d) <= 1e-9, (n, label, d)
    assert elapsed < 300.0, elapsed


def builtin_adversary(name: str, n: int) -> protocols.BoundedAdversary:
    if name == "all-plus":
        return protocols.product_adversary(name, n,
                                           {i: "+" for i in range(n)})
    if name == "breidbart":
        return protocols.product_adversary(name, n,
                                           {i: "breidbart" for i in range(n)})
    return protocols.product_adversary("store-one-diag", n,
                                       {i: "x" for i in range(1, n)},
                                       kept=(0,))


def test_criterion_11_sender_security():
    t0 = time.perf_counter()
    results = []
    for name in ("all-plus", "breidbart", "store-one-diag"):
        rep = protocols.check_sender_security(builtin_adversary(name, 8), 1)
        results.append(rep)
    elapsed = time.perf_counter() - t0
    ok = (all(r.holds and r.distance <= r.bound + 1e-12 and r.q <= 1
              for r in results) and elapsed < 900.0)
    report(11, ok, "n=8 sender security " + ", ".join(
        f"{r.name}: dist {r.distance:.6f} <= bound {r.bound:.6f}"
        for r in results) + f" ({elapsed:.1f} s)")
    for r in results:
        assert r.q <= 1, (r.name, r.q)
        assert r.holds and r.distance <= r.bound + 1e-12, \
            (r.name, r.distance, r.bound)
    assert elapsed < 900.0, elapsed


def test_criterion_12_commitment_binding():
    t0 = time.perf_counter()
    rep0 = protocols.check_binding(builtin_adversary("all-plus", 8))
    rep1 = protocols.check_binding(builtin_adversary("store-one-diag", 8))
    elapsed = time.perf_counter() - t0
    ok = ((rep0.q, rep1.q) == (0, 1)
          and all(r.holds and r.cheat_upper <= r.eps + 1e-12
                  and r.weak_holds and r.weak_sum <= 1.0 + r.eps + 1e-12
                  for r in (rep0, rep1))
          and elapsed < 900.0)
    report(12, ok, f"n=8 binding: q=0 cheat {rep0.cheat_upper:.6f} <= "
                   f"{rep0.eps:.6f}, weak sum {rep0.weak_sum:.6f}; "
                   f"q=1 cheat {rep1.cheat_upper:.6f} <= {rep1.eps:.6f}, "
                   f"weak sum {rep1.weak_sum:.6f} ({elapsed:.1f} s)")
    assert (rep0.q, rep1.q) == (0, 1)
    for r in (rep0, rep1):
        assert r.holds and r.cheat_upper <= r.eps + 1e-12, \
            (r.name, r.cheat_upper, r.eps)
        assert r.weak_holds and r.weak_sum <= 1.0 + r.eps + 1e-12, \
            (r.name, r.weak_sum, r.eps)
    assert elapsed < 900.0, elapsed


def test_criterion_13_qkd_end_to_end():
    t0 = time.perf_counter()
    run = qkd.run_qkd(uncertainty.six_state_basis_set(), 10 ** 5,
                      qkd.ChannelModel(0.10), mode="ideal-reconciliation",
                      seed=42)
    target = 2.0 / 3.0 - distrib.binary_entropy(0.10)
    rate_ok = run.keys_match and abs(run.rate - target) <= 0.01

    master = np.random.default_rng(777)
    bs = uncertainty.bb84_basis_set()
    good = 0
    runs = 1000
    for _ in range(runs):
        p = float(master.uniform(0.0, 0.1))
        seed = int(master.integers(2 ** 31))
        rr = qkd.run_qkd(bs, 100, qkd.ChannelModel(p),
                         mode="linear-syndrome", seed=seed, max_sift=24)
        good += 1 if rr.keys_match else 0
    elapsed = time.perf_counter() - t0
    ok = rate_ok and good >= 950 and elapsed < 300.0
    report(13, ok, f"ideal run rate {run.rate:.6f} vs {target:.6f} +- 0.01, "
                   f"keys match; syndrome mode {good}/{runs} round trips "
                   f"({elapsed:.1f} s)")
    assert run.keys_match
    assert abs(run.rate - target) <= 0.01, (run.rate, target)
    assert good >= 950, good
    assert elapsed < 300.0, elapsed


def test_criterion_14_azuma_tail():
    t0 = time.perf_counter()
    trials = 10 ** 6
    rng = np.random.default_rng(2024)
    freq = concentration.azuma_empirical_tail(0.5, 100, trials, rng)
    bound = concentration.azuma_tail_bound(0.5, 1.0, 100)
    elapsed = time.perf_counter() - t0
    # bound = exp(-12.5) = 3.7267e-6, quoted as 3.73e-6; three-sigma
    # allowance on a Bernoulli(bound) frequency estimate
    threshold = 3.73e-6 + 3.0 * math.sqrt(bound / trials)
    ok = (abs(bound - 3.73e-6) < 5e-9 and freq <= threshold
          and elapsed < 60.0)
    report(14, ok, f"tail frequency {freq:.2e} <= {threshold:.2e} "
                   f"(analytic bound {bound:.3e}) over {trials} trials "
                   f"({elapsed:.1f} s)")
    assert bound == pytest.approx(math.exp(-12.5), rel=1e-12)
    assert abs(bound - 3.73e-6) < 5e-9, bound
    assert freq <= threshold, (freq, threshold)
    assert elapsed < 60.0, elapsed
