import itertools
import math

import numpy as np
import pytest

import oracles
from minentlab import protocols, qsim
from minentlab.hashing import sample_hash
from minentlab.protocols import BoundedAdversary, ScriptedSender, product_adversary


def all_plus(n):
    return product_adversary("all-plus", n, {i: "+" for i in range(n)})


def store_one_diag(n):
    return product_adversary("store-one-diag", n,
                             {i: "x" for i in range(1, n)}, kept=(0,))


def all_breidbart(n):
    return product_adversary("breidbart", n,
                             {i: "breidbart" for i in range(n)})


# ------------------------------------------------------------- honest runs

def test_run_ot_invariants():
    for seed in range(6):
        t = protocols.run_ot(10, 2, seed % 2, seed)
        assert set(t.i0) | set(t.i1) == set(range(10))
        assert set(t.i0) & set(t.i1) == set()
        # measuring in the right basis reproduces the sent bit
        for i in (t.i0, t.i1)[t.c]:
            assert t.x_prime[i] == t.x[i]
        # the receiver's hashed key equals the chosen secret
        assert t.y == (t.s0, t.s1)[t.c]
        assert t.seed == seed and not t.epr
        js = t.to_json()
        assert js["y"] == list(t.y) and js["c"] == t.c
        assert js["f0"]["inputBits"] == 10


def test_run_ot_is_deterministic_per_seed():
    a = protocols.run_ot(8, 1, 0, 123)
    b = protocols.run_ot(8, 1, 0, 123)
    assert a == b
    assert protocols.run_ot(8, 1, 0, 124) != a


def test_run_ot_warns_on_long_output():
    with pytest.warns(UserWarning):
        protocols.run_ot(4, 3, 0, 0)
    with pytest.raises(ValueError):
        protocols.run_ot(0, 1, 0, 0)
    with pytest.raises(ValueError):
        protocols.run_ot(4, 1, 2, 0)


def test_run_ot_wrong_basis_outcomes_are_fair():
    flips = matches = 0
    for seed in range(200):
        t = protocols.run_ot(8, 1, seed % 2, seed)
        for i in (t.i0, t.i1)[1 - t.c]:
            matches += 1
            flips += t.x_prime[i] != t.x[i]
    frac = flips / matches
    assert abs(frac - 0.5) <= 4.0 * math.sqrt(0.25 / matches)


def test_run_epr_ot_same_semantics():
    for seed in range(4):
        t = protocols.run_epr_ot(8, 1, seed % 2, seed)
        assert t.epr
        for i in (t.i0, t.i1)[t.c]:
            assert t.x_prime[i] == t.x[i]
        assert t.y == (t.s0, t.s1)[t.c]


def test_epr_outcome_table_exact():
    for c in (0, 1):
        table = protocols.epr_outcome_table(c)
        for t in (0, 1):
            for xp in (0, 1):
                if t == c:
                    # same basis: outcomes agree with certainty
                    assert table[t, xp, xp] == pytest.approx(1.0, abs=1e-12)
                else:
                    assert table[t, xp, 0] == pytest.approx(0.5, abs=1e-12)
                    assert table[t, xp, 1] == pytest.approx(0.5, abs=1e-12)


def test_sample_epr_triples_frequencies():
    x, xp, theta = protocols.sample_epr_triples(4, 0, 20_000, seed=5)
    same = theta == 0
    agree = (x == xp)[same]
    assert agree.all()
    other = (x == 1)[~same]
    assert abs(other.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / other.size)


# --------------------------------------------------------------- commitment

def test_run_commit_honest_accepts():
    for seed in range(6):
        t = protocols.run_commit(8, seed % 2, seed)
        assert t.accept
        for i in protocols._subset_indices(t.theta, t.b):
            assert t.x_prime[i] == t.x[i]
        js = t.to_json()
        assert js["accept"] is True and js["b"] == t.b
    with pytest.raises(ValueError):
        protocols.run_commit(4, 2, 0)


def test_commit_accepts_flip_sensitivity():
    t = protocols.run_commit(8, 0, seed=1)
    checked = protocols._subset_indices(t.theta, t.b)
    unchecked = protocols._subset_indices(t.theta, 1 - t.b)
    assert checked and unchecked  # seed 1 gives both kinds of position
    bits = list(t.x_prime)
    bits[checked[0]] ^= 1
    assert not protocols.commit_accepts(t.x, t.theta, t.b, bits)
    bits = list(t.x_prime)
    bits[unchecked[0]] ^= 1
    assert protocols.commit_accepts(t.x, t.theta, t.b, bits)


# ------------------------------------------------------------ adversary model

def test_breidbart_basis_geometry():
    b = protocols.breidbart_basis()
    v0 = b.vector(0)
    comp, diag, _ = qsim.standard_bases_qubit()
    # equal angle to |0> and |+>
    a0 = abs(np.vdot(comp.vector(0), v0)) ** 2
    a1 = abs(np.vdot(diag.vector(0), v0)) ** 2
    assert a0 == pytest.approx(math.cos(math.pi / 8) ** 2)
    assert a1 == pytest.approx(a0)


def test_bounded_adversary_validation():
    with pytest.raises(ValueError):
        BoundedAdversary("bad", 3, kept=(3,))
    with pytest.raises(ValueError):
        BoundedAdversary("bad", 3, kept=(1, 1))
    with pytest.raises(ValueError):
        BoundedAdversary("bad", 3, kept=(2, 0))
    with pytest.raises(ValueError):
        BoundedAdversary("bad", 2, kept=(), unitary=np.eye(3))
    with pytest.raises(ValueError):
        BoundedAdversary("bad", 1, kept=(), unitary=np.ones((2, 2)))
    adv = BoundedAdversary("id", 2, kept=(0, 1))
    assert adv.q == 2
    iso = adv.isometry()
    assert iso.shape == (4, 4)
    assert np.allclose(iso, np.eye(4))


def test_adversary_isometry_with_ancilla():
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(4, 4))
                     + 1j * rng.normal(size=(4, 4)))[0]
    adv = BoundedAdversary("anc", 1, kept=(0,), ancillas=1, unitary=u)
    iso = adv.isometry()
    assert iso.shape == (4, 2)
    # isometry columns are U |z>|0>
    assert np.allclose(iso[:, 0], u[:, 0])
    assert np.allclose(iso[:, 1], u[:, 2])
    assert np.allclose(iso.conj().T @ iso, np.eye(2), atol=1e-12)


def test_adversary_json_round_trips():
    adv = store_one_diag(4)
    again = BoundedAdversary.from_json(adv.to_json())
    assert again.n == 4 and again.kept == (0,)
    assert np.allclose(again.unitary, adv.unitary)
    spec = {"name": "m", "n": 2, "measure": {0: "+", 1: "x"}}
    built = BoundedAdversary.from_json(spec)
    assert built.q == 0 and built.n == 2
    with pytest.raises(ValueError):
        BoundedAdversary.from_json({**spec,
                                    "unitary": {"re": np.eye(4).tolist(),
                                                "im": np.zeros((4, 4)).tolist()}})


def test_product_adversary_validation():
    with pytest.raises(ValueError):
        product_adversary("bad", 2, {0: "+", 1: "x"}, kept=(1,))
    with pytest.raises(ValueError):
        product_adversary("bad", 3, {0: "+"})  # wire 1 unassigned
    with pytest.raises(ValueError):
        product_adversary("bad", 1, {0: "nope"})
    # explicit Basis object and raw 2x2 matrix both work
    comp, diag, _ = qsim.standard_bases_qubit()
    adv = product_adversary("mixed", 2, {0: comp, 1: diag.vectors})
    assert adv.q == 0
    # an adversary needs a received qubit, whichever way it is built
    for n in (0, -1):
        with pytest.raises(ValueError):
            all_plus(n)
        with pytest.raises(ValueError):
            BoundedAdversary.from_json({"n": n})


# --------------------------------------------- dual-route alpha and distance

def test_tableau_index_convention_matches_cq_table():
    # for every basis string, a[codes[0][x], codes[1][x], k] is the memory
    # amplitude of record k when x was sent, up to the EPR normalization
    # 2^(-n/2); p and w are its mass and memory operator
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))[0]
    cases = [all_plus(4), store_one_diag(4),
             BoundedAdversary("haar", 3, kept=(0,), ancillas=1, unitary=u)]
    for adv in cases:
        n = adv.n
        scale = 2.0 ** (n / 2.0)
        k_count, mem_dim, table = oracles.adversary_cq_table(adv)
        tableaux = list(protocols._EprAttack(adv).tableaux())
        strings = list(itertools.product((0, 1), repeat=n))
        assert [tab.theta for tab in tableaux] == strings, adv.name
        for tab in tableaux:
            m1 = sum(tab.theta)
            assert tab.a.shape == (2 ** (n - m1), 2 ** m1, k_count, mem_dim)
            cells = set()
            for xi, x in enumerate(strings):
                want = np.zeros((k_count, mem_dim), complex)
                for k, amp in table[(x, tab.theta)]:
                    want[k] = amp
                cell = (tab.codes[0][xi], tab.codes[1][xi])
                cells.add(cell)
                assert np.allclose(tab.a[cell] * scale, want, atol=1e-12)
                assert np.allclose(tab.p[cell] * scale ** 2,
                                   (np.abs(want) ** 2).sum(axis=1), atol=1e-12)
                assert np.allclose(tab.w[cell] * scale ** 2,
                                   np.einsum("ki,kj->kij", want, want.conj()),
                                   atol=1e-12)
            assert len(cells) == 2 ** n      # (x0, x1) covers every x once


def test_alpha_matches_oracle():
    cases = [all_plus(4), store_one_diag(4), all_breidbart(3)]
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))[0]
    cases.append(BoundedAdversary("haar", 3, kept=(0,), ancillas=1, unitary=u))
    for adv in cases:
        engine = protocols._EprAttack(adv).min_entropy_alpha()
        oracle = oracles.min_entropy_alpha_oracle(adv)
        assert engine == pytest.approx(oracle, abs=1e-9), adv.name


def test_alpha_known_values():
    zero = protocols._EprAttack(all_plus(4)).min_entropy_alpha()
    assert zero == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, zero) == 1.0      # +0.0, reported as 0.0
    assert protocols._EprAttack(store_one_diag(5)).min_entropy_alpha() == (
        pytest.approx(1.0, abs=1e-9))
    got = protocols._EprAttack(all_breidbart(3)).min_entropy_alpha()
    assert got == pytest.approx(-3.0 * math.log2(math.cos(math.pi / 8) ** 2),
                                abs=1e-12)


def test_hadamard_matches_scipy():
    from scipy.linalg import hadamard as reference

    for m in range(9):
        h = protocols.hadamard(2 ** m)
        assert np.array_equal(h, reference(2 ** m)), m
        with pytest.raises(ValueError):
            h[0, 0] = 2.0
    for size in (0, 3, 6):
        with pytest.raises(ValueError):
            protocols.hadamard(size)


def test_sender_distance_matches_oracle():
    cases = [all_plus(4), store_one_diag(4), all_breidbart(3)]
    rng = np.random.default_rng(21)
    u = np.linalg.qr(rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))[0]
    cases.append(BoundedAdversary("haar", 3, kept=(0,), ancillas=1, unitary=u))
    for adv in cases:
        attack = protocols._EprAttack(adv)
        alpha = attack.min_entropy_alpha()
        tau = 2.0 ** (-alpha / 2.0)
        engine_d, engine_p = protocols._family_average_distance(attack, tau)
        oracle_d, oracle_p = oracles.sender_distance_oracle(adv, tau)
        assert engine_d == pytest.approx(oracle_d, abs=1e-9), adv.name
        assert engine_p == pytest.approx(oracle_p, abs=1e-9), adv.name


def test_sender_report_all_plus_closed_form():
    # measuring everything in + leaves exactly the diagonal-subset secret
    # unknown; collapse of the family average gives (3/4)^n / 2
    for n in (4, 6):
        rep = protocols.check_sender_security(all_plus(n))
        assert rep.distance == pytest.approx(0.75 ** n / 2.0, abs=1e-12)
        assert rep.prob_cprime1 == pytest.approx(2.0 ** -n, abs=1e-12)
        assert rep.alpha == pytest.approx(0.0, abs=1e-12)
        assert rep.trivial and rep.holds
        js = rep.to_json()
        assert js["boundRaw"] == pytest.approx(rep.bound_raw)


def test_sender_checker_guards():
    with pytest.raises(ValueError):
        protocols.check_sender_security(all_plus(4), l=2)
    with pytest.raises(ValueError):
        protocols.check_sender_security(all_plus(9))
    with pytest.raises(ValueError):
        protocols.check_sender_security(
            product_adversary("q3", 4, {3: "+"}, kept=(0, 1, 2)))
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.normal(size=(16, 16)))[0]
    with pytest.raises(ValueError):
        protocols.check_sender_security(
            BoundedAdversary("a3", 1, kept=(0,), ancillas=3,
                             unitary=np.eye(16)))


def test_security_error_bound_shape():
    for alpha, q, l in ((8.0, 0, 1), (12.0, 1, 1), (20.0, 2, 2)):
        chain = protocols.security_error_bound(alpha, q, l)
        a_eff = alpha / 2.0 - 1.0 - 2.0 * l - q
        assert chain["exponent"] == pytest.approx(a_eff)
        assert chain["raw"] == pytest.approx(2.0 ** 1.5 * 2.0 ** (-a_eff / 4))
        assert chain["capped"] == min(1.0, chain["raw"])
        assert chain["epsSmooth"] == pytest.approx(2.0 ** (-a_eff / 4 - 1.5))
    # tighter with more entropy, looser with more stored qubits
    r = [protocols.security_error_bound(a, 0, 1)["raw"]
         for a in (8.0, 16.0, 32.0)]
    assert r[0] > r[1] > r[2]
    assert (protocols.security_error_bound(16.0, 2, 1)["raw"]
            > protocols.security_error_bound(16.0, 0, 1)["raw"])
    # the closed-form smoothing is optimal: the bound is the objective at
    # epsSmooth, and no point of a fine grid over the smoothing parameter
    # beats it; alpha = 2 * (a_eff + 3) sweeps a_eff over [-8, 160]
    ts = np.logspace(-14, 0, 2000)
    cases = [(8.0, 0, 1), (12.0, 1, 1), (20.0, 2, 2)]
    cases += [(2.0 * (a + 3.0), 0, 1) for a in np.linspace(-8.0, 160.0, 43)]
    for alpha, q, l in cases:
        chain = protocols.security_error_bound(alpha, q, l)
        scale = 0.5 * 2.0 ** (-chain["exponent"] / 2.0)
        t = chain["epsSmooth"]
        assert scale / t + 4.0 * t == pytest.approx(chain["raw"], rel=1e-12)
        grid = scale / ts + 4.0 * ts
        assert grid.min() >= chain["raw"] * (1.0 - 1e-9), (alpha, q, l)


# ------------------------------------------------------------------- binding

def test_binding_all_plus_closed_form():
    # the all-+ committer always opens 0 (its record matches the checked
    # subset completely) and opens 1 only by guessing the diagonal subset
    for n in (4, 6):
        rep = protocols.check_binding(all_plus(n))
        assert rep.open_success[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.open_success[1] == pytest.approx(0.75 ** n, abs=1e-9)
        assert rep.prob_bound_bit[0] == pytest.approx(1.0 - 2.0 ** -n,
                                                      abs=1e-12)
        assert rep.prob_bound_bit[1] == pytest.approx(2.0 ** -n, abs=1e-12)
        assert rep.cheat_joint[0] == pytest.approx(0.75 ** n - 2.0 ** -n,
                                                   abs=1e-9)
        assert rep.cheat_joint[1] == pytest.approx(2.0 ** -n, abs=1e-9)
        assert rep.cheat_upper == pytest.approx(0.75 ** n - 2.0 ** -n,
                                                abs=1e-9)
        assert rep.cheat_lower <= rep.cheat_upper + 1e-9
        assert rep.trivial and rep.holds
        assert rep.weak_sum == pytest.approx(1.0 + 0.75 ** n, abs=1e-9)
        assert rep.weak_holds


def test_binding_store_one_diag_tight():
    # one stored qubit, everything else measured diagonally: alpha = 1 and
    # the optimal cheat succeeds with probability exactly 1/2, with matching
    # upper and lower certificates
    rep = protocols.check_binding(store_one_diag(4))
    assert rep.alpha == pytest.approx(1.0, abs=1e-9)
    assert rep.cheat_upper == pytest.approx(0.5, abs=1e-6)
    assert rep.cheat_lower == pytest.approx(0.5, abs=1e-6)
    assert rep.cheat_lower <= rep.cheat_upper + 1e-9
    assert rep.weak_holds
    js = rep.to_json()
    assert js["cheatUpper"] == pytest.approx(rep.cheat_upper)


def test_binding_bracket_closes_for_stored_qubits():
    # one certified solver serves every memory size: a product committer
    # storing two qubits (D = 4) and dense committers with one ancilla and
    # one stored qubit (D = 2) get a bracket gap of at most 1e-9
    rng = np.random.default_rng(43)
    committers = [product_adversary("product-q2", 6,
                                    {0: "+", 2: "x", 3: "x", 5: "+"},
                                    kept=(1, 4))]
    for n in (2, 3):
        u = np.linalg.qr(rng.normal(size=(2 ** (n + 1),) * 2)
                         + 1j * rng.normal(size=(2 ** (n + 1),) * 2))[0]
        committers.append(BoundedAdversary(f"haar-n{n}", n, kept=(n,),
                                           ancillas=1, unitary=u))
    for adv in committers:
        rep = protocols.check_binding(adv)
        assert rep.cheat_lower <= rep.cheat_upper + 1e-12
        assert rep.cheat_upper - rep.cheat_lower <= 1e-9, \
            (adv.name, rep.cheat_lower, rep.cheat_upper)
        assert rep.cheat_upper <= sum(rep.cheat_joint) + 1e-12
        assert rep.weak_holds


def test_binding_guards():
    with pytest.raises(ValueError):
        protocols.check_binding(all_plus(9))


# ------------------------------------------------------- POVM value brackets

def random_psd_stack(rng, outcomes, d):
    ops = []
    for _ in range(outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ops.append(g @ g.conj().T)
    ops = np.stack(ops)
    return ops / np.trace(ops.sum(axis=0)).real


def test_povm_upper_matches_helstrom_for_two_outcomes():
    rng = np.random.default_rng(33)
    for _ in range(15):
        ops = random_psd_stack(rng, 2, 2)
        lower, upper = protocols._povm_bracket(ops)
        exact = oracles.helstrom_value(ops[0], ops[1])
        assert upper == pytest.approx(exact, abs=1e-7)
        assert upper >= exact - 1e-9  # certificate side never dips below
        assert lower <= exact + 1e-9


def test_povm_bracket_diagonal_stacks():
    rng = np.random.default_rng(35)
    for _ in range(10):
        diags = rng.uniform(0.0, 1.0, size=(4, 2))
        diags /= diags.sum()
        ops = np.zeros((4, 2, 2), dtype=complex)
        ops[:, 0, 0] = diags[:, 0]
        ops[:, 1, 1] = diags[:, 1]
        exact = oracles.diagonal_povm_value(ops)
        lower, upper = protocols._povm_bracket(ops)
        assert upper >= exact - 1e-9
        assert upper == pytest.approx(exact, abs=1e-12)
        assert lower == pytest.approx(exact, abs=1e-12)


def test_povm_bracket_random_stacks():
    rng = np.random.default_rng(37)
    for outcomes in (2, 3, 5):
        for _ in range(8):
            ops = random_psd_stack(rng, outcomes, 2)
            lower, upper = protocols._povm_bracket(ops)
            assert lower <= upper + 1e-9
            # any POVM value is at most the total mass
            assert upper <= float(np.trace(ops.sum(axis=0)).real) + 1e-9


def test_povm_scalar_and_large_dims():
    ops = np.array([[[0.3]], [[0.5]], [[0.2]]])
    lower, upper = protocols._povm_bracket(ops)
    assert upper == pytest.approx(0.5)
    assert lower == pytest.approx(0.5)
    rng = np.random.default_rng(39)
    ops = random_psd_stack(rng, 3, 4)
    lower, upper = protocols._povm_bracket(ops)
    assert lower <= upper + 1e-9


def test_povm_bracket_batch_matches_single_stacks():
    # a batched call brackets each stack exactly as a call on that stack
    # alone: stacks leave the batch one by one as their gaps close
    rng = np.random.default_rng(41)
    for outcomes, d in ((1, 1), (5, 1), (4, 2), (3, 4)):
        ops = np.stack([random_psd_stack(rng, outcomes, d)
                        for _ in range(6)]).reshape(2, 3, outcomes, d, d)
        ops[1, 2] = 0.0                      # a record without mass
        lower, upper = protocols._povm_bracket(ops)
        assert lower.shape == upper.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            lo, up = protocols._povm_bracket(ops[i, j])
            assert lower[i, j] == lo and upper[i, j] == up, (outcomes, d, i, j)
        assert lower[1, 2] == upper[1, 2] == 0.0


def test_binding_error_bound_formula():
    assert protocols.binding_error_bound(10.0, 0) == pytest.approx(
        2.0 * 2.0 ** ((1.0 - 5.0) / 2.0))
    assert (protocols.binding_error_bound(10.0, 1)
            > protocols.binding_error_bound(10.0, 0))
    assert (protocols.binding_error_bound(12.0, 0)
            < protocols.binding_error_bound(10.0, 0))


# -------------------------------------------------------- receiver security

def script_battery(n, l, seed=0):
    rng = np.random.default_rng(seed)
    theta = tuple(int(v) for v in rng.integers(0, 2, size=n))
    f0 = sample_hash(n, l, rng)
    f1 = sample_hash(n, l, rng)
    mixed = qsim.DensityOperator((2,) * n, np.eye(2 ** n) / 2 ** n)
    amps = np.zeros(2 ** (n + 1), dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = 1.0 / math.sqrt(2.0)
    ghz = qsim.StateVector((2,) * n + (2,), amps)
    prod = np.array([1.0])
    for i in range(n):
        a = 0.3 + 0.2 * i
        prod = np.kron(prod, np.array([math.cos(a), math.sin(a)]))
    tilted = qsim.StateVector((2,) * n, prod.astype(complex))
    return [
        ScriptedSender("uniform-comp", n, mixed, (), theta, f0, f1),
        ScriptedSender("ghz-side", n, ghz, (2,), theta, f0, f1),
        ScriptedSender("tilted-product", n, tilted, (), theta, f0, f1),
    ]


def test_receiver_leaks_nothing():
    for n in (3, 4):
        for sender in script_battery(n, 1, seed=n):
            rep = protocols.check_receiver_security(sender, 1)
            assert rep.holds, rep
            assert rep.distance == pytest.approx(0.0, abs=1e-9)
            assert rep.independence == pytest.approx(0.0, abs=1e-9)
            assert rep.output_match_probability == pytest.approx(1.0,
                                                                 abs=1e-7)
            js = rep.to_json()
            assert js["label"] == sender.label


def test_receiver_check_biased_prior():
    sender = script_battery(3, 1, seed=9)[0]
    rep = protocols.check_receiver_security(sender, 1, prior_c=(0.8, 0.2))
    assert rep.holds
    with pytest.raises(ValueError):
        protocols.check_receiver_security(sender, 1, prior_c=(0.7, 0.1))


def test_receiver_check_guards():
    with pytest.raises(qsim.DimensionMismatchError):
        ScriptedSender("bad", 3,
                       qsim.DensityOperator((2, 2), np.eye(4) / 4.0), (),
                       (0, 0, 0), sample_hash(3, 1, np.random.default_rng(0)),
                       sample_hash(3, 1, np.random.default_rng(1)))
    with pytest.raises(ValueError):
        ScriptedSender("bad", 2,
                       qsim.DensityOperator((2, 2), np.eye(4) / 4.0), (),
                       (0,), sample_hash(2, 1, np.random.default_rng(0)),
                       sample_hash(2, 1, np.random.default_rng(1)))
    big = script_battery(7, 1)[0]
    with pytest.raises(ValueError):
        protocols.check_receiver_security(big, 1)
