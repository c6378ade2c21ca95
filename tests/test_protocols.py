import itertools
import math
import warnings

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
    # both honest runs check their arguments alike
    for run in (protocols.run_ot, protocols.run_epr_ot):
        with pytest.warns(UserWarning, match="exceeds n/2"):
            run(4, 3, 0, 0)
        with pytest.raises(ValueError):
            run(0, 1, 0, 0)
        with pytest.raises(ValueError):
            run(4, 1, 2, 0)


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


def test_honest_runs_match_per_qubit_reference():
    # the runs draw every outcome from one table; the reference replays
    # their draws with one qsim.measure per qubit (or EPR pair)
    for seed in range(21):
        for n in (1, 8, 30):
            for c in (0, 1):
                want = oracles.honest_run_oracle(n, c, seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # l > n/2
                    ot = protocols.run_ot(n, 1, c, seed)
                    epr = protocols.run_epr_ot(n, 1, c, seed)
                assert (ot.x, ot.theta, ot.x_prime) == want
                com = protocols.run_commit(n, c, seed)
                assert (com.x, com.theta, com.x_prime) == want
                assert (epr.x, epr.theta, epr.x_prime) == (
                    oracles.honest_run_oracle(n, c, seed, epr=True))


def test_epr_outcome_table_exact():
    # exact projector arithmetic: the receiver's outcome x' in [+,x]_c is
    # uniform and collapses the sender's half, measured in [+,x]_theta, to
    # the prepare-and-measure law table[c, x', theta] that run_epr_ot draws
    # the sender's bit from
    bases = qsim.standard_bases_qubit()[:2]
    table = qsim.outcome_table(bases)
    for c in (0, 1):
        probs, branches = qsim.measure(qsim.epr_pair().to_density(),
                                       {1: bases[c]}, return_branches=True)
        for xp in (0, 1):
            assert probs[(xp,)] == pytest.approx(0.5, abs=1e-12)
            half = qsim.partial_trace(branches[(xp,)], [0]).normalized()
            for t in (0, 1):
                out = qsim.measure(half, {0: bases[t]})
                assert table[c, xp, t] == pytest.approx(out[(1,)], abs=1e-12)
                if t == c:
                    # same basis: outcomes agree with certainty
                    assert out[(xp,)] == pytest.approx(1.0, abs=1e-12)
                else:
                    assert out[(0,)] == pytest.approx(0.5, abs=1e-12)
                    assert out[(1,)] == pytest.approx(0.5, abs=1e-12)


def test_run_epr_ot_frequencies():
    t = protocols.run_epr_ot(80_000, 1, 0, seed=5)
    x, xp, theta = (np.array(v) for v in (t.x, t.x_prime, t.theta))
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


# adversary files the reader refuses: not an object, no n, a unitary
# without its imaginary part, kept not a list, ancillas beside per-wire bases
MALFORMED_ADVERSARIES = (
    {"name": "x"},
    {"n": 2, "unitary": {"re": [[1, 0], [0, 1]]}},
    [1, 2],
    {"n": 2, "measure": {"0": "+", "1": "x"}, "kept": None},
    {"n": 2, "kept": [0], "measure": {"1": "+"}, "ancillas": "a"},
)


def test_adversary_from_json_refuses_malformed_files():
    for data in MALFORMED_ADVERSARIES:
        with pytest.raises(ValueError):
            BoundedAdversary.from_json(data)
    # a file past the checkers' gate is refused before its 2^n attack
    with pytest.raises(ValueError, match="exact checkers handle"):
        BoundedAdversary.from_json(
            {"n": 40, "measure": {str(i): "+" for i in range(40)}})


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
    # 2^(-n/2); p is its mass, and the real coordinates of its memory
    # operator are those of the outer product
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
        size = (1, 4, 32)[adv.q]
        strings = list(itertools.product((0, 1), repeat=n))
        assert [tab.theta for tab in tableaux] == strings, adv.name
        for tab in tableaux:
            codes = [protocols._subset_codes(
                n, protocols._subset_indices(tab.theta, b)) for b in (0, 1)]
            m1 = sum(tab.theta)
            assert tab.a.shape == (2 ** (n - m1), 2 ** m1, k_count, mem_dim)
            coords = qsim._outer_coordinates(tab.a)
            assert coords.shape == (size,) + tab.a.shape[:3]
            cells = set()
            for xi, x in enumerate(strings):
                want = np.zeros((k_count, mem_dim), complex)
                for k, amp in table[(x, tab.theta)]:
                    want[k] = amp
                cell = (codes[0][xi], codes[1][xi])
                cells.add(cell)
                assert np.allclose(tab.a[cell] * scale, want, atol=1e-12)
                assert np.allclose(tab.p[cell] * scale ** 2,
                                   (np.abs(want) ** 2).sum(axis=1), atol=1e-12)
                assert np.allclose(
                    coords[(slice(None),) + cell] * scale ** 2,
                    qsim._coordinates(np.einsum("ki,kj->kij", want,
                                                want.conj())),
                    atol=1e-12)
            assert len(cells) == 2 ** n      # (x0, x1) covers every x once


def one_pass_alpha(adv):
    """alpha from the checks' one walk, visiting nothing."""
    return protocols._EprAttack(adv).split_walk(lambda s, tab, mask: None)[0]


def test_alpha_matches_oracle():
    cases = [all_plus(4), store_one_diag(4), all_breidbart(3)]
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))[0]
    cases.append(BoundedAdversary("haar", 3, kept=(0,), ancillas=1, unitary=u))
    for adv in cases:
        engine = one_pass_alpha(adv)
        oracle = oracles.min_entropy_alpha_oracle(adv)
        assert engine == pytest.approx(oracle, abs=1e-9), adv.name


def test_alpha_known_values():
    zero = one_pass_alpha(all_plus(4))
    assert zero == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, zero) == 1.0      # +0.0, reported as 0.0
    assert one_pass_alpha(store_one_diag(5)) == (
        pytest.approx(1.0, abs=1e-9))
    got = one_pass_alpha(all_breidbart(3))
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
    # q = 2: 4x4 memory operators, the float64-view coordinates
    cases.append(product_adversary("q2", 3, {1: "x"}, kept=(0, 2)))
    cases.append(product_adversary("q2b", 4, {0: "x", 3: "breidbart"},
                                   kept=(1, 2)))
    for adv in cases:
        rep = protocols.check_sender_security(adv)
        oracle_d, oracle_p = oracles.sender_distance_oracle(adv, rep.tau)
        assert rep.distance == pytest.approx(oracle_d, abs=1e-9), adv.name
        assert rep.prob_cprime1 == pytest.approx(oracle_p, abs=1e-9), adv.name


def test_sender_distance_matches_complex_reference():
    # mid-size cases beyond the enumeration oracle (n <= 4): the complex
    # transform path of tests/oracles.py, the same identity in other
    # arithmetic
    cases = [make(n) for n in (5, 6, 7)
             for make in (all_plus, store_one_diag, all_breidbart)]
    cases.append(product_adversary(
        "q2", 6, {0: "x", 1: "+", 3: "breidbart", 5: "x"}, kept=(2, 4)))
    rng = np.random.default_rng(31)
    u = np.linalg.qr(rng.normal(size=(64, 64))
                     + 1j * rng.normal(size=(64, 64)))[0]
    cases.append(BoundedAdversary("haar", 5, kept=(3,), ancillas=1, unitary=u))
    for adv in cases:
        rep = protocols.check_sender_security(adv)
        engine = (rep.distance, rep.prob_cprime1)
        reference = oracles.family_average_distance_complex(
            protocols._EprAttack(adv), rep.tau)
        for got, want in zip(engine, reference):
            assert want > 0.0, adv.name
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), adv.name


def haar_one_ancilla(n, seed):
    """Dense one-ancilla attack keeping one random wire (q = 1)."""
    rng = np.random.default_rng(seed)
    dim = 2 ** (n + 1)
    u = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    return BoundedAdversary(f"haar-n{n}-{seed}", n,
                            kept=(int(rng.integers(n + 1)),), ancillas=1,
                            unitary=u)


@pytest.fixture
def redone(monkeypatch):
    """The basis strings a check re-rotates after its walk."""
    strings = []
    tableau = protocols._EprAttack.tableau

    def counted(self, theta):
        strings.append(theta)
        return tableau(self, theta)

    monkeypatch.setattr(protocols._EprAttack, "tableau", counted)
    return strings


def test_one_walk_sender_matches_two_walks(redone):
    # dense receivers whose early heavy masks move once tau reaches its
    # final value, and built-ins whose masks never move: the one-walk
    # figures are bit for bit those of alpha first, distance second
    cases = [(haar_one_ancilla(5, 3), 11), (haar_one_ancilla(6, 3), 14),
             (all_plus(5), 0), (store_one_diag(5), 0), (all_breidbart(5), 0)]
    for adv, count in cases:
        redone.clear()
        rep = protocols.check_sender_security(adv)
        assert len(redone) == count, adv.name
        assert (rep.alpha, rep.tau, rep.distance, rep.prob_cprime1) == (
            oracles.sender_two_pass(adv)), adv.name


def test_one_walk_binding_matches_two_walks(redone):
    # a redone string swaps its running-mask conditional openings for the
    # final ones; the bracket ends agree with the two-walk operators within
    # the solver's tolerance, and exactly when nothing is redone
    cases = [(haar_one_ancilla(3, 4), 3), (haar_one_ancilla(4, 2), 5),
             (store_one_diag(4), 0), (all_breidbart(4), 0)]
    for adv, count in cases:
        redone.clear()
        rep = protocols.check_binding(adv)
        assert len(redone) == count, adv.name
        ref = protocols._binding_report(
            adv, *oracles.binding_openings_two_pass(adv))
        assert (rep.alpha, rep.tau) == (ref.alpha, ref.tau), adv.name
        if count == 0:
            assert rep == ref, adv.name
            continue
        for name in ("prob_bound_bit", "cheat_joint", "open_success",
                     "cheat_upper", "cheat_lower", "weak_sum"):
            assert getattr(rep, name) == pytest.approx(
                getattr(ref, name), abs=1e-9), (adv.name, name)


def test_binding_check_can_fail_at_desk_scale():
    # a committer measuring every wire in the circular basis at n = 7: its
    # binding link is not capped at 1, so scaling the opening operators
    # past eps makes holds fail (n = 6 would round eps_raw to 1 - ulp)
    adv = product_adversary("circular", 7, {i: "o" for i in range(7)})
    rep = protocols.check_binding(adv)
    alpha, tau, opening, prob_bb = oracles.binding_openings_two_pass(adv)
    assert rep == protocols._binding_report(adv, alpha, tau, opening, prob_bb)
    assert rep.cheat_upper == rep.cheat_lower == 0.023132324218749993
    assert rep.eps_raw == rep.eps == 0.8408964152537143
    assert not rep.trivial and rep.holds
    inflated = protocols._binding_report(adv, alpha, tau, 40.0 * opening,
                                         prob_bb)
    assert inflated.cheat_upper > inflated.eps
    assert not inflated.holds


def test_q0_binding_openings_are_exact():
    # with no stored qubit every opening operator is a number, and the best
    # opening of a record is the largest: both bracket ends are exactly
    # sum over records of the largest operator over targets and x'
    for adv in (all_plus(5), all_breidbart(5), all_plus(7)):
        rep = protocols.check_binding(adv)
        opening = oracles.binding_openings_two_pass(adv)[2]
        best = opening[0, :, 0].max(axis=1)           # (target, record)
        want = float(best.max(axis=0).sum())
        assert rep.cheat_lower == rep.cheat_upper == want, adv.name


def test_sender_check_builds_no_complex_operator_for_q_le_1(monkeypatch):
    # q <= 1 sender checks run on real coordinates only; the binding check
    # turns its summed coordinates into complex operators once, before the
    # POVM solver
    calls = []
    real = qsim._coordinate_matrices

    def counted(coords):
        calls.append(coords.shape)
        return real(coords)

    monkeypatch.setattr(qsim, "_coordinate_matrices", counted)
    for adv in (all_plus(5), store_one_diag(5)):
        protocols.check_sender_security(adv)
    assert calls == []
    protocols.check_binding(store_one_diag(5))
    assert len(calls) == 1


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


@pytest.fixture
def povm_steps(monkeypatch):
    """The stack counts of every `_povm_step` call."""
    calls = []
    step = protocols._povm_step

    def counted(m, f):
        calls.append(len(m))
        return step(m, f)

    monkeypatch.setattr(protocols, "_povm_step", counted)
    return calls


def test_binding_raw_storage_closes_without_iteration(povm_steps):
    # a committer that keeps received qubits untouched hands the solver
    # commuting stacks only: the eigenbasis candidate and its dual close
    # every bracket, and the iteration never runs
    for adv in (store_one_diag(4),
                product_adversary("product-q2", 5, {0: "+", 2: "x", 4: "+"},
                                  kept=(1, 3))):
        rep = protocols.check_binding(adv)
        assert 0.0 <= rep.cheat_upper - rep.cheat_lower <= 1e-13, adv.name
    assert povm_steps == []


def test_binding_haar_reports_match_the_iteration(povm_steps):
    # dense committers give stacks that do not commute: they fall through
    # to the square-root measurement and its iteration, and their reports
    # keep every bit they had before the candidate was tried first
    want = [
        "BindingReport(name='haar-n2-1', n=2, q=1, alpha=0.8904471326901364, "
        "tau=0.7344704910543651, prob_bound_bit=(0.7499999999999998, "
        "0.24999999999999997), cheat_joint=(0.49227907652896874, "
        "0.17748430321213576), cheat_upper=0.49227907652896874, "
        "cheat_lower=0.4922790765289603, open_success=(0.8036450771570831, "
        "0.7422790765290666), eps_raw=3.428050153785654, eps=1.0, "
        "trivial=True, holds=True, weak_sum=1.5459241536861497, "
        "weak_holds=True)",
        "BindingReport(name='haar-n2-2', n=2, q=1, alpha=0.6192560097585594, "
        "tau=0.8068497764947562, prob_bound_bit=(0.7499999999999999, "
        "0.25000000000000006), cheat_joint=(0.5277699958738808, "
        "0.1806746762517054), cheat_upper=0.5277699958738808, "
        "cheat_lower=0.5277699958737941, open_success=(0.8457189507277523, "
        "0.7777699958738911), eps_raw=3.592992683532225, eps=1.0, "
        "trivial=True, holds=True, weak_sum=1.6234889466016433, "
        "weak_holds=True)"]
    for seed, rep in zip((1, 2), want):
        assert repr(protocols.check_binding(haar_one_ancilla(2, seed))) == rep
    assert povm_steps


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


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_povm_bracket_commuting_stacks_skip_the_iteration(povm_steps):
    # U diag(d_x) U^dagger for a Haar U: the candidate's basis diagonalizes
    # every M_x, so the dual closes the bracket on the diagonal optimum
    # before any iteration; two equal diagonal columns make the generic
    # combination degenerate, and any basis of that eigenspace still works
    rng = np.random.default_rng(45)
    cases = [(d, outcomes, False) for d in (2, 4) for outcomes in (2, 5, 16)]
    cases += [(4, 5, True), (2, 16, True)]
    for d, outcomes, degenerate in cases:
        diags = rng.uniform(0.0, 1.0, size=(outcomes, d))
        if degenerate:
            diags[:, 1] = diags[:, 0]
        diags /= diags.sum()
        u = haar_unitary(rng, d)
        ops = np.einsum("ij,xj,kj->xik", u, diags, u.conj())
        exact = oracles.diagonal_povm_value(u.conj().T @ ops @ u)
        lower, upper = protocols._povm_bracket(ops)
        assert exact - 1e-12 <= lower <= upper <= exact + 1e-12, (d, outcomes)
        assert upper - lower <= protocols.POVM_GAP, (d, outcomes)
    assert povm_steps == []
    # a random stack does not commute and reaches the iteration
    protocols._povm_bracket(random_psd_stack(rng, 3, 2))
    assert povm_steps


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


def test_attack_and_receiver_size_gates():
    # one message per limit, from the library, whoever calls it
    protocols.check_attack_size(1)
    protocols.check_attack_size(protocols.MAX_ATTACK_QUBITS)
    for n in (0, -1, protocols.MAX_ATTACK_QUBITS + 1):
        with pytest.raises(ValueError, match=f"got n = {n}"):
            protocols.check_attack_size(n)
    protocols.check_receiver_size(protocols.MAX_RECEIVER_QUBITS)
    with pytest.raises(ValueError, match="got n = 7"):
        protocols.check_receiver_size(protocols.MAX_RECEIVER_QUBITS + 1)
    with pytest.raises(ValueError, match="exact checkers handle"):
        protocols.check_binding(all_plus(protocols.MAX_ATTACK_QUBITS + 1))


def test_receiver_check_rejects_mismatched_hash_lengths():
    # hashes must take the n transmitted bits ...
    rng = np.random.default_rng(2)
    sender = script_battery(3, 1)[0]
    for f0, f1 in ((sample_hash(2, 1, rng), sender.f1),
                   (sender.f0, sample_hash(4, 1, rng))):
        with pytest.raises(ValueError, match="input bits"):
            ScriptedSender("bad", 3, sender.state, (), sender.theta, f0, f1)
    # ... and the check's l must be the output length of both
    for l in (2, 5):
        with pytest.raises(ValueError, match="output bits"):
            protocols.check_receiver_security(sender, l)
    two = ScriptedSender("mixed-lengths", 3, sender.state, (), sender.theta,
                         sample_hash(3, 1, rng), sample_hash(3, 2, rng))
    for l in (1, 2, 5):
        with pytest.raises(ValueError, match="output bits"):
            protocols.check_receiver_security(two, l)
