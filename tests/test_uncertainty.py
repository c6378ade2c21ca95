import math

import numpy as np
import pytest

import oracles
from minentlab import cli, qsim, uncertainty
from minentlab.protocols import breidbart_basis


# ------------------------------------------------------------- closed forms

def test_two_basis_bound_knowns():
    comp, diag, circ = qsim.standard_bases_qubit()
    assert uncertainty.maassen_uffink_bound(comp, diag) == pytest.approx(0.5)
    assert uncertainty.maassen_uffink_bound(comp, circ) == pytest.approx(0.5)
    assert uncertainty.maassen_uffink_bound(diag, circ) == pytest.approx(0.5)
    # breidbart sits halfway between comp and diag: overlap cos(pi/8)
    got = uncertainty.maassen_uffink_bound(comp, breidbart_basis())
    assert got == pytest.approx(-math.log2(math.cos(math.pi / 8) ** 2) / 2)
    # same basis twice: overlap 1, bound 0
    assert uncertainty.maassen_uffink_bound(comp, comp) == pytest.approx(0.0)
    with pytest.raises(qsim.DimensionMismatchError):
        uncertainty.maassen_uffink_bound(
            comp, qsim.Basis("b3", np.eye(3)))


def test_six_state_bound_value():
    assert uncertainty.six_state_bound() == pytest.approx(2.0 / 3.0)


def test_overall_bound_matches_harmonic_oracle():
    for d in (2, 3, 4, 8, 16, 64):
        assert uncertainty.overall_bound(d) == pytest.approx(
            oracles.harmonic_bound(d), abs=1e-12)
    assert uncertainty.overall_bound(2) == pytest.approx(0.5 / math.log(2))
    with pytest.raises(ValueError):
        uncertainty.overall_bound(1)


def test_overall_bound_gate():
    top = uncertainty.MAX_OVERALL_DIM
    assert uncertainty.overall_bound(top) == pytest.approx(
        oracles.harmonic_bound(top), abs=1e-12)
    for d in (top + 1, 100_000_000):
        with pytest.raises(ValueError):
            uncertainty.overall_bound(d)


# ----------------------------------------------------------- numeric search

def _qubit_families():
    """Closed-form and degenerate families, and haar:k drawn as the CLI
    draws them."""
    comp, diag, circ = qsim.standard_bases_qubit()
    fams = {"bb84": (comp, diag), "sixstate": (comp, diag, circ),
            "plus": (comp,), "plus-plus": (comp, comp),
            "plus-x-x": (comp, diag, diag), "plus-breidbart":
            (comp, breidbart_basis()), "x-circular": (diag, circ)}
    for k in (2, 3, 4, 6):
        for seed in (0, 1, 2, 5, 7):
            fams[f"haar:{k}/{seed}"] = cli._parse_bases_spec(f"haar:{k}",
                                                             seed)
    return fams


def test_numeric_bound_bb84_finds_half():
    comp, diag, _ = qsim.standard_bases_qubit()
    res = uncertainty.numeric_average_bound((comp, diag))
    assert res.converged
    assert res.value == 0.5
    assert 0.5 - uncertainty.NUMERIC_GAP <= res.lower <= 0.5
    # the minimizer's average entropy really is the reported value
    rot = [b.vectors.conj().T for b in (comp, diag)]
    check = uncertainty._average_entropy(res.minimizer.amplitudes, rot)
    assert check == res.value


def test_numeric_bound_brackets_oracle_minimum():
    for name, bases in _qubit_families().items():
        res = uncertainty.numeric_average_bound(bases)
        assert res.converged, name
        assert res.value - res.lower <= 1e-12, name
        want = oracles.min_average_entropy_oracle(bases)
        assert res.lower <= want <= res.value + 1e-9, (name, res, want)


def test_numeric_bound_reproducible():
    comp, diag, _ = qsim.standard_bases_qubit()
    a = uncertainty.numeric_average_bound((comp, diag))
    b = uncertainty.numeric_average_bound((comp, diag))
    assert (a.value, a.lower) == (b.value, b.lower)
    assert a.squares == b.squares
    with pytest.raises(ValueError):
        uncertainty.numeric_average_bound(())


def test_numeric_bound_single_basis_is_zero():
    # one basis: any basis vector has zero outcome entropy
    comp, _, _ = qsim.standard_bases_qubit()
    res = uncertainty.numeric_average_bound((comp,))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.lower == 0.0 and res.converged


def test_numeric_bound_frontier_cap_leaves_bracket_open(monkeypatch):
    # a capped search stops with a sound but open bracket, and a basis set
    # is refused rather than built from it
    monkeypatch.setattr(uncertainty, "MAX_FRONTIER", 16)
    comp, diag, _ = qsim.standard_bases_qubit()
    res = uncertainty.numeric_average_bound((comp, diag))
    assert not res.converged
    assert res.lower <= 0.5 <= res.value
    with pytest.raises(ValueError):
        uncertainty.numeric_basis_set((comp, diag))


def test_numeric_bound_refuses_qutrits():
    rng = np.random.default_rng(3)
    bases = [qsim.haar_random_basis(3, rng) for _ in range(2)]
    with pytest.raises(ValueError):
        uncertainty.numeric_average_bound(bases)
    with pytest.raises(ValueError):
        uncertainty.numeric_basis_set(bases)


# ------------------------------------------------------------------ BasisSet

def test_basis_set_validation():
    comp, diag, _ = qsim.standard_bases_qubit()
    with pytest.raises(ValueError):
        uncertainty.BasisSet((), 0.5, "supplied")
    with pytest.raises(ValueError):
        uncertainty.BasisSet((comp, diag), 1.5, "supplied")  # h > log2 d
    with pytest.raises(ValueError):
        uncertainty.BasisSet((comp, diag), -0.1, "supplied")
    with pytest.raises(qsim.DimensionMismatchError):
        uncertainty.BasisSet((comp, qsim.Basis("b3", np.eye(3))), 0.5, "x")
    sb = uncertainty.bb84_basis_set()
    assert sb.dim == 2 and sb.h == 0.5 and sb.h_provenance == "closed-form"
    assert uncertainty.six_state_basis_set().h == pytest.approx(2.0 / 3.0)


def test_basis_set_spot_check_respects_bound():
    # a closed-form h is no larger than the oracle's minimum
    for sb in (uncertainty.bb84_basis_set(), uncertainty.six_state_basis_set()):
        assert sb.h <= oracles.min_average_entropy_oracle(sb.bases) + 1e-12


def test_numeric_basis_set_provenance():
    comp, diag, _ = qsim.standard_bases_qubit()
    sb = uncertainty.numeric_basis_set((comp, diag))
    assert sb.h_provenance == "numeric"
    # h is the certified lower end of the bracket, not the upper value
    assert sb.h == uncertainty.numeric_average_bound((comp, diag)).lower
    assert 0.5 - uncertainty.NUMERIC_GAP <= sb.h <= 0.5


# ------------------------------------------------- n-fold bound and verifier

def test_uncertainty_bound_composes_epsilon():
    from minentlab.concentration import dependent_sequence_epsilon
    sb = uncertainty.six_state_basis_set()
    ub = uncertainty.measurement_uncertainty_bound(sb, 50, 0.1)
    assert ub.eps == pytest.approx(
        dependent_sequence_epsilon(0.1, 50, len(sb.bases) * sb.dim))
    assert ub.bound == pytest.approx((2.0 / 3.0 - 0.2) * 50)
    assert ub.to_json()["h"] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        uncertainty.measurement_uncertainty_bound(sb, 0, 0.1)


def test_relation_all_zeros_bb84():
    # |0..0>: computational positions give 0 bits, diagonal ones 1 bit each,
    # so the exact conditional Shannon entropy is n/2
    sb = uncertainty.bb84_basis_set()
    for n in (2, 4):
        state = qsim.StateVector((2,) * n,
                                 np.eye(2 ** n)[0].astype(complex))
        rep = uncertainty.verify_uncertainty_relation(state, sb, 0.05)
        assert rep.holds
        assert rep.shannon_conditional == pytest.approx(n / 2.0, abs=1e-9)
        assert rep.smooth_min_entropy >= rep.bound - 1e-9
        js = rep.to_json()
        assert js["holds"] and js["n"] == n


def test_relation_haar_states_small_n():
    rng = np.random.default_rng(23)
    sb = uncertainty.six_state_basis_set()
    for n in (1, 2, 3):
        psi = oracles.random_pure(2 ** n, rng)
        state = qsim.StateVector((2,) * n, psi)
        rep = uncertainty.verify_uncertainty_relation(state, sb, 0.1)
        assert rep.holds, rep


def test_relation_accepts_density_operators():
    sb = uncertainty.bb84_basis_set()
    rng = np.random.default_rng(29)
    rho = qsim.DensityOperator((2, 2), oracles.random_density(4, rng))
    rep = uncertainty.verify_uncertainty_relation(rho, sb, 0.05)
    assert rep.holds
    # maximally mixed state: every basis string gives the uniform string
    mixed = qsim.DensityOperator((2, 2), np.eye(4) / 4.0)
    rep = uncertainty.verify_uncertainty_relation(mixed, sb, 0.05)
    assert rep.shannon_conditional == pytest.approx(2.0)


def test_relation_input_errors():
    sb = uncertainty.bb84_basis_set()
    with pytest.raises(TypeError):
        uncertainty.verify_uncertainty_relation(np.eye(2) / 2, sb, 0.05)
    with pytest.raises(qsim.DimensionMismatchError):
        uncertainty.verify_uncertainty_relation(
            qsim.StateVector((3,), [1.0, 0.0, 0.0]), sb, 0.05)
    big = qsim.StateVector((2,) * 12, np.eye(2 ** 12)[0].astype(complex))
    with pytest.raises(ValueError):
        uncertainty.verify_uncertainty_relation(big, sb, 0.05)


def test_relation_size_gate_refuses_nonpositive_n():
    for sb in (uncertainty.bb84_basis_set(),
               uncertainty.six_state_basis_set()):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be positive"):
                uncertainty.check_relation_size(sb, n)
        uncertainty.check_relation_size(sb, 1)


def test_relation_report_does_not_depend_on_block_size(monkeypatch):
    # against the default: one string per block, and blocks of a few
    # strings sized to the pure and to the mixed states, on both qubit
    # families
    rng = np.random.default_rng(53)
    for sb in (uncertainty.bb84_basis_set(),
               uncertainty.six_state_basis_set()):
        for n in range(1, 7):
            psi = oracles.random_pure(2 ** n, rng)
            rho = oracles.random_density(2 ** n, rng)
            states = (qsim.StateVector((2,) * n, psi),
                      qsim.DensityOperator((2,) * n, rho))
            for state in states:
                want = uncertainty.verify_uncertainty_relation(state, sb, 0.05)
                for size in (1, 4 * 2 ** n, 4 * 4 ** n):
                    monkeypatch.setattr(qsim, "WALK_BLOCK", size)
                    got = uncertainty.verify_uncertainty_relation(state, sb,
                                                                  0.05)
                    monkeypatch.undo()
                    assert got == want, (len(sb.bases), n, size)


def test_relation_reports_pinned_across_blocks():
    # BB84 n=9 spans 2^9 / 2^6 blocks, the n=6 density 2^6 / 2^2 blocks;
    # every field keeps its repr from the one-string-at-a-time walk
    sb = uncertainty.bb84_basis_set()
    rng = np.random.default_rng(7)
    amps = rng.normal(size=2 ** 9) + 1j * rng.normal(size=2 ** 9)
    rep = uncertainty.verify_uncertainty_relation(
        qsim.StateVector((2,) * 9, amps / np.linalg.norm(amps)), sb, 0.05)
    assert repr(rep) == (
        "RelationReport(n=9, lam=0.05, eps=0.9999824074167115, bound=3.6, "
        "smooth_min_entropy=24.794648672598324, "
        "shannon_conditional=8.398844291074171, holds=True)")
    rng = np.random.default_rng(7)
    z = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    rho = z @ z.conj().T
    rep = uncertainty.verify_uncertainty_relation(
        qsim.DensityOperator((2,) * 6, rho / np.trace(rho).real), sb, 0.05)
    assert repr(rep) == (
        "RelationReport(n=6, lam=0.05, eps=0.999988271576752, "
        "bound=2.4000000000000004, smooth_min_entropy=22.379631402078388, "
        "shannon_conditional=5.989466068288825, holds=True)")


def test_relation_gates_before_the_spectral_form(monkeypatch):
    # an oversized density is refused before its eigendecomposition: nine
    # qubits under the six-state family are 6^9 atoms, over the gate
    def no_eigh(state):
        raise AssertionError("spectral_tensor ran before the size gate")

    big = qsim.DensityOperator((2,) * 9, np.eye(2 ** 9) / 2 ** 9)
    monkeypatch.setattr(qsim, "spectral_tensor", no_eigh)
    with pytest.raises(ValueError, match="joint too large"):
        uncertainty.verify_uncertainty_relation(
            big, uncertainty.six_state_basis_set(), 0.05)


def test_relation_haar_family_numeric_h():
    # a two-basis family built from Haar draws, with a numerically certified h
    rng = np.random.default_rng(31)
    bases = (qsim.haar_random_basis(2, rng), qsim.haar_random_basis(2, rng))
    sb = uncertainty.numeric_basis_set(bases)
    psi = oracles.random_pure(4, rng)
    rep = uncertainty.verify_uncertainty_relation(
        qsim.StateVector((2, 2), psi), sb, 0.05)
    assert rep.holds, rep


def test_relation_shannon_matches_kron_oracle():
    rng = np.random.default_rng(37)
    for sb in (uncertainty.bb84_basis_set(),
               uncertainty.six_state_basis_set()):
        rotations = [b.vectors.conj().T for b in sb.bases]
        for n in (2, 3, 4):
            psi = oracles.random_pure(2 ** n, rng)
            rho = oracles.random_density(2 ** n, rng)
            for state, arr in ((qsim.StateVector((2,) * n, psi), psi),
                               (qsim.DensityOperator((2,) * n, rho), rho)):
                joint = oracles.relation_joint_oracle(arr, rotations)
                # H(X|Theta) = H(X, Theta) - H(Theta), Theta uniform
                want = (oracles.shannon_bits(joint)
                        - n * math.log2(len(rotations)))
                rep = uncertainty.verify_uncertainty_relation(state, sb, 0.05)
                assert rep.shannon_conditional == pytest.approx(want,
                                                                abs=1e-12)
