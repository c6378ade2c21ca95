import math

import numpy as np
import pytest

import oracles
from minentlab import qsim, uncertainty
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

def test_numeric_bound_bb84_finds_half():
    comp, diag, _ = qsim.standard_bases_qubit()
    res = uncertainty.numeric_average_bound((comp, diag), starts=8,
                                            max_iter=400, seed=3)
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-5)
    # the minimizer's average entropy really is the reported value
    rot = [b.vectors.conj().T for b in (comp, diag)]
    check = uncertainty._average_entropy(res.minimizer.amplitudes, rot)
    assert check == pytest.approx(res.value, abs=1e-12)


def test_numeric_bound_reproducible():
    comp, diag, _ = qsim.standard_bases_qubit()
    a = uncertainty.numeric_average_bound((comp, diag), starts=4,
                                          max_iter=200, seed=11)
    b = uncertainty.numeric_average_bound((comp, diag), starts=4,
                                          max_iter=200, seed=11)
    assert a.value == b.value
    assert a.iterations == b.iterations
    with pytest.raises(ValueError):
        uncertainty.numeric_average_bound(())


def test_numeric_bound_single_basis_is_zero():
    # one basis: any basis vector has zero outcome entropy
    comp, _, _ = qsim.standard_bases_qubit()
    res = uncertainty.numeric_average_bound((comp,), starts=2, max_iter=100)
    assert res.value == pytest.approx(0.0, abs=1e-9)


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
    rng = np.random.default_rng(19)
    for sb in (uncertainty.bb84_basis_set(), uncertainty.six_state_basis_set()):
        worst = sb.spot_check(300, rng)
        assert worst >= sb.h - 1e-7


def test_numeric_basis_set_provenance():
    comp, diag, _ = qsim.standard_bases_qubit()
    sb = uncertainty.numeric_basis_set((comp, diag), starts=8, max_iter=400)
    assert sb.h_provenance == "numeric"
    assert sb.h == pytest.approx(0.5, abs=1e-5)


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


def test_relation_haar_family_numeric_h():
    # a two-basis family built from Haar draws, with a numerically certified h
    rng = np.random.default_rng(31)
    bases = (qsim.haar_random_basis(2, rng), qsim.haar_random_basis(2, rng))
    sb = uncertainty.numeric_basis_set(bases, starts=16, max_iter=400)
    psi = oracles.random_pure(4, rng)
    rep = uncertainty.verify_uncertainty_relation(
        qsim.StateVector((2, 2), psi), sb, 0.05)
    assert rep.holds, rep
