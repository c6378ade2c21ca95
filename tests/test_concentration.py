import math

import numpy as np
import pytest

import oracles
from minentlab import concentration as conc
from minentlab.concentration import EntropyFloorViolation, SequenceModel


# ------------------------------------------------------------------- azuma

def test_azuma_formula_and_errors():
    assert conc.azuma_tail_bound(0.5, 1.0, 100) == pytest.approx(
        math.exp(-0.25 * 100 / 2.0))
    assert conc.azuma_tail_bound(0.5, 2.0, 100) == pytest.approx(
        math.exp(-0.25 * 100 / 8.0))
    for bad in ((0.0, 1.0, 10), (0.1, 0.0, 10), (0.1, 1.0, 0)):
        with pytest.raises(ValueError):
            conc.azuma_tail_bound(*bad)
    rep = conc.AzumaBound.evaluate(0.5, 1.0, 100)
    assert rep.to_json() == {"lambda": 0.5, "c": 1.0, "n": 100,
                             "bound": pytest.approx(math.exp(-12.5))}


def test_azuma_dominates_exact_binomial_tail():
    # fair +-1 steps have increments bounded by c = 1
    for n in (10, 50, 100):
        for lam in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            exact = oracles.binomial_tail_exact(n, lam)
            assert exact <= conc.azuma_tail_bound(lam, 1.0, n) + 1e-15, (
                f"n={n} lam={lam}")


def test_azuma_empirical_matches_exact():
    rng = np.random.default_rng(2)
    n, lam, trials = 100, 0.1, 200_000
    exact = oracles.binomial_tail_exact(n, lam)
    freq = conc.azuma_empirical_tail(lam, n, trials, rng)
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(freq - exact) <= 4.0 * sigma
    with pytest.raises(ValueError):
        conc.azuma_empirical_tail(0.0, n, 10, rng)
    with pytest.raises(ValueError):
        conc.azuma_empirical_tail(1.5, n, 10, rng)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            conc.azuma_empirical_tail(lam, n, trials, rng)


# ------------------------------------------------------------------ models

def test_model_floors():
    m = conc.iid_model([0.7, 0.3])
    assert m.entropy_floor == pytest.approx(oracles.shannon_bits([0.7, 0.3]))
    assert m.markov_order == 0
    mk = conc.markov_model([0.5, 0.5], [[0.9, 0.1], [0.4, 0.6]])
    # worst row is (0.9, 0.1)
    assert mk.entropy_floor == pytest.approx(oracles.shannon_bits([0.9, 0.1]))
    with pytest.raises(ValueError):
        conc.markov_model([0.5, 0.5], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        SequenceModel(alphabet_size=1, cond=lambda h: np.ones(1),
                      entropy_floor=0.0)
    with pytest.raises(ValueError):
        SequenceModel(alphabet_size=2, cond=lambda h: np.ones(2) / 2,
                      entropy_floor=-0.1)


def test_model_row_validation():
    m = SequenceModel(alphabet_size=2, cond=lambda h: np.array([0.6, 0.6]),
                      entropy_floor=0.0, markov_order=0)
    with pytest.raises(ValueError):
        m.distribution_row(())
    m = SequenceModel(alphabet_size=2, cond=lambda h: np.array([1.0]),
                      entropy_floor=0.0, markov_order=0)
    with pytest.raises(ValueError):
        m.distribution_row(())


def test_model_sampling_frequencies():
    rng = np.random.default_rng(6)
    m = conc.iid_model([0.8, 0.2])
    draws = [m.sample(5, rng) for _ in range(2000)]
    ones = sum(sum(d) for d in draws) / (5 * 2000)
    assert abs(ones - 0.2) <= 4.0 * math.sqrt(0.2 * 0.8 / (5 * 2000))


# ------------------------------------------------- sequence bound, exact path

def test_bound_holds_iid_and_markov():
    for model in (conc.iid_model([0.5, 0.5]),
                  conc.iid_model([0.7, 0.2, 0.1]),
                  conc.markov_model([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])):
        for n in (4, 8):
            rep = conc.verify_dependent_sequence_bound(model, n, 0.05)
            assert rep.holds, rep
            assert rep.smooth_min_entropy >= rep.bound - 1e-9
            js = rep.to_json()
            assert js["holds"] and js["n"] == n


def test_uniform_iid_bound_values():
    rep = conc.verify_dependent_sequence_bound(conc.iid_model([0.5, 0.5]),
                                               10, 0.25)
    assert rep.entropy_floor == pytest.approx(1.0)
    assert rep.bound == pytest.approx((1.0 - 0.5) * 10)
    assert rep.eps == pytest.approx(
        conc.dependent_sequence_epsilon(0.25, 10, 2))
    # smoothing can only raise the plain min-entropy of n
    assert rep.smooth_min_entropy >= 10.0 - 1e-9


def test_full_history_enumeration_matches_markov_order():
    init = [0.6, 0.4]
    trans = [[0.3, 0.7], [0.5, 0.5]]
    mk = conc.markov_model(init, trans)
    generic = SequenceModel(alphabet_size=2, cond=mk.cond,
                            entropy_floor=mk.entropy_floor, markov_order=None)
    a = conc._enumerate_joint(mk, 6)
    b = conc._enumerate_joint(generic, 6)
    assert np.allclose(a, b, atol=1e-15)
    assert a.sum() == pytest.approx(1.0)


def test_overstated_floor_raises():
    # true per-step entropy is ~0.881; declaring 0.95 must be caught
    model = SequenceModel(alphabet_size=2,
                          cond=lambda h: np.array([0.7, 0.3]),
                          entropy_floor=0.95, markov_order=0)
    with pytest.raises(EntropyFloorViolation):
        conc.verify_dependent_sequence_bound(model, 4, 0.05)


def test_floor_not_checked_on_unreachable_history():
    # first symbol is always 0, so history (1,) never occurs; giving it a
    # low-entropy row must not trip the floor check on the markov path
    def cond(history):
        if not history:
            return np.array([1.0, 0.0])
        if history[-1] == 1:
            return np.array([1.0, 0.0])  # unreachable, entropy 0
        return np.array([0.5, 0.5])

    model = SequenceModel(alphabet_size=2, cond=cond, entropy_floor=0.0,
                          markov_order=1)
    rep = conc.verify_dependent_sequence_bound(model, 5, 0.05)
    assert rep.holds


def test_enumeration_size_gate():
    with pytest.raises(ValueError):
        conc.verify_dependent_sequence_bound(conc.iid_model([0.5, 0.5]),
                                             40, 0.05)


# ------------------------------------------------------------------ epsilon

def test_epsilon_monotone_decreasing():
    eps = [conc.dependent_sequence_epsilon(lam, 100, 2)
           for lam in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    eps_n = [conc.dependent_sequence_epsilon(0.1, n, 2)
             for n in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(eps_n, eps_n[1:]))


def test_epsilon_formula_and_errors():
    lam, n, k = 0.1, 500, 4
    expect = math.exp(-lam * lam * n / (32.0 * math.log2(k / lam) ** 2))
    assert conc.dependent_sequence_epsilon(lam, n, k) == pytest.approx(expect)
    for bad_lam in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            conc.dependent_sequence_epsilon(bad_lam, 10, 2)
    with pytest.raises(ValueError):
        conc.dependent_sequence_epsilon(0.1, 10, 1)
    with pytest.raises(ValueError):
        conc.dependent_sequence_epsilon(0.1, 0, 2)


# --------------------------------------------------------------- truncation

def test_truncation_delta_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        delta = float(rng.uniform(1e-6, 1.0 / math.e - 1e-3))
        lam = k * delta * math.log2(1.0 / delta)
        back = conc.solve_truncation_delta(lam, k)
        assert back == pytest.approx(delta, rel=1e-9)


def test_truncation_delta_errors():
    with pytest.raises(ValueError):
        conc.solve_truncation_delta(0.0, 2)
    with pytest.raises(ValueError):
        conc.solve_truncation_delta(0.1, 1)
    # no root once lam exceeds k * log2(e)/e
    with pytest.raises(ValueError):
        conc.solve_truncation_delta(2.0 * math.log2(math.e) / math.e + 0.01, 2)


def test_delta_lower_bound_grid():
    for x in np.logspace(-9, math.log10(0.06), 40):
        rep = conc.verify_delta_lower_bound(float(x))
        assert rep.holds, rep
        assert rep.y == pytest.approx(x * math.log2(1.0 / x))
        assert rep.x > rep.lower


def test_delta_lower_bound_highprec():
    import mpmath
    mpmath.mp.dps = 50
    for x in (1e-8, 1e-4, 0.01, 0.05):
        rep = conc.verify_delta_lower_bound(x)
        mx = mpmath.mpf(x)
        my = mx * mpmath.log(1 / mx) / mpmath.log(2)
        mlower = my / (4 * mpmath.log(1 / my) / mpmath.log(2))
        assert rep.y == pytest.approx(float(my), rel=1e-12)
        assert rep.lower == pytest.approx(float(mlower), rel=1e-12)
        assert mx > mlower


def test_delta_lower_bound_preconditions():
    with pytest.raises(ValueError):
        conc.verify_delta_lower_bound(0.5)  # above 1/e
    with pytest.raises(ValueError):
        conc.verify_delta_lower_bound(0.0)
    with pytest.raises(ValueError):
        conc.verify_delta_lower_bound(0.2)  # y > 1/4, bound not applicable
