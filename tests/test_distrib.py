import math

import numpy as np
import pytest

import oracles
from minentlab import distrib
from minentlab.distrib import (
    InfeasibleMassError,
    JointDistribution,
    PreconditionError,
    SubDistribution,
)


def random_sub(rng, size, mass=1.0):
    w = rng.dirichlet(np.ones(size)) * mass
    return SubDistribution([(i, float(x)) for i, x in enumerate(w)])


def random_joint(rng, nx, ny, mass=1.0):
    w = rng.dirichlet(np.ones(nx * ny)) * mass
    atoms = {(x, y): float(w[x * ny + y]) for x in range(nx) for y in range(ny)}
    return JointDistribution(("x", "y"), atoms)


# ---------------------------------------------------------------- containers

def test_subdistribution_validation():
    with pytest.raises(ValueError):
        SubDistribution({"a": -0.2, "b": 0.5})
    with pytest.raises(ValueError):
        SubDistribution({"a": 0.7, "b": 0.7})
    with pytest.raises(ValueError):
        SubDistribution([("a", 0.3), ("a", 0.3)])
    p = SubDistribution({"a": 0.5, "b": 0.25, "c": 1e-18})
    assert p.mass == pytest.approx(0.75)
    assert sorted(p.support) == ["a", "b"]  # floor atom dropped
    assert p.weight("c") == 0.0
    assert p.weight("missing") == 0.0


def test_subdistribution_restrict_scale_json():
    p = SubDistribution({(0, 1): 0.5, (1, 0): 0.3, (1, 1): 0.2})
    kept = p.restrict(lambda v: v[0] == 1)
    assert kept.mass == pytest.approx(0.5)
    assert kept.scaled(0.5).mass == pytest.approx(0.25)
    again = SubDistribution.from_json(p.to_json())
    assert sorted(again.items()) == sorted(p.items())


def test_joint_distribution_coordinates():
    with pytest.raises(ValueError):
        JointDistribution(("x", "x"), {(0, 0): 1.0})
    with pytest.raises(ValueError):
        JointDistribution(("x", "y"), {(0, 0, 0): 1.0})
    p = JointDistribution(("x", "y"), {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25})
    with pytest.raises(KeyError):
        p.project(("z",))
    marg = p.project(("x",))
    assert marg.weight((0,)) == pytest.approx(0.75)
    assert marg.weight((1,)) == pytest.approx(0.25)
    rest, cond, w = p.split_keys(("y",))
    assert set(zip(rest, cond)) == {((0,), (0,)), ((0,), (1,)), ((1,), (1,))}
    assert w.sum() == pytest.approx(1.0)


# ----------------------------------------------------------- plain entropies

def test_known_entropies():
    uniform = SubDistribution({i: 0.25 for i in range(4)})
    assert distrib.shannon_entropy(uniform) == pytest.approx(2.0)
    assert distrib.min_entropy(uniform) == pytest.approx(2.0)
    assert distrib.max_entropy(uniform) == pytest.approx(2.0)
    skew = SubDistribution({"a": 0.5, "b": 0.25, "c": 0.125, "d": 0.125})
    assert distrib.shannon_entropy(skew) == pytest.approx(1.75)
    assert distrib.min_entropy(skew) == pytest.approx(1.0)
    assert distrib.binary_entropy(0.5) == pytest.approx(1.0)
    assert distrib.binary_entropy(0.0) == 0.0
    assert distrib.binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)
    with pytest.raises(ValueError):
        distrib.binary_entropy(1.2)
    with pytest.raises(ValueError):
        distrib.shannon_entropy(SubDistribution({"a": 0.5}))  # not normalized
    with pytest.raises(ValueError):
        distrib.min_entropy(np.array([]))


def test_shannon_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = rng.dirichlet(np.ones(8))
        assert distrib.shannon_entropy(w) == pytest.approx(
            oracles.shannon_bits(w), abs=1e-12)


# --------------------------------------------------------- smooth min-entropy

def test_smooth_min_entropy_handwork():
    # mass 1, atoms (0.5, 0.3, 0.2); removing eps=0.2 caps the top two at 0.3
    # first (cost 0.2 exactly), so the cap is 0.3.
    p = SubDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
    assert distrib.smooth_min_entropy(p, 0.0) == pytest.approx(-math.log2(0.5))
    assert distrib.smooth_min_entropy(p, 0.2) == pytest.approx(-math.log2(0.3))
    # eps=0.3: a further 0.1 removed from two atoms at 0.3 -> cap 0.25
    assert distrib.smooth_min_entropy(p, 0.3) == pytest.approx(-math.log2(0.25))
    with pytest.raises(InfeasibleMassError):
        distrib.smooth_min_entropy(p, 1.0)
    with pytest.raises(ValueError):
        distrib.smooth_min_entropy(p, -0.1)


def test_smooth_min_entropy_against_lp():
    rng = np.random.default_rng(5)
    for trial in range(30):
        size = int(rng.integers(2, 12))
        p = random_sub(rng, size)
        for eps in (0.0, 0.05, 0.3):
            ours = distrib.smooth_min_entropy(p, eps)
            cap = oracles.lp_smooth_cap(p.weights_array(),
                                        np.ones(len(p)), eps)
            assert ours == pytest.approx(-math.log2(cap), abs=1e-7), (
                f"trial {trial} size {size} eps {eps}")


def test_smooth_min_entropy_subnormalized_mass_guard():
    p = SubDistribution({"a": 0.6, "b": 0.3})  # mass 0.9
    with pytest.raises(InfeasibleMassError):
        distrib.smooth_min_entropy(p, 0.05)  # mass < 1 - eps
    # eps = 0.1 shaves the top atom from 0.6 to 0.5
    assert distrib.smooth_min_entropy(p, 0.1) == pytest.approx(-math.log2(0.5))


def test_conditional_smooth_min_entropy_against_lp():
    rng = np.random.default_rng(9)
    for trial in range(30):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 5))
        p = random_joint(rng, nx, ny)
        rest, cond, w = p.split_keys(("y",))
        groups = {}
        for key, wt in zip(cond, w):
            groups[key] = groups.get(key, 0.0) + float(wt)
        g = np.array([groups[k] for k in cond])
        for eps in (0.0, 0.05, 0.3):
            ours = distrib.smooth_min_entropy_conditional(p, eps)
            cap = oracles.lp_smooth_cap(w, g, eps)
            assert ours == pytest.approx(-math.log2(cap), abs=1e-7), (
                f"trial {trial} eps {eps}")
            arrays = distrib.smooth_min_entropy_conditional_arrays(w, g, eps)
            assert arrays == pytest.approx(ours, abs=1e-12)


def test_conditional_smoothing_reduces_to_plain():
    # a constant conditioning coordinate changes nothing
    rng = np.random.default_rng(14)
    w = rng.dirichlet(np.ones(9))
    plain = SubDistribution({i: float(x) for i, x in enumerate(w)})
    joint = JointDistribution(("x", "y"),
                              {(i, 0): float(x) for i, x in enumerate(w)})
    for eps in (0.0, 0.1):
        assert distrib.smooth_min_entropy_conditional(joint, eps) == (
            pytest.approx(distrib.smooth_min_entropy(plain, eps)))


def test_entropy_report_fields():
    p = SubDistribution({i: 0.25 for i in range(4)})
    rep = distrib.entropy_report(p, 0.25)
    assert rep.shannon == pytest.approx(2.0)
    assert rep.min_entropy == pytest.approx(2.0)
    assert rep.max_entropy == pytest.approx(2.0)
    # removing 0.25 caps all four atoms at 3/16 (0.0625 shaved off each)
    assert rep.smooth_min_entropy == pytest.approx(-math.log2(3.0 / 16.0))
    js = rep.to_json()
    assert js["eps"] == 0.25
    assert set(js) == {"shannon", "minEntropy", "smoothMinEntropy",
                       "maxEntropy", "eps"}


# ------------------------------------------------------------------ chain rule

def test_chain_rule_holds_on_random_joints():
    rng = np.random.default_rng(31)
    for trial in range(40):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 5))
        p = random_joint(rng, nx, ny)
        eps = float(rng.uniform(0.0, 0.2))
        eps_prime = float(rng.uniform(0.01, 0.3))
        rep = distrib.verify_chain_rule(p, eps, eps_prime)
        assert rep.holds, f"trial {trial}: lhs={rep.lhs} rhs={rep.rhs}"
        assert rep.lhs > rep.rhs - 1e-9


def test_chain_rule_rhs_can_be_loose_or_tight():
    # the rhs is far below the lhs for a uniform joint with small support
    p = JointDistribution(("x", "y"),
                          {(x, y): 0.25 for x in range(2) for y in range(2)})
    rep = distrib.verify_chain_rule(p, 0.0, 0.1)
    assert rep.holds and not rep.near_equality
    # lhs smooths with eps' = 0.1: all four conditionals capped at 0.45
    assert rep.lhs == pytest.approx(-math.log2(0.45))
    # H_inf(XY)=2, H_0(Y)=1, log2(1/0.1) ~ 3.32 -> rhs negative
    assert rep.rhs == pytest.approx(2.0 - 1.0 - math.log2(10.0))
    with pytest.raises(ValueError):
        distrib.verify_chain_rule(p, 0.0, 0.0)


def test_chain_rule_explicit_given_names():
    p = JointDistribution(("a", "b", "c"),
                          {(x, y, z): 0.125 for x in range(2)
                           for y in range(2) for z in range(2)})
    rep = distrib.verify_chain_rule(p, 0.0, 0.25, given=("a", "c"))
    assert rep.holds
    # eps' = 0.25 caps the 8 conditionals (all 1/2) at 3/8
    assert rep.lhs == pytest.approx(-math.log2(0.375))
    assert rep.rhs == pytest.approx(3.0 - 2.0 - 2.0)


# -------------------------------------------------------------------- splitting

def test_split_uniform_square_sits_on_threshold():
    # uniform on 2^m x 2^m values: alpha = 2m, every x1-marginal weight is
    # exactly the threshold 2^-m, so C = 1 everywhere and the split joint is
    # uniform over 2^m atoms at weight 2^-m.
    for m in (1, 2, 3):
        n = 2 ** m
        p = JointDistribution(("x0", "x1"),
                              {(i, j): 1.0 / n ** 2
                               for i in range(n) for j in range(n)})
        assignment, rep = distrib.min_entropy_split(p, 2.0 * m)
        assert all(c == 1 for c in assignment.values())
        assert rep.threshold == pytest.approx(2.0 ** (-m))
        assert rep.max_weight == pytest.approx(2.0 ** (-m))
        assert rep.split_min_entropy == pytest.approx(float(m))
        assert rep.holds


def test_split_deterministic_side_keeps_all_entropy():
    # X1 constant, X0 uniform over 2^alpha: the x1 marginal is 1 >= threshold,
    # so C = 1 and the kept side is X0 with max weight 2^-alpha.
    alpha = 4
    p = JointDistribution(("x0", "x1"),
                          {(i, 0): 2.0 ** -alpha for i in range(2 ** alpha)})
    assignment, rep = distrib.min_entropy_split(p, float(alpha))
    assert assignment == {0: 1}
    assert rep.max_weight == pytest.approx(2.0 ** -alpha)
    assert rep.holds


def test_split_random_joints_certified():
    rng = np.random.default_rng(8)
    for trial in range(60):
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 9))
        p = random_joint(rng, nx, ny)
        alpha = distrib.min_entropy(p)  # tightest admissible alpha
        assignment, rep = distrib.min_entropy_split(p, alpha)
        assert rep.holds, f"trial {trial}: {rep}"
        assert set(assignment) == {v[0] for v in p.project(("y",)).support}


def test_split_rejects_insufficient_entropy():
    p = JointDistribution(("x0", "x1"), {(0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(PreconditionError):
        distrib.min_entropy_split(p, 3.0)  # H_inf is only 1
    with pytest.raises(ValueError):
        distrib.min_entropy_split(
            JointDistribution(("a", "b", "c"), {(0, 0, 0): 1.0}), 0.0)


def test_joint_size_gate():
    # the gate is the product, up to and including MAX_JOINT_ATOMS
    distrib.check_joint_size(1, 1)
    distrib.check_joint_size(1000, distrib.MAX_JOINT_ATOMS // 1000)
    for rows, cols in ((1000, distrib.MAX_JOINT_ATOMS // 1000 + 1),
                       (10 ** 6, 10 ** 6)):
        with pytest.raises(ValueError, match="joint too large"):
            distrib.check_joint_size(rows, cols)
    for rows, cols in ((0, 4), (4, 0), (0, 0), (-3, -3)):
        with pytest.raises(ValueError, match="at least one row"):
            distrib.check_joint_size(rows, cols)


def test_conditional_split_certificate():
    rng = np.random.default_rng(77)
    for trial in range(20):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(nx * ny * nz))
        atoms = {}
        i = 0
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    atoms[(x, y, z)] = float(w[i])
                    i += 1
        p = JointDistribution(("x0", "x1", "z"), atoms)
        eps = 0.05
        eps_prime = 0.1
        alpha = distrib.smooth_min_entropy_conditional(p, eps, given=("z",))
        assignment, rep = distrib.min_entropy_split_conditional(
            p, alpha, eps, eps_prime)
        assert rep.holds, f"trial {trial}: {rep}"
        assert rep.achieved >= rep.certified - 1e-9
        assert all(z[0] in range(nz) and x1 in range(ny)
                   for z, x1 in assignment)
    with pytest.raises(PreconditionError):
        distrib.min_entropy_split_conditional(p, alpha + 1.0, eps, eps_prime)
    with pytest.raises(ValueError):
        distrib.min_entropy_split_conditional(p, alpha, eps, 0.0)


def test_conditional_split_report_json():
    p = JointDistribution(("x0", "x1", "z"),
                          {(x, y, 0): 0.25 for x in range(2) for y in range(2)})
    _, rep = distrib.min_entropy_split_conditional(p, 2.0, 0.0, 0.5)
    js = rep.to_json()
    assert js["holds"] is True
    assert js["certified"] == pytest.approx(2.0 / 2.0 - 1.0 - 1.0)
