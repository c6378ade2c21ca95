import math

import numpy as np
import pytest

import oracles
from minentlab import qkd, qsim
from minentlab.distrib import binary_entropy
from minentlab.uncertainty import (BasisSet, bb84_basis_set,
                                   six_state_basis_set)


# ---------------------------------------------------------- channel and rates

def test_channel_model_validation():
    assert qkd.ChannelModel(0.0).p == 0.0
    assert qkd.ChannelModel(0.5).p == 0.5
    with pytest.raises(ValueError):
        qkd.ChannelModel(-0.01)
    with pytest.raises(ValueError):
        qkd.ChannelModel(0.6)


def test_white_noise_flips_at_rate_p_in_every_basis():
    for sb in (bb84_basis_set(), six_state_basis_set()):
        for p in (0.0, 0.03, 0.25):
            prob1 = qkd._outcome_probabilities(sb, p)
            for b in range(len(sb.bases)):
                assert prob1[b, 0, b] == pytest.approx(p, abs=1e-12)
                assert prob1[b, 1, b] == pytest.approx(1.0 - p, abs=1e-12)


def test_key_rate_and_report():
    assert qkd.key_rate(0.5, 0.0) == pytest.approx(0.5)
    assert qkd.key_rate(2.0 / 3.0, 0.1) == pytest.approx(
        2.0 / 3.0 - binary_entropy(0.1))
    with pytest.raises(ValueError):
        qkd.key_rate(1.2, 0.1)
    with pytest.raises(ValueError):
        qkd.key_rate(0.5, 0.6)
    rep = qkd.rate_report(0.5, 0.05)
    assert rep.rate == pytest.approx(0.5 - binary_entropy(0.05))
    assert rep.threshold == pytest.approx(qkd.noise_threshold(0.5))
    assert set(rep.to_json()) == {"h", "e", "rate", "threshold"}
    # the report checks its inputs as key_rate does: p past 1/2 is refused,
    # not reported as a negative rate
    with pytest.raises(ValueError):
        qkd.rate_report(0.5, 0.7)


def test_noise_threshold_matches_root_oracle():
    for h in (0.5, 2.0 / 3.0, oracles.harmonic_bound(2)):
        ours = qkd.noise_threshold(h)
        ref = oracles.entropy_threshold_mp(h)
        assert ours == pytest.approx(ref, abs=1e-9), h
        assert binary_entropy(ours) == pytest.approx(h, abs=1e-9)
    with pytest.raises(ValueError):
        qkd.noise_threshold(0.0)
    with pytest.raises(ValueError):
        qkd.noise_threshold(1.1)


def test_security_margin_and_accounting():
    assert qkd.security_margin(2.0 ** -32) == 64
    assert qkd.security_margin(0.1) == math.ceil(2.0 * math.log2(10.0))
    with pytest.raises(ValueError):
        qkd.security_margin(0.0)
    with pytest.raises(ValueError):
        qkd.security_margin(1.0)
    l = qkd.key_length_accounting(1000, 0.5, 2.0 ** -32, 3, 100)
    assert l == 500 - 3 - 100 - 64
    assert qkd.key_length_accounting(10, 0.5, 2.0 ** -32, 0, 0) == 0  # floor
    with pytest.raises(ValueError):
        qkd.key_length_accounting(-1, 0.5, 0.1, 0, 0)


# ------------------------------------------------------------ protocol runs

def test_ideal_run_keys_match_and_account():
    sb = six_state_basis_set()
    run = qkd.run_qkd(sb, 20_000, qkd.ChannelModel(0.05), seed=3)
    assert run.mode == "ideal-reconciliation"
    assert run.decode_success and run.keys_match
    assert len(run.key_a) == run.l > 0
    assert run.e_bits == math.ceil(run.sifted * binary_entropy(0.05))
    margin = qkd.security_margin(run.eps)
    assert run.l == max(0, math.floor(run.sifted * sb.h) - run.q
                        - run.e_bits - margin)
    assert run.rate == pytest.approx(run.l / run.sifted)
    sigma = math.sqrt(0.05 * 0.95 / run.sifted)
    assert abs(run.qber - 0.05) <= 4.0 * sigma
    js = run.to_json()
    assert js["keysMatch"] and "x" not in js
    assert "x" in run.to_json(include_strings=True)


def test_ideal_run_deterministic():
    sb = bb84_basis_set()
    a = qkd.run_qkd(sb, 5000, qkd.ChannelModel(0.08), seed=11)
    b = qkd.run_qkd(sb, 5000, qkd.ChannelModel(0.08), seed=11)
    assert a == b
    c = qkd.run_qkd(sb, 5000, qkd.ChannelModel(0.08), seed=12)
    assert a != c


def test_ideal_rate_approaches_asymptotic():
    sb = six_state_basis_set()
    run = qkd.run_qkd(sb, 50_000, qkd.ChannelModel(0.05), seed=7)
    target = qkd.key_rate(sb.h, 0.05)
    assert abs(run.rate - target) < 0.03


def test_run_input_gates():
    sb = bb84_basis_set()
    ch = qkd.ChannelModel(0.05)
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 0, ch)
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 10 ** 6 + 1, ch)
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 100, ch, mode="syndrome")
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 100, ch, max_sift=-5)   # would drop the last bits


def test_run_refuses_non_qubit_families():
    # the white-noise channel and qsim.outcome_table are for qubits; two
    # Haar qutrit bases with a supplied h = 1.5 used to give a 1453-bit key
    # from 1009 sifted bits
    rng = np.random.default_rng(1)
    qutrits = BasisSet([qsim.haar_random_basis(3, rng) for _ in range(2)],
                       1.5, "supplied")
    with pytest.raises(ValueError, match="qubit families"):
        qkd.run_qkd(qutrits, 2000, qkd.ChannelModel(0.0), seed=1)


def test_empty_sift_run():
    run = qkd.run_qkd(bb84_basis_set(), 10, qkd.ChannelModel(0.1), seed=0,
                      max_sift=0)
    assert run.sifted == 0 and run.l == 0 and run.rate == 0.0
    assert run.key_a == () and run.keys_match


def test_smaller_eps_means_shorter_key():
    sb = six_state_basis_set()
    loose = qkd.run_qkd(sb, 20_000, qkd.ChannelModel(0.05), seed=3, eps=1e-6)
    tight = qkd.run_qkd(sb, 20_000, qkd.ChannelModel(0.05), seed=3, eps=1e-12)
    assert tight.l < loose.l


def test_stored_qubits_shorten_key():
    sb = six_state_basis_set()
    base = qkd.run_qkd(sb, 20_000, qkd.ChannelModel(0.05), seed=3)
    stored = qkd.run_qkd(sb, 20_000, qkd.ChannelModel(0.05), seed=3, q=40)
    assert stored.l == base.l - 40


# --------------------------------------------------------- syndrome decoding

def test_ml_decode_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        m = 12
        r = int(rng.integers(4, 9))
        a = rng.integers(0, 2, size=(r, m)).astype(np.uint8)
        x = rng.integers(0, 2, size=m).astype(np.uint8)
        noise = (rng.random(m) < 0.1).astype(np.uint8)
        y = x ^ noise
        s = (a @ x) & 1
        dec = qkd._ml_decode(a, y, s)
        best_dist = oracles.ml_syndrome_decode_oracle(a, s, y)
        assert np.array_equal((a @ dec) & 1, s), trial
        # ties are allowed; the achieved distance must be the true minimum
        assert int((dec != y).sum()) == best_dist, trial


def test_syndrome_run_end_to_end():
    sb = bb84_basis_set()
    run = qkd.run_qkd(sb, 100, qkd.ChannelModel(0.05),
                      mode="linear-syndrome", seed=4, max_sift=24)
    assert run.mode == "linear-syndrome"
    assert 0 < run.sifted <= 24
    assert run.e_bits == len(run.syndrome)
    assert run.e_bits == min(run.sifted,
                             math.ceil(run.sifted * binary_entropy(0.05)) + 7)
    assert run.decode_success
    assert run.x_hat == run.x
    if run.l > 0:
        assert run.keys_match


def test_syndrome_success_rate_over_seeds():
    sb = bb84_basis_set()
    ok = 0
    for seed in range(60):
        run = qkd.run_qkd(sb, 100, qkd.ChannelModel(0.06),
                          mode="linear-syndrome", seed=seed, max_sift=24)
        ok += run.decode_success
    assert ok >= 55  # margin-7 syndrome rarely misdecodes at this noise


def test_syndrome_block_gates():
    sb = bb84_basis_set()
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 200, qkd.ChannelModel(0.05), mode="linear-syndrome",
                    seed=0)  # sifted block exceeds 24
    with pytest.raises(ValueError):
        qkd.run_qkd(sb, 100, qkd.ChannelModel(0.3), mode="linear-syndrome",
                    seed=0, max_sift=24)  # syndrome longer than 20 rows
