import itertools
import math

import numpy as np
import pytest

import oracles
from minentlab import hashing, qsim
from minentlab.hashing import ToeplitzHash, apply_hash


# ------------------------------------------------------------- construction

def test_constructor_validation():
    with pytest.raises(ValueError):
        ToeplitzHash([], [1])
    with pytest.raises(ValueError):
        ToeplitzHash([1, 0], [0, 1])  # corner bits disagree
    h = ToeplitzHash([1, 0, 1], [1, 1])
    assert h.input_bits == 3 and h.output_bits == 2
    assert h.parameter_bits == (1, 0, 1, 1)


def reference_matrix(h):
    """The l x n Toeplitz matrix of h, built by scipy from its first column
    and first row."""
    from scipy.linalg import toeplitz

    return toeplitz(h.first_col, h.first_row).astype(np.int64)


def test_matrix_is_toeplitz():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = hashing.sample_hash(int(rng.integers(2, 9)),
                                int(rng.integers(1, 5)), rng)
        n = h.input_bits
        matrix = [[(row >> (n - 1 - j)) & 1 for j in range(n)]
                  for row in h.rows]
        assert np.array_equal(matrix, reference_matrix(h))


def test_apply_hash_forms_agree():
    h = ToeplitzHash([1, 0, 1, 1], [1, 0])
    m = reference_matrix(h)
    for xi in range(16):
        bits = [(xi >> (3 - i)) & 1 for i in range(4)]
        expect = tuple(int(v) for v in (m @ np.array(bits)) & 1)
        assert apply_hash(h, xi) == expect
        assert apply_hash(h, bits) == expect
    # short input: right-padded with zeros, only leading columns act
    assert apply_hash(h, [1, 1]) == apply_hash(h, [1, 1, 0, 0])
    with pytest.raises(ValueError):
        apply_hash(h, [1, 0, 1, 1, 0])  # too long
    with pytest.raises(ValueError):
        apply_hash(h, [2, 0, 0, 0])
    # integers outside [0, 2^n) are refused, not wrapped
    for xi in (16, -1, np.int64(16), np.int8(-1), 1 << 70):
        with pytest.raises(ValueError):
            apply_hash(h, xi)


def test_apply_hash_matches_reference_any_length():
    # the FFT product serves inputs past 64 bits; short inputs only reach
    # the leading columns, and the empty input hashes to zeros
    rng = np.random.default_rng(21)
    for n in (1, 8, 63, 64, 100):
        for l in sorted({1, min(n, 5), n}):
            h = hashing.sample_hash(n, l, rng)
            m = reference_matrix(h)
            assert apply_hash(h, []) == (0,) * l
            for size in (1, n // 2, n):
                x = rng.integers(0, 2, size=size)
                expect = tuple(int(v) for v in (m[:, :size] @ x) & 1)
                assert apply_hash(h, x) == expect, (n, l, size)
                if size == n:
                    xi = int("".join(map(str, x)), 2)
                    assert apply_hash(h, xi) == expect, (n, l)


def test_fft_path_matches_direct():
    # apply_hash (numpy.fft) against the Python-int row-mask reference
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        l = int(rng.integers(1, 10))
        h = hashing.sample_hash(n, l, rng)
        x = rng.integers(0, 2, size=int(rng.integers(1, n + 1)))
        assert apply_hash(h, x) == oracles.apply_hash_rows(h, x)
    # the QKD size: a 30000-bit sifted key hashed to 1000 bits, full and short
    h = hashing.sample_hash(30000, 1000, rng)
    for size in (30000, 17321):
        x = rng.integers(0, 2, size=size)
        assert apply_hash(h, x) == oracles.apply_hash_rows(h, x), size


def test_hex_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        l = int(rng.integers(1, 6))
        h = hashing.sample_hash(n, l, rng)
        again = ToeplitzHash.from_hex(n, l, h.to_hex())
        assert again == h
    js = h.to_json()
    assert ToeplitzHash.from_json(js) == h
    assert ToeplitzHash.from_json(
        {"inputBits": h.input_bits, "outputBits": h.output_bits,
         "hex": h.to_hex()}) == h


def test_sample_hash_errors():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        hashing.sample_hash(0, 1, rng)
    with pytest.raises(ValueError):
        hashing.sample_hash(3, 0, rng)


# -------------------------------------------------------------------- family

def test_family_size_and_distinctness():
    for n, l in ((3, 1), (4, 2), (2, 3)):
        family = hashing.enumerate_hash_family(n, l)
        assert len(family) == 2 ** (n + l - 1)
        assert len({h.parameter_bits for h in family}) == len(family)
        # member g has diagonal string g: first_row[j] is bit n-1-j of g
        # and first_col[i] is bit n-1+i
        for g, h in enumerate(family):
            assert h.first_row == tuple((g >> (n - 1 - j)) & 1
                                        for j in range(n))
            assert h.first_col == tuple((g >> (n - 1 + i)) & 1
                                        for i in range(l))
    with pytest.raises(ValueError):
        hashing.enumerate_hash_family(16, 8)


def test_family_is_exactly_two_universal():
    # collision probability over the family is exactly 2^-l for every pair
    for n, l in ((4, 1), (4, 2), (5, 2)):
        family = hashing.enumerate_hash_family(n, l)
        tables = np.stack([hashing.hash_output_table(h) for h in family])
        for x, y in itertools.combinations(range(2 ** n), 2):
            collisions = int(np.count_nonzero(tables[:, x] == tables[:, y]))
            assert collisions * 2 ** l == len(family), (n, l, x, y)


def test_hash_output_table_matches_apply():
    rng = np.random.default_rng(5)
    h = hashing.sample_hash(6, 3, rng)
    table = hashing.hash_output_table(h)
    weights = [1 << (2 - i) for i in range(3)]
    for xi in range(64):
        out = apply_hash(h, xi)
        assert table[xi] == sum(b * w for b, w in zip(out, weights))
    # truncated table: inputs restricted to the first m bits
    short = hashing.hash_output_table(h, m=4)
    assert short.size == 16
    for xi in range(16):
        bits = [(xi >> (3 - i)) & 1 for i in range(4)]
        out = apply_hash(h, bits)
        assert short[xi] == sum(b * w for b, w in zip(out, weights))
    with pytest.raises(ValueError):
        hashing.hash_output_table(h, m=7)


def test_hash_output_table_matches_reference():
    # every m <= n <= 8: entry x is the matrix's first m columns applied to
    # the m bits of x, most significant first, packed first output bit high
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for l in range(1, n + 1):
            h = hashing.sample_hash(n, l, rng)
            m_full = reference_matrix(h)
            weights = 1 << (l - 1 - np.arange(l))
            for m in range(n + 1):
                xs = np.arange(2 ** m)
                bits = (xs[:, None] >> (m - 1 - np.arange(m))[None, :]) & 1
                expect = ((bits @ m_full[:, :m].T) & 1) @ weights
                assert np.array_equal(hashing.hash_output_table(h, m),
                                      expect), (n, l, m)


# ----------------------------------------------------- privacy amplification

def test_pa_bound_formula():
    assert hashing.pa_bound(10.0, 2, 3, 0.0) == pytest.approx(
        0.5 * 2.0 ** (-2.5))
    assert hashing.pa_bound(10.0, 2, 3, 0.01) == pytest.approx(
        0.5 * 2.0 ** (-2.5) + 0.02)
    with pytest.raises(ValueError):
        hashing.pa_bound(10.0, -1, 3, 0.0)
    with pytest.raises(ValueError):
        hashing.pa_bound(10.0, 2, 0, 0.0)
    with pytest.raises(ValueError):
        hashing.pa_bound(10.0, 2, 3, -0.1)


def uniform_classical_cq(n):
    branches = {}
    for xi in range(2 ** n):
        x = tuple((xi >> (n - 1 - i)) & 1 for i in range(n))
        branches[(x, 0)] = np.array([[2.0 ** -n]])
    return qsim.CqState((1,), branches)


def test_verify_pa_uniform_source_exact_distance():
    # q = 0, l = 1: every non-zero Toeplitz row balances exactly, and the
    # single all-zero member contributes distance 1/2, so the family average
    # is 2^-(n+1)
    for n in (3, 4, 5):
        rep = hashing.verify_pa(uniform_classical_cq(n), 1, 0.0)
        assert rep.exact_distance == pytest.approx(2.0 ** -(n + 1), abs=1e-12)
        assert rep.h_smooth == pytest.approx(float(n))
        assert rep.bound == pytest.approx(0.5 * 2.0 ** (-(n - 1) / 2.0))
        assert rep.holds
        js = rep.to_json()
        assert js["q"] == 0 and js["l"] == 1


def test_verify_pa_low_entropy_source_is_far():
    # X constant: hashing cannot help; distance stays 1/2 per hash except
    # for outputs colliding with uniform by luck, and the bound exceeds it
    branches = {((0, 0, 0), 0): np.array([[1.0]])}
    rep = hashing.verify_pa(qsim.CqState((1,), branches), 1, 0.0)
    assert rep.h_smooth == pytest.approx(0.0)
    assert rep.exact_distance == pytest.approx(0.5)
    assert rep.bound >= rep.exact_distance
    assert rep.holds


def test_verify_pa_entangled_memory():
    # X is one bit, copied into a memory qubit: the adversary holds q = 1
    # qubits that determine X, so the extracted bit cannot be private;
    # the bound accounts for it via the q term
    zero = np.zeros((2, 2)); zero[0, 0] = 0.5
    one = np.zeros((2, 2)); one[1, 1] = 0.5
    cq = qsim.CqState((2,), {((0,), 0): zero, ((1,), 0): one})
    rep = hashing.verify_pa(cq, 1, 0.0)
    assert rep.q == 1
    # both family members (identity and the all-zero map) land at 1/2
    assert rep.exact_distance == pytest.approx(0.5)
    # h_smooth = 1, q = 1, l = 1: bound = 0.5 * 2^(1/2) >= distance
    assert rep.bound == pytest.approx(0.5 * math.sqrt(2.0))
    assert rep.holds


def test_verify_pa_conditioning_on_side_symbol():
    # u reveals x entirely; conditional min-entropy is zero even though the
    # x-marginal is uniform
    branches = {((x0, x1), (x0, x1)): np.array([[0.25]])
                for x0 in (0, 1) for x1 in (0, 1)}
    rep = hashing.verify_pa(qsim.CqState((1,), branches), 1, 0.0)
    assert rep.h_smooth == pytest.approx(0.0)
    # every (hash, u) cell contributes 0.125: output known given u
    assert rep.exact_distance == pytest.approx(0.5, abs=1e-12)
    assert rep.holds


def test_verify_pa_random_ccq_states():
    rng = np.random.default_rng(44)
    for trial in range(5):
        branches = {}
        probs = rng.dirichlet(np.ones(8))
        for xi in range(8):
            x = tuple((xi >> (2 - i)) & 1 for i in range(3))
            psi = oracles.random_pure(2, rng)
            branches[(x, 0)] = float(probs[xi]) * np.outer(psi, psi.conj())
        rep = hashing.verify_pa(qsim.CqState((2,), branches), 1, 0.05)
        assert rep.holds, f"trial {trial}: {rep}"


def test_verify_pa_input_errors():
    with pytest.raises(ValueError):
        hashing.verify_pa(qsim.CqState((1,), {}), 1, 0.0)
    with pytest.raises(ValueError):
        hashing.verify_pa(qsim.CqState((1,), {(0, 0): np.array([[1.0]])}),
                          1, 0.0)  # key not ((bits), u)
    big = {(tuple([0] * 9), 0): np.array([[1.0]])}
    with pytest.raises(ValueError):
        hashing.verify_pa(qsim.CqState((1,), big), 1, 0.0)
    with pytest.raises(ValueError):
        hashing.verify_pa(uniform_classical_cq(3), 4, 0.0)  # l > n
    with pytest.raises(ValueError):
        hashing.verify_pa(uniform_classical_cq(3), 0, 0.0)  # l < 1
    q = hashing.MAX_PA_MEMORY_QUBITS + 1
    memory = np.zeros((2 ** q, 2 ** q))
    memory[0, 0] = 1.0
    wide = qsim.CqState((2,) * q, {((0,), 0): memory})
    with pytest.raises(ValueError):
        hashing.verify_pa(wide, 1, 0.0)
    with pytest.raises(ValueError):
        hashing.verify_pa(
            qsim.CqState((3,), {((0,), 0): np.eye(3) / 3.0}), 1, 0.0)
    # every gate passes on its own, but the family times the operators is
    # past the work bound; refused before anything is enumerated
    with pytest.raises(ValueError):
        hashing.verify_pa(qsim.CqState((2,), {
            ((0,) * 8, 0): np.eye(2) / 2.0}), 8, 0.0)


def test_pa_size_gate():
    hashing.check_pa_size(8, 8, 0, 1)
    hashing.check_pa_size(8, 4, 2, 1)
    for args in ((9, 1, 0, 1), (4, 0, 0, 1), (4, 5, 0, 1), (4, 1, -1, 1),
                 (4, 1, hashing.MAX_PA_MEMORY_QUBITS + 1, 1),
                 (8, 8, 1, 1), (8, 8, 0, 2), (8, 8, 6, 1), (8, 1, 6, 1)):
        with pytest.raises(ValueError):
            hashing.check_pa_size(*args)
