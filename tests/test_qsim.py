import itertools
import math

import numpy as np
import pytest

import oracles
from minentlab import qsim


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        qsim.StateVector((2,), [1.0, 1.0])
    psi = qsim.StateVector((2,), [1.0, 0.0])
    assert psi.dim == 2
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0  # frozen view


def test_density_operator_validation():
    with pytest.raises(ValueError):
        qsim.DensityOperator((2,), [[0.5, 0.4], [0.3, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        qsim.DensityOperator((2,), [[1.0, 0.0], [0.0, 0.5]])  # trace > 1
    with pytest.raises(ValueError):
        qsim.DensityOperator((2,), [[0.8, 0.5], [0.5, 0.1]])  # not PSD
    sub = qsim.DensityOperator((2,), [[0.25, 0.0], [0.0, 0.25]])
    assert sub.trace == pytest.approx(0.5)
    assert sub.normalized().trace == pytest.approx(1.0)


def test_serialization_round_trips():
    rng = np.random.default_rng(3)
    psi = qsim.StateVector((2, 2), oracles.random_pure(4, rng))
    again = qsim.StateVector.from_json(psi.to_json())
    assert np.allclose(again.amplitudes, psi.amplitudes)
    rho = qsim.DensityOperator((2, 2), oracles.random_density(4, rng))
    again = qsim.DensityOperator.from_json(rho.to_json())
    assert np.allclose(again.matrix, rho.matrix)
    comp, _, _ = qsim.standard_bases_qubit()
    assert np.allclose(qsim.Basis.from_json(comp.to_json()).vectors,
                       comp.vectors)


def test_basis_orthonormality_enforced():
    with pytest.raises(ValueError):
        qsim.Basis("bad", [[1.0, 0.0], [0.1, 1.0]])
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.Basis("bad", np.ones((2, 3)))


def test_standard_bases_mutually_unbiased():
    for a in qsim.standard_bases_qubit():
        for b in qsim.standard_bases_qubit():
            if a.label == b.label:
                continue
            overlaps = np.abs(a.vectors.conj().T @ b.vectors) ** 2
            assert np.allclose(overlaps, 0.5, atol=1e-12)


def test_jacobi_eigenvalues_match_lapack():
    """The package spectra against the independent Jacobi solver, over sizes
    and seeds, one matrix at a time and as one stack."""
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4, 6, 8, 12):
        g = rng.normal(size=(8, dim, dim)) + 1j * rng.normal(size=(8, dim, dim))
        h = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
        stacked = qsim.hermitian_eigenvalues(h)
        assert stacked.shape == (8, dim)
        for mat, vals in zip(h, stacked):
            ours = qsim.hermitian_eigenvalues(mat)
            ref = oracles.jacobi_eigenvalues(mat)
            assert np.all(np.diff(ours) >= -1e-12)
            assert np.allclose(ours, ref, atol=1e-12)
            assert np.allclose(vals, ref, atol=1e-12)


def test_trace_norm_matches_svd():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5):
        g = rng.normal(size=(dim, dim))
        h = g + g.T
        assert qsim.trace_norm(h) == pytest.approx(oracles.trace_norm_svd(h),
                                                   abs=1e-11)


def _kernel_cases(d: int, rng) -> np.ndarray:
    """A (3, 5, d, d) stack of Hermitian matrices: random indefinite ones,
    rank-one projectors of either sign, zeros, and (for d = 2) the
    semidefinite and nearly-singular blocks the closed form splits on."""
    g = rng.normal(size=(3, 5, d, d)) + 1j * rng.normal(size=(3, 5, d, d))
    h = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
    v = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    h[1, 0] = np.outer(v[0], v[0].conj())                    # rank one, PSD
    h[1, 1] = -0.3 * np.outer(v[1], v[1].conj())             # rank one, NSD
    h[1, 2] = 0.0
    h[1, 3] = g[1, 3] @ g[1, 3].conj().T                     # PSD
    h[1, 4] = -h[1, 3]                                       # NSD
    if d == 2:
        h[2, 0] = np.diag([3e-8, -3e-8])                     # tiny, indefinite
        h[2, 1] = np.diag([1.0, -1e-9])                      # barely indefinite
        h[2, 2] = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])  # nearly singular
        h[2, 3] = np.array([[0.0, 2j], [-2j, 0.0]])          # zero trace
        h[2, 4] = np.array([[1e-3, 0.0], [0.0, 0.0]])        # rank one, diagonal
    return h


def test_trace_norm_stacks_match_oracles():
    """The batched kernel on (..., D, D) stacks, D = 1 to 4, and the same
    stacks through their real coordinates, against SVD and against the
    Jacobi spectrum, matrix by matrix; the coordinates map back to the
    stack."""
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4):
        h = _kernel_cases(d, rng)
        got = qsim.trace_norm(h)
        coords = qsim._coordinates(h)
        assert coords.shape == ((1, 4, 18, 32)[d - 1], 3, 5)
        assert np.allclose(qsim._coordinate_matrices(coords), h, rtol=0.0,
                           atol=1e-15 * np.abs(h).max()), d
        by_coords = qsim._coordinate_trace_norms(coords)
        assert got.shape == by_coords.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            svd = oracles.trace_norm_svd(h[idx])
            jac = float(np.abs(oracles.jacobi_eigenvalues(h[idx])).sum())
            for norm in (got[idx], by_coords[idx]):
                assert norm == pytest.approx(svd, rel=1e-12, abs=1e-14), (d, idx)
                assert norm == pytest.approx(jac, rel=1e-12, abs=1e-14), (d, idx)
            assert qsim.trace_norm(h[idx]) == got[idx]
        assert np.array_equal(qsim._trace_norms(h), got)


def test_outer_coordinates_match_operator_coordinates():
    """Coordinates of |a><a| from the amplitudes equal those of the built
    operator, for any strides of the amplitude stack."""
    rng = np.random.default_rng(29)
    for d in (1, 2, 4):
        amps = rng.normal(size=(3, 5, d)) + 1j * rng.normal(size=(3, 5, d))
        for view in (amps, amps.swapaxes(0, 1)):
            ops = np.einsum("...i,...j->...ij", view, view.conj())
            got = qsim._outer_coordinates(view)
            assert got.flags.c_contiguous, d
            assert np.allclose(got, qsim._coordinates(ops),
                               rtol=1e-14, atol=1e-15), d
            assert np.allclose(qsim._coordinate_trace_norms(got),
                               (np.abs(view) ** 2).sum(axis=-1),
                               rtol=1e-14, atol=1e-15), d


def test_outer_coordinates_of_real_stacks():
    """A real stack's imaginary plane reads as zeros: its coordinates are
    those of the same stack cast to complex, up to the sign of a zero."""
    rng = np.random.default_rng(30)
    for d in (1, 2, 4):
        amps = rng.normal(size=(3, 5, d))
        amps[0, :2] = 0.0                  # zero products and cross terms
        amps[1, 0, -1] = -0.0
        for view in (amps, amps.swapaxes(0, 1)):
            got = qsim._outer_coordinates(view)
            want = qsim._outer_coordinates(view.astype(np.complex128))
            assert got.dtype == np.float64 and got.flags.c_contiguous, d
            assert np.array_equal(got + 0.0, want + 0.0), d


def test_public_spectral_entries_reject_non_hermitian():
    bad = np.array([[0.5, 0.4], [0.3, 0.5]])
    stack = np.stack([np.eye(2), bad])
    for entry in (qsim.trace_norm, qsim.hermitian_eigenvalues):
        for m in (bad, stack, np.array([[1j]])):
            with pytest.raises(ValueError):
                entry(m)
        with pytest.raises(qsim.DimensionMismatchError):
            entry(np.ones((2, 3)))
    with pytest.raises(ValueError):
        qsim.trace_distance(bad, np.eye(2) / 2.0)
    # deviations within the tolerance pass
    near = np.array([[0.5, 0.4], [0.4 + 1e-12, 0.5]])
    assert qsim.trace_norm(near) == pytest.approx(1.0, abs=1e-11)


def test_trace_distance_properties():
    rng = np.random.default_rng(7)
    a = oracles.random_density(4, rng)
    b = oracles.random_density(4, rng)
    c = oracles.random_density(4, rng)
    dab = qsim.trace_distance(a, b)
    assert qsim.trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert dab == pytest.approx(qsim.trace_distance(b, a), abs=1e-12)
    assert 0.0 <= dab <= 1.0 + 1e-12
    assert dab <= (qsim.trace_distance(a, c) + qsim.trace_distance(c, b)
                   + 1e-10)
    # unitary invariance
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert qsim.trace_distance(q @ a @ q.conj().T,
                               q @ b @ q.conj().T) == pytest.approx(dab,
                                                                    abs=1e-10)


def test_trace_distance_orthogonal_pure_states():
    zero = qsim.StateVector((2,), [1.0, 0.0])
    one = qsim.StateVector((2,), [0.0, 1.0])
    assert qsim.trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.trace_distance(zero, qsim.StateVector((2, 2),
                                                   [1.0, 0.0, 0.0, 0.0]))


def test_partial_trace_product_state():
    rng = np.random.default_rng(21)
    rho_a = oracles.random_density(2, rng)
    rho_b = oracles.random_density(3, rng)
    joint = qsim.DensityOperator((2, 3), np.kron(rho_a, rho_b))
    assert np.allclose(qsim.partial_trace(joint, [0]).matrix, rho_a,
                       atol=1e-12)
    assert np.allclose(qsim.partial_trace(joint, [1]).matrix, rho_b,
                       atol=1e-12)


def test_partial_trace_matches_einsum():
    rng = np.random.default_rng(22)
    rho = oracles.random_density(12, rng)
    op = qsim.DensityOperator((2, 3, 2), rho)
    # independent contraction for keep=[0, 2]
    t = rho.reshape(2, 3, 2, 2, 3, 2)
    ref = np.einsum("ajbcjd->abcd", t).reshape(4, 4)
    assert np.allclose(qsim.partial_trace(op, [0, 2]).matrix, ref, atol=1e-12)
    with pytest.raises(IndexError):
        qsim.partial_trace(op, [2, 0])
    with pytest.raises(ValueError):
        qsim.partial_trace(op, [])


def test_measure_probabilities_and_branches():
    comp, diag, _ = qsim.standard_bases_qubit()
    plus = qsim.StateVector((2,), diag.vector(0))
    probs = qsim.measure(plus, {0: comp})
    assert probs[(0,)] == pytest.approx(0.5)
    assert probs[(1,)] == pytest.approx(0.5)

    rng = np.random.default_rng(5)
    rho = qsim.DensityOperator((2, 2), oracles.random_density(4, rng))
    probs, branches = qsim.measure(rho, {0: comp, 1: diag},
                                   return_branches=True)
    assert sum(probs.values()) == pytest.approx(rho.trace, abs=1e-10)
    for outcome, branch in branches.items():
        assert branch.trace == pytest.approx(probs[outcome], abs=1e-10)
    # branch sum reproduces the input dephased in the measured product basis
    u = np.kron(comp.vectors, diag.vectors)
    rot = u.conj().T @ rho.matrix @ u
    dephased = u @ np.diag(np.diagonal(rot)) @ u.conj().T
    total = sum(b.matrix for b in branches.values())
    assert np.allclose(total, dephased, atol=1e-10)
    # the probabilities are the rotated diagonal, read from the spectral
    # vectors
    diagonal = np.diagonal(rot).real.reshape(2, 2)
    for outcome, p in probs.items():
        assert p == pytest.approx(diagonal[outcome], abs=1e-13)


def test_spectral_tensor_reconstructs_states():
    rng = np.random.default_rng(6)
    psi = qsim.StateVector((2, 3), oracles.random_pure(6, rng))
    vectors, weights = qsim.spectral_tensor(psi)
    assert vectors.shape == (2, 3, 1)
    assert weights.tolist() == [1.0]
    assert np.array_equal(vectors.reshape(-1), psi.amplitudes)
    # full-rank, sub-normalized and rank-one densities: every eigenpair is
    # kept, so sum_r w_r |v_r><v_r| is the operator within rounding
    full = oracles.random_density(6, rng)
    pure = oracles.random_pure(6, rng)
    for rho in (full, 0.4 * full, np.outer(pure, pure.conj())):
        vectors, weights = qsim.spectral_tensor(
            qsim.DensityOperator((2, 3), rho))
        assert vectors.shape == (2, 3, 6) and weights.shape == (6,)
        v = vectors.reshape(6, 6)
        assert np.abs((v * weights) @ v.conj().T - rho).max() <= 1e-13
    with pytest.raises(TypeError):
        qsim.spectral_tensor(np.eye(2) / 2.0)


def test_measure_diagonal_input_is_reproduced():
    comp, _, _ = qsim.standard_bases_qubit()
    rho = qsim.DensityOperator((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]))
    _, branches = qsim.measure(rho, {0: comp, 1: comp}, return_branches=True)
    assert np.allclose(sum(b.matrix for b in branches.values()), rho.matrix,
                       atol=1e-12)


def test_measure_partial_register():
    rng = np.random.default_rng(9)
    psi = qsim.StateVector((2, 2, 2), oracles.random_pure(8, rng))
    _, diag, _ = qsim.standard_bases_qubit()
    probs = qsim.measure(psi, {1: diag})
    assert set(probs) == {(0,), (1,)}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_outcome_table_matches_measure():
    rng = np.random.default_rng(4)
    for bases in (qsim.standard_bases_qubit(),
                  [qsim.haar_random_basis(2, rng) for _ in range(4)]):
        table = qsim.outcome_table(bases)
        assert table.shape == (len(bases), 2, len(bases))
        for (s, sb), x, (b, bb) in itertools.product(
                enumerate(bases), (0, 1), enumerate(bases)):
            sent = qsim.StateVector((2,), sb.vector(x))
            want = qsim.measure(sent, {0: bb})[(1,)]
            assert table[s, x, b] == pytest.approx(want, abs=1e-15)
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.outcome_table([qsim.haar_random_basis(3, rng)])


def test_basis_string_walk_order_values_and_contraction_count(monkeypatch):
    comp, diag, circ = qsim.standard_bases_qubit()
    contract = qsim._contract_axis
    calls = []

    def counting(tensor, mat, axis):
        calls.append(axis)
        return contract(tensor, mat, axis)

    rng = np.random.default_rng(43)
    for rotations in ((None, diag.vectors),
                      tuple(b.vectors.conj().T for b in (comp, diag)),
                      tuple(b.vectors.conj().T for b in (comp, diag, circ))):
        nb = len(rotations)
        active = sum(u is not None for u in rotations)
        for n in range(1, 5):
            # a pure state of n qubits and a qutrit the walk leaves alone,
            # and the spectral vectors of a density operator, whose
            # eigenvector axis the walk leaves alone as well
            psi = oracles.random_pure(3 * 2 ** n, rng).reshape((2,) * n + (3,))
            rho = qsim.DensityOperator((2,) * n,
                                       oracles.random_density(2 ** n, rng))
            for tensor in (psi, qsim.spectral_tensor(rho)[0]):
                want = []
                for digits in itertools.product(range(nb), repeat=n):
                    t = tensor
                    for i, b in enumerate(digits):
                        if rotations[b] is not None:
                            t = contract(t, rotations[b], i)
                    want.append((digits, t))
                calls.clear()
                monkeypatch.setattr(qsim, "_contract_axis", counting)
                got = list(qsim.basis_string_walk(tensor, rotations, n))
                monkeypatch.setattr(qsim, "_contract_axis", contract)
                assert [d for d, _ in got] == [d for d, _ in want]
                for (_, g), (_, w) in zip(got, want):
                    assert np.array_equal(g, w)
                prefixes = active * sum(nb ** (i - 1) for i in range(1, n + 1))
                assert len(calls) == prefixes
                # the block walk: one string per block, a few strings per
                # block and one block for all; rows in the same order and
                # with the same bits, no block past WALK_BLOCK entries
                # unless it holds one string
                for size in (1, 3 * tensor.size, nb ** n * tensor.size):
                    monkeypatch.setattr(qsim, "WALK_BLOCK", size)
                    rows = []
                    for prefix, block in qsim.basis_string_blocks(
                            tensor, rotations, n):
                        assert block.shape[1:] == tensor.shape
                        assert block.size <= size or len(block) == 1
                        rows += [(prefix, r) for r in block]
                    assert len(rows) == len(want)
                    for (prefix, r), (digits, w) in zip(rows, want):
                        assert digits[:len(prefix)] == prefix
                        assert np.array_equal(r, w)
                monkeypatch.undo()


def test_contract_axis_matches_einsum():
    # every axis of qubit and qutrit tensors, real and complex matrices,
    # against an einsum reference; and every string of a walk over a
    # density operator's spectral vectors, sum_r w_r (U v_r)(U v_r)^dagger,
    # against U rho U^dagger with U the Kronecker product of its rotations
    rng = np.random.default_rng(47)
    letters = "abcdefg"
    for d, sizes in ((2, range(1, 8)), (3, range(1, 5))):
        for n in sizes:
            t = (rng.normal(size=(d,) * n)
                 + 1j * rng.normal(size=(d,) * n))
            for mat in (rng.normal(size=(d, d)),
                        rng.normal(size=(d, d))
                        + 1j * rng.normal(size=(d, d))):
                for axis in range(n):
                    sub = letters[:n]
                    out = sub[:axis] + "z" + sub[axis + 1:]
                    want = np.einsum(f"z{sub[axis]},{sub}->{out}", mat, t)
                    got = qsim._contract_axis(t, mat, axis)
                    assert got.shape == want.shape, (d, n, axis)
                    assert np.allclose(got, want, rtol=1e-13, atol=1e-14), \
                        (d, n, axis)
    comp, diag, circ = qsim.standard_bases_qubit()
    rotations = (None, diag.vectors.conj().T, circ.vectors.conj().T)
    for n in (1, 2, 3):
        rho = oracles.random_density(2 ** n, rng)
        vectors, weights = qsim.spectral_tensor(
            qsim.DensityOperator((2,) * n, rho))
        for digits, got in qsim.basis_string_walk(vectors, rotations, n):
            u = np.ones((1, 1))
            for b in digits:
                u = np.kron(u, np.eye(2) if rotations[b] is None
                            else rotations[b])
            v = got.reshape(2 ** n, -1)
            want = u @ rho @ u.conj().T
            assert np.allclose((v * weights) @ v.conj().T, want,
                               rtol=1e-13, atol=1e-14), digits


def test_epr_pair_correlations():
    pair = qsim.epr_pair()
    comp, diag, circ = qsim.standard_bases_qubit()
    for basis in (comp, diag):
        probs = qsim.measure(pair, {0: basis, 1: basis})
        assert probs[(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(0, 1)] == pytest.approx(0.0, abs=1e-12)
    # circular basis anticorrelates because of the conjugation
    probs = qsim.measure(pair, {0: circ, 1: circ})
    assert probs[(0, 1)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, 0)] == pytest.approx(0.5, abs=1e-12)


def test_haar_random_basis_statistics():
    rng = np.random.default_rng(40)
    overlaps = []
    for _ in range(400):
        b = qsim.haar_random_basis(2, rng)
        gram = b.vectors.conj().T @ b.vectors
        assert np.allclose(gram, np.eye(2), atol=1e-10)
        overlaps.append(abs(b.vectors[0, 0]) ** 2)
    # |<0|U|0>|^2 is uniform on [0, 1] for qubit Haar, mean 1/2
    assert np.mean(overlaps) == pytest.approx(0.5, abs=0.06)


def test_cq_state_validation_and_distance():
    rng = np.random.default_rng(17)
    op_a = 0.6 * oracles.random_density(2, rng)
    op_b = 0.4 * oracles.random_density(2, rng)
    cq = qsim.CqState((2,), {("a",): op_a, ("b",): op_b})
    assert cq.mass == pytest.approx(1.0, abs=1e-9)
    assert cq.average_operator().trace == pytest.approx(1.0, abs=1e-9)

    with pytest.raises(ValueError):
        qsim.CqState((2,), {("a",): op_a, ("b",): op_a})  # mass 1.2
    with pytest.raises(qsim.DimensionMismatchError):
        qsim.CqState((2, 2), {("a",): op_a})

    other = qsim.CqState((2,), {("a",): op_b, ("b",): op_a})
    expected = 0.5 * (oracles.trace_norm_svd(op_a - op_b)
                      + oracles.trace_norm_svd(op_b - op_a))
    assert qsim.cq_trace_distance(cq, other) == pytest.approx(expected,
                                                              abs=1e-10)


def test_cq_distance_counts_disjoint_branches():
    op = 0.5 * np.eye(2)
    a = qsim.CqState((2,), {("x",): op})
    b = qsim.CqState((2,), {("y",): op})
    assert qsim.cq_trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
