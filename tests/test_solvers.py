import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import dense_operator

from nearmimo.dictionaries import build_angular
from nearmimo.errors import NumericalRankError
from nearmimo.geometry import build_upa, partition
from nearmimo.sensing import design_combiner
from nearmimo.solvers import MatrixOperator, omp, sbl_em

WAVELENGTH = 299792458.0 / 6.8e9
HALF = WAVELENGTH / 2


def _random_problem(rng, p, q, sparsity=2, sigma=0.0):
    a = (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)
    x = np.zeros(q, dtype=complex)
    support = rng.choice(q, size=sparsity, replace=False)
    x[support] = rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
    y = a @ x
    if sigma > 0:
        y = y + sigma * (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2)
    return dense_operator(a), y, x, support


def _angular_operators():
    """A 3 x 4 angular dictionary, and its view through the one tile of a designed combiner."""
    d = build_angular(3, 4, HALF, HALF, WAVELENGTH, 4)
    bs = build_upa(3, 4, HALF, HALF, (0, 0, 0))
    return d, d.tile_operator(design_combiner(6, partition(bs, 1, 1), 2), 1.0, [0])


def separated_atoms(rng, dictionary, count):
    """On-grid supports satisfying the exact-recovery condition.

    Rejects candidate supports until ``max_j ||A_S^+ a_j||_1 < 1``,
    Tropp's sufficient condition for greedy exact recovery.
    """
    while True:
        idx = rng.choice(dictionary.shape[1], size=count, replace=False)
        a_s = dictionary.columns(idx)
        rest = np.delete(np.arange(dictionary.shape[1]), idx)
        scores = np.sum(np.abs(np.linalg.pinv(a_s) @ dictionary.columns(rest)), axis=0)
        if scores.max() < 1.0:
            return idx


class TestProblemValidation:
    """An operator checks its shape and norms when built; each solver checks the observation."""

    def test_rejects_zero_column(self):
        a = np.ones((3, 2), dtype=complex)
        a[:, 1] = 0
        with pytest.raises(ValueError, match="zero"):
            dense_operator(a)

    def test_rejects_shape_mismatch(self):
        op = dense_operator(np.ones((3, 2)))
        with pytest.raises(ValueError, match="observation length 4"):
            omp(op, np.ones(4), max_atoms=1)
        with pytest.raises(ValueError, match="observation length 4"):
            sbl_em(op, np.ones(4), sigma2=0.1)

    def test_rejects_a_bare_matrix(self):
        with pytest.raises(TypeError, match="MatrixOperator"):
            omp(np.eye(3, dtype=complex), np.ones(3), max_atoms=1)

    def test_rejects_a_zero_kronecker_norm(self):
        for op in _angular_operators():
            norms = op.column_norms.copy()
            norms[..., 5] = 0.0
            with pytest.raises(ValueError, match="zero"):
                replace(op, column_norms=norms)

    def test_sbl_refuses_a_kronecker_operator(self):
        for op in _angular_operators():
            with pytest.raises(ValueError, match="MatrixOperator"):
                sbl_em(op, np.ones(op.shape[0]), sigma2=0.1)


class TestColumnNorms:
    """The norms an operator is given are checked when it is built, not recomputed."""

    @pytest.mark.parametrize("norms", [np.ones(29), np.ones((30, 1)), np.ones(31)])
    def test_rejects_passed_norms_of_wrong_shape(self, norms):
        a = np.ones((12, 30), dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            MatrixOperator(a, norms)

    def test_rejects_passed_norms_with_a_zero(self):
        norms = np.ones(30)
        norms[7] = 0.0
        with pytest.raises(ValueError, match="zero"):
            MatrixOperator(np.ones((12, 30), dtype=complex), norms)

    def test_angular_operators_reject_norms_of_wrong_shape(self):
        for op in _angular_operators():
            with pytest.raises(ValueError, match="shape"):
                replace(op, column_norms=np.ones(15))

    def test_omp_scores_with_the_stored_norms(self):
        # a tiny stored norm inflates that atom's score, so OMP picks it
        # first: the norms are read from the operator, not recomputed
        op, y, _x, support = _random_problem(np.random.default_rng(13), 16, 40)
        decoy = next(q for q in range(40) if q not in support)
        norms = np.linalg.norm(op.matrix, axis=0)
        norms[decoy] = 1e-12
        sol = omp(MatrixOperator(op.matrix, norms), y, max_atoms=1)
        assert sol.support[0] == decoy


class TestOmp:
    def test_identity_dictionary(self):
        op, y = dense_operator(np.eye(3, dtype=complex)), np.array([0.0, 2.0, 0.0])
        sol = omp(op, y, max_atoms=1)
        np.testing.assert_allclose(sol.coefficients, [0, 2, 0], atol=1e-14)
        assert sol.residual_history[-1] < 1e-14
        np.testing.assert_array_equal(sol.support, [1])

    def test_first_atom_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            op, y, _x, _s = _random_problem(rng, 12, 40, sparsity=3, sigma=0.1)
            a = op.matrix
            brute = np.argmax(np.abs(a.conj().T @ y) / np.linalg.norm(a, axis=0))
            sol = omp(op, y, max_atoms=1)
            assert sol.support[0] == brute

    def test_planted_two_sparse_recovery_on_angular_dictionary(self):
        d = build_angular(4, 4, HALF, HALF, WAVELENGTH, 8)
        rng = np.random.default_rng(1)
        atoms = separated_atoms(rng, d, 2)
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = d.columns(atoms) @ coeffs
        sol = omp(dense_operator(d.columns(slice(None))), y, max_atoms=2)
        np.testing.assert_array_equal(np.sort(sol.support), np.sort(atoms))
        x_true = np.zeros(d.shape[1], dtype=complex)
        x_true[atoms] = coeffs
        err = np.linalg.norm(sol.coefficients - x_true) / np.linalg.norm(x_true)
        assert err < 1e-10

    def test_residual_orthogonal_to_support(self):
        rng = np.random.default_rng(2)
        op, y, _x, _s = _random_problem(rng, 16, 32, sparsity=4, sigma=0.05)
        sol = omp(op, y, max_atoms=4)
        a = op.matrix
        residual = y - a @ sol.coefficients
        proj = a[:, sol.support].conj().T @ residual
        assert np.abs(proj).max() < 1e-10

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(3)
        op, y, _x, _s = _random_problem(rng, 16, 32, sparsity=4, sigma=0.2)
        sol = omp(op, y, max_atoms=6)
        hist = np.array(sol.residual_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_residual_tol_stop(self):
        rng = np.random.default_rng(4)
        op, y, _x, _s = _random_problem(rng, 16, 32, sparsity=2)
        sol = omp(op, y, residual_tol=1e-8)
        assert sol.converged
        assert sol.residual_history[-1] / sol.residual_history[0] <= 1e-8

    def test_unmet_tolerance_is_not_converged(self):
        # three atoms span 3 of 10 dimensions: a generic y keeps most of its norm
        rng = np.random.default_rng(0)
        op, y = dense_operator(rng.standard_normal((10, 3))), rng.standard_normal(10)
        sol = omp(op, y, residual_tol=1e-3)
        assert sol.iterations == 3
        assert sol.residual_history[-1] / sol.residual_history[0] > 1e-3
        assert not sol.converged

    def test_zero_observation(self):
        op, y = dense_operator(np.eye(3, dtype=complex)), np.zeros(3)
        sol = omp(op, y, max_atoms=2)
        assert sol.support.size == 0
        np.testing.assert_array_equal(sol.coefficients, 0)

    def test_tolerance_met_before_any_atom(self):
        # ||r|| / ||y|| = 1 <= residual_tol already holds for x = 0
        op, y = dense_operator(np.eye(3, dtype=complex)), np.array([1.0, 2.0, 0.0])
        sol = omp(op, y, max_atoms=2, residual_tol=1.0)
        assert sol.support.size == 0 and sol.iterations == 0 and sol.converged
        np.testing.assert_array_equal(sol.coefficients, 0)
        assert sol.residual_history == (np.sqrt(5.0),)

    def test_duplicate_atom_rank_failure(self):
        a = np.ones((4, 2), dtype=complex)
        y = np.ones(4) + np.array([1e-3, -1e-3, 1e-3, -1e-3])
        with pytest.raises(NumericalRankError):
            omp(dense_operator(a), y, max_atoms=2)

    def test_requires_stopping_rule(self):
        op, y = dense_operator(np.eye(2, dtype=complex)), np.ones(2)
        with pytest.raises(ValueError):
            omp(op, y)


class TestTracedFields:
    """The benchmark's tracer reads ``args[0].shape[1]`` of every ``omp`` call and, from
    what it returns, ``int(iterations)``, ``bool(converged)`` and ``len(support)``
    (benchmarks/tracer.py); one problem and a batch both answer them."""

    def test_one_problem_answers_the_traced_fields(self):
        op, y, _x, _s = _random_problem(np.random.default_rng(21), 12, 30, sparsity=2)
        sol = omp(op, y, max_atoms=3)
        assert op.shape[1] == 30
        assert (int(sol.iterations), bool(sol.converged), len(sol.support)) == (3, False, 3)

    def test_a_batch_answers_them_for_the_whole_batch(self):
        d, tile_op = _angular_operators()
        rng = np.random.default_rng(22)
        ys = rng.standard_normal((3, tile_op.shape[0])) + 1j * rng.standard_normal((3, 12))
        ys[1] = 0.0  # converged at once, with an empty support
        op = d.tile_operator(tile_op.combiner, 1.0, [0, 0, 0])
        sols = omp(op, ys, max_atoms=4, residual_tol=np.array([1e-6, 1e-6, 0.999]))
        assert op.shape[1] == 16 and len(sols) == 3
        assert [s.iterations for s in sols] == [4, 0, 1]
        assert (int(sols.iterations), bool(sols.converged), len(sols.support)) == (4, False, 5)
        assert bool(omp(op, ys[1:2], max_atoms=4).converged)


class TestSblEm:
    """``sbl_em``'s contract: argument checks, fixed points and the reported posterior."""

    def test_scalar_fixed_point(self):
        a = np.ones((5, 1), dtype=complex) / np.sqrt(5)
        y = 3.0 * a[:, 0]
        sol, state = sbl_em(dense_operator(a), y, sigma2=1e-8)
        assert abs(sol.coefficients[0] - 3.0) < 1e-6
        assert state.gamma[0] == pytest.approx(9.0, rel=1e-3)

    def test_zero_observation_collapses(self):
        a = np.eye(4, dtype=complex)
        sol, state = sbl_em(dense_operator(a), np.zeros(4), sigma2=0.1)
        np.testing.assert_array_equal(sol.coefficients, 0)
        assert state.gamma.max() < 1e-2

    def test_support_agrees_with_omp_on_one_sparse_problem(self):
        d = build_angular(4, 4, HALF, HALF, WAVELENGTH, 8)
        rng = np.random.default_rng(5)
        atom = separated_atoms(rng, d, 1)[0]
        y = (1.3 - 0.4j) * d.columns([atom])[:, 0]
        op = dense_operator(d.columns(slice(None)))
        omp_sol = omp(op, y, max_atoms=1)
        sbl_sol, _ = sbl_em(op, y, sigma2=1e-6)
        assert np.argmax(np.abs(sbl_sol.coefficients)) == omp_sol.support[0]

    @pytest.mark.parametrize("p,q", [(24, 12), (12, 48)])
    def test_posterior_mean_linear_system_consistency(self, p, q):
        # over the model atoms; the mean is zero outside them
        rng = np.random.default_rng(6)
        op, y, _x, _s = _random_problem(rng, p, q, sparsity=3, sigma=0.05)
        sigma2 = 0.05 ** 2
        _sol, state = sbl_em(op, y, sigma2=sigma2)
        a = op.matrix[:, state.active]
        gamma = state.gamma[state.active]
        lhs = (a.conj().T @ a / sigma2 + np.diag(1.0 / gamma)) @ state.mean[state.active]
        rhs = a.conj().T @ y / sigma2
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8
        np.testing.assert_array_equal(np.delete(state.mean, state.active), 0)

    def test_covariance_hermitian_positive_definite(self):
        rng = np.random.default_rng(8)
        op, y, _x, _s = _random_problem(rng, 20, 10, sparsity=2, sigma=0.1)
        _sol, state = sbl_em(op, y, sigma2=0.01)
        cov = state.covariance
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_rejects_missing_noise_variance(self):
        # a required argument, and a positive one
        op, y = dense_operator(np.eye(2, dtype=complex)), np.ones(2)
        with pytest.raises(TypeError):
            sbl_em(op, y)
        for sigma2 in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive noise variance"):
                sbl_em(op, y, sigma2=sigma2)

    @pytest.mark.parametrize("max_iters", [-1, 2.5])
    def test_rejects_negative_max_iters(self, max_iters):
        # a negative cap, or a fractional one the step count never equals, would lift the limit
        op, y = dense_operator(np.eye(2, dtype=complex)), np.ones(2)
        with pytest.raises(ValueError, match="max_iters"):
            sbl_em(op, y, sigma2=0.1, max_iters=max_iters)


def _log_evidence(a, y, gamma, sigma2):
    """log CN(y; 0, sigma2 I + A diag(gamma) A^H), formed densely."""
    c = sigma2 * np.eye(a.shape[0]) + (a * gamma) @ a.conj().T
    chol = np.linalg.cholesky(c)
    w = np.linalg.solve(chol, y)
    return (-a.shape[0] * np.log(np.pi) - 2 * np.sum(np.log(np.abs(np.diag(chol))))
            - np.linalg.norm(w) ** 2)


def _em_reference(a, y, sigma2, gamma_floor, max_iters=2000, tol=1e-6):
    """Batch EM SBL (Wipf & Rao, IEEE TSP 2004), formed densely: the posterior
    mean with atoms below ``gamma_floor * max(gamma)`` zeroed."""

    def posterior(gamma):
        c = sigma2 * np.eye(a.shape[0]) + (a * gamma) @ a.conj().T
        w = np.linalg.solve(c, np.column_stack([y, a]))  # C^-1 [y, A]
        mu = gamma * (a.conj().T @ w[:, 0])
        return mu, gamma - gamma ** 2 * np.real(np.sum(a.conj() * w[:, 1:], axis=0))

    gamma = np.ones(a.shape[1])
    for _ in range(max_iters):
        mu, sigma_diag = posterior(gamma)
        new = np.abs(mu) ** 2 + np.maximum(sigma_diag, 0.0)
        converged = np.all(np.abs(new - gamma) <= tol * gamma)
        gamma = new
        if converged:
            break
    mu, _ = posterior(gamma)
    return np.where(gamma >= gamma_floor * gamma.max(), mu, 0.0)


class TestSblSequential:
    """The sequential steps: the exact first step, the evidence after each step,
    K-sized factors, and agreement with the dense EM reference."""

    def test_single_atom_closed_form(self):
        # one unit-norm atom: the optimum is gamma = |a^H y|^2 - sigma^2,
        # which the first step reaches exactly
        a = np.ones((5, 1), dtype=complex) / np.sqrt(5)
        y = 3.0 * a[:, 0]
        sol, state = sbl_em(dense_operator(a), y, sigma2=0.5)
        assert sol.converged and sol.iterations == 1
        assert state.gamma[0] == pytest.approx(8.5, rel=1e-12)
        # posterior mean gamma / (gamma + sigma^2) * a^H y
        assert sol.coefficients[0] == pytest.approx(3.0 * 8.5 / 9.0, rel=1e-12)

    def test_converges_sparse_and_consistent(self):
        rng = np.random.default_rng(9)
        op, y, _x, planted = _random_problem(rng, 40, 30, sparsity=3, sigma=0.05)
        sigma2 = 0.05 ** 2
        sol, state = sbl_em(op, y, sigma2=sigma2, gamma_floor=1e-4)
        assert sol.converged
        assert set(planted) <= set(sol.support)
        assert sol.support.size <= 3 + 2
        a = op.matrix[:, state.active]
        mean = state.mean[state.active]
        lhs = (a.conj().T @ a / sigma2 + np.diag(1.0 / state.gamma[state.active])) @ mean
        rhs = a.conj().T @ y / sigma2
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    @pytest.mark.parametrize("p,q", [(24, 12), (12, 48)])
    def test_evidence_non_decreasing_and_exact(self, p, q):
        rng = np.random.default_rng(7)
        for _ in range(10):
            op, y, _x, _s = _random_problem(rng, p, q, sparsity=3, sigma=0.1)
            _sol, state = sbl_em(op, y, sigma2=0.01)
            ev = np.array(state.evidence)
            assert ev.size == state.iterations + 1
            assert np.all(np.diff(ev) >= -1e-9)
            dense = _log_evidence(op.matrix, y, state.gamma, 0.01)
            assert ev[-1] == pytest.approx(dense, rel=1e-10)

    def test_finds_the_em_support_on_a_planted_problem(self):
        rng = np.random.default_rng(10)
        op, y, _x, planted = _random_problem(rng, 30, 60, sparsity=4, sigma=0.02)
        seq, _ = sbl_em(op, y, sigma2=0.02 ** 2, gamma_floor=1e-3)
        em = _em_reference(op.matrix, y, sigma2=0.02 ** 2, gamma_floor=1e-3)
        assert seq.converged
        assert set(seq.support) == set(np.flatnonzero(em)) == set(planted)
        np.testing.assert_allclose(seq.coefficients, em, atol=1e-3)

    @pytest.mark.parametrize("sigma2", [1e-12, 1e-30], ids=["120dB", "300dB"])
    def test_coherent_atoms_without_noise_stay_finite(self, sigma2):
        # 200 atoms on a 0.01-rad grid of one 16-antenna array: nearly
        # collinear columns, where a Q x Q factorization fails at 300 dB
        angles = np.linspace(-1.0, 1.0, 200)
        a = np.exp(1j * np.pi * np.outer(np.arange(16), np.sin(angles)))
        y = a @ (np.exp(1j * np.arange(200)) * (np.abs(angles - 0.3) < 0.02))
        sol, state = sbl_em(dense_operator(a), y, sigma2=sigma2)
        assert np.all(np.isfinite(sol.coefficients))
        assert sol.residual_history[-1] < 1e-3 * sol.residual_history[0]
        assert state.covariance.shape == (state.active.size,) * 2

    def test_never_forms_a_q_by_q_matrix(self):
        # a 3000-atom problem: A is 1.9 MB, a Q x Q complex matrix 144 MB
        rng = np.random.default_rng(11)
        op, y, _x, _s = _random_problem(rng, 40, 3000, sparsity=2, sigma=0.01)
        tracemalloc.start()
        try:
            sol, _ = sbl_em(op, y, sigma2=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 5e6, peak / 1e6

    def test_zero_observation_is_the_empty_model(self):
        sol, state = sbl_em(dense_operator(np.eye(4, dtype=complex)), np.zeros(4), sigma2=0.1)
        assert sol.converged and sol.iterations == 0
        assert sol.support.size == 0 and state.active.size == 0
        np.testing.assert_array_equal(sol.coefficients, 0)
