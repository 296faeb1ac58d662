"""Generic sparse recovery: orthogonal matching pursuit and SBL.

Both solvers operate on a :class:`SparseProblem` holding a complex
sensing matrix ``A`` (P x Q), observation ``y`` (P) and the column norms
of ``A``, computed once when the problem is built (or passed in by a
caller that poses many problems on one matrix).  OMP greedily selects
atoms by normalized correlation with the residual, dividing by those
stored norms, and refits by least squares.  SBL places independent
CN(0, gamma_q) priors on the coefficients and learns the prior variances
from the posterior:

    E-step:  Sigma = (A^H A / sigma^2 + Gamma^-1)^-1
             mu    = Sigma A^H y / sigma^2
    M-step:  gamma_q = |mu_q|^2 + Sigma_qq                  (EM)
             gamma_q = |mu_q|^2 / (1 - Sigma_qq / gamma_q)  (fixed point)

Both M-steps seek the marginal likelihood of y under
CN(0, sigma^2 I + A Gamma A^H), with the noise variance held fixed.
Only EM is guaranteed never to lower it (Wipf & Rao, IEEE TSP 2004);
MacKay's fixed point, whose single-atom form Tipping & Faul (AISTATS
2003) derive in closed form, sends unsupported variances to zero in far
fewer iterations.  The E-step factors that Q x Q matrix for any shape of
``A``, from ``A^H A`` and ``A^H y`` formed once; atoms whose variance
falls below a relative floor can be pruned from both mid-iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NumericalRankError

_GAMMA_ABS_FLOOR = 1e-100
# lower bound on the fixed-point denominator 1 - Sigma_qq/gamma_q, which
# rounding can push to zero or below once gamma_q vanishes
_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class SparseProblem:
    """A linear observation ``y = A x + n`` with x presumed sparse.

    Parameters
    ----------
    sensing_matrix : ndarray, shape (P, Q)
        Complex dictionary / sensing product. Must not contain an
        all-zero column.
    observation : ndarray, shape (P,)
    column_norms : ndarray, shape (Q,), optional
        ``np.linalg.norm(sensing_matrix, axis=0)``, computed here when
        omitted.  A caller that poses many problems on one matrix passes
        them once computed; they are checked for shape and zeros, not
        recomputed.  OMP divides its correlations by them.
    """

    sensing_matrix: np.ndarray
    observation: np.ndarray
    column_norms: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.sensing_matrix)
        y = np.asarray(self.observation).reshape(-1)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"sensing matrix must be 2D and non-empty, got {a.shape}")
        if y.shape[0] != a.shape[0]:
            raise ValueError(
                f"observation length {y.shape[0]} != matrix rows {a.shape[0]}"
            )
        if self.column_norms is None:
            norms = np.linalg.norm(a, axis=0)
        else:
            norms = np.asarray(self.column_norms)
            if norms.shape != (a.shape[1],):
                raise ValueError(
                    f"column norms shape {norms.shape} != ({a.shape[1]},)"
                )
        if np.any(norms == 0):
            raise ValueError("sensing matrix contains an all-zero column")
        object.__setattr__(self, "sensing_matrix", a)
        object.__setattr__(self, "observation", y)
        object.__setattr__(self, "column_norms", norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.sensing_matrix.shape


@dataclass(frozen=True)
class SparseSolution:
    """Solver output: coefficients, support and convergence diagnostics."""

    coefficients: np.ndarray
    support: np.ndarray
    residual_history: tuple[float, ...]
    iterations: int
    converged: bool

    def diagnostics(self) -> dict:
        """JSON-serializable convergence record."""
        return {
            "support": self.support.tolist(),
            "residual_history": list(self.residual_history),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SblState:
    """Posterior and prior state of the SBL solver at exit.

    ``covariance`` spans the retained atoms in ``active`` (all atoms
    without mid-run pruning), for any shape of ``A``; ``gamma`` and
    ``mean`` are full length with zeros at discarded atoms.
    """

    gamma: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    active: np.ndarray
    iterations: int
    evidence: tuple[float, ...] = field(default=())

    def diagnostics(self) -> dict:
        """JSON-serializable prior-variance and evidence record."""
        return {
            "gamma": self.gamma.tolist(),
            "active": self.active.tolist(),
            "iterations": self.iterations,
            "evidence": list(self.evidence),
        }


def omp(
    problem: SparseProblem,
    max_atoms: int | None = None,
    residual_tol: float | None = None,
) -> SparseSolution:
    """Orthogonal matching pursuit with normalized-correlation selection.

    Atoms are scored by ``|a_q^H r| / ||a_q||`` against the current
    residual (columns may carry unequal physical amplitudes; the norms
    are the problem's stored ``column_norms``), ties break
    toward the lowest index, and the coefficients are refit by least
    squares on the accumulated support after every selection.

    Stops after ``max_atoms`` selections or once
    ``||r|| / ||y|| <= residual_tol``; at least one criterion must be
    given.

    Raises
    ------
    NumericalRankError
        If the support refit becomes rank deficient (duplicate-atom
        pathology).
    """
    if max_atoms is None and residual_tol is None:
        raise ValueError("need max_atoms and/or residual_tol as a stopping rule")
    a = problem.sensing_matrix
    y = problem.observation
    p, q = a.shape
    if max_atoms is not None and not (1 <= max_atoms <= min(p, q)):
        raise ValueError(f"max_atoms must be in [1, min(P, Q)], got {max_atoms}")

    y_norm = np.linalg.norm(y)
    x = np.zeros(q, dtype=complex)
    if y_norm == 0 or (residual_tol is not None and residual_tol >= 1.0):
        # nothing to fit, or the zero solution already meets the tolerance
        return SparseSolution(
            coefficients=x, support=np.array([], dtype=int),
            residual_history=(float(y_norm),), iterations=0, converged=True,
        )

    support: list[int] = []
    residual = y.copy()
    history = [y_norm]
    converged = False
    budget = max_atoms if max_atoms is not None else min(p, q)
    while not converged and len(support) < budget:
        scores = np.abs(residual.conj() @ a) / problem.column_norms
        support.append(int(np.argmax(scores)))
        basis = a[:, support]
        coef, _res, rank, _sv = np.linalg.lstsq(basis, y, rcond=None)
        if rank < len(support):
            raise NumericalRankError(
                f"rank-deficient refit on support of size {len(support)}"
            )
        residual = y - basis @ coef
        history.append(float(np.linalg.norm(residual)))
        if residual_tol is not None and history[-1] / y_norm <= residual_tol:
            converged = True
    x[support] = coef
    return SparseSolution(
        coefficients=x, support=np.array(support, dtype=int),
        residual_history=tuple(history), iterations=len(support),
        converged=converged or max_atoms is None,
    )


def _gram(a, y) -> tuple[np.ndarray, np.ndarray]:
    """``(A^H A, A^H y)`` for SBL; the conjugate copy of ``A`` dies on return."""
    a_h = a.conj().T
    return a_h @ a, a_h @ y


def sbl_em(
    problem: SparseProblem,
    sigma2: float | None = None,
    max_iters: int = 200,
    tol: float = 1e-6,
    gamma_floor: float = 1e-8,
    track_evidence: bool = True,
    prune: bool = False,
    update: str = "em",
) -> tuple[SparseSolution, SblState]:
    """Sparse Bayesian learning with fixed noise variance.

    Every iteration runs the same E-step and then one of two M-steps:
    ``"em"`` sets ``gamma_q = |mu_q|^2 + Sigma_qq`` and never lowers the
    evidence; ``"fixed-point"`` (MacKay) sets
    ``gamma_q = |mu_q|^2 / (1 - Sigma_qq / gamma_q)``, which drives
    unsupported atoms to zero far faster but carries no monotonicity
    guarantee.  ``A^H A`` and ``A^H y`` are formed once; the E-step
    factors the Q x Q matrix ``A^H A / sigma^2 + Gamma^-1``, solves the
    factor onto the identity and squares that inverse, each in place; the
    iteration, pruning and exit posterior run on the active rows and
    columns alone.  This is exact for any shape; with Q > P each
    iteration costs Q^3.

    Parameters
    ----------
    problem : SparseProblem
    sigma2 : float
        Noise variance; required (``None`` raises ``ValueError``).
    max_iters, tol : iteration stopping controls; convergence is
        declared when the largest relative change of any prior variance
        drops below ``tol``.
    gamma_floor : float
        Relative pruning threshold: atoms whose prior variance falls
        below ``gamma_floor * max(gamma)`` are zeroed in the reported
        coefficients.
    track_evidence : bool
        Record the log marginal likelihood at every iteration.
    prune : bool
        Drop atoms below the floor *during* the iteration (standard ARD
        speedup).  Off by default: with EM and pruning deferred to exit,
        the recorded evidence is exactly non-decreasing.
    update : {"em", "fixed-point"}
        The M-step rule.

    Returns
    -------
    (SparseSolution, SblState)
        Coefficients are the posterior mean with pruned atoms zeroed.

    Raises
    ------
    DivergenceError
        If an iterate turns non-finite; carries the iteration index.
    """
    import scipy.linalg  # loaded on first use: a sweep pool's parent never needs it
    if update not in ("em", "fixed-point"):
        raise ValueError(f"unknown SBL update {update!r}; use 'em' or 'fixed-point'")
    if sigma2 is None or sigma2 <= 0:
        raise ValueError(f"SBL needs a positive noise variance, got {sigma2}")
    y = problem.observation
    p, q_full = problem.shape
    gram, rhs = _gram(problem.sensing_matrix, y)  # over the active atoms

    active = np.arange(q_full)
    gamma = np.ones(q_full)
    evidence: list[float] = []
    history: list[float] = [float(np.linalg.norm(y))]
    y_energy = float(np.linalg.norm(y) ** 2)
    iterations = 0
    converged = False

    for it in range(max_iters):
        iterations = it + 1
        m = np.divide(gram, sigma2, order="F")  # column-major, so LAPACK factors it in place
        m[np.diag_indices_from(m)] += 1.0 / gamma
        try:
            chol_m = scipy.linalg.cholesky(m, lower=True, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise DivergenceError(f"E-step factorization failed: {exc}", it) from exc
        mu = scipy.linalg.cho_solve((chol_m, True), rhs, check_finite=False) / sigma2
        inv_factor = scipy.linalg.solve_triangular(
            chol_m, np.eye(active.size, dtype=complex, order="F"), lower=True,
            overwrite_b=True, check_finite=False,
        )
        np.multiply(inv_factor.conj(), inv_factor, out=inv_factor)  # |L^-1|^2
        sigma_diag = np.real(np.sum(inv_factor, axis=0))
        fit = np.real(np.vdot(rhs, mu))  # Re(y^H A mu)
        if track_evidence:
            # det(sigma2 I + A G A^H) = sigma2^P det(G) det(M)
            logdet_c = (
                p * np.log(sigma2) + np.sum(np.log(gamma))
                + 2.0 * np.sum(np.log(np.real(np.diag(chol_m))))
            )
            quad = (y_energy - fit) / sigma2
            evidence.append(float(-p * np.log(np.pi) - logdet_c - quad))
        # ||y - A mu||^2 expanded, so no P x Q product is formed
        residual2 = y_energy - 2.0 * fit + np.real(np.vdot(mu, gram @ mu))
        history.append(float(np.sqrt(max(residual2, 0.0))))

        if update == "em":
            gamma_new = np.abs(mu) ** 2 + np.maximum(sigma_diag, 0.0)
        else:
            gamma_new = np.abs(mu) ** 2 / np.maximum(1.0 - sigma_diag / gamma, _DENOM_FLOOR)
        if not np.all(np.isfinite(gamma_new)) or not np.all(np.isfinite(mu)):
            raise DivergenceError("non-finite SBL iterate", it)
        delta = np.max(np.abs(gamma_new - gamma) / np.maximum(gamma, _GAMMA_ABS_FLOOR))
        gamma = np.maximum(gamma_new, _GAMMA_ABS_FLOOR)
        if prune:
            keep = gamma >= gamma_floor * gamma.max()
            if not np.all(keep):
                active = active[keep]
                gamma = gamma[keep]
                gram = gram[np.ix_(keep, keep)]
                rhs = rhs[keep]
        if delta < tol:
            converged = True
            break

    # final posterior at the exit prior, over the surviving atoms
    m = gram / sigma2
    m[np.diag_indices_from(m)] += 1.0 / gamma
    chol_m = scipy.linalg.cholesky(m, lower=True, check_finite=False)
    covariance = scipy.linalg.cho_solve(
        (chol_m, True), np.eye(active.size, dtype=complex), check_finite=False
    )
    mu = covariance @ rhs / sigma2
    covariance = 0.5 * (covariance + covariance.conj().T)

    keep = gamma >= gamma_floor * gamma.max()
    mean_full = np.zeros(q_full, dtype=complex)
    mean_full[active] = mu
    gamma_full = np.zeros(q_full)
    gamma_full[active] = gamma
    coefficients = np.zeros(q_full, dtype=complex)
    coefficients[active[keep]] = mu[keep]
    state = SblState(
        gamma=gamma_full, mean=mean_full, covariance=covariance, active=active,
        iterations=iterations, evidence=tuple(evidence),
    )
    solution = SparseSolution(
        coefficients=coefficients, support=active[keep],
        residual_history=tuple(history), iterations=iterations, converged=converged,
    )
    return solution, state
