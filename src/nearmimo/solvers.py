"""Generic sparse recovery: orthogonal matching pursuit and SBL.

Both solvers take an operator for the complex sensing matrix ``A``
(P x Q), which checks the column norms its builder gives once, when it
is built, and the observation ``y`` (P).  OMP solves a batch of B
independent problems in lockstep, as Batch-OMP does (Rubinstein,
Zibulevsky & Elad, Technion CS-2008-08): every step scores all active
residuals with one operator product, adds one atom per problem and
refits by updating that problem's QR factor, so no least-squares solve
runs.  Problem b may see its own matrix (the angular dictionary through
its own combiner tile, ``TileOperator``); OMP reaches the matrices only
through the operator's scores and picked atoms, so a structured operator
that never forms ``A`` (the angular dictionary, its tile view, the
spherical one) runs the same loop as a :class:`MatrixOperator`.  SBL places independent
CN(0, gamma_q) priors on the coefficients and maximizes the marginal
likelihood of y under CN(0, sigma^2 I + A Gamma A^H), with the noise
variance held fixed, by the sequential rule of Tipping & Faul (AISTATS
2003): starting from an empty model, every step adds, re-estimates or
deletes the one atom whose single-atom optimum gamma_q = (|q_q|^2 - s_q)
/ s_q^2 (zero when |q_q|^2 <= s_q) raises the evidence most, or
re-estimates all model atoms by one Newton step.  The sparsity and
quality factors s_q, q_q come from the K atoms in the model alone: one
row of cross-Gram ``u^H A`` per atom added and K x K factors.  No Q x Q
matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalRankError

# sequential SBL: an atom whose energy outside the model's span is below
# this fraction of its own cannot join the model
_SPAN_RTOL = 1e-12
# sequential SBL: no prior variance exceeds this multiple of ||y||^2 / ||a_q||^2.
# A lone atom's optimum never reaches 1; above it, neighbouring atoms with
# large opposite coefficients can still model an off-grid location, while
# the factors stay well conditioned without noise
_GAMMA_CAP = 10.0


def _is_integer(value) -> bool:
    """A Python or numpy integer; not a bool, nor a float of integral value."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy integer or float; not a bool, nor a string."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_operator(shape, column_norms) -> None:
    """``ValueError`` unless ``shape`` is 2D and non-empty and ``column_norms`` is
    (Q,), or (I, Q) for I matrices, with no zero; OMP divides its correlations by them."""
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"sensing matrix must be 2D and non-empty, got {shape}")
    norms = np.asarray(column_norms)
    if norms.ndim not in (1, 2) or norms.shape[-1] != shape[1]:
        raise ValueError(f"column norms shape {norms.shape} != ({shape[1]},)")
    if np.any(norms == 0):
        raise ValueError("sensing matrix contains an all-zero column")


@dataclass(frozen=True)
class MatrixOperator:
    """A formed P x Q matrix with its column norms, behind the operator interface.

    An operator gives ``shape`` (P, Q), ``column_norms``, and for a batch
    of problems, row j of a stack being problem ``problems[j]``:
    ``scores(residuals, problems)``, the (n, Q) normalized correlations
    ``|a_q^H r| / ||a_q||`` of each (n, P) residual row with its problem's
    atoms, and ``columns(support, problems)``, the (P, K) columns whose
    column j is atom ``support[j]`` of problem ``problems[j]``.  It checks
    its shape and norms with :func:`_check_operator` when built.  Every
    problem sees this one matrix, so ``problems`` is not read.  The code
    that builds a matrix gives its norms, which are not recomputed here.
    """

    matrix: np.ndarray
    column_norms: np.ndarray

    def __post_init__(self):
        _check_operator(self.matrix.shape, self.column_norms)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def scores(self, residuals: np.ndarray, problems=None) -> np.ndarray:
        return np.abs(residuals.conj() @ self.matrix) / self.column_norms

    def columns(self, support, problems=None) -> np.ndarray:
        return self.matrix[:, support]


@dataclass(frozen=True)
class SparseSolution:
    """Solver output: coefficients, support and convergence diagnostics."""

    coefficients: np.ndarray
    support: np.ndarray
    residual_history: tuple[float, ...]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SblState:
    """Posterior and prior state of the SBL solver at exit.

    ``covariance`` spans the model atoms in ``active``, in increasing
    order; ``gamma`` and ``mean`` are full length with zeros outside the
    model.
    """

    gamma: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    active: np.ndarray
    iterations: int
    evidence: tuple[float, ...]


class SparseSolutions(tuple):
    """The solutions of a batch of OMP problems, in order, with a summary of the batch:
    ``iterations`` is the number of lockstep steps, ``converged`` holds when every
    problem met its tolerance, and ``support`` concatenates the supports."""

    @property
    def iterations(self) -> int:
        return max((s.iterations for s in self), default=0)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self)

    @property
    def support(self) -> np.ndarray:
        return np.concatenate([s.support for s in self] or [np.zeros(0, dtype=int)])


def omp(
    operator,
    observations: np.ndarray,
    max_atoms: int | None = None,
    residual_tol=None,
) -> SparseSolution | SparseSolutions:
    """Orthogonal matching pursuit on each row of ``observations`` through any operator.

    ``observations`` is one (P,) problem or a (B, P) batch of independent
    problems, row b seen through problem b's matrix.  They run in
    lockstep: each step scores every active problem's residual with one
    ``operator.scores`` call by ``|a_q^H r| / ||a_q||`` (columns may carry
    unequal physical amplitudes; the norms are the operator's
    ``column_norms``), picks per problem with ties toward the lowest index
    and the atoms already chosen masked, and adds the picked atom to that
    problem's QR factorization ``A_S = Q R`` by two passes of Gram--Schmidt.
    The residual is ``y`` minus its projection on the columns of ``Q``, and
    the coefficients solve ``R x = Q^H y`` once a problem stops.

    Each problem stops after ``max_atoms`` selections (``min(P, Q)`` if
    omitted) or once ``||r|| / ||y|| <= residual_tol``, a scalar or one
    tolerance per problem; at least one criterion must be given.
    ``converged`` reports whether that tolerance was met.  Returns the
    problem's :class:`SparseSolution` for a (P,) observation and a
    :class:`SparseSolutions` for a batch.

    Raises
    ------
    NumericalRankError
        If a picked atom's remainder outside the span of its support is at
        most ``max(P, K) * eps * ||a||`` for K atoms with it: the refit
        would be rank deficient (duplicate-atom pathology).  That is the
        threshold ``lstsq(rcond=None)`` sets on ``sigma_min / sigma_max``;
        a repeated atom leaves a remainder of rounding size, a few eps
        times its norm, below it.
    """
    if max_atoms is None and residual_tol is None:
        raise ValueError("need max_atoms and/or residual_tol as a stopping rule")
    if isinstance(operator, np.ndarray):
        raise TypeError("pass a sensing matrix as MatrixOperator(matrix, column_norms)")
    y = np.asarray(observations, dtype=complex)
    p, q = operator.shape
    if y.ndim not in (1, 2) or y.shape[-1] != p:
        raise ValueError(f"observation length {y.shape[-1]} != matrix rows {p}")
    if max_atoms is not None and not (1 <= max_atoms <= min(p, q)):
        raise ValueError(f"max_atoms must be in [1, min(P, Q)], got {max_atoms}")
    ys = y.reshape(-1, p)
    b = ys.shape[0]
    tol = np.broadcast_to(-np.inf if residual_tol is None else residual_tol, (b,))
    budget = max_atoms if max_atoms is not None else min(p, q)

    y_norm = np.linalg.norm(ys, axis=1)
    # nothing to fit, or the zero solution already meets the tolerance
    converged = (y_norm == 0) | (tol >= 1.0)
    steps = np.zeros(b, dtype=int)
    support = np.zeros((b, budget), dtype=int)
    coefs = np.zeros((b, budget), dtype=complex)
    history = np.zeros((b, budget + 1))
    history[:, 0] = y_norm
    # the problems still running, with their residuals, the columns of Q as rows,
    # R (upper triangular), Q^H y, picks and residual norms; a problem's rows leave
    # when it stops, its results written out
    live = np.flatnonzero(~converged)
    residual = ys[live]
    basis = np.zeros((live.size, budget, p), dtype=complex)
    tri = np.zeros((live.size, budget, budget), dtype=complex)
    coords = np.zeros((live.size, budget), dtype=complex)
    picks = np.zeros((live.size, budget), dtype=int)
    norms = history[live]
    eps = np.finfo(float).eps
    for k in range(budget if live.size else 0):
        scores = operator.scores(residual, live)
        # after an exact fit, rounding must not re-pick an atom
        scores[np.arange(live.size)[:, None], picks[:, :k]] = -1.0
        picks[:, k] = np.argmax(scores, axis=1)
        atom = operator.columns(picks[:, k], live).T
        prior = basis[:, :k]
        prior_h = prior.conj()
        h = (prior_h @ atom[:, :, None])[:, :, 0]
        rest = atom - (h[:, None, :] @ prior)[:, 0]
        fix = (prior_h @ rest[:, :, None])[:, :, 0]
        rest -= (fix[:, None, :] @ prior)[:, 0]
        tau = np.linalg.norm(rest, axis=1)
        if np.any(tau <= max(p, k + 1) * eps * np.linalg.norm(atom, axis=1)):
            raise NumericalRankError(f"rank-deficient refit on support of size {k + 1}")
        basis[:, k] = rest / tau[:, None]
        coords[:, k] = np.sum(basis[:, k].conj() * residual, axis=1)
        residual -= coords[:, k, None] * basis[:, k]
        tri[:, :k, k] = h + fix
        tri[:, k, k] = tau
        norms[:, k + 1] = np.linalg.norm(residual, axis=1)
        met = norms[:, k + 1] / y_norm[live] <= tol[live]
        stop = met | (k + 1 == budget)
        if np.any(stop):
            done = live[stop]
            converged[done] = met[stop]
            steps[done] = k + 1
            support[done, :k + 1] = picks[stop, :k + 1]
            history[done] = norms[stop]
            coefs[done, :k + 1] = np.linalg.solve(tri[stop, :k + 1, :k + 1],
                                                  coords[stop, :k + 1, None])[..., 0]
            keep = ~stop
            live, residual, basis, tri = live[keep], residual[keep], basis[keep], tri[keep]
            coords, picks, norms = coords[keep], picks[keep], norms[keep]
            if live.size == 0:
                break

    coefficients = np.zeros((b, q), dtype=complex)
    solutions = []
    for i in range(b):
        k = steps[i]
        coefficients[i, support[i, :k]] = coefs[i, :k]
        solutions.append(SparseSolution(
            coefficients=coefficients[i], support=support[i, :k],
            residual_history=tuple(history[i, :k + 1].tolist()), iterations=int(k),
            converged=bool(converged[i]),
        ))
    return solutions[0] if y.ndim == 1 else SparseSolutions(solutions)


def sbl_em(
    operator: MatrixOperator,
    observation: np.ndarray,
    sigma2: float,
    max_iters: int = 200,
    tol: float = 1e-6,
    gamma_floor: float = 1e-8,
) -> tuple[SparseSolution, SblState]:
    """Sparse Bayesian learning with fixed noise variance, by the sequential
    Tipping--Faul steps the module describes.

    Each step costs O(K Q) for K atoms in the model, plus one P x Q
    product when an atom joins it.

    The K model atoms ``Phi`` are held as ``Phi = U T`` with ``U`` (P x K)
    orthonormal, so every posterior quantity is K-sized: ``Z = U^H A``
    (K x Q) gains one row ``u^H A`` per atom added, and ``A`` itself is
    never copied.  With ``F = T Gamma^1/2``, the QR factors of
    ``R^H R = I + F^H F / sigma^2`` and ``R_b^H R_b = B = sigma^2 I + F F^H``
    give ``Sigma = Gamma^1/2 R^-1 R^-H Gamma^1/2`` and
    ``mu = Gamma Phi^H C^-1 y`` with ``Phi^H C^-1 = T^H B^-1 U^H``.  Outside
    the model ``s_q = ||a_q - U z_q||^2 / sigma^2 + z_q^H B^-1 z_q`` is a sum
    of two non-negative terms and ``q_q = a_q^H (y - Phi mu) / sigma^2``;
    inside it the leave-one-out factors ``s_k = S_kk / d_k`` and
    ``q_k = Q_k / d_k`` take ``d_k = 1 - gamma_k S_kk = Sigma_kk / gamma_k``
    from the row norms of ``R^-1``, never from that cancelling difference.

    Two safeguards keep the factors well conditioned at any SNR: an atom
    whose energy outside the model's span is below ``_SPAN_RTOL`` of its
    own cannot join, and no prior variance exceeds
    ``_GAMMA_CAP * ||y||^2 / ||a_q||^2``.  When no atom is to be
    added or deleted, a step first tries a Newton step on the evidence over
    all model atoms at once (coherent atoms otherwise trade variance one
    small step at a time); it is kept only if it raises the evidence, and
    an atom it drives to zero leaves the model.

    Parameters
    ----------
    operator : MatrixOperator
        SBL needs the formed matrix.
    observation : (P,) array
    sigma2 : float
        Noise variance, positive.
    max_iters, tol : stopping controls.  The rule converges once every
        atom in the model sits within relative ``tol`` of its (capped)
        single-atom optimum and no atom outside it that it does not
        already span has ``|q|^2 > s``; ``max_iters`` caps the steps.
    gamma_floor : float
        Relative pruning threshold: atoms whose prior variance falls
        below ``gamma_floor * max(gamma)`` are zeroed in the reported
        coefficients.

    Returns
    -------
    (SparseSolution, SblState)
        Coefficients are the posterior mean with pruned atoms zeroed;
        ``SblState.evidence`` holds the log marginal likelihood before
        the first step and after every step.

    Raises
    ------
    DivergenceError
        If an iterate turns non-finite; carries the step index.
    """
    if not sigma2 > 0:
        raise ValueError(f"SBL needs a positive noise variance, got {sigma2}")
    if not _is_integer(max_iters) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if not isinstance(operator, MatrixOperator):
        raise ValueError("SBL needs a formed sensing matrix: a MatrixOperator")
    a = operator.matrix
    p, q_full = a.shape
    y = np.asarray(observation).reshape(-1)
    if y.shape[0] != p:
        raise ValueError(f"observation length {y.shape[0]} != matrix rows {p}")
    b = (y.conj() @ a).conj()  # A^H y
    norms2 = operator.column_norms ** 2
    y_energy = float(np.vdot(y, y).real)
    gamma_cap = _GAMMA_CAP * y_energy / norms2
    sigma = np.sqrt(sigma2)
    model = np.zeros(0, dtype=int)
    gamma = np.zeros(0)
    basis = np.zeros((p, 0), dtype=complex)  # U
    tri = np.zeros((0, 0), dtype=complex)  # T = U^H Phi, upper triangular
    rows = np.zeros((0, q_full), dtype=complex)  # Z = U^H A
    coords = np.zeros(0, dtype=complex)  # U^H y
    evidence: list[float] = []
    history: list[float] = []
    converged = False
    step = 0
    while True:
        inv_post, inv_data = _model_factors(tri, gamma, sigma)
        white = inv_data.conj().T @ rows  # R_b^-H Z
        white_y = inv_data.conj().T @ coords
        white_t = inv_data.conj().T @ tri
        s_model = white_t.conj().T @ white_t  # Phi^H C^-1 Phi
        q_model = white_t.conj().T @ white_y  # Phi^H C^-1 y
        mu = gamma * q_model
        fitted = tri @ mu  # U^H Phi mu
        outside_y = max(y_energy - float(np.vdot(coords, coords).real), 0.0)
        history.append(float(np.sqrt(outside_y + np.linalg.norm(coords - fitted) ** 2)))
        fit_terms = _fit_terms(inv_post, white_y)
        evidence.append(float(-p * np.log(np.pi * sigma2) - outside_y / sigma2 + fit_terms))

        outside = norms2 - np.sum(np.abs(rows) ** 2, axis=0)
        s = np.where(outside > _SPAN_RTOL * norms2, outside / sigma2, np.inf)
        s += np.sum(np.abs(white) ** 2, axis=0)
        q = (b - (fitted.conj() @ rows).conj()) / sigma2
        # leave-one-out: divide by 1 - gamma_k S_kk = Sigma_kk / gamma_k, a row norm of R^-1
        d = np.sum(np.abs(inv_post) ** 2, axis=1)
        s[model] = np.real(np.diag(s_model)) / d
        q[model] = q_model / d
        q2 = np.abs(q) ** 2
        if not (np.all(np.isfinite(q2)) and np.all(np.isfinite(s[model]))):
            raise DivergenceError("non-finite SBL iterate", step)

        # each atom's optimal prior variance, given all the others
        target = np.minimum(np.maximum(q2 - s, 0.0) / s ** 2, gamma_cap)
        current = np.zeros(q_full)
        current[model] = gamma
        off = np.abs(target - current) > tol * current  # any atom to add or delete is off
        if not np.any(off):
            converged = True
            break
        if step == max_iters:
            break
        step += 1
        drop = None
        if model.size > 1 and np.all(target[off] > 0) and np.all(current[off] > 0):
            joint = _newton_step(tri, gamma, gamma_cap[model], sigma, coords, fit_terms,
                                 s_model, q_model)
            if joint is not None:
                gamma, drop = joint
                if drop is None:
                    continue
        if drop is None:
            # evidence gain of moving one atom from `current` to `target`
            cand = np.flatnonzero(off)
            gain = (_loglik_term(target[cand], s[cand], q2[cand])
                    - _loglik_term(current[cand], s[cand], q2[cand]))
            pick = int(cand[np.argmax(gain)])
            drop = np.flatnonzero(model == pick)[0] if target[pick] == 0.0 else None
        if drop is not None:  # delete, and turn the basis onto the smaller span
            keep = np.arange(model.size) != drop
            model, gamma = model[keep], gamma[keep]
            turn, tri = np.linalg.qr(tri[:, keep])
            basis, rows, coords = basis @ turn, turn.conj().T @ rows, turn.conj().T @ coords
        elif current[pick] > 0:  # re-estimate
            gamma[model == pick] = target[pick]
        else:  # add, re-orthogonalizing once
            z = rows[:, pick]
            resid = a[:, pick] - basis @ z
            fix = basis.conj().T @ resid
            resid -= basis @ fix
            tau = np.linalg.norm(resid)
            u = resid / tau
            basis = np.column_stack([basis, u])
            rows = np.vstack([rows, u.conj() @ a])
            coords = np.append(coords, np.vdot(u, y))
            tri = np.block([[tri, (z + fix)[:, None]], [np.zeros((1, model.size)), tau]])
            model = np.append(model, pick)
            gamma = np.append(gamma, target[pick])

    order = np.argsort(model)
    active, gamma, mu = model[order], gamma[order], mu[order]
    root = np.sqrt(gamma)
    covariance = root[:, None] * (inv_post @ inv_post.conj().T)[np.ix_(order, order)] * root
    covariance = 0.5 * (covariance + covariance.conj().T)
    keep = gamma >= gamma_floor * gamma.max(initial=0.0)
    gamma_full = np.zeros(q_full)
    gamma_full[active] = gamma
    mean_full = np.zeros(q_full, dtype=complex)
    mean_full[active] = mu
    coefficients = np.zeros(q_full, dtype=complex)
    coefficients[active[keep]] = mu[keep]
    state = SblState(
        gamma=gamma_full, mean=mean_full, covariance=covariance, active=active,
        iterations=step, evidence=tuple(evidence),
    )
    solution = SparseSolution(
        coefficients=coefficients, support=active[keep],
        residual_history=tuple(history), iterations=step, converged=converged,
    )
    return solution, state


def _model_factors(tri, gamma, sigma):
    """``R^-1`` and ``R_b^-1``: inverse QR factors of ``I + F^H F / sigma^2`` and
    ``sigma^2 I + F F^H`` with ``F = T Gamma^1/2``, each from a stacked QR."""
    f = tri * np.sqrt(gamma)
    eye = np.eye(gamma.size)
    inv_post = np.linalg.inv(np.linalg.qr(np.vstack([f / sigma, eye]), mode="r"))
    inv_data = np.linalg.inv(np.linalg.qr(np.vstack([f.conj().T, sigma * eye]), mode="r"))
    return inv_post, inv_data


def _fit_terms(inv_post, white_y) -> float:
    """The part of the log evidence that depends on the prior variances:
    ``-log det(I + F^H F / sigma^2) - y^H U B^-1 U^H y``."""
    return float(2.0 * np.sum(np.log(np.abs(np.diag(inv_post)))) - np.linalg.norm(white_y) ** 2)


def _newton_step(tri, gamma, cap, sigma, coords, fit_terms, s_model, q_model):
    """One Newton step on the log evidence over the model's prior variances.

    ``s_model = Phi^H C^-1 Phi`` and ``q_model = Phi^H C^-1 y`` give the
    gradient ``|q_k|^2 - S_kk`` and Hessian ``|S_jk|^2 - 2 Re(q_j^* S_jk q_k)``;
    atoms held at their cap with a rising gradient stay fixed.  A step that
    would take a variance below zero is cut where the first one reaches it.
    Returns ``(gamma, index of an atom now at zero or None)``, or ``None``
    when the Hessian is not negative definite or the step lowers the evidence.
    """
    grad = np.abs(q_model) ** 2 - np.real(np.diag(s_model))
    hess = np.abs(s_model) ** 2 - 2.0 * np.real(q_model.conj()[:, None] * s_model * q_model)
    free = ~((gamma >= cap) & (grad > 0))
    if not np.any(free):
        return None
    try:
        np.linalg.cholesky(-hess[np.ix_(free, free)])
    except np.linalg.LinAlgError:
        return None
    delta = np.zeros_like(grad)
    delta[free] = np.linalg.solve(-hess[np.ix_(free, free)], grad[free])
    reach = np.where(delta < 0, gamma / np.where(delta < 0, -delta, 1.0), np.inf)
    drop = int(np.argmin(reach)) if reach.min() < 1.0 else None
    new = np.minimum(gamma + min(reach.min(), 1.0) * delta, cap)
    if drop is not None:
        new[drop] = 0.0
    new = np.maximum(new, 0.0)
    inv_post, inv_data = _model_factors(tri, new, sigma)
    if _fit_terms(inv_post, inv_data.conj().T @ coords) <= fit_terms:
        return None
    return new, drop


def _loglik_term(gamma, s, q2):
    """One atom's share of the log evidence at prior variance ``gamma``."""
    return q2 * gamma / (1.0 + gamma * s) - np.log1p(gamma * s)
