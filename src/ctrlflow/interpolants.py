"""Point-to-point steering constructions for trajectory/control ensembles.

Each constructor steers a batch of n (start, target) rows at once and
returns one :class:`~ctrlflow.trajectory.PairEnsemble` whose controls drive
the stated system from each start to its target within a stated tolerance,
and whose meta ``endpoint_error`` holds each row's |x(T) - target|:

``min_energy_pair_batch``
    minimum-energy steering of a controllable LTI pair through the
    controllability Gramian (:func:`gramian`, exact from a block matrix
    exponential),
``feedback_steer_pair_batch``
    stabilizing-gain steering of an LTI system to equilibrium points,
``brockett_steer_pair_batch``
    two-phase sinusoidal steering of the Brockett system between arbitrary
    points on [0, 4*pi] (also meta ``loop_amplitude``).

Preconditions on the inputs alone are exported (``check_controllable``,
``check_poles``, ``BROCKETT_MIN_GRID``) for config validation, and
``BROCKETT_HORIZON`` is the Brockett steering's horizon.

Every matrix exponential is :func:`scipy.linalg.expm`.  Each returned
array owns its memory, and the one per-node array computed from the RK4
states afterwards, the feedback controls, is built one row tile
(:func:`~ctrlflow.linalg.row_tiles`) at a time, so no temporary of the
ensemble's size is made.  A single pair is a one-row batch.  Errors that
reach metrics and files are taken row by row with :func:`numpy.linalg.norm`,
whose summation a vectorized norm would not reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import (
    ConfigurationError,
    InfeasibleTargetError,
    UncontrollablePairError,
    UnstableGainError,
)
from .linalg import check_ab, controllability_matrix, kalman_rank, row_tiles
from .ode import rk4, rk4_stage_controls, stage_times, uniform_grid
from .seeding import substream
from .systems import builtin_system
from .trajectory import PairEnsemble

GRAMIAN_EIG_RATIO = 1.0e-10
# fewest RK4 steps of the two-phase Brockett steering, and its horizon
BROCKETT_MIN_GRID = 8
BROCKETT_HORIZON = 4.0 * np.pi


def check_controllable(A, B) -> None:
    """Raise UncontrollablePairError unless (A, B) passes the Kalman rank test."""
    A, B = check_ab(A, B)
    if kalman_rank(A, B) < A.shape[0]:
        raise UncontrollablePairError("(A, B) is not controllable")


def check_poles(poles, d: int, m: int) -> np.ndarray:
    """The poles as a complex array if ``place_poles`` can assign them with d
    states and m inputs: d of them, closed under conjugation, and for m > 1
    none repeated more often than m (the assignment stays diagonalizable)."""
    poles = np.asarray(poles, dtype=complex)
    if poles.shape != (d,):
        raise ConfigurationError(f"need exactly {d} poles, got shape {poles.shape}")
    if not np.allclose(np.sort_complex(poles), np.sort_complex(np.conj(poles))):
        raise ConfigurationError("pole list must be closed under conjugation")
    if m > 1:
        _, counts = np.unique(np.round(poles, 9), return_counts=True)
        if counts.max() > m:
            raise ConfigurationError(
                f"pole multiplicity {counts.max()} exceeds input count {m}; "
                "the diagonalizable assignment cannot realize it"
            )
    return poles


def gramian(A: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """W(T) = integral of exp(At) B B' exp(A't) over [0, T], in closed form.

    Van Loan's block exponential (C. F. Van Loan, "Computing integrals
    involving the matrix exponential", IEEE TAC 23(3), 1978): with
    C = [[-A, BB'], [0, A']] and E = expm(Ch), the lower-right block is
    exp(A'h) and the upper-right block is exp(-Ah) W(h), so
    W(h) = E[d:, d:]' E[:d, d:].  That product loses accuracy as exp(-Ah)
    grows (to 6e-10 relative at h = T = 3 for a stable A with entries of
    order 1), so h is T halved until |A|_1 h <= 1, and W is doubled back
    up by W(2h) = W(h) + exp(Ah) W(h) exp(A'h), a sum of positive
    semidefinite terms.  The result is symmetrized so eigenvalue checks see
    an exactly symmetric matrix.
    """
    A, B = check_ab(A, B)
    if not np.isfinite(T) or T <= 0:
        raise ConfigurationError(f"horizon must be positive, got {T}")
    d = A.shape[0]
    h, doublings = T, 0
    while np.linalg.norm(A, 1) * h > 1.0:
        h, doublings = h / 2.0, doublings + 1
    E = expm(np.block([[-A, B @ B.T], [np.zeros_like(A), A.T]]) * h)
    W, eAh = E[d:, d:].T @ E[:d, d:], E[d:, d:].T
    for _ in range(doublings):
        W = W + eAh @ W @ eAh.T
        eAh = eAh @ eAh
    return 0.5 * (W + W.T)


def _gramian_solve(W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(W)
    if eigs[0] < GRAMIAN_EIG_RATIO * max(eigs[-1], 1.0e-300):
        raise UncontrollablePairError(
            f"Gramian is numerically singular (min eig {eigs[0]:.3g}, "
            f"max eig {eigs[-1]:.3g}); the pair (A, B) is not controllable "
            "on this horizon"
        )
    return np.linalg.solve(W, rhs)


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(row) for row in a])


def min_energy_pair_batch(
    A: np.ndarray,
    B: np.ndarray,
    x0s: np.ndarray,
    xTs: np.ndarray,
    T: float,
    n_grid: int = 2000,
) -> PairEnsemble:
    """Minimum-energy steering of x' = Ax + Bu from each row of x0s to xTs in time T.

    The control is u(t) = B' exp(A'(T-t)) W^-1 (xT - exp(AT) x0), with the
    Gramian W = W(T) of :func:`gramian` in closed form, so the control
    carries no quadrature error.  B' exp(A'(T-t)) is marched over the RK4
    stage times by a half-step exponential, and the states are produced by
    RK4 with ``n_grid`` steps using that control at the stage times.  Each
    terminal state must land within 1e-6 * (1 + |xT|) of its target.
    """
    A, B = check_ab(A, B)
    d = A.shape[0]
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xTs = np.atleast_2d(np.asarray(xTs, dtype=float))
    if x0s.shape[1] != d or xTs.shape[1] != d or x0s.shape[0] != xTs.shape[0]:
        raise ConfigurationError(
            f"endpoint batches must be (n, {d}), got {x0s.shape} and {xTs.shape}"
        )
    W = gramian(A, B, T)
    eAT = expm(A * T)
    c = _gramian_solve(W, (xTs - x0s @ eAT.T).T).T  # (n, d)

    t_grid = uniform_grid(T, n_grid)
    stages = stage_times(t_grid)
    # Bt_e[j] = B' exp(A'(T - stages[j])), built by marching with a half step
    half = expm(-A.T * (stages[1] - stages[0]))
    Et = expm(A.T * T)
    Bt_e = np.empty((len(stages), B.shape[1], d))
    for j in range(len(stages)):
        Bt_e[j] = B.T @ Et
        Et = Et @ half
    u_stages = np.einsum("jmd,nd->njm", Bt_e, c)

    def rhs(x, u):
        return x @ A.T + u @ B.T

    states, _ = rk4_stage_controls(rhs, x0s, t_grid, u_stages, blowup=None)
    errs = _row_norms(states[:, -1] - xTs)
    tols = 1.0e-6 * (1.0 + _row_norms(xTs))
    for err, tol in zip(errs, tols):
        if err > tol:
            raise ConfigurationError(
                f"terminal error {err:.3g} exceeds tol {tol:.3g}; increase n_grid"
            )
    # a copy: the strided view of the node stages would keep every stage alive
    controls = u_stages[:, 0::2].copy()
    return PairEnsemble(t_grid, states, controls, meta={"endpoint_error": errs})


def place_poles(A: np.ndarray, B: np.ndarray, poles, seed: int = 0) -> np.ndarray:
    """Gain K such that eig(A + BK) equals the desired pole list.

    Single-input pairs use Ackermann's formula; multi-input pairs assign a
    real block-diagonal eigenstructure by solving a Sylvester equation with
    random right-hand vectors, retrying on poor conditioning.  The pair must
    be controllable and the pole list must pass ``check_poles``.
    """
    A, B = check_ab(A, B)
    d, m = A.shape[0], B.shape[1]
    poles = check_poles(poles, d, m)
    check_controllable(A, B)

    if m == 1:
        phi = np.real_if_close(np.poly(poles))
        if np.iscomplexobj(phi):
            raise ConfigurationError("pole list must define a real polynomial")
        phiA = np.zeros_like(A)
        for coef in phi:
            phiA = phiA @ A + coef * np.eye(d)
        C = controllability_matrix(A, B)
        last_row = np.zeros(d)
        last_row[-1] = 1.0
        K = -(np.linalg.solve(C.T, last_row) @ phiA)[None, :]
        _verify_poles(A, B, K, poles)
        return K

    # multi-input: real block form of the poles
    Lam = _real_block_form(poles)
    rng = substream(seed, "place_poles")
    Id = np.eye(d)
    M = np.kron(Id, A) - np.kron(Lam.T, Id)
    for _ in range(64):
        Gmat = rng.standard_normal((m, d))
        try:
            X = np.linalg.solve(M, (-B @ Gmat).flatten(order="F")).reshape((d, d), order="F")
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(X)):
            continue
        if np.linalg.cond(X) > 1.0e8:
            continue
        K = np.linalg.solve(X.T, Gmat.T).T
        try:
            _verify_poles(A, B, K, poles)
        except ConfigurationError:
            continue
        return K
    raise ConfigurationError("pole placement failed to find a well-conditioned assignment")


def _real_block_form(poles: np.ndarray) -> np.ndarray:
    """Block-diagonal real matrix with the given conjugate-closed spectrum."""
    remaining = list(poles)
    blocks = []
    while remaining:
        lam = remaining.pop(0)
        if abs(lam.imag) < 1.0e-12:
            blocks.append(np.array([[lam.real]]))
        else:
            conj = np.conj(lam)
            hit = next(
                (i for i, z in enumerate(remaining) if abs(z - conj) < 1.0e-9), None
            )
            if hit is None:
                raise ConfigurationError("pole list must be closed under conjugation")
            remaining.pop(hit)
            a, b = lam.real, abs(lam.imag)
            blocks.append(np.array([[a, b], [-b, a]]))
    d = sum(b.shape[0] for b in blocks)
    Lam = np.zeros((d, d))
    at = 0
    for b in blocks:
        k = b.shape[0]
        Lam[at : at + k, at : at + k] = b
        at += k
    return Lam


def _verify_poles(A, B, K, poles, tol: float = 1.0e-6) -> None:
    got = np.sort_complex(np.linalg.eigvals(A + B @ K))
    want = np.sort_complex(np.asarray(poles, dtype=complex))
    # greedy nearest matching after the lexicographic sort
    err = np.abs(got - want).max()
    if err > tol:
        raise ConfigurationError(
            f"placed poles deviate by {err:.3g} (> {tol:.1g}) from the request"
        )


def equilibrium_control(A: np.ndarray, B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """alpha with A y + B alpha = 0, or InfeasibleTargetError if none exists.

    ``y`` is one target (d,) or a batch (n, d), solved by one least-squares
    call; the error names the first infeasible target's row.
    """
    A, B = check_ab(A, B)
    ay = A @ np.asarray(y, dtype=float).T
    alpha, _, _, _ = np.linalg.lstsq(B, -ay, rcond=None)
    residual = np.atleast_1d(np.linalg.norm(ay + B @ alpha, axis=0))
    bad = np.flatnonzero(residual > 1.0e-8 * (1.0 + np.linalg.norm(ay, axis=0)))
    if bad.size:
        raise InfeasibleTargetError(
            f"target {bad[0]} is not an equilibrium: residual |Ay + B alpha| = "
            f"{residual[bad[0]]:.3g}"
        )
    return alpha.T


def feedback_steer_pair_batch(
    A: np.ndarray,
    B: np.ndarray,
    K: np.ndarray,
    ys: np.ndarray,
    x0s: np.ndarray,
    T: float,
    n_grid: int = 2000,
) -> PairEnsemble:
    """Drive x' = Ax + Bu from each row of x0s toward its equilibrium y.

    The control is u = K(x - y) + alpha_y, where alpha_y is the equilibrium
    control of y (:func:`equilibrium_control`).  Requires A + BK Hurwitz and
    each y in the equilibrium set; the endpoint error is recorded in the
    meta (it decays like the slowest closed-loop mode, it is not forced to
    zero).
    """
    A, B = check_ab(A, B)
    K = np.asarray(K, dtype=float)
    d, m = A.shape[0], B.shape[1]
    if K.shape != (m, d):
        raise ConfigurationError(f"K must be ({m}, {d}), got {K.shape}")
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    if ys.shape[0] != x0s.shape[0] or ys.shape[1] != d or x0s.shape[1] != d:
        raise ConfigurationError("ys and x0s must be matching (n, d) batches")
    eigs = np.linalg.eigvals(A + B @ K)
    if eigs.real.max() >= 0.0:
        raise UnstableGainError(
            f"A + BK is not Hurwitz (max real eigenvalue {eigs.real.max():.3g})"
        )
    alphas = equilibrium_control(A, B, ys)

    t_grid = uniform_grid(T, n_grid)

    def field(k, stage, t, x):
        u = (x - ys) @ K.T + alphas
        return x @ A.T + u @ B.T

    states, _ = rk4(field, x0s, t_grid, blowup=None)
    # the node controls of the same formula, one row tile of the states at a time
    controls = np.empty(states.shape[:2] + (m,))
    for rows in row_tiles(len(states), states[0].size):
        u = controls[rows]
        np.matmul(states[rows] - ys[rows, None, :], K.T, out=u)
        u += alphas[rows, None, :]
    errs = _row_norms(states[:, -1] - ys)
    return PairEnsemble(t_grid, states, controls, meta={"endpoint_error": errs})


def brockett_steer_pair_batch(
    xs: np.ndarray, ys: np.ndarray, n_grid: int = 4000
) -> PairEnsemble:
    """Steer the Brockett system from each row of xs to ys on the horizon [0, 4*pi].

    Phase 1 (constant controls) moves the first two coordinates linearly to
    their targets over [0, 2*pi].  Phase 2 applies u = (sin t, c cos t),
    which returns the first two coordinates to rest and advances the third
    by pi * c, with c = (y3 - omega3(2*pi)) / pi.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape != ys.shape or xs.shape[1] != 3:
        raise ConfigurationError("endpoints must be matching (n, 3) batches")
    n = xs.shape[0]
    if n_grid < BROCKETT_MIN_GRID:
        raise ConfigurationError(f"n_grid must be at least {BROCKETT_MIN_GRID}")
    if n_grid % 2:
        n_grid += 1
    K = n_grid
    t_grid = uniform_grid(BROCKETT_HORIZON, K)
    half = K // 2
    rhs = builtin_system("brockett").rhs

    # phase 1: constant controls over [0, 2*pi]
    t1 = t_grid[: half + 1]
    c12 = (ys[:, :2] - xs[:, :2]) / (2.0 * np.pi)  # (n, 2)
    u1_stages = np.broadcast_to(c12[:, None, :], (n, 2 * half + 1, 2)).copy()
    states1, _ = rk4_stage_controls(rhs, xs, t1, u1_stages, blowup=None)

    # phase 2: sinusoidal loop over (2*pi, 4*pi]
    omega_mid = states1[:, -1]
    c = (ys[:, 2] - omega_mid[:, 2]) / np.pi  # (n,)
    t2 = t_grid[half:]
    st2 = stage_times(t2)
    u2_stages = np.empty((n, len(st2), 2))
    u2_stages[:, :, 0] = np.sin(st2)[None, :]
    u2_stages[:, :, 1] = c[:, None] * np.cos(st2)[None, :]
    states2, _ = rk4_stage_controls(rhs, omega_mid, t2, u2_stages, blowup=None)

    states = np.concatenate([states1, states2[:, 1:]], axis=1)
    controls = np.concatenate([u1_stages[:, 0::2], u2_stages[:, 2::2]], axis=1)
    meta = {"endpoint_error": _row_norms(states[:, -1] - ys), "loop_amplitude": c}
    return PairEnsemble(t_grid, states, controls, meta)
