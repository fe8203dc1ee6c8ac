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

Every steering flow here has a closed form, and each constructor evaluates
its states and controls at the nodes of a uniform grid: nothing is
integrated, so the grid sets where the ensemble is sampled and not how
accurate it is.  Every matrix exponential is :func:`scipy.linalg.expm`,
one batched call for all the nodes of a grid.  Each returned array owns
its memory and is written in place: the states and the minimum-energy
controls by one matrix product each, the feedback controls one row tile
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
from .ode import uniform_grid
from .seeding import substream
from .trajectory import PairEnsemble

GRAMIAN_EIG_RATIO = 1.0e-10
# fewest grid steps of the two-phase Brockett steering (four per phase),
# and its horizon
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
    """W^-1 rhs for a Gramian whose smallest eigenvalue is a normal double
    and at least ``GRAMIAN_EIG_RATIO`` of its largest; any other W (a
    subnormal or non-finite one too) raises."""
    eigs = np.linalg.eigvalsh(W)
    if not eigs[0] >= max(GRAMIAN_EIG_RATIO * eigs[-1], np.finfo(float).tiny):
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

    u(t) = B' exp(A'(T-t)) c and x(t) = exp(At) x0 + W(t) exp(A'(T-t)) c,
    with c = W(T)^-1 (xT - exp(AT) x0) and W the Gramian of :func:`gramian`:
    W(t_{k+1}) = W(t_k) + exp(A t_k) W(h) exp(A' t_k) from node to node, and
    W(T) itself at the last node.  Each terminal state must land within
    1e-6 * (1 + |xT|) of its target; only a poorly conditioned Gramian solve
    can miss it.
    """
    A, B = check_ab(A, B)
    d = A.shape[0]
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xTs = np.atleast_2d(np.asarray(xTs, dtype=float))
    if x0s.shape[1] != d or xTs.shape[1] != d or x0s.shape[0] != xTs.shape[0]:
        raise ConfigurationError(
            f"endpoint batches must be (n, {d}), got {x0s.shape} and {xTs.shape}"
        )
    t_grid = uniform_grid(T, n_grid)
    eAt = expm(t_grid[:, None, None] * A)  # exp(A t_k)
    # on the uniform grid T - t_k is t_{K-k}, so exp(A'(T - t_k)) = exp(A t_{K-k})'
    eAtT = eAt[::-1].transpose(0, 2, 1)
    W = gramian(A, B, T)
    c = _gramian_solve(W, (xTs - x0s @ eAt[-1].T).T).T  # (n, d)
    W_t = np.zeros_like(eAt)
    np.cumsum(eAt[:-2] @ gramian(A, B, t_grid[1]) @ eAt[:-2].transpose(0, 2, 1),
              axis=0, out=W_t[1:-1])
    # the solve's own W(T): the terminal state is xT up to the solve's residual
    W_t[-1] = W

    # node k of a row is [x0, c] @ [exp(A t_k), W(t_k) exp(A'(T - t_k))]' for
    # the state and c @ (B' exp(A'(T - t_k)))' for the control
    n, K1 = len(x0s), len(t_grid)
    states = np.empty((n, K1, d))
    flow = np.concatenate([eAt, W_t @ eAtT], axis=2).reshape(K1 * d, 2 * d)
    np.matmul(np.hstack([x0s, c]), flow.T, out=states.reshape(n, -1))
    controls = np.empty((n, K1, B.shape[1]))
    np.matmul(c, (B.T @ eAtT).reshape(-1, d).T, out=controls.reshape(n, -1))

    errs = _row_norms(states[:, -1] - xTs)
    tols = 1.0e-6 * (1.0 + _row_norms(xTs))
    for err, tol in zip(errs, tols):
        if not err <= tol:  # a NaN error fails too
            raise ConfigurationError(
                f"terminal error {err:.3g} exceeds tol {tol:.3g}: the Gramian solve "
                "is too poorly conditioned on this horizon"
            )
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
        # a rank test is scale-free; LU on entries near the underflow
        # threshold is not, and a gain that overflows fails _verify_poles
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                K = -(np.linalg.solve(C.T, last_row) @ phiA)[None, :]
        except np.linalg.LinAlgError as exc:
            raise UncontrollablePairError(
                "controllability matrix is numerically singular"
            ) from exc
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
    # a gain that overflows is rejected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        closed = A + B @ K
    if not np.all(np.isfinite(closed)):
        raise ConfigurationError("placed gain gives a closed loop that is not finite")
    got = np.sort_complex(np.linalg.eigvals(closed))
    want = np.sort_complex(np.asarray(poles, dtype=complex))
    # greedy nearest matching after the lexicographic sort
    err = np.abs(got - want).max()
    if not err <= tol:  # a NaN error fails too
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
    # a NaN residual is infeasible too
    bad = np.flatnonzero(~(residual <= 1.0e-8 * (1.0 + np.linalg.norm(ay, axis=0))))
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
    # rows (k, i) of exp((A + BK) t_k): the error x - y decays along them
    flow = expm(t_grid[:, None, None] * (A + B @ K)).reshape(-1, d)
    n = len(x0s)
    states = np.empty((n, len(t_grid), d))
    np.matmul(x0s - ys, flow.T, out=states.reshape(n, -1))
    states += ys[:, None, :]
    # the node controls u = K(x - y) + alpha, one row tile of x - y at a time
    controls = np.empty((n, len(t_grid), m))
    for rows in row_tiles(n, states[0].size):
        np.matmul(states[rows] - ys[rows, None, :], K.T, out=controls[rows])
    controls += alphas[:, None, :]
    errs = _row_norms(states[:, -1] - ys)
    return PairEnsemble(t_grid, states, controls, meta={"endpoint_error": errs})


def brockett_steer_pair_batch(
    xs: np.ndarray, ys: np.ndarray, n_grid: int = 4000
) -> PairEnsemble:
    """Steer the Brockett system from each row of xs to ys on the horizon [0, 4*pi].

    Phase 1 applies the constant control a = (y12 - x12) / (2*pi) over
    [0, 2*pi]: x12 = x12(0) + a t and x3 = x3(0) + a1 (x2(0) t + a2 t^2 / 2).
    Phase 2 applies u = (sin t, c cos t) from the midpoint m:
    x1 = m1 + 1 - cos t, x2 = m2 + c sin t and
    x3 = m3 + m2 (1 - cos t) + c ((t - 2*pi)/2 - sin 2t / 4), which returns
    x12 to m12 = y12 and advances x3 by pi * c, with c = (y3 - m3) / pi.
    ``n_grid`` is rounded up to even; node ``n_grid / 2`` holds phase 1's
    control.
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
    t_grid = uniform_grid(BROCKETT_HORIZON, n_grid)
    half = n_grid // 2
    states = np.empty((n, n_grid + 1, 3))
    controls = np.empty((n, n_grid + 1, 2))

    # phase 1: constant controls over [0, 2*pi]
    t1 = t_grid[: half + 1]
    a = (ys[:, :2] - xs[:, :2]) / (2.0 * np.pi)  # (n, 2)
    states[:, : half + 1, :2] = xs[:, None, :2] + a[:, None, :] * t1[:, None]
    states[:, : half + 1, 2] = xs[:, 2:] + a[:, :1] * (xs[:, 1:2] * t1 + 0.5 * a[:, 1:] * t1**2)
    controls[:, : half + 1] = a[:, None, :]

    # phase 2: sinusoidal loop over (2*pi, 4*pi]
    t2 = t_grid[half + 1 :]
    m = states[:, half]
    c = (ys[:, 2] - m[:, 2]) / np.pi  # (n,)
    one_minus_cos, sin = 1.0 - np.cos(t2), np.sin(t2)
    states[:, half + 1 :, 0] = m[:, :1] + one_minus_cos
    states[:, half + 1 :, 1] = m[:, 1:2] + c[:, None] * sin
    loop = (t2 - 2.0 * np.pi) / 2.0 - np.sin(2.0 * t2) / 4.0
    states[:, half + 1 :, 2] = m[:, 2:] + m[:, 1:2] * one_minus_cos + c[:, None] * loop
    controls[:, half + 1 :, 0] = sin
    controls[:, half + 1 :, 1] = c[:, None] * np.cos(t2)

    meta = {"endpoint_error": _row_norms(states[:, -1] - ys), "loop_amplitude": c}
    return PairEnsemble(t_grid, states, controls, meta)
