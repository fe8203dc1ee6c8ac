"""Small dense linear-algebra kernels.

The (A, B) shape check and the Kalman rank test serve the interpolants,
whose matrix exponentials are scipy's.  :func:`sq_dists` is the one
squared-distance block that the couplings and the target distance share,
finished in place one row tile (:func:`tile_rows`, :func:`row_tiles`) at a
time.  The feedback law's dense kernel weights, the feedback steering's
node controls and the per-node arrays of the noising constructions use the
same tiles.
:func:`floored_exp` is the one elementwise exp of the package: the feedback
law's kernel weights and the entropic kernel of the exact W2 solve both go
through it.  It clamps arguments below ``EXP_FLOOR`` to the floor, one pass
that is run only for a block that has such arguments, and leaves each
caller to decide what its clamped entries mean: the kernel laws keep their
weight of e^-700, and the W2 solve masks them to 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# entries in one row tile of a block that is finished in place: the passes
# over a tile stay in cache
TILE_ENTRIES = 2**17

# arguments of floored_exp below the floor are clamped to it
EXP_FLOOR = -700.0


def check_ab(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) as float matrices: A square (d, d), B (d, m); a 1-D B is one column."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {A.shape}")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ConfigurationError(f"B has shape {B.shape}, expected ({A.shape[0]}, m)")
    return A, B


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(d-1)B] as a dense matrix."""
    A, B = check_ab(A, B)
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def kalman_rank(A: np.ndarray, B: np.ndarray) -> int:
    """Numeric rank of the controllability matrix [B, AB, ..., A^(d-1)B]."""
    return int(np.linalg.matrix_rank(controllability_matrix(A, B)))


def floored_exp(w: np.ndarray) -> np.ndarray:
    """exp(w) in place, for arguments w <= 0 whose row maximum a is <= 0.

    Arguments below ``EXP_FLOOR`` are clamped to it before the exp, which
    keeps numpy's exp on its vector path (a tiny or subnormal result leaves
    it), so each weighs e^-700; every other entry is bit-equal to
    ``np.exp``.  A clamped entry of a row is below e^(-700 - a) of its top
    entry e^a: a caller keeps a well above -700 (the kernel laws keep it at
    or above -600) for the clamped entries to be lost in the rounding of
    its sums.  A caller that needs them to be 0 masks them itself.
    """
    if w.size and w.min() < EXP_FLOOR:
        np.maximum(w, EXP_FLOOR, out=w)
    return np.exp(w, out=w)


def tile_rows(n_cols: int) -> int:
    """Rows of an (n, n_cols) block that make one tile of about TILE_ENTRIES."""
    return max(1, TILE_ENTRIES // max(1, n_cols))


def row_tiles(n: int, n_cols: int) -> list[slice]:
    """The row slices of an (n, n_cols) block, one row tile (:func:`tile_rows`) each."""
    step = tile_rows(n_cols)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances |a_i - b_j|^2 between rows, shape (n, m).

    Expanded as (|a|^2 + |b|^2) - 2ab so the block is one matrix product;
    cancellation noise below zero is clamped.

    The product is the only block-sized allocation: it is finished in
    place, one row tile of about ``TILE_ENTRIES`` entries at a time, as
    (|a|^2 + |b|^2) + (-2ab), which is bit-equal to the subtraction.
    """
    a_sq = np.einsum("nd,nd->n", a, a)
    b_sq = np.einsum("md,md->m", b, b)
    d2 = a @ b.T
    norms = np.empty((min(tile_rows(len(b_sq)), len(a_sq)), len(b_sq)))
    for rows in row_tiles(len(a_sq), len(b_sq)):
        tile = d2[rows]
        s = norms[: len(tile)]
        np.add(a_sq[rows, None], b_sq, out=s)
        tile *= -2.0
        tile += s
        np.maximum(tile, 0.0, out=tile)
    return d2
