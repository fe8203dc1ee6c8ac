"""Control-affine system descriptions and the builtin catalog.

A control-affine system on R^d with m inputs is

    x' = f0(x) + sum_i u_i f_i(x) = f0(x) + G(x) u

described by its drift ``f0``, its control matrix ``G`` whose columns are
the control fields ``f_1 .. f_m``, and their analytic Jacobians.  All four
callables take a batch of states of shape (n, d):

``f0``      returns (n, d),
``jac_f0``  returns (n, d, d) with ``jac_f0(x)[k, i, j] = d f0_i / d x_j``,
``G``       returns (n, d, m) with column i equal to f_{i+1},
``jac_G``   returns (n, d, d, m) with ``jac_G(x)[..., i]`` the Jacobian of
            column i.

The module also hosts the builtin catalog used by the experiments:

``brockett``
    x' = (u1, u2, u1 * x2), the canonical nonholonomic integrator.
``unicycle``
    planar vehicle (x, y, heading) with forward-speed and steering inputs
    u = (v, u_steer).
``martinet``
    x' = (u1, u2, 0.5 * y^2 * u1), a flat sub-Riemannian system with an
    abnormal direction.
``linear``
    x' = Ax + Bu for caller-supplied matrices (:func:`linear_system`).
``six_state_default``
    three decoupled double integrators (d=6, m=3) with output map
    h(x) = (x1, x3), the positions of the first two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UnknownSystemError
from .linalg import check_ab

FieldFn = Callable[[np.ndarray], np.ndarray]


def _as_batch(x: np.ndarray, d: int) -> np.ndarray:
    """Coerce a state (d,) or a state batch (n, d) to (n, d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ConfigurationError(f"state has dimension {x.shape[0]}, expected {d}")
        return x[None, :]
    if x.ndim == 2 and x.shape[1] == d:
        return x
    raise ConfigurationError(f"state batch has shape {x.shape}, expected (n, {d})")


def _controls(u: np.ndarray, n: int, m: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.broadcast_to(u, (n, m)) if u.ndim == 1 else u


def _zero_field(x: np.ndarray) -> np.ndarray:
    """The zero drift of a driftless system, (n, d) -> (n, d)."""
    return np.zeros_like(x)


def _zero_jacobian(x: np.ndarray) -> np.ndarray:
    """Jacobian of the zero drift, (n, d) -> (n, d, d)."""
    return np.zeros(x.shape + x.shape[-1:])


@dataclass(frozen=True)
class ControlAffineSystem:
    """x' = f0(x) + G(x) u with the Jacobians of f0 and G.

    ``G`` maps states (n, d) to (n, d, m) and ``jac_G`` maps them to
    (n, d, d, m); construction probes both at the zero state and rejects
    other shapes.  ``output_map`` (with ``output_dim``) is the observed
    output h(x) of output-transport systems.
    """

    name: str
    d: int
    m: int
    f0: FieldFn
    jac_f0: FieldFn
    G: FieldFn
    jac_G: FieldFn
    driftless: bool = False
    output_map: Optional[FieldFn] = None
    output_dim: Optional[int] = None

    def __post_init__(self):
        d, m = self.d, self.m
        if d < 1 or m < 1:
            raise ConfigurationError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
        probe = np.zeros((1, d))
        for label, fn, want in (
            ("G", self.G, (1, d, m)),
            ("jac_G", self.jac_G, (1, d, d, m)),
        ):
            got = np.shape(fn(probe))
            if got != want:
                raise ConfigurationError(
                    f"system '{self.name}': {label} maps (n, {d}) states to shape "
                    f"{got[1:]} per state, expected {want[1:]}"
                )

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f0(x) + G(x) u for batched states and controls."""
        xb = _as_batch(x, self.d)
        u = _controls(u, xb.shape[0], self.m)
        return self.f0(xb) + np.einsum("ndm,nm->nd", self.G(xb), u)

    def rhs_jac_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State Jacobian of the dynamics at fixed control; shape (n, d, d)."""
        xb = _as_batch(x, self.d)
        u = _controls(u, xb.shape[0], self.m)
        J = self.jac_f0(xb)
        jac_G = self.jac_G(xb)
        for i in range(self.m):
            J = J + u[:, i, None, None] * jac_G[..., i]
        return J


def linear_system(
    A: np.ndarray,
    B: np.ndarray,
    name: str = "linear",
    output_map: Optional[FieldFn] = None,
    output_dim: Optional[int] = None,
) -> ControlAffineSystem:
    """x' = Ax + Bu as a :class:`ControlAffineSystem` with the constant G = B."""
    A, B = check_ab(A, B)
    d, m = B.shape

    def f0(x):
        return x @ A.T

    def jac_f0(x):
        return np.broadcast_to(A, (x.shape[0], d, d)).copy()

    def G(x):
        return np.broadcast_to(B, (x.shape[0], d, m)).copy()

    def jac_G(x):
        return np.zeros((x.shape[0], d, d, m))

    return ControlAffineSystem(
        name=name,
        d=d,
        m=m,
        f0=f0,
        jac_f0=jac_f0,
        G=G,
        jac_G=jac_G,
        driftless=bool(np.all(A == 0.0)),
        output_map=output_map,
        output_dim=output_dim,
    )


# ---------------------------------------------------------------------------
# builtin catalog


def _brockett() -> ControlAffineSystem:
    def G(x):
        out = np.zeros(x.shape + (2,))
        out[:, 0, 0] = 1.0
        out[:, 2, 0] = x[:, 1]  # x3' = u1 * x2
        out[:, 1, 1] = 1.0
        return out

    def jac_G(x):
        J = np.zeros((x.shape[0], 3, 3, 2))
        J[:, 2, 1, 0] = 1.0
        return J

    return ControlAffineSystem(
        "brockett", 3, 2, _zero_field, _zero_jacobian, G, jac_G, driftless=True
    )


def _unicycle() -> ControlAffineSystem:
    # state (x, y, heading); controls u = (v, u_steer)

    def G(x):
        th = x[:, 2]
        out = np.zeros(x.shape + (2,))
        out[:, 0, 0] = np.cos(th)
        out[:, 1, 0] = np.sin(th)
        out[:, 2, 1] = 1.0
        return out

    def jac_G(x):
        th = x[:, 2]
        J = np.zeros((x.shape[0], 3, 3, 2))
        J[:, 0, 2, 0] = -np.sin(th)
        J[:, 1, 2, 0] = np.cos(th)
        return J

    return ControlAffineSystem(
        "unicycle", 3, 2, _zero_field, _zero_jacobian, G, jac_G, driftless=True
    )


def _martinet() -> ControlAffineSystem:
    # state (x, y, z); z' = 0.5 * y^2 * u1

    def G(x):
        out = np.zeros(x.shape + (2,))
        out[:, 0, 0] = 1.0
        out[:, 2, 0] = 0.5 * x[:, 1] ** 2
        out[:, 1, 1] = 1.0
        return out

    def jac_G(x):
        J = np.zeros((x.shape[0], 3, 3, 2))
        J[:, 2, 1, 0] = x[:, 1]
        return J

    return ControlAffineSystem(
        "martinet", 3, 2, _zero_field, _zero_jacobian, G, jac_G, driftless=True
    )


def six_state_matrices() -> tuple[np.ndarray, np.ndarray]:
    """A, B for three decoupled double integrators (d=6, m=3)."""
    A = np.zeros((6, 6))
    B = np.zeros((6, 3))
    for blk in range(3):
        A[2 * blk, 2 * blk + 1] = 1.0
        B[2 * blk + 1, blk] = 1.0
    return A, B


def six_state_output(x: np.ndarray) -> np.ndarray:
    """Output map of the six-state default: positions of blocks 1 and 2."""
    x = np.asarray(x, dtype=float)
    return x[..., [0, 2]]


def _six_state_default() -> ControlAffineSystem:
    A, B = six_state_matrices()
    return linear_system(
        A, B, name="six_state_default", output_map=six_state_output, output_dim=2
    )


_BUILTIN_FACTORIES = {
    "brockett": _brockett,
    "unicycle": _unicycle,
    "martinet": _martinet,
    "six_state_default": _six_state_default,
}


def builtin_system(name: str, **params) -> ControlAffineSystem:
    """Instantiate a builtin system by name.

    ``linear`` requires matrices ``A`` and ``B``; other names take no
    parameters.  Unknown names raise :class:`UnknownSystemError`.
    """
    if name == "linear":
        if "A" not in params or "B" not in params:
            raise ConfigurationError("linear system requires matrices A and B")
        return linear_system(params["A"], params["B"])
    factory = _BUILTIN_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(_BUILTIN_FACTORIES) + ["linear"])
        raise UnknownSystemError(f"unknown system '{name}'; known: {known}")
    if params:
        raise ConfigurationError(f"system '{name}' takes no parameters, got {params}")
    return factory()


def builtin_names() -> list[str]:
    """Names accepted by :func:`builtin_system`."""
    return sorted(_BUILTIN_FACTORIES) + ["linear"]
