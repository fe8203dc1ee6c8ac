"""Control-affine system descriptions and Lie-algebraic probes.

A control-affine system on R^d with m inputs is

    x' = f0(x) + sum_i u_i f_i(x)

described by its drift ``f0``, control fields ``f_1 .. f_m``, and their
analytic Jacobians.  All field callables are batch-aware: they accept
states of shape (d,) or (n, d) and return matching (n, d) values, with
Jacobians of shape (n, d, d).

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
    x' = Ax + Bu for caller-supplied matrices.
``six_state_default``
    three decoupled double integrators (d=6, m=3) with output map
    h(x) = (x1, x3), the positions of the first two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, UnknownSystemError, UnsupportedSystemError
from .linalg import kalman_rank

FieldFn = Callable[[np.ndarray], np.ndarray]


def _as_batch(x: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """Coerce a state to (n, d); report whether the input was a single state."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ConfigurationError(f"state has dimension {x.shape[0]}, expected {d}")
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == d:
        return x, False
    raise ConfigurationError(f"state batch has shape {x.shape}, expected (n, {d})")


@dataclass(frozen=True)
class ControlAffineSystem:
    """Immutable bundle of dynamics fields and their Jacobians."""

    name: str
    d: int
    m: int
    f0: FieldFn
    f_list: tuple[FieldFn, ...]
    jac_f0: FieldFn
    jac_f_list: tuple[FieldFn, ...]
    driftless: bool = False
    output_map: Optional[FieldFn] = None
    output_dim: Optional[int] = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ConfigurationError(f"need d >= 1 and m >= 1, got d={self.d}, m={self.m}")
        if len(self.f_list) != self.m or len(self.jac_f_list) != self.m:
            raise ConfigurationError(
                f"expected {self.m} control fields with Jacobians, "
                f"got {len(self.f_list)} and {len(self.jac_f_list)}"
            )

    def control_matrix(self, x: np.ndarray) -> np.ndarray:
        """G(x) with columns f_1(x) .. f_m(x); shape (n, d, m)."""
        xb, _ = _as_batch(x, self.d)
        return np.stack([f(xb) for f in self.f_list], axis=-1)

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f0(x) + sum_i u_i f_i(x) for batched states and controls."""
        xb, _ = _as_batch(x, self.d)
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = np.broadcast_to(u, (xb.shape[0], self.m))
        out = self.f0(xb) + np.einsum("ndm,nm->nd", self.control_matrix(xb), u)
        return out

    def rhs_jac_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State Jacobian of the dynamics at fixed control; shape (n, d, d)."""
        xb, _ = _as_batch(x, self.d)
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = np.broadcast_to(u, (xb.shape[0], self.m))
        J = self.jac_f0(xb).copy()
        for i, jac in enumerate(self.jac_f_list):
            J = J + u[:, i, None, None] * jac(xb)
        return J


@dataclass(frozen=True)
class LinearSystem:
    """x' = Ax + Bu with the controllability rank computed on construction."""

    A: np.ndarray
    B: np.ndarray
    name: str = "linear"
    rank: int = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigurationError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ConfigurationError(
                f"B has {B.shape[0]} rows, expected {A.shape[0]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "rank", kalman_rank(A, B))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def controllable(self) -> bool:
        return self.rank == self.d

    def to_system(
        self,
        output_map: Optional[FieldFn] = None,
        output_dim: Optional[int] = None,
        name: Optional[str] = None,
    ) -> ControlAffineSystem:
        """Embed as a ControlAffineSystem with constant control fields."""
        A, B = self.A, self.B
        d, m = self.d, self.m

        def f0(x, _A=A):
            return x @ _A.T

        def jac_f0(x, _A=A):
            return np.broadcast_to(_A, (x.shape[0], d, d)).copy()

        def make_fi(i):
            col = B[:, i].copy()

            def fi(x, _col=col):
                return np.broadcast_to(_col, (x.shape[0], d)).copy()

            def jac_fi(x):
                return np.zeros((x.shape[0], d, d))

            return fi, jac_fi

        pairs = [make_fi(i) for i in range(m)]
        return ControlAffineSystem(
            name=name or self.name,
            d=d,
            m=m,
            f0=f0,
            f_list=tuple(p[0] for p in pairs),
            jac_f0=jac_f0,
            jac_f_list=tuple(p[1] for p in pairs),
            driftless=bool(np.all(A == 0.0)),
            output_map=output_map,
            output_dim=output_dim,
        )


def negate_system(sys: ControlAffineSystem) -> ControlAffineSystem:
    """System with every field negated: x' = -f0(x) - sum_i u_i f_i(x).

    Useful when a dataset was generated along the negated dynamics (as the
    noising flows are) and a downstream routine expects the generating
    system itself.  Output map and driftless flag carry over unchanged.
    """

    def _neg(fn: FieldFn) -> FieldFn:
        return lambda x: -fn(x)

    return ControlAffineSystem(
        name=f"neg_{sys.name}",
        d=sys.d,
        m=sys.m,
        f0=_neg(sys.f0),
        f_list=tuple(_neg(f) for f in sys.f_list),
        jac_f0=_neg(sys.jac_f0),
        jac_f_list=tuple(_neg(f) for f in sys.jac_f_list),
        driftless=sys.driftless,
        output_map=sys.output_map,
        output_dim=sys.output_dim,
    )


def lie_bracket(
    f: FieldFn, g: FieldFn, jac_f: FieldFn, jac_g: FieldFn, x: np.ndarray
) -> np.ndarray:
    """[f, g](x) = Dg(x) f(x) - Df(x) g(x) for a single state."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    val = np.einsum("nij,nj->ni", jac_g(xb), f(xb)) - np.einsum(
        "nij,nj->ni", jac_f(xb), g(xb)
    )
    return val[0] if single else val


def _fd_jacobian(fn: FieldFn, x: np.ndarray, h: float = 1.0e-6) -> np.ndarray:
    """Central-difference Jacobian of a batch-aware field at states (n, d)."""
    n, d = x.shape
    J = np.empty((n, d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, :, j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return J


def hormander_rank(sys: ControlAffineSystem, x: np.ndarray, depth: int) -> int:
    """Rank at ``x`` of the control fields plus nested brackets up to ``depth``.

    Level 0 is the control fields themselves; level k collects brackets of a
    control field with every level-(k-1) field.  Jacobians of composite
    bracket fields are taken by central differences, which is adequate for
    the shallow depths used in practice.  Systems with drift are rejected.
    """
    if not sys.driftless:
        raise UnsupportedSystemError(
            f"rank check requires a driftless system, '{sys.name}' has drift"
        )
    if depth < 0:
        raise ConfigurationError(f"depth must be >= 0, got {depth}")
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.d,):
        raise ConfigurationError(f"state has shape {x.shape}, expected ({sys.d},)")
    xb = x[None, :]

    base = [(f, jac) for f, jac in zip(sys.f_list, sys.jac_f_list)]
    levels: list[list[tuple[FieldFn, FieldFn]]] = [base]
    for _ in range(depth):
        new_level = []
        for g, jac_g in base:
            for hfn, jac_h in levels[-1]:

                def brk(xs, _g=g, _jg=jac_g, _h=hfn, _jh=jac_h):
                    return np.einsum("nij,nj->ni", _jh(xs), _g(xs)) - np.einsum(
                        "nij,nj->ni", _jg(xs), _h(xs)
                    )

                def jac_brk(xs, _b=brk):
                    return _fd_jacobian(_b, xs)

                new_level.append((brk, jac_brk))
        levels.append(new_level)

    vectors = []
    for level in levels:
        for fn, _ in level:
            vectors.append(fn(xb)[0])
    V = np.stack(vectors, axis=0)
    s = np.linalg.svd(V, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1.0e-8 * s[0]))


def check_sublinear_growth(
    sys: ControlAffineSystem, probes: np.ndarray, M: float = 10.0
) -> float:
    """Max of |f_i(x)| / (|x| + 1) over probes and fields; must stay below M."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    denom = np.linalg.norm(probes, axis=1) + 1.0
    worst = 0.0
    fields = list(sys.f_list) + ([] if sys.driftless else [sys.f0])
    for f in fields:
        ratios = np.linalg.norm(f(probes), axis=1) / denom
        worst = max(worst, float(ratios.max()))
    if worst > M:
        raise ConfigurationError(
            f"field growth ratio {worst:.3g} exceeds the sublinear bound M={M}"
        )
    return worst


# ---------------------------------------------------------------------------
# builtin catalog


def _brockett() -> ControlAffineSystem:
    def f0(x):
        return np.zeros_like(x)

    def jac0(x):
        return np.zeros((x.shape[0], 3, 3))

    def f1(x):
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        out[:, 2] = x[:, 1]  # x3' = u1 * x2
        return out

    def jac1(x):
        J = np.zeros((x.shape[0], 3, 3))
        J[:, 2, 1] = 1.0
        return J

    def f2(x):
        out = np.zeros_like(x)
        out[:, 1] = 1.0
        return out

    def jac2(x):
        return np.zeros((x.shape[0], 3, 3))

    return ControlAffineSystem(
        name="brockett",
        d=3,
        m=2,
        f0=f0,
        f_list=(f1, f2),
        jac_f0=jac0,
        jac_f_list=(jac1, jac2),
        driftless=True,
    )


def _unicycle() -> ControlAffineSystem:
    # state (x, y, heading); controls u = (v, u_steer)

    def f0(x):
        return np.zeros_like(x)

    def jac0(x):
        return np.zeros((x.shape[0], 3, 3))

    def f1(x):
        th = x[:, 2]
        out = np.zeros_like(x)
        out[:, 0] = np.cos(th)
        out[:, 1] = np.sin(th)
        return out

    def jac1(x):
        th = x[:, 2]
        J = np.zeros((x.shape[0], 3, 3))
        J[:, 0, 2] = -np.sin(th)
        J[:, 1, 2] = np.cos(th)
        return J

    def f2(x):
        out = np.zeros_like(x)
        out[:, 2] = 1.0
        return out

    def jac2(x):
        return np.zeros((x.shape[0], 3, 3))

    return ControlAffineSystem(
        name="unicycle",
        d=3,
        m=2,
        f0=f0,
        f_list=(f1, f2),
        jac_f0=jac0,
        jac_f_list=(jac1, jac2),
        driftless=True,
    )


def _martinet() -> ControlAffineSystem:
    # state (x, y, z); z' = 0.5 * y^2 * u1

    def f0(x):
        return np.zeros_like(x)

    def jac0(x):
        return np.zeros((x.shape[0], 3, 3))

    def f1(x):
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        out[:, 2] = 0.5 * x[:, 1] ** 2
        return out

    def jac1(x):
        J = np.zeros((x.shape[0], 3, 3))
        J[:, 2, 1] = x[:, 1]
        return J

    def f2(x):
        out = np.zeros_like(x)
        out[:, 1] = 1.0
        return out

    def jac2(x):
        return np.zeros((x.shape[0], 3, 3))

    return ControlAffineSystem(
        name="martinet",
        d=3,
        m=2,
        f0=f0,
        f_list=(f1, f2),
        jac_f0=jac0,
        jac_f_list=(jac1, jac2),
        driftless=True,
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
    return LinearSystem(A, B, name="six_state_default").to_system(
        output_map=six_state_output, output_dim=2, name="six_state_default"
    )


_BUILTIN_FACTORIES = {
    "brockett": lambda **kw: _brockett(),
    "unicycle": lambda **kw: _unicycle(),
    "martinet": lambda **kw: _martinet(),
    "six_state_default": lambda **kw: _six_state_default(),
}


def builtin_system(name: str, **params) -> ControlAffineSystem:
    """Instantiate a builtin system by name.

    ``linear`` requires matrices ``A`` and ``B``; other names take no
    parameters.  Unknown names raise :class:`UnknownSystemError`.
    """
    if name == "linear":
        if "A" not in params or "B" not in params:
            raise ConfigurationError("linear system requires matrices A and B")
        return LinearSystem(np.asarray(params["A"]), np.asarray(params["B"])).to_system()
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
