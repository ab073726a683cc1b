"""Two-timescale plant models: slow target dynamics coupled with fast extra dynamics.

The plant class is

    x[t+1]  = f(x[t], xi[t], u[t], delta)      (target / slow state)
    xi[t+1] = g(xi[t], x[t], u[t], delta)      (extra / fast state)

where ``delta`` scales the slow update so the two subsystems evolve on
separate timescales. Every model exposes an equilibrium map ``xi_eq(x, u)``
that is a fixed point of ``g`` for frozen ``(x, u)``, and the reduced map

    f_R(x, u, delta) = f(x, xi_eq(x, u), u, delta)

used as the prediction model by the optimizer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PendulumParams",
    "PlantModel",
    "ActuatedPendulum",
    "LinearTwoTimescale",
    "validate_delta",
]


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    """Coerce to a finite 1-D float vector of the expected length."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ValueError(f"{name} must be a vector of length {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries: {arr}")
    return arr


def _check_range(name: str, value, low: float = 0.0, high: float = math.inf, closed: bool = False) -> float:
    """Setting ``name`` as a float: finite, above ``low`` (or equal to it when ``closed``) and below ``high``."""
    number = float(value)
    if not (math.isfinite(number) and (low <= number if closed else low < number) and number < high):
        if high < math.inf:
            bounds = f"lie in {'[' if closed else '('}{low:g}, {high:g})"
        else:
            bounds = f"be at least {low:g}" if closed else "be positive" if low == 0.0 else f"exceed {low:g}"
        raise ValueError(f"{name} must {bounds}, got {value}")
    return number


def _check_choice(name: str, value, allowed):
    """Setting ``name``, which must be one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(allowed)}, got {value!r}")
    return value


def validate_delta(model: "PlantModel", delta: float) -> float:
    delta = _check_range("delta", delta)
    if delta >= model.delta_max:
        raise ValueError(f"delta must be < delta_max={model.delta_max}, got {delta}")
    return delta


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the motor-driven pendulum.

    ``L_tilde`` is the inductance scale: the physical armature inductance is
    ``L_tilde * delta``, which is what keeps the current loop fast relative
    to the mechanical states. The current error contracts by the factor
    ``1 - R_ohm / L_tilde`` per step, so ``L_tilde > R_ohm / 2`` is required
    for the fast subsystem to be exponentially stable.
    """

    l: float = 1.0          # pendulum length [m]
    mass: float = 0.5       # bob mass [kg]
    beta: float = 0.5       # viscous friction [N m s/rad]
    J: float = 0.5          # total inertia [kg m^2]
    K_t: float = 0.4        # torque constant [N m/A]
    K_e: float = 0.4        # back-EMF constant [V s/rad]
    R_ohm: float = 0.6      # armature resistance [ohm]
    L_tilde: float = 1.0    # inductance scale [H]
    grav: float = 9.81      # gravitational acceleration [m/s^2]

    def __post_init__(self):
        for f in fields(self):
            _check_range(f.name, getattr(self, f.name))
        if self.L_tilde <= self.R_ohm / 2.0:
            # Fast-subsystem contraction fails; keep the model constructible so
            # the certification pipeline can report the failure on its merits.
            warnings.warn(
                f"L_tilde={self.L_tilde} <= R_ohm/2={self.R_ohm / 2.0}: fast current "
                "error does not contract; certification will fail",
                stacklevel=2,
            )


class PlantModel:
    """Interface contract for a two-timescale plant.

    Concrete models provide the maps ``target_map`` (f), ``extra_map`` (g),
    ``equilibrium_map`` (xi_eq) and their Jacobians, plus dimensions
    ``n, p, m``, the equilibrium state ``x_star``, analytic Lipschitz
    constants where closed forms exist, and the ``state_box`` and
    ``extra_box`` that certification samples from. All maps are pure
    functions; a model instance may be shared read-only across threads.

    Every map and Jacobian takes a leading batch shape ``(...)``: ``x`` is an
    ``(..., n)`` array, ``xi`` ``(..., p)`` and ``u`` ``(..., m)``, all with the
    same batch shape. ``delta`` is a float; the three maps also take an array
    of that batch shape. A map returns ``(..., n)`` or ``(..., p)`` rows and a
    Jacobian ``(..., rows, cols)`` matrices, with the batch shape in full even
    where an entry is constant; entry ``k`` of a batch equals the call on
    entry ``k`` alone, bit for bit. ``(n,)`` vectors are the empty batch shape.
    Callers pass every argument positionally.
    """

    n: int
    p: int
    m: int
    delta_max: float = 1.0
    name: str = "plant"

    # Analytic Lipschitz constants (None when no closed form is available).
    lip_target_fast: float | None = None   # slow map w.r.t. (xi, u), delta-scaled
    lip_extra: float | None = None         # fast map w.r.t. (xi, x, u)
    lip_equilibrium: float | None = None   # xi_eq w.r.t. (x, u)

    @property
    def x_star(self) -> np.ndarray:
        return np.zeros(self.n)

    def target_map(self, x: np.ndarray, xi: np.ndarray, u: np.ndarray, delta) -> np.ndarray:
        raise NotImplementedError

    def extra_map(self, xi: np.ndarray, x: np.ndarray, u: np.ndarray, delta) -> np.ndarray:
        raise NotImplementedError

    def equilibrium_map(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def target_jacobians(
        self, x: np.ndarray, xi: np.ndarray, u: np.ndarray, delta
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jacobians of the target map: (df/dx, df/dxi, df/du)."""
        raise NotImplementedError

    def equilibrium_jacobians(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobians of the equilibrium map: (dxi_eq/dx, dxi_eq/du)."""
        raise NotImplementedError

    def state_box(self, state_ball: float) -> list[tuple[float, float]]:
        """Per-component (lo, hi) range that certification samples states from: +-4 ``state_ball``."""
        return [(-4.0 * state_ball, 4.0 * state_ball)] * self.n

    def extra_box(self) -> list[tuple[float, float]]:
        """Per-component (lo, hi) range that certification samples extra states from: +-40."""
        return [(-40.0, 40.0)] * self.p

    def reduced_map(self, x: np.ndarray, u: np.ndarray, delta) -> np.ndarray:
        """Slow dynamics on the fast equilibrium manifold (by composition)."""
        return self.target_map(x, self.equilibrium_map(x, u), u, delta)

    def reduced_jacobians(self, x: np.ndarray, u: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
        """Jacobians of the reduced map, composed from f and xi_eq Jacobians."""
        xi = self.equilibrium_map(x, u)
        fx, fxi, fu = self.target_jacobians(x, xi, u, delta)
        ex, eu = self.equilibrium_jacobians(x, u)
        return fx + fxi @ ex, fxi @ eu + fu


class ActuatedPendulum(PlantModel):
    """Pendulum driven by a DC motor, discretized with forward Euler.

    State layout: x = (angle [rad], angular velocity [rad/s]), xi = armature
    current [A], u = armature voltage [V]. The current update is independent
    of ``delta`` because the physical inductance is itself scaled by ``delta``.
    """

    n = 2
    p = 1
    m = 1
    name = "pendulum"

    def __init__(self, params: PendulumParams | None = None):
        self.params = params or PendulumParams()
        p = self.params
        # Closed forms for this model: slow coupling K_t/J, fast map
        # max{|1-R/Lt|, Ke/Lt, 1/Lt}, equilibrium max{1, Ke}/R.
        self.lip_target_fast = p.K_t / p.J
        self.lip_extra = max(abs(1.0 - p.R_ohm / p.L_tilde), p.K_e / p.L_tilde, 1.0 / p.L_tilde)
        self.lip_equilibrium = max(1.0, p.K_e) / p.R_ohm

    def state_box(self, state_ball):
        """One full turn of angle by +-10 rad/s of angular velocity, whatever ``state_ball``."""
        return [(-math.pi, math.pi), (-10.0, 10.0)]

    def target_map(self, x, xi, u, delta):
        p = self.params
        theta = x[..., 0]
        omega = x[..., 1]
        accel = (
            -(p.beta / p.J) * omega
            - (p.mass * p.grav * p.l / p.J) * np.sin(theta)
            + (p.K_t / p.J) * xi[..., 0]
        )
        out = np.empty(np.shape(accel) + (2,))
        out[..., 0] = theta + delta * omega
        out[..., 1] = omega + delta * accel
        return out

    def extra_map(self, xi, x, u, delta):
        p = self.params
        value = (
            (1.0 - p.R_ohm / p.L_tilde) * xi[..., 0]
            - (p.K_e / p.L_tilde) * x[..., 1]
            + u[..., 0] / p.L_tilde
        )
        return value[..., None]

    def equilibrium_map(self, x, u):
        p = self.params
        return ((-p.K_e * x[..., 1] + u[..., 0]) / p.R_ohm)[..., None]

    def target_jacobians(self, x, xi, u, delta):
        p = self.params
        fx = np.empty(x.shape[:-1] + (2, 2))
        fx[..., 0, 0] = 1.0
        fx[..., 0, 1] = delta
        fx[..., 1, 0] = -delta * (p.mass * p.grav * p.l / p.J) * np.cos(x[..., 0])
        fx[..., 1, 1] = 1.0 - delta * p.beta / p.J
        fxi = np.zeros(x.shape[:-1] + (2, 1))
        fxi[..., 1, 0] = delta * p.K_t / p.J
        return fx, fxi, np.zeros(x.shape[:-1] + (2, 1))

    def equilibrium_jacobians(self, x, u):
        p = self.params
        ex = np.zeros(x.shape[:-1] + (1, 2))
        ex[..., 0, 1] = -p.K_e / p.R_ohm
        return ex, np.full(x.shape[:-1] + (1, 1), 1.0 / p.R_ohm)


class LinearTwoTimescale(PlantModel):
    """Scalar slow / scalar fast linear plant used to exercise certification.

    Dynamics:

        x[t+1]  = x + delta * (a_slow * x + b_slow * xi + c_slow * u)
        xi[t+1] = rho * xi + s_fast * x + e_fast * u

    with ``|rho| < 1`` so the fast error contracts by ``rho`` per step and
    ``xi_eq(x, u) = (s_fast * x + e_fast * u) / (1 - rho)``. Every constant in
    the certification chain has a simple closed form, which makes this model
    the ground-truth case for the pipeline.
    """

    n = 1
    p = 1
    m = 1
    name = "linear"

    def __init__(
        self,
        a_slow: float = -1.0,
        b_slow: float = 0.5,
        c_slow: float = 0.5,
        rho: float = 0.5,
        s_fast: float = 0.2,
        e_fast: float = 0.5,
    ):
        _check_range("rho", rho, -1.0, 1.0)
        self.a_slow = float(a_slow)
        self.b_slow = float(b_slow)
        self.c_slow = float(c_slow)
        self.rho = float(rho)
        self.s_fast = float(s_fast)
        self.e_fast = float(e_fast)
        self.lip_target_fast = max(abs(self.b_slow), abs(self.c_slow))
        self.lip_extra = max(abs(self.rho), abs(self.s_fast), abs(self.e_fast))
        self.lip_equilibrium = max(abs(self.s_fast), abs(self.e_fast)) / (1.0 - self.rho)

    def target_map(self, x, xi, u, delta):
        delta = np.asarray(delta)[..., None]
        return x + delta * (self.a_slow * x + self.b_slow * xi + self.c_slow * u)

    def extra_map(self, xi, x, u, delta):
        return self.rho * xi + self.s_fast * x + self.e_fast * u

    def equilibrium_map(self, x, u):
        return (self.s_fast * x + self.e_fast * u) / (1.0 - self.rho)

    def target_jacobians(self, x, xi, u, delta):
        shape = x.shape[:-1] + (1, 1)
        return (
            np.full(shape, 1.0 + delta * self.a_slow),
            np.full(shape, delta * self.b_slow),
            np.full(shape, delta * self.c_slow),
        )

    def equilibrium_jacobians(self, x, u):
        shape = x.shape[:-1] + (1, 1)
        return np.full(shape, self.s_fast / (1.0 - self.rho)), np.full(shape, self.e_fast / (1.0 - self.rho))

