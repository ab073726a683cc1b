"""Finite-horizon optimal control over the reduced model, solved by projected gradient.

The decision vector ``z`` stacks the input sequence ``(u_0, ..., u_{N-1})``
row-major, so ``z`` has length ``N * m``. The per-sample suboptimal update
(``solver_map``) runs a fixed budget of projected gradient iterations; the
benchmark (``solve_optimal``) iterates projected gradient steps with spectral
(Barzilai-Borwein) step lengths until the projected-gradient norm meets a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .plant import PlantModel, _as_vector

__all__ = [
    "OcpSpec",
    "SolverConfig",
    "OptimizerState",
    "benchmark_weights",
    "horizon_for_delta",
    "make_ocp_spec",
    "rollout",
    "cost",
    "gradient",
    "project_box",
    "projected_gradient_norm",
    "pgd_step",
    "iterate_map",
    "solver_map",
    "solve_optimal",
    "first_input",
    "warm_start_shift",
]

# Benchmark scenario: stage cost x'Qx + u'Rw u with Q = Qf = diag(100, 0.1),
# Rw = 0.01, input saturation |u| <= 24, horizon window 0.5 s.
BENCHMARK_Q = (100.0, 0.1)
BENCHMARK_RW = 0.01
BENCHMARK_U_MAX = 24.0
HORIZON_WINDOW_S = 0.5


def _check_symmetric(mat: np.ndarray, name: str, tol: float = 1e-12) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T), initial=0.0) > tol:
        raise ValueError(f"{name} must be symmetric within {tol}")
    return mat


@dataclass(frozen=True)
class OcpSpec:
    """Finite-horizon problem description over the reduced prediction model.

    ``input_box`` is a pair of per-coordinate (lo, hi) arrays; it is the only
    constraint the solvers enforce.
    """

    horizon_N: int
    state_weight: np.ndarray      # n x n, symmetric PSD
    input_weight: np.ndarray      # m x m, symmetric PD
    terminal_weight: np.ndarray   # n x n, symmetric PSD
    input_box: tuple[np.ndarray, np.ndarray]
    delta: float

    def __post_init__(self):
        if self.horizon_N < 1:
            raise ValueError(f"horizon_N must be >= 1, got {self.horizon_N}")
        object.__setattr__(self, "state_weight", _check_symmetric(self.state_weight, "state_weight"))
        object.__setattr__(self, "input_weight", _check_symmetric(self.input_weight, "input_weight"))
        object.__setattr__(self, "terminal_weight", _check_symmetric(self.terminal_weight, "terminal_weight"))
        lo = np.atleast_1d(np.asarray(self.input_box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(self.input_box[1], dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("input_box lo/hi must have matching shapes")
        if np.any(lo > hi):
            raise ValueError(f"input_box requires lo <= hi componentwise, got lo={lo}, hi={hi}")
        object.__setattr__(self, "input_box", (lo, hi))
        if float(self.delta) <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def m(self) -> int:
        return self.input_weight.shape[0]

    @property
    def n(self) -> int:
        return self.state_weight.shape[0]

    def with_delta(self, delta: float) -> "OcpSpec":
        return replace(self, delta=float(delta))


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the per-sample update and the solve-to-tolerance benchmark."""

    iters_per_sample: int = 1
    step_rule: str = "backtracking"      # "backtracking" or "fixed"
    alpha0: float = 1.0
    shrink: float = 0.5
    armijo_c: float = 1e-4
    max_backtracks: int = 30
    optimal_tol: float = 1e-8
    max_optimal_iters: int = 100_000

    def __post_init__(self):
        if self.iters_per_sample < 1:
            raise ValueError("iters_per_sample must be a positive integer")
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"step_rule must be 'backtracking' or 'fixed', got {self.step_rule!r}")
        if self.alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.optimal_tol <= 0.0:
            raise ValueError("optimal_tol must be positive")


@dataclass
class OptimizerState:
    """Stacked input sequence plus solver diagnostics."""

    z: np.ndarray
    iterations_used: int = 0
    projected_gradient_norm: float = math.nan
    converged: bool = True
    rejected_steps: int = 0


def benchmark_weights(n: int = 2, m: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n != 2 or m != 1:
        raise ValueError("benchmark weights are defined for n=2, m=1")
    Q = np.diag(BENCHMARK_Q)
    Rw = np.array([[BENCHMARK_RW]])
    return Q, Rw, Q.copy()


def horizon_for_delta(delta: float, window_s: float = HORIZON_WINDOW_S) -> int:
    """Number of prediction steps covering the fixed horizon window.

    Rounds half away from zero so the window/delta ratio 2.5 yields 3 steps,
    with a floor of 2 steps.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return max(2, int(math.floor(window_s / delta + 0.5)))


def make_ocp_spec(delta: float, horizon_N: int | None = None, u_max: float = BENCHMARK_U_MAX) -> OcpSpec:
    """Benchmark OCP for the pendulum at the given timescale."""
    Q, Rw, Qf = benchmark_weights()
    N = horizon_for_delta(delta) if horizon_N is None else int(horizon_N)
    return OcpSpec(
        horizon_N=N,
        state_weight=Q,
        input_weight=Rw,
        terminal_weight=Qf,
        input_box=(np.array([-u_max]), np.array([u_max])),
        delta=delta,
    )


def _check_z(spec: OcpSpec, z) -> np.ndarray:
    z = np.asarray(z, dtype=float).reshape(-1)
    expected = spec.horizon_N * spec.m
    if z.shape[0] != expected:
        raise ValueError(f"z must have length N*m = {expected}, got {z.shape[0]}")
    return z


def rollout(spec: OcpSpec, model: PlantModel, x0, z) -> np.ndarray:
    """Predicted state sequence x_0..x_N under the reduced model.

    Raises with the offending step index if any intermediate state is
    non-finite (overflow along the prediction).
    """
    x0 = _as_vector(x0, model.n, "x0")
    z = _check_z(spec, z)
    N, m = spec.horizon_N, spec.m
    states = np.empty((N + 1, model.n))
    states[0] = x0
    x = x0
    for tau in range(N):
        x = model.reduced_map(x, z[tau * m : (tau + 1) * m], spec.delta)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"rollout overflow: non-finite state at step {tau + 1}")
        states[tau + 1] = x
    return states


def cost(spec: OcpSpec, model: PlantModel, x0, z) -> float:
    """Objective: sum of stage costs x'Qx + u'Rw u plus terminal x'Qf x.

    States that overflow the quadratic form yield an infinite cost (which any
    line search rejects) rather than a warning.
    """
    z = _check_z(spec, z)
    states = rollout(spec, model, x0, z)
    N, m = spec.horizon_N, spec.m
    Q, Rw, Qf = spec.state_weight, spec.input_weight, spec.terminal_weight
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in range(N):
            x = states[tau]
            u = z[tau * m : (tau + 1) * m]
            total += float(x @ Q @ x) + float(u @ Rw @ u)
        xN = states[N]
        total += float(xN @ Qf @ xN)
    return total


def gradient(spec: OcpSpec, model: PlantModel, x0, z) -> np.ndarray:
    """Exact objective gradient w.r.t. z by reverse accumulation along the rollout."""
    z = _check_z(spec, z)
    states = rollout(spec, model, x0, z)
    N, m = spec.horizon_N, spec.m
    Q, Rw, Qf = spec.state_weight, spec.input_weight, spec.terminal_weight
    grad = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = 2.0 * (Qf @ states[N])
        for tau in range(N - 1, -1, -1):
            x = states[tau]
            u = z[tau * m : (tau + 1) * m]
            jac_x, jac_u = model.reduced_jacobians(x, u, spec.delta)
            grad[tau * m : (tau + 1) * m] = 2.0 * (Rw @ u) + jac_u.T @ lam
            lam = 2.0 * (Q @ x) + jac_x.T @ lam
            if not np.all(np.isfinite(lam)):
                raise FloatingPointError(f"gradient overflow: non-finite adjoint at step {tau}")
    return grad


def project_box(spec: OcpSpec, z) -> np.ndarray:
    """Componentwise clamp of each input block into the input box. Idempotent."""
    z = _check_z(spec, z)
    lo, hi = spec.input_box
    N = spec.horizon_N
    return np.clip(z.reshape(N, spec.m), lo, hi).reshape(-1)


def projected_gradient_norm(spec: OcpSpec, model: PlantModel, x0, z) -> float:
    """Stationarity measure ||z - clip(z - grad)|| used as the stopping rule."""
    z = _check_z(spec, z)
    g = gradient(spec, model, x0, z)
    return float(np.linalg.norm(z - project_box(spec, z - g)))


def _armijo_backtrack(
    z, g, cost_fn, projector, j_ref, alpha, shrink, armijo_c, max_backtracks, noise_floor=-math.inf
) -> tuple[np.ndarray, float] | None:
    """Armijo backtracking along the projection arc ``projector(z - alpha * g)``.

    Returns the first trial point, with its cost, whose cost lies sufficiently
    below ``j_ref`` or whose predicted decrease is at or below ``noise_floor``
    (the resolution of a cost evaluation); ``None`` when every trial fails.
    """
    for _ in range(max_backtracks):
        candidate = projector(z - alpha * g)
        decrease = float(g @ (z - candidate))
        j_cand = cost_fn(candidate)
        if j_cand <= j_ref - armijo_c * decrease or armijo_c * decrease <= noise_floor:
            return candidate, j_cand
        alpha *= shrink
    return None


def pgd_step(
    z: np.ndarray,
    grad_fn,
    cost_fn,
    projector,
    rule: str = "backtracking",
    alpha0: float = 1.0,
    shrink: float = 0.5,
    armijo_c: float = 1e-4,
    max_backtracks: int = 30,
) -> tuple[np.ndarray, bool]:
    """One projected gradient step ``z <- projector(z - alpha * grad_fn(z))``.

    With the backtracking rule, alpha shrinks from ``alpha0`` until the Armijo
    condition along the projection arc holds; if no trial step passes, the
    step is rejected and ``z`` is returned unchanged with ``accepted=False``.
    """
    g = grad_fn(z)
    if rule == "fixed":
        return projector(z - alpha0 * g), True
    step = _armijo_backtrack(z, g, cost_fn, projector, cost_fn(z), alpha0, shrink, armijo_c, max_backtracks)
    return (z, False) if step is None else (step[0], True)


def iterate_map(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z) -> tuple[np.ndarray, int]:
    """Raw fixed-budget update used by ``solver_map`` and the certification sampling.

    The iteration map is a self-map on the feasible box, so the incoming
    sequence is projected first (a no-op for iterates produced by any solver
    step). Returns the updated stacked sequence and the number of rejected
    steps, without the extra diagnostic gradient evaluation of ``solver_map``.
    """
    z = project_box(spec, z)
    grad_fn = lambda v: gradient(spec, model, x0, v)
    cost_fn = lambda v: cost(spec, model, x0, v)
    projector = lambda v: project_box(spec, v)
    rejected = 0
    for _ in range(config.iters_per_sample):
        z, accepted = pgd_step(
            z,
            grad_fn,
            cost_fn,
            projector,
            rule=config.step_rule,
            alpha0=config.alpha0,
            shrink=config.shrink,
            armijo_c=config.armijo_c,
            max_backtracks=config.max_backtracks,
        )
        if not accepted:
            rejected += 1
    return z, rejected


def solver_map(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z) -> OptimizerState:
    """Fixed-budget suboptimal update: the optimizer's one-sample iteration map.

    Applies exactly ``config.iters_per_sample`` projected gradient iterations
    and records the final projected-gradient norm.
    """
    x0 = _as_vector(x0, model.n, "x0")
    z = _check_z(spec, z)
    z, rejected = iterate_map(spec, model, config, x0, z)
    pg = projected_gradient_norm(spec, model, x0, z)
    return OptimizerState(
        z=z,
        iterations_used=config.iters_per_sample,
        projected_gradient_norm=pg,
        converged=True,
        rejected_steps=rejected,
    )


def solve_optimal(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z_init) -> OptimizerState:
    """Solve-to-tolerance benchmark for the problem's minimizer.

    Iterates projected gradient steps with spectral (Barzilai-Borwein) step
    lengths, safeguarded by a nonmonotone (watchdog over the last 10 values)
    backtracking line search, until the projected-gradient norm drops below
    ``config.optimal_tol`` or the iteration budget is spent. A result that
    misses the tolerance is returned with ``converged=False``, never silently.
    """
    x0 = _as_vector(x0, model.n, "x0")
    z = project_box(spec, _check_z(spec, z_init))
    grad_fn = lambda v: gradient(spec, model, x0, v)
    cost_fn = lambda v: cost(spec, model, x0, v)
    projector = lambda v: project_box(spec, v)

    g = grad_fn(z)
    j = cost_fn(z)
    recent = [j]
    pg = float(np.linalg.norm(z - projector(z - g)))
    iters = 0
    rejected = 0
    alpha = config.alpha0
    alpha_lo, alpha_hi = 1e-10, 1e10
    while pg > config.optimal_tol and iters < config.max_optimal_iters:
        iters += 1
        j_ref = max(recent)
        # Accept on sufficient decrease, or unconditionally once the
        # predicted decrease is below cost-evaluation resolution.
        noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(j_ref))
        step = _armijo_backtrack(
            z, g, cost_fn, projector, j_ref, alpha, config.shrink, config.armijo_c, config.max_backtracks, noise_floor
        )
        if step is None:
            rejected += 1
            break  # no acceptable step: at the numerical floor
        z_new, j_new = step
        g_new = grad_fn(z_new)
        s = z_new - z
        y = g_new - g
        sy = float(s @ y)
        # BB1 step length for the next iteration, clipped to a sane range.
        if sy > 0.0:
            alpha = min(max(float(s @ s) / sy, alpha_lo), alpha_hi)
        else:
            alpha = config.alpha0
        z, g, j = z_new, g_new, j_new
        recent.append(j)
        if len(recent) > 10:
            recent.pop(0)
        pg = float(np.linalg.norm(z - projector(z - g)))
    return OptimizerState(
        z=z,
        iterations_used=iters,
        projected_gradient_norm=pg,
        converged=bool(pg <= config.optimal_tol),
        rejected_steps=rejected,
    )


def first_input(z, m: int) -> np.ndarray:
    """Extract the first input block of the stacked sequence (the applied control)."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] < m:
        raise ValueError(f"z must have at least m={m} entries, got {z.shape[0]}")
    return z[:m].copy()


def warm_start_shift(z, m: int) -> np.ndarray:
    """Receding-horizon shift: drop the first block, repeat the last block."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] % m != 0 or z.shape[0] < m:
        raise ValueError(f"z length {z.shape[0]} is not a positive multiple of m={m}")
    return np.concatenate([z[m:], z[-m:]])
