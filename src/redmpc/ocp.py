"""Finite-horizon optimal control over the reduced model, solved by projected gradient and projected Newton.

The decision vector ``z`` stacks the input sequence ``(u_0, ..., u_{N-1})``
row-major, so ``z`` has length ``N * m``. The per-sample suboptimal update
(``solver_map``) runs a fixed budget of projected gradient iterations; the
benchmark (``solve_optimal``) iterates projected Newton steps on the
Gauss-Newton Hessian of the objective (Bertsekas, "Projected Newton methods
for optimization problems with simple constraints", SIAM J. Control Optim.
20(2), 1982) until the projected-gradient norm meets a tolerance.

Every function here solves one problem, or a batch of B problems when ``x0``
and ``z`` carry a leading axis of B lanes. Each lane is computed by the same
operations as its lone call, so lane ``k`` of a batch equals that call bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .plant import PlantModel, _check_choice, _check_range

__all__ = [
    "OcpSpec",
    "SolverConfig",
    "OptimizerState",
    "horizon_for_delta",
    "rollout",
    "cost",
    "gradient",
    "gauss_newton_hessian",
    "project_box",
    "iterate_map",
    "solver_map",
    "solve_optimal",
    "first_input",
    "warm_start_shift",
    "shift_prediction",
]

def _check_symmetric(mat: np.ndarray, name: str, definite: bool, tol: float = 1e-12) -> np.ndarray:
    """``mat`` as a finite square float matrix, symmetric within ``tol``.

    Its smallest eigenvalue must be at least ``-tol`` (positive semidefinite),
    or above ``tol`` when ``definite`` (positive definite).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite, got {mat.tolist()}")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T), initial=0.0) > tol:
        raise ValueError(f"{name} must be symmetric within {tol}")
    lowest = float(np.linalg.eigvalsh(mat)[0])
    if definite and lowest <= tol:
        raise ValueError(f"{name} must be positive definite (smallest eigenvalue above {tol:g}), got {lowest:g}")
    if lowest < -tol:
        raise ValueError(f"{name} must be positive semidefinite (smallest eigenvalue at least {-tol:g}), got {lowest:g}")
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
        _check_range("horizon_N", self.horizon_N, 1, closed=True)
        for name in ("state_weight", "input_weight", "terminal_weight"):
            object.__setattr__(self, name, _check_symmetric(getattr(self, name), name, name == "input_weight"))
        lo = np.atleast_1d(np.asarray(self.input_box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(self.input_box[1], dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("input_box lo/hi must have matching shapes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(lo <= hi)):
            raise ValueError(f"input_box must be finite with lo <= hi componentwise, got lo={lo}, hi={hi}")
        object.__setattr__(self, "input_box", (lo, hi))
        object.__setattr__(self, "delta", _check_range("delta", self.delta))

    @property
    def m(self) -> int:
        return self.input_weight.shape[0]

    @property
    def n(self) -> int:
        return self.state_weight.shape[0]

    @cached_property
    def _input_hessian(self) -> np.ndarray:
        """``2 (I_N kron R)``, the input-cost block of every Gauss-Newton Hessian; built on first use."""
        return np.kron(np.eye(self.horizon_N), 2.0 * self.input_weight)


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the per-sample update and the solve-to-tolerance benchmark."""

    STEP_RULES = ("backtracking", "fixed")

    iters_per_sample: int = 1
    step_rule: str = "backtracking"
    alpha0: float = 1.0                  # gradient step of the fixed rule, first trial of its line search
    shrink: float = 0.5
    armijo_c: float = 1e-4
    max_backtracks: int = 30
    optimal_tol: float = 1e-8
    max_optimal_iters: int = 100_000

    def __post_init__(self):
        _check_choice("step_rule", self.step_rule, self.STEP_RULES)
        for name in ("iters_per_sample", "max_backtracks", "max_optimal_iters"):
            _check_range(name, getattr(self, name), 1, closed=True)
        for name in ("alpha0", "optimal_tol"):
            _check_range(name, getattr(self, name))
        for name in ("shrink", "armijo_c"):
            _check_range(name, getattr(self, name), 0.0, 1.0)


@dataclass
class OptimizerState:
    """Stacked input sequence plus solver diagnostics and what the solver computed at it.

    ``prediction`` is the rollout of ``z``, ``(N+1, n)``, and ``value`` the
    objective at ``z``; each equals ``rollout`` and ``cost`` at the solver's
    ``x0`` and ``z`` bit for bit. For a batch, ``z``, ``prediction``,
    ``projected_gradient_norm`` and ``value`` hold one entry per lane, while
    ``iterations_used``, ``converged`` and ``rejected_steps`` describe the
    whole batch (see ``solve_optimal``).
    """

    z: np.ndarray
    iterations_used: int = 0
    projected_gradient_norm: float | np.ndarray = math.nan
    converged: bool = True
    rejected_steps: int = 0
    prediction: np.ndarray | None = None
    value: float | np.ndarray = math.nan


def horizon_for_delta(delta: float, window_s: float) -> int:
    """Number of prediction steps covering a horizon window of ``window_s`` seconds.

    Rounds half away from zero so the window/delta ratio 2.5 yields 3 steps,
    with a floor of 2 steps. The ratio must stay below 1e6 steps.
    """
    ratio = _check_range("horizon_window_s", window_s) / _check_range("delta", delta)
    return max(2, int(math.floor(_check_range("horizon_window_s / delta", ratio, high=1e6) + 0.5)))


def _check_z(spec: OcpSpec, z) -> np.ndarray:
    """``z`` as ``(N*m,)`` or ``(B, N*m)`` floats."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    expected = spec.horizon_N * spec.m
    if z.ndim > 2 or z.shape[-1] != expected:
        raise ValueError(f"z must have length N*m = {expected}, got shape {z.shape}")
    return z


def _lanes(spec: OcpSpec, model: PlantModel, x0, z) -> tuple[np.ndarray, np.ndarray, bool]:
    """Start states ``(B, n)`` and sequences ``(B, N*m)`` of a call, and whether it had a batch axis.

    ``x0`` is ``(n,)`` with ``z`` ``(N*m,)`` (one problem, B = 1), or ``(B, n)``
    with ``z`` ``(B, N*m)``.
    """
    z = _check_z(spec, z)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    expected = z.shape[:-1] + (model.n,)
    if x0.shape != expected:
        raise ValueError(f"x0 must have shape {expected} to match z of shape {z.shape}, got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 contains non-finite entries: {x0}")
    return x0.reshape(-1, model.n), z.reshape(-1, z.shape[-1]), z.ndim == 2


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a . b``: each row by the same BLAS dot product as a 1-D ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm, equal bit for bit to ``np.linalg.norm`` of each row alone."""
    return np.sqrt(_dot(v, v))


def _quadratic(v: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row-wise ``v' W v``, each row by the same BLAS calls as a 1-D ``v @ W @ v``."""
    return ((v[..., None, :] @ weight) @ v[..., :, None])[..., 0, 0]


def _rollout(spec: OcpSpec, model: PlantModel, x0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Predicted states ``(B, N+1, n)`` of B problems; a lane that overflows holds non-finite values."""
    N, m = spec.horizon_N, spec.m
    states = np.empty((len(x0), N + 1, model.n))
    states[:, 0] = x = x0
    u = z.reshape(len(z), N, m)
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in range(N):
            x = states[:, tau + 1] = model.reduced_map(x, u[:, tau], spec.delta)
    return states


def _checked(states: np.ndarray) -> np.ndarray:
    """``states``, or an error naming the first lane and step whose prediction overflowed."""
    if not np.isfinite(states).all():
        lane, step = np.argwhere(~np.isfinite(states).all(axis=2))[0]
        raise FloatingPointError(f"rollout overflow: non-finite state at step {step} in lane {lane}")
    return states


def _start(
    spec: OcpSpec, model: PlantModel, x0: np.ndarray, z: np.ndarray, batched: bool, prediction
) -> tuple[np.ndarray, np.ndarray]:
    """A solver's start point: ``z`` projected into the box, and its checked rollout.

    ``prediction``, when given, is the caller's rollout of ``(x0, z)``
    (``(N+1, n)``, or ``(B, N+1, n)`` for a batch) and stands in for a new
    one. Its first state must equal ``x0`` exactly; a lane that the
    projection moves is rolled out again.
    """
    projected = _project(spec, z)
    if prediction is None:
        return projected, _checked(_rollout(spec, model, x0, projected))
    states = np.array(prediction, dtype=float)  # a copy: the solvers overwrite rows of it
    expected = ((len(z),) if batched else ()) + (spec.horizon_N + 1, model.n)
    if states.shape != expected:
        raise ValueError(f"prediction must have shape {expected}, got {states.shape}")
    states = states.reshape((len(z),) + expected[-2:])
    if not np.array_equal(states[:, 0], x0):
        raise ValueError("prediction must start at x0")
    moved = np.flatnonzero((projected != z).any(axis=1))
    if moved.size:
        states[moved] = _rollout(spec, model, x0[moved], projected[moved])
    return projected, _checked(states)


def rollout(spec: OcpSpec, model: PlantModel, x0, z) -> np.ndarray:
    """Predicted state sequence x_0..x_N under the reduced model: ``(N+1, n)``, or ``(B, N+1, n)`` for a batch.

    Raises with the offending step index if any intermediate state is
    non-finite (overflow along the prediction).
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    states = _checked(_rollout(spec, model, x0, z))
    return states if batched else states[0]


def _value(spec: OcpSpec, states: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per lane: stage costs x'Qx + u'Rw u plus terminal x'Qf x along a rollout already taken.

    The horizon is summed in one pass, in order, as a running total adds it.
    """
    N, m = spec.horizon_N, spec.m
    terms = np.empty((len(z), N + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        terms[:, :N] = _quadratic(states[:, :N], spec.state_weight) + _quadratic(
            z.reshape(len(z), N, m), spec.input_weight
        )
        terms[:, N] = _quadratic(states[:, N], spec.terminal_weight)
        return np.cumsum(terms, axis=1)[:, N]


def _jacobians(spec: OcpSpec, model: PlantModel, states: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per lane: the reduced-map Jacobians ``(A_tau, B_tau)`` along all N steps of a rollout already taken.

    They come from one ``reduced_jacobians`` call on the stacked rollout.
    """
    N, m = spec.horizon_N, spec.m
    return model.reduced_jacobians(states[:, :N], z.reshape(len(z), N, m), spec.delta)


def _adjoint(spec: OcpSpec, model: PlantModel, states: np.ndarray, z: np.ndarray, jacobians=None) -> np.ndarray:
    """Per lane: objective gradient w.r.t. z by the reverse sweep along a rollout already taken.

    ``jacobians`` are the rollout's ``_jacobians`` when the caller has them.
    """
    N, m = spec.horizon_N, spec.m
    u = z.reshape(len(z), N, m)
    jac_x, jac_u = _jacobians(spec, model, states, z) if jacobians is None else jacobians
    jac_x_t = jac_x.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        state_terms = 2.0 * (spec.state_weight @ states[:, :N, :, None])  # column tau: 2 Q x_tau
        costates = np.empty_like(state_terms)  # column tau: the costate after step tau
        lam = 2.0 * (spec.terminal_weight @ states[:, N, :, None])
        for tau in reversed(range(N)):
            costates[:, tau] = lam
            lam = state_terms[:, tau] + jac_x_t[:, tau] @ lam
        grad = 2.0 * (spec.input_weight @ u[..., None]) + jac_u.swapaxes(-1, -2) @ costates
    if not np.isfinite(lam).all():
        lane = int(np.argmin(np.isfinite(lam).all(axis=(1, 2))))
        raise FloatingPointError(f"gradient overflow: non-finite adjoint in lane {lane}")
    return grad.reshape(len(z), N * m)


def _hessian(spec: OcpSpec, jac_x: np.ndarray, jac_u: np.ndarray) -> np.ndarray:
    """Per lane: the Gauss-Newton Hessian of the objective from the Jacobians along a rollout.

    The sensitivities ``S_tau = dx_tau/dz`` follow the rollout from ``S_0 = 0``
    by ``S_{tau+1} = A_tau S_tau + B_tau E_tau``, where ``E_tau`` picks ``u_tau``
    out of ``z``; then ``H = 2 sum_tau S_tau' W_tau S_tau + 2 (I_N kron R)``,
    with ``W_tau = Q`` for ``tau < N`` and ``Q_f`` at ``tau = N``. ``H`` drops
    only the second derivatives of the reduced map, so it is exact for a
    linear model, and it is positive definite whenever ``Q`` and ``Q_f`` are
    PSD and ``R`` is PD. The weighted sensitivities take ``Q`` in one product
    over every row and then ``Q_f`` in the last, and ``H`` is scaled and
    completed in place, so no full-size temporary is copied.
    """
    N, m = spec.horizon_N, spec.m
    lanes, n = len(jac_x), jac_x.shape[-1]
    sens = np.zeros((lanes, N, n, N * m))  # row tau: S_{tau+1}, whose columns past block tau are zero
    sens[:, 0, :, :m] = jac_u[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a lane whose sensitivities overflow holds non-finite values
        for tau in range(1, N):
            np.matmul(jac_x[:, tau], sens[:, tau - 1], out=sens[:, tau])
            sens[:, tau, :, tau * m : (tau + 1) * m] = jac_u[:, tau]
        weighted = spec.state_weight @ sens
        weighted[:, N - 1] = spec.terminal_weight @ sens[:, N - 1]
        flat = sens.reshape(lanes, N * n, N * m)
        hess = flat.swapaxes(-1, -2) @ weighted.reshape(lanes, N * n, N * m)
        hess *= 2.0
        hess += spec._input_hessian
        return hess


def cost(spec: OcpSpec, model: PlantModel, x0, z):
    """Objective: sum of stage costs x'Qx + u'Rw u plus terminal x'Qf x; one value per lane for a batch.

    States that overflow the quadratic form yield an infinite cost (which any
    line search rejects) rather than a warning.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    values = _value(spec, _checked(_rollout(spec, model, x0, z)), z)
    return values if batched else float(values[0])


def gradient(spec: OcpSpec, model: PlantModel, x0, z) -> np.ndarray:
    """Exact objective gradient w.r.t. z by reverse accumulation along the rollout; one row per lane for a batch."""
    x0, z, batched = _lanes(spec, model, x0, z)
    grad = _adjoint(spec, model, _checked(_rollout(spec, model, x0, z)), z)
    return grad if batched else grad[0]


def gauss_newton_hessian(spec: OcpSpec, model: PlantModel, x0, z) -> np.ndarray:
    """Gauss-Newton Hessian of the objective w.r.t. z, ``(N*m, N*m)``; one matrix per lane for a batch.

    It is the Hessian ``solve_optimal`` steps with, exact for a linear model.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    hess = _hessian(spec, *_jacobians(spec, model, _checked(_rollout(spec, model, x0, z)), z))
    return hess if batched else hess[0]


def _project(spec: OcpSpec, z: np.ndarray) -> np.ndarray:
    """``project_box`` of sequences already checked."""
    lo, hi = spec.input_box
    return np.minimum(np.maximum(z.reshape(-1, spec.horizon_N, spec.m), lo), hi).reshape(z.shape)


def project_box(spec: OcpSpec, z) -> np.ndarray:
    """Componentwise clamp of each input block into the input box, per row of a batch. Idempotent."""
    return _project(spec, _check_z(spec, z))


def _pg_norm(spec: OcpSpec, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per lane: stationarity measure ||z - clip(z - g)|| used as the stopping rule."""
    return _norms(z - _project(spec, z - g))


def _armijo_backtrack(
    spec: OcpSpec, model: PlantModel, x0, z, g, step, j_ref, alpha, config: SolverConfig, noise_floor=-math.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Armijo backtracking along the projection arc ``project_box(z - alpha * step)``, lane by lane.

    Each lane shrinks its own ``alpha`` until its trial point's cost lies
    below its ``j_ref`` by ``armijo_c * g . (z - trial)``, with ``g`` the
    gradient at ``z``, or that predicted decrease is at or below its
    ``noise_floor`` (the resolution of a cost evaluation). A trial whose
    prediction overflows fails, and so does one whose predicted decrease is
    negative: a gradient step never predicts one, but the box can bend a
    Newton step uphill. Each trial is rolled out once, and later
    trials roll out only the lanes still searching. Returns each lane's last
    trial point, its cost and rollout, and whether the lane accepted it.
    """
    alpha, j_ref, noise_floor = (np.full(len(z), v, dtype=float) for v in (alpha, j_ref, noise_floor))
    lanes = None  # the lanes still searching, once some have stopped, in the rows of x0, z, ...
    for _ in range(config.max_backtracks):
        candidate = _project(spec, z - alpha[:, None] * step)
        decrease = config.armijo_c * _dot(g, z - candidate)
        trial = _rollout(spec, model, x0, candidate)
        j_cand = _value(spec, trial, candidate)
        ok = (
            np.isfinite(trial).all(axis=(1, 2))
            & (decrease >= 0.0)
            & ((j_cand <= j_ref - decrease) | (decrease <= noise_floor))
        )
        if lanes is None:
            points, values, states, accepted = candidate, j_cand, trial, ok
        else:
            points[lanes], values[lanes], states[lanes], accepted[lanes] = candidate, j_cand, trial, ok
        if ok.all():
            break
        searching = ~ok
        lanes = np.flatnonzero(searching) if lanes is None else lanes[searching]
        x0, z, g, step, j_ref, noise_floor = (v[searching] for v in (x0, z, g, step, j_ref, noise_floor))
        alpha = alpha[searching] * config.shrink
    return points, values, states, accepted


def iterate_map(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z) -> tuple[np.ndarray, int, np.ndarray]:
    """Raw fixed-budget update used by ``solver_map`` and the certification sampling.

    The iteration map is a self-map on the feasible box, so the incoming
    sequence is projected first (a no-op for iterates produced by any solver
    step). Each iteration is one projected gradient step: the fixed rule
    takes ``alpha0``; backtracking shrinks alpha from ``alpha0`` until the
    Armijo condition along the projection arc holds, and rejects the step
    (``z`` unchanged) if no trial passes. The gradient and the Armijo
    reference share one rollout, and an accepted trial's rollout serves the
    next iteration; a fixed-rule step rolls out its result. Returns the
    updated stacked sequence, the number of rejected steps and the rollout of
    the result.

    A batch steps every lane with its own line search; the rejected steps are
    summed over the lanes.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    z, rejected, states, _ = _iterate(spec, model, config, x0, z, batched, None)
    if batched:
        return z, rejected, states
    return z[0], rejected, states[0]


def _iterate(
    spec: OcpSpec, model: PlantModel, config: SolverConfig, x0: np.ndarray, z: np.ndarray, batched: bool, prediction
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """``iterate_map`` on checked lanes: the result, the rejected steps, and its rollout and objective per lane.

    The objective is the line search's value at each lane's accepted trial,
    or the lane's start value when it rejected every trial; after a
    fixed-rule step it is evaluated on the result's rollout.
    """
    z, states = _start(spec, model, x0, z, batched, prediction)
    rejected, values = 0, None
    for _ in range(config.iters_per_sample):
        g = _adjoint(spec, model, states, z)
        if config.step_rule == "fixed":
            z = _project(spec, z - config.alpha0 * g)
            states = _checked(_rollout(spec, model, x0, z))
            continue
        if values is None:
            values = _value(spec, states, z)
        points, trial_values, trials, ok = _armijo_backtrack(spec, model, x0, z, g, g, values, config.alpha0, config)
        z[ok], states[ok], values[ok] = points[ok], trials[ok], trial_values[ok]
        rejected += int(np.count_nonzero(~ok))
    return z, rejected, states, _value(spec, states, z) if values is None else values


def solver_map(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z, prediction=None) -> OptimizerState:
    """Fixed-budget suboptimal update: the optimizer's one-sample iteration map.

    Applies exactly ``config.iters_per_sample`` projected gradient iterations
    and records, at the result, the final projected-gradient norm, the
    rollout (``prediction``) and the objective (``value``) that
    ``iterate_map`` returns. ``prediction``, when given, is the caller's rollout
    of ``(x0, z)``, for example a previous result's ``shift_prediction``; it
    stands in for the first rollout, so a backtracking step whose first
    trial passes costs one rollout instead of two. Its first state must
    equal ``x0`` (``ValueError``), and a non-finite one raises
    ``FloatingPointError`` as an overflowing rollout does.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    z, rejected, states, values = _iterate(spec, model, config, x0, z, batched, prediction)
    pg = _pg_norm(spec, z, _adjoint(spec, model, states, z))
    return _optimizer_state(batched, z, config.iters_per_sample, pg, True, rejected, states, values)


def _optimizer_state(batched: bool, z, iterations, pg, converged, rejected, states, values) -> OptimizerState:
    """The result of a solver call, without the batch axis when the call had none."""
    return OptimizerState(
        z=z if batched else z[0],
        iterations_used=int(iterations),
        projected_gradient_norm=pg if batched else float(pg[0]),
        converged=bool(converged),
        rejected_steps=int(rejected),
        prediction=states if batched else states[0],
        value=values if batched else float(values[0]),
    )


def solve_optimal(
    spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z_init, prediction=None
) -> OptimizerState:
    """Solve-to-tolerance benchmark for the problem's minimizer.

    Iterates Bertsekas's projected Newton method ("Projected Newton methods
    for optimization problems with simple constraints", SIAM J. Control Optim.
    20(2), 1982) with the Gauss-Newton Hessian ``H`` of ``gauss_newton_hessian``
    until the projected-gradient norm drops below ``config.optimal_tol`` or
    the iteration budget is spent. Each iteration takes as active the inputs
    within the projected-gradient norm of a bound whose gradient points out
    of the box; the free inputs F take the Newton step ``H_FF^-1 g_F`` and the
    active ones the gradient step. A monotone Armijo search along the
    projection arc, from the full Newton step (alpha 1; ``alpha0`` belongs to
    the gradient map), accepts the step; a lane with no acceptable step is at
    its numerical floor and stops. A result that misses the tolerance is
    returned with ``converged=False``, never silently. The result also
    carries the rollout (``prediction``) and the objective (``value``) at the
    returned ``z``, which the solve already holds. ``prediction``, when
    given, is the caller's rollout of ``(x0, z_init)`` and stands in for the
    first rollout, under the rules of ``solver_map``; each iteration then
    costs one rollout per trial.

    A batch solves every lane with its own active set, line search and
    stopping rule; a lane that stops leaves the batch while the others
    iterate. Its result holds one row of ``z`` and ``prediction`` and one
    projected-gradient norm and value per lane; ``iterations_used`` is the
    iterations the batch ran (its longest lane), ``rejected_steps`` is summed
    over lanes and ``converged`` holds only if every lane converged.
    """
    x0, z, batched = _lanes(spec, model, x0, z_init)
    z, states = _start(spec, model, x0, z, batched, prediction)
    jac = _jacobians(spec, model, states, z)
    g, j = _adjoint(spec, model, states, z, jac), _value(spec, states, z)
    pg = _pg_norm(spec, z, g)
    lo, hi = (np.tile(bound, spec.horizon_N) for bound in spec.input_box)
    resolution = 64.0 * np.finfo(float).eps
    z_out, pg_out, states_out, j_out = np.empty_like(z), np.empty_like(pg), np.empty_like(states), np.empty_like(j)
    lanes = np.arange(len(z))  # the lanes still iterating, in the rows of the arrays above

    def retire(done: np.ndarray) -> None:
        """Record the result of the lanes ``done`` and keep the rows of the others."""
        nonlocal lanes, x0, z, g, j, pg, states, jac
        retired = lanes[done]
        z_out[retired], pg_out[retired], states_out[retired], j_out[retired] = z[done], pg[done], states[done], j[done]
        keep = ~done
        lanes, x0, z, g, j, pg, states = (v[keep] for v in (lanes, x0, z, g, j, pg, states))
        jac = tuple(v[keep] for v in jac)

    iters = rejected = 0
    while True:
        done = (pg <= config.optimal_tol) | (iters >= config.max_optimal_iters)
        if done.any():
            retire(done)
        if not lanes.size:
            break
        iters += 1
        # Newton step on the free inputs and gradient step on the active ones:
        # H with the active rows and columns replaced by those of the identity.
        # A lane whose H overflowed takes the gradient step on every input.
        hess = _hessian(spec, *jac)
        hess[~np.isfinite(hess).all(axis=(1, 2))] = np.eye(z.shape[1])
        active = ((z <= lo + pg[:, None]) & (g > 0.0)) | ((z >= hi - pg[:, None]) & (g < 0.0))
        hess[active[:, :, None] | active[:, None, :]] = 0.0
        hess.reshape(len(z), -1)[:, :: z.shape[1] + 1][active] = 1.0
        step = np.linalg.solve(hess, g[..., None])[..., 0]
        # Accept on sufficient decrease, or unconditionally once the
        # predicted decrease is below cost-evaluation resolution.
        noise_floor = resolution * np.maximum(1.0, np.abs(j))
        z_new, j_new, trials, ok = _armijo_backtrack(
            spec, model, x0, z, g, step, j, 1.0, config, noise_floor
        )
        if not ok.all():  # no acceptable step: those lanes are at the numerical floor, where they retire
            rejected += int(np.count_nonzero(~ok))
            z_new, j_new, trials = z_new[ok], j_new[ok], trials[ok]
            retire(~ok)
            if not lanes.size:
                break
        jac = _jacobians(spec, model, trials, z_new)
        z, j, states, g = z_new, j_new, trials, _adjoint(spec, model, trials, z_new, jac)
        pg = _pg_norm(spec, z, g)
    converged = np.all(pg_out <= config.optimal_tol)
    return _optimizer_state(batched, z_out, iters, pg_out, converged, rejected, states_out, j_out)


def first_input(z, m: int) -> np.ndarray:
    """Extract the first input block of the stacked sequence (the applied control), per row of a batch."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[-1] < m:
        raise ValueError(f"z must have at least m={m} entries, got {z.shape[-1]}")
    return z[..., :m].copy()


def warm_start_shift(z, m: int) -> np.ndarray:
    """Receding-horizon shift: drop the first block, repeat the last block, per row of a batch."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[-1] % m != 0 or z.shape[-1] < m:
        raise ValueError(f"z length {z.shape[-1]} is not a positive multiple of m={m}")
    return np.concatenate([z[..., m:], z[..., -m:]], axis=-1)


def shift_prediction(spec: OcpSpec, model: PlantModel, states, z) -> np.ndarray:
    """``warm_start_shift`` for the rollout ``states`` of ``z``, per row of a batch.

    Drops the first state and steps the last once more under ``z``'s last
    input block, which gives the rollout of ``warm_start_shift(z)`` from
    ``states[1]``: equal to a new rollout bit for bit, since each lane of a
    plant call equals its lone call. On a reduced-order plant ``states[1]`` is
    the next plant state, so the next solve needs no rollout of its start.
    """
    states, z = np.asarray(states, dtype=float), np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        last = model.reduced_map(states[..., -1, :], z[..., -spec.m :], spec.delta)
    return np.concatenate([states[..., 1:, :], last[..., None, :]], axis=-2)
