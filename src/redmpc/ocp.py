"""Finite-horizon optimal control over the reduced model, solved by projected gradient.

The decision vector ``z`` stacks the input sequence ``(u_0, ..., u_{N-1})``
row-major, so ``z`` has length ``N * m``. The per-sample suboptimal update
(``solver_map``) runs a fixed budget of projected gradient iterations; the
benchmark (``solve_optimal``) iterates projected gradient steps with spectral
(Barzilai-Borwein) step lengths until the projected-gradient norm meets a
tolerance.

Every function here solves one problem, or a batch of B problems when ``x0``
and ``z`` carry a leading axis of B lanes. Each lane is computed by the same
operations as its lone call, so lane ``k`` of a batch equals that call bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantModel, _check_range

__all__ = [
    "OcpSpec",
    "SolverConfig",
    "OptimizerState",
    "horizon_for_delta",
    "rollout",
    "cost",
    "gradient",
    "project_box",
    "iterate_map",
    "solver_map",
    "solve_optimal",
    "first_input",
    "warm_start_shift",
]

def _check_symmetric(mat: np.ndarray, name: str, tol: float = 1e-12) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite, got {mat.tolist()}")
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
        _check_range("horizon_N", self.horizon_N, 1, closed=True)
        object.__setattr__(self, "state_weight", _check_symmetric(self.state_weight, "state_weight"))
        object.__setattr__(self, "input_weight", _check_symmetric(self.input_weight, "input_weight"))
        object.__setattr__(self, "terminal_weight", _check_symmetric(self.terminal_weight, "terminal_weight"))
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
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError(f"step_rule must be 'backtracking' or 'fixed', got {self.step_rule!r}")
        for name in ("iters_per_sample", "max_backtracks", "max_optimal_iters"):
            _check_range(name, getattr(self, name), 1, closed=True)
        for name in ("alpha0", "optimal_tol"):
            _check_range(name, getattr(self, name))
        for name in ("shrink", "armijo_c"):
            _check_range(name, getattr(self, name), 0.0, 1.0)


@dataclass
class OptimizerState:
    """Stacked input sequence plus solver diagnostics.

    For a batch, ``z`` holds one row and ``projected_gradient_norm`` one entry
    per lane, while ``iterations_used``, ``converged`` and ``rejected_steps``
    describe the whole batch (see ``solve_optimal``).
    """

    z: np.ndarray
    iterations_used: int = 0
    projected_gradient_norm: float | np.ndarray = math.nan
    converged: bool = True
    rejected_steps: int = 0


def horizon_for_delta(delta: float, window_s: float) -> int:
    """Number of prediction steps covering a horizon window of ``window_s`` seconds.

    Rounds half away from zero so the window/delta ratio 2.5 yields 3 steps,
    with a floor of 2 steps.
    """
    return max(2, int(math.floor(_check_range("horizon_window_s", window_s) / _check_range("delta", delta) + 0.5)))


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


def _adjoint(spec: OcpSpec, model: PlantModel, states: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per lane: objective gradient w.r.t. z by the reverse sweep along a rollout already taken.

    The Jacobians along all N steps of every lane come from one
    ``reduced_jacobians`` call on the stacked rollout.
    """
    N, m = spec.horizon_N, spec.m
    u = z.reshape(len(z), N, m)
    jac_x, jac_u = model.reduced_jacobians(states[:, :N], u, spec.delta)
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
    spec: OcpSpec, model: PlantModel, x0, z, g, j_ref, alpha, config: SolverConfig, noise_floor=-math.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Armijo backtracking along the projection arc ``project_box(z - alpha * g)``, lane by lane.

    Each lane shrinks its own ``alpha`` until its trial point's cost lies
    sufficiently below its ``j_ref`` or its predicted decrease is at or below
    its ``noise_floor`` (the resolution of a cost evaluation); a trial whose
    prediction overflows fails. Each trial is rolled out once, and later
    trials roll out only the lanes still searching. Returns each lane's last
    trial point, its cost and rollout, and whether the lane accepted it.
    """
    alpha, j_ref, noise_floor = (np.full(len(z), v, dtype=float) for v in (alpha, j_ref, noise_floor))
    lanes = None  # the lanes still searching, once some have stopped, in the rows of x0, z, ...
    for _ in range(config.max_backtracks):
        candidate = _project(spec, z - alpha[:, None] * g)
        decrease = config.armijo_c * _dot(g, z - candidate)
        trial = _rollout(spec, model, x0, candidate)
        j_cand = _value(spec, trial, candidate)
        ok = np.isfinite(trial).all(axis=(1, 2)) & ((j_cand <= j_ref - decrease) | (decrease <= noise_floor))
        if lanes is None:
            points, values, states, accepted = candidate, j_cand, trial, ok
        else:
            points[lanes], values[lanes], states[lanes], accepted[lanes] = candidate, j_cand, trial, ok
        if ok.all():
            break
        searching = ~ok
        lanes = np.flatnonzero(searching) if lanes is None else lanes[searching]
        x0, z, g, j_ref, noise_floor = (v[searching] for v in (x0, z, g, j_ref, noise_floor))
        alpha = alpha[searching] * config.shrink
    return points, values, states, accepted


def iterate_map(
    spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Raw fixed-budget update used by ``solver_map`` and the certification sampling.

    The iteration map is a self-map on the feasible box, so the incoming
    sequence is projected first (a no-op for iterates produced by any solver
    step). Each iteration is one projected gradient step: the fixed rule
    takes ``alpha0``; backtracking shrinks alpha from ``alpha0`` until the
    Armijo condition along the projection arc holds, and rejects the step
    (``z`` unchanged) if no trial passes. The gradient and the Armijo
    reference share one rollout, and an accepted trial's rollout serves the
    next iteration. Returns the updated stacked sequence, the number of
    rejected steps and the rollout of the result (``None`` after a
    fixed-rule step).

    A batch steps every lane with its own line search; the rejected steps are
    summed over the lanes.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    z = _project(spec, z)
    states = None
    rejected = 0
    for _ in range(config.iters_per_sample):
        if states is None:
            states = _checked(_rollout(spec, model, x0, z))
        g = _adjoint(spec, model, states, z)
        if config.step_rule == "fixed":
            z, states = _project(spec, z - config.alpha0 * g), None
            continue
        j = _value(spec, states, z)
        points, _, trials, ok = _armijo_backtrack(spec, model, x0, z, g, j, config.alpha0, config)
        z[ok], states[ok] = points[ok], trials[ok]
        rejected += int(np.count_nonzero(~ok))
    if batched:
        return z, rejected, states
    return z[0], rejected, None if states is None else states[0]


def solver_map(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z) -> OptimizerState:
    """Fixed-budget suboptimal update: the optimizer's one-sample iteration map.

    Applies exactly ``config.iters_per_sample`` projected gradient iterations
    and records the final projected-gradient norm at the result, from its
    rollout when the line search has taken one.
    """
    x0, z, batched = _lanes(spec, model, x0, z)
    z, rejected, states = iterate_map(spec, model, config, x0, z)
    if states is None:
        states = _checked(_rollout(spec, model, x0, z))
    pg = _pg_norm(spec, z, _adjoint(spec, model, states, z))
    return _optimizer_state(batched, z, config.iters_per_sample, pg, True, rejected)


def _optimizer_state(batched: bool, z, iterations, pg, converged, rejected) -> OptimizerState:
    """The result of a solver call, without the batch axis when the call had none."""
    return OptimizerState(
        z=z if batched else z[0],
        iterations_used=int(iterations),
        projected_gradient_norm=pg if batched else float(pg[0]),
        converged=bool(converged),
        rejected_steps=int(rejected),
    )


def solve_optimal(spec: OcpSpec, model: PlantModel, config: SolverConfig, x0, z_init) -> OptimizerState:
    """Solve-to-tolerance benchmark for the problem's minimizer.

    Iterates projected gradient steps with spectral (Barzilai-Borwein) step
    lengths, safeguarded by a nonmonotone (watchdog over the last 10 values)
    backtracking line search, until the projected-gradient norm drops below
    ``config.optimal_tol`` or the iteration budget is spent. A result that
    misses the tolerance is returned with ``converged=False``, never silently.

    A batch solves every lane with its own step length, value window and
    stopping rule; a lane that stops leaves the batch while the others
    iterate. Its result holds one row of ``z`` and one projected-gradient norm
    per lane; ``iterations_used`` is the iterations the batch ran (its longest
    lane), ``rejected_steps`` is summed over lanes and ``converged`` holds only
    if every lane converged.
    """
    x0, z, batched = _lanes(spec, model, x0, z_init)
    z = _project(spec, z)
    states = _checked(_rollout(spec, model, x0, z))
    g = _adjoint(spec, model, states, z)
    recent = np.repeat(_value(spec, states, z)[:, None], 10, axis=1)  # each lane's last 10 values
    pg = _pg_norm(spec, z, g)
    alpha = np.full(len(z), config.alpha0)
    alpha_lo, alpha_hi = 1e-10, 1e10
    resolution = 64.0 * np.finfo(float).eps
    z_out, pg_out = np.empty_like(z), np.empty_like(pg)
    lanes = np.arange(len(z))  # the lanes still iterating, in the rows of the arrays above

    def retire(done: np.ndarray) -> None:
        """Record the result of the lanes ``done`` and keep the rows of the others."""
        nonlocal lanes, x0, z, g, pg, alpha, recent
        z_out[lanes[done]], pg_out[lanes[done]] = z[done], pg[done]
        keep = ~done
        lanes, x0, z, g, pg, alpha, recent = (v[keep] for v in (lanes, x0, z, g, pg, alpha, recent))

    iters = rejected = 0
    while True:
        done = (pg <= config.optimal_tol) | (iters >= config.max_optimal_iters)
        if done.any():
            retire(done)
        if not lanes.size:
            break
        iters += 1
        j_ref = recent.max(axis=1)
        # Accept on sufficient decrease, or unconditionally once the
        # predicted decrease is below cost-evaluation resolution.
        noise_floor = resolution * np.maximum(1.0, np.abs(j_ref))
        z_new, j_new, states, ok = _armijo_backtrack(spec, model, x0, z, g, j_ref, alpha, config, noise_floor)
        if not ok.all():  # no acceptable step: those lanes are at the numerical floor
            rejected += int(np.count_nonzero(~ok))
            z_new, j_new, states = z_new[ok], j_new[ok], states[ok]
            retire(~ok)
            if not lanes.size:
                break
        g_new = _adjoint(spec, model, states, z_new)
        s = z_new - z
        y = g_new - g
        sy = _dot(s, y)
        # BB1 step length for the next iteration, clipped to a sane range.
        curved = sy > 0.0
        alpha = np.full(len(z), config.alpha0)
        alpha[curved] = np.minimum(np.maximum(_dot(s, s)[curved] / sy[curved], alpha_lo), alpha_hi)
        z, g = z_new, g_new
        recent[:, (iters - 1) % 10] = j_new
        pg = _pg_norm(spec, z, g)
    return _optimizer_state(batched, z_out, iters, pg_out, np.all(pg_out <= config.optimal_tol), rejected)


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
