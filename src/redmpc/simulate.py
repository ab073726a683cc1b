"""Closed-loop simulation of the plant/optimizer interconnection and strategy sweeps.

Per step ``t`` the loop applies, in order: ``u_t`` as the first block of the
optimizer state, one plant step (full two-timescale plant, or the reduced
plant for the benchmark strategies), then the optimizer update on the new
state after a receding-horizon warm-start shift. The prediction model inside
the optimizer is always the reduced map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .plant import PlantModel, _as_vector, _check_choice, _check_range
from .ocp import (
    OcpSpec,
    SolverConfig,
    _norms,
    _quadratic,
    first_input,
    shift_prediction,
    solve_optimal,
    solver_map,
    warm_start_shift,
)

__all__ = [
    "Strategy",
    "STRATEGIES",
    "SimConfig",
    "SimTrace",
    "RateFit",
    "simulate",
    "fit_rate",
    "compare_strategies",
    "write_trace_csv",
    "write_comparison_csv",
    "write_gnuplot_script",
    "TRACE_HEADER",
    "COMPARISON_HEADER",
]

TRACE_HEADER = "step,time_s,theta,omega,current,u,err_norm,err_theta,stage_cost,solver_iters,pg_norm"
COMPARISON_HEADER = "delta,plant,solver,final_err_theta,rate_per_s,r2,mean_iters,diverged"


@dataclass(frozen=True)
class Strategy:
    """Plant/solver pairing for one closed-loop run.

    The three benchmark settings are: the proposed scheme drives the full
    two-timescale plant with the fixed-budget solver; the two reference
    settings drive the reduced plant (so the prediction model is exact)
    with the fixed-budget and the solve-to-tolerance solver respectively.
    """

    plant_kind: str   # "full_order" | "reduced_order"
    solver_kind: str  # "suboptimal" | "optimal"

    def __post_init__(self):
        _check_choice("plant_kind", self.plant_kind, ("full_order", "reduced_order"))
        _check_choice("solver_kind", self.solver_kind, ("suboptimal", "optimal"))

    @property
    def label(self) -> str:
        return f"{'full' if self.plant_kind == 'full_order' else 'reduced'}/{self.solver_kind}"


# Sweep order: proposed, then the two reduced-plant benchmarks.
STRATEGIES: dict[str, Strategy] = {
    "proposed": Strategy("full_order", "suboptimal"),
    "subopt-full": Strategy("reduced_order", "suboptimal"),
    "opt-full": Strategy("reduced_order", "optimal"),
}


@dataclass(frozen=True)
class SimConfig:
    delta: float
    duration_s: float = 10.0
    x0: tuple[float, ...] = (1.0, 0.0)
    xi0: tuple[float, ...] = (0.0,)
    z0: np.ndarray | None = None
    strategy: Strategy = STRATEGIES["proposed"]

    def __post_init__(self):
        for name in ("delta", "duration_s"):
            _check_range(name, getattr(self, name))
        _check_range("duration_s / delta", self.duration_s / self.delta, high=1e7)
        for name in ("x0", "xi0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite entries: {getattr(self, name)}")

    @property
    def steps(self) -> int:
        """Closed-loop steps covering ``duration_s``, at least 1; ``duration_s / delta`` must stay below 1e7."""
        return max(1, int(math.floor(self.duration_s / self.delta + 0.5)))


@dataclass
class RateFit:
    """Log-linear decay fit ln|err_t| = ln(a) + r * t over retained steps."""

    amplitude: float
    rate_per_step: float
    rate_per_second: float
    r_squared: float
    samples_used: int


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, finite for every finite vector whose norm is representable.

    ``np.linalg.norm`` sums squares, which overflow for entries beyond about
    1e154; only then is the norm taken again by ``math.hypot``, which scales.
    """
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(v))
    return math.hypot(*v) if math.isinf(value) else value


@dataclass
class SimTrace:
    """Per-step closed-loop record plus terminal summary."""

    delta: float
    strategy: Strategy
    step: np.ndarray          # (T,)
    time_s: np.ndarray        # (T,)
    x: np.ndarray             # (T, n) state before the step
    xi: np.ndarray            # (T, p)
    u: np.ndarray             # (T, m) applied input
    err_norm: np.ndarray      # (T,) ||x - x_star||
    err_theta: np.ndarray     # (T,) |x_0 - x_star_0|
    stage_cost: np.ndarray    # (T,)
    solver_iters: np.ndarray  # (T,)
    pg_norm: np.ndarray       # (T,)
    rejected_steps: np.ndarray  # (T,) line searches that found no step; written to no output file
    final_x: np.ndarray
    final_xi: np.ndarray
    x_star: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def final_err_norm(self) -> float:
        return _norm(self.final_x - self.x_star)

    @property
    def final_err_theta(self) -> float:
        return float(abs(self.final_x[0] - self.x_star[0]))

    @property
    def mean_abs_err_theta(self) -> float:
        return float(np.mean(self.err_theta)) if self.err_theta.size else math.nan

    @property
    def mean_solver_iters(self) -> float:
        return float(np.mean(self.solver_iters)) if self.solver_iters.size else math.nan


def simulate(model: PlantModel, spec: OcpSpec, solver_config: SolverConfig, sim_config: SimConfig) -> SimTrace:
    """Run the closed loop and record one row per simulated step.

    The optimizer always predicts with the reduced map; the plant is stepped
    with the full two-timescale dynamics or with the reduced map according to
    the strategy. For reduced-plant runs the recorded fast state is the
    equilibrium value at the current state and input. A non-finite state halts
    the run and marks the trace as diverged. The loop records only the
    interconnection's states, inputs and solver diagnostics; the error and
    cost columns are computed from them afterwards.

    On the reduced plant the next state is the second state of the last
    solve's prediction, so each solve after the first starts from that
    prediction's ``shift_prediction`` instead of a new rollout, with the same
    result bit for bit. On the full plant the next state lies off the
    prediction, and every solve rolls its start out anew.
    """
    delta = float(sim_config.delta)
    if abs(delta - spec.delta) > 1e-15:
        raise ValueError(f"sim delta {delta} does not match OCP delta {spec.delta}")
    strategy = sim_config.strategy
    n, p, m = model.n, model.p, model.m
    x = _as_vector(sim_config.x0, n, "x0")
    xi = _as_vector(sim_config.xi0, p, "xi0")
    nz = spec.horizon_N * m
    z = np.zeros(nz) if sim_config.z0 is None else _as_vector(sim_config.z0, nz, "z0")
    full_plant = strategy.plant_kind == "full_order"
    update = solver_map if strategy.solver_kind == "suboptimal" else solve_optimal

    steps = sim_config.steps
    xs, xis, us = np.zeros((steps, n)), np.zeros((steps, p)), np.zeros((steps, m))
    iters, pg, rejected = np.zeros(steps), np.zeros(steps), np.zeros(steps, dtype=int)
    diverged = False
    state = None
    for t in range(steps):
        u = first_input(z, m)
        xs[t], us[t] = x, u
        xis[t] = xi if full_plant else model.equilibrium_map(x, u)
        with np.errstate(over="ignore", invalid="ignore"):
            if full_plant:
                x, xi = model.target_map(x, xi, u, delta), model.extra_map(xi, x, u, delta)
            else:
                x = model.reduced_map(x, u, delta)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            diverged = True
            break
        prediction = None if full_plant or state is None else shift_prediction(spec, model, state.prediction, z)
        try:
            state = update(spec, model, solver_config, x, warm_start_shift(z, m), prediction)
        except FloatingPointError:
            # prediction rollout overflowed: the loop has left any sane region
            diverged = True
            break
        z = state.z
        iters[t], pg[t], rejected[t] = state.iterations_used, state.projected_gradient_norm, state.rejected_steps

    T = t + 1
    xs, xis, us = xs[:T], xis[:T], us[:T]
    x_star = model.x_star
    err = xs - x_star
    with np.errstate(over="ignore", invalid="ignore"):
        err_norm = _norms(err)
        for k in np.flatnonzero(np.isinf(err_norm)):  # squares overflowed; _norm rescales
            err_norm[k] = _norm(err[k])
        stage_cost = _quadratic(err, spec.state_weight) + _quadratic(us, spec.input_weight)
    return SimTrace(
        delta=delta,
        strategy=strategy,
        step=np.arange(T),
        time_s=np.arange(T) * delta,
        x=xs,
        xi=xis,
        u=us,
        err_norm=err_norm,
        err_theta=np.abs(err[:, 0]),
        stage_cost=stage_cost,
        solver_iters=iters[:T],
        pg_norm=pg[:T],
        rejected_steps=rejected[:T],
        final_x=x.copy(),
        final_xi=np.atleast_1d(xi if full_plant else xis[-1]).copy(),
        x_star=x_star.copy(),
        diverged=diverged,
        diverged_at=t if diverged else None,
    )


def fit_rate(trace: SimTrace, skip_fraction: float = 0.1) -> RateFit:
    """Least-squares fit of ln|err_theta| = ln(a) + r * step over retained samples.

    The initial ``skip_fraction`` of the trace is dropped, then only strictly
    positive error samples are kept. Refuses (raises ValueError) with fewer
    than 10 usable samples.
    """
    skip_fraction = _check_range("skip_fraction", skip_fraction, 0.0, 1.0, closed=True)
    e = trace.err_theta
    t = trace.step.astype(float)
    start = int(skip_fraction * e.size)
    keep = (np.arange(e.size) >= start) & (e > 0.0)
    if int(np.count_nonzero(keep)) < 10:
        raise ValueError(
            f"rate fit refused: only {int(np.count_nonzero(keep))} positive-error samples "
            f"after skipping the first {skip_fraction:.0%} (need >= 10)"
        )
    tt = t[keep]
    le = np.log(e[keep])
    design = np.vstack([np.ones_like(tt), tt]).T
    coef, *_ = np.linalg.lstsq(design, le, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - np.mean(le)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    rate = float(coef[1])
    return RateFit(
        amplitude=float(np.exp(coef[0])),
        rate_per_step=rate,
        rate_per_second=rate / trace.delta,
        r_squared=r2,
        samples_used=int(np.count_nonzero(keep)),
    )


@dataclass
class ComparisonRow:
    delta: float
    plant: str
    solver: str
    final_err_theta: float
    rate_per_s: float
    r2: float
    mean_iters: float
    diverged: bool
    trace: SimTrace


def compare_strategies(
    model: PlantModel,
    specs: list[OcpSpec],
    solver_config: SolverConfig,
    base_config: SimConfig,
    skip_fraction: float = 0.1,
) -> list[ComparisonRow]:
    """Run each strategy on each problem and tabulate errors and fitted rates.

    Each spec fixes one timescale and its horizon; the rows follow the specs'
    order. Divergence is recorded in the row rather than raised; traces with
    no usable decay samples get a zero rate (all-zero equilibrium runs) or NaN.
    """
    if not specs:
        raise ValueError("specs must be a nonempty list")
    rows: list[ComparisonRow] = []
    for spec in specs:
        delta = spec.delta
        for strategy in STRATEGIES.values():
            cfg = replace(base_config, delta=delta, strategy=strategy)
            trace = simulate(model, spec, solver_config, cfg)
            try:
                fit = fit_rate(trace, skip_fraction)
                rate, r2 = fit.rate_per_second, fit.r_squared
            except ValueError:
                if np.all(trace.err_theta == 0.0):
                    rate, r2 = 0.0, 0.0
                else:
                    rate, r2 = math.nan, math.nan
            rows.append(
                ComparisonRow(
                    delta=delta,
                    plant="full" if strategy.plant_kind == "full_order" else "reduced",
                    solver=strategy.solver_kind,
                    final_err_theta=trace.final_err_theta,
                    rate_per_s=rate,
                    r2=r2,
                    mean_iters=trace.mean_solver_iters,
                    diverged=trace.diverged,
                    trace=trace,
                )
            )
    return rows


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(trace: SimTrace, path) -> None:
    """One row per step: pendulum-shaped schema (theta, omega, current, u)."""
    if trace.x.shape[1] != 2 or trace.xi.shape[1] != 1 or trace.u.shape[1] != 1:
        raise ValueError("trace CSV schema expects n=2, p=1, m=1 (pendulum layout)")
    reals = np.column_stack(
        [trace.time_s, trace.x, trace.xi, trace.u, trace.err_norm, trace.err_theta, trace.stage_cost]
    )
    lines = [TRACE_HEADER]
    for i, row in enumerate(reals):
        cells = [str(int(trace.step[i])), *map(_fmt, row), str(int(trace.solver_iters[i])), _fmt(trace.pg_norm[i])]
        lines.append(",".join(cells))
    _write_lines(path, lines)


def write_comparison_csv(rows: list[ComparisonRow], path) -> None:
    lines = [COMPARISON_HEADER]
    for r in rows:
        reals = map(_fmt, (r.final_err_theta, r.rate_per_s, r.r2, r.mean_iters))
        lines.append(",".join([_fmt(r.delta), r.plant, r.solver, *reals, str(int(r.diverged))]))
    _write_lines(path, lines)


def write_gnuplot_script(path, trace_csv: str | None = None, comparison_csv: str | None = None) -> None:
    """Emit a gnuplot script plotting the written CSVs (states + semilog error)."""
    lines = [
        "# gnuplot script generated alongside the CSV outputs",
        "set datafile separator ','",
        "set key outside",
    ]
    if trace_csv is not None:
        lines += [
            "set multiplot layout 2,1",
            "set xlabel 'time [s]'",
            "set ylabel 'state'",
            f"plot '{trace_csv}' using 2:3 with lines title 'theta', '' using 2:4 with lines title 'omega'",
            "set logscale y",
            "set ylabel '|theta error|'",
            f"plot '{trace_csv}' using 2:8 with lines title 'angle error'",
            "unset logscale y",
            "unset multiplot",
        ]
    if comparison_csv is not None:
        lines += [
            "set xlabel 'delta [s]'",
            "set ylabel 'final |theta error|'",
            "set logscale y",
            f"plot '{comparison_csv}' using 1:4 with points pt 7 title 'final error'",
            "unset logscale y",
        ]
    _write_lines(path, lines)
