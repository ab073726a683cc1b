"""Sampling-based stability certification for the plant/optimizer interconnection.

The engine estimates the constants entering the closed-loop stability
argument, builds the composite value function for the fast (boundary-layer)
subsystem, assembles the coupling matrix for the slow/fast interconnection,
and bisects the largest timescale parameter for which the certificate holds.

All sampled constants are empirical: Lipschitz-type estimates are lower
bounds of the true constants (inflated by a safety factor before use),
decrease constants are minima over the sampled region, and every verdict is
valid only over the sampled ranges recorded in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .plant import PlantModel
from .ocp import (
    OcpSpec,
    SolverConfig,
    cost,
    first_input,
    iterate_map,
    project_box,
    solve_optimal,
)

__all__ = [
    "SamplingPlan",
    "Estimate",
    "QuadraticBounds",
    "KappaRule",
    "BoundaryLayerResult",
    "InterconnectionConstants",
    "DeltaBarSearch",
    "Verdict",
    "CertificateReport",
    "CertificationError",
    "estimate_lipschitz",
    "quadratic_bounds",
    "kappa_rule",
    "boundary_layer_check",
    "bisect_delta_bar",
    "closed_loop_decrease_check",
    "full_certificate",
]

ANALYTIC = "analytic"
SAMPLED = "sampled-lower-bound"

# A decrease constant at or below this level certifies nothing.
DECREASE_FLOOR = 1e-12


class CertificationError(ValueError):
    """Raised when certification is structurally impossible (e.g. no decrease)."""


@dataclass(frozen=True)
class SamplingPlan:
    """Sample counts, ranges, and the safety factor applied to sampled constants.

    State/input ranges cover the benchmark saturation bound with margin.
    ``state_ball`` bounds the states at which the optimizer's minimizer is
    evaluated; error samples for the boundary layer live in balls of radius
    ``error_ball`` with norms bounded away from zero by ``error_min_norm``.
    """

    seed: int = 0
    theta_range: tuple[float, float] = (-math.pi, math.pi)
    omega_range: tuple[float, float] = (-10.0, 10.0)
    xi_range: tuple[float, float] = (-40.0, 40.0)
    u_range: tuple[float, float] = (-24.0, 24.0)
    lipschitz_pairs: int = 2000
    equilibrium_samples: int = 10_000
    fast_samples: int = 2000
    state_ball: float = 1.0
    n_states: int = 25
    optimizer_pairs_per_state: int = 44
    boundary_samples: int = 10_000
    error_ball: float = 1.0
    error_min_norm: float = 0.05
    n_value_states: int = 160
    map_pairs: int = 200
    near_eq_ball: float = 0.5
    closed_loop_samples: int = 1000
    multistart_states: int = 4
    multistart_points: int = 8
    safety_factor: float = 1.5
    delta_cap: float = 0.2

    def ranges_dict(self) -> dict:
        return {
            "theta": self.theta_range,
            "omega": self.omega_range,
            "xi": self.xi_range,
            "u": self.u_range,
            "state_ball": self.state_ball,
            "error_ball": self.error_ball,
            "error_min_norm": self.error_min_norm,
            "near_eq_ball": self.near_eq_ball,
        }


@dataclass
class Estimate:
    """A constant with its provenance tag; sampled values are lower bounds."""

    value: float
    tag: str = SAMPLED
    samples: int = 0

    def inflated(self, factor: float) -> float:
        """Safety-inflated value: analytic constants are used as-is."""
        return self.value if self.tag == ANALYTIC else self.value * factor


@dataclass
class QuadraticBounds:
    """Sampled quadratic sandwich, one-step decrease, and increment coefficients.

    For a candidate function V on error coordinates v (equilibrium at the
    origin): lower/upper from min/max of V(v)/||v||^2, decrease from the
    minimum of (V(v) - V(v+)) / (divisor * ||v||^2) along the supplied
    one-step images, increment from the max of
    (V(v) - V(v')) / (||v - v'|| (||v|| + ||v'||)) over sample pairs.
    ``witness`` is the sample with the worst decrease when ``ok`` is False,
    and ``witness_index`` its row.
    """

    lower: float
    upper: float
    decrease: float
    increment: float
    samples: int
    ok: bool
    witness: np.ndarray | None = None
    increment_centered: float | None = None
    witness_index: int | None = None

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "decrease": self.decrease,
            "increment": self.increment,
            "samples": self.samples,
            "ok": self.ok,
        }


def _uniform_stream(rng: np.random.Generator, low: np.ndarray, high: np.ndarray, count: int) -> np.ndarray:
    return low + (high - low) * rng.random((count, low.size))


def _ball_samples(rng: np.random.Generator, dim: int, count: int, radius: float, min_norm: float = 0.0) -> np.ndarray:
    """Uniform directions with norms in [min_norm, radius]."""
    raw = rng.normal(size=(count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = min_norm + (radius - min_norm) * rng.random((count, 1))
    return raw / norms * radii


def estimate_lipschitz(
    fn,
    low,
    high,
    count: int = 1000,
    seed: int = 0,
    analytic: float | None = None,
) -> Estimate:
    """Max difference quotient of ``fn`` over sampled pairs in a box.

    Returns the analytic constant (tagged) when one is supplied; otherwise a
    sampled lower bound of the true Lipschitz constant. Pairs are drawn from
    a deterministic stream, so increasing ``count`` never decreases the
    estimate. A degenerate (zero-volume) box is rejected.
    """
    if analytic is not None:
        return Estimate(value=float(analytic), tag=ANALYTIC)
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    if count < 1:
        raise ValueError("count must be positive")
    if np.all(high <= low):
        raise ValueError("sampling box has zero volume: high must exceed low somewhere")
    rng = np.random.default_rng(seed)
    points = _uniform_stream(rng, low, high, 2 * count)
    best = 0.0
    for i in range(count):
        a, b = points[2 * i], points[2 * i + 1]
        gap = float(np.linalg.norm(a - b))
        if gap < 1e-12:
            continue
        ratio = float(np.linalg.norm(np.atleast_1d(fn(a)) - np.atleast_1d(fn(b)))) / gap
        if ratio > best:
            best = ratio
    return Estimate(value=best, tag=SAMPLED, samples=count)


def _max_increment(dv: np.ndarray, gaps: np.ndarray, norms: np.ndarray) -> float:
    """Max of dv / (gap * (|a| + |b|)) over consecutive pairs with a positive scale."""
    scale = gaps * (norms[:-1] + norms[1:])
    keep = (gaps >= 1e-12) & (scale > 0.0)
    return float(np.max(dv[keep] / scale[keep], initial=0.0))


def quadratic_bounds(
    values,
    values_next,
    samples,
    decrease_divisor: float = 1.0,
    center: np.ndarray | None = None,
) -> QuadraticBounds:
    """Quadratic sandwich/decrease/increment coefficients of a sampled function V.

    ``values`` holds V at the rows of ``samples`` and ``values_next`` V at
    their one-step images. Lower, upper and decrease ratios divide by the
    squared distance to ``center`` (the origin when omitted); ``increment``
    takes norms about the origin and ``increment_centered`` about ``center``,
    both over consecutive sample pairs. Any decrease ratio at or below
    ``DECREASE_FLOOR`` yields ``ok=False`` with the first worst sample as
    witness.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    values_next = np.asarray(values_next, dtype=float).reshape(-1)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if not values.shape == values_next.shape == samples.shape[:1]:
        raise ValueError("values, values_next and samples must have one entry per sample")
    errors = samples if center is None else samples - center
    norms2 = np.sum(errors**2, axis=1)
    if np.any(norms2 == 0.0):
        raise ValueError("samples must be nonzero error vectors (away from the center)")
    ratios = values / norms2
    dec_ratios = (values - values_next) / (decrease_divisor * norms2)
    k_min = int(np.argmin(dec_ratios))
    decrease = float(dec_ratios[k_min])
    ok = decrease > DECREASE_FLOOR

    gaps = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    dv = np.abs(np.diff(values))
    return QuadraticBounds(
        lower=float(np.min(ratios)),
        upper=float(np.max(ratios)),
        decrease=decrease,
        increment=_max_increment(dv, gaps, np.linalg.norm(samples, axis=1)),
        samples=samples.shape[0],
        ok=ok,
        witness=None if ok else samples[k_min].copy(),
        witness_index=None if ok else k_min,
        increment_centered=_max_increment(dv, gaps, np.sqrt(norms2)),
    )


@dataclass
class KappaRule:
    """Composite-weight rule for the boundary-layer value function U + kappa*L."""

    boundary_k1: float
    boundary_k2: float
    kappa_threshold: float
    kappa: float


def kappa_rule(a3: float, a4: float, b3: float, lip_xi: float, lip_g: float, lip_T: float) -> KappaRule:
    """Weight for the composite fast value function.

    With k1 = a4 * L_xi * L_g * (L_T + 1) and
    k2 = a4 * (2 L_xi (L_T + 1) + (L_xi (L_T + 1))^2), the 2x2 decrease
    matrix is positive definite iff kappa > k1^2/(a3 b3) + k2/b3; the chosen
    weight is 1.1x the threshold (any positive weight works in the fully
    decoupled case where the threshold vanishes).
    """
    if a3 <= DECREASE_FLOOR or b3 <= DECREASE_FLOOR:
        raise CertificationError(
            f"certification impossible: nonpositive decrease constant (a3={a3}, b3={b3})"
        )
    coupling = lip_xi * (lip_T + 1.0)
    k1 = a4 * coupling * lip_g
    k2 = a4 * (2.0 * coupling + coupling**2)
    threshold = k1**2 / (a3 * b3) + k2 / b3
    kappa = 1.1 * threshold if threshold > 0.0 else 1.0
    return KappaRule(boundary_k1=k1, boundary_k2=k2, kappa_threshold=threshold, kappa=kappa)


@dataclass
class BoundaryLayerResult:
    """Outcome of the sampled fast-subsystem decrease check."""

    passed: bool
    d1: float
    d2: float
    d3: float
    d4: float
    kappa: float
    samples: int
    witness: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (x, xi_err, z_err)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "d1": self.d1,
            "d2": self.d2,
            "d3": self.d3,
            "d4": self.d4,
            "kappa": self.kappa,
            "samples": self.samples,
        }


def boundary_layer_check(
    model: PlantModel,
    spec: OcpSpec,
    solver_config: SolverConfig,
    kappa: float,
    plan: SamplingPlan,
    states: np.ndarray | None = None,
    zstars: list[np.ndarray] | None = None,
    error_samples: tuple[np.ndarray, np.ndarray] | None = None,
) -> BoundaryLayerResult:
    """One-step decrease of the composite fast value function, frozen slow state.

    For each sampled slow state x (with its minimizer solved to tolerance) and
    each error sample (xi_err, z_err), the fast pair (extra state, optimizer
    state) is stepped once with x frozen and the composite value
    ||xi_err||^2 + kappa * ||z_err||^2 must strictly decrease. d1..d4 are the
    quadratic bounds of that composite over the stacked errors [xi_err, z_err];
    any violation fails with the witness (x, xi_err, z_err).
    """
    rng = np.random.default_rng(plan.seed + 1)
    n, p, m = model.n, model.p, model.m
    nz = spec.horizon_N * m
    if states is None:
        states = _ball_samples(rng, n, plan.n_states, plan.state_ball)
    states = np.atleast_2d(states)
    per_state = max(1, plan.boundary_samples // states.shape[0])
    if error_samples is not None:
        xi_errs_all, z_errs_all = error_samples
        per_state = xi_errs_all.shape[0]

    sample_states, errors = [], []  # frozen slow state and stacked [xi_err, z_err] per sample
    values, values_next = [], []  # composite value at each sample and at its one-step image
    for k, x in enumerate(states):
        if zstars is not None:
            zstar = zstars[k]
        else:
            sol = solve_optimal(spec, model, solver_config, x, np.zeros(nz))
            if not sol.converged:
                raise CertificationError(f"minimizer solve did not converge at sampled state {x}")
            zstar = sol.z
        if error_samples is None:
            xi_errs = _ball_samples(rng, p, per_state, plan.error_ball, plan.error_min_norm)
            z_errs = _ball_samples(rng, nz, per_state, plan.error_ball, plan.error_min_norm)
        else:
            xi_errs, z_errs = xi_errs_all, z_errs_all
        for xi_err, z_err in zip(xi_errs, z_errs):
            z = zstar + z_err
            u = first_input(z, m)
            xi = xi_err + model.equilibrium_map(x, u)
            z_next, _ = iterate_map(spec, model, solver_config, x, z)
            xi_next = model.extra_map(xi, x, u, spec.delta)
            u_next = first_input(z_next, m)
            xi_err_next = xi_next - model.equilibrium_map(x, u_next)
            z_err_next = z_next - zstar
            sample_states.append(x)
            errors.append(np.concatenate([xi_err, z_err]))
            values.append(float(xi_err @ xi_err) + kappa * float(z_err @ z_err))
            values_next.append(float(xi_err_next @ xi_err_next) + kappa * float(z_err_next @ z_err_next))

    bounds = quadratic_bounds(values, values_next, np.array(errors))
    witness = None
    if not bounds.ok:
        k = bounds.witness_index
        witness = (sample_states[k].copy(), errors[k][:p].copy(), errors[k][p:].copy())
    return BoundaryLayerResult(
        passed=bounds.ok,
        d1=bounds.lower,
        d2=bounds.upper,
        d3=bounds.decrease,
        d4=bounds.increment,
        kappa=kappa,
        samples=bounds.samples,
        witness=witness,
    )


@dataclass
class InterconnectionConstants:
    """Constants of the slow/fast coupling analysis and the matrix they build.

    ``fast_decrease`` and ``fast_increment`` are the decrease/increment
    coefficients of the composite fast value function; ``c3``/``c4`` those of
    the reduced value function; ``lip_slow`` the slow-map coupling constant;
    ``lip_h`` and ``lip_G`` the fast equilibrium-manifold and stacked fast-map
    Lipschitz constants.
    """

    c3: float
    c4: float
    fast_decrease: float
    fast_increment: float
    lip_slow: float
    lip_h: float
    lip_G: float
    k1: float = field(init=False)
    k2: float = field(init=False)
    k3: float = field(init=False)
    k4: float = field(init=False)
    k5: float = field(init=False)
    k6: float = field(init=False)
    k7: float = field(init=False)
    k8: float = field(init=False)

    def __post_init__(self):
        missing = [
            name
            for name in ("c3", "c4", "fast_decrease", "fast_increment", "lip_slow", "lip_h", "lip_G")
            if getattr(self, name) is None or not math.isfinite(getattr(self, name))
        ]
        if missing:
            raise CertificationError(f"missing or non-finite constants: {missing}")
        c4, Lf = self.c4, self.lip_slow
        b4, Lh, LG = self.fast_increment, self.lip_h, self.lip_G
        self.k1 = 2.0 * c4 * Lf
        self.k2 = 2.0 * c4 * Lf**2
        self.k3 = c4 * Lf**2
        self.k4 = 2.0 * b4 * Lh * LG * Lf
        self.k5 = 2.0 * b4 * Lh**2 * Lf**2
        self.k6 = 2.0 * b4 * Lh * LG * Lf
        self.k7 = b4 * Lh**2 * Lf**2
        self.k8 = b4 * Lh**2 * Lf**2

    def q21(self, delta: float) -> float:
        return -0.5 * (delta * (self.k1 + self.k4) + delta**2 * (self.k2 + self.k5))

    def coupling_matrix(self, delta: float) -> np.ndarray:
        q = self.q21(delta)
        return np.array(
            [
                [delta * self.c3 - delta**2 * self.k8, q],
                [q, self.fast_decrease - delta * self.k6 - delta**2 * (self.k3 + self.k7)],
            ]
        )

    def p_poly(self, delta: float) -> float:
        """Coupling polynomial with p(0) = 0; the matrix determinant equals
        delta * c3 * fast_decrease - p(delta)."""
        q = self.q21(delta)
        return (
            q**2
            + delta**2 * self.c3 * self.k6
            + delta**2 * (delta * self.c3 * (self.k3 + self.k7) + self.fast_decrease * self.k8)
            - delta**3 * self.k6 * self.k8
            - delta**4 * self.k8 * (self.k3 + self.k7)
        )

    def condition_holds(self, delta: float) -> bool:
        """Positive definiteness of the coupling matrix via its leading minors.

        The determinant minor is the scalar condition delta * c3 *
        fast_decrease > p(delta) (see ``p_poly``).
        """
        mat = self.coupling_matrix(delta)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        return mat[0, 0] > 0.0 and det > 0.0

    def as_dict(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "k3": self.k3,
            "k4": self.k4,
            "k5": self.k5,
            "k6": self.k6,
            "k7": self.k7,
            "k8": self.k8,
            "c3": self.c3,
            "c4": self.c4,
            "fast_decrease": self.fast_decrease,
            "fast_increment": self.fast_increment,
            "lip_slow": self.lip_slow,
            "lip_h": self.lip_h,
            "lip_G": self.lip_G,
        }


@dataclass
class DeltaBarSearch:
    """Certified timescale bound (None when no positive value qualifies)."""

    value: float | None
    reason: str


def bisect_delta_bar(constants: InterconnectionConstants, delta_caps: list[float] | None = None) -> DeltaBarSearch:
    """Largest timescale below the caps satisfying the coupling conditions.

    Requires both leading minors of the coupling matrix to be positive (see
    ``InterconnectionConstants.condition_holds``); bisects the boundary to
    relative tolerance 1e-6. A ``None`` result is a valid outcome, not an
    error.
    """
    caps = [0.2] if not delta_caps else [float(c) for c in delta_caps]
    cap = min(caps)
    if cap <= 0.0:
        return DeltaBarSearch(None, "delta cap must be positive")
    if constants.c3 <= DECREASE_FLOOR:
        return DeltaBarSearch(None, "reduced-system decrease constant nonpositive")
    if constants.fast_decrease <= DECREASE_FLOOR:
        return DeltaBarSearch(None, "fast-subsystem decrease constant nonpositive")
    if constants.condition_holds(cap):
        return DeltaBarSearch(cap, "cap-limited: condition holds at the cap")
    # Geometric probe downward: for positive decrease constants the condition
    # always holds for small enough delta, but the scale can be extreme.
    lo = cap
    hi = cap
    while lo > cap * 1e-40:
        lo /= 10.0
        if constants.condition_holds(lo):
            break
        hi = lo
    else:
        return DeltaBarSearch(None, f"condition fails for all probed delta down to {cap * 1e-40:.3e}")
    while (hi - lo) / hi > 1e-6:
        mid = 0.5 * (lo + hi)
        if constants.condition_holds(mid):
            lo = mid
        else:
            hi = mid
    return DeltaBarSearch(lo, "bisection boundary")


@dataclass
class ClosedLoopDecreaseResult:
    passed: bool
    delta: float
    samples: int
    worst_margin: float
    witness: np.ndarray | None = None


def closed_loop_decrease_check(
    model: PlantModel,
    spec: OcpSpec,
    solver_config: SolverConfig,
    kappa: float,
    delta: float,
    plan: SamplingPlan,
    count: int | None = None,
) -> ClosedLoopDecreaseResult:
    """Composite value decrease along one interconnected step at a given timescale.

    The composite value is the reduced-problem optimal value at x plus the
    fast composite ||xi - xi_eq(x, u*(x))||^2 + kappa * ||z - z*(x)||^2. The
    prediction horizon stays at the certified spec's value while the
    timescale is substituted, so the optimizer state keeps its dimension.
    """
    rng = np.random.default_rng(plan.seed + 2)
    spec_d = spec.with_delta(delta)
    n, p, m = model.n, model.p, model.m
    nz = spec_d.horizon_N * m
    count = plan.closed_loop_samples if count is None else int(count)
    x_star = model.x_star

    cache: dict[bytes, tuple[np.ndarray, float]] = {}

    def minimizer_and_value(x: np.ndarray) -> tuple[np.ndarray, float]:
        key = x.tobytes()
        if key not in cache:
            sol = solve_optimal(spec_d, model, solver_config, x, np.zeros(nz))
            if not sol.converged:
                raise CertificationError(f"minimizer solve did not converge at state {x}")
            cache[key] = (sol.z, cost(spec_d, model, x, sol.z))
        return cache[key]

    worst = math.inf
    witness = None
    passed = True
    xs = x_star + _ball_samples(rng, n, count, plan.near_eq_ball, plan.near_eq_ball * 0.05)
    xi_errs = _ball_samples(rng, p, count, plan.error_ball, plan.error_min_norm)
    z_errs = _ball_samples(rng, nz, count, plan.error_ball, plan.error_min_norm)
    for x, xi_err, z_err in zip(xs, xi_errs, z_errs):
        zstar, w_val = minimizer_and_value(x)
        u_star_x = first_input(zstar, m)
        z = zstar + z_err
        xi = xi_err + model.equilibrium_map(x, u_star_x)
        value = w_val + float(xi_err @ xi_err) + kappa * float(z_err @ z_err)

        u = first_input(z, m)
        x_next = model.target_map(x, xi, u, delta)
        xi_next = model.extra_map(xi, x, u, delta)
        z_next, _ = iterate_map(spec_d, model, solver_config, x, z)

        zstar_next, w_next = minimizer_and_value(x_next)
        u_star_next = first_input(zstar_next, m)
        xi_err_next = xi_next - model.equilibrium_map(x_next, u_star_next)
        z_err_next = z_next - zstar_next
        value_next = w_next + float(xi_err_next @ xi_err_next) + kappa * float(z_err_next @ z_err_next)

        margin = value - value_next
        if margin < worst:
            worst = margin
            if margin <= 0.0:
                passed = False
                witness = np.concatenate([x, xi_err, [float(np.linalg.norm(z_err))]])
    return ClosedLoopDecreaseResult(
        passed=passed,
        delta=delta,
        samples=count,
        worst_margin=worst,
        witness=witness,
    )


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class CertificateReport:
    """Everything the certification pipeline measured, with per-condition verdicts."""

    model_name: str
    delta: float
    horizon_N: int
    plan: SamplingPlan
    constants: dict[str, Estimate] = field(default_factory=dict)
    fast_bounds: QuadraticBounds | None = None
    optimizer_bounds: QuadraticBounds | None = None
    reduced_bounds: QuadraticBounds | None = None
    kappa: KappaRule | None = None
    boundary: BoundaryLayerResult | None = None
    interconnection: InterconnectionConstants | None = None
    delta_bar: float | None = None
    delta_bar_reason: str = ""
    closed_loop: ClosedLoopDecreaseResult | None = None
    multistart_spread: float = math.nan
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_verdict(self, name: str, passed: bool, detail: str):
        self.verdicts.append(Verdict(name, bool(passed), detail))

    def to_text(self) -> str:
        lines = [
            f"stability certificate: model={self.model_name} delta={self.delta} horizon={self.horizon_N}",
            f"sampling ranges: {self.plan.ranges_dict()}",
            f"safety factor on sampled Lipschitz constants: {self.plan.safety_factor}",
            "",
            "constants:",
        ]
        for name, est in self.constants.items():
            lines.append(f"  {name} = {est.value:.6g} [{est.tag}]")
        for label, bounds in (
            ("fast value bounds (a)", self.fast_bounds),
            ("optimizer value bounds (b)", self.optimizer_bounds),
            ("reduced value bounds (c)", self.reduced_bounds),
        ):
            if bounds is not None:
                lines.append(
                    f"  {label}: lower={bounds.lower:.6g} upper={bounds.upper:.6g} "
                    f"decrease={bounds.decrease:.6g} increment={bounds.increment:.6g}"
                )
                if bounds.increment_centered is not None:
                    lines.append(f"    increment (centered variant) = {bounds.increment_centered:.6g}")
        if self.kappa is not None:
            lines.append(
                f"  composite weight: k1={self.kappa.boundary_k1:.6g} k2={self.kappa.boundary_k2:.6g} "
                f"threshold={self.kappa.kappa_threshold:.6g} kappa={self.kappa.kappa:.6g}"
            )
        if self.boundary is not None:
            b = self.boundary
            lines.append(f"  boundary layer: d1={b.d1:.6g} d2={b.d2:.6g} d3={b.d3:.6g} d4={b.d4:.6g} over {b.samples} samples")
        if self.interconnection is not None:
            ic = self.interconnection
            lines.append(
                "  interconnection: "
                + " ".join(f"k{i}={getattr(ic, f'k{i}'):.6g}" for i in range(1, 9))
            )
        if self.delta_bar is not None:
            lines.append(f"  delta_bar = {self.delta_bar:.6g} ({self.delta_bar_reason})")
        else:
            lines.append(f"  delta_bar = none ({self.delta_bar_reason})")
        if not math.isnan(self.multistart_spread):
            lines.append(f"  multistart minimizer spread = {self.multistart_spread:.3g}")
        lines.append("")
        lines.extend(v.line() for v in self.verdicts)
        lines.append("")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_name,
            "delta": self.delta,
            "horizon_N": self.horizon_N,
            "ranges": {k: list(v) if isinstance(v, tuple) else v for k, v in self.plan.ranges_dict().items()},
            "safety_factor": self.plan.safety_factor,
            "constants": {k: {"value": e.value, "tag": e.tag, "samples": e.samples} for k, e in self.constants.items()},
            "fast_bounds": self.fast_bounds.as_dict() if self.fast_bounds else None,
            "optimizer_bounds": self.optimizer_bounds.as_dict() if self.optimizer_bounds else None,
            "reduced_bounds": self.reduced_bounds.as_dict() if self.reduced_bounds else None,
            "kappa": None
            if self.kappa is None
            else {
                "boundary_k1": self.kappa.boundary_k1,
                "boundary_k2": self.kappa.boundary_k2,
                "threshold": self.kappa.kappa_threshold,
                "kappa": self.kappa.kappa,
            },
            "boundary": self.boundary.as_dict() if self.boundary else None,
            "interconnection": self.interconnection.as_dict() if self.interconnection else None,
            "delta_bar": self.delta_bar,
            "delta_bar_reason": self.delta_bar_reason,
            "closed_loop": None
            if self.closed_loop is None
            else {
                "passed": self.closed_loop.passed,
                "delta": self.closed_loop.delta,
                "samples": self.closed_loop.samples,
                "worst_margin": self.closed_loop.worst_margin,
            },
            "multistart_spread": None if math.isnan(self.multistart_spread) else self.multistart_spread,
            "verdicts": [{"name": v.name, "passed": v.passed, "detail": v.detail} for v in self.verdicts],
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _state_box(model: PlantModel, plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
    if model.n == 2:
        lo = np.array([plan.theta_range[0], plan.omega_range[0]])
        hi = np.array([plan.theta_range[1], plan.omega_range[1]])
    else:
        lo = np.full(model.n, -plan.state_ball * 4)
        hi = np.full(model.n, plan.state_ball * 4)
    return lo, hi


def full_certificate(
    model: PlantModel,
    spec: OcpSpec,
    solver_config: SolverConfig,
    plan: SamplingPlan | None = None,
    check_closed_loop: bool = True,
) -> CertificateReport:
    """Run the whole certification chain and report every constant and verdict.

    Chains: Lipschitz estimation, quadratic bounds for the fast / optimizer /
    reduced value functions, the composite-weight rule, the boundary-layer
    decrease check, interconnection assembly, the timescale bisection, and
    (optionally) the sampled closed-loop decrease at half the certified bound.
    Failures propagate into the report's verdicts; the pipeline never aborts
    silently.
    """
    plan = plan or SamplingPlan()
    rng = np.random.default_rng(plan.seed)
    report = CertificateReport(model_name=model.name, delta=spec.delta, horizon_N=spec.horizon_N, plan=plan)
    n, p, m = model.n, model.p, model.m
    nz = spec.horizon_N * m
    delta = spec.delta
    x_star = model.x_star
    state_lo, state_hi = _state_box(model, plan)
    u_lo = np.full(m, plan.u_range[0])
    u_hi = np.full(m, plan.u_range[1])
    xi_lo = np.full(p, plan.xi_range[0])
    xi_hi = np.full(p, plan.xi_range[1])

    # 1) equilibrium identity of the fast map
    pts = _uniform_stream(rng, np.concatenate([state_lo, u_lo]), np.concatenate([state_hi, u_hi]), plan.equilibrium_samples)
    deltas_eq = 10.0 ** rng.uniform(-3, math.log10(plan.delta_cap), plan.equilibrium_samples)
    worst_res = 0.0
    for row, d in zip(pts, deltas_eq):
        x, u = row[:n], row[n:]
        xi_eq = model.equilibrium_map(x, u)
        res = float(np.linalg.norm(model.extra_map(xi_eq, x, u, d) - xi_eq))
        worst_res = max(worst_res, res)
    report.add_verdict(
        "equilibrium-identity",
        worst_res <= 1e-12,
        f"max |g(xi_eq,x,u,delta) - xi_eq| = {worst_res:.3e} over {plan.equilibrium_samples} samples (tol 1e-12)",
    )

    # 2) Lipschitz constants of the plant maps
    def slow_coupling_ratio() -> float:
        worst = 0.0
        pairs = _uniform_stream(
            rng,
            np.concatenate([state_lo, xi_lo, u_lo, xi_lo, u_lo]),
            np.concatenate([state_hi, xi_hi, u_hi, xi_hi, u_hi]),
            plan.lipschitz_pairs,
        )
        for row in pairs:
            x = row[:n]
            xi_a, u_a = row[n : n + p], row[n + p : n + p + m]
            xi_b, u_b = row[n + p + m : n + 2 * p + m], row[n + 2 * p + m :]
            gap = float(np.linalg.norm(xi_a - xi_b)) + float(np.linalg.norm(u_a - u_b))
            if gap < 1e-12:
                continue
            diff = float(
                np.linalg.norm(model.target_map(x, xi_a, u_a, delta) - model.target_map(x, xi_b, u_b, delta))
            )
            worst = max(worst, diff / (delta * gap))
        return worst

    sampled_slow = slow_coupling_ratio()
    lip_fast_in = Estimate(model.lip_target_fast, ANALYTIC) if model.lip_target_fast is not None else Estimate(sampled_slow, SAMPLED, plan.lipschitz_pairs)
    report.constants["lip_slow_coupling"] = lip_fast_in
    slow_ok = model.lip_target_fast is None or sampled_slow <= model.lip_target_fast * (1 + 1e-9)
    report.add_verdict(
        "slow-coupling",
        slow_ok,
        f"sampled coupling ratio {sampled_slow:.6g} vs analytic {model.lip_target_fast}",
    )

    report.constants["lip_extra"] = (
        Estimate(model.lip_extra, ANALYTIC)
        if model.lip_extra is not None
        else estimate_lipschitz(
            lambda v: model.extra_map(v[:p], v[p : p + n], v[p + n :], delta),
            np.concatenate([xi_lo, state_lo, u_lo]),
            np.concatenate([xi_hi, state_hi, u_hi]),
            plan.lipschitz_pairs,
            seed=plan.seed + 3,
        )
    )
    report.constants["lip_equilibrium"] = (
        Estimate(model.lip_equilibrium, ANALYTIC)
        if model.lip_equilibrium is not None
        else estimate_lipschitz(
            lambda v: model.equilibrium_map(v[:n], v[n:]),
            np.concatenate([state_lo, u_lo]),
            np.concatenate([state_hi, u_hi]),
            plan.lipschitz_pairs,
            seed=plan.seed + 4,
        )
    )

    # 3) fast value function bounds (a-constants)
    fast_pts = _uniform_stream(rng, np.concatenate([state_lo, u_lo]), np.concatenate([state_hi, u_hi]), plan.fast_samples)
    xi_errs = _ball_samples(rng, p, plan.fast_samples, plan.error_ball * 2.0, 1e-3)
    stepped = np.empty_like(xi_errs)
    for i, (row, e) in enumerate(zip(fast_pts, xi_errs)):
        x, u = row[:n], row[n:]
        xi_eq = model.equilibrium_map(x, u)
        stepped[i] = model.extra_map(e + xi_eq, x, u, delta) - xi_eq
    fast_bounds = quadratic_bounds(np.sum(xi_errs**2, axis=1), np.sum(stepped**2, axis=1), xi_errs)
    report.fast_bounds = fast_bounds
    report.add_verdict(
        "fast-error-decrease",
        fast_bounds.ok,
        f"a3 = {fast_bounds.decrease:.6g} over {fast_bounds.samples} samples"
        + ("" if fast_bounds.ok else f"; witness error {fast_bounds.witness}"),
    )

    # 4) sampled states with solved minimizers (shared by the remaining stages)
    states = _ball_samples(rng, n, plan.n_states, plan.state_ball)
    zstars: list[np.ndarray] = []
    solves_ok = True
    for x in states:
        sol = solve_optimal(spec, model, solver_config, x, np.zeros(nz))
        solves_ok &= sol.converged
        zstars.append(sol.z)
    if not solves_ok:
        report.add_verdict("minimizer-solves", False, "solve-to-tolerance failed at a sampled state")

    # optimizer value function bounds (b-constants), frozen state per pair
    z_samples = []
    z_stepped = []
    for x, zstar in zip(states, zstars):
        errs = _ball_samples(rng, nz, plan.optimizer_pairs_per_state, plan.error_ball, plan.error_min_norm)
        for e in errs:
            z_next, _ = iterate_map(spec, model, solver_config, x, zstar + e)
            z_samples.append(e)
            z_stepped.append(z_next - zstar)
    z_samples, z_stepped = np.array(z_samples), np.array(z_stepped)
    optimizer_bounds = quadratic_bounds(np.sum(z_samples**2, axis=1), np.sum(z_stepped**2, axis=1), z_samples)
    report.optimizer_bounds = optimizer_bounds
    report.add_verdict(
        "optimizer-decrease",
        optimizer_bounds.ok,
        f"b3 = {optimizer_bounds.decrease:.6g} over {optimizer_bounds.samples} frozen-state pairs",
    )

    # Lipschitz constants of the iteration map and minimizer map
    lip_T = 0.0
    lip_G = 0.0
    pair_count = max(1, plan.map_pairs // max(1, len(states)))
    for x, zstar in zip(states, zstars):
        for _ in range(pair_count):
            za = zstar + _ball_samples(rng, nz, 1, plan.error_ball, 1e-6)[0]
            zb = zstar + _ball_samples(rng, nz, 1, plan.error_ball, 1e-6)[0]
            ta, _ = iterate_map(spec, model, solver_config, x, za)
            tb, _ = iterate_map(spec, model, solver_config, x, zb)
            gap = float(np.linalg.norm(za - zb))
            if gap > 1e-12:
                lip_T = max(lip_T, float(np.linalg.norm(ta - tb)) / gap)
            # stacked fast map (extra state update, optimizer update)
            xia = _ball_samples(rng, p, 1, plan.error_ball)[0] + model.equilibrium_map(x, first_input(za, m))
            xib = _ball_samples(rng, p, 1, plan.error_ball)[0] + model.equilibrium_map(x, first_input(zb, m))
            ga = model.extra_map(xia, x, first_input(za, m), delta)
            gb = model.extra_map(xib, x, first_input(zb, m), delta)
            wgap = math.sqrt(float(np.linalg.norm(xia - xib)) ** 2 + gap**2)
            if wgap > 1e-12:
                gdiff = math.sqrt(float(np.linalg.norm(ga - gb)) ** 2 + float(np.linalg.norm(ta - tb)) ** 2)
                lip_G = max(lip_G, gdiff / wgap)
    report.constants["lip_T"] = Estimate(lip_T, SAMPLED, plan.map_pairs)
    report.constants["lip_G"] = Estimate(lip_G, SAMPLED, plan.map_pairs)

    # multistart uniqueness probe
    spread = 0.0
    box_lo, box_hi = spec.input_box
    for x, zstar in zip(states[: plan.multistart_states], zstars[: plan.multistart_states]):
        finals = [zstar]
        for _ in range(plan.multistart_points - 1):
            z0 = _uniform_stream(rng, np.tile(box_lo, spec.horizon_N), np.tile(box_hi, spec.horizon_N), 1)[0]
            sol = solve_optimal(spec, model, solver_config, x, z0)
            finals.append(sol.z)
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                spread = max(spread, float(np.linalg.norm(finals[i] - finals[j])))
    report.multistart_spread = spread
    report.add_verdict(
        "minimizer-uniqueness",
        spread <= 1e-4,
        f"multistart spread {spread:.3e} over {plan.multistart_states} states x {plan.multistart_points} starts",
    )

    # 5) composite weight and boundary-layer decrease
    a3, a4 = fast_bounds.decrease, 1.0  # squared-norm candidate: increment coefficient is exactly 1
    b3 = optimizer_bounds.decrease
    lip_xi = report.constants["lip_equilibrium"].inflated(plan.safety_factor)
    lip_g = report.constants["lip_extra"].inflated(plan.safety_factor)
    lip_T_used = report.constants["lip_T"].inflated(plan.safety_factor)
    try:
        rule = kappa_rule(a3, a4, b3, lip_xi, lip_g, lip_T_used)
    except CertificationError as exc:
        report.add_verdict("composite-weight", False, str(exc))
        report.delta_bar_reason = str(exc)
        return report
    report.kappa = rule

    boundary = boundary_layer_check(model, spec, solver_config, rule.kappa, plan, states=states, zstars=zstars)
    report.boundary = boundary
    report.add_verdict(
        "boundary-layer-decrease",
        boundary.passed,
        f"d3 = {boundary.d3:.6g} with kappa = {rule.kappa:.6g} over {boundary.samples} samples",
    )

    # 6) reduced value function bounds (c-constants) and minimizer Lipschitz
    value_states = _ball_samples(rng, n, plan.n_value_states, plan.state_ball, plan.state_ball * 0.02)
    values = np.empty(plan.n_value_states)
    zstar_values: list[np.ndarray] = []
    values_next = np.empty(plan.n_value_states)
    single_int_ratios = np.empty(plan.n_value_states)
    warm = np.zeros(nz)
    ok_solves = True
    for i, x in enumerate(value_states):
        sol = solve_optimal(spec, model, solver_config, x, warm)
        ok_solves &= sol.converged
        zstar_values.append(sol.z)
        values[i] = cost(spec, model, x, sol.z)
        u0 = first_input(sol.z, m)
        x_next = model.reduced_map(x, u0, delta)
        sol_next = solve_optimal(spec, model, solver_config, x_next, sol.z)
        ok_solves &= sol_next.converged
        values_next[i] = cost(spec, model, x_next, sol_next.z)
        err = float(np.linalg.norm(x - x_star))
        single_int_ratios[i] = float(np.linalg.norm(x_next - x)) / (delta * err) if err > 0 else 0.0
    if not ok_solves:
        report.add_verdict("reduced-value-solves", False, "value-function solves missed tolerance")

    reduced_bounds = quadratic_bounds(values, values_next, value_states, decrease_divisor=delta, center=x_star)
    report.reduced_bounds = reduced_bounds
    report.add_verdict(
        "reduced-value-decrease",
        reduced_bounds.ok,
        f"c3 = {reduced_bounds.decrease:.6g}, c1 = {reduced_bounds.lower:.6g}, c2 = {reduced_bounds.upper:.6g} "
        f"over {plan.n_value_states} states",
    )

    # minimizer map Lipschitz constant by secant slopes across sampled states
    lip_zstar = 0.0
    for i in range(plan.n_value_states - 1):
        gap = float(np.linalg.norm(value_states[i] - value_states[i + 1]))
        if gap > 1e-9:
            lip_zstar = max(lip_zstar, float(np.linalg.norm(zstar_values[i] - zstar_values[i + 1])) / gap)
    report.constants["lip_zstar"] = Estimate(lip_zstar, SAMPLED, plan.n_value_states)

    # single-integrator-style bound on the slow drift near the equilibrium
    overall_ratio = float(np.max(single_int_ratios))
    err_norm2 = np.sum((value_states - x_star) ** 2, axis=1)
    small = err_norm2 <= np.quantile(err_norm2, 0.1)
    near_ratio = float(np.max(single_int_ratios[small])) if np.any(small) else overall_ratio
    report.constants["single_integrator_ratio"] = Estimate(overall_ratio, SAMPLED, plan.n_value_states)
    report.add_verdict(
        "single-integrator-bound",
        near_ratio <= 2.0 * overall_ratio + 1e-9,
        f"drift ratio max {overall_ratio:.6g}, near-equilibrium max {near_ratio:.6g} (no blow-up toward x*)",
    )

    # 7) interconnection constants and the certified timescale bound
    lip_zstar_used = Estimate(lip_zstar, SAMPLED).inflated(plan.safety_factor)
    lip_h = lip_xi * (1.0 + lip_zstar_used) + lip_zstar_used
    report.constants["lip_h"] = Estimate(lip_h, SAMPLED)
    lip_slow_generic = max(
        lip_fast_in.inflated(plan.safety_factor),
        Estimate(overall_ratio, SAMPLED).inflated(plan.safety_factor),
    )
    report.constants["lip_slow_generic"] = Estimate(lip_slow_generic, SAMPLED)
    c4 = max(reduced_bounds.increment, reduced_bounds.increment_centered)
    c4_used = Estimate(c4, SAMPLED).inflated(plan.safety_factor)
    d4_analytic = max(1.0, rule.kappa)  # composite of squared norms: increment is max(1, kappa)
    interconnection = InterconnectionConstants(
        c3=reduced_bounds.decrease,
        c4=c4_used,
        fast_decrease=boundary.d3,
        fast_increment=d4_analytic,
        lip_slow=lip_slow_generic,
        lip_h=lip_h,
        lip_G=report.constants["lip_G"].inflated(plan.safety_factor),
    )
    report.interconnection = interconnection
    search = bisect_delta_bar(interconnection, [plan.delta_cap])
    report.delta_bar = search.value
    report.delta_bar_reason = search.reason
    report.add_verdict(
        "coupling-condition",
        search.value is not None and search.value > 0.0,
        f"delta_bar = {search.value if search.value is not None else 'none'} ({search.reason})",
    )

    # 8) closed-loop composite decrease at half the certified bound
    if check_closed_loop and search.value is not None and boundary.passed:
        cl = closed_loop_decrease_check(
            model, spec, solver_config, rule.kappa, search.value / 2.0, plan
        )
        report.closed_loop = cl
        report.add_verdict(
            "closed-loop-decrease",
            cl.passed,
            f"composite value decreased on {cl.samples} sampled steps at delta = {cl.delta:.3e} "
            f"(worst margin {cl.worst_margin:.3e})",
        )
    return report
