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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .plant import PlantModel, _check_range
from .ocp import (
    OcpSpec,
    SolverConfig,
    _dot,
    _norms,
    cost,  # unused here, but the benchmark tracer wraps redmpc.certify.cost by name
    first_input,
    iterate_map,
    solve_optimal,
    warm_start_shift,
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


class _Record:
    """A record: ``as_dict`` holds its dataclass fields in declaration order, as plain values."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """``value`` with every record, dict and list inside it written as plain dicts and lists."""
    if isinstance(value, _Record):
        return value.as_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return [_plain(item) for item in value] if isinstance(value, list) else value


def _text(value) -> str:
    """A certificate.json value as certificate.txt prints it: records as ``field=value`` pairs, floats ``.6g``."""
    if isinstance(value, dict):
        return " ".join(f"{key}={_text(item)}" for key, item in value.items())
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_text, value)) + "]"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class SamplingPlan(_Record):
    """Sample counts, radii, and the safety factor applied to sampled constants.

    The model supplies the state and extra-state ranges (``PlantModel.state_box``
    and ``extra_box``) and the problem the input ranges (``OcpSpec.input_box``).
    ``state_ball`` is the radius of the ball about x* from which every
    optimizer-side stage, the closed-loop check included, draws its slow
    states; error samples live in balls of radius ``error_ball`` with norms
    bounded away from zero by ``error_min_norm``. Every field is a
    ``[certify]`` key, in this order.
    """

    seed: int = 0
    lipschitz_pairs: int = 2000
    equilibrium_samples: int = 10_000
    fast_samples: int = 2000
    n_states: int = 25
    optimizer_pairs_per_state: int = 44
    boundary_samples: int = 10_000
    n_value_states: int = 160
    map_pairs: int = 200
    closed_loop_samples: int = 1000
    multistart_states: int = 4
    multistart_points: int = 8
    safety_factor: float = 1.5
    delta_cap: float = 0.2
    state_ball: float = 1.0
    error_ball: float = 1.0
    error_min_norm: float = 0.05

    def __post_init__(self):
        # Every count needs one sample. One start per state only finds its own
        # minimizer (spread 0 proves nothing); a safety factor below 1 deflates
        # the sampled Lipschitz bounds.
        counts = [f.name for f in fields(self) if type(f.default) is int]
        least = dict.fromkeys(counts, 1) | {"seed": 0, "multistart_points": 2, "safety_factor": 1}
        for name, minimum in least.items():
            _check_range(name, getattr(self, name), minimum, closed=True)
        for name in ("state_ball", "error_ball", "delta_cap"):
            _check_range(name, getattr(self, name))
        _check_range("error_min_norm", self.error_min_norm, 0.0, self.error_ball, closed=True)

    def box(self, model: PlantModel, spec: OcpSpec, *parts: str) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the sampled box over ``parts``, concatenated in order.

        Each part is "x" (plant state, over the model's ``state_box``), "xi"
        (extra state, over its ``extra_box``) or "u" (input, over the problem's ``input_box``).
        """
        ranges = {"x": model.state_box(self.state_ball), "xi": model.extra_box(), "u": np.transpose(spec.input_box)}
        lo, hi = np.array([r for part in parts for r in ranges[part]], dtype=float).T
        return lo, hi


@dataclass
class Estimate(_Record):
    """A constant with its provenance tag; sampled values are lower bounds."""

    value: float
    tag: str = SAMPLED
    samples: int = 0

    def inflated(self, factor: float) -> float:
        """Safety-inflated value: analytic constants are used as-is."""
        return self.value if self.tag == ANALYTIC else self.value * factor


@dataclass
class QuadraticBounds(_Record):
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
    increment_centered: float | None = None
    witness: np.ndarray | None = None
    witness_index: int | None = None


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
    estimate. ``fn`` maps a ``(count, dim)`` array of points to one row (or
    one number) per point; it is called twice, once per end of the pairs. A
    degenerate (zero-volume) box is rejected.
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
    a, b = points[0::2], points[1::2]
    rises = _norms(np.reshape(fn(a), (count, -1)) - np.reshape(fn(b), (count, -1)))
    gaps = _norms(a - b)
    return Estimate(value=_max_pair_quotient(rises, gaps, gaps, 1e-12), tag=SAMPLED, samples=count)


def _max_pair_quotient(rises: np.ndarray, gaps: np.ndarray, scale: np.ndarray, min_gap: float) -> float:
    """Max of rises / scale over pairs of samples, one entry per pair.

    A pair counts when its gap is at least ``min_gap`` and its scale is positive; none gives 0.
    """
    keep = (gaps >= min_gap) & (scale > 0.0)
    return float(np.max(rises[keep] / scale[keep], initial=0.0))


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

    def increment(norms: np.ndarray) -> float:
        return _max_pair_quotient(dv, gaps, gaps * (norms[:-1] + norms[1:]), 1e-12)

    return QuadraticBounds(
        lower=float(np.min(ratios)),
        upper=float(np.max(ratios)),
        decrease=decrease,
        increment=increment(np.linalg.norm(samples, axis=1)),
        samples=samples.shape[0],
        ok=ok,
        witness=None if ok else samples[k_min].copy(),
        witness_index=None if ok else k_min,
        increment_centered=increment(np.sqrt(norms2)),
    )


@dataclass
class KappaRule(_Record):
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
class BoundaryLayerResult(_Record):
    """Outcome of the sampled fast-subsystem decrease check."""

    passed: bool
    d1: float
    d2: float
    d3: float
    d4: float
    kappa: float
    samples: int
    witness: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (x, xi_err, z_err)


def boundary_layer_check(
    model: PlantModel,
    spec: OcpSpec,
    kappa: float,
    states: np.ndarray,
    zstars: np.ndarray,
    xi_errs: np.ndarray,
    z_errs: np.ndarray,
    z_next: np.ndarray,
) -> BoundaryLayerResult:
    """One-step decrease of the composite fast value function, frozen slow state.

    At each slow state ``states[k]``, with its minimizer ``zstars[k]``, each
    error sample (``xi_errs[k][i]``, ``z_errs[k][i]``) places the fast pair
    (extra state, optimizer state) off its equilibrium; the pair is stepped
    once with the slow state frozen and the composite value ||xi_err||^2 +
    kappa * ||z_err||^2 must strictly decrease. ``xi_errs`` has shape
    (states, samples, p) and ``z_errs`` (states, samples, N*m). The
    optimizer's step is given: ``z_next`` holds, laid out like ``z_errs``,
    the ``iterate_map`` image of each ``zstars[k] + z_errs[k][i]`` at
    ``states[k]``; the extra state is stepped here. d1..d4 are the quadratic
    bounds of that composite over the stacked errors [xi_err, z_err]; any
    violation fails with the witness (x, xi_err, z_err).
    """
    m, p = model.m, model.p
    per_state = np.shape(xi_errs)[1]
    # one row per sample: its frozen slow state, minimizer, errors and optimizer step
    x = np.repeat(states, per_state, axis=0)
    zstar = np.repeat(zstars, per_state, axis=0)
    xi_err = np.reshape(xi_errs, (-1, p))
    z_err = np.reshape(z_errs, (len(x), -1))
    z_next = np.reshape(z_next, z_err.shape)
    u = first_input(zstar + z_err, m)
    xi = xi_err + model.equilibrium_map(x, u)
    xi_next = model.extra_map(xi, x, u, spec.delta)
    xi_err_next = xi_next - model.equilibrium_map(x, first_input(z_next, m))
    z_err_next = z_next - zstar
    values = _dot(xi_err, xi_err) + kappa * _dot(z_err, z_err)
    values_next = _dot(xi_err_next, xi_err_next) + kappa * _dot(z_err_next, z_err_next)

    bounds = quadratic_bounds(values, values_next, np.concatenate([xi_err, z_err], axis=1))
    witness = None
    if not bounds.ok:
        k = bounds.witness_index
        witness = (x[k].copy(), xi_err[k].copy(), z_err[k].copy())
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
class InterconnectionConstants(_Record):
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
        inputs = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        missing = [name for name, value in inputs.items() if value is None or not math.isfinite(value)]
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


@dataclass
class DeltaBarSearch:
    """Certified timescale bound (None when no positive value qualifies)."""

    value: float | None
    reason: str


def bisect_delta_bar(constants: InterconnectionConstants, cap: float) -> DeltaBarSearch:
    """Largest timescale up to ``cap`` satisfying the coupling conditions.

    Requires both leading minors of the coupling matrix to be positive (see
    ``InterconnectionConstants.condition_holds``); bisects the boundary to
    relative tolerance 1e-6. A ``None`` result is a valid outcome, not an
    error.
    """
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
class ClosedLoopDecreaseResult(_Record):
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
) -> ClosedLoopDecreaseResult:
    """Composite value decrease along one interconnected step at a given timescale.

    The composite value is the reduced-problem optimal value at x plus the
    fast composite ||xi - xi_eq(x, u*(x))||^2 + kappa * ||z - z*(x)||^2. The
    prediction horizon stays at the certified spec's value while the
    timescale is substituted, so the optimizer state keeps its dimension.
    The plan sets the sample count (``closed_loop_samples``), the state ball
    about x* (``state_ball``) and the error balls. The minimizers at the
    sampled states, and then at their successors, come from one batched
    cold-started solve each.

    The optimizer update differs from ``simulate``'s: here ``iterate_map``
    runs at the old state x from the unshifted z, there at the new state
    from ``warm_start_shift(z)``. With this update the simulated loop stops
    converging at delta 0.1 and 0.2, so only this check can change to match.
    Raises ``CertificationError`` when a minimizer solve misses its tolerance.
    """
    rng = np.random.default_rng(plan.seed + 2)
    spec_d = replace(spec, delta=delta)
    n, p, m = model.n, model.p, model.m
    nz = spec_d.horizon_N * m
    count = plan.closed_loop_samples

    def minimizers_and_values(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sol = solve_optimal(spec_d, model, solver_config, xs, np.zeros((len(xs), nz)))
        if not sol.converged:
            x = xs[np.argmax(sol.projected_gradient_norm > solver_config.optimal_tol)]
            raise CertificationError(f"minimizer solve did not converge at state {x}")
        return sol.z, sol.value

    xs = model.x_star + _ball_samples(rng, n, count, plan.state_ball, plan.state_ball * 0.05)
    xi_errs = _ball_samples(rng, p, count, plan.error_ball, plan.error_min_norm)
    z_errs = _ball_samples(rng, nz, count, plan.error_ball, plan.error_min_norm)
    zstar, w_val = minimizers_and_values(xs)
    z = zstar + z_errs
    xi = xi_errs + model.equilibrium_map(xs, first_input(zstar, m))
    value = w_val + _dot(xi_errs, xi_errs) + kappa * _dot(z_errs, z_errs)

    u = first_input(z, m)
    x_next = model.target_map(xs, xi, u, delta)
    xi_next = model.extra_map(xi, xs, u, delta)
    z_next, _, _ = iterate_map(spec_d, model, solver_config, xs, z)

    zstar_next, w_next = minimizers_and_values(x_next)
    xi_err_next = xi_next - model.equilibrium_map(x_next, first_input(zstar_next, m))
    z_err_next = z_next - zstar_next
    value_next = w_next + _dot(xi_err_next, xi_err_next) + kappa * _dot(z_err_next, z_err_next)

    margins = value - value_next
    k = int(np.argmin(margins))  # the first sample with the smallest margin
    passed = bool(margins[k] > 0.0)
    return ClosedLoopDecreaseResult(
        passed=passed,
        delta=delta,
        samples=count,
        worst_margin=float(margins[k]),
        witness=None if passed else np.concatenate([xs[k], xi_errs[k], _norms(z_errs[k])[None]]),
    )


@dataclass
class Verdict(_Record):
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class CertificateReport(_Record):
    """Everything the certification pipeline measured, with per-condition verdicts.

    ``plan`` is the sampling plan, ``state_box`` and ``extra_box`` the model's (extra-)state ranges
    under it and ``input_box`` the problem's input ranges, one ``[lo, hi]`` per component.
    """

    model: str
    delta: float
    horizon_N: int
    plan: SamplingPlan
    state_box: list[tuple[float, float]]
    extra_box: list[tuple[float, float]]
    input_box: list[list[float]]
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
    multistart_spread: float | None = None
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_text(self) -> str:
        """``to_json_dict`` one entry a line and one constant a line, then the verdicts."""
        lines = ["stability certificate"]
        for key, value in self.to_json_dict().items():
            if key == "constants":
                lines += ["constants:"] + [f"  {name}: {_text(est)}" for name, est in value.items()]
            elif key not in ("verdicts", "overall_pass"):
                lines.append(f"{key}: {_text(value)}")
        lines += [""] + [v.line() for v in self.verdicts] + ["", f"overall: {'PASS' if self.overall_pass else 'FAIL'}"]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return self.as_dict() | {"overall_pass": self.overall_pass}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, default=np.ndarray.tolist)


# Certification stages, run in order by full_certificate. Each takes its inputs
# explicitly and returns ``(result, verdicts)``. ``model``, ``spec``,
# ``solver_config`` and ``plan`` are full_certificate's arguments; ``rng`` is the
# main sample stream, drawn from by the plant stages and then, for every later
# stage, by ``_minimizer_solves``; ``states`` and ``zstars`` are the sampled slow
# states and their minimizers; ``constants`` maps names to the ``Estimate``s
# found so far. The stages that step the optimizer at frozen states take their
# step from ``_frozen_step``.


def _equilibrium_identity(model, spec, plan, rng):
    """The fast map fixes its equilibrium: g(xi_eq(x, u), x, u, delta) = xi_eq(x, u)."""
    n = model.n
    pts = _uniform_stream(rng, *plan.box(model, spec, "x", "u"), plan.equilibrium_samples)
    deltas = 10.0 ** rng.uniform(-3, math.log10(plan.delta_cap), plan.equilibrium_samples)
    x, u = pts[:, :n], pts[:, n:]
    xi_eq = model.equilibrium_map(x, u)
    worst = float(np.max(_norms(model.extra_map(xi_eq, x, u, deltas) - xi_eq), initial=0.0))
    detail = f"max |g(xi_eq,x,u,delta) - xi_eq| = {worst:.3e} over {plan.equilibrium_samples} samples (tol 1e-12)"
    return worst, [Verdict("equilibrium-identity", worst <= 1e-12, detail)]


def _plant_lipschitz(model, spec, plan, rng):
    """Lipschitz constants of the plant maps: slow coupling, extra map, equilibrium map."""
    n, p, m, delta = model.n, model.p, model.m, spec.delta
    # max |f(x, xi_a, u_a) - f(x, xi_b, u_b)| / (delta (|xi_a - xi_b| + |u_a - u_b|))
    rows = _uniform_stream(rng, *plan.box(model, spec, "x", "xi", "u", "xi", "u"), plan.lipschitz_pairs)
    x = rows[:, :n]
    xi_a, u_a = rows[:, n : n + p], rows[:, n + p : n + p + m]
    xi_b, u_b = rows[:, n + p + m : n + 2 * p + m], rows[:, n + 2 * p + m :]
    gaps = _norms(xi_a - xi_b) + _norms(u_a - u_b)
    diffs = _norms(model.target_map(x, xi_a, u_a, delta) - model.target_map(x, xi_b, u_b, delta))
    sampled = _max_pair_quotient(diffs, gaps, delta * gaps, 1e-12)
    analytic = model.lip_target_fast
    constants = {
        "lip_slow_coupling": Estimate(analytic, ANALYTIC)
        if analytic is not None
        else Estimate(sampled, SAMPLED, plan.lipschitz_pairs),
        "lip_extra": estimate_lipschitz(
            lambda v: model.extra_map(v[:, :p], v[:, p : p + n], v[:, p + n :], delta),
            *plan.box(model, spec, "xi", "x", "u"),
            plan.lipschitz_pairs,
            seed=plan.seed + 3,
            analytic=model.lip_extra,
        ),
        "lip_equilibrium": estimate_lipschitz(
            lambda v: model.equilibrium_map(v[:, :n], v[:, n:]),
            *plan.box(model, spec, "x", "u"),
            plan.lipschitz_pairs,
            seed=plan.seed + 4,
            analytic=model.lip_equilibrium,
        ),
    }
    if analytic is None:  # nothing to cross-check the sampled ratio against
        return constants, []
    detail = f"sampled coupling ratio {sampled:.6g} vs analytic {analytic}"
    return constants, [Verdict("slow-coupling", sampled <= analytic * (1 + 1e-9), detail)]


def _fast_bounds(model, spec, plan, rng):
    """a-constants: quadratic bounds of the fast error ||xi - xi_eq(x, u)||^2 at frozen (x, u)."""
    n = model.n
    pts = _uniform_stream(rng, *plan.box(model, spec, "x", "u"), plan.fast_samples)
    errors = _ball_samples(rng, model.p, plan.fast_samples, plan.error_ball * 2.0, 1e-3)
    x, u = pts[:, :n], pts[:, n:]
    xi_eq = model.equilibrium_map(x, u)
    stepped = model.extra_map(errors + xi_eq, x, u, spec.delta) - xi_eq
    bounds = quadratic_bounds(np.sum(errors**2, axis=1), np.sum(stepped**2, axis=1), errors)
    detail = f"a3 = {bounds.decrease:.6g} over {bounds.samples} samples"
    return bounds, [Verdict("fast-error-decrease", bounds.ok, detail)]


def _minimizer_solves(model, spec, solver_config, plan, rng):
    """Every sample the later stages take from the main stream, and one batched cold solve at them.

    Draws, in stream order, the slow states, the optimizer-bound errors, the
    map-pair errors, the multistart starts and the value-function states, the
    slow and value states in the ``state_ball`` ball about x*. Those start
    from zeros and the multistart lanes from their random starts; each lane
    equals its lone solve, so every stage sees what its own solve would give.
    Returns the slow states and their minimizers, the optimizer-bound errors,
    the map-pair errors (dz_a, dz_b, dxi_a, dxi_b per pair), the multistart
    solves per probed state, and the value states with their minimizers,
    projected-gradient norms and optimal values.
    """
    n, p, nz = model.n, model.p, spec.horizon_N * model.m
    states = model.x_star + _ball_samples(rng, n, plan.n_states, plan.state_ball)
    pairs = plan.optimizer_pairs_per_state
    optimizer_errors = np.concatenate(
        [_ball_samples(rng, nz, pairs, plan.error_ball, plan.error_min_norm) for _ in states]
    )

    def error(dim: int, min_norm: float = 0.0) -> np.ndarray:
        return _ball_samples(rng, dim, 1, plan.error_ball, min_norm)[0]

    # per pair, in stream order: the two optimizer errors, then the two extra-state errors
    map_count = len(states) * max(1, plan.map_pairs // len(states))
    draws = [(error(nz, 1e-6), error(nz, 1e-6), error(p), error(p)) for _ in range(map_count)]
    map_errors = tuple(np.array(side) for side in zip(*draws))
    box_lo, box_hi = spec._sequence_box
    probed, starts = min(plan.multistart_states, len(states)), plan.multistart_points - 1
    z_starts = _uniform_stream(rng, box_lo, box_hi, probed * starts)
    value_states = model.x_star + _ball_samples(rng, n, plan.n_value_states, plan.state_ball, plan.state_ball * 0.02)

    x0 = np.concatenate([states, np.repeat(states[:probed], starts, axis=0), value_states])
    z0 = np.concatenate([np.zeros((len(states), nz)), z_starts, np.zeros((len(value_states), nz))])
    sol = solve_optimal(spec, model, solver_config, x0, z0)
    cuts = [len(states), len(states) + len(z_starts)]
    zstars, finals, value_zstars = np.split(sol.z, cuts)
    pg, _, value_pg = np.split(sol.projected_gradient_norm, cuts)
    value_values = np.split(sol.value, cuts)[2]
    verdicts = []
    if not np.all(pg <= solver_config.optimal_tol):
        verdicts.append(Verdict("minimizer-solves", False, "solve-to-tolerance failed at a sampled state"))
    finals = finals.reshape(probed, starts, nz)
    at_values = (value_states, value_zstars, value_pg, value_values)
    return (states, zstars, optimizer_errors, map_errors, finals, at_values), verdicts


def _frozen_step(model, spec, solver_config, plan, states, zstars, optimizer_errors, map_errors):
    """One optimizer step at the frozen slow states, shared by the three stages that take one.

    Draws the boundary-layer error samples from their own stream, seeded
    ``plan.seed + 1``: per state, the extra-state errors and then the
    optimizer errors. Then steps, in one batched ``iterate_map`` call at
    ``spec.delta``, the optimizer-bound lanes, the first and then the second
    end of every map pair, and the boundary lanes, each from its state's
    minimizer plus its error. No lane depends on the composite weight, and
    each equals its lone call. Returns the stepped optimizer-bound lanes, the
    stepped map-pair ends (t_a, t_b), the boundary errors (xi_errs, z_errs)
    and their stepped lanes, laid out like z_errs.
    """
    rng = np.random.default_rng(plan.seed + 1)
    nz = spec.horizon_N * model.m
    per_state = max(1, plan.boundary_samples // len(states))
    draws = [
        (
            _ball_samples(rng, model.p, per_state, plan.error_ball, plan.error_min_norm),
            _ball_samples(rng, nz, per_state, plan.error_ball, plan.error_min_norm),
        )
        for _ in states
    ]
    xi_errs, z_errs = (np.array(side) for side in zip(*draws))
    # per block, its rows of each state consecutive
    blocks = [optimizer_errors, map_errors[0], map_errors[1], z_errs.reshape(-1, nz)]
    repeats = [len(block) // len(states) for block in blocks]
    x = np.concatenate([np.repeat(states, k, axis=0) for k in repeats])
    z = np.concatenate([np.repeat(zstars, k, axis=0) + block for k, block in zip(repeats, blocks)])
    z_next, _, _ = iterate_map(spec, model, solver_config, x, z)
    optimizer_next, ta, tb, boundary_next = np.split(z_next, np.cumsum([len(block) for block in blocks])[:-1])
    return (optimizer_next, (ta, tb), (xi_errs, z_errs), boundary_next.reshape(z_errs.shape)), []


def _optimizer_bounds(zstars, errors, z_next):
    """b-constants: quadratic bounds of the optimizer error ||z - z*(x)||^2 over the frozen-state steps ``z_next``."""
    stepped = z_next - np.repeat(zstars, len(errors) // len(zstars), axis=0)
    bounds = quadratic_bounds(np.sum(errors**2, axis=1), np.sum(stepped**2, axis=1), errors)
    detail = f"b3 = {bounds.decrease:.6g} over {bounds.samples} frozen-state pairs"
    return bounds, [Verdict("optimizer-decrease", bounds.ok, detail)]


def _map_lipschitz(model, spec, states, zstars, map_errors, stepped):
    """Sampled Lipschitz constants of the iteration map (lip_T) and the stacked fast map (lip_G).

    ``stepped`` holds the frozen-state steps (t_a, t_b) of the two ends of each pair.
    """
    m, delta = model.m, spec.delta
    dza, dzb, dxia, dxib = map_errors
    ta, tb = stepped
    per_state = len(dza) // len(states)
    x, zstar = np.repeat(states, per_state, axis=0), np.repeat(zstars, per_state, axis=0)
    za, zb = zstar + dza, zstar + dzb
    gaps, steps = _norms(za - zb), _norms(ta - tb)
    lip_T = _max_pair_quotient(steps, gaps, gaps, 1e-12)
    # stacked fast map (extra state update, optimizer update)
    ua, ub = first_input(za, m), first_input(zb, m)
    xia = dxia + model.equilibrium_map(x, ua)
    xib = dxib + model.equilibrium_map(x, ub)
    ga = model.extra_map(xia, x, ua, delta)
    gb = model.extra_map(xib, x, ub, delta)
    # squares by float_power, which rounds as Python's ``**`` on floats does
    wgaps = np.sqrt(np.float_power(_norms(xia - xib), 2) + np.float_power(gaps, 2))
    gdiffs = np.sqrt(np.float_power(_norms(ga - gb), 2) + np.float_power(steps, 2))
    lip_G = _max_pair_quotient(gdiffs, wgaps, wgaps, 1e-12)
    return {"lip_T": Estimate(lip_T, SAMPLED, len(x)), "lip_G": Estimate(lip_G, SAMPLED, len(x))}, []


def _multistart(zstars, finals):
    """Uniqueness probe: solves from random starts in the input box must meet the minimizer.

    ``finals`` holds, per probed state (the first rows of ``zstars``), its solves from the starts.
    """
    # per probed state: its minimizer, then its solves from the random starts
    finals = np.concatenate([zstars[: len(finals), None], finals], axis=1)
    probed, points = finals.shape[:2]
    i, j = np.triu_indices(points, 1)
    spread = float(np.max(_norms(finals[:, i] - finals[:, j]), initial=0.0))
    detail = f"multistart spread {spread:.3e} over {probed} states x {points} starts"
    return spread, [Verdict("minimizer-uniqueness", spread <= 1e-4, detail)]


def _boundary_layer(model, spec, plan, constants, fast_bounds, optimizer_bounds, states, zstars, errors, z_next):
    """Composite weight from the a- and b-constants, then the boundary-layer decrease check.

    ``errors`` are the boundary samples (xi_errs, z_errs) and ``z_next`` their
    optimizer steps, both from ``_frozen_step``. Returns ``None`` with a
    failed ``composite-weight`` verdict when no weight exists.
    """
    factor = plan.safety_factor
    try:
        rule = kappa_rule(
            fast_bounds.decrease,
            1.0,  # squared-norm candidate: increment coefficient is exactly 1
            optimizer_bounds.decrease,
            constants["lip_equilibrium"].inflated(factor),
            constants["lip_extra"].inflated(factor),
            constants["lip_T"].inflated(factor),
        )
    except CertificationError as exc:
        return None, [Verdict("composite-weight", False, str(exc))]
    boundary = boundary_layer_check(model, spec, rule.kappa, states, zstars, *errors, z_next)
    detail = f"d3 = {boundary.d3:.6g} with kappa = {rule.kappa:.6g} over {boundary.samples} samples"
    return (rule, boundary), [Verdict("boundary-layer-decrease", boundary.passed, detail)]


def _reduced_value(model, spec, solver_config, states, zstars, pg, values):
    """c-constants of the reduced value function, the minimizer-map constant and the slow-drift ratio.

    ``zstars`` are the cold-started minimizers at ``states``, ``pg`` their
    projected-gradient norms and ``values`` the optimal values there. The
    successor of each state is one reduced step under its minimizer's first
    input, and the minimizer there is solved from where the receding horizon
    puts it: ``warm_start_shift`` of the minimizer.
    """
    delta, x_star, m = spec.delta, model.x_star, model.m
    count = len(states)
    x_next = model.reduced_map(states, first_input(zstars, m), delta)
    sol_next = solve_optimal(spec, model, solver_config, x_next, warm_start_shift(zstars, m))
    values_next = sol_next.value
    solves_ok = np.all(pg <= solver_config.optimal_tol) and sol_next.converged
    errs = _norms(states - x_star)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(errs > 0, _norms(x_next - states) / (delta * errs), 0.0)
    verdicts = [] if solves_ok else [Verdict("reduced-value-solves", False, "value-function solves missed tolerance")]

    bounds = quadratic_bounds(values, values_next, states, decrease_divisor=delta, center=x_star)
    detail = f"c3 = {bounds.decrease:.6g}, c1 = {bounds.lower:.6g}, c2 = {bounds.upper:.6g} over {count} states"
    verdicts.append(Verdict("reduced-value-decrease", bounds.ok, detail))

    # minimizer map Lipschitz constant by secant slopes across consecutive sampled states
    rises = _norms(zstars[:-1] - zstars[1:])
    gaps = np.linalg.norm(np.diff(states, axis=0), axis=1)
    lip_zstar = _max_pair_quotient(rises, gaps, gaps, 1e-9)
    constants = {
        "lip_zstar": Estimate(lip_zstar, SAMPLED, count),
        "single_integrator_ratio": Estimate(float(np.max(drift)), SAMPLED, count),
    }
    return (bounds, constants), verdicts


def _interconnection(plan, constants, reduced_bounds, kappa, fast_decrease):
    """Interconnection constants from the inflated estimates, and the certified timescale bound."""
    factor = plan.safety_factor
    lip_zstar = constants["lip_zstar"].inflated(factor)
    lip_h = constants["lip_equilibrium"].inflated(factor) * (1.0 + lip_zstar) + lip_zstar
    lip_slow = max(constants[name].inflated(factor) for name in ("lip_slow_coupling", "single_integrator_ratio"))
    interconnection = InterconnectionConstants(
        c3=reduced_bounds.decrease,
        c4=max(reduced_bounds.increment, reduced_bounds.increment_centered) * factor,
        fast_decrease=fast_decrease,
        fast_increment=max(1.0, kappa),  # composite of squared norms: increment is max(1, kappa)
        lip_slow=lip_slow,
        lip_h=lip_h,
        lip_G=constants["lip_G"].inflated(factor),
    )
    search = bisect_delta_bar(interconnection, plan.delta_cap)
    detail = f"delta_bar = {search.value if search.value is not None else 'none'} ({search.reason})"
    new_constants = {"lip_h": Estimate(lip_h, SAMPLED), "lip_slow_generic": Estimate(lip_slow, SAMPLED)}
    verdict = Verdict("coupling-condition", search.value is not None and search.value > 0.0, detail)
    return (new_constants, interconnection, search), [verdict]


def _closed_loop(model, spec, solver_config, plan, kappa, delta):
    """Sampled composite decrease along interconnected steps at timescale ``delta``.

    Returns ``None`` with a failed verdict when a minimizer solve misses its tolerance.
    """
    try:
        cl = closed_loop_decrease_check(model, spec, solver_config, kappa, delta, plan)
    except CertificationError as exc:
        return None, [Verdict("closed-loop-decrease", False, str(exc))]
    detail = (
        f"composite value decreased on {cl.samples} sampled steps at delta = {cl.delta:.3e} "
        f"(worst margin {cl.worst_margin:.3e})"
    )
    return cl, [Verdict("closed-loop-decrease", cl.passed, detail)]


def full_certificate(
    model: PlantModel,
    spec: OcpSpec,
    solver_config: SolverConfig,
    plan: SamplingPlan | None = None,
    check_closed_loop: bool = True,
) -> CertificateReport:
    """Run the whole certification chain and report every constant and verdict.

    The stages run in order: equilibrium identity, plant Lipschitz constants,
    fast bounds (a), minimizer solves (the draw of every later sample from the
    main stream, and one batched cold solve), the frozen-state step (one
    batched optimizer step for the next three stages that take one),
    optimizer bounds (b), map Lipschitz constants, multistart, composite
    weight + boundary layer (d), reduced value (c, whose successor solve
    starts from the shifted minimizers), interconnection + timescale
    bisection, and (optionally) the sampled closed-loop decrease at half the
    certified bound. Every verdict goes into the report; a missing composite
    weight ends the chain there. A certificate makes four ``solve_optimal``
    calls and two ``iterate_map`` calls, one at ``spec.delta`` and one in the
    closed-loop check.
    """
    plan = plan or SamplingPlan()
    rng = np.random.default_rng(plan.seed)
    boxes = model.state_box(plan.state_ball), model.extra_box(), np.transpose(spec.input_box).tolist()
    report = CertificateReport(model.name, spec.delta, spec.horizon_N, plan, *boxes)

    def run(stage, *args):
        result, verdicts = stage(*args)
        report.verdicts.extend(verdicts)
        return result

    run(_equilibrium_identity, model, spec, plan, rng)
    report.constants.update(run(_plant_lipschitz, model, spec, plan, rng))
    report.fast_bounds = run(_fast_bounds, model, spec, plan, rng)
    states, zstars, optimizer_errors, map_errors, finals, at_values = run(
        _minimizer_solves, model, spec, solver_config, plan, rng
    )
    optimizer_next, map_next, boundary_errors, boundary_next = run(
        _frozen_step, model, spec, solver_config, plan, states, zstars, optimizer_errors, map_errors
    )
    report.optimizer_bounds = run(_optimizer_bounds, zstars, optimizer_errors, optimizer_next)
    report.constants.update(run(_map_lipschitz, model, spec, states, zstars, map_errors, map_next))
    report.multistart_spread = run(_multistart, zstars, finals)
    weighted = run(
        _boundary_layer,
        model, spec, plan, report.constants, report.fast_bounds, report.optimizer_bounds, states, zstars,
        boundary_errors, boundary_next,
    )
    if weighted is None:
        report.delta_bar_reason = report.verdicts[-1].detail
        return report
    report.kappa, report.boundary = weighted
    report.reduced_bounds, reduced_constants = run(_reduced_value, model, spec, solver_config, *at_values)
    report.constants.update(reduced_constants)
    coupling_constants, report.interconnection, search = run(
        _interconnection, plan, report.constants, report.reduced_bounds, report.kappa.kappa, report.boundary.d3
    )
    report.constants.update(coupling_constants)
    report.delta_bar, report.delta_bar_reason = search.value, search.reason
    if check_closed_loop and search.value is not None and report.boundary.passed:
        report.closed_loop = run(_closed_loop, model, spec, solver_config, plan, report.kappa.kappa, search.value / 2.0)
    return report
