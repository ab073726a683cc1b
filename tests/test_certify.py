import dataclasses
import math
import warnings

import redmpc.certify as certify_module

import numpy as np
import pytest

from redmpc.config import load_config
from redmpc.plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams
from redmpc.ocp import OcpSpec, OptimizerState, SolverConfig, cost, iterate_map, solve_optimal
from redmpc.certify import (
    CertificationError,
    InterconnectionConstants,
    SamplingPlan,
    bisect_delta_bar,
    boundary_layer_check,
    closed_loop_decrease_check,
    estimate_lipschitz,
    full_certificate,
    kappa_rule,
    quadratic_bounds,
)

PEND = ActuatedPendulum()
CFG = SolverConfig()

SMALL_PLAN = SamplingPlan(
    equilibrium_samples=1500,
    fast_samples=500,
    lipschitz_pairs=500,
    n_states=6,
    optimizer_pairs_per_state=15,
    boundary_samples=600,
    n_value_states=30,
    map_pairs=30,
    closed_loop_samples=60,
    multistart_states=2,
    multistart_points=4,
)


def linear_spec(horizon=5, delta=0.01):
    return OcpSpec(
        horizon_N=horizon,
        state_weight=np.array([[1.0]]),
        input_weight=np.array([[0.1]]),
        terminal_weight=np.array([[1.0]]),
        input_box=(np.array([-10.0]), np.array([10.0])),
        delta=delta,
    )


# the reduced plan of the benchmark's certify workload
BENCH_PLAN = SamplingPlan(
    lipschitz_pairs=200,
    equilibrium_samples=500,
    fast_samples=200,
    n_states=4,
    optimizer_pairs_per_state=10,
    boundary_samples=40,
    n_value_states=12,
    map_pairs=8,
    closed_loop_samples=12,
    multistart_states=1,
    multistart_points=2,
)


def contraction_boundary_case():
    """A pendulum with no fast contraction, whose certificate stops at the composite weight."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = ActuatedPendulum(PendulumParams(L_tilde=0.3))  # 1 - R/Lt = -1: no contraction
    plan = SamplingPlan(
        equilibrium_samples=500,
        fast_samples=300,
        lipschitz_pairs=200,
        n_states=3,
        optimizer_pairs_per_state=8,
        boundary_samples=100,
        n_value_states=12,
        map_pairs=10,
        closed_loop_samples=20,
        multistart_states=1,
        multistart_points=2,
    )
    return bad, dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=10), CFG, plan


class TestEstimateLipschitz:
    def test_identity_map(self):
        est = estimate_lipschitz(lambda v: v, [-1.0, -1.0], [1.0, 1.0], count=500, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.tag == "sampled-lower-bound"

    def test_analytic_passthrough(self):
        est = estimate_lipschitz(lambda v: v, [-1.0], [1.0], analytic=0.8)
        assert est.value == 0.8 and est.tag == "analytic"

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="zero volume"):
            estimate_lipschitz(lambda v: v, [1.0], [1.0], count=10)

    def test_monotone_in_sample_count(self):
        fn = lambda v: np.sin(3.0 * v)
        small = estimate_lipschitz(fn, [-2.0], [2.0], count=200, seed=7).value
        big = estimate_lipschitz(fn, [-2.0], [2.0], count=400, seed=7).value
        assert big >= small

    def test_inflation_only_for_sampled(self):
        sampled = estimate_lipschitz(lambda v: v, [-1.0], [1.0], count=100, seed=1)
        analytic = estimate_lipschitz(lambda v: v, [-1.0], [1.0], analytic=1.0)
        assert sampled.inflated(1.5) == pytest.approx(1.5 * sampled.value)
        assert analytic.inflated(1.5) == 1.0


def ball_samples(rng, shape, radius=1.0, min_norm=0.05):
    """Uniform directions in the last axis with norms uniform in [min_norm, radius]."""
    raw = rng.normal(size=shape)
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True) * rng.uniform(min_norm, radius, shape[:-1] + (1,))


class TestSamplingPlan:
    @pytest.mark.parametrize(
        "bad",
        [
            {"lipschitz_pairs": 0},
            {"equilibrium_samples": 0},
            {"fast_samples": 0},
            {"n_states": 0},
            {"optimizer_pairs_per_state": 0},
            {"boundary_samples": 0},
            {"n_value_states": 0},
            {"map_pairs": 0},
            {"closed_loop_samples": -1},
            {"multistart_states": 0},
            {"multistart_points": 0},
            {"multistart_points": 1},
            {"safety_factor": 0.5},
            {"state_ball": 0.0},
            {"error_ball": -1.0},
            {"near_eq_ball": 0.0},
            {"error_min_norm": -0.1},
            {"error_min_norm": 1.0},
            {"delta_cap": 0.0},
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_rejects_out_of_range_values(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SamplingPlan(**bad)

    def test_smallest_values_accepted(self):
        plan = SamplingPlan(n_states=1, multistart_points=2, safety_factor=1.0, error_min_norm=0.0)
        assert plan.n_states == 1 and plan.error_min_norm == 0.0


def sq_norms(v):
    return np.sum(np.asarray(v) ** 2, axis=1)


class TestQuadraticBounds:
    def test_pendulum_fast_error_closed_form(self):
        # error map is exactly 0.4 * err, independent of the frozen (x, u)
        rng = np.random.default_rng(0)
        errs = rng.uniform(0.1, 2.0, (500, 1)) * rng.choice([-1.0, 1.0], (500, 1))
        stepped = 0.4 * errs
        b = quadratic_bounds(sq_norms(errs), sq_norms(stepped), errs)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)
        assert b.decrease == pytest.approx(0.84, abs=1e-9)
        assert b.increment == pytest.approx(1.0, abs=1e-9)
        assert b.ok

    def test_identity_step_map_fails(self):
        rng = np.random.default_rng(1)
        errs = rng.normal(size=(100, 2))
        b = quadratic_bounds(sq_norms(errs), sq_norms(errs), errs)
        assert not b.ok
        assert b.decrease == pytest.approx(0.0, abs=1e-15)
        assert b.witness is not None

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            quadratic_bounds(np.zeros(3), np.zeros(3), np.zeros((3, 1)))

    def test_decrease_divisor(self):
        errs = np.array([[1.0], [2.0]])
        stepped = 0.5 * errs
        plain = quadratic_bounds(sq_norms(errs), sq_norms(stepped), errs).decrease
        scaled = quadratic_bounds(sq_norms(errs), sq_norms(stepped), errs, decrease_divisor=0.5).decrease
        assert scaled == pytest.approx(2.0 * plain, rel=1e-12)

    def test_matches_reference_loop(self):
        # arbitrary (non-quadratic) values about a nonzero center, with a
        # decrease violation planted so that the witness is defined
        rng = np.random.default_rng(11)
        center = np.array([0.3, -1.2, 0.7])
        samples = center + rng.normal(size=(200, 3))
        values = rng.uniform(0.5, 3.0, 200)
        values_next = values * rng.uniform(0.1, 0.9, 200)
        values_next[[57, 140]] = values[[57, 140]] + 1.0
        b = quadratic_bounds(values, values_next, samples, decrease_divisor=0.25, center=center)

        ratios, dec, worst = [], [], None
        for k, (v, v_next, s) in enumerate(zip(values, values_next, samples)):
            e2 = sum((s_i - c_i) ** 2 for s_i, c_i in zip(s, center))
            ratios.append(v / e2)
            dec.append((v - v_next) / (0.25 * e2))
            if worst is None or dec[-1] < dec[worst]:
                worst = k
        inc = inc_c = 0.0
        for i in range(len(samples) - 1):
            a, c = samples[i], samples[i + 1]
            gap = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, c)))
            dv = abs(values[i] - values[i + 1])
            inc = max(inc, dv / (gap * (math.sqrt(sum(a**2)) + math.sqrt(sum(c**2)))))
            inc_c = max(inc_c, dv / (gap * (math.sqrt(sum((a - center) ** 2)) + math.sqrt(sum((c - center) ** 2)))))

        assert b.lower == pytest.approx(min(ratios), rel=1e-12)
        assert b.upper == pytest.approx(max(ratios), rel=1e-12)
        assert b.decrease == pytest.approx(min(dec), rel=1e-12)
        assert b.increment == pytest.approx(inc, rel=1e-12)
        assert b.increment_centered == pytest.approx(inc_c, rel=1e-12)
        assert not b.ok and b.samples == 200
        assert b.witness_index == worst
        assert np.array_equal(b.witness, samples[worst])


class TestKappaRule:
    def test_hand_computed_example(self):
        rule = kappa_rule(a3=0.84, a4=1.0, b3=0.5, lip_xi=5.0 / 3.0, lip_g=1.0, lip_T=0.5)
        assert rule.boundary_k1 == pytest.approx(2.5, abs=1e-12)
        assert rule.boundary_k2 == pytest.approx(11.25, abs=1e-12)
        assert rule.kappa_threshold == pytest.approx(37.380952, abs=1e-6)
        assert rule.kappa == pytest.approx(1.1 * 37.380952, abs=1e-5)

    def test_decoupled_case(self):
        rule = kappa_rule(a3=0.5, a4=1.0, b3=0.5, lip_xi=0.0, lip_g=0.0, lip_T=0.0)
        assert rule.boundary_k1 == 0.0
        assert rule.boundary_k2 == 0.0
        assert rule.kappa_threshold == 0.0
        assert rule.kappa > 0.0

    def test_nonpositive_decrease_raises(self):
        with pytest.raises(CertificationError, match="nonpositive decrease"):
            kappa_rule(a3=0.0, a4=1.0, b3=0.5, lip_xi=1.0, lip_g=1.0, lip_T=1.0)
        with pytest.raises(CertificationError, match="nonpositive decrease"):
            kappa_rule(a3=0.5, a4=1.0, b3=-1e-3, lip_xi=1.0, lip_g=1.0, lip_T=1.0)

    def test_matches_independent_expressions(self):
        # pure arithmetic: cross-check against inline formulas on random inputs
        rng = np.random.default_rng(4)
        for _ in range(300):
            a3, a4, b3, lx, lg, lt = rng.uniform(0.05, 4.0, 6)
            rule = kappa_rule(a3, a4, b3, lx, lg, lt)
            k1 = a4 * lx * lg * (lt + 1)
            k2 = a4 * (2 * lx * (lt + 1) + (lx * (lt + 1)) ** 2)
            assert rule.boundary_k1 == pytest.approx(k1, rel=1e-14)
            assert rule.boundary_k2 == pytest.approx(k2, rel=1e-14)
            assert rule.kappa_threshold == pytest.approx(k1**2 / (a3 * b3) + k2 / b3, rel=1e-14)


class TestAssemble:
    def test_hand_computed_example(self):
        ic = InterconnectionConstants(
            c3=1.0, c4=1.0, fast_decrease=0.5, fast_increment=1.0, lip_slow=0.8, lip_h=1.0, lip_G=1.0
        )
        assert ic.k1 == pytest.approx(1.6, abs=1e-12)
        assert ic.k2 == pytest.approx(1.28, abs=1e-12)
        assert ic.k3 == pytest.approx(0.64, abs=1e-12)

    def test_decoupled_limit(self):
        ic = InterconnectionConstants(
            c3=1.0, c4=0.0, fast_decrease=1.0, fast_increment=0.0, lip_slow=0.0, lip_h=0.0, lip_G=0.0
        )
        for delta in (0.0, 0.05, 0.2):
            assert ic.p_poly(delta) == 0.0
            mat = ic.coupling_matrix(delta)
            assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0

    def test_p_vanishes_at_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            vals = rng.uniform(0.1, 5.0, 7)
            ic = InterconnectionConstants(*vals)
            assert ic.p_poly(0.0) == 0.0

    def test_p_continuity_linear_envelope(self):
        # p(delta) = O(delta^2), so a slope fitted on a coarse grid dominates
        # the polynomial on any finer grid toward zero.
        ic = InterconnectionConstants(
            c3=2.0, c4=1.5, fast_decrease=0.5, fast_increment=2.0, lip_slow=1.2, lip_h=3.0, lip_G=1.1
        )
        coarse = np.linspace(1e-3, 1e-2, 50)
        slope = max(abs(ic.p_poly(d)) / d for d in coarse)
        fine = np.logspace(-6, -3, 60)
        assert all(abs(ic.p_poly(d)) <= slope * d * (1 + 1e-12) for d in fine)

    def test_matches_independent_expressions(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c3, c4, d3, d4, lf, lh, lG = rng.uniform(0.05, 4.0, 7)
            ic = InterconnectionConstants(c3, c4, d3, d4, lf, lh, lG)
            assert ic.k1 == pytest.approx(2 * c4 * lf, rel=1e-14)
            assert ic.k2 == pytest.approx(2 * c4 * lf**2, rel=1e-14)
            assert ic.k3 == pytest.approx(c4 * lf**2, rel=1e-14)
            assert ic.k4 == pytest.approx(2 * d4 * lh * lG * lf, rel=1e-14)
            assert ic.k5 == pytest.approx(2 * d4 * lh**2 * lf**2, rel=1e-14)
            assert ic.k6 == pytest.approx(2 * d4 * lh * lG * lf, rel=1e-14)
            assert ic.k7 == pytest.approx(d4 * lh**2 * lf**2, rel=1e-14)
            assert ic.k8 == pytest.approx(d4 * lh**2 * lf**2, rel=1e-14)
            delta = rng.uniform(0.0, 0.3)
            assert ic.q21(delta) == pytest.approx(
                -0.5 * (delta * (ic.k1 + ic.k4) + delta**2 * (ic.k2 + ic.k5)), rel=1e-14
            )

    def test_missing_constant_listed(self):
        with pytest.raises(CertificationError, match="c4"):
            InterconnectionConstants(
                c3=1.0, c4=math.nan, fast_decrease=0.5, fast_increment=1.0, lip_slow=1.0, lip_h=1.0, lip_G=1.0
            )

    def test_determinant_identity_and_sylvester_equivalence(self):
        # eigenvalue PD test == leading-minors test == condition_holds, and
        # det(Q) equals delta*c3*b3 - p(delta) exactly (the scalar form of the
        # condition). The last input is positive definite at delta = 3 > 1
        # (eigenvalues 0.045 and 2.22).
        rng = np.random.default_rng(3)
        cases = [(rng.uniform(0.05, 5.0, 7), rng.uniform(1e-4, 0.3)) for _ in range(1000)]
        cases.append(((0.737, 0.054, 0.141, 0.008, 0.407, 0.456, 0.303), 3.0))
        for vals, delta in cases:
            ic = InterconnectionConstants(*vals)
            mat = ic.coupling_matrix(delta)
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            eig_pd = bool(np.all(np.linalg.eigvalsh(mat) > 0))
            minors_pd = bool(mat[0, 0] > 0 and det > 0)
            assert eig_pd == minors_pd == bool(ic.condition_holds(delta))
            assert abs(det - (delta * ic.c3 * ic.fast_decrease - ic.p_poly(delta))) <= 1e-10


class TestBisect:
    def test_cap_limited_decoupled(self):
        ic = InterconnectionConstants(
            c3=1.0, c4=0.0, fast_decrease=1.0, fast_increment=0.0, lip_slow=0.0, lip_h=0.0, lip_G=0.0
        )
        res = bisect_delta_bar(ic, 0.2)
        assert res.value == pytest.approx(0.2)
        assert "cap" in res.reason

    def test_nonpositive_c3_returns_none(self):
        ic = InterconnectionConstants(
            c3=0.0, c4=1.0, fast_decrease=0.5, fast_increment=1.0, lip_slow=1.0, lip_h=1.0, lip_G=1.0
        )
        res = bisect_delta_bar(ic, 0.2)
        assert res.value is None
        assert "reduced-system decrease constant nonpositive" in res.reason

    def test_boundary_found_and_condition_holds_below(self):
        ic = InterconnectionConstants(
            c3=1.0, c4=1.0, fast_decrease=0.5, fast_increment=1.0, lip_slow=0.8, lip_h=1.0, lip_G=1.0
        )
        res = bisect_delta_bar(ic, 0.2)
        assert res.value is not None and res.value > 0.0
        assert ic.c3 * ic.fast_decrease > ic.p_poly(res.value)
        assert ic.condition_holds(res.value * 0.5)

    def test_smaller_cap_limits_the_result(self):
        ic = InterconnectionConstants(
            c3=1.0, c4=0.0, fast_decrease=1.0, fast_increment=0.0, lip_slow=0.0, lip_h=0.0, lip_G=0.0
        )
        res = bisect_delta_bar(ic, 0.05)
        assert res.value == pytest.approx(0.05)


class TestBoundaryLayer:
    def test_origin_is_fixed_point(self):
        # At (xi_err, z_err) = (0, 0) the composite value change is ~ solver tolerance^2.
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=10)
        x = np.array([0.3, -0.2])
        star = solve_optimal(spec, PEND, CFG, x, np.zeros(10))
        from redmpc.ocp import first_input, iterate_map

        z_next, _, _ = iterate_map(spec, PEND, CFG, x, star.z)
        xi_eq = PEND.equilibrium_map(x, first_input(star.z, 1))
        xi_next = PEND.extra_map(xi_eq, x, first_input(star.z, 1), 0.01)
        xi_err_next = xi_next - PEND.equilibrium_map(x, first_input(z_next, 1))
        drift = float(xi_err_next @ xi_err_next) + float((z_next - star.z) @ (z_next - star.z))
        assert drift <= 1e-15

    def test_pendulum_composite_decreases(self):
        spec = load_config().ocp_spec(0.01)
        rule = kappa_rule(a3=0.84, a4=1.0, b3=0.04, lip_xi=2.5, lip_g=1.5, lip_T=1.5)
        rng = np.random.default_rng(1)
        states = ball_samples(rng, (4, 2), min_norm=0.0)
        zstars = []
        for x in states:
            star = solve_optimal(spec, PEND, CFG, x, np.zeros(50))
            assert star.converged
            zstars.append(star.z)
        xi_errs = ball_samples(rng, (4, 50, 1))
        z_errs = ball_samples(rng, (4, 50, 50))
        res = boundary_layer_check(PEND, spec, CFG, rule.kappa, states, zstars, xi_errs, z_errs)
        assert res.passed and res.samples == 200
        assert res.d3 > 0.0
        assert res.d1 <= res.d2

    def test_zero_weight_fails_on_drift(self):
        # With no optimizer term, the equilibrium drift pushed into the fast
        # error by a large z error makes the value increase.
        spec = load_config().ocp_spec(0.01)
        x = np.array([0.4, 0.1])
        star = solve_optimal(spec, PEND, CFG, x, np.zeros(50))
        assert star.converged
        xi_err = np.array([1e-8])
        z_err = np.zeros(50)
        z_err[0] = 1.0
        res = boundary_layer_check(PEND, spec, CFG, 0.0, x[None], [star.z], xi_err[None, None], z_err[None, None])
        assert not res.passed
        wx, wxi, wz = res.witness
        assert np.array_equal(wx, x) and np.array_equal(wxi, xi_err) and np.array_equal(wz, z_err)


class TestFullCertificate:
    def test_linear_model_passes_with_closed_forms(self):
        lin = LinearTwoTimescale()
        plan = SamplingPlan(
            equilibrium_samples=1000,
            fast_samples=400,
            lipschitz_pairs=300,
            n_states=5,
            optimizer_pairs_per_state=10,
            boundary_samples=300,
            n_value_states=25,
            map_pairs=20,
            closed_loop_samples=40,
            multistart_states=1,
            multistart_points=3,
            u_range=(-10.0, 10.0),
            xi_range=(-10.0, 10.0),
        )
        rep = full_certificate(lin, linear_spec(), SolverConfig(iters_per_sample=40), plan)
        assert rep.overall_pass
        assert rep.delta_bar is not None and rep.delta_bar > 0.0
        # closed forms: squared-norm candidate on a rho=0.5 fast map
        assert rep.fast_bounds.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.fast_bounds.upper == pytest.approx(1.0, abs=1e-9)
        assert rep.fast_bounds.decrease == pytest.approx(1.0 - 0.5**2, abs=1e-6)
        # near-exact optimizer jumps to the minimizer: full decrease
        assert rep.optimizer_bounds.decrease == pytest.approx(1.0, abs=1e-3)
        # scalar quadratic value function: lower == upper
        assert rep.reduced_bounds.lower == pytest.approx(rep.reduced_bounds.upper, rel=1e-6)

    def test_pendulum_at_contraction_boundary_fails(self):
        rep = full_certificate(*contraction_boundary_case())
        assert not rep.overall_pass
        fast = {v.name: v for v in rep.verdicts}["fast-error-decrease"]
        assert not fast.passed
        assert rep.delta_bar is None
        # no composite weight exists, so the chain stops there
        assert rep.verdicts[-1].name == "composite-weight" and not rep.verdicts[-1].passed
        assert rep.boundary is None and rep.interconnection is None

    def test_report_serializes(self):
        lin = LinearTwoTimescale()
        plan = SamplingPlan(
            equilibrium_samples=200,
            fast_samples=100,
            lipschitz_pairs=100,
            n_states=2,
            optimizer_pairs_per_state=5,
            boundary_samples=40,
            n_value_states=12,
            map_pairs=6,
            closed_loop_samples=10,
            multistart_states=1,
            multistart_points=2,
            u_range=(-10.0, 10.0),
            xi_range=(-10.0, 10.0),
        )
        rep = full_certificate(lin, linear_spec(), SolverConfig(iters_per_sample=20), plan)
        text = rep.to_text()
        assert "delta_bar" in text and ("PASS" in text or "FAIL" in text)
        import json

        blob = json.loads(rep.to_json())
        assert blob["model"] == "linear"
        # the linear model's state is sampled from +-4 state_ball
        assert blob["ranges"]["state_lo"] == [-4.0] and blob["ranges"]["state_hi"] == [4.0]
        assert "theta" not in blob["ranges"] and "omega" not in blob["ranges"]
        assert isinstance(blob["verdicts"], list)
        assert blob["overall_pass"] == rep.overall_pass


class TestClosedLoopDecrease:
    def test_linear_decrease_below_bound(self):
        lin = LinearTwoTimescale()
        spec = linear_spec()
        plan = SamplingPlan(closed_loop_samples=30, near_eq_ball=0.3)
        res = closed_loop_decrease_check(lin, spec, SolverConfig(iters_per_sample=40), kappa=4.0, delta=0.002, plan=plan)
        assert res.passed
        assert res.worst_margin > 0.0


def linear_case():
    plan = SamplingPlan(
        equilibrium_samples=300, fast_samples=200, lipschitz_pairs=100, n_states=4, optimizer_pairs_per_state=5,
        boundary_samples=40, n_value_states=12, map_pairs=8, closed_loop_samples=10, multistart_states=2,
        multistart_points=3, u_range=(-10.0, 10.0), xi_range=(-10.0, 10.0),
    )
    return LinearTwoTimescale(), linear_spec(), SolverConfig(iters_per_sample=40), plan


def starved_case(max_optimal_iters, seed=0):
    """The benchmark plan under a solve budget; each run reaches the closed-loop check."""
    plan = dataclasses.replace(BENCH_PLAN, seed=seed)
    return PEND, load_config().ocp_spec(0.01), SolverConfig(max_optimal_iters=max_optimal_iters), plan


CASES = {
    "benchmark-plan": lambda: (PEND, load_config().ocp_spec(0.01), CFG, BENCH_PLAN),
    "early-exit": contraction_boundary_case,
    "linear": linear_case,
    # too few iterations for a minimizer lane and for a value lane
    "budget-starved": lambda: starved_case(6),
    # enough iterations for the minimizer lanes, too few for some value lane
    "value-lanes-starved": lambda: starved_case(5, seed=9),
    # enough iterations for the value lanes, too few for some minimizer lane
    "minimizer-lanes-starved": lambda: starved_case(6, seed=10),
}


def lone_solve_optimal(spec, model, config, x0, z_init):
    """``solve_optimal`` with a batch split into lone calls, reassembled as the batched result."""
    if np.ndim(z_init) == 1:
        return solve_optimal(spec, model, config, x0, z_init)
    lone = [solve_optimal(spec, model, config, x, z) for x, z in zip(x0, z_init)]
    pg = np.array([s.projected_gradient_norm for s in lone])
    return OptimizerState(
        z=np.array([s.z for s in lone]),
        iterations_used=max(s.iterations_used for s in lone),
        projected_gradient_norm=pg,
        converged=bool(np.all(pg <= config.optimal_tol)),
        rejected_steps=sum(s.rejected_steps for s in lone),
        prediction=np.array([s.prediction for s in lone]),
        value=np.array([s.value for s in lone]),
    )


def lone_iterate_map(spec, model, config, x0, z):
    """``iterate_map`` with a batch split into lone calls."""
    if np.ndim(z) == 1:
        return iterate_map(spec, model, config, x0, z)
    lone = [iterate_map(spec, model, config, x, zk) for x, zk in zip(x0, z)]
    states = None if lone[0][2] is None else np.array([s for _, _, s in lone])
    return np.array([zk for zk, _, _ in lone]), sum(r for _, r, _ in lone), states


class TestOneColdSolve:
    """The certificate's batched solves give the certificate of lone solves, and
    every cold-started minimizer at the certified delta comes from one call."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lone_calls_give_the_same_certificate(self, case, monkeypatch):
        args = CASES[case]()
        batched = full_certificate(*args)
        monkeypatch.setattr(certify_module, "solve_optimal", lone_solve_optimal)
        monkeypatch.setattr(certify_module, "iterate_map", lone_iterate_map)
        lone = full_certificate(*args)
        assert lone.to_json() == batched.to_json()
        assert lone.to_text() == batched.to_text()
        failed = {v.name for v in batched.verdicts if not v.passed}
        # each solve verdict reads the lanes of its own stage
        solve_verdicts = failed & {"minimizer-solves", "reduced-value-solves"}
        if case.endswith("starved"):
            assert batched.verdicts[-1].name == "closed-loop-decrease"
        if case == "budget-starved":
            assert solve_verdicts == {"minimizer-solves", "reduced-value-solves"}
        if case == "value-lanes-starved":
            assert solve_verdicts == {"reduced-value-solves"}
        if case == "minimizer-lanes-starved":
            assert solve_verdicts == {"minimizer-solves"}
        if case == "early-exit":
            assert batched.verdicts[-1].name == "composite-weight" and "reduced-value-solves" not in failed

    def test_stages_take_values_from_their_solves(self, monkeypatch):
        # no stage rolls out a point again: the value lanes' optimal values are their share of the cold solve's
        def no_cost(*args):
            raise AssertionError("certify called cost on a point its solve returned")

        reduced_value, checked = certify_module._reduced_value, []

        def checking(model, spec, config, states, zstars, pg, values):
            assert np.array_equal(values, cost(spec, model, states, zstars))
            checked.append(len(states))
            return reduced_value(model, spec, config, states, zstars, pg, values)

        monkeypatch.setattr(certify_module, "cost", no_cost)
        monkeypatch.setattr(certify_module, "_reduced_value", checking)
        model, spec, config, plan = CASES["benchmark-plan"]()
        report = full_certificate(model, spec, config, plan)
        assert checked == [plan.n_value_states] and report.closed_loop is not None

    def test_two_solves_at_the_certified_delta(self, monkeypatch):
        model, spec, config, plan = CASES["benchmark-plan"]()
        calls = []

        def recording(spec_arg, model_arg, config_arg, x0, z_init):
            result = solve_optimal(spec_arg, model_arg, config_arg, x0, z_init)
            calls.append((spec_arg.delta, np.array(x0), np.array(z_init), result))
            return result

        monkeypatch.setattr(certify_module, "solve_optimal", recording)
        report = full_certificate(model, spec, config, plan)
        assert report.closed_loop is not None  # the closed-loop check ran, at its own delta
        at_delta = [call for call in calls if call[0] == spec.delta]
        assert len(at_delta) == 2 and len(calls) == 4
        (_, x_cold, z_cold, cold), (_, x_warm, z_warm, _) = at_delta
        starts = plan.multistart_states * (plan.multistart_points - 1)
        assert len(x_cold) == plan.n_states + starts + plan.n_value_states
        # minimizer and value lanes start from zeros, multistart lanes from points in the input box
        assert not z_cold[: plan.n_states].any() and not z_cold[plan.n_states + starts :].any()
        assert np.all(z_cold[plan.n_states : plan.n_states + starts] != 0.0)
        # the successor solve starts from the value lanes' minimizers
        assert np.array_equal(z_warm, cold.z[plan.n_states + starts :])
        assert len(x_warm) == plan.n_value_states


class TestSampleCounts:
    def test_counts_report_what_was_drawn(self):
        # 5 map pairs over 2 states draw 2 per state, and only 2 of 5 multistart states exist
        plan = dataclasses.replace(BENCH_PLAN, n_states=2, map_pairs=5, multistart_states=5)
        report = full_certificate(PEND, load_config().ocp_spec(0.01), CFG, plan)
        assert report.constants["lip_T"].samples == report.constants["lip_G"].samples == 4
        detail = {v.name: v.detail for v in report.verdicts}["minimizer-uniqueness"]
        assert detail.endswith(f"over 2 states x {plan.multistart_points} starts")
