import numpy as np
import pytest

from redmpc.plant import ActuatedPendulum, LinearTwoTimescale
from redmpc.ocp import (
    OcpSpec,
    SolverConfig,
    cost,
    first_input,
    gradient,
    horizon_for_delta,
    iterate_map,
    make_ocp_spec,
    project_box,
    rollout,
    solve_optimal,
    solver_map,
    warm_start_shift,
)

PEND = ActuatedPendulum()
CFG = SolverConfig()


def fd_gradient(spec, model, x0, z, h=1e-6):
    fd = np.empty_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        fd[i] = (cost(spec, model, x0, zp) - cost(spec, model, x0, zm)) / (2 * h)
    return fd


class TestHorizonRule:
    def test_benchmark_steps(self):
        assert [horizon_for_delta(d) for d in (0.01, 0.1, 0.2)] == [50, 5, 3]

    def test_floor_of_two(self):
        assert horizon_for_delta(0.5) == 2

    def test_half_rounds_up(self):
        assert horizon_for_delta(0.2) == 3  # 0.5/0.2 = 2.5


class TestSpecValidation:
    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon_N"):
            make_ocp_spec(0.01, horizon_N=0)

    def test_box_ordering(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            OcpSpec(
                horizon_N=2,
                state_weight=np.eye(2),
                input_weight=np.eye(1),
                terminal_weight=np.eye(2),
                input_box=(np.array([1.0]), np.array([-1.0])),
                delta=0.01,
            )

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            OcpSpec(
                horizon_N=2,
                state_weight=np.array([[1.0, 0.5], [0.0, 1.0]]),
                input_weight=np.eye(1),
                terminal_weight=np.eye(2),
                input_box=(np.array([-1.0]), np.array([1.0])),
                delta=0.01,
            )


class TestSolverConfigValidation:
    def test_line_search_needs_a_trial(self):
        with pytest.raises(ValueError, match="max_backtracks"):
            SolverConfig(max_backtracks=0)


class TestRollout:
    def test_equilibrium(self):
        spec = make_ocp_spec(0.01, horizon_N=7)
        states = rollout(spec, PEND, [0.0, 0.0], np.zeros(7))
        assert np.array_equal(states, np.zeros((8, 2)))

    def test_single_step(self):
        spec = make_ocp_spec(0.01, horizon_N=1)
        states = rollout(spec, PEND, [0.0, 1.0], [0.0])
        assert states[1][0] == pytest.approx(0.01, abs=1e-12)
        assert states[1][1] == pytest.approx(0.984667, abs=1e-6)

    def test_two_step_chain(self):
        # Second step includes the equilibrium-current damping of the composed
        # reduced map: omega_2 = 0.008 + 0.01*(-0.008 + 0.8*(-(0.4/0.6)*0.008)).
        spec = make_ocp_spec(0.01, horizon_N=2)
        states = rollout(spec, PEND, [0.0, 0.0], [0.6, 0.0])
        assert states[1] == pytest.approx([0.0, 0.008], abs=1e-12)
        assert states[2][0] == pytest.approx(8.0e-5, abs=1e-9)
        assert states[2][1] == pytest.approx(0.00787733, abs=1e-6)

    def test_overflow_names_step(self):
        blowup = LinearTwoTimescale(a_slow=1e308, b_slow=0.0, c_slow=0.0, s_fast=0.0, e_fast=0.0)
        spec = OcpSpec(
            horizon_N=5,
            state_weight=np.eye(1),
            input_weight=np.eye(1),
            terminal_weight=np.eye(1),
            input_box=(np.array([-1.0]), np.array([1.0])),
            delta=0.5,
        )
        with pytest.raises(FloatingPointError, match="step 2"):
            rollout(spec, blowup, [1.0], np.zeros(5))

    def test_wrong_length_rejected(self):
        spec = make_ocp_spec(0.01, horizon_N=3)
        with pytest.raises(ValueError, match="N\\*m"):
            rollout(spec, PEND, [0.0, 0.0], np.zeros(4))


class TestCost:
    def test_zero_at_equilibrium(self):
        spec = make_ocp_spec(0.01, horizon_N=9)
        assert cost(spec, PEND, [0.0, 0.0], np.zeros(9)) == 0.0

    def test_stage_plus_terminal(self):
        spec = make_ocp_spec(0.01, horizon_N=1)
        # stage 0.1*omega^2 = 0.1, terminal 100*0.01^2 + 0.1*0.984667^2
        assert cost(spec, PEND, [0.0, 1.0], [0.0]) == pytest.approx(0.20695684, abs=1e-6)

    def test_input_cost_and_terminal(self):
        spec = make_ocp_spec(0.01, horizon_N=1)
        # 0.01*1^2 + 0.1*(0.01*0.8/0.6)^2 from the composed reduced step
        assert cost(spec, PEND, [0.0, 0.0], [1.0]) == pytest.approx(0.0100177778, abs=1e-8)


class TestGradient:
    def test_zero_at_global_minimum(self):
        spec = make_ocp_spec(0.01, horizon_N=10)
        g = gradient(spec, PEND, [0.0, 0.0], np.zeros(10))
        assert np.array_equal(g, np.zeros(10))

    def test_matches_finite_differences(self):
        spec = make_ocp_spec(0.01, horizon_N=5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x0 = rng.uniform(-1, 1, 2)
            z = rng.uniform(-5, 5, 5)
            g = gradient(spec, PEND, x0, z)
            fd = fd_gradient(spec, PEND, x0, z)
            rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-9)
            assert rel <= 1e-6

    def test_long_horizon_matches_finite_differences(self):
        spec = make_ocp_spec(0.01)  # N = 50
        rng = np.random.default_rng(7)
        for _ in range(3):
            x0 = rng.uniform(-1, 1, 2)
            z = rng.uniform(-5, 5, 50)
            g = gradient(spec, PEND, x0, z)
            fd = fd_gradient(spec, PEND, x0, z)
            rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-9)
            assert rel <= 1e-6

    def test_pure_input_cost_closed_form(self):
        spec = OcpSpec(
            horizon_N=4,
            state_weight=np.zeros((2, 2)),
            input_weight=np.array([[0.7]]),
            terminal_weight=np.zeros((2, 2)),
            input_box=(np.array([-24.0]), np.array([24.0])),
            delta=0.01,
        )
        rng = np.random.default_rng(8)
        z = rng.uniform(-3, 3, 4)
        assert np.allclose(gradient(spec, PEND, [0.3, -0.2], z), 2 * 0.7 * z, atol=1e-12)


class TestProjection:
    SPEC = make_ocp_spec(0.01, horizon_N=1)

    def test_clamp_above(self):
        assert project_box(self.SPEC, [30.0])[0] == 24.0

    def test_interior_identity(self):
        assert project_box(self.SPEC, [5.0])[0] == 5.0

    def test_mixed(self):
        spec = make_ocp_spec(0.01, horizon_N=2)
        assert np.array_equal(project_box(spec, [-30.0, 3.0]), [-24.0, 3.0])

    def test_idempotent(self):
        spec = make_ocp_spec(0.01, horizon_N=6)
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = rng.uniform(-100, 100, 6)
            once = project_box(spec, z)
            assert np.array_equal(project_box(spec, once), once)


# x1 = x0 + u over one step and cost (x0 + u)^2: from x0 = -c the toy (u - c)^2
TOY = LinearTwoTimescale(a_slow=0.0, b_slow=0.0, c_slow=2.0, s_fast=0.0, e_fast=0.0)
TOY_SPEC = OcpSpec(
    horizon_N=1,
    state_weight=np.zeros((1, 1)),
    input_weight=np.zeros((1, 1)),
    terminal_weight=np.eye(1),
    input_box=(np.array([-24.0]), np.array([24.0])),
    delta=0.5,
)


class TestIterateMap:
    def test_fixed_step_toy(self):
        # cost (u-1)^2, one fixed step alpha=0.25 from 0: u <- 0 - 0.25*(-2) = 0.5
        cfg = SolverConfig(step_rule="fixed", alpha0=0.25)
        z, rejected, states = iterate_map(TOY_SPEC, TOY, cfg, [-1.0], [0.0])
        assert z[0] == pytest.approx(0.5, abs=1e-15)
        assert rejected == 0 and states is None

    def test_fixed_step_is_projected_gradient_step(self):
        spec = make_ocp_spec(0.1)
        cfg = SolverConfig(step_rule="fixed", alpha0=3.0)
        rng = np.random.default_rng(13)
        x0, z = rng.uniform(-1, 1, 2), rng.uniform(-24, 24, 5)
        z_next, _, _ = iterate_map(spec, PEND, cfg, x0, z)
        assert np.array_equal(z_next, project_box(spec, z - 3.0 * gradient(spec, PEND, x0, z)))

    def _solve_toy(self, x0, tol=1e-10, iters=10_000):
        z = np.zeros(1)
        for _ in range(iters):
            g = gradient(TOY_SPEC, TOY, x0, z)
            if np.linalg.norm(z - project_box(TOY_SPEC, z - g)) <= tol:
                break
            z, rejected, _ = iterate_map(TOY_SPEC, TOY, CFG, x0, z)
            if rejected:
                break
        return z

    def test_unconstrained_toy_minimizer(self):
        assert self._solve_toy([-1.0])[0] == pytest.approx(1.0, abs=1e-8)

    def test_active_bound_toy_minimizer(self):
        # cost (u-30)^2 over |u| <= 24: constrained minimizer at the bound
        assert self._solve_toy([-30.0])[0] == pytest.approx(24.0, abs=1e-12)

    def test_returns_rollout_of_result(self):
        spec = make_ocp_spec(0.1)
        z, rejected, states = iterate_map(spec, PEND, SolverConfig(iters_per_sample=3), [0.4, -0.2], np.zeros(5))
        assert rejected == 0
        assert np.array_equal(states, rollout(spec, PEND, [0.4, -0.2], z))

    def test_overflowing_trial_is_rejected(self):
        # The base rollout and gradient are finite, but the gradient is ~1e128,
        # so every trial clips to |u| = 1 and its rollout overflows near step 85.
        blowup = LinearTwoTimescale(a_slow=1e4, b_slow=0.0, c_slow=1.0, s_fast=0.0, e_fast=0.0)
        spec = OcpSpec(
            horizon_N=90,
            state_weight=np.eye(1),
            input_weight=np.eye(1),
            terminal_weight=np.array([[1e-200]]),
            input_box=(np.array([-1.0]), np.array([1.0])),
            delta=0.5,
        )
        z = np.zeros(90)
        z[-1] = 0.5
        assert np.all(np.isfinite(gradient(spec, blowup, [0.0], z)))
        with pytest.raises(FloatingPointError, match="rollout overflow"):
            rollout(spec, blowup, [0.0], project_box(spec, z - gradient(spec, blowup, [0.0], z)))
        z_next, rejected, _ = iterate_map(spec, blowup, CFG, [0.0], z)
        assert np.array_equal(z_next, z)
        assert rejected == 1


class TestSolveOptimal:
    def test_equilibrium_needs_no_iterations(self):
        spec = make_ocp_spec(0.01, horizon_N=12)
        res = solve_optimal(spec, PEND, CFG, [0.0, 0.0], np.zeros(12))
        assert res.iterations_used == 0
        assert res.converged
        assert np.array_equal(res.z, np.zeros(12))

    def test_converges_and_flags(self):
        spec = make_ocp_spec(0.01)
        res = solve_optimal(spec, PEND, CFG, [0.5, -0.3], np.zeros(50))
        assert res.converged
        assert res.projected_gradient_norm <= CFG.optimal_tol

    def test_non_convergence_flagged_not_silent(self):
        spec = make_ocp_spec(0.01)
        tight = SolverConfig(optimal_tol=1e-8, max_optimal_iters=2)
        res = solve_optimal(spec, PEND, tight, [0.9, 0.0], np.zeros(50))
        assert not res.converged
        assert res.iterations_used == 2


class TestSolverMap:
    def test_fixed_point_at_minimizer(self):
        spec = make_ocp_spec(0.01)
        rng = np.random.default_rng(10)
        for _ in range(3):
            x0 = rng.uniform(-0.8, 0.8, 2)
            star = solve_optimal(spec, PEND, CFG, x0, np.zeros(50))
            assert star.converged
            after = solver_map(spec, PEND, CFG, x0, star.z)
            assert np.linalg.norm(after.z - star.z) <= 1e-8

    def test_descent_with_backtracking(self):
        spec = make_ocp_spec(0.01)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x0 = rng.uniform(-1, 1, 2)
            z = rng.uniform(-10, 10, 50)
            out = solver_map(spec, PEND, CFG, x0, z)
            assert cost(spec, PEND, x0, out.z) <= cost(spec, PEND, x0, project_box(spec, z)) + 1e-12

    def test_budget_respected_and_in_box(self):
        spec = make_ocp_spec(0.1)
        cfg = SolverConfig(iters_per_sample=3)
        out = solver_map(spec, PEND, cfg, [1.0, 0.0], np.zeros(5))
        assert out.iterations_used == 3
        lo, hi = spec.input_box
        assert np.all(out.z >= lo[0] - 1e-15) and np.all(out.z <= hi[0] + 1e-15)

    def test_contraction_toward_minimizer(self):
        # squared distance to the minimizer shrinks by a positive factor
        spec = make_ocp_spec(0.01)
        rng = np.random.default_rng(12)
        worst = np.inf
        for _ in range(5):
            x0 = rng.uniform(-1, 1, 2)
            star = solve_optimal(spec, PEND, CFG, x0, np.zeros(50))
            for _ in range(20):
                err = rng.normal(size=50)
                err *= rng.uniform(0.05, 1.0) / np.linalg.norm(err)
                out = solver_map(spec, PEND, CFG, x0, star.z + err)
                l0 = float(err @ err)
                l1 = float((out.z - star.z) @ (out.z - star.z))
                worst = min(worst, (l0 - l1) / l0)
        assert worst > 0.0


class TestSequenceOps:
    def test_first_input_scalar(self):
        assert first_input([1.0, 2.0, 3.0], 1)[0] == 1.0

    def test_first_input_zeros(self):
        assert first_input(np.zeros(4), 1)[0] == 0.0

    def test_first_input_block(self):
        assert np.array_equal(first_input([1.0, 2.0, 3.0, 4.0], 2), [1.0, 2.0])

    def test_first_input_too_short(self):
        with pytest.raises(ValueError, match="at least"):
            first_input([1.0], 2)

    def test_shift_scalar(self):
        assert np.array_equal(warm_start_shift([1.0, 2.0, 3.0], 1), [2.0, 3.0, 3.0])

    def test_shift_zeros(self):
        assert np.array_equal(warm_start_shift(np.zeros(5), 1), np.zeros(5))

    def test_shift_block(self):
        assert np.array_equal(warm_start_shift([1.0, 2.0, 3.0, 4.0], 2), [3.0, 4.0, 3.0, 4.0])

    def test_shift_bad_length(self):
        with pytest.raises(ValueError, match="multiple"):
            warm_start_shift([1.0, 2.0, 3.0], 2)


class TestProjectedGradientNorm:
    def test_zero_at_constrained_stationary_point(self):
        spec = make_ocp_spec(0.01, horizon_N=2)
        x0 = [0.2, 0.1]
        star = solve_optimal(spec, PEND, SolverConfig(optimal_tol=1e-10), x0, np.zeros(2))
        g = gradient(spec, PEND, x0, star.z)
        assert np.linalg.norm(star.z - project_box(spec, star.z - g)) <= 1e-10


class CountingPendulum(ActuatedPendulum):
    def __init__(self):
        super().__init__()
        self.maps = self.jacobians = 0

    def reduced_map(self, x, u, delta):
        self.maps += 1
        return super().reduced_map(x, u, delta)

    def reduced_jacobians(self, x, u, delta):
        self.jacobians += 1
        return super().reduced_jacobians(x, u, delta)


class TestEvaluationCounts:
    """Each evaluated point is rolled out once (N reduced_map calls) and an accepted
    trial's rollout is reused; each gradient takes one reduced_jacobians call for
    the whole horizon, and a batch makes the calls of one lane."""

    SPEC = make_ocp_spec(0.01)  # N = 50
    X0 = [0.3, -0.2]

    def test_solver_map(self):
        model = CountingPendulum()
        out = solver_map(self.SPEC, model, CFG, self.X0, np.zeros(50))
        assert out.rejected_steps == 0
        # gradient rollout + accepted first trial; adjoint at z + diagnostic adjoint
        assert (model.maps, model.jacobians) == (100, 2)

    def test_iterate_map(self):
        model = CountingPendulum()
        _, rejected, _ = iterate_map(self.SPEC, model, CFG, self.X0, np.zeros(50))
        assert rejected == 0
        assert (model.maps, model.jacobians) == (100, 1)

    def test_batch_makes_the_calls_of_one_lane(self):
        model = CountingPendulum()
        x0 = [self.X0, [-0.5, 0.1], [0.8, 0.4]]
        _, rejected, _ = iterate_map(self.SPEC, model, CFG, x0, np.zeros((3, 50)))
        assert rejected == 0
        assert (model.maps, model.jacobians) == (100, 1)


def reference_armijo(spec, model, x0, z, g, j_ref, alpha, config, noise_floor=-np.inf):
    for _ in range(config.max_backtracks):
        candidate = project_box(spec, z - alpha * g)
        decrease = float(g @ (z - candidate))
        j_cand = cost(spec, model, x0, candidate)
        if j_cand <= j_ref - config.armijo_c * decrease or config.armijo_c * decrease <= noise_floor:
            return candidate, j_cand
        alpha *= config.shrink
    return None


def reference_iterate(spec, model, config, x0, z):
    z = project_box(spec, z)
    rejected = 0
    for _ in range(config.iters_per_sample):
        g = gradient(spec, model, x0, z)
        if config.step_rule == "fixed":
            z = project_box(spec, z - config.alpha0 * g)
            continue
        step = reference_armijo(spec, model, x0, z, g, cost(spec, model, x0, z), config.alpha0, config)
        if step is None:
            rejected += 1
        else:
            z = step[0]
    return z, rejected


def reference_solver_map(spec, model, config, x0, z):
    z, rejected = reference_iterate(spec, model, config, x0, z)
    g = gradient(spec, model, x0, z)
    pg = float(np.linalg.norm(z - project_box(spec, z - g)))
    return z, pg, config.iters_per_sample, rejected, True


def reference_solve_optimal(spec, model, config, x0, z):
    z = project_box(spec, z)
    g = gradient(spec, model, x0, z)
    recent = [cost(spec, model, x0, z)]
    pg = float(np.linalg.norm(z - project_box(spec, z - g)))
    iters = rejected = 0
    alpha = config.alpha0
    while pg > config.optimal_tol and iters < config.max_optimal_iters:
        iters += 1
        j_ref = max(recent)
        noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(j_ref))
        step = reference_armijo(spec, model, x0, z, g, j_ref, alpha, config, noise_floor)
        if step is None:
            rejected += 1
            break
        z_new, j_new = step
        g_new = gradient(spec, model, x0, z_new)
        s, y = z_new - z, g_new - g
        sy = float(s @ y)
        alpha = min(max(float(s @ s) / sy, 1e-10), 1e10) if sy > 0.0 else config.alpha0
        z, g = z_new, g_new
        recent = (recent + [j_new])[-10:]
        pg = float(np.linalg.norm(z - project_box(spec, z - g)))
    return z, pg, iters, rejected, bool(pg <= config.optimal_tol)


def linear_case_spec():
    return OcpSpec(
        horizon_N=5,
        state_weight=np.array([[1.0]]),
        input_weight=np.array([[0.1]]),
        terminal_weight=np.array([[1.0]]),
        input_box=(np.array([-10.0]), np.array([10.0])),
        delta=0.01,
    )


REFERENCE_CASES = {
    "pendulum-N5": (make_ocp_spec(0.1), PEND, 2, 24.0),
    "pendulum-N50": (make_ocp_spec(0.01), PEND, 2, 24.0),
    "linear": (linear_case_spec(), LinearTwoTimescale(), 1, 10.0),
}


class TestReferenceLoop:
    """The solvers match, bit for bit, a plain loop over the public cost, gradient and project_box."""

    @staticmethod
    def samples(case, seed):
        spec, model, n, u_max = REFERENCE_CASES[case]
        rng = np.random.default_rng(seed)
        for _ in range(3):
            yield spec, model, rng.uniform(-1, 1, n), rng.uniform(-1.5 * u_max, 1.5 * u_max, spec.horizon_N)

    @staticmethod
    def assert_same(state, ref):
        z, pg, iters, rejected, converged = ref
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.projected_gradient_norm, pg)
        assert (state.iterations_used, state.rejected_steps, state.converged) == (iters, rejected, converged)

    # the short line search rejects some steps
    STEPS = {
        "backtracking": {},
        "short-backtracking": {"alpha0": 8.0, "max_backtracks": 2},
        "fixed": {"step_rule": "fixed", "alpha0": 0.3},
    }

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("rule", sorted(STEPS))
    @pytest.mark.parametrize("iters", [1, 3])
    def test_fixed_budget(self, case, rule, iters):
        config = SolverConfig(iters_per_sample=iters, **self.STEPS[rule])
        for spec, model, x0, z in self.samples(case, 14):
            z_next, rejected, _ = iterate_map(spec, model, config, x0, z)
            ref_z, ref_rejected = reference_iterate(spec, model, config, x0, z)
            assert np.array_equal(z_next, ref_z) and rejected == ref_rejected
            self.assert_same(solver_map(spec, model, config, x0, z), reference_solver_map(spec, model, config, x0, z))

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_solve_optimal(self, case):
        # to tolerance; out of budget; a one-trial line search that stops the solve
        for config in (SolverConfig(), SolverConfig(max_optimal_iters=7), SolverConfig(max_backtracks=1)):
            for spec, model, x0, z in self.samples(case, 15):
                self.assert_same(
                    solve_optimal(spec, model, config, x0, z), reference_solve_optimal(spec, model, config, x0, z)
                )


def loop_rollout(spec, model, x0, z):
    """Per-step reference: the plant called on (n,) vectors."""
    states = [np.asarray(x0, dtype=float)]
    for u in np.reshape(z, (spec.horizon_N, spec.m)):
        states.append(model.reduced_map(states[-1], u, spec.delta))
    return np.array(states)


def loop_cost(spec, model, x0, z):
    states, inputs = loop_rollout(spec, model, x0, z), np.reshape(z, (spec.horizon_N, spec.m))
    Q, Rw, Qf = spec.state_weight, spec.input_weight, spec.terminal_weight
    return sum(x @ Q @ x + u @ Rw @ u for x, u in zip(states, inputs)) + states[-1] @ Qf @ states[-1]


def loop_gradient(spec, model, x0, z):
    states, inputs = loop_rollout(spec, model, x0, z), np.reshape(z, (spec.horizon_N, spec.m))
    grad = np.empty_like(inputs)
    lam = 2.0 * spec.terminal_weight @ states[-1]
    for tau in range(spec.horizon_N - 1, -1, -1):
        jac_x, jac_u = model.reduced_jacobians(states[tau], inputs[tau], spec.delta)
        grad[tau] = 2.0 * spec.input_weight @ inputs[tau] + jac_u.T @ lam
        lam = 2.0 * spec.state_weight @ states[tau] + jac_x.T @ lam
    return grad.reshape(-1)


class TestBatchAxis:
    """Lane k of a B-batch equals its B = 1 call bit for bit, and the batched
    kernels match the per-step loops above to 1e-12 relative."""

    LANES = 4

    @classmethod
    def batch(cls, case, seed=18):
        spec, model, n, u_max = REFERENCE_CASES[case]
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (cls.LANES, n))
        return spec, model, x0, rng.uniform(-1.5 * u_max, 1.5 * u_max, (cls.LANES, spec.horizon_N))

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_kernels(self, case):
        spec, model, x0, z = self.batch(case)
        batched = {fn: fn(spec, model, x0, z) for fn in (rollout, cost, gradient)}
        for fn, loop in ((rollout, loop_rollout), (cost, loop_cost), (gradient, loop_gradient)):
            assert np.shape(batched[fn]) == (self.LANES,) + np.shape(fn(spec, model, x0[0], z[0]))
            for k in range(self.LANES):
                assert np.array_equal(batched[fn][k], fn(spec, model, x0[k], z[k]))
                ref = loop(spec, model, x0[k], z[k])
                assert np.max(np.abs(batched[fn][k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("rule", sorted(TestReferenceLoop.STEPS))
    @pytest.mark.parametrize("iters", [1, 3])
    def test_fixed_budget(self, case, rule, iters):
        spec, model, x0, z = self.batch(case)
        config = SolverConfig(iters_per_sample=iters, **TestReferenceLoop.STEPS[rule])
        z_next, rejected, states = iterate_map(spec, model, config, x0, z)
        state = solver_map(spec, model, config, x0, z)
        lone_rejected = 0
        for k in range(self.LANES):
            lone_z, lone_rejected_k, lone_states = iterate_map(spec, model, config, x0[k], z[k])
            lone_rejected += lone_rejected_k
            assert np.array_equal(z_next[k], lone_z)
            assert (states is None and lone_states is None) or np.array_equal(states[k], lone_states)
            lone = solver_map(spec, model, config, x0[k], z[k])
            assert np.array_equal(state.z[k], lone.z)
            assert np.array_equal(state.projected_gradient_norm[k], lone.projected_gradient_norm)
        assert rejected == state.rejected_steps == lone_rejected

    def test_solve_optimal_mixed_batch(self):
        # lanes that reach tolerance, stop at a rejected step, or run out of budget
        spec, config = make_ocp_spec(0.1), SolverConfig(max_backtracks=2, max_optimal_iters=40)
        rng = np.random.default_rng(16)
        x0, z = rng.uniform(-1, 1, (12, 2)), rng.uniform(-36, 36, (12, 5))
        state = solve_optimal(spec, PEND, config, x0, z)
        lone = [solve_optimal(spec, PEND, config, x0[k], z[k]) for k in range(12)]
        outcomes = {"tolerance" if s.converged else "rejected" if s.rejected_steps else "budget" for s in lone}
        assert outcomes == {"tolerance", "rejected", "budget"}
        for k, s in enumerate(lone):
            assert np.array_equal(state.z[k], s.z)
            assert np.array_equal(state.projected_gradient_norm[k], s.projected_gradient_norm)
        assert state.iterations_used == max(s.iterations_used for s in lone) == config.max_optimal_iters
        assert state.rejected_steps == sum(s.rejected_steps for s in lone)
        assert state.converged is False
