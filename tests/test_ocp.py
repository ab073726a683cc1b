import dataclasses

import numpy as np
import pytest

from redmpc.config import load_config
from redmpc.plant import ActuatedPendulum, LinearTwoTimescale
from redmpc.ocp import (
    OcpSpec,
    SolverConfig,
    cost,
    first_input,
    gauss_newton_hessian,
    gradient,
    horizon_for_delta,
    iterate_map,
    project_box,
    rollout,
    shift_prediction,
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
    WINDOW_S = load_config()["ocp"]["horizon_window_s"]  # the benchmark's 0.5 s

    def test_benchmark_steps(self):
        assert [horizon_for_delta(d, self.WINDOW_S) for d in (0.01, 0.1, 0.2)] == [50, 5, 3]

    def test_floor_of_two(self):
        assert horizon_for_delta(0.5, self.WINDOW_S) == 2

    def test_half_rounds_up(self):
        assert horizon_for_delta(0.2, self.WINDOW_S) == 3  # 0.5/0.2 = 2.5

    @pytest.mark.parametrize("window_s,delta", [(1e307, 0.01), (1e3, 1e-4)])
    def test_step_count_bounded(self, window_s, delta):
        # 1e309 overflows to inf; 1e7 is finite but over the 1e6-step bound
        with pytest.raises(ValueError, match="horizon_window_s / delta"):
            horizon_for_delta(delta, window_s)


class TestSpecValidation:
    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon_N"):
            dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=0)

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


    @staticmethod
    def weighted(state_weight, input_weight, terminal_weight):
        return OcpSpec(
            horizon_N=2,
            state_weight=state_weight,
            input_weight=input_weight,
            terminal_weight=terminal_weight,
            input_box=(np.array([-1.0]), np.array([1.0])),
            delta=0.01,
        )

    @pytest.mark.parametrize(
        "name,weights",
        [
            ("state_weight", (np.diag([-5.0, 1.0]), np.eye(1), np.eye(2))),
            ("terminal_weight", (np.eye(2), np.eye(1), np.array([[1.0, 2.0], [2.0, 1.0]]))),  # eigenvalues -1, 3
            ("input_weight", (np.eye(2), np.zeros((1, 1)), np.eye(2))),
            ("input_weight", (np.eye(2), -np.eye(1), np.eye(2))),
        ],
        ids=["state-negative", "terminal-indefinite", "input-zero", "input-negative"],
    )
    def test_weights_must_be_definite(self, name, weights):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            self.weighted(*weights)

    def test_semidefinite_state_weights_accepted(self):
        spec = self.weighted(np.zeros((2, 2)), np.array([[1e-6]]), np.diag([1.0, 0.0]))
        assert spec.n == 2 and spec.m == 1


class TestSolverConfigValidation:
    def test_line_search_needs_a_trial(self):
        with pytest.raises(ValueError, match="max_backtracks"):
            SolverConfig(max_backtracks=0)


class TestRollout:
    def test_equilibrium(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=7)
        states = rollout(spec, PEND, [0.0, 0.0], np.zeros(7))
        assert np.array_equal(states, np.zeros((8, 2)))

    def test_single_step(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=1)
        states = rollout(spec, PEND, [0.0, 1.0], [0.0])
        assert states[1][0] == pytest.approx(0.01, abs=1e-12)
        assert states[1][1] == pytest.approx(0.984667, abs=1e-6)

    def test_two_step_chain(self):
        # Second step includes the equilibrium-current damping of the composed
        # reduced map: omega_2 = 0.008 + 0.01*(-0.008 + 0.8*(-(0.4/0.6)*0.008)).
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=2)
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
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=3)
        with pytest.raises(ValueError, match="N\\*m"):
            rollout(spec, PEND, [0.0, 0.0], np.zeros(4))


class TestCost:
    def test_zero_at_equilibrium(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=9)
        assert cost(spec, PEND, [0.0, 0.0], np.zeros(9)) == 0.0

    def test_stage_plus_terminal(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=1)
        # stage 0.1*omega^2 = 0.1, terminal 100*0.01^2 + 0.1*0.984667^2
        assert cost(spec, PEND, [0.0, 1.0], [0.0]) == pytest.approx(0.20695684, abs=1e-6)

    def test_input_cost_and_terminal(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=1)
        # 0.01*1^2 + 0.1*(0.01*0.8/0.6)^2 from the composed reduced step
        assert cost(spec, PEND, [0.0, 0.0], [1.0]) == pytest.approx(0.0100177778, abs=1e-8)


class TestGradient:
    def test_zero_at_global_minimum(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=10)
        g = gradient(spec, PEND, [0.0, 0.0], np.zeros(10))
        assert np.array_equal(g, np.zeros(10))

    def test_matches_finite_differences(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x0 = rng.uniform(-1, 1, 2)
            z = rng.uniform(-5, 5, 5)
            g = gradient(spec, PEND, x0, z)
            fd = fd_gradient(spec, PEND, x0, z)
            rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-9)
            assert rel <= 1e-6

    def test_long_horizon_matches_finite_differences(self):
        spec = load_config().ocp_spec(0.01)  # N = 50
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
    SPEC = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=1)

    def test_clamp_above(self):
        assert project_box(self.SPEC, [30.0])[0] == 24.0

    def test_interior_identity(self):
        assert project_box(self.SPEC, [5.0])[0] == 5.0

    def test_mixed(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=2)
        assert np.array_equal(project_box(spec, [-30.0, 3.0]), [-24.0, 3.0])

    def test_idempotent(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=6)
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = rng.uniform(-100, 100, 6)
            once = project_box(spec, z)
            assert np.array_equal(project_box(spec, once), once)


# x1 = x0 + u over one step and cost u^2 + (x0 + u)^2: from x0 = -2c the toy 2 (u - c)^2 + 2 c^2
TOY = LinearTwoTimescale(a_slow=0.0, b_slow=0.0, c_slow=2.0, s_fast=0.0, e_fast=0.0)
TOY_SPEC = OcpSpec(
    horizon_N=1,
    state_weight=np.zeros((1, 1)),
    input_weight=np.eye(1),
    terminal_weight=np.eye(1),
    input_box=(np.array([-24.0]), np.array([24.0])),
    delta=0.5,
)


class TestIterateMap:
    def test_fixed_step_toy(self):
        # cost u^2 + (u-1)^2, one fixed step alpha=0.25 from 0: u <- 0 - 0.25*(-2) = 0.5
        cfg = SolverConfig(step_rule="fixed", alpha0=0.25)
        z, rejected, states = iterate_map(TOY_SPEC, TOY, cfg, [-1.0], [0.0])
        assert z[0] == pytest.approx(0.5, abs=1e-15)
        assert rejected == 0 and states is None

    def test_fixed_step_is_projected_gradient_step(self):
        spec = load_config().ocp_spec(0.1)
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
        assert self._solve_toy([-2.0])[0] == pytest.approx(1.0, abs=1e-8)

    def test_active_bound_toy_minimizer(self):
        # cost 2 (u-30)^2 + const over |u| <= 24: constrained minimizer at the bound
        assert self._solve_toy([-60.0])[0] == pytest.approx(24.0, abs=1e-12)

    def test_returns_rollout_of_result(self):
        spec = load_config().ocp_spec(0.1)
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
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=12)
        res = solve_optimal(spec, PEND, CFG, [0.0, 0.0], np.zeros(12))
        assert res.iterations_used == 0
        assert res.converged
        assert np.array_equal(res.z, np.zeros(12))

    def test_converges_and_flags(self):
        spec = load_config().ocp_spec(0.01)
        res = solve_optimal(spec, PEND, CFG, [0.5, -0.3], np.zeros(50))
        assert res.converged
        assert res.projected_gradient_norm <= CFG.optimal_tol

    def test_non_convergence_flagged_not_silent(self):
        spec = load_config().ocp_spec(0.01)
        tight = SolverConfig(optimal_tol=1e-8, max_optimal_iters=2)
        res = solve_optimal(spec, PEND, tight, [0.9, 0.0], np.zeros(50))
        assert not res.converged
        assert res.iterations_used == 2


    def test_cost_never_rises(self):
        # a cold start from the state box whose fourth Newton step the box bends uphill: the full
        # step predicts a negative decrease, and taking it would raise the cost by 6.7
        spec = load_config().ocp_spec(0.01)
        rng = np.random.default_rng(3)
        for _ in range(8):
            x0, z0 = np.c_[rng.uniform(-np.pi, np.pi, 30), rng.uniform(-10, 10, 30)], rng.uniform(-36, 36, (30, 50))
        x0, z0 = x0[18], z0[18]
        values = [cost(spec, PEND, x0, project_box(spec, z0))] + [
            cost(spec, PEND, x0, solve_optimal(spec, PEND, SolverConfig(max_optimal_iters=k), x0, z0).z)
            for k in range(1, 8)
        ]
        # near the minimizer a step is accepted once its predicted decrease is below cost resolution
        resolution = 64.0 * np.finfo(float).eps
        assert all(later <= earlier * (1.0 + resolution) for earlier, later in zip(values, values[1:]))

    def test_overflowing_hessian_takes_the_gradient_step(self):
        # S_tau grows as 5001^tau, so H overflows; the gradient step's trials overflow and are rejected
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
        assert not np.isfinite(gauss_newton_hessian(spec, blowup, [0.0], z)).all()
        res = solve_optimal(spec, blowup, CFG, [0.0], z)
        assert np.array_equal(res.z, z)
        assert (res.iterations_used, res.rejected_steps, res.converged) == (1, 1, False)


class TestGivenPrediction:
    """A solver given the rollout of its start checks it as it checks its own, and leaves it unchanged."""

    SPEC = load_config().ocp_spec(0.1)  # N = 5
    X0 = np.array([0.4, -0.2])
    Z = np.full(5, 3.0)
    SOLVERS = {"iterate_map": iterate_map, "solver_map": solver_map, "solve_optimal": solve_optimal}

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_first_state_must_be_x0(self, solver):
        prediction = rollout(self.SPEC, PEND, self.X0, self.Z)
        prediction[0, 1] = np.nextafter(prediction[0, 1], 1.0)
        with pytest.raises(ValueError, match="start at x0"):
            self.SOLVERS[solver](self.SPEC, PEND, CFG, self.X0, self.Z, prediction)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_shape_checked(self, solver):
        prediction = rollout(self.SPEC, PEND, self.X0, self.Z)
        with pytest.raises(ValueError, match="prediction must have shape"):
            self.SOLVERS[solver](self.SPEC, PEND, CFG, self.X0, self.Z, prediction[:-1])

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_non_finite_raises_as_an_overflow(self, solver):
        prediction = rollout(self.SPEC, PEND, [self.X0, self.X0], [self.Z, self.Z])
        prediction[1, 3, 0] = np.inf
        with pytest.raises(FloatingPointError, match="step 3 in lane 1"):
            self.SOLVERS[solver](self.SPEC, PEND, CFG, [self.X0, self.X0], [self.Z, self.Z], prediction)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_left_unchanged(self, solver):
        prediction = rollout(self.SPEC, PEND, self.X0, self.Z)
        kept = prediction.copy()
        self.SOLVERS[solver](self.SPEC, PEND, CFG, self.X0, self.Z, prediction)
        assert np.array_equal(prediction, kept)


class TestSolverMap:
    def test_fixed_point_at_minimizer(self):
        spec = load_config().ocp_spec(0.01)
        rng = np.random.default_rng(10)
        for _ in range(3):
            x0 = rng.uniform(-0.8, 0.8, 2)
            star = solve_optimal(spec, PEND, CFG, x0, np.zeros(50))
            assert star.converged
            after = solver_map(spec, PEND, CFG, x0, star.z)
            assert np.linalg.norm(after.z - star.z) <= 1e-8

    def test_descent_with_backtracking(self):
        spec = load_config().ocp_spec(0.01)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x0 = rng.uniform(-1, 1, 2)
            z = rng.uniform(-10, 10, 50)
            out = solver_map(spec, PEND, CFG, x0, z)
            assert cost(spec, PEND, x0, out.z) <= cost(spec, PEND, x0, project_box(spec, z)) + 1e-12

    def test_budget_respected_and_in_box(self):
        spec = load_config().ocp_spec(0.1)
        cfg = SolverConfig(iters_per_sample=3)
        out = solver_map(spec, PEND, cfg, [1.0, 0.0], np.zeros(5))
        assert out.iterations_used == 3
        lo, hi = spec.input_box
        assert np.all(out.z >= lo[0] - 1e-15) and np.all(out.z <= hi[0] + 1e-15)

    def test_contraction_toward_minimizer(self):
        # squared distance to the minimizer shrinks by a positive factor
        spec = load_config().ocp_spec(0.01)
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

    def test_shift_batch_rows(self):
        assert np.array_equal(warm_start_shift([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], 1), [[1.0, 2.0, 2.0], [4.0, 5.0, 5.0]])
        z = np.random.default_rng(3).normal(size=(4, 6))
        shifted = warm_start_shift(z, 2)
        assert shifted.shape == z.shape
        for k in range(len(z)):
            lone = warm_start_shift(z[k], 2)
            assert np.array_equal(shifted[k], lone)
            # one sequence: the drop-first, repeat-last concatenation, bit for bit
            assert np.array_equal(lone, np.concatenate([z[k, 2:], z[k, -2:]]))

    @pytest.mark.parametrize("case", ["pendulum-N50", "linear"])
    def test_shift_prediction_is_the_rollout_of_the_shift(self, case):
        # on the reduced plant the next state is the prediction's second state
        spec, model, n, u_max = REFERENCE_CASES[case]
        rng = np.random.default_rng(21)
        x0, z = rng.uniform(-1, 1, (3, n)), rng.uniform(-u_max, u_max, (3, spec.horizon_N * spec.m))
        shifted = shift_prediction(spec, model, rollout(spec, model, x0, z), z)
        x_next = model.reduced_map(x0, first_input(z, spec.m), spec.delta)
        assert np.array_equal(shifted, rollout(spec, model, x_next, warm_start_shift(z, spec.m)))
        for k in range(3):
            lone = shift_prediction(spec, model, rollout(spec, model, x0[k], z[k]), z[k])
            assert np.array_equal(lone, shifted[k])

    def test_shift_bad_length(self):
        with pytest.raises(ValueError, match="multiple"):
            warm_start_shift([1.0, 2.0, 3.0], 2)


class TestProjectedGradientNorm:
    def test_zero_at_constrained_stationary_point(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=2)
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
    the whole horizon, which a projected Newton iteration's Hessian shares, and a
    batch makes the calls of one lane."""

    SPEC = load_config().ocp_spec(0.01)  # N = 50
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

    def test_solver_map_given_the_prediction(self):
        # the prediction stands in for the start's rollout: the accepted first trial's remains
        prediction = rollout(self.SPEC, PEND, self.X0, np.zeros(50))
        model = CountingPendulum()
        out = solver_map(self.SPEC, model, CFG, self.X0, np.zeros(50), prediction)
        assert out.rejected_steps == 0
        assert (model.maps, model.jacobians) == (50, 2)

    def assert_solve_counts(self, x0, z, given=False):
        prediction = rollout(self.SPEC, PEND, x0, z) if given else None
        model = CountingPendulum()
        out = solve_optimal(self.SPEC, model, CFG, x0, z, prediction)
        assert out.converged and out.rejected_steps == 0 and out.iterations_used >= 3
        # the start unless given, then per iteration one trial (the full step) and the Jacobians at the accepted trial
        start = 0 if given else 1
        assert (model.maps, model.jacobians) == (50 * (start + out.iterations_used), 1 + out.iterations_used)

    def test_solve_optimal(self):
        self.assert_solve_counts(self.X0, np.zeros(50))

    def test_solve_optimal_given_the_prediction(self):
        self.assert_solve_counts(self.X0, np.zeros(50), given=True)

    BATCH = [X0, [-0.3, 0.2], [0.5, -0.5]]  # lanes that converge after 3, 3 and 4 iterations

    def test_solve_optimal_batch_makes_the_calls_of_one_lane(self):
        self.assert_solve_counts(self.BATCH, np.zeros((3, 50)))

    def test_solve_optimal_batch_given_the_prediction(self):
        self.assert_solve_counts(self.BATCH, np.zeros((3, 50)), given=True)


def reference_armijo(spec, model, x0, z, g, step, j_ref, alpha, config, noise_floor=-np.inf):
    for _ in range(config.max_backtracks):
        candidate = project_box(spec, z - alpha * step)
        decrease = float(g @ (z - candidate))
        j_cand = cost(spec, model, x0, candidate)
        if decrease >= 0.0 and (j_cand <= j_ref - config.armijo_c * decrease or config.armijo_c * decrease <= noise_floor):
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
        step = reference_armijo(spec, model, x0, z, g, g, cost(spec, model, x0, z), config.alpha0, config)
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
    """Projected Newton on the Gauss-Newton Hessian: a Newton step on the free inputs, a gradient
    step on those within the projected-gradient norm of a bound they press against."""
    z = project_box(spec, z)
    lo, hi = (np.tile(bound, spec.horizon_N) for bound in spec.input_box)
    g, j = gradient(spec, model, x0, z), cost(spec, model, x0, z)
    pg = float(np.linalg.norm(z - project_box(spec, z - g)))
    iters = rejected = 0
    while pg > config.optimal_tol and iters < config.max_optimal_iters:
        iters += 1
        hess = gauss_newton_hessian(spec, model, x0, z)
        if not np.isfinite(hess).all():
            hess = np.eye(z.size)
        active = np.flatnonzero(((z <= lo + pg) & (g > 0.0)) | ((z >= hi - pg) & (g < 0.0)))
        hess[active, :] = 0.0
        hess[:, active] = 0.0
        hess[active, active] = 1.0
        step = np.linalg.solve(hess, g)
        noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(j))
        trial = reference_armijo(spec, model, x0, z, g, step, j, config.alpha0, config, noise_floor)
        if trial is None:
            rejected += 1
            break
        z, j = trial
        g = gradient(spec, model, x0, z)
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
    "pendulum-N5": (load_config().ocp_spec(0.1), PEND, 2, 24.0),
    "pendulum-N50": (load_config().ocp_spec(0.01), PEND, 2, 24.0),
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
    def assert_same(state, ref, spec, model, x0):
        z, pg, iters, rejected, converged = ref
        assert np.array_equal(state.z, z)
        assert np.array_equal(state.projected_gradient_norm, pg)
        assert (state.iterations_used, state.rejected_steps, state.converged) == (iters, rejected, converged)
        assert state.value == cost(spec, model, x0, z)
        assert np.array_equal(state.prediction, rollout(spec, model, x0, z))

    @staticmethod
    def assert_same_given_prediction(solver, spec, model, config, x0, z):
        """Passing the rollout of the start changes nothing, whether or not the projection moves z."""
        for start in (z, project_box(spec, z)):
            plain = solver(spec, model, config, x0, start)
            given = solver(spec, model, config, x0, start, rollout(spec, model, x0, start))
            for field in dataclasses.fields(plain):
                assert np.array_equal(getattr(given, field.name), getattr(plain, field.name)), field.name

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
            given = iterate_map(spec, model, config, x0, z, rollout(spec, model, x0, z))
            assert np.array_equal(given[0], z_next) and given[1] == rejected
            state = solver_map(spec, model, config, x0, z)
            self.assert_same(state, reference_solver_map(spec, model, config, x0, z), spec, model, x0)
            self.assert_same_given_prediction(solver_map, spec, model, config, x0, z)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_solve_optimal(self, case):
        # to tolerance; out of budget (the pendulum: one Newton step solves the linear problem);
        # a one-trial line search from too long a step, which stops the solve
        configs = (SolverConfig(), SolverConfig(max_optimal_iters=2), SolverConfig(alpha0=8.0, max_backtracks=1))
        for config in configs:
            for spec, model, x0, z in self.samples(case, 15):
                self.assert_same(
                    solve_optimal(spec, model, config, x0, z),
                    reference_solve_optimal(spec, model, config, x0, z),
                    spec,
                    model,
                    x0,
                )
                self.assert_same_given_prediction(solve_optimal, spec, model, config, x0, z)


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


def loop_hessian(spec, model, x0, z):
    """Per-step reference: the sensitivities dx_tau/dz carried along by reduced_jacobians on (n,) vectors."""
    states, inputs = loop_rollout(spec, model, x0, z), np.reshape(z, (spec.horizon_N, spec.m))
    N, m = spec.horizon_N, spec.m
    sens = np.zeros((model.n, N * m))
    hess = 2.0 * np.kron(np.eye(N), spec.input_weight)
    for tau in range(N):
        jac_x, jac_u = model.reduced_jacobians(states[tau], inputs[tau], spec.delta)
        sens = jac_x @ sens
        sens[:, tau * m : (tau + 1) * m] += jac_u
        weight = spec.terminal_weight if tau == N - 1 else spec.state_weight
        hess += 2.0 * sens.T @ weight @ sens
    return hess


class TestGaussNewtonHessian:
    @pytest.mark.parametrize("horizon", [5, 30])
    def test_exact_for_linear_model(self, horizon):
        # the gradient is affine in z, so its central differences are exact up to rounding
        spec, model = dataclasses.replace(linear_case_spec(), horizon_N=horizon), LinearTwoTimescale()
        rng = np.random.default_rng(19)
        x0, z, h = rng.uniform(-1, 1, 1), rng.uniform(-15, 15, horizon), 1e-3
        fd = np.array(
            [(gradient(spec, model, x0, z + h * e) - gradient(spec, model, x0, z - h * e)) / (2 * h) for e in np.eye(horizon)]
        )
        hess = gauss_newton_hessian(spec, model, x0, z)
        assert np.max(np.abs(hess - fd)) <= 1e-9 * np.max(np.abs(hess))

    def test_positive_definite(self):
        spec = load_config().ocp_spec(0.01)
        hess = gauss_newton_hessian(spec, PEND, [0.9, -2.0], np.random.default_rng(20).uniform(-24, 24, 50))
        assert np.linalg.eigvalsh(0.5 * (hess + hess.T))[0] >= 2.0 * spec.input_weight[0, 0] * (1 - 1e-12)


class TestBatchAxis:
    """Lane k of a B-batch equals its B = 1 call bit for bit, and the batched
    kernels (the Gauss-Newton Hessian among them) match the per-step loops
    above to 1e-12 relative."""

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
        kernels = {rollout: loop_rollout, cost: loop_cost, gradient: loop_gradient, gauss_newton_hessian: loop_hessian}
        batched = {fn: fn(spec, model, x0, z) for fn in kernels}
        for fn, loop in kernels.items():
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
            assert state.value[k] == lone.value == cost(spec, model, x0[k], lone.z)
            assert np.array_equal(state.prediction[k], rollout(spec, model, x0[k], lone.z))
        assert rejected == state.rejected_steps == lone_rejected
        given = solver_map(spec, model, config, x0, z, rollout(spec, model, x0, z))
        for field in dataclasses.fields(state):
            assert np.array_equal(getattr(given, field.name), getattr(state, field.name)), field.name

    def test_solve_optimal_mixed_batch(self):
        # lanes that reach tolerance, stop at a rejected step, or run out of budget
        spec, config = load_config().ocp_spec(0.1), SolverConfig(max_backtracks=1, max_optimal_iters=3)
        rng = np.random.default_rng(16)
        x0, z = rng.uniform(-1, 1, (12, 2)), rng.uniform(-36, 36, (12, 5))
        state = solve_optimal(spec, PEND, config, x0, z)
        lone = [solve_optimal(spec, PEND, config, x0[k], z[k]) for k in range(12)]
        outcomes = {"tolerance" if s.converged else "rejected" if s.rejected_steps else "budget" for s in lone}
        assert outcomes == {"tolerance", "rejected", "budget"}
        for k, s in enumerate(lone):
            assert np.array_equal(state.z[k], s.z)
            assert np.array_equal(state.projected_gradient_norm[k], s.projected_gradient_norm)
            # a lane that stops at a rejected step reports its last accepted point, not the failed trial
            assert state.value[k] == s.value == cost(spec, PEND, x0[k], s.z)
            assert np.array_equal(state.prediction[k], rollout(spec, PEND, x0[k], s.z))
            assert np.array_equal(s.prediction, state.prediction[k])
        assert state.iterations_used == max(s.iterations_used for s in lone) == config.max_optimal_iters
        assert state.rejected_steps == sum(s.rejected_steps for s in lone)
        assert state.converged is False
