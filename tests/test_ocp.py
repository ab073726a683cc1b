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
    make_ocp_spec,
    pgd_step,
    project_box,
    projected_gradient_norm,
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


class TestPgdCore:
    def test_fixed_step_toy(self):
        # cost (u-1)^2, one fixed step alpha=0.25 from 0: u <- 0 - 0.25*(-2) = 0.5
        z, accepted = pgd_step(
            np.array([0.0]),
            grad_fn=lambda u: 2 * (u - 1.0),
            cost_fn=lambda u: float((u[0] - 1.0) ** 2),
            projector=lambda u: u,
            rule="fixed",
            alpha0=0.25,
        )
        assert accepted and z[0] == pytest.approx(0.5, abs=1e-15)

    def _solve_toy(self, cost_fn, grad_fn, projector, z0, tol=1e-10, iters=10_000):
        z = projector(np.asarray(z0, dtype=float))
        for _ in range(iters):
            g = grad_fn(z)
            if np.linalg.norm(z - projector(z - g)) <= tol:
                break
            z, accepted = pgd_step(z, grad_fn, cost_fn, projector, rule="backtracking", alpha0=1.0)
            if not accepted:
                break
        return z

    def test_unconstrained_toy_minimizer(self):
        z = self._solve_toy(
            lambda u: float((u[0] - 1.0) ** 2),
            lambda u: 2 * (u - 1.0),
            lambda u: u,
            [0.0],
        )
        assert z[0] == pytest.approx(1.0, abs=1e-8)

    def test_active_bound_toy_minimizer(self):
        # cost (u-30)^2 over |u| <= 24: constrained minimizer at the bound
        z = self._solve_toy(
            lambda u: float((u[0] - 30.0) ** 2),
            lambda u: 2 * (u - 30.0),
            lambda u: np.clip(u, -24.0, 24.0),
            [0.0],
        )
        assert z[0] == pytest.approx(24.0, abs=1e-12)


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
        star = solve_optimal(spec, PEND, SolverConfig(optimal_tol=1e-10), [0.2, 0.1], np.zeros(2))
        assert projected_gradient_norm(spec, PEND, [0.2, 0.1], star.z) <= 1e-10
