import dataclasses
import types

import redmpc.simulate as simulate_module

import numpy as np
import pytest

from redmpc.config import load_config
from redmpc.plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams
from redmpc.ocp import OcpSpec, SolverConfig, solve_optimal, solver_map
from redmpc.simulate import (
    COMPARISON_HEADER,
    STRATEGIES,
    TRACE_HEADER,
    SimConfig,
    SimTrace,
    Strategy,
    _norm,
    compare_strategies,
    fit_rate,
    simulate,
    write_comparison_csv,
    write_gnuplot_script,
    write_trace_csv,
)

PEND = ActuatedPendulum()
CFG = SolverConfig()


def synthetic_trace(errors, delta=0.01):
    """Trace carrying a prescribed |theta error| sequence (for fit tests)."""
    n = len(errors)
    e = np.asarray(errors, dtype=float)
    return SimTrace(
        delta=delta,
        strategy=STRATEGIES["proposed"],
        step=np.arange(n),
        time_s=np.arange(n) * delta,
        x=np.column_stack([e, np.zeros(n)]),
        xi=np.zeros((n, 1)),
        u=np.zeros((n, 1)),
        err_norm=e.copy(),
        err_theta=e.copy(),
        stage_cost=np.zeros(n),
        solver_iters=np.ones(n),
        pg_norm=np.zeros(n),
        rejected_steps=np.zeros(n, dtype=int),
        final_x=np.array([e[-1], 0.0]),
        final_xi=np.zeros(1),
        x_star=np.zeros(2),
    )


class TestFitRate:
    def test_pure_exponential(self):
        t = np.arange(100)
        fit = fit_rate(synthetic_trace(2.0 * 0.9**t), skip_fraction=0.0)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-9)
        assert fit.rate_per_step == pytest.approx(np.log(0.9), abs=1e-9)
        assert fit.rate_per_second == pytest.approx(np.log(0.9) / 0.01, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_error_has_zero_rate(self):
        fit = fit_rate(synthetic_trace(np.full(50, 0.5)))
        assert fit.rate_per_step == pytest.approx(0.0, abs=1e-12)

    def test_noisy_exponential(self):
        rng = np.random.default_rng(42)
        t = np.arange(100)
        e = 3.0 * 0.5**t * (1.0 + 0.01 * rng.standard_normal(100))
        fit = fit_rate(synthetic_trace(e), skip_fraction=0.0)
        assert fit.rate_per_step == pytest.approx(np.log(0.5), abs=0.02)

    def test_refuses_without_enough_samples(self):
        with pytest.raises(ValueError, match="refused"):
            fit_rate(synthetic_trace(np.ones(5)))

    def test_refuses_all_zero(self):
        with pytest.raises(ValueError, match="refused"):
            fit_rate(synthetic_trace(np.zeros(100)))

    def test_skip_excludes_transient(self):
        t = np.arange(100, dtype=float)
        e = np.where(t < 50, 1.0, 2.0 * 0.9 ** (t - 0.0))
        fit = fit_rate(synthetic_trace(e), skip_fraction=0.5)
        assert fit.rate_per_step == pytest.approx(np.log(0.9), abs=1e-9)


def diverging_linear_run():
    """Arguments of ``simulate`` for a linear plant whose slow state overflows within a few steps."""
    blowup = LinearTwoTimescale(a_slow=1e200, b_slow=0.0, c_slow=1.0, s_fast=0.0, e_fast=0.0)
    spec = OcpSpec(
        horizon_N=2,
        state_weight=np.eye(1),
        input_weight=np.eye(1),
        terminal_weight=np.eye(1),
        input_box=(np.array([-1.0]), np.array([1.0])),
        delta=0.5,
    )
    return blowup, spec, CFG, SimConfig(delta=0.5, duration_s=5.0, x0=(1.0,), xi0=(0.0,))


def test_package_attribute_is_the_module():
    import redmpc.simulate as module

    assert isinstance(module, types.ModuleType)


class TestSimulate:
    def test_equilibrium_is_invariant_all_strategies(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=10)
        for strategy in STRATEGIES.values():
            cfg = SimConfig(delta=0.01, duration_s=0.5, x0=(0.0, 0.0), strategy=strategy)
            trace = simulate(PEND, spec, CFG, cfg)
            assert np.all(trace.x == 0.0)
            assert np.all(trace.u == 0.0)
            assert np.all(trace.stage_cost == 0.0)
            assert not trace.diverged

    def test_determinism_bit_identical(self):
        spec = load_config().ocp_spec(0.1)
        cfg = SimConfig(delta=0.1, duration_s=3.0)
        a = simulate(PEND, spec, CFG, cfg)
        b = simulate(PEND, spec, CFG, cfg)
        for name in ("x", "xi", "u", "err_norm", "err_theta", "stage_cost", "pg_norm"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
    def test_opt_full_iterations_do_not_depend_on_the_gradient_step(self, step_rule):
        # alpha0 is the fixed-budget map's step; the solve to tolerance always tries the full Newton step first
        spec = load_config().ocp_spec(0.01)
        sim_config = SimConfig(delta=0.01, duration_s=0.3, strategy=STRATEGIES["opt-full"])
        default = simulate(PEND, spec, CFG, sim_config)
        short = simulate(PEND, spec, SolverConfig(step_rule=step_rule, alpha0=0.3), sim_config)
        assert np.array_equal(short.solver_iters, default.solver_iters)
        assert np.array_equal(short.x, default.x)

    def test_inputs_respect_saturation(self):
        spec = load_config().ocp_spec(0.1)
        trace = simulate(PEND, spec, CFG, SimConfig(delta=0.1, duration_s=4.0))
        assert np.all(np.abs(trace.u) <= 24.0 + 1e-12)

    @pytest.mark.parametrize("duration_s,delta", [(1e308, 0.01), (1e6, 1e-3)])
    def test_step_count_bounded(self, duration_s, delta):
        # 1e310 overflows to inf; 1e9 is finite but over the 1e7-step bound
        with pytest.raises(ValueError, match="duration_s / delta"):
            SimConfig(delta=delta, duration_s=duration_s)

    def test_delta_mismatch_rejected(self):
        spec = load_config().ocp_spec(0.1)
        with pytest.raises(ValueError, match="does not match"):
            simulate(PEND, spec, CFG, SimConfig(delta=0.01))

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_non_finite_warm_start_rejected(self, strategy):
        spec = load_config().ocp_spec(0.01)
        cfg = SimConfig(delta=0.01, duration_s=0.1, z0=np.full(spec.horizon_N, np.nan), strategy=STRATEGIES[strategy])
        with pytest.raises(ValueError, match="z0 contains non-finite"):
            simulate(PEND, spec, CFG, cfg)

    def test_divergence_truncates_and_flags(self):
        args = diverging_linear_run()
        trace = simulate(*args)
        assert trace.diverged
        assert trace.step.size < args[-1].steps

    def test_reduced_plant_records_equilibrium_current(self):
        spec = load_config().ocp_spec(0.1)
        cfg = SimConfig(delta=0.1, duration_s=1.0, strategy=STRATEGIES["subopt-full"])
        trace = simulate(PEND, spec, CFG, cfg)
        for i in trace.step:
            xi_eq = PEND.equilibrium_map(trace.x[i], trace.u[i])
            assert trace.xi[i, 0] == pytest.approx(xi_eq[0], abs=1e-12)

    def test_full_plant_current_lags_equilibrium(self):
        spec = load_config().ocp_spec(0.1)
        trace = simulate(PEND, spec, CFG, SimConfig(delta=0.1, duration_s=1.0))
        lags = [
            abs(trace.xi[i, 0] - PEND.equilibrium_map(trace.x[i], trace.u[i])[0])
            for i in trace.step
        ]
        assert max(lags) > 1e-3  # mismatch is what the reduced model ignores


class TestDerivedColumns:
    """The columns computed after the loop equal their per-row definitions, bit for bit."""

    @staticmethod
    def assert_rows_match(trace, spec):
        Q, Rw = spec.state_weight, spec.input_weight
        assert np.array_equal(trace.step, np.arange(trace.step.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(trace.step.size):
                e, u = trace.x[k] - trace.x_star, trace.u[k]
                assert trace.time_s[k] == k * trace.delta
                assert trace.err_norm[k] == _norm(e)
                assert trace.err_theta[k] == abs(trace.x[k, 0] - trace.x_star[0])
                assert trace.stage_cost[k] == float(e @ Q @ e) + float(u @ Rw @ u)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_pendulum_strategies(self, strategy):
        spec = load_config().ocp_spec(0.1)
        trace = simulate(PEND, spec, CFG, SimConfig(delta=0.1, duration_s=2.0, strategy=STRATEGIES[strategy]))
        self.assert_rows_match(trace, spec)

    def test_diverging_linear_run(self):
        _, spec, _, _ = args = diverging_linear_run()
        trace = simulate(*args)
        assert trace.diverged
        self.assert_rows_match(trace, spec)

    def test_overflowing_pendulum_run(self):
        # a fast loop that does not contract: the states reach ~1e300 before the
        # run diverges, so squared norms overflow and the rows take the hypot path
        with pytest.warns(UserWarning, match="does not contract"):
            model = ActuatedPendulum(PendulumParams(L_tilde=0.1))
        spec = load_config().ocp_spec(0.01)
        trace = simulate(model, spec, CFG, SimConfig(delta=0.01, duration_s=6.0))
        assert trace.diverged
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(trace.x, axis=1)).any()
        self.assert_rows_match(trace, spec)


def reference_closed_loop(model, spec, solver_config, sim_config):
    """``simulate``'s recorded arrays from a plain loop in which every solve rolls out its own start."""
    full = sim_config.strategy.plant_kind == "full_order"
    update = solver_map if sim_config.strategy.solver_kind == "suboptimal" else solve_optimal
    m, delta = model.m, sim_config.delta
    x, xi = np.array(sim_config.x0, dtype=float), np.array(sim_config.xi0, dtype=float)
    z = np.zeros(spec.horizon_N * m)
    rec = {name: [] for name in ("x", "xi", "u", "solver_iters", "pg_norm", "rejected_steps")}
    diverged = False
    for _ in range(sim_config.steps):
        u = z[:m].copy()
        rec["x"].append(x)
        rec["xi"].append(xi if full else model.equilibrium_map(x, u))
        rec["u"].append(u)
        diagnostics = (0, 0.0, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            if full:
                x, xi = model.target_map(x, xi, u, delta), model.extra_map(xi, x, u, delta)
            else:
                x = model.reduced_map(x, u, delta)
        if np.isfinite(x).all() and np.isfinite(xi).all():
            try:
                state = update(spec, model, solver_config, x, np.concatenate([z[m:], z[-m:]]))
                z, diagnostics = state.z, (state.iterations_used, state.projected_gradient_norm, state.rejected_steps)
            except FloatingPointError:
                diverged = True
        else:
            diverged = True
        for name, value in zip(("solver_iters", "pg_norm", "rejected_steps"), diagnostics):
            rec[name].append(value)
        if diverged:
            break
    arrays = {name: np.array(values) for name, values in rec.items()}
    return arrays, x, xi if full else arrays["xi"][-1], diverged


class TestReferenceClosedLoop:
    """``simulate``, whose reduced-plant solves start from the shifted prediction, equals a plain loop
    over the public solvers bit for bit, in every array of its trace."""

    CONFIGS = {
        "default": {},
        "short-backtracking": {"alpha0": 8.0, "max_backtracks": 2},
        "fixed": {"step_rule": "fixed", "alpha0": 0.3},
        "three-iterations": {"iters_per_sample": 3},
    }

    @staticmethod
    def assert_same(model, spec, solver_config, sim_config):
        trace = simulate(model, spec, solver_config, sim_config)
        arrays, final_x, final_xi, diverged = reference_closed_loop(model, spec, solver_config, sim_config)
        for name, values in arrays.items():
            assert np.array_equal(getattr(trace, name), values.reshape(getattr(trace, name).shape)), name
        assert np.array_equal(trace.final_x, final_x) and np.array_equal(trace.final_xi, final_xi)
        assert (trace.diverged, trace.diverged_at) == (diverged, trace.step.size - 1 if diverged else None)
        TestDerivedColumns.assert_rows_match(trace, spec)
        return trace

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("delta,duration_s", [(0.01, 0.3), (0.1, 3.0)])
    def test_pendulum(self, strategy, config, delta, duration_s):
        sim_config = SimConfig(delta=delta, duration_s=duration_s, strategy=STRATEGIES[strategy])
        solver_config = SolverConfig(**self.CONFIGS[config])
        self.assert_same(PEND, load_config().ocp_spec(delta), solver_config, sim_config)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_diverging_run(self, strategy):
        model, spec, solver_config, sim_config = diverging_linear_run()
        sim_config = dataclasses.replace(sim_config, strategy=STRATEGIES[strategy])
        trace = self.assert_same(model, spec, solver_config, sim_config)
        assert trace.diverged
        # the plant step itself overflows, before any solve
        overflowing = LinearTwoTimescale(a_slow=1e308)
        trace = self.assert_same(overflowing, spec, solver_config, dataclasses.replace(sim_config, x0=(10.0,)))
        assert trace.diverged_at == 0

    def test_rejected_steps_recorded(self):
        sim_config = SimConfig(delta=0.1, duration_s=3.0, strategy=STRATEGIES["subopt-full"])
        solver_config = SolverConfig(**self.CONFIGS["short-backtracking"])
        trace = simulate(PEND, load_config().ocp_spec(0.1), solver_config, sim_config)
        assert trace.rejected_steps.shape == trace.step.shape and trace.rejected_steps.sum() > 0

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_reduced_plant_solves_are_given_the_prediction(self, strategy, monkeypatch):
        given = []

        def recording(solver):
            def call(spec, model, config, x0, z, prediction=None):
                given.append(prediction is not None)
                return solver(spec, model, config, x0, z, prediction)

            return call

        monkeypatch.setattr(simulate_module, "solver_map", recording(solver_map))
        monkeypatch.setattr(simulate_module, "solve_optimal", recording(solve_optimal))
        sim_config = SimConfig(delta=0.1, duration_s=1.0, strategy=STRATEGIES[strategy])
        simulate(PEND, load_config().ocp_spec(0.1), CFG, sim_config)
        reduced = STRATEGIES[strategy].plant_kind == "reduced_order"
        assert given == [False] + [reduced] * 9


class TestStrategy:
    def test_labels(self):
        assert STRATEGIES["proposed"].plant_kind == "full_order"
        assert STRATEGIES["subopt-full"] == Strategy("reduced_order", "suboptimal")
        assert STRATEGIES["opt-full"] == Strategy("reduced_order", "optimal")

    def test_validation(self):
        with pytest.raises(ValueError, match="plant_kind"):
            Strategy("full", "optimal")
        with pytest.raises(ValueError, match="solver_kind"):
            Strategy("full_order", "bogus")


class TestCompareStrategies:
    def test_equilibrium_rows_all_zero(self):
        spec = load_config().ocp_spec(0.1)
        base = SimConfig(delta=0.1, duration_s=2.0, x0=(0.0, 0.0))
        rows = compare_strategies(PEND, [spec], CFG, base)
        assert len(rows) == 3
        for r in rows:
            assert r.final_err_theta == 0.0
            assert r.rate_per_s == 0.0
            assert r.r2 == 0.0
            assert not r.diverged

    def test_row_grid(self):
        base = SimConfig(delta=0.1, duration_s=1.0)
        rows = compare_strategies(PEND, [load_config().ocp_spec(0.1), load_config().ocp_spec(0.2)], CFG, base)
        assert len(rows) == 6
        assert [r.delta for r in rows] == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            compare_strategies(PEND, [], CFG, SimConfig(delta=0.1))


class TestCsvOutputs:
    def test_trace_schema(self, tmp_path):
        spec = load_config().ocp_spec(0.1)
        trace = simulate(PEND, spec, CFG, SimConfig(delta=0.1, duration_s=1.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == trace.step.size + 1
        first = lines[1].split(",")
        assert len(first) == len(TRACE_HEADER.split(","))
        assert first[0] == "0"

    def test_comparison_schema(self, tmp_path):
        spec = load_config().ocp_spec(0.2)
        rows = compare_strategies(PEND, [spec], CFG, SimConfig(delta=0.2, duration_s=1.0))
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COMPARISON_HEADER
        assert len(lines) == 4
        assert lines[1].split(",")[1:3] == ["full", "suboptimal"]

    def test_gnuplot_script_references_csvs(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_gnuplot_script(path, trace_csv="trace.csv", comparison_csv="cmp.csv")
        text = path.read_text()
        assert "trace.csv" in text and "cmp.csv" in text and "logscale" in text

    def test_trace_csv_requires_pendulum_shape(self, tmp_path):
        lin = LinearTwoTimescale()
        spec = OcpSpec(
            horizon_N=2,
            state_weight=np.eye(1),
            input_weight=np.eye(1),
            terminal_weight=np.eye(1),
            input_box=(np.array([-1.0]), np.array([1.0])),
            delta=0.1,
        )
        trace = simulate(lin, spec, CFG, SimConfig(delta=0.1, duration_s=0.5, x0=(0.1,), xi0=(0.0,)))
        with pytest.raises(ValueError, match="pendulum"):
            write_trace_csv(trace, tmp_path / "t.csv")


class TestErrorEnvelope:
    def test_envelope_nonincreasing_after_transient(self):
        # Exponential-stability surrogate at the well-separated timescale: the
        # forward-looking envelope of |theta| never grows past the first 10%
        # of steps, and it keeps shrinking.
        spec = load_config().ocp_spec(0.01)
        trace = simulate(PEND, spec, CFG, SimConfig(delta=0.01, duration_s=6.0))
        e = trace.err_theta
        env = np.maximum.accumulate(e[::-1])[::-1]  # max over s >= t
        start = e.size // 10
        tail = env[start:]
        assert np.all(np.diff(tail) <= 0.0)
        mid = tail.size // 2
        assert tail[mid] <= 0.5 * tail[0]


class TestEquilibriumStart:
    def test_minimizer_at_origin_is_zero(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=20)
        star = solve_optimal(spec, PEND, CFG, [0.0, 0.0], np.zeros(20))
        assert np.array_equal(star.z, np.zeros(20))

    def test_thousand_steps_stay_at_equilibrium(self):
        spec = dataclasses.replace(load_config().ocp_spec(0.01), horizon_N=10)
        cfg = SimConfig(delta=0.01, duration_s=10.0, x0=(0.0, 0.0))
        trace = simulate(PEND, spec, CFG, cfg)
        assert trace.step.size == 1000
        assert float(np.max(np.abs(trace.x))) <= 1e-10
