import dataclasses
import math

import numpy as np
import pytest

from redmpc.certify import SamplingPlan
from redmpc.config import load_config
from redmpc.ocp import SolverConfig, horizon_for_delta
from redmpc.plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams, _as_vector, validate_delta
from redmpc.simulate import SimConfig

PEND = ActuatedPendulum()


def vec(*values):
    return np.array(values, dtype=float)


class TestStepTarget:
    def test_origin_fixed_point(self):
        out = PEND.target_map(vec(0.0, 0.0), vec(0.0), vec(0.0), 0.01)
        assert np.array_equal(out, np.zeros(2))

    def test_gravity_term(self):
        # omega' = 0 + delta * (-(m g l / J) sin(pi/2)) = -0.01 * 9.81
        out = PEND.target_map(vec(math.pi / 2, 0.0), vec(0.0), vec(0.0), 0.01)
        assert out[0] == pytest.approx(1.570796, abs=1e-6)
        assert out[1] == pytest.approx(-0.0981, abs=1e-12)

    def test_friction_term(self):
        # theta' = delta * omega; omega' = omega * (1 - delta * beta / J)
        out = PEND.target_map(vec(0.0, 1.0), vec(0.0), vec(0.0), 0.01)
        assert out[0] == pytest.approx(0.01, abs=1e-15)
        assert out[1] == pytest.approx(0.99, abs=1e-15)


class TestStepExtra:
    def test_zero_fixed_point(self):
        assert PEND.extra_map(vec(0.0), vec(0.0, 0.0), vec(0.0), 0.01)[0] == 0.0

    def test_contraction_factor(self):
        assert PEND.extra_map(vec(1.0), vec(0.0, 0.0), vec(0.0), 0.01)[0] == pytest.approx(0.4, abs=1e-15)

    def test_back_emf_and_input(self):
        assert PEND.extra_map(vec(0.0), vec(0.0, 1.0), vec(0.6), 0.01)[0] == pytest.approx(0.2, abs=1e-15)

    def test_delta_independent(self):
        a = PEND.extra_map(vec(2.0), vec(0.3, -1.0), vec(5.0), 0.01)
        b = PEND.extra_map(vec(2.0), vec(0.3, -1.0), vec(5.0), 0.2)
        assert np.array_equal(a, b)


class TestEquilibriumExtra:
    def test_origin(self):
        assert PEND.equilibrium_map(vec(0.0, 0.0), vec(0.0))[0] == 0.0

    def test_back_emf(self):
        assert PEND.equilibrium_map(vec(0.0, 1.0), vec(0.0))[0] == pytest.approx(-0.666667, abs=1e-6)

    def test_input_gain(self):
        assert PEND.equilibrium_map(vec(0.0, 0.0), vec(0.6))[0] == pytest.approx(1.0, abs=1e-12)


class TestReducedStep:
    def test_origin_fixed_point(self):
        for delta in (0.01, 0.1, 0.2):
            assert np.array_equal(PEND.reduced_map(vec(0.0, 0.0), vec(0.0), delta), np.zeros(2))

    def test_back_emf_damping(self):
        # xi_eq = -2/3, so omega' = 1 + 0.01 * (-1 + 0.8 * (-2/3))
        out = PEND.reduced_map(vec(0.0, 1.0), vec(0.0), 0.01)
        assert out[0] == pytest.approx(0.01, abs=1e-12)
        assert out[1] == pytest.approx(0.984667, abs=1e-6)

    def test_input_path(self):
        out = PEND.reduced_map(vec(0.0, 0.0), vec(0.6), 0.01)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.008, abs=1e-12)

    def test_is_composition_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform([-math.pi, -10], [math.pi, 10])
            u = rng.uniform(-24, 24, 1)
            delta = rng.uniform(1e-3, 0.2)
            direct = PEND.reduced_map(x, u, delta)
            composed = PEND.target_map(x, PEND.equilibrium_map(x, u), u, delta)
            assert np.array_equal(direct, composed)

    @pytest.mark.parametrize("model", [PEND, LinearTwoTimescale()], ids=["pendulum", "linear"])
    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.2])
    def test_float_kernel_is_reduced_map_bit_for_bit(self, model, delta):
        # 1e5 draws, angles up to +-50 rad; a batched row equals its lone reduced_map call
        rng = np.random.default_rng(21)
        x = rng.uniform(-50.0, 50.0, (100_000, model.n))
        u = rng.uniform(-30.0, 30.0, (100_000, model.m))
        kernel = [model.reduced_step(xk, uk, delta) for xk, uk in zip(x.tolist(), u.tolist())]
        assert np.array_equal(np.array(kernel), model.reduced_map(x, u, delta))


class TestInvariants:
    def test_equilibrium_identity_sampled(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(10_000):
            x = rng.uniform([-math.pi, -10], [math.pi, 10])
            u = rng.uniform(-24, 24, 1)
            delta = rng.uniform(1e-3, 0.2)
            xi_eq = PEND.equilibrium_map(x, u)
            res = abs(PEND.extra_map(xi_eq, x, u, delta)[0] - xi_eq[0])
            worst = max(worst, res)
        assert worst <= 1e-12

    def test_slow_coupling_lipschitz(self):
        # || f(x,xi,u,d) - f(x,xi',u',d) || <= d * (K_t/J) * (|xi-xi'| + |u-u'|)
        rng = np.random.default_rng(1)
        L = PEND.params.K_t / PEND.params.J
        for _ in range(2000):
            x = rng.uniform([-math.pi, -10], [math.pi, 10])
            xi_a, xi_b = rng.uniform(-40, 40, 2)
            u_a, u_b = rng.uniform(-24, 24, 2)
            delta = rng.uniform(1e-3, 0.2)
            diff = np.linalg.norm(
                PEND.target_map(x, vec(xi_a), vec(u_a), delta) - PEND.target_map(x, vec(xi_b), vec(u_b), delta)
            )
            assert diff <= delta * L * (abs(xi_a - xi_b) + abs(u_a - u_b)) + 1e-12

    def test_slow_coupling_tight_when_input_fixed(self):
        diff = np.linalg.norm(
            PEND.target_map(vec(0.2, 1.0), vec(3.0), vec(5.0), 0.05)
            - PEND.target_map(vec(0.2, 1.0), vec(1.0), vec(5.0), 0.05)
        )
        assert diff == pytest.approx(0.05 * 0.8 * 2.0, rel=1e-12)

    def test_fast_contraction(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xi_a, xi_b = rng.uniform(-40, 40, 2)
            x = rng.uniform([-math.pi, -10], [math.pi, 10])
            u = rng.uniform(-24, 24, 1)
            da = PEND.extra_map(vec(xi_a), x, u, 0.01)[0]
            db = PEND.extra_map(vec(xi_b), x, u, 0.01)[0]
            assert abs(da - db) == pytest.approx(0.4 * abs(xi_a - xi_b), rel=1e-12)


class TestValidation:
    """``_as_vector`` checks the vectors that enter ``simulate`` (x0, xi0, z0); ``validate_delta`` the timescale."""

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="x0 must be a vector of length 2"):
            _as_vector([0.0, 0.0, 0.0], PEND.n, "x0")
        with pytest.raises(ValueError, match="length 1"):
            _as_vector([0.0, 0.0], PEND.p, "xi0")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="x0 contains non-finite"):
            _as_vector([np.nan, 0.0], PEND.n, "x0")

    def test_bad_delta(self):
        with pytest.raises(ValueError, match="positive"):
            validate_delta(PEND, -0.01)
        with pytest.raises(ValueError, match="delta_max"):
            validate_delta(PEND, 2.0)

    # every caller that takes a timescale applies the one finite-and-positive rule
    DELTA_CALLERS = {
        "OcpSpec": lambda delta: dataclasses.replace(load_config().ocp_spec(0.1), delta=delta),
        "SimConfig": lambda delta: SimConfig(delta=delta),
        "horizon_for_delta": lambda delta: horizon_for_delta(delta, 0.5),
    }

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("caller", sorted(DELTA_CALLERS))
    def test_delta_must_be_finite_and_positive(self, caller, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            self.DELTA_CALLERS[caller](delta)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            PendulumParams(J=-1.0)

    # every float field of the settings dataclasses; a SimConfig also needs its timescale
    FLOAT_SETTINGS = [
        (cls, f.name)
        for cls in (PendulumParams, SolverConfig, SamplingPlan, SimConfig)
        for f in dataclasses.fields(cls)
        if f.type == "float"
    ]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls,name", FLOAT_SETTINGS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_SETTINGS]
    )
    def test_float_setting_must_be_finite(self, cls, name, value):
        required = {"delta": 0.1} if cls is SimConfig else {}
        with pytest.raises(ValueError, match=f"^{name} must"):
            cls(**(required | {name: value}))

    def test_slow_inductance_warns(self):
        with pytest.warns(UserWarning, match="does not contract"):
            PendulumParams(L_tilde=0.3)


class TestJacobians:
    @pytest.mark.parametrize("model", [PEND, LinearTwoTimescale()])
    def test_reduced_jacobians_match_finite_differences(self, model):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-1, 1, model.n)
            u = rng.uniform(-5, 5, model.m)
            delta = 0.05
            jx, ju = model.reduced_jacobians(x, u, delta)
            for i in range(model.n):
                e = np.zeros(model.n)
                e[i] = h
                col = (model.reduced_map(x + e, u, delta) - model.reduced_map(x - e, u, delta)) / (2 * h)
                assert np.allclose(jx[:, i], col, atol=1e-6)
            for j in range(model.m):
                e = np.zeros(model.m)
                e[j] = h
                col = (model.reduced_map(x, u + e, delta) - model.reduced_map(x, u - e, delta)) / (2 * h)
                assert np.allclose(ju[:, j], col, atol=1e-6)


class TestLinearModel:
    def test_equilibrium_identity(self):
        lin = LinearTwoTimescale()
        rng = np.random.default_rng(4)
        for _ in range(500):
            x = rng.uniform(-5, 5, 1)
            u = rng.uniform(-5, 5, 1)
            xi_eq = lin.equilibrium_map(x, u)
            assert abs(lin.extra_map(xi_eq, x, u, 0.05)[0] - xi_eq[0]) <= 1e-12

    def test_fast_pole_validated(self):
        with pytest.raises(ValueError, match="rho"):
            LinearTwoTimescale(rho=1.0)

    def test_analytic_constants(self):
        assert PEND.lip_target_fast == pytest.approx(0.8)
        assert PEND.lip_extra == pytest.approx(1.0)
        assert PEND.lip_equilibrium == pytest.approx(1.0 / 0.6)


class TestBatchAxis:
    """Entry k of a batched plant call equals the call on entry k alone, bit for bit."""

    MODELS = {"pendulum": PEND, "linear": LinearTwoTimescale()}
    DELTA = 0.05

    CALLS = {
        "target_map": lambda model, x, xi, u, d: model.target_map(x, xi, u, d),
        "extra_map": lambda model, x, xi, u, d: model.extra_map(xi, x, u, d),
        "equilibrium_map": lambda model, x, xi, u, d: model.equilibrium_map(x, u),
        "reduced_map": lambda model, x, xi, u, d: model.reduced_map(x, u, d),
        "target_jacobians": lambda model, x, xi, u, d: model.target_jacobians(x, xi, u, d),
        "equilibrium_jacobians": lambda model, x, xi, u, d: model.equilibrium_jacobians(x, u),
        "reduced_jacobians": lambda model, x, xi, u, d: model.reduced_jacobians(x, u, d),
    }
    MAPS = ("target_map", "extra_map", "equilibrium_map", "reduced_map")

    @staticmethod
    def inputs(model, shape):
        rng = np.random.default_rng(17)
        x = rng.uniform(-3.0, 3.0, shape + (model.n,))
        xi = rng.uniform(-20.0, 20.0, shape + (model.p,))
        u = rng.uniform(-24.0, 24.0, shape + (model.m,))
        return x, xi, u, rng.uniform(1e-3, 0.2, shape)

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("method", sorted(CALLS))
    @pytest.mark.parametrize("shape", [(5,), (2, 3)], ids=["B5", "B2x3"])
    def test_entry_equals_lone_call(self, model_name, method, shape):
        model, call = self.MODELS[model_name], self.CALLS[method]
        x, xi, u, deltas = self.inputs(model, shape)

        def outputs(*args):
            result = call(model, *args)
            return result if isinstance(result, tuple) else (result,)

        # a float delta for every method; the maps also take one delta per entry
        cases = [(self.DELTA, lambda k: self.DELTA)]
        if method in self.MAPS:
            cases.append((deltas, lambda k: float(deltas[k])))
        for delta, lone_delta in cases:
            batched = outputs(x, xi, u, delta)
            for k in np.ndindex(shape):
                for out, ref in zip(batched, outputs(x[k], xi[k], u[k], lone_delta(k))):
                    assert out.shape == shape + ref.shape
                    assert np.array_equal(out[k], ref)
