"""Acceptance suite: one pass/fail line per criterion, run with `pytest -s`.

Criteria are property- and ordering-based on the benchmark pendulum scenario
(table parameters, weights diag(100, 0.1)/0.01, saturation 24 V, prediction
window 0.5 s, start (1, 0) rad, 10 s horizon). Heavy artifacts (the strategy
sweep and the certification report) are shared module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from redmpc.plant import ActuatedPendulum, equilibrium_extra, step_extra
from redmpc.ocp import (
    SolverConfig,
    cost,
    gradient,
    make_ocp_spec,
    solve_optimal,
    solver_map,
)
from redmpc.simulate import SimConfig, compare_strategies, fit_rate, simulate
from redmpc.certify import (
    InterconnectionConstants,
    SamplingPlan,
    full_certificate,
    kappa_rule,
)

PEND = ActuatedPendulum()
CFG = SolverConfig()
SPEC_001 = make_ocp_spec(0.01)


def report(num, ok, detail):
    print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_rows():
    base = SimConfig(delta=0.01, duration_s=10.0, x0=(1.0, 0.0))
    specs = [make_ocp_spec(d) for d in (0.01, 0.1, 0.2)]
    rows = compare_strategies(PEND, specs, CFG, base, keep_traces=True)
    return {(r.delta, r.plant, r.solver): r for r in rows}


@pytest.fixture(scope="module")
def pendulum_report():
    return full_certificate(PEND, SPEC_001, CFG, SamplingPlan())


def test_criterion_01_equilibrium_fixed_point():
    star = solve_optimal(SPEC_001, PEND, CFG, [0.0, 0.0], np.zeros(50))
    xi0 = equilibrium_extra(PEND, [0.0, 0.0], star.z[:1])
    t0 = time.time()
    trace = simulate(
        PEND,
        SPEC_001,
        CFG,
        SimConfig(delta=0.01, duration_s=10.0, x0=(0.0, 0.0), xi0=tuple(xi0), z0=star.z),
    )
    elapsed = time.time() - t0
    dev = max(
        float(np.max(np.abs(trace.x))),
        float(np.max(np.abs(trace.xi))),
        trace.final_err_norm,
    )
    ok = trace.step.size == 1000 and dev <= 1e-10 and elapsed < 5.0
    assert report(1, ok, f"1000 steps, max deviation {dev:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_small_delta_exponential_convergence():
    t0 = time.time()
    trace = simulate(PEND, SPEC_001, CFG, SimConfig(delta=0.01, duration_s=10.0, x0=(1.0, 0.0)))
    fit = fit_rate(trace)
    elapsed = time.time() - t0
    ok = (
        fit.rate_per_second < -0.1
        and fit.r_squared > 0.9
        and trace.final_err_theta < 1e-2
        and elapsed < 10.0
    )
    assert report(
        2,
        ok,
        f"rate {fit.rate_per_second:.3f}/s (< -0.1), R^2 {fit.r_squared:.3f} (> 0.9), "
        f"final |theta| {trace.final_err_theta:.2e} (< 1e-2), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_mismatch_degrades_at_delta_01(sweep_rows):
    proposed = sweep_rows[(0.1, "full", "suboptimal")]
    benchmark = sweep_rows[(0.1, "reduced", "suboptimal")]
    margin = proposed.mean_abs_err_theta - benchmark.mean_abs_err_theta
    bounded = (
        not proposed.diverged
        and not benchmark.diverged
        and float(np.max(proposed.trace.err_theta)) < 10.0
        and float(np.max(benchmark.trace.err_theta)) < 10.0
    )
    ok = margin > 0.0 and bounded
    assert report(
        3,
        ok,
        f"time-avg |theta| proposed {proposed.mean_abs_err_theta:.4f} > reduced-plant "
        f"{benchmark.mean_abs_err_theta:.4f} (margin {margin:.4f}), both bounded",
    )


def test_criterion_04_only_optimal_recovers_at_delta_02(sweep_rows):
    opt = sweep_rows[(0.2, "reduced", "optimal")]
    sub_full = sweep_rows[(0.2, "full", "suboptimal")]
    sub_red = sweep_rows[(0.2, "reduced", "suboptimal")]
    smallest = (
        opt.mean_abs_err_theta < sub_full.mean_abs_err_theta
        and opt.mean_abs_err_theta < sub_red.mean_abs_err_theta
    )
    degradation = max(sub_full.rate_per_s, sub_red.rate_per_s) >= 0.5 * opt.rate_per_s
    ok = smallest and degradation
    assert report(
        4,
        ok,
        f"time-avg |theta|: optimal {opt.mean_abs_err_theta:.4f} < suboptimal "
        f"({sub_full.mean_abs_err_theta:.4f}, {sub_red.mean_abs_err_theta:.4f}); "
        f"rates: optimal {opt.rate_per_s:.3f}/s, suboptimal ({sub_full.rate_per_s:.3f}, {sub_red.rate_per_s:.3f})/s",
    )


def test_criterion_05_rate_monotone_in_delta(sweep_rows):
    rates = [sweep_rows[(d, "full", "suboptimal")].rate_per_s for d in (0.01, 0.1, 0.2)]
    ok = rates[0] < rates[1] < rates[2]
    assert report(5, ok, f"proposed-strategy rates/s {[f'{r:.4f}' for r in rates]} strictly increasing with delta")


def test_criterion_06_gradient_matches_finite_differences():
    spec5 = make_ocp_spec(0.1)
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    for k in range(100):
        spec = SPEC_001 if k < 50 else spec5
        x0 = rng.uniform(-1, 1, 2)
        z = rng.uniform(-2, 2, spec.horizon_N)
        g = gradient(spec, PEND, x0, z)
        h = 1e-6
        fd = np.empty_like(z)
        for i in range(z.size):
            zp = z.copy()
            zm = z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (cost(spec, PEND, x0, zp) - cost(spec, PEND, x0, zm)) / (2 * h)
        rel = float(np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-9))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(6, ok, f"worst relative gap {worst:.2e} over 100 pairs (tol 1e-6), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_07_iteration_map_fixed_point():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        star = solve_optimal(SPEC_001, PEND, CFG, x, np.zeros(50))
        assert star.converged
        after = solver_map(SPEC_001, PEND, CFG, x, star.z)
        worst = max(worst, float(np.linalg.norm(after.z - star.z)))
    ok = worst <= 1e-7
    assert report(7, ok, f"max ||T(z*) - z*|| = {worst:.2e} over 20 states (tol 1e-7)")


def test_criterion_08_equilibrium_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform([-np.pi, -10.0], [np.pi, 10.0])
        u = rng.uniform(-24.0, 24.0, 1)
        delta = rng.uniform(1e-3, 0.2)
        xi_eq = equilibrium_extra(PEND, x, u)
        worst = max(worst, float(np.abs(step_extra(PEND, xi_eq, x, u, delta) - xi_eq)[0]))
    ok = worst <= 1e-12
    assert report(8, ok, f"max fast fixed-point residual {worst:.2e} over 10^4 samples (tol 1e-12)")


def test_criterion_09_boundary_layer_decrease(pendulum_report):
    rep = pendulum_report
    b = rep.boundary
    ok = (
        b is not None
        and b.passed
        and b.d3 > 0.0
        and b.samples >= 10_000
        and rep.kappa.kappa == pytest.approx(1.1 * rep.kappa.kappa_threshold, rel=1e-12)
    )
    assert report(
        9,
        ok,
        f"composite fast value decreased on all {b.samples} samples, d3 = {b.d3:.4f}, "
        f"kappa = {rep.kappa.kappa:.1f} (= 1.1 x threshold)",
    )


def test_criterion_10_interconnection_machinery(pendulum_report):
    rep = pendulum_report
    ic = rep.interconnection
    p0_exact = ic.p_poly(0.0) == 0.0
    rng = np.random.default_rng(3)
    cross_ok = True
    for _ in range(1000):
        vals = rng.uniform(0.05, 5.0, 7)
        cand = InterconnectionConstants(*vals)
        delta = rng.uniform(1e-4, 0.3)
        mat = cand.coupling_matrix(delta)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        eig_pd = bool(np.all(np.linalg.eigvalsh(mat) > 0))
        minors_pd = bool(mat[0, 0] > 0 and det > 0)
        cross_ok &= eig_pd == minors_pd
        cross_ok &= abs(det - (delta * cand.c3 * cand.fast_decrease - cand.p_poly(delta))) <= 1e-10
    cl = rep.closed_loop
    ok = (
        p0_exact
        and cross_ok
        and rep.delta_bar is not None
        and rep.delta_bar > 0.0
        and cl is not None
        and cl.passed
        and cl.samples >= 1000
    )
    assert report(
        10,
        ok,
        f"p(0) = 0 exactly; minors/eigenvalue cross-check on 10^3 sets within 1e-10; "
        f"delta_bar = {rep.delta_bar:.3e} > 0; composite value decreased on {cl.samples if cl else 0} "
        f"closed-loop steps at delta_bar/2",
    )


def test_criterion_11_constant_arithmetic():
    rule = kappa_rule(a3=0.84, a4=1.0, b3=0.5, lip_xi=5.0 / 3.0, lip_g=1.0, lip_T=0.5)
    ic = InterconnectionConstants(
        c3=1.0, c4=1.0, fast_decrease=0.5, fast_increment=1.0, lip_slow=0.8, lip_h=1.0, lip_G=1.0
    )
    ok = (
        rule.boundary_k1 == pytest.approx(2.5, abs=1e-12)
        and rule.boundary_k2 == pytest.approx(11.25, abs=1e-12)
        and rule.kappa_threshold == pytest.approx(37.380952, abs=1e-6)
        and ic.k1 == pytest.approx(1.6, abs=1e-12)
        and ic.k2 == pytest.approx(1.28, abs=1e-12)
        and ic.k3 == pytest.approx(0.64, abs=1e-12)
    )
    assert report(
        11,
        ok,
        f"composite-weight constants ({rule.boundary_k1}, {rule.boundary_k2}, "
        f"{rule.kappa_threshold:.6f}); interconnection constants ({ic.k1}, {ic.k2}, {ic.k3})",
    )
