"""Correctness checks computed apart from the program.

Each check takes a program output and the physical inputs, recomputes what
the output must satisfy with the benchmark's own arithmetic, and returns a
list of failure messages (empty when the output is correct). They run after
the timed section, on every output the timed section produced.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

COMPARISON_HEADER = "delta,plant,solver,final_err_theta,rate_per_s,r2,mean_iters,diverged"
STRATEGY_ROWS = (("full", "suboptimal"), ("reduced", "suboptimal"), ("reduced", "optimal"))
REPLAY_RTOL = 1e-12


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def replay_pendulum(x, xi, u, full_plant: bool, params, delta: float):
    """One Euler step of the motor-driven pendulum from each recorded row.

    Returns the next (theta, omega, current) arrays and, for each, the sum of
    the magnitudes of the terms added, which bounds its rounding error. On the
    reduced plant the current is the equilibrium value (u - K_e omega) / R.
    """
    p = params
    theta, omega, u = x[:, 0], x[:, 1], u[:, 0]
    current = xi[:, 0] if full_plant else (u - p.K_e * omega) / p.R_ohm
    gravity = p.mass * p.grav * p.l / p.J
    theta_next = theta + delta * omega
    omega_terms = np.abs(omega) + delta * (
        p.beta / p.J * np.abs(omega) + gravity * np.abs(np.sin(theta)) + p.K_t / p.J * np.abs(current)
    )
    omega_next = omega + delta * (-p.beta / p.J * omega - gravity * np.sin(theta) + p.K_t / p.J * current)
    current_next = (1.0 - p.R_ohm / p.L_tilde) * current - p.K_e / p.L_tilde * omega + u / p.L_tilde
    current_terms = (
        abs(1.0 - p.R_ohm / p.L_tilde) * np.abs(current) + p.K_e / p.L_tilde * np.abs(omega) + np.abs(u) / p.L_tilde
    )
    return (
        (theta_next, np.abs(theta) + delta * np.abs(omega)),
        (omega_next, omega_terms),
        (current_next, current_terms),
        current,
    )


def check_closed_loop(trace, params, delta, u_max, strategy, optimal_tol, iters_per_sample, steps) -> list[str]:
    """Replay, saturation, solver-contract and convergence checks of one simulate trace."""
    errors = []
    full_plant = strategy == "proposed"
    if trace.diverged or trace.step.size != steps:
        return [f"{strategy}: ran {trace.step.size} of {steps} steps, diverged={trace.diverged}"]
    (theta_n, theta_s), (omega_n, omega_s), (cur_n, cur_s), current = replay_pendulum(
        trace.x, trace.xi, trace.u, full_plant, params, delta
    )
    recorded_x = np.vstack([trace.x[1:], trace.final_x[None, :]])
    for label, mine, scale, recorded in (
        ("theta", theta_n, theta_s, recorded_x[:, 0]),
        ("omega", omega_n, omega_s, recorded_x[:, 1]),
    ):
        gap = np.abs(mine - recorded)
        bad = np.flatnonzero(gap > REPLAY_RTOL * np.maximum(scale, 1e-300))
        if bad.size:
            t = int(bad[0])
            errors.append(f"{strategy}: replayed {label} at step {t + 1} is {mine[t]!r}, trace has {recorded[t]!r}")
    if full_plant:
        recorded_xi = np.append(trace.xi[1:, 0], trace.final_xi[0])
        bad = np.flatnonzero(np.abs(cur_n - recorded_xi) > REPLAY_RTOL * np.maximum(cur_s, 1e-300))
        if bad.size:
            t = int(bad[0])
            errors.append(f"{strategy}: replayed current at step {t + 1} is {cur_n[t]!r}, trace has {recorded_xi[t]!r}")
    else:
        scale = (np.abs(trace.u[:, 0]) + params.K_e * np.abs(trace.x[:, 1])) / params.R_ohm
        bad = np.flatnonzero(np.abs(current - trace.xi[:, 0]) > REPLAY_RTOL * np.maximum(scale, 1e-300))
        if bad.size:
            errors.append(f"{strategy}: recorded current at step {int(bad[0])} is off the equilibrium (u - K_e w)/R")
    if np.max(np.abs(trace.u)) > u_max:
        errors.append(f"{strategy}: applied |u| = {np.max(np.abs(trace.u))!r} exceeds u_max = {u_max}")
    if strategy == "proposed" and not np.all(trace.solver_iters == iters_per_sample):
        errors.append(f"{strategy}: solver iterations per step are not all {iters_per_sample}")
    if strategy == "opt-full" and not np.all(trace.pg_norm <= optimal_tol):
        errors.append(f"{strategy}: max pg_norm {np.max(trace.pg_norm)!r} exceeds optimal_tol {optimal_tol}")
    # decay of |theta| after the first tenth, fitted by least squares
    err = np.abs(trace.x[:, 0])
    keep = (np.arange(err.size) >= err.size // 10) & (err > 0.0)
    slope = float(np.polyfit(trace.time_s[keep], np.log(err[keep]), 1)[0]) if keep.sum() >= 10 else math.nan
    final = abs(float(trace.final_x[0]))
    if not (slope < 0.0 and final < 1e-2 * abs(float(trace.x[0, 0]))):
        errors.append(f"{strategy}: no convergence (fitted rate {slope!r} /s, final |theta| {final!r})")
    return errors


def _inflated(estimate, factor: float) -> float:
    """Sampled constants are used times the safety factor, analytic ones as they are."""
    return estimate.value if estimate.tag == "analytic" else estimate.value * factor


def coupling_pd(k: dict, delta: float) -> bool:
    """Leading minors of the 2x2 slow/fast coupling matrix rebuilt from k1..k8."""
    q = -0.5 * (delta * (k["k1"] + k["k4"]) + delta**2 * (k["k2"] + k["k5"]))
    m00 = delta * k["c3"] - delta**2 * k["k8"]
    m11 = k["fast_decrease"] - delta * k["k6"] - delta**2 * (k["k3"] + k["k7"])
    return m00 > 0.0 and m00 * m11 - q * q > 0.0


def check_certificate(report, params, plan) -> list[str]:
    """Closed forms, the composite-weight rule, k1..k8 and the coupling boundary."""
    errors = []
    p = params
    c = report.constants
    factor = plan.safety_factor
    closed = {
        "lip_slow_coupling": p.K_t / p.J,
        "lip_extra": max(abs(1.0 - p.R_ohm / p.L_tilde), p.K_e / p.L_tilde, 1.0 / p.L_tilde),
        "lip_equilibrium": max(1.0, p.K_e) / p.R_ohm,
    }
    for name, value in closed.items():
        if c[name].tag != "analytic" or not _close(c[name].value, value, 1e-12):
            errors.append(f"constant {name} = {c[name].value!r} [{c[name].tag}], closed form {value!r}")
    a3 = report.fast_bounds.decrease
    if not _close(a3, 1.0 - (1.0 - p.R_ohm / p.L_tilde) ** 2, 1e-9):
        errors.append(f"fast-error decrease a3 = {a3!r}, closed form {1.0 - (1.0 - p.R_ohm / p.L_tilde) ** 2!r}")

    b3 = report.optimizer_bounds.decrease
    coupling = _inflated(c["lip_equilibrium"], factor) * (_inflated(c["lip_T"], factor) + 1.0)
    k1 = coupling * _inflated(c["lip_extra"], factor)
    threshold = k1**2 / (a3 * b3) + (2.0 * coupling + coupling**2) / b3
    kappa = report.kappa
    if not (_close(kappa.kappa_threshold, threshold, 1e-12) and _close(kappa.kappa, 1.1 * threshold, 1e-12)):
        errors.append(f"kappa {kappa.kappa!r} (threshold {kappa.kappa_threshold!r}) != 1.1 x {threshold!r}")

    if report.closed_loop is None or report.closed_loop.samples != plan.closed_loop_samples:
        errors.append("the closed-loop decrease stage did not run")
    ic = report.interconnection
    if ic is None:
        return errors + ["no interconnection constants"]
    reduced = report.reduced_bounds
    lip_zstar = _inflated(c["lip_zstar"], factor)
    lip_xi = _inflated(c["lip_equilibrium"], factor)
    lip_slow = max(_inflated(c["lip_slow_coupling"], factor), c["single_integrator_ratio"].value * factor)
    inputs = {
        "c3": reduced.decrease,
        "c4": max(reduced.increment, reduced.increment_centered) * factor,
        "fast_decrease": report.boundary.d3,
        "fast_increment": max(1.0, kappa.kappa),
        "lip_slow": lip_slow,
        "lip_h": lip_xi * (1.0 + lip_zstar) + lip_zstar,
        "lip_G": _inflated(c["lip_G"], factor),
    }
    c4, Lf, d4, Lh, LG = inputs["c4"], inputs["lip_slow"], inputs["fast_increment"], inputs["lip_h"], inputs["lip_G"]
    expected = dict(inputs)
    expected.update(
        k1=2.0 * c4 * Lf,
        k2=2.0 * c4 * Lf**2,
        k3=c4 * Lf**2,
        k4=2.0 * d4 * Lh * LG * Lf,
        k5=2.0 * d4 * Lh**2 * Lf**2,
        k6=2.0 * d4 * Lh * LG * Lf,
        k7=d4 * Lh**2 * Lf**2,
        k8=d4 * Lh**2 * Lf**2,
    )
    reported = ic.as_dict()
    for name, value in expected.items():
        if not _close(reported[name], value, 1e-12):
            errors.append(f"interconnection {name} = {reported[name]!r}, recomputed {value!r}")

    delta_bar = report.delta_bar
    if delta_bar is None:
        errors.append(f"no delta_bar ({report.delta_bar_reason})")
    elif not coupling_pd(expected, delta_bar):
        errors.append(f"coupling matrix is not positive definite at delta_bar = {delta_bar!r}")
    elif delta_bar < plan.delta_cap and coupling_pd(expected, delta_bar * (1.0 + 1e-5)):
        errors.append(f"coupling matrix is still positive definite above delta_bar = {delta_bar!r}")
    return errors


def check_comparison(exit_code: int, text: str, deltas, iters_per_sample: int, theta0: float) -> list[str]:
    """Exit code, header, row set and per-row contract of one sweep's comparison.csv."""
    if exit_code != 0:
        return [f"redmpc sweep exited {exit_code}"]
    lines = text.splitlines()
    if not lines or lines[0] != COMPARISON_HEADER:
        return [f"comparison.csv header is {lines[0] if lines else ''!r}"]
    errors = []
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(float(d), plant, solver) for d in deltas for plant, solver in STRATEGY_ROWS]
    got = []
    for row in rows:
        try:
            got.append((float(row["delta"]), row["plant"], row["solver"]))
        except (KeyError, TypeError, ValueError):
            got.append(None)
    if got != expected:
        return errors + [f"comparison.csv rows are {got}, expected {expected}"]
    for row in rows:
        label = f"delta={row['delta']} {row['plant']}/{row['solver']}"
        if row["diverged"] != "0":
            errors.append(f"{label}: diverged")
        if row["solver"] == "suboptimal" and float(row["mean_iters"]) != float(iters_per_sample):
            errors.append(f"{label}: mean_iters {row['mean_iters']} != iters_per_sample {iters_per_sample}")
        if row["solver"] == "optimal":
            rate, final = float(row["rate_per_s"]), float(row["final_err_theta"])
            if not (rate < 0.0 and final < 0.01 * abs(theta0)):
                errors.append(f"{label}: no convergence (rate {rate!r} /s, final |theta| {final!r})")
    return errors


def check_rerun(first: bytes, rerun: bytes) -> list[str]:
    """The documented contract: a rerun from manifest.txt is byte-identical."""
    return [] if first == rerun else ["comparison.csv from the manifest rerun differs from the first run"]
