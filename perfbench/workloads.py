"""The benchmark's four workloads, driven through redmpc's public API.

Each workload builds its inputs from the run's seed in ``setup``, runs one
round of identical operations per call of ``run_round`` (new seeded inputs
each round), and checks every output it kept in ``check``, after the timed
section. A round returns its samples of ``unit_ms``, the wall time per unit
of work, and the number of units it covered: closed-loop steps, or
certificates on ``certify``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import os
import shutil
import tempfile
import time
from types import SimpleNamespace

import numpy as np

import checks

# Benchmark scenario, passed to the program as configuration and used by the
# checks as the physical truth: the pendulum table values, |u| <= 24 V, one
# fixed-budget iteration per sample, optimal solves to 1e-8.
PENDULUM = dict(l=1.0, mass=0.5, beta=0.5, J=0.5, K_t=0.4, K_e=0.4, R_ohm=0.6, L_tilde=1.0, grav=9.81)
U_MAX = 24.0
ITERS_PER_SAMPLE = 1
OPTIMAL_TOL = 1e-8


def scenario_overrides(**sections) -> dict[str, dict[str, str]]:
    overrides = {
        "pendulum": {k: repr(v) for k, v in PENDULUM.items()},
        "ocp": {"u_max": repr(U_MAX)},
        "solver": {"iters_per_sample": str(ITERS_PER_SAMPLE), "optimal_tol": repr(OPTIMAL_TOL)},
    }
    for section, pairs in sections.items():
        overrides.setdefault(section, {}).update({k: str(v) for k, v in pairs.items()})
    return overrides


def seeded_angles(rng: np.random.Generator, count: int) -> list[float]:
    """Starting angles of either sign with magnitude in [0.75, 1.25] rad."""
    return [float(s * m) for s, m in zip(rng.choice((-1.0, 1.0), count), rng.uniform(0.75, 1.25, count))]


class Workload:
    """Common shape: seeded set-up, rounds of operations, checks afterwards."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.params = SimpleNamespace(**PENDULUM)

    def setup(self):
        """Import the program, resolve the configuration, build model and OCP."""
        self.mod = {m: importlib.import_module(f"redmpc.{m}") for m in ("simulate", "certify", "config", "cli")}
        self.load_config_s = None

    def load_config(self, **sections):
        """``redmpc.config.load_config`` on the scenario; the first call is timed."""
        start = time.perf_counter()
        config = self.mod["config"].load_config(None, scenario_overrides(**sections))
        if self.load_config_s is None:
            self.load_config_s = time.perf_counter() - start
        return config

    def warmup(self):
        raise NotImplementedError

    def run_round(self, r: int) -> tuple[dict[str, list[float]], int]:
        """One round: the samples of each end-to-end metric, and the units of work."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def close(self):
        """Remove what the workload wrote."""


class ClosedLoop(Workload):
    """``simulate`` of one strategy at delta = 0.01 (N = 50) from seeded angles."""

    delta = 0.01
    ops_per_round = 1
    strategy = ""
    duration_s = 0.0
    # angle magnitudes are drawn in turn from these many equal strata of
    # [0.75, 1.25] rad, so that every run covers the range alike
    strata = 3

    def setup(self):
        super().setup()
        config = self.load_config(ocp={"delta": self.delta}, sim={"duration_s": self.duration_s})
        self.model = config.sim_model()
        self.spec = config.ocp_spec()
        self.solver = config.solver_config()
        self.sim_config = config.sim_config(strategy=self.strategy)
        self.outputs = []

    def _simulate(self, angle: float, duration_s: float | None = None):
        cfg = dataclasses.replace(self.sim_config, x0=(angle, 0.0))
        if duration_s is not None:
            cfg = dataclasses.replace(cfg, duration_s=duration_s)
        return self.mod["simulate"].simulate(self.model, self.spec, self.solver, cfg)

    def warmup(self):
        self._simulate(1.0, duration_s=0.1)

    def run_round(self, r):
        stratum = r % self.strata
        sign = self.rng.choice((-1.0, 1.0))
        angle = float(sign * (0.75 + 0.5 * (stratum + self.rng.uniform()) / self.strata))
        start = time.perf_counter()
        trace = self._simulate(angle)
        elapsed = time.perf_counter() - start
        self.outputs.append(trace)
        return {"unit_ms": [1e3 * elapsed / trace.step.size]}, int(trace.step.size)

    def check(self):
        errors = []
        for trace in self.outputs:
            errors += checks.check_closed_loop(
                trace, self.params, self.delta, U_MAX, self.strategy, OPTIMAL_TOL, ITERS_PER_SAMPLE, self.sim_config.steps
            )
        return errors


class ClosedLoopProposed(ClosedLoop):
    """The paper's controller: one fixed-budget iteration per sample on the full plant."""

    name = "closed-loop-proposed"
    strategy = "proposed"
    duration_s = 2.0  # 200 steps, about 1 s of wall time per call


class ClosedLoopOptimal(ClosedLoop):
    """The optimal baseline: warm-started ``solve_optimal`` to 1e-8 every sample."""

    name = "closed-loop-optimal"
    strategy = "opt-full"
    # One second of simulated time, the transient where opt-full spends most
    # of its iterations (about 6-7 s of wall time per call on a 2-core host);
    # the convergence check needs about 0.8 s to see |theta| fall below 1 %.
    duration_s = 1.0


class Certify(Workload):
    """``full_certificate`` at delta = 0.01 with a reduced plan that keeps every stage."""

    name = "certify"
    ops_per_round = 1
    # Reduced sampling plan: every stage runs, including the closed-loop check.
    PLAN = dict(
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

    def setup(self):
        super().setup()
        self.outputs = []
        config = self._config(0)
        self.model = config.model()
        self.spec = config.ocp_spec(model=self.model)
        self.solver = config.solver_config()

    def _config(self, plan_seed: int):
        return self.load_config(ocp={"delta": 0.01}, certify=dict(self.PLAN, seed=plan_seed))

    def _certificate(self, plan):
        return self.mod["certify"].full_certificate(self.model, self.spec, self.solver, plan, check_closed_loop=True)

    def warmup(self):
        self._certificate(self._config(int(self.rng.integers(2**31))).sampling_plan())

    def run_round(self, r):
        plan = self._config(int(self.rng.integers(2**31))).sampling_plan()
        start = time.perf_counter()
        report = self._certificate(plan)
        elapsed = time.perf_counter() - start
        self.outputs.append((plan, report))
        return {"unit_ms": [1e3 * elapsed]}, 1

    def check(self):
        errors = []
        for plan, report in self.outputs:
            errors += [f"plan seed {plan.seed}: {e}" for e in checks.check_certificate(report, self.params, plan)]
        return errors


class SweepCli(Workload):
    """``redmpc sweep`` through ``redmpc.cli.main`` at delta in {0.1, 0.2}."""

    name = "sweep-cli"
    deltas = (0.1, 0.2)
    angles_per_round = ops_per_round = 3
    # Short runs so that transients, not the settled equilibrium, make most steps.
    duration_s = 3.0

    def setup(self):
        super().setup()
        self.config_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        self.calls = []  # (theta0, out dir, exit code)
        self.config_files = 0
        config = self.load_config(sim={"duration_s": self.duration_s})
        self.model = config.sim_model()
        self.spec = config.ocp_spec()
        self.steps_per_call = sum(3 * config.sim_config(delta=d).steps for d in self.deltas)

    def _config_file(self, theta0: float) -> str:
        lines = []
        for section, pairs in scenario_overrides(sim={"duration_s": self.duration_s, "theta0": repr(theta0)}).items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in pairs.items()]
        self.config_files += 1
        path = os.path.join(self.config_dir, f"theta0-{self.config_files}.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _sweep(self, config_path: str, out: str) -> int:
        argv = ["sweep", "--config", config_path, "--deltas", ",".join(map(str, self.deltas)), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mod["cli"].main(argv)

    def warmup(self):
        self._sweep(self._config_file(1.0), os.path.join(self.config_dir, "warmup"))

    def run_round(self, r):
        runs = [(theta0, self._config_file(theta0)) for theta0 in seeded_angles(self.rng, self.angles_per_round)]
        start = time.perf_counter()
        for k, (theta0, path) in enumerate(runs):
            out = os.path.join(self.config_dir, f"round{r}-{k}")
            self.calls.append((theta0, out, self._sweep(path, out)))
        elapsed = time.perf_counter() - start
        steps = self.steps_per_call * len(runs)
        return {"unit_ms": [1e3 * elapsed / steps]}, steps

    @staticmethod
    def _comparison(out: str) -> bytes:
        path = os.path.join(out, "comparison.csv")
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            return fh.read()

    def check(self):
        errors = []
        for i, (theta0, out, code) in enumerate(self.calls):
            data = self._comparison(out)
            errors += [
                f"{out}: {e}"
                for e in checks.check_comparison(code, data.decode(), self.deltas, ITERS_PER_SAMPLE, theta0)
            ]
            if i < self.angles_per_round:
                rerun = out + "-rerun"
                self._sweep(os.path.join(out, "manifest.txt"), rerun)
                errors += [f"{out}: {e}" for e in checks.check_rerun(data, self._comparison(rerun))]
        return errors

    def close(self):
        shutil.rmtree(self.config_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClosedLoopProposed, ClosedLoopOptimal, Certify, SweepCli)}
