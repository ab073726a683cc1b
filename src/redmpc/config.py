"""Plain-text sectioned key=value configuration with fully materialized defaults.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Unknown sections or keys are rejected naming the offender and
the allowed set. Defaults reproduce the benchmark scenario (pendulum table
values, quadratic weights diag(100, 0.1)/0.01, saturation 24 V, 0.5 s
prediction window).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams, PlantModel, validate_delta
from .ocp import OcpSpec, SolverConfig, horizon_for_delta
from .simulate import STRATEGIES, SimConfig, Strategy
from .certify import SamplingPlan

__all__ = ["ConfigError", "Config", "parse_config_text", "load_config", "DEFAULTS", "manifest_text"]


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or syntax error."""


def _strategy(value: str) -> str:
    if value not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {sorted(STRATEGIES)}, got {value!r}")
    return value


def _model_kind(value: str) -> str:
    if value not in ("pendulum", "linear"):
        raise ConfigError(f"model must be 'pendulum' or 'linear', got {value!r}")
    return value


def _checked(build):
    """Report a value that the built object rejects as a ConfigError."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return checked


# section -> key -> (parser, default)
DEFAULTS: dict[str, dict[str, tuple] ] = {
    "pendulum": {
        "l": (float, 1.0),
        "mass": (float, 0.5),
        "beta": (float, 0.5),
        "J": (float, 0.5),
        "K_t": (float, 0.4),
        "K_e": (float, 0.4),
        "R_ohm": (float, 0.6),
        "L_tilde": (float, 1.0),
        "grav": (float, 9.81),
    },
    "ocp": {
        "delta": (float, 0.01),
        "horizon_steps": (str, "auto"),
        "horizon_window_s": (float, 0.5),
        "q_theta": (float, 100.0),
        "q_omega": (float, 0.1),
        "r_input": (float, 0.01),
        "qf_theta": (float, 100.0),
        "qf_omega": (float, 0.1),
        "u_max": (float, 24.0),
    },
    "solver": {
        "iters_per_sample": (int, 1),
        "step_rule": (str, "backtracking"),
        "alpha0": (float, 1.0),
        "shrink": (float, 0.5),
        "armijo_c": (float, 1e-4),
        "optimal_tol": (float, 1e-8),
        "max_optimal_iters": (int, 100_000),
    },
    "sim": {
        "duration_s": (float, 10.0),
        "theta0": (float, 1.0),
        "omega0": (float, 0.0),
        "current0": (float, 0.0),
        "strategy": (_strategy, "proposed"),
        "skip_fraction": (float, 0.1),
    },
    "certify": {
        "model": (_model_kind, "pendulum"),
        "seed": (int, 0),
        "lipschitz_pairs": (int, 2000),
        "equilibrium_samples": (int, 10_000),
        "fast_samples": (int, 2000),
        "n_states": (int, 25),
        "optimizer_pairs_per_state": (int, 44),
        "boundary_samples": (int, 10_000),
        "n_value_states": (int, 160),
        "map_pairs": (int, 200),
        "closed_loop_samples": (int, 1000),
        "multistart_states": (int, 4),
        "multistart_points": (int, 8),
        "safety_factor": (float, 1.5),
        "delta_cap": (float, 0.2),
        "state_ball": (float, 1.0),
        "error_ball": (float, 1.0),
        "error_min_norm": (float, 0.05),
        "near_eq_ball": (float, 0.5),
        "check_closed_loop": (int, 1),
    },
}


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Parse the sectioned key=value grammar into raw string values."""
    raw: dict[str, dict[str, str]] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in DEFAULTS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section}]; allowed sections: {sorted(DEFAULTS)}"
                )
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS[section]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{section}]; allowed keys: {sorted(DEFAULTS[section])}"
            )
        raw[section][key] = value.strip()
    return raw


@dataclass
class Config:
    """Fully resolved configuration (every key materialized)."""

    values: dict[str, dict[str, object]]

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @_checked
    def pendulum_params(self) -> PendulumParams:
        p = self.values["pendulum"]
        return PendulumParams(**{k: float(v) for k, v in p.items()})

    def model(self) -> PlantModel:
        if self.values["certify"]["model"] == "linear":
            return LinearTwoTimescale()
        return ActuatedPendulum(self.pendulum_params())

    def sim_model(self) -> PlantModel:
        return ActuatedPendulum(self.pendulum_params())

    @_checked
    def ocp_spec(self, delta: float | None = None, model: PlantModel | None = None) -> OcpSpec:
        """The problem at ``delta`` (default: the configured one) for ``model`` (default: the pendulum)."""
        o = self.values["ocp"]
        model = self.sim_model() if model is None else model
        delta = validate_delta(model, float(o["delta"]) if delta is None else delta)
        if o["horizon_steps"] == "auto":
            N = horizon_for_delta(delta, float(o["horizon_window_s"]))
        else:
            try:
                N = int(o["horizon_steps"])
            except ValueError as exc:
                raise ConfigError(f"horizon_steps must be 'auto' or an integer, got {o['horizon_steps']!r}") from exc
        n, m = model.n, model.m
        if n == 2:
            Q = np.diag([float(o["q_theta"]), float(o["q_omega"])])
            Qf = np.diag([float(o["qf_theta"]), float(o["qf_omega"])])
        else:
            Q = np.eye(n) * float(o["q_theta"])
            Qf = np.eye(n) * float(o["qf_theta"])
        Rw = np.eye(m) * float(o["r_input"])
        u_max = float(o["u_max"])
        return OcpSpec(
            horizon_N=N,
            state_weight=Q,
            input_weight=Rw,
            terminal_weight=Qf,
            input_box=(np.full(m, -u_max), np.full(m, u_max)),
            delta=delta,
        )

    @_checked
    def solver_config(self) -> SolverConfig:
        return SolverConfig(**self.values["solver"])

    @_checked
    def sim_config(self, delta: float | None = None, strategy: str | None = None) -> SimConfig:
        s = self.values["sim"]
        delta = validate_delta(self.sim_model(), self.values["ocp"]["delta"] if delta is None else delta)
        name = str(s["strategy"]) if strategy is None else _strategy(strategy)
        return SimConfig(
            delta=delta,
            duration_s=float(s["duration_s"]),
            x0=(float(s["theta0"]), float(s["omega0"])),
            xi0=(float(s["current0"]),),
            strategy=STRATEGIES[name],
        )

    @_checked
    def sampling_plan(self) -> SamplingPlan:
        """The plan from every [certify] key but ``model`` and ``check_closed_loop``, inputs within +-u_max."""
        u_max = float(self.values["ocp"]["u_max"])
        keys = DEFAULTS["certify"].keys() - {"model", "check_closed_loop"}
        return SamplingPlan(u_range=(-u_max, u_max), **{key: self.values["certify"][key] for key in keys})

    @property
    def skip_fraction(self) -> float:
        return float(self.values["sim"]["skip_fraction"])

    @property
    def check_closed_loop(self) -> bool:
        return bool(int(self.values["certify"]["check_closed_loop"]))


def load_config(path: str | None = None, overrides: dict[str, dict[str, str]] | None = None) -> Config:
    """Materialize all defaults, applying a config file and explicit overrides."""
    raw: dict[str, dict[str, str]] = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        for section, pairs in overrides.items():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section [{section}]; allowed sections: {sorted(DEFAULTS)}")
            for key, value in pairs.items():
                if key not in DEFAULTS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in [{section}]; allowed keys: {sorted(DEFAULTS[section])}"
                    )
                raw.setdefault(section, {})[key] = str(value)
    values: dict[str, dict[str, object]] = {}
    for section, keys in DEFAULTS.items():
        values[section] = {}
        for key, (parser, default) in keys.items():
            if section in raw and key in raw[section]:
                text = raw[section][key]
                try:
                    values[section][key] = parser(text)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {text!r} ({exc})") from exc
            else:
                values[section][key] = default
    return Config(values=values)


def _render_value(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def manifest_text(config: Config, version: str, command: str, out_dir: str) -> str:
    """Full resolved configuration in the config grammar; re-runnable as-is."""
    lines = [
        f"# redmpc manifest (version {version})",
        f"# command: {command}",
        f"# out: {out_dir}",
    ]
    for section in DEFAULTS:
        lines.append("")
        lines.append(f"[{section}]")
        for key in DEFAULTS[section]:
            lines.append(f"{key} = {_render_value(config.values[section][key])}")
    return "\n".join(lines) + "\n"
