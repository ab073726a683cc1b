"""Plain-text sectioned key=value configuration with fully materialized defaults.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Unknown sections or keys are rejected naming the offender and
the allowed set. Defaults reproduce the benchmark scenario (pendulum table
values, quadratic weights diag(100, 0.1)/0.01, saturation 24 V, 0.5 s
prediction window).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams, PlantModel, _check_range, validate_delta
from .ocp import OcpSpec, SolverConfig, horizon_for_delta
from .simulate import STRATEGIES, SimConfig, Strategy
from .certify import SamplingPlan

__all__ = ["ConfigError", "Config", "parse_config_text", "load_config", "DEFAULTS", "manifest_text"]


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or syntax error."""


def _one_of(key: str, names):
    """Parser of ``key`` that accepts one of ``names`` only."""

    def parse(value: str) -> str:
        if value not in names:
            raise ConfigError(f"{key} must be one of {sorted(names)}, got {value!r}")
        return value

    return parse


_strategy = _one_of("strategy", STRATEGIES)


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


def _fields(cls, *keys: str) -> dict[str, tuple]:
    """``key -> (type of its default, default)`` for the named fields of the dataclass ``cls``."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {key: (type(defaults[key]), defaults[key]) for key in keys}


# section -> key -> (parser, default)
DEFAULTS: dict[str, dict[str, tuple]] = {
    "pendulum": _fields(PendulumParams, "l", "mass", "beta", "J", "K_t", "K_e", "R_ohm", "L_tilde", "grav"),
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
    "solver": _fields(
        SolverConfig,
        "iters_per_sample", "step_rule", "alpha0", "shrink", "armijo_c", "optimal_tol", "max_optimal_iters",
    ),
    "sim": {
        "duration_s": (float, 10.0),
        "theta0": (float, 1.0),
        "omega0": (float, 0.0),
        "current0": (float, 0.0),
        "strategy": (_strategy, "proposed"),
        "skip_fraction": (float, 0.1),
    },
    "certify": {
        "model": (_one_of("model", ("pendulum", "linear")), "pendulum"),
        **_fields(
            SamplingPlan,
            "seed", "lipschitz_pairs", "equilibrium_samples", "fast_samples", "n_states", "optimizer_pairs_per_state",
            "boundary_samples", "n_value_states", "map_pairs", "closed_loop_samples", "multistart_states",
            "multistart_points", "safety_factor", "delta_cap", "state_ball", "error_ball", "error_min_norm",
            "near_eq_ball",
        ),
    },
}


def _check_known(section: str, key: str | None = None, where: str = "") -> None:
    """Reject a section, or a key of it, that ``DEFAULTS`` does not define; ``where`` prefixes the message."""
    if section not in DEFAULTS:
        raise ConfigError(f"{where}unknown section [{section}]; allowed sections: {sorted(DEFAULTS)}")
    if key is not None and key not in DEFAULTS[section]:
        raise ConfigError(f"{where}unknown key {key!r} in [{section}]; allowed keys: {sorted(DEFAULTS[section])}")


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
            _check_known(section, where=f"line {lineno}: ")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        _check_known(section, key, f"line {lineno}: ")
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
        return PendulumParams(**self.values["pendulum"])

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
        _check_range("skip_fraction", s["skip_fraction"], 0.0, 1.0, closed=True)
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
        """The plan from every [certify] key but ``model``, inputs within +-u_max."""
        u_max = float(self.values["ocp"]["u_max"])
        keys = DEFAULTS["certify"].keys() - {"model"}
        return SamplingPlan(u_range=(-u_max, u_max), **{key: self.values["certify"][key] for key in keys})

    @property
    def skip_fraction(self) -> float:
        return float(self.values["sim"]["skip_fraction"])


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
            _check_known(section)
            for key, value in pairs.items():
                _check_known(section, key)
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
