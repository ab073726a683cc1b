"""Reduced-order suboptimal MPC for two-timescale plants, with stability certification."""

from .plant import ActuatedPendulum, LinearTwoTimescale, PendulumParams, PlantModel
from .ocp import (
    OcpSpec,
    OptimizerState,
    SolverConfig,
    cost,
    first_input,
    gradient,
    horizon_for_delta,
    project_box,
    rollout,
    solve_optimal,
    solver_map,
    warm_start_shift,
)
from .simulate import (
    STRATEGIES,
    RateFit,
    SimConfig,
    SimTrace,
    Strategy,
    compare_strategies,
    fit_rate,
    simulate,
)
from .certify import (
    CertificateReport,
    SamplingPlan,
    bisect_delta_bar,
    full_certificate,
)
from .config import Config, ConfigError, load_config

__version__ = "0.1.0"
