"""Experiment driver: simulate, sweep, certify.

Exit codes: 0 success, 1 configuration error, 2 divergence-free run with a
failed certification verdict, 3 runtime divergence in a simulation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import Config, ConfigError, load_config, manifest_text
from .certify import full_certificate
from .simulate import (
    STRATEGIES,
    compare_strategies,
    fit_rate,
    simulate,
    write_comparison_csv,
    write_gnuplot_script,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERT_FAIL = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code contract: flag misuse is a config error
        raise ConfigError(message)


def _parse_deltas(text: str) -> list[float]:
    values = []
    for i, part in enumerate(text.split(","), start=1):
        part = part.strip()
        if not part:
            raise ConfigError(f"--deltas: empty entry at position {i}")
        try:
            value = float(part)
        except ValueError:
            raise ConfigError(f"--deltas: entry {i} is not a number: {part!r}") from None
        values.append(value)
    return values


def _load(args) -> Config:
    overrides: dict[str, dict[str, str]] = {}
    if getattr(args, "seed", None) is not None:
        overrides["certify"] = {"seed": str(args.seed)}
    if getattr(args, "strategy", None) is not None:
        overrides["sim"] = {"strategy": args.strategy}
    return load_config(args.config, overrides)


def _prepare_out(args, config: Config, command: str) -> str:
    out = args.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "manifest.txt"), "w") as fh:
        fh.write(manifest_text(config, __version__, command, out))
    return out


def cmd_simulate(args) -> int:
    config = _load(args)
    model = config.sim_model()
    spec = config.ocp_spec(model=model)
    solver_config, sim_config = config.solver_config(), config.sim_config()
    out = _prepare_out(args, config, "simulate")
    trace = simulate(model, spec, solver_config, sim_config)
    write_trace_csv(trace, os.path.join(out, "trace.csv"))
    write_gnuplot_script(os.path.join(out, "plot.gp"), trace_csv="trace.csv")
    try:
        fit = fit_rate(trace, config.skip_fraction)
        rate_line = (
            f"rate_per_s={fit.rate_per_second!r} r2={fit.r_squared!r} samples={fit.samples_used}"
        )
    except ValueError as exc:
        rate_line = f"rate_per_s=refused ({exc})"
    summary = [
        f"strategy={trace.strategy.label} delta={trace.delta!r} steps={trace.step.size}",
        f"final_err_theta={trace.final_err_theta!r} final_err_norm={trace.final_err_norm!r}",
        rate_line,
        f"diverged={int(trace.diverged)}",
    ]
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_DIVERGED if trace.diverged else EXIT_OK


def cmd_sweep(args) -> int:
    """Strategy table at each ``--deltas`` timescale, or at the configured one without ``--deltas``."""
    config = _load(args)
    model = config.sim_model()
    deltas = [None] if args.deltas is None else _parse_deltas(args.deltas)
    specs = [config.ocp_spec(delta, model) for delta in deltas]
    solver_config, sim_config = config.solver_config(), config.sim_config()
    for spec in specs:  # the step count at each timescale, checked before any output
        config.sim_config(spec.delta)
    out = _prepare_out(args, config, "sweep" if args.deltas is None else f"sweep --deltas {args.deltas}")
    rows = compare_strategies(model, specs, solver_config, sim_config, config.skip_fraction)
    write_comparison_csv(rows, os.path.join(out, "comparison.csv"))
    write_gnuplot_script(os.path.join(out, "plot.gp"), comparison_csv="comparison.csv")
    for r in rows:
        print(
            f"delta={r.delta} {r.plant}/{r.solver}: final_err_theta={r.final_err_theta:.6g} "
            f"rate_per_s={r.rate_per_s:.6g} diverged={int(r.diverged)}"
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    config = _load(args)
    model = config.model()
    spec = config.ocp_spec(model=model)
    solver_config, plan = config.solver_config(), config.sampling_plan()
    out = _prepare_out(args, config, "certify")
    report = full_certificate(model, spec, solver_config, plan)
    with open(os.path.join(out, "certificate.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
    with open(os.path.join(out, "certificate.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_text())
    return EXIT_OK if report.overall_pass else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="redmpc", description="reduced-order suboptimal MPC experiments")
    parser.add_argument("--version", action="version", version=f"redmpc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file (sectioned key=value)")
        p.add_argument("--out", default="out", help="output directory")

    p_sim = sub.add_parser("simulate", help="one closed-loop run; writes trace.csv, summary.txt, plot.gp")
    common(p_sim)
    p_sim.add_argument("--strategy", choices=tuple(STRATEGIES), default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="strategy comparison across timescales; writes comparison.csv")
    common(p_sweep)
    p_sweep.add_argument("--deltas", help="comma-separated timescales, e.g. 0.01,0.1,0.2 (default: [ocp] delta)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="run the stability certification pipeline")
    common(p_cert)
    p_cert.add_argument("--seed", type=int, default=None, help="override the [certify] sampling seed")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
