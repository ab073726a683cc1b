import dataclasses
import filecmp
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from redmpc.certify import SamplingPlan
from redmpc.cli import EXIT_CERT_FAIL, EXIT_CONFIG, EXIT_OK, build_parser, main
from redmpc.config import DEFAULTS, ConfigError, load_config, manifest_text, parse_config_text
from redmpc.ocp import SolverConfig
from redmpc.plant import PendulumParams
from redmpc.simulate import Strategy

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

FAST_CERT = """
[certify]
model = linear
equilibrium_samples = 300
fast_samples = 150
lipschitz_pairs = 100
n_states = 3
optimizer_pairs_per_state = 6
boundary_samples = 60
n_value_states = 12
map_pairs = 8
closed_loop_samples = 12
multistart_states = 1
multistart_points = 2

[solver]
iters_per_sample = 25

[ocp]
delta = 0.01
horizon_steps = 5
q_theta = 1.0
q_omega = 1.0
qf_theta = 1.0
qf_omega = 1.0
r_input = 0.1
u_max = 10.0
"""


class TestConfigParsing:
    def test_defaults_materialized(self):
        cfg = load_config(None)
        assert cfg["pendulum"]["K_t"] == 0.4
        assert cfg["ocp"]["delta"] == 0.01
        assert cfg["solver"]["step_rule"] == "backtracking"
        assert cfg["sim"]["strategy"] == "proposed"
        spec = cfg.ocp_spec()
        assert spec.horizon_N == 50
        assert np.array_equal(spec.state_weight, np.diag([100.0, 0.1]))
        assert spec.input_box[1][0] == 24.0

    def test_readme_example_builds_every_object(self, tmp_path):
        cfgfile = tmp_path / "readme.cfg"
        cfgfile.write_text(README.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(str(cfgfile))
        builders = ("pendulum_params", "model", "sim_model", "ocp_spec", "solver_config", "sim_config", "sampling_plan")
        for name in builders:
            getattr(cfg, name)()
        assert (cfg["solver"]["step_rule"], cfg["sim"]["strategy"], cfg["certify"]["model"]) == (
            "backtracking", "proposed", "pendulum"
        )
        assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == EXIT_OK

    def test_readme_cli_lines_parse(self):
        block = README.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("redmpc ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    # a choice that is not allowed -> the setting its message names
    CHOICES = {
        "sim.strategy": lambda: load_config(None, {"sim": {"strategy": "bogus"}}),
        "certify.model": lambda: load_config(None, {"certify": {"model": "bogus"}}),
        "solver.step_rule": lambda: load_config(None, {"solver": {"step_rule": "bogus"}}),
        "Strategy.plant_kind": lambda: Strategy("bogus", "optimal"),
    }

    @pytest.mark.parametrize("setting", sorted(CHOICES))
    def test_choice_names_the_setting(self, setting):
        section, key = setting.split(".")
        message = rf"{key} must be one of \[.+\], got 'bogus'"
        if section in DEFAULTS:  # a config key is checked at load, and its error names its section
            message = rf"^bad value for {section}\.{key}: 'bogus' \({message}\)$"
        with pytest.raises(ValueError, match=message):
            self.CHOICES[setting]()

    def test_keys_are_the_dataclass_fields(self):
        def keys(cls, *excluded):
            return [(f.name, f.default) for f in dataclasses.fields(cls) if f.name not in excluded]

        sections = {
            "pendulum": keys(PendulumParams),
            "solver": keys(SolverConfig, "max_backtracks"),
            "certify": [("model", "pendulum")] + keys(SamplingPlan),
        }
        for section, expected in sections.items():
            assert [(key, default) for key, (_, default) in DEFAULTS[section].items()] == expected, section

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[bogus]\nx = 1\n")

    def test_unknown_key_names_allowed(self):
        with pytest.raises(ConfigError, match="allowed keys"):
            parse_config_text("[solver]\nwarp_speed = 9\n")

    def test_syntax_error_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[ocp]\nnot a pair\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("delta = 0.1\n")

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta must be positive"):
            load_config(None, {"ocp": {"delta": "-1"}}).ocp_spec()

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            load_config(None, {"sim": {"strategy": "warp"}})

    def test_bad_model_rejected(self):
        with pytest.raises(ConfigError, match="model must be one of"):
            load_config(None, {"certify": {"model": "quadratic"}})

    def test_override_names_checked_as_in_a_file(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(None, {"bogus": {}})
        with pytest.raises(ConfigError, match="allowed keys"):
            load_config(None, {"solver": {"warp_speed": "9"}})

    def test_horizon_override(self):
        cfg = load_config(None, {"ocp": {"horizon_steps": "7"}})
        assert cfg.ocp_spec().horizon_N == 7

    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# header\n\n[ocp]\n# inner\ndelta = 0.1\n")
        assert raw == {"ocp": {"delta": "0.1"}}

    def test_manifest_reparses_to_same_values(self):
        cfg = load_config(None, {"ocp": {"delta": "0.05"}, "certify": {"seed": "3"}})
        text = manifest_text(cfg, "x.y", "simulate", "outdir")
        reparsed = load_config(None, parse_config_text(text))
        assert reparsed.values == cfg.values


class TestCliSimulate:
    def test_files_created(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.1\n[sim]\nduration_s = 2.0\nstrategy = subopt-full\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("trace.csv", "summary.txt", "plot.gp", "manifest.txt"):
            assert (out / name).exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "step,time_s,theta,omega,current,u,err_norm,err_theta,stage_cost,solver_iters,pg_norm"

    def test_equilibrium_run_all_zero_columns(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.1\n[sim]\nduration_s = 1.0\ntheta0 = 0.0\nomega0 = 0.0\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert all(float(fields[i]) == 0.0 for i in (2, 3, 4, 5, 6, 7, 8))

    def test_negative_delta_is_config_error(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = -1\n")
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_manifest_round_trip_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.1\n[sim]\nduration_s = 2.0\ntheta0 = 0.8\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == EXIT_OK
        assert filecmp.cmp(out1 / "trace.csv", out2 / "trace.csv", shallow=False)
        assert filecmp.cmp(out1 / "summary.txt", out2 / "summary.txt", shallow=False)

    def test_strategy_flag_sets_the_strategy(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.1\n[sim]\nduration_s = 1.0\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfgfile), "--strategy", "opt-full", "--out", str(out)]) == EXIT_OK
        assert (out / "summary.txt").read_text().startswith("strategy=reduced/optimal ")
        assert "\nstrategy = opt-full\n" in (out / "manifest.txt").read_text()

    def test_unknown_flag_is_config_error(self, tmp_path):
        rc = main(["simulate", "--bogus", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestCliConfigErrors:
    """A value that does not parse, or parses but fails a check of the objects built from it, exits 1
    before any output."""

    def assert_config_error(self, tmp_path, capsys, text, argv, message=""):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # "compare" is sweep at the configured delta
    COMMANDS = {
        "simulate": ["simulate"], "compare": ["sweep"], "sweep": ["sweep", "--deltas", "0.1"], "certify": ["certify"]
    }
    SIM_READERS = ("simulate", "compare", "sweep")  # certify does not read [sim]
    # probe -> (config text, the commands that read its section)
    REJECTED = {
        "shrink": ("[solver]\nshrink = 2\n", COMMANDS),
        "mass": ("[pendulum]\nmass = -1\n", COMMANDS),
        "delta": ("[ocp]\ndelta = 2.0\n", COMMANDS),
        "alpha0_nan": ("[solver]\nalpha0 = nan\n", COMMANDS),
        "alpha0_inf": ("[solver]\nalpha0 = inf\n", COMMANDS),
        "optimal_tol_nan": ("[solver]\noptimal_tol = nan\n", COMMANDS),
        "armijo_c_negative": ("[solver]\narmijo_c = -1\n", COMMANDS),
        "armijo_c_nan": ("[solver]\narmijo_c = nan\n", COMMANDS),
        "max_optimal_iters": ("[solver]\nmax_optimal_iters = -3\n", COMMANDS),
        "duration_s_nan": ("[sim]\nduration_s = nan\n", SIM_READERS),
        "duration_s_inf": ("[sim]\nduration_s = inf\n", SIM_READERS),
        "theta0_nan": ("[sim]\ntheta0 = nan\n", SIM_READERS),
        "skip_fraction_2": ("[sim]\nskip_fraction = 2\n", SIM_READERS),
        "skip_fraction_nan": ("[sim]\nskip_fraction = nan\n", SIM_READERS),
        "u_max_nan": ("[ocp]\nu_max = nan\n", COMMANDS),
        "u_max_inf": ("[ocp]\nu_max = inf\n", COMMANDS),
        "q_theta_nan": ("[ocp]\nq_theta = nan\n", COMMANDS),
        "horizon_window_s_inf": ("[ocp]\nhorizon_window_s = inf\n", COMMANDS),
        "q_theta_negative": ("[ocp]\nq_theta = -5\n", COMMANDS),
        "qf_omega_negative": ("[ocp]\nqf_omega = -1\n", COMMANDS),
        "r_input_zero": ("[ocp]\nr_input = 0\n", COMMANDS),
        # window/delta and duration/delta overflow to inf
        "horizon_window_s_huge": ("[ocp]\nhorizon_window_s = 1e307\n", COMMANDS),
        "duration_s_huge": ("[sim]\nduration_s = 1e308\n", SIM_READERS),
    }
    CASES = [(probe, command) for probe, (_, commands) in REJECTED.items() for command in commands]

    @pytest.mark.parametrize("probe,command", CASES, ids=[f"{probe}-{command}" for probe, command in CASES])
    def test_rejected_value(self, tmp_path, capsys, probe, command):
        self.assert_config_error(tmp_path, capsys, self.REJECTED[probe][0], self.COMMANDS[command])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[solver]\niters_per_sample = two\n", "bad value for solver.iters_per_sample: 'two'"),
            ("[ocp]\nhorizon_steps = ten\n", "bad value for ocp.horizon_steps: 'ten'"),
        ],
        ids=["iters_per_sample", "horizon_steps"],
    )
    def test_unparsed_value(self, tmp_path, capsys, text, message):
        self.assert_config_error(tmp_path, capsys, text, ["simulate"], message)

    def test_step_count_checked_at_each_swept_timescale(self, tmp_path, capsys):
        # 1e4 s is 1e6 steps at the configured 0.01 but 1e7, over the bound, at the swept 0.001
        self.assert_config_error(tmp_path, capsys, "[sim]\nduration_s = 1e4\n", ["sweep", "--deltas", "0.01,0.001"])

    @pytest.mark.parametrize(
        "text,flags",
        [
            ("[certify]\nn_states = 0\n", []),
            ("[certify]\nn_value_states = 0\n", []),
            ("[certify]\nmultistart_points = 1\n", []),
            ("[certify]\nsafety_factor = 0.5\n", []),
            ("[certify]\nstate_ball = inf\n", []),
            ("[certify]\nerror_ball = inf\n", []),
            ("[certify]\ndelta_cap = inf\n", []),
            ("", ["--seed", "-1"]),
        ],
        ids=[
            "n_states", "n_value_states", "multistart_points", "safety_factor",
            "state_ball", "error_ball", "delta_cap", "seed",
        ],
    )
    def test_rejected_sampling_plan(self, tmp_path, capsys, text, flags):
        self.assert_config_error(tmp_path, capsys, text, ["certify", *flags])

    def test_swept_delta_at_delta_max(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, "", ["sweep", "--deltas", "0.1,1.0"])


class TestCliDivergence:
    # An inductance scale below R/2 makes the fast subsystem expand; the full
    # plant state reaches non-finite values and the run must exit 3.
    UNSTABLE = "[pendulum]\nL_tilde = 0.1\n[ocp]\ndelta = 0.01\n[sim]\nduration_s = 6.0\n"

    def test_simulate_exits_3_and_truncates(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(self.UNSTABLE)
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="does not contract"):
            rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 3
        assert "diverged=1" in (out / "summary.txt").read_text()

    def test_sweep_records_divergence_but_exits_0(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(self.UNSTABLE)
        out = tmp_path / "sweep"
        with pytest.warns(UserWarning, match="does not contract"):
            rc = main(["sweep", "--config", str(cfgfile), "--out", str(out), "--deltas", "0.01"])
        assert rc == EXIT_OK
        rows = [r.split(",") for r in (out / "comparison.csv").read_text().splitlines()[1:]]
        flags = {(r[1], r[2]): r[7] for r in rows}
        assert flags[("full", "suboptimal")] == "1"  # full plant diverges
        assert flags[("reduced", "suboptimal")] == "0"  # reduced plant never sees the fast loop


class TestCliSweep:
    def test_grid_rows(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[sim]\nduration_s = 1.0\n")
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out), "--deltas", "0.1,0.2"])
        assert rc == EXIT_OK
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "delta,plant,solver,final_err_theta,rate_per_s,r2,mean_iters,diverged"
        assert len(lines) == 7  # 2 deltas x 3 strategies

    def test_equilibrium_rows_zero(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[sim]\nduration_s = 1.0\ntheta0 = 0.0\n")
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out), "--deltas", "0.1"])
        assert rc == EXIT_OK
        for row in (out / "comparison.csv").read_text().splitlines()[1:]:
            fields = row.split(",")
            assert float(fields[3]) == 0.0 and float(fields[4]) == 0.0
            assert fields[7] == "0"

    def test_malformed_deltas(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--deltas", "0.01,,0.1"])
        assert rc == EXIT_CONFIG

    def test_nonpositive_delta(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--deltas", "0.1,-0.2"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("horizon", ["horizon_steps = 3", "horizon_window_s = 0.2"])
    def test_horizon_keys_set_the_horizon(self, tmp_path, horizon):
        runs = {}
        for name, ocp in (("default", ""), ("set", horizon)):
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(f"[ocp]\n{ocp}\n[sim]\nduration_s = 1.0\n")
            out = tmp_path / name
            assert main(["sweep", "--config", str(cfgfile), "--out", str(out), "--deltas", "0.1"]) == EXIT_OK
            runs[name] = (out / "comparison.csv").read_text()
        assert runs["set"] != runs["default"]

    def test_without_deltas_sweeps_the_configured_delta(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.2\n[sim]\nduration_s = 1.0\n")
        runs = {}
        for name, flags in (("configured", []), ("given", ["--deltas", "0.2"])):
            assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / name), *flags]) == EXIT_OK
            runs[name] = (tmp_path / name / "comparison.csv").read_bytes()
        assert runs["configured"] == runs["given"]

    def test_manifest_names_the_swept_timescales(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.2\n[sim]\nduration_s = 1.0\n")
        commands = {}
        for name, flags in (("given", ["--deltas", "0.1,0.2"]), ("configured", [])):
            assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / name), *flags]) == EXIT_OK
            commands[name] = (tmp_path / name / "manifest.txt").read_text().splitlines()[1]
        assert commands == {"given": "# command: sweep --deltas 0.1,0.2", "configured": "# command: sweep"}

    def test_manifest_round_trip_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[sim]\nduration_s = 1.5\ntheta0 = 0.9\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfgfile), "--out", str(out1), "--deltas", "0.2"]) == EXIT_OK
        assert main(["sweep", "--config", str(out1 / "manifest.txt"), "--out", str(out2), "--deltas", "0.2"]) == EXIT_OK
        assert filecmp.cmp(out1 / "comparison.csv", out2 / "comparison.csv", shallow=False)


class TestCliCompare:
    def test_single_delta_table(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("[ocp]\ndelta = 0.2\n[sim]\nduration_s = 1.0\n")
        out = tmp_path / "cmp"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 4


class TestCliCertify:
    def test_linear_model_passes(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(FAST_CERT)
        out = tmp_path / "cert"
        rc = main(["certify", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "certificate.txt").exists()
        blob = json.loads((out / "certificate.json").read_text())
        assert blob["overall_pass"] is True
        assert blob["delta_bar"] > 0.0

    def test_contraction_boundary_fails_with_exit_2(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            FAST_CERT.replace("model = linear", "model = pendulum")
            + "\n[pendulum]\nL_tilde = 0.3\n"
        )
        out = tmp_path / "cert"
        with pytest.warns(UserWarning, match="does not contract"):
            rc = main(["certify", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CERT_FAIL
        blob = json.loads((out / "certificate.json").read_text())
        assert blob["overall_pass"] is False
        failed = {v["name"]: v for v in blob["verdicts"] if not v["passed"]}
        assert "fast-error-decrease" in failed

    def test_unconverged_closed_loop_solve_fails_with_exit_2(self, tmp_path):
        # three solver iterations miss the tolerance at some states of a ball of radius 500 about x*
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            FAST_CERT.replace("[solver]\n", "[solver]\nmax_optimal_iters = 3\n").replace(
                "[certify]\n", "[certify]\nstate_ball = 500\n"
            )
        )
        out = tmp_path / "cert"
        rc = main(["certify", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CERT_FAIL
        assert (out / "certificate.txt").read_text().endswith("overall: FAIL\n")
        blob = json.loads((out / "certificate.json").read_text())
        failed = {v["name"]: v["detail"] for v in blob["verdicts"] if not v["passed"]}
        assert "did not converge" in failed["closed-loop-decrease"] and blob["closed_loop"] is None
        assert "reduced-value-solves" in failed

    def test_manifest_written_before_outputs(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(FAST_CERT)
        out = tmp_path / "cert"
        main(["certify", "--config", str(cfgfile), "--out", str(out)])
        names = sorted(os.listdir(out))
        assert "manifest.txt" in names and "certificate.json" in names
