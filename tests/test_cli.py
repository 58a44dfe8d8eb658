"""Command-line interface: exit codes, file outputs, validation suites."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from costate import (CircleReference, LqrSpec, ProblemDef, build_lqr,
                     euler_rolled_reference)
from costate.cli import GdBaseline, SCHEMA_VERSION, main, run_check_suites

REPO = Path(__file__).resolve().parent.parent


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunLqr:
    def test_benchmark_config_passes(self, tmp_path):
        rc = main(["run-lqr", "--config", str(REPO / "configs" / "lqr.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "lqr_trace.csv")
        assert rows[0] == ["k", "x_solver", "u_solver", "x_riccati",
                           "u_riccati"]
        assert len(rows) == 17  # header + stages 0..15
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["max_control_deviation"] <= 1e-4
        assert report["termination"] == "Converged"

    def test_negative_r_names_the_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"scenario": {"r": -3.0}})
        rc = main(["run-lqr", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "'scenario.r'" in capsys.readouterr().err

    def test_zero_initial_state_all_zero_controls(self, tmp_path):
        cfg = _write_config(tmp_path, {"scenario": {"x0": 0.0}})
        rc = main(["run-lqr", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "lqr_trace.csv")[1:]
        assert all(float(row[2]) == 0.0 for row in rows)

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"scenario": {"alpha": 1.0}})
        rc = main(["run-lqr", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["run-lqr", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        rc = main(["run-lqr", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "line" in capsys.readouterr().err


class TestRunMpc:
    def _short_config(self, tmp_path, **scenario_overrides):
        scenario = {"N": 80}
        scenario.update(scenario_overrides)
        return _write_config(tmp_path, {"scenario": scenario})

    def test_short_run_passes(self, tmp_path):
        cfg = self._short_config(tmp_path)
        rc = main(["run-mpc", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "mpc_trace.csv")
        assert rows[0] == ["k", "t", "x", "y", "theta", "v", "omega", "x_r",
                           "y_r", "theta_r", "pos_error", "iters", "solve_ms"]
        assert len(rows) == 81
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["steady_state"]["max_pos_error_m"] <= 0.02
        assert report["max_iters"] <= 30
        assert sum(report["iteration_histogram"].values()) == 80
        assert report["terminations"] == {"Converged": 80}
        assert report["steps_unconverged"] == 0

    def test_benchmark_config_passes(self, tmp_path):
        rc = main(["run-mpc", "--config",
                   str(REPO / "configs" / "agv_circle.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["steps_completed"] == 410
        assert report["terminations"] == {"Converged": 410}
        assert report["steps_unconverged"] == 0

    def test_unconverged_steps_fail_the_run(self, tmp_path, capsys):
        # One outer iteration per step cannot meet grad_tol: every step ends
        # MaxIters, although the tracking errors may look fine.
        cfg = _write_config(tmp_path, {"scenario": {"N": 100},
                                       "solver": {"max_outer": 1}})
        rc = main(["run-mpc", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False
        assert report["terminations"] == {"MaxIters": 100}
        assert report["steps_unconverged"] == 100
        captured = capsys.readouterr()
        assert "run-mpc: FAIL" in captured.out
        assert "100 of 100 steps did not converge" in captured.err

    def test_horizon_longer_than_run_rejected(self, tmp_path, capsys):
        cfg = self._short_config(tmp_path, N=5, N_p=10)
        rc = main(["run-mpc", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "N_p" in capsys.readouterr().err

    def test_waypoint_table_reference(self, tmp_path):
        n_steps, horizon = 80, 10
        table = euler_rolled_reference(CircleReference(), 0.05,
                                       n_steps + horizon)
        cfg = _write_config(tmp_path, {"scenario": {
            "N": n_steps, "N_p": horizon,
            "reference": {"type": "table", "states": table.states.tolist(),
                          "controls": table.controls.tolist()}}})
        rc = main(["run-mpc", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "mpc_trace.csv")[1:]
        assert len(rows) == n_steps
        ref = np.array([[float(v) for v in row[7:10]] for row in rows])
        assert np.array_equal(ref, table.states[:n_steps])

    def test_baseline_comparison(self, tmp_path):
        # Short run; thresholds widened since 1.5 s is inside the transient.
        cfg = _write_config(tmp_path, {
            "scenario": {"N": 30},
            "baseline": {"lr": 0.05, "max_iters": 3000},
            "output": {"transient_time_s": 1.0, "max_pos_error_m": 1.0,
                       "max_heading_error_rad": 1.0},
        })
        rc = main(["run-mpc", "--config", cfg, "--baseline", "gd",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        gd = report["baseline"]
        assert len(gd["per_step_iters"]) == 30
        assert len(report["per_step_iters"]) == 30
        assert report["median_iters"] < gd["median_iters"]


class TestCheck:
    def test_small_sizes_pass(self, tmp_path, capsys):
        rc = main(["check", "--seed", "3", "--sizes", "2,1,5;1,1,0",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fd-consistency" in out and "PASS" in out
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["passed"] is True
        assert {s["name"] for s in report["suites"]} == {
            "fd-consistency", "gradient-vs-fd", "hessian-vs-fd",
            "hessian-symmetry", "rollout-sensitivity", "lqr-riccati"}

    def test_degenerate_size_passes(self):
        results = run_check_suites(seed=0, sizes=[(1, 1, 0)])
        assert all(r.passed for r in results)

    def test_malformed_sizes_rejected(self, capsys):
        rc = main(["check", "--sizes", "2,1"])
        assert rc == 2
        assert "sizes" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        rc = main(["check", "--seed", "-1"])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err

    def test_failing_suite_exits_1_and_names_the_property(self, monkeypatch,
                                                          capsys):
        from costate import cli as cli_mod

        def fake_suites(seed=0, sizes=None, extra_problems=None):
            return [cli_mod.SuiteResult(name="fd-consistency", passed=False,
                                        max_error=0.42, tolerance=1e-5,
                                        detail=f"seed {seed}, problem bad")]

        monkeypatch.setattr(cli_mod, "run_check_suites", fake_suites)
        rc = main(["check", "--seed", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "fd-consistency" in err and "seed 5" in err

    def test_module_entry_point_runs_check(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "costate.cli", "check", "--sizes", "1,1,0"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "suite" in proc.stdout and "fd-consistency" in proc.stdout
        assert "lqr-riccati" in proc.stdout

    def test_unbounded_inner_depth_accepted(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "scenario": {"x0": 0.5},
            "solver": {"inner_depth_cap": "unbounded"},
        })
        assert main(["run-lqr", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_injected_sign_flip_fails_fd_consistency(self):
        base = build_lqr(LqrSpec(N=4))
        flipped = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost,
            d_dynamics=lambda x, u, k: tuple(
                -np.asarray(j) for j in base.d_dynamics(x, u, k)),
            d_stage_cost=base.d_stage_cost,
            dd_stage_cost=base.dd_stage_cost,
            dd_dynamics_contracted=base.dd_dynamics_contracted,
        )
        results = run_check_suites(
            seed=0, sizes=[(2, 1, 4)],
            extra_problems=[("sign-flipped", flipped, np.array([1.0]),
                             np.zeros(5))])
        by_name = {r.name: r for r in results}
        assert not by_name["fd-consistency"].passed
        assert "sign-flipped" in by_name["fd-consistency"].detail


@pytest.mark.parametrize("command, payload, field", [
    ("run-lqr", {"solver": {"fallback_scale": 0.5}}, "solver.fallback_scale"),
    ("run-lqr", {"scenario": {"a": float("nan")}}, "scenario.a"),
    ("run-lqr", {"scenario": {"x0": float("inf")}}, "scenario.x0"),
    ("run-mpc", {"scenario": {"X0": [1, 2, float("nan")]}}, "scenario.X0"),
    ("run-mpc", {"scenario": {"reference": {"center": [0]}}},
     "scenario.reference.center"),
    ("run-mpc", {"scenario": {"reference": {"angular_rate": "fast"}}},
     "scenario.reference.angular_rate"),
    ("run-mpc", {"scenario": {"reference": {"type": "table"}}},
     "scenario.reference.states"),
    ("run-mpc", {"scenario": {"N": 2, "N_p": 1, "reference": {
        "type": "table", "states": [[0, 0, 0]] * 2,
        "controls": [[1, 1]] * 2}}}, "scenario.reference"),
    ("run-mpc", {"scenario": {"N": 5, "N_p": 3}}, "output.transient_time_s"),
])
def test_bad_config_exits_2_and_names_the_field(tmp_path, capsys, command,
                                                payload, field):
    # json.dumps writes NaN and Infinity literals, which json.load accepts.
    cfg = _write_config(tmp_path, payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, field", [
    ("run-lqr", {"scenario": {"N": -1}}, "scenario.N"),
    ("run-mpc", {"scenario": {"N_p": 0}}, "scenario.N_p"),
    ("run-mpc", {"baseline": {"max_iters": 0}}, "baseline.max_iters"),
])
def test_count_range_error_names_the_field(tmp_path, capsys, command,
                                           payload, field):
    cfg = _write_config(tmp_path, payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_gd_baseline_budget_is_a_count():
    with pytest.raises(ValueError, match="^max_iters must be an integer"):
        GdBaseline(max_iters=2.5)
    assert GdBaseline(max_iters=np.int64(7)).max_iters == 7


def test_failed_baseline_reports_its_failure(tmp_path):
    # The plant start overflows the first rollout of both runs; the
    # baseline block says so itself instead of reading as an empty run, and
    # both blocks count the blown-up step although it left no report.
    cfg = _write_config(tmp_path, {"scenario": {"X0": [1e200, 0, 0]}})
    rc = main(["run-mpc", "--config", cfg, "--baseline", "gd",
               "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failure = "numerical blow-up at stage 0 (stage cost)"
    for block in (report, report["baseline"]):
        assert block["failed_step"] == 0
        assert block["failure"] == failure
        assert block["terminations"] == {"NumericalBlowup": 1}
        assert block["steps_unconverged"] == 1
        assert block["median_iters"] is None
    gd = report["baseline"]
    assert (gd["method"], gd["per_step_iters"], gd["steps_at_cap"]) == (
        "gd", [], 0)


@pytest.mark.parametrize("command, payload", [
    ("run-lqr", {"scenario": {"N": 2, "x0": 1e308}}),
    ("run-mpc", {"scenario": {"X0": [1e200, 0, 0]}}),
])
def test_rollout_blowup_fails_with_one_line(tmp_path, capsys, command,
                                            payload):
    # Finite configs whose first rollout overflows: a failed run, exit 1.
    cfg = _write_config(tmp_path, payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"{command}: FAIL (numerical blow-up at stage 0 "
                   f"(stage cost))\n")
    report = json.loads((tmp_path / "report.json").read_text())
    expected = {"schema_version": SCHEMA_VERSION, "command": command,
                "passed": False,
                "failure": "numerical blow-up at stage 0 (stage cost)"}
    assert {key: report.get(key) for key in expected} == expected
    if command == "run-mpc":
        # run_mpc keeps the solved prefix, here empty, and its report.
        assert report["failed_step"] == 0
        assert report["steps_completed"] == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run-lqr"])  # missing --config
    assert err.value.code == 2
