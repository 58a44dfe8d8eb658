"""Command-line interface: exit codes, file outputs, validation suites."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rolled_table
from costate import (CircleReference, LqrSpec, ProblemDef, build_lqr,
                     random_smooth_problem)
from costate.cli import GdBaseline, SCHEMA_VERSION, main, run_check_suites
from costate.curvature import SYMMETRY_TOL

REPO = Path(__file__).resolve().parent.parent


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_strict_json(path):
    # RFC 8259 has no NaN or Infinity, which json.loads would accept.
    def reject(constant):
        raise ValueError(f"{path.name} is not strict JSON: {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


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

    @pytest.mark.parametrize("data", [
        b'{"scenario": \xff}',  # not UTF-8
        b"[" * 100_000,  # nested past the parser's depth
        b'{"scenario": {"N": ' + b"1" * 5000 + b"}}",  # past 4300 digits
    ], ids=["not-utf8", "too-deep", "too-many-digits"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        rc = main(["run-lqr", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error in field 'config': ")
        assert err.count("\n") == 1


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
        table = rolled_table(CircleReference(), 0.05, n_steps + horizon)
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

    def test_size_past_the_byte_range_fails_in_check_report(self, tmp_path,
                                                            capsys):
        # n * n float64 values exceed numpy's byte range, which numpy
        # refuses with a bare ValueError; nothing is allocated.
        rc = main(["check", "--sizes", "4294967296,1,1",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"check: FAIL \(.*byte range\)\n", err), err
        report = _read_strict_json(tmp_path / "check_report.json")
        assert (report["command"], report["passed"]) == ("check", False)
        assert not (tmp_path / "report.json").exists()

    def test_degenerate_size_passes(self):
        results = run_check_suites(seed=0, sizes=[(1, 1, 0)])
        assert all(r.passed for r in results)

    def test_malformed_sizes_rejected(self, capsys):
        rc = main(["check", "--sizes", "2,1"])
        assert rc == 2
        assert "sizes" in capsys.readouterr().err

    def test_seed_beyond_numpy_index_range_runs(self, capsys):
        # A seed is no size: default_rng takes any integer >= 0.
        assert main(["check", "--seed", str(2**70), "--sizes", "1,1,0"]) == 0

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

    def test_skewed_stage_hessian_fails_the_symmetry_suite(self):
        # hessian-vs-fd symmetrizes without the symmetry check, so the
        # skew reaches hessian-symmetry as a FAIL, not as an exception.
        base, x0, z = random_smooth_problem(0, 2, 1, 4)

        def skewed_dd(x, u, ks):
            cxx, cxu, cuu = base.dd_stage_cost(x, u, ks)
            cxx = np.array(cxx)
            cxx[:, 0, 1] += 1e-3
            return cxx, cxu, cuu

        skewed = dataclasses.replace(base, dd_stage_cost=skewed_dd)
        results = run_check_suites(
            seed=0, sizes=[(2, 1, 4)],
            extra_problems=[("skewed", skewed, x0, z)])
        symmetry = {r.name: r for r in results}["hessian-symmetry"]
        assert not symmetry.passed
        assert symmetry.tolerance == SYMMETRY_TOL
        assert "skewed" in symmetry.detail


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
    ("run-mpc", {"scenario": {"Q_weights": [1, 1, -1]}}, "scenario.Q_weights"),
    # The depth cap is an integer only; a cap >= max_outer is uncapped.
    ("run-lqr", {"solver": {"inner_depth_cap": "unbounded"}},
     "solver.inner_depth_cap"),
    ("run-mpc", {"solver": {"inner_depth_cap": None}},
     "solver.inner_depth_cap"),
    # An integer beyond float range reaches the dataclass unconverted.
    ("run-lqr", {"scenario": {"r": 10**400}}, "scenario.r"),
    ("run-mpc", {"scenario": {"delta": 10**400}}, "scenario.delta"),
    # An unknown warm start, which MpcConfig rejects.
    ("run-mpc", {"mpc": {"warm_start": "previous"}}, "mpc.warm_start"),
    # JSON structure: the top level, sections, objects, reference type.
    ("run-lqr", [1, 2], "config"),
    ("run-lqr", {"mpc": {}}, "mpc"),
    ("run-mpc", {"solver": 3}, "solver"),
    ("run-mpc", {"scenario": {"reference": [0, 0]}}, "scenario.reference"),
    ("run-mpc", {"scenario": {"reference": {"type": "spiral"}}},
     "scenario.reference.type"),
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
    # Beyond numpy's index range: these used to escape main, from a numpy
    # allocation and from cos on an object array.
    ("run-lqr", {"scenario": {"N": 2**70}}, "scenario.N"),
    ("run-mpc", {"scenario": {"N": 2**70}}, "scenario.N"),
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
    report = _read_strict_json(tmp_path / "report.json")
    failure = "numerical blow-up at stage 0 (stage cost)"
    assert report["steady_state"] == {
        "transient_time_s": 3.0, "max_pos_error_m": None,
        "mean_pos_error_m": None, "max_heading_error_rad": None}
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
    report = _read_strict_json(tmp_path / "report.json")
    expected = {"schema_version": SCHEMA_VERSION, "command": command,
                "passed": False,
                "failure": "numerical blow-up at stage 0 (stage cost)"}
    assert {key: report.get(key) for key in expected} == expected
    if command == "run-mpc":
        # run_mpc keeps the solved prefix, here empty, and its report.
        assert report["failed_step"] == 0
        assert report["steps_completed"] == 0


@pytest.mark.parametrize("argv, out", [
    (["run-lqr", "--config", str(REPO / "configs" / "lqr.json")], "taken"),
    (["check", "--sizes", "1,1,0"], "taken/sub"),
])
def test_out_that_cannot_be_a_directory_exits_2_before_running(
        tmp_path, capsys, argv, out):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main([*argv, "--out", str(tmp_path / out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "'out'" in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("argv, taken", [
    (["run-lqr", "--config", str(REPO / "configs" / "lqr.json")],
     "report.json"),
    (["run-lqr", "--config", str(REPO / "configs" / "lqr.json")],
     "lqr_trace.csv"),
    (["run-mpc", "--config", "{mpc}"], "mpc_trace.csv"),
    (["check", "--sizes", "1,1,0"], "check_report.json"),
])
def test_out_file_that_cannot_be_written_exits_2(tmp_path, capsys, argv,
                                                 taken):
    # A directory where a report or a CSV goes: the command runs, then the
    # write fails with an OSError, which is a config error naming out and
    # the path, not a traceback.
    cfg = _write_config(tmp_path, {"scenario": {"N": 80}})
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    rc = main([arg.format(mpc=cfg) for arg in argv] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("config error in field 'out': cannot write "
                          f"{out / taken}: "), err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run-lqr"])  # missing --config
    assert err.value.code == 2


@pytest.mark.parametrize("leaf, value", [("a", 1e6), ("b", 1e308)])
def test_solver_failure_fails_with_one_line(tmp_path, capsys, leaf, value):
    # Finite configs whose solve finds no acceptable step below the
    # regularizer cap: a failed run, where the LinearSolveError used to
    # escape main.
    config = json.loads((REPO / "configs" / "lqr.json").read_text())
    config["scenario"][leaf] = value
    cfg = _write_config(tmp_path, config)
    rc = main(["run-lqr", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    failure = re.fullmatch(r"run-lqr: FAIL \((.*)\)\n", err).group(1)
    assert failure.startswith("no acceptable step at outer iteration 0 ")
    report = _read_strict_json(tmp_path / "report.json")
    assert {key: report.get(key) for key in ("command", "passed", "failure")
            } == {"command": "run-lqr", "passed": False, "failure": failure}


@pytest.mark.parametrize("count", [2**58, 2**62])
@pytest.mark.parametrize("command, config_name", [
    ("run-lqr", "lqr.json"), ("run-mpc", "agv_circle.json")])
def test_count_too_large_to_allocate_fails_with_one_line(
        tmp_path, capsys, command, config_name, count):
    # Valid counts whose arrays cannot exist, refused before any memory is
    # touched: 2**58 float64 rows are 2 EiB, which numpy fails to allocate
    # (its MemoryError), and 2**62 rows pass numpy's byte range, which
    # numpy would refuse with a bare ValueError.  Both used to escape as
    # tracebacks.
    config = json.loads((REPO / "configs" / config_name).read_text())
    config["scenario"]["N"] = count
    cfg = _write_config(tmp_path, config)
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    failure = re.fullmatch(rf"{command}: FAIL \((.*)\)\n", err).group(1)
    assert re.search("allocate|byte range", failure)
    report = _read_strict_json(tmp_path / "report.json")
    assert {key: report.get(key) for key in ("command", "passed", "failure")
            } == {"command": command, "passed": False, "failure": failure}


# Values for a fuzzed config leaf: extremes, wrong types and plain
# settings.  No freely drawn integer: a valid count such as 2**40 would
# have numpy allocate terabytes, or a solve run for hours.
_FUZZ_VALUES = [0, -1, 1e308, 1e-320, 2**70, -2**70, "x", None, True, False,
                [0.5, 0.5, 0.5], {}, 0.5, 3, 1e6, float("nan")]


def _leaf_paths(node, path=()):
    # Paths to the scalar leaves of a JSON tree, list entries included.
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


def _bundled_config(name, **scenario):
    config = json.loads((REPO / "configs" / name).read_text())
    config["scenario"].update(scenario)
    return config


_FUZZED_CONFIGS = {"run-lqr": _bundled_config("lqr.json"),
                   "run-mpc": _bundled_config("agv_circle.json", N=70)}


def _fuzzed_config(command):
    paths = list(_leaf_paths(_FUZZED_CONFIGS[command]))
    edits = st.lists(st.tuples(st.sampled_from(paths),
                               st.sampled_from(_FUZZ_VALUES)),
                     min_size=1, max_size=3)
    return st.tuples(st.just(command), edits)


def _exits_cleanly(argv, report_name, field_pattern):
    # main in process: no exception escapes, exit 2 names its field on
    # stderr, and exit 0 or 1 leaves a report that passed or failed.
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out", out])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert re.search(field_pattern, err.getvalue()), err.getvalue()
        else:
            report = _read_strict_json(Path(out) / report_name)
            assert report["passed"] is (rc == 0)


@settings(max_examples=40, deadline=None, database=None)
@given(case=_fuzzed_config("run-lqr") | _fuzzed_config("run-mpc"))
@example(case=("run-lqr", [(("scenario", "a"), 1e6)]))
@example(case=("run-lqr", [(("scenario", "b"), 1e308)]))
@example(case=("run-lqr", [(("scenario", "N"), 2**70)]))
@example(case=("run-mpc", [(("scenario", "N"), 2**70)]))
def test_a_fuzzed_config_exits_0_1_or_2(case):
    command, edits = case
    config = json.loads(json.dumps(_FUZZED_CONFIGS[command]))
    for path, value in edits:
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), config)
        _exits_cleanly([command, "--config", cfg], "report.json",
                       r"'[a-z_]+(\.\w+)+'")


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.binary())
def test_arbitrary_config_bytes_exit_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_bytes(data)
        _exits_cleanly(["run-lqr", "--config", str(cfg)], "report.json",
                       "^config error in field '")


_INTEGERS = [v for v in _FUZZ_VALUES if type(v) is int]


# A size entry: small enough to run in milliseconds, or a fuzzed value.
_SIZE_ENTRIES = st.sampled_from([1, 2, 3]) | st.sampled_from(_FUZZ_VALUES)


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.sampled_from(_INTEGERS),
       sizes=st.lists(st.lists(_SIZE_ENTRIES, min_size=2, max_size=4),
                      min_size=1, max_size=2))
@example(seed=2**70, sizes=[[2**70, 1, 1]])
# Past numpy's byte range: refused before any allocation.  A size whose
# arrays fit the byte range but not memory would really be allocated.
@example(seed=0, sizes=[[2**32, 1, 1]])
@example(seed=0, sizes=[[1, 1, 2**31]])
def test_fuzzed_check_arguments_exit_0_1_or_2(seed, sizes):
    # "--opt=value" keeps a value that starts with "-" from reading as an
    # option.
    text = ";".join(",".join(map(str, triple)) for triple in sizes)
    _exits_cleanly(["check", f"--seed={seed}", f"--sizes={text}"],
                   "check_report.json", "'(seed|sizes)'")
