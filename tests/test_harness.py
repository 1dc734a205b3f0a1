import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
import ehcoop
from ehcoop import cli, harness, transfer, waterfill
from ehcoop.model import InputError, ModelKind, TransferPolicy, check_feasible
from ehcoop.waterfill import solve

VALID_SCENARIO = {
    "model": "TWC",
    "harvests_mJ": [[2.0, 5.0, 0.0, 0.0], [0.0, 4.0, 0.0, 7.0]],
    "battery_capacity_mJ": ["inf", "inf"],
    "transfer_efficiency": [0.5, 0.5],
    "channel_gain_dB": [-100.0, -100.0],
    "noise_power_W": [1e-13, 1e-13],
}

# default-seed verify-cli entry 2 (THC, infinite batteries) needs two passes;
# with waterfill.MAX_PASSES = 1 its solve reports converged=False
TWO_PASS_THC = dict(VALID_SCENARIO, model="THC",
                    harvests_mJ=[[9.180475409996028, 8.605109461151896, 9.03713470566495],
                                 [7.955237307033812, 1.9420096873733705, 3.0095810994642305]],
                    transfer_efficiency=[0.3673537390903534, 0.7992763514812304],
                    channel_gain_dB=[-97.73122672858605, -98.52362314531442])


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_ehcoop(*args):
    """`python -m ehcoop` in a fresh process, on the sources under test."""
    src = str(Path(ehcoop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ehcoop", *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestScenarioIO:
    def test_minimal_valid(self, tmp_path):
        sc = harness.load_scenario(write_json(tmp_path, "sc.json", VALID_SCENARIO))
        assert sc.model_kind is ModelKind.TWC
        assert sc.slot_seconds == 1.0
        assert all(math.isinf(c) for c in sc.battery_capacity)

    def test_finite_capacity_numbers(self, tmp_path):
        d = dict(VALID_SCENARIO, battery_capacity_mJ=[5.0, "inf"])
        sc = harness.load_scenario(write_json(tmp_path, "sc.json", d))
        assert sc.battery_capacity[0] == 5.0
        assert math.isinf(sc.battery_capacity[1])

    def test_alpha_out_of_range(self, tmp_path):
        d = dict(VALID_SCENARIO, transfer_efficiency=[1.2, 0.5])
        with pytest.raises(InputError, match="transfer_efficiency"):
            harness.load_scenario(write_json(tmp_path, "sc.json", d))

    def test_missing_field_named(self):
        d = {k: v for k, v in VALID_SCENARIO.items() if k != "noise_power_W"}
        with pytest.raises(InputError, match="noise_power_W"):
            harness.scenario_from_dict(d)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="JSON"):
            harness.load_scenario(str(path))

    def test_field_nested_past_the_recursion_limit(self):
        deep = 1.0
        for _ in range(sys.getrecursionlimit() + 10):
            deep = [deep]
        with pytest.raises(InputError, match="harvests"):
            harness.scenario_from_dict(dict(VALID_SCENARIO, harvests_mJ=deep))

    def test_round_trip(self):
        sc = harness.scenario_from_dict(VALID_SCENARIO)
        again = harness.scenario_from_dict(harness.scenario_to_dict(sc))
        assert np.array_equal(sc.harvests, again.harvests)


class TestRunSweep:
    def test_zero_peak_gives_zero_objectives(self):
        spec = harness.SweepSpec(
            base=make_scenario(), swept_parameter="peak_harvest_node1",
            values=(0.0,), trials_per_point=1, seed=3, peak_harvest_node2=0.0)
        rows = harness.run_sweep(spec)
        assert all(r.mean_nats == 0.0 for r in rows)

    def test_mode_nesting_per_row(self):
        spec = harness.SweepSpec(
            base=make_scenario(), swept_parameter="peak_harvest_node1",
            values=(2.0, 6.0), trials_per_point=3, seed=5,
            modes=("bidirectional", "uni_1_to_2", "uni_2_to_1", "no_cooperation"))
        rows = harness.run_sweep(spec)
        for value in (2.0, 6.0):
            by_mode = {r.mode: r.mean_nats for r in rows if r.swept_value == value}
            assert by_mode["bidirectional"] >= by_mode["uni_1_to_2"] - 1e-9
            assert by_mode["bidirectional"] >= by_mode["uni_2_to_1"] - 1e-9
            assert by_mode["uni_1_to_2"] >= by_mode["no_cooperation"] - 1e-9
            assert by_mode["uni_2_to_1"] >= by_mode["no_cooperation"] - 1e-9

    def test_alpha1_range_equals_its_values(self):
        sweep = {"base_scenario": TWO_PASS_THC, "swept_parameter": "alpha1",
                 "lo": 0.0, "hi": 1.0, "step": 0.25, "trials_per_point": 2,
                 "modes": ["bidirectional", "uni_1_to_2", "no_cooperation"]}
        spec = harness.sweep_spec_from_dict(sweep)
        assert spec.values == tuple(np.arange(0, 1.125, 0.25))
        rows = harness.run_sweep(spec)
        del sweep["lo"], sweep["hi"], sweep["step"]
        sweep["values"] = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert rows == harness.run_sweep(harness.sweep_spec_from_dict(sweep))
        assert len(rows) == 15 and all(r.converged for r in rows)
        for value in spec.values:
            by_mode = {r.mode: r.mean_nats for r in rows if r.swept_value == value}
            assert by_mode["bidirectional"] >= by_mode["uni_1_to_2"] - 1e-9
            assert by_mode["uni_1_to_2"] >= by_mode["no_cooperation"] - 1e-9

    def test_bad_swept_parameter(self):
        with pytest.raises(InputError):
            harness.SweepSpec(base=make_scenario(), swept_parameter="peak3",
                              values=(1.0,))


class TestEmit:
    def test_csv_header_and_rows(self, tmp_path):
        rows = [harness.SweepRow(1.0, "bidirectional", 0.5, 0.5 / math.log(2), 3, 9)]
        out = tmp_path / "sweep.csv"
        harness.emit(rows, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "swept_value,mode,mean_nats,mean_bits,trials,seed,converged"
        assert len(lines) == 2

    def test_csv_reads_back_converged(self, tmp_path):
        rows = [harness.SweepRow(2.0, "no_cooperation", 1.25, 1.25 / math.log(2), 4, 3,
                                 converged=False)]
        out = tmp_path / "sweep.csv"
        harness.emit(rows, "csv", str(out))
        with open(out, newline="") as fh:
            (back,) = list(csv.DictReader(fh))
        assert back["converged"] == "False"
        assert float(back["mean_nats"]) == 1.25
        assert (back["mode"], back["trials"], back["seed"]) == ("no_cooperation", "4", "3")

    def test_empty_sweep_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        harness.emit([], "csv", str(out))
        assert out.read_text().splitlines() == [
            "swept_value,mode,mean_nats,mean_bits,trials,seed,converged"]

    def test_report_json_round_trip(self, tmp_path):
        sc = harness.scenario_from_dict(VALID_SCENARIO)
        report = solve(sc)
        out = tmp_path / "report.json"
        harness.emit(harness.report_to_dict(report, sc), "json", str(out))
        loaded = json.loads(out.read_text())
        assert loaded["consumed_mW"] == report.policy.consumed.tolist()
        assert loaded["objective_nats"] == report.objective_nats
        # the emitted policy re-validates on reload
        from ehcoop.model import TransferPolicy
        pol = TransferPolicy(p=np.array(loaded["transmit_mW"]),
                             delta=np.array(loaded["delta_mJ"]))
        assert check_feasible(pol, harness.scenario_from_dict(loaded["scenario"])).feasible

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            harness.emit([], "xml", str(tmp_path / "x"))


class TestCli:
    def test_solve_ok(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "sc.json", VALID_SCENARIO)
        out = tmp_path / "report.json"
        code = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert "objective:" in capsys.readouterr().out
        assert out.exists()

    def test_solve_bits_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "sc.json", VALID_SCENARIO)
        assert cli.main(["solve", "--config", cfg, "--bits"]) == 0
        assert "bits" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["solve", "--config", "/nonexistent.json"]) == 1

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        d = dict(VALID_SCENARIO, model="XYZ")
        cfg = write_json(tmp_path, "sc.json", d)
        assert cli.main(["solve", "--config", cfg]) == 1

    def test_non_numeric_harvests_is_input_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "sc.json", dict(VALID_SCENARIO, harvests_mJ="abc"))
        assert cli.main(["solve", "--config", cfg]) == 1
        assert "error: harvests" in capsys.readouterr().err

    def test_sweep_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text("{not json")
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "error: sweep file is not valid JSON" in capsys.readouterr().err

    def test_sweep_non_numeric_values_is_input_error(self, tmp_path, capsys):
        sweep = {"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                 "values": ["high"]}
        cfg = write_json(tmp_path, "sweep.json", sweep)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        dict(trials_per_point=2.5), dict(trials_per_point=0), dict(trials_per_point=True),
        dict(seed=-1), dict(seed=1.5), dict(peak_harvest_node1=-1.0),
        dict(peak_harvest_node2="x"), dict(peak_harvest_node2=None),
    ])
    def test_sweep_malformed_number_is_input_error(self, tmp_path, capsys, field):
        sweep = dict({"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                      "values": [0.5], "modes": ["bidirectional"]}, **field)
        cfg = write_json(tmp_path, "sweep.json", sweep)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert next(iter(field)) in err

    @pytest.mark.parametrize("field", [
        dict(harvests_mJ=[["2", "5", "0", "0"], [True, False, 0.0, 7.0]]),
        dict(transfer_efficiency=[True, "0.5"]), dict(channel_gain_dB=[-100.0, None]),
        dict(noise_power_W=[1e-13, "1e-13"]), dict(slot_seconds="1"), dict(slot_seconds=True),
    ])
    def test_non_number_scenario_field_is_input_error(self, tmp_path, capsys, field):
        cfg = write_json(tmp_path, "sc.json", dict(VALID_SCENARIO, **field))
        assert cli.main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert next(iter(field)) in err

    @pytest.mark.parametrize("field", [
        dict(values=["0.5"]), dict(values=[True]), dict(values="05"),
        dict(lo="0", hi=1.0, step=0.5), dict(lo=0.0, hi=True, step=0.5),
        dict(lo=0.0, hi=1.0, step="0.5"),
    ])
    def test_sweep_non_number_range_is_input_error(self, tmp_path, capsys, field):
        sweep = dict({"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                      "modes": ["bidirectional"]}, **field)
        cfg = write_json(tmp_path, "sweep.json", sweep)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "must be numeric" in err

    @pytest.mark.parametrize("depth", [985, 5000])
    @pytest.mark.parametrize("command, payload", [
        ("solve", dict(VALID_SCENARIO, harvests_mJ="@")),
        ("verify", dict(VALID_SCENARIO, harvests_mJ="@")),
        ("sweep", {"base_scenario": dict(VALID_SCENARIO, harvests_mJ="@"),
                   "swept_parameter": "alpha1", "values": [0.5]}),
        ("sweep", {"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                   "values": "@"}),
    ], ids=["solve", "verify", "sweep-base_scenario", "sweep-values"])
    def test_deeply_nested_json_is_input_error(self, tmp_path, command, payload, depth):
        # in a fresh process json.load parses 985 levels, so the field check
        # meets them all; past about 1,000 the parse itself gives up
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(payload).replace('"@"', "[" * depth + "1.0" + "]" * depth))
        out = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
        done = run_ehcoop(command, "--config", str(path), *out)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr

    def test_misspelled_scenario_field_is_input_error(self, tmp_path, capsys):
        # a misspelled optional field would otherwise solve with its default
        d = dict(VALID_SCENARIO, harvests_mJ=[[2, 5], [0, 4]], slot_second=10.0)
        cfg = write_json(tmp_path, "sc.json", d)
        assert cli.main(["solve", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown scenario field(s) 'slot_second'\n"
        assert captured.out == ""

    def test_misspelled_sweep_field_is_input_error(self, tmp_path, capsys):
        sweep = {"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                 "values": [0.5], "trials": 1, "mode": ["bidirectional"]}
        cfg = write_json(tmp_path, "sweep.json", sweep)
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown sweep spec field(s) 'trials', 'mode'\n"
        assert not out.exists()

    def test_sweep_range_too_long_is_input_error(self, tmp_path, capsys):
        sweep = {"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                 "lo": 0.0, "hi": 1.0, "step": 1e-13}
        cfg = write_json(tmp_path, "sweep.json", sweep)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"more than {harness.MAX_SWEEP_POINTS} points" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("spec, message", [
        (dict(modes=[]), "sweep needs at least one mode"),
        (dict(base_scenario=None), "missing required field 'base_scenario'"),
        (dict(swept_parameter=None), "missing required field 'swept_parameter'"),
        (dict(values=None), "missing required field 'values'"),
        (dict(modes="bi"), "modes must be a JSON array"),
        (dict(values={"0.5": 1.0}), "values must be numeric"),
        (dict(values=0.5), "values must be a JSON array"),
        (dict(values=[[0.5]]), "values must be numeric, got [0.5]"),
        (dict(values=[0.5, [1.0]]), "values must be numeric, got [1.0]"),
        (dict(values=None, lo=[0.0], hi=1.0, step=0.5), "lo must be numeric, got [0.0]"),
        (dict(modes=[["bi"]]), "modes must be strings, got ['bi']"),
        (dict(modes=[{"a": 1}]), "modes must be strings, got {'a': 1}"),
        (dict(modes=["bidirectional", "bidirectional"]), "modes must not repeat a mode"),
    ], ids=["no-modes", "no-base", "no-parameter", "no-values", "modes-string",
            "values-object", "values-number", "values-nested", "values-partly-nested",
            "lo-list", "modes-list-entry", "modes-object-entry", "modes-repeated"])
    def test_sweep_spec_boundary_is_input_error(self, tmp_path, capsys, spec, message):
        sweep = {"base_scenario": VALID_SCENARIO, "swept_parameter": "alpha1",
                 "values": [0.5], "modes": ["bidirectional"], "trials_per_point": 1}
        sweep.update(spec)
        sweep = {key: value for key, value in sweep.items() if value is not None}
        cfg = write_json(tmp_path, "sweep.json", sweep)
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_verify_huge_finite_capacity(self, tmp_path, capsys):
        # the DP sizes the battery by the harvests, without dividing 1e300
        # by the 2.5e-14 mJ quantum
        d = dict(VALID_SCENARIO, harvests_mJ=[[1e-12, 0], [0, 0]],
                 battery_capacity_mJ=[1e300, 1e300])
        cfg = write_json(tmp_path, "sc.json", d)
        assert cli.main(["verify", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "PASS"
        assert "Traceback" not in captured.err

    def test_python_m_ehcoop(self, tmp_path):
        d = dict(VALID_SCENARIO, harvests_mJ=[[0.4, 1.0], [0.2, 0.6]])
        cfg = write_json(tmp_path, "sc.json", d)
        done = run_ehcoop("verify", "--config", cfg)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "PASS"

    def test_verify_passes(self, tmp_path, capsys):
        d = dict(VALID_SCENARIO, harvests_mJ=[[0.4, 1.0], [0.2, 0.6]])
        cfg = write_json(tmp_path, "sc.json", d)
        assert cli.main(["verify", "--config", cfg, "--grid-points", "40"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("grid_points", ["0", "-5"])
    def test_verify_bad_grid_points_is_input_error(self, tmp_path, capsys, grid_points):
        cfg = write_json(tmp_path, "sc.json", VALID_SCENARIO)
        assert cli.main(["verify", "--config", cfg, "--grid-points", grid_points]) == 1
        assert "error: grid_points" in capsys.readouterr().err

    def test_verify_oversize_dp_is_input_error(self, tmp_path, capsys, monkeypatch):
        # at 400 grid points these two slots reach 400 x 229 states, far below
        # max_states, but slot 2 needs a 400 x 172 x 229-cell array
        d = dict(VALID_SCENARIO, harvests_mJ=[[1.0, 0.4], [0.6, 0.2]])
        cfg = write_json(tmp_path, "sc.json", d)
        monkeypatch.setattr(transfer, "rate_grid", lambda *args: pytest.fail("allocated"))
        assert cli.main(["verify", "--config", cfg, "--grid-points", "400"]) == 1
        assert "max_states" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("capacity", [None, [1], True, "full"])
    def test_non_numeric_capacity_is_input_error(self, tmp_path, capsys, command, capacity):
        d = dict(VALID_SCENARIO, battery_capacity_mJ=[capacity, "inf"])
        cfg = write_json(tmp_path, "sc.json", d)
        assert cli.main([command, "--config", cfg]) == 1
        assert "error: battery capacity" in capsys.readouterr().err

    def test_repeated_calls_share_no_state(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path, "sc.json", VALID_SCENARIO)
        assert cli.main(["solve", "--config", cfg, "--bits"]) == 0
        assert cli.main(["solve", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(" bits") and out[1].endswith(" nats")
        seen = []
        monkeypatch.setattr(harness, "verify_scenario",
                            lambda sc, grid_points: seen.append(grid_points) or (True, []))
        assert cli.main(["verify", "--config", cfg, "--grid-points", "5"]) == 0
        assert cli.main(["verify", "--config", cfg]) == 0
        assert seen == [5, 40]

    def test_config_directory_is_input_error(self, tmp_path, capsys):
        assert cli.main(["verify", "--config", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", [
        dict(VALID_SCENARIO, harvests_mJ=[[0.0, 0.0], [0.0, 0.0]],
             battery_capacity_mJ=[3.0, 3.0]),
        dict(VALID_SCENARIO, model="THC", harvests_mJ=[[0.01], [0.02]],
             battery_capacity_mJ=[50.0, 50.0]),
    ])
    def test_verify_capacity_beyond_total_harvest(self, tmp_path, capsys, scenario):
        # the DP sizes a battery by the energy that can reach it, not its capacity
        cfg = write_json(tmp_path, "sc.json", scenario)
        assert cli.main(["verify", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("scenario", [
        # harvests whose arithmetic overflows in the pool solve, the policy
        # check and the MAC pool
        dict(VALID_SCENARIO, harvests_mJ=[[1e308, 1e308], [1e308, 1e308]]),
        dict(VALID_SCENARIO, harvests_mJ=[[1e307, 1.0], [1.0, 1.0]]),
        dict(VALID_SCENARIO, model="MAC", harvests_mJ=[[1e308, 1e308], [1e308, 1e308]]),
        # an effective noise of 1e-297 mW: n1 * n2 underflows to 0
        *(dict(VALID_SCENARIO, model=model, harvests_mJ=[[1e20, 1.0], [1.0, 1e20]],
               noise_power_W=[1e-300, 1e-300], channel_gain_dB=[0.0, 0.0])
          for model in ("TWC", "MAC", "THC")),
    ])
    def test_out_of_range_arithmetic_is_input_error(self, tmp_path, capsys, command, scenario):
        cfg = write_json(tmp_path, "sc.json", scenario)
        assert cli.main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("slot_seconds", [1e308, 1e-300])
    def test_slot_seconds_outside_the_noise_range_is_input_error(self, tmp_path, capsys,
                                                                 command, slot_seconds):
        # the solvers scale the noise by the slot length; the scenario is
        # rejected where it is read, with the field that is out of range
        cfg = write_json(tmp_path, "sc.json", dict(VALID_SCENARIO, slot_seconds=slot_seconds))
        assert cli.main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: slot_seconds must keep the effective noise")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_infeasible_solver_policy_is_an_error_line(self, tmp_path, capsys, command):
        # in-range harvests of 1e7-1e8 mJ: the recovered policy misses the
        # absolute feasibility tolerance of 1e-9 mJ
        scenario = dict(VALID_SCENARIO, transfer_efficiency=[0.329, 0.9], harvests_mJ=[
            [81475277.756, 81754375.025, 53955928.299, 32151131.108],
            [10123416.726, 41420043.675, 43804954.515, 9301143.421]])
        cfg = write_json(tmp_path, "sc.json", scenario)
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: solver produced an infeasible policy")
        assert "PASS" not in captured.out

    def test_baseline_ok(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "sc.json", VALID_SCENARIO)
        assert cli.main(["baseline", "--config", cfg,
                         "--kind", "constant_power_no_coop"]) == 0

    def test_sweep_writes_csv(self, tmp_path, capsys):
        sweep = {
            "base_scenario": VALID_SCENARIO,
            "swept_parameter": "peak_harvest_node1",
            "values": [2.0, 6.0],
            "trials_per_point": 2,
            "seed": 11,
            "modes": ["bidirectional", "no_cooperation"],
        }
        cfg = write_json(tmp_path, "sweep.json", sweep)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("swept_value,mode,")

    def test_unconverged_solve_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path, "sc.json", TWO_PASS_THC)
        monkeypatch.setattr(waterfill, "MAX_PASSES", 1)
        assert cli.main(["solve", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("objective: ")
        assert captured.err == "warning: solver did not converge after 1 passes\n"

    def test_unconverged_sweep_exits_2(self, tmp_path, capsys, monkeypatch):
        sweep = {"base_scenario": TWO_PASS_THC, "swept_parameter": "alpha1",
                 "values": [0.3673537390903534], "trials_per_point": 1,
                 "modes": ["bidirectional"]}
        cfg = write_json(tmp_path, "sweep.json", sweep)
        out = tmp_path / "rows.csv"
        monkeypatch.setattr(waterfill, "MAX_PASSES", 1)
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "warning: some solves did not converge\n"
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["converged"] for r in rows] == ["False"]


def _scaled_transmit(report, factor):
    return dataclasses.replace(report, transmit=TransferPolicy(
        report.transmit.p * factor, report.transmit.delta))


def _transfer_unspent(report):
    delta = report.transmit.delta.copy()
    delta[0, 0] += 10.0
    return dataclasses.replace(report, transmit=TransferPolicy(report.transmit.p, delta))


def _two_way_immediate(report):
    immediate = report.policy.immediate.copy()
    immediate[:, 0] += 0.1
    return dataclasses.replace(report, policy=dataclasses.replace(
        report.policy, immediate=immediate))


class TestVerifyFindings:
    """`verify` fails, with one finding line naming the fault, on a solve
    report doctored to break each of its checks."""

    @pytest.mark.parametrize("capacity, doctor, finding", [
        ("inf", lambda r: _scaled_transmit(r, 3.0), "solver policy infeasible: "),
        ("inf", _transfer_unspent, "solver policy is not procrastinating"),
        (1.0, _two_way_immediate, "solver policy is not partially procrastinating"),
        ("inf", lambda r: dataclasses.replace(r, level_residual=1e-3),
         "water-level residual 0.001 > 1e-7"),
        ("inf", lambda r: dataclasses.replace(r, objective_nats=r.objective_nats - 0.1),
         "below DP bound"),
        (1.0, lambda r: dataclasses.replace(r, objective_nats=r.objective_nats + 0.1),
         "by more than the grid slack"),
    ])
    def test_doctored_report_fails(self, tmp_path, capsys, monkeypatch,
                                   capacity, doctor, finding):
        d = dict(VALID_SCENARIO, harvests_mJ=[[0.4, 1.0], [0.2, 0.6]],
                 battery_capacity_mJ=[capacity, capacity])
        cfg = write_json(tmp_path, "sc.json", d)
        real_solve = waterfill.solve
        monkeypatch.setattr(waterfill, "solve", lambda sc, *mode: doctor(real_solve(sc, *mode)))
        assert cli.main(["verify", "--config", cfg]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAIL"
        assert [line for line in lines[:-1] if finding in line]

    def test_unconverged_solve_fails(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path, "sc.json", TWO_PASS_THC)
        assert cli.main(["verify", "--config", cfg, "--grid-points", "20"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(waterfill, "MAX_PASSES", 1)
        assert cli.main(["verify", "--config", cfg, "--grid-points", "20"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAIL"
        assert "solver did not converge after 1 passes" in lines


def test_verify_takes_the_dp_value_without_its_policy(monkeypatch):
    calls = []
    real = harness.dp_solve
    monkeypatch.setattr(harness, "dp_solve",
                        lambda *args, **kw: calls.append(kw) or real(*args, **kw))
    ok, _ = harness.verify_scenario(make_scenario(harvests=((0.4, 1.0), (0.2, 0.6))), 20)
    assert ok and calls == [{"policy": False}]
