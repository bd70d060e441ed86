"""CLI surface: commands, exit codes, file outputs, replay, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_text

import hybridkit
from hybridkit.analysis import clause_margin
from hybridkit.cli import (_build_parser, _resolve, _resolve_gamma, _system_from_inline, main,
                           run_spec, spec_from_args, write_report)
from hybridkit.core import HybridArc, HybridSystem, Termination, check_is_solution
from hybridkit.errors import ConfigError
from hybridkit.geometry import coords_set, empty_set
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import catalog


def run(args):
    return main(args)


def test_list_systems(capsys):
    assert run(["list-systems"]) == 0
    out = capsys.readouterr().out
    for name in ("observer", "circles", "cascade-ex1", "polar", "sigma-bump",
                 "limit-circles"):
        assert name in out


def test_simulate_reference_run(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--system", "observer", "--preset", "fig3",
                "--tmax", "30", "--tracks", "y,q,T,chihat",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "jump 1 at t=1.13074" in text  # event log carries the first jump

    panel_t = (out / "panel_T.csv").read_text().strip().splitlines()
    assert panel_t[0] == "t,j,T"
    final_T = float(panel_t[-1].split(",")[2])
    assert abs(final_T - 2 * math.pi / 1.5) < 1e-3

    panels = (out / "panel_y_q.csv").read_text().splitlines()
    assert panels[0] == "t,j,y,q"
    states = (out / "panel_states.csv").read_text().splitlines()
    assert states[0] == "t,j,chihat_1,chihat_2,chi_1,chi_2"
    assert (out / "arc.csv").exists() and (out / "arc.json").exists()


def test_simulate_circles_event_log(tmp_path):
    out = tmp_path / "circ"
    code = run(["simulate", "--system", "circles", "--x0", "1,0,1,1",
                "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = (out / "arc.csv").read_text().strip().splitlines()[1:]
    # q alternates and x3 halves at each jump event
    jump_rows = [r.split(",") for r in rows if r.endswith("jump")]
    qs = [float(r[5]) for r in jump_rows]
    assert all(a == -b for a, b in zip(qs, qs[1:]))
    x3 = [float(r[4]) for r in jump_rows]
    for a, b in zip(x3, x3[1:]):
        assert b == pytest.approx(a / 2.0)


def test_simulate_rejects_bad_input(tmp_path):
    assert run(["simulate", "--system", "nope", "--out", str(tmp_path)]) == 2
    assert run(["simulate", "--system", "circles", "--x0", "1,2",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [
    ["simulate", "--system", "circles", "--x0", "1,0,1,1", "--param", "foo=1"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--param", "foo=1"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--param", "sigma=5"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--param", "omega=abc"],
    ["analyze", "--system", "sigma-bump", "--eps", "abc"],
    ["analyze", "--system", "sigma-bump", "--eps", "1.0,0.5"],
    ["analyze", "--system", "sigma-bump", "--budget", "0"],
    ["analyze", "--system", "sigma-bump", "--delta-shrinks", "-1"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--check", "attractivity",
     "--conv-tol", "-1"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--conv-tol", "nan"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--check",
     "local-stability-near", "--r", "-1"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--box", "1:0,1:0"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--box", "0:1"],
    ["analyze", "--system", "sigma-bump", "--budget", "1", "--box", "1,2"],
    ["analyze", "--system", "sigma-bump", "--eps", "nan"],
    ["analyze", "--system", "sigma-bump", "--eps", "0.25,inf"],
    ["simulate", "--system", "circles", "--x0", "nan,0.5,0.1,1"],
    ["simulate", "--system", "circles", "--x0", "inf,0.5,0.1,1"],
    ["simulate", "--config", "DRIFT", "--x0", "1", "--param", "omega=2"],
    ["simulate", "--system", "circles", "--tracks", "y,q"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--tracks", "bogus"],
    ["simulate", "--system", "circles", "--x0", "a,b,c,d"],
    ["simulate", "--system", "observer", "--param", "omega"],
    ["simulate", "--preset", "fig3"],  # no system at all
    ["analyze", "--system", "sigma-bump", "--check", "detectability"],  # no output map
    ["analyze", "--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2",
     "--check", "attractivity"],
    ["analyze", "--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2",
     "--check", "stability"],  # the default, given explicitly
    *(["analyze", "--system", "sigma-bump", "--check", check, "--gamma2", "gamma2"]
      for check in ("stability", "attractivity", "strong-invariance", "weak-invariance")),
    ["analyze", "--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2",
     "--gamma2", "gamma2"],
    ["analyze", "--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2", "--gamma", "gamma1"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--param", "chi_M=inf"],
    ["simulate", "--system", "observer", "--preset", "fig3", "--param", "omega_M=inf"],
    # an empty value is refused, not read as the flag's absence
    ["analyze", "--system", "sigma-bump", "--eps="],
    ["analyze", "--system", "sigma-bump", "--gamma="],
    ["analyze", "--system", "sigma-bump", "--reduce-chain="],
    ["analyze", "--system", "sigma-bump", "--check", "local-stability-near", "--gamma2="],
    ["simulate", "--config", "DRIFT", "--x0", "1", "--system", ""],
    ["simulate", "--system", "circles", "--config", ""],
])
def test_bad_arguments_are_configuration_errors(args, tmp_path, capsys):
    cfg = _inline_config(tmp_path, DRIFT)
    args = [cfg if a == "DRIFT" else a for a in args]
    assert run([*args, "--tmax", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if "0.25,inf" in args:  # refused by the query, not by an infinite draw
        assert "eps_grid" in err
    named = ("--x0", "--tracks", "--check", "--gamma2", "--gamma")
    if args[-2] in named or cfg in args:  # the flag is named
        assert args[-2] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--system", "circles", "--seed", "3"],  # the solve has no seed
    ["analyze", "--system", "circles", "--format", "csv"],  # writes every format
])
def test_flags_a_command_does_not_use_are_rejected(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*args, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_solver_values_are_configuration_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"system": "circles", "solver": {"rtol": NaN}}')
    for args in (["--system", "circles", "--tmax", "nan"],
                 ["--system", "circles", "--tmax", "inf"],
                 ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(["simulate", *args, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("text,why", [
    ('[1, 2]', "is not a JSON object"),
    ('{"system": {"fixture": "observer", "params": 5}}', "params must be a JSON object"),
    ('{"system": "circles", "solver": [1]}', "solver configuration must be a JSON object"),
    ('{"system": {"dim": 1, "flow_set": 5}}', "set descriptor must be a JSON object"),
    ('{"system": "circles", "solver": {"priority": 5}}', "5 is not a valid Priority"),
    ('{"system": {"dim": 1, "flow_set": {"type": "coords", "dim": 1, "constraints": [1]}}}',
     "coords constraints must be a JSON object"),
    ('{"system": {"dim": 1, "flow_set": {"type": "box", "bounds": 5}}}',
     "box bounds must be a list of [lo, hi] pairs"),
    ('{"system": "circles", "solvr": {"t_max": 1}}', "unknown config key(s) ['solvr']"),
    ('{"system": {"fixture": "circles", "parms": {}}}',
     "unknown fixture block key(s) ['parms']"),
    ('{"system": {"dim": 1, "flw": {"affine": {"A": [[0.0]]}}}}',
     "unknown inline system key(s) ['flw']"),
    ('{"system": {"dim": 1, "params": {}}}', "unknown inline system key(s) ['params']"),
    ('{"system": "circles", "solver": {"j_max": 2.5}}', "j_max must be an integer, got 2.5"),
    ('{"system": "circles", "solver": {"zeno_k": 1.5}}', "zeno_k must be an integer, got 1.5"),
    ('{"system": "circles", "solver": {"rtol": true}}', "rtol must be a real number, got True"),
    ('{"system": "circles", "solver": {"max_step": true}}',
     "max_step must be a real number, got True"),
    ('{"system": "circles", "solver": {"zeno_dt_min": false}}',
     "zeno_dt_min must be a real number, got False"),
    ('{"system": {"fixture": "observer", "params": {"chi_M": true}}}',
     "observer parameter chi_M must be a real number, got True"),
], ids=["not-an-object", "params", "solver", "flow-set", "priority", "coords-constraints",
        "box-bounds", "top-level-key", "fixture-block-key", "inline-key", "inline-params",
        "j_max", "zeno_k", "rtol-bool", "max_step-bool", "zeno_dt_min-bool", "observer-bool"])
def test_malformed_config_files_are_configuration_errors(text, why, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--x0", "1", "--tmax", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and why in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("block", ['"circles"', '{"fixture": "circles"}',
                                   '{"dim": 1, "flow": {"affine": {"A": [[-1.0]]}}}'],
                         ids=["name", "fixture-block", "inline"])
def test_system_flag_beside_a_config_system_block_is_a_configuration_error(
        command, block, tmp_path, capsys):
    # the two would otherwise compete for the run's system, and one lose silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"system": {block}}}')
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--system", "sigma-bump", "--tmax", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--system 'sigma-bump'" in err and str(cfg) in err
    assert not out.exists()
    # a config file without a system block leaves the system to --system
    cfg.write_text('{"solver": {"rtol": 1e-8}}')
    assert run([command, "--config", str(cfg), "--system", "sigma-bump", "--tmax", "1",
                "--budget" if command == "analyze" else "--x0",
                "2" if command == "analyze" else "0.5,0.5", "--out", str(out)]) in (0, 1)


@pytest.mark.parametrize("power,x0,tmax,why", [
    (-1, "0", "1", "flow map non-finite at segment start"),  # x' = 1/x at 0
    (2, "1", "2", "termination flag NumericalFailure"),  # x' = x^2 blows up at t = 1
], ids=["non-finite-start", "blow-up"])
def test_simulate_solver_failure_exits_3(power, x0, tmax, why, tmp_path, capsys):
    system = {"name": "poly", "dim": 1,
              "flow": {"poly": [{"target": 0, "terms": [{"c": 1.0, "powers": [power]}]}]}}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", "--config", _inline_config(tmp_path, system),
                    "--x0", x0, "--tmax", tmax, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"solver failure: {why}" in err
    assert "RuntimeWarning" not in err  # the solver's report is the only one
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_analyze_consistent_exit_zero(tmp_path):
    out = tmp_path / "rep"
    code = run(["analyze", "--system", "sigma-bump", "--check", "stability",
                "--gamma", "origin", "--budget", "10", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["reports"]["stability"]["verdict"] == "ConsistentAtBudget"
    assert (out / "summary.txt").exists()


def test_analyze_falsified_exit_one_with_witness(tmp_path):
    out = tmp_path / "rep"
    code = run(["analyze", "--system", "limit-circles", "--check",
                "attractivity", "--gamma", "x2x3-axis", "--scope", "global",
                "--box", "preset", "--budget", "10", "--tmax", "60",
                "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "report.json").read_text())
    rep = payload["reports"]["attractivity"]
    assert rep["verdict"] == "Falsified"
    assert (tmp_path / "rep" / "witness_attractivity.csv").exists()
    assert rep["witness_path"] == "witness_attractivity.csv"


def test_local_attractivity_draws_within_the_near_radius(tmp_path):
    out = tmp_path / "rep"
    code = run(["analyze", "--system", "sigma-bump", "--check", "attractivity",
                "--gamma", "origin", "--scope", "local", "--r", "0.1",
                "--budget", "4", "--tmax", "2", "--seed", "3", "--out", str(out)])
    assert code == 1
    rep = json.loads((out / "report.json").read_text())["reports"]["attractivity"]
    assert rep["property"] == "LocalAttractivityNear"
    assert rep["query"]["near_radius"] == 0.1
    assert rep["witness_path"] == "witness_attractivity.csv"
    origin = catalog()["sigma-bump"].gammas["origin"]
    assert float(origin.distance(np.array(rep["witness_clause"]["x0"]))) <= 0.1


def test_replay_witness_reproduces(tmp_path):
    out = tmp_path / "rep"
    run(["analyze", "--system", "limit-circles", "--check", "attractivity",
         "--gamma", "x2x3-axis", "--budget", "10", "--tmax", "60",
         "--out", str(out)])
    code = run(["replay", "--arc", str(out / "witness_attractivity.csv"),
                "--meta", str(out / "witness_attractivity.json")])
    assert code == 0
    # an empty --meta names no file; it does not fall back to the default
    assert run(["replay", "--arc", str(out / "witness_attractivity.csv"), "--meta="]) == 2


def test_replay_corrupted_csv_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,j,x_1,event\n0,0,1,flow\n0,7,2,jump\n")
    assert run(["replay", "--arc", str(bad)]) == 2
    missing = tmp_path / "missing.csv"
    assert run(["replay", "--arc", str(missing)]) == 2
    bad.write_text("t,j,x_1,event\nabc,0,1,flow\n")
    assert run(["replay", "--arc", str(bad)]) == 2
    x0 = [1.0, 0.0, 1.0, 1.0]
    good = tmp_path / "good.csv"
    good.write_text(solve(catalog()["circles"].system, x0, SolverConfig(t_max=1.0)).to_csv())
    meta = tmp_path / "meta.json"
    for bad_meta in ({"system": "circles", "termination": "bogus"},
                     {"system": "circles", "x0": x0, "solver": {"t_max": -1}},
                     {"system": {"fixture": "observer", "params": {"foo": 1}}},
                     {"system": "observer"},  # a 4-column arc, dim 7
                     {"system": "circles", "x0": [1, 2], "solver": {}},
                     {"system": "circles", "check_tol": math.nan},
                     {"system": "circles", "check_tol": -1},
                     {"system": "circles", "check_tol": "abc"},
                     {"system": "circles", "clause": {"type": "bogus"}},
                     {"system": ["circles"]},
                     {"system": 5},
                     {"termination": "CompleteByHorizonT"},  # no system at all
                     {"system": "circles", "x0": ["a"], "solver": {}},
                     ["circles"]):
        meta.write_text(json.dumps(bad_meta))
        assert run(["replay", "--arc", str(good), "--meta", str(meta)]) == 2
        err = capsys.readouterr().err
        if isinstance(bad_meta, dict) and not isinstance(bad_meta.get("system"), (str, dict)):
            assert "a system block is a catalog name or a JSON object" in err
    meta.write_text('{"system": "circles"')  # not JSON
    assert run(["replay", "--arc", str(good), "--meta", str(meta)]) == 2


def test_replay_resolves_witness_target_like_analyze(tmp_path, capsys):
    arc = solve(catalog()["circles"].system, [1.0, 0.0, 1.0, 1.0],
                SolverConfig(t_max=3.0))
    (tmp_path / "w.csv").write_text(arc.to_csv())
    meta = {"clause": {"type": "stability_escape", "eps": 1.6},
            "termination": arc.termination.value, "system": "circles",
            "check_tol": 1e-3}
    # the arc leaves the 1.6-ball around the origin (sup distance sqrt 3) but
    # not the one around circles' gamma1 (sqrt 2)
    (tmp_path / "w.json").write_text(json.dumps({**meta, "gamma": "origin"}))
    assert run(["replay", "--arc", str(tmp_path / "w.csv")]) == 0
    assert "violation reproduced: True" in capsys.readouterr().out
    (tmp_path / "w.json").write_text(json.dumps({**meta, "gamma": "nope"}))
    assert run(["replay", "--arc", str(tmp_path / "w.csv")]) == 2
    assert "unknown target set 'nope'" in capsys.readouterr().err
    # witnesses record set names, which may differ from the catalog key
    observer = catalog()["observer"]
    shell = observer.gammas["w-shell"]
    assert _resolve_gamma(observer, shell.name, 7) is shell


def test_replay_regenerated_arc_matches_bitwise(tmp_path, capsys):
    out = tmp_path / "run"
    run(["simulate", "--system", "circles", "--x0", "1,0,1,1", "--out", str(out)])
    # without --meta the JSON file beside arc.csv is the arc's JSON mirror,
    # arc.json, so replay reads the run's metadata from run.json
    for meta in (["--meta", str(out / "run.json")], []):
        capsys.readouterr()
        assert run(["replay", "--arc", str(out / "arc.csv"), *meta]) == 0
        assert "bitwise match after regeneration: True" in capsys.readouterr().out


def test_replay_of_a_csv_only_run_reads_its_run_json(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--system", "circles", "--x0", "1,0,1,1", "--format", "csv",
                "--out", str(out)]) == 0
    assert not (out / "arc.json").exists()
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv")]) == 0
    assert "bitwise match after regeneration: True" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(catalog()))
def test_simulate_without_an_initial_state_takes_the_one_preset(name, tmp_path):
    (preset,) = catalog()[name].presets
    args = ["simulate", "--system", name, "--tmax", "1", "--format", "csv"]
    assert run([*args, "--out", str(tmp_path / "plain")]) == 0
    assert run([*args, "--preset", preset, "--out", str(tmp_path / "preset")]) == 0
    assert_same_text((tmp_path / "plain" / "arc.csv").read_text(),
                     (tmp_path / "preset" / "arc.csv").read_text())


@pytest.mark.parametrize("name", sorted(catalog()))
def test_every_fixture_run_replays_through_its_run_json(name, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--system", name, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv")]) == 0
    assert "bitwise match after regeneration: True" in capsys.readouterr().out


def test_replay_refuses_parameters_its_fixture_does_not_take(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--system", "circles", "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    (out / "run.json").write_text(json.dumps({**meta, "system": {**meta["system"],
                                                                 "params": {"foo": 1}}}))
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "takes no parameters" in err


def test_replay_checks_the_arc_at_its_run_tol_set(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"tol_set": 1e-6}}))
    out = tmp_path / "run"
    assert run(["simulate", "--system", "circles", "--x0", "1,0,1,1", "--config", str(cfg),
                "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["solver"]["tol_set"] == 1e-6
    received = []

    def check(system, arc, tol, tol_set=1e-9):
        received.append(tol_set)
        return check_is_solution(system, arc, tol, tol_set)

    monkeypatch.setattr(hybridkit.cli, "check_is_solution", check)
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv"), "--meta", str(out / "run.json")]) == 0
    assert received == [1e-6]
    assert "bitwise match after regeneration: True" in capsys.readouterr().out


def test_an_arc_within_its_run_tol_set_of_c_is_clean_only_at_that_tol_set():
    # a circle of radius 1 about (0, -r0) on C = {x2 <= 0}: the arc peaks at
    # x2 = 1 - r0 = 5e-7, inside C within the run's tol_set 1e-6, and the solver
    # flows on to the horizon; at the checker's default tol_set it leaves C
    r0 = 1 - 5e-7
    system = HybridSystem(2, coords_set(2, {1: ("interval", -np.inf, 0.0)}),
                          lambda x: np.array([-(x[1] + r0), x[0]]), empty_set(2), lambda x: x)
    cfg = SolverConfig(t_max=1, tol_set=1e-6, rtol=1e-12, atol=1e-14)
    arc = solve(system, [math.sin(0.5), math.cos(0.5) - r0], cfg)
    assert arc.termination is Termination.COMPLETE_T
    assert np.max(arc.table()[2][:, 1]) == pytest.approx(5e-7, rel=1e-6)
    assert [v.kind for v in check_is_solution(system, arc, 1e-3)] == ["FlowOutsideC"]
    assert check_is_solution(system, arc, 1e-3, cfg.tol_set) == []


def _corrupt(csv_text: str, row: int) -> str:
    """The arc CSV with x_1 of one sample moved by 0.1."""
    lines = csv_text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[2] = repr(float(cells[2]) + 0.1)
    lines[row] = ",".join(cells)
    return "".join(lines)


#: replay's verdict on a stored arc: its exit code and the line that says why
_REPLAY_VERDICTS = {
    "clause-not-reproduced": (1, "violation reproduced: False"),
    "witness-not-a-solution": (2, "check_is_solution: [Violation("),
    "run-arc-not-a-solution": (1, "check_is_solution: [Violation("),
    "run-x0-edited": (1, "bitwise match after regeneration: False"),
}


@pytest.mark.parametrize("case", _REPLAY_VERDICTS)
def test_replay_verdict_exit_codes(case, tmp_path, capsys):
    code, line = _REPLAY_VERDICTS[case]
    x0 = [1.0, 0.0, 1.0, 1.0]
    cfg = SolverConfig(t_max=3.0)
    arc = solve(catalog()["circles"].system, x0, cfg)
    text = arc.to_csv()
    meta = {"system": "circles", "termination": arc.termination.value}
    if case.startswith("run"):
        meta.update(x0=x0, solver=cfg.to_config())
        if case == "run-x0-edited":
            meta["x0"] = [1.0, 0.0, 1.001, 1.0]
    else:
        # the arc leaves the 1.6-ball around the origin, not the one around gamma1
        meta.update(clause={"type": "stability_escape", "eps": 1.6}, check_tol=1e-3,
                    gamma="gamma1" if case == "clause-not-reproduced" else "origin")
    if case.endswith("not-a-solution"):
        text = _corrupt(text, 10)
    (tmp_path / "a.csv").write_text(text)
    (tmp_path / "a.json").write_text(json.dumps(meta))
    assert run(["replay", "--arc", str(tmp_path / "a.csv")]) == code
    assert line in capsys.readouterr().out


def test_readme_commands_parse():
    # every `hybridkit ...` line of README's sh blocks, continuations joined and
    # comments stripped, is accepted by the CLI's parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    lines = [ln.split("#", 1)[0].strip()
             for ln in "\n".join(blocks).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("hybridkit ")]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_no_source_line_exceeds_100_characters():
    src = Path(hybridkit.__file__).resolve().parents[1]
    long = [f"{p.relative_to(src)}:{i}" for p in sorted(src.rglob("*.py"))
            for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def test_seed_determines_reports_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["analyze", "--system", "circles", "--check", "stability",
            "--gamma", "gamma1", "--budget", "6", "--tmax", "20",
            "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 1
    assert run(args + ["--out", str(b)]) == 1
    assert_same_text((a / "report.json").read_bytes(), (b / "report.json").read_bytes())
    assert_same_text((a / "witness_stability.csv").read_bytes(),
                     (b / "witness_stability.csv").read_bytes())


def test_inline_config_system(tmp_path):
    cfg = {
        "system": {
            "name": "spiral",
            "dim": 2,
            "flow": {"affine": {"A": [[-0.2, -1.0], [1.0, -0.2]]}},
            "flow_set": {"type": "full", "dim": 2},
        },
        "solver": {"t_max": 5.0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = run(["simulate", "--config", str(path), "--x0", "1,0",
                "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = (out / "arc.csv").read_text().strip().splitlines()
    last = rows[-1].split(",")
    r = math.hypot(float(last[2]), float(last[3]))
    assert r == pytest.approx(math.exp(-0.2 * 5.0), abs=1e-5)


def test_inline_polynomial_dynamics(tmp_path):
    cfg = {
        "system": {
            "name": "cubic-decay",
            "dim": 1,
            "flow": {"poly": [{"target": 0,
                               "terms": [{"c": -1.0, "powers": [3]}]}]},
        },
        "solver": {"t_max": 4.0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--x0", "1",
                "--out", str(out), "--format", "csv"]) == 0
    rows = (out / "arc.csv").read_text().strip().splitlines()
    x_end = float(rows[-1].split(",")[2])
    assert x_end == pytest.approx(1.0 / math.sqrt(1 + 2 * 4.0), abs=1e-6)


@pytest.mark.parametrize("flow", [
    {"affine": {"A": [[-0.2, -1.0, 0.5], [1.0, -0.2, 0.0], [0.3, 0.0, 2.0]],
                "b": [0.1, -1.0, 0.0]}},
    {"poly": [{"target": 0, "terms": [{"c": -1.0, "powers": [3, 0, 0]},
                                      {"c": 2.5, "powers": [1, -1, 2]}]},
              {"target": 2, "terms": [{"c": 0.5, "powers": [0, 0.5, -2]}]}]},
], ids=["affine", "poly"])
def test_inline_flow_maps_declare_an_equal_batched_map(flow):
    sys = _system_from_inline({"dim": 3, "flow": flow})
    x = np.random.default_rng(2).uniform(-2.0, 2.0, (256, 3))
    x[:2] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]  # poles of the poly terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # both maps run under the same errstate
        rows = np.array([sys.flow_map(row) for row in x])
        batch = sys.flow_map_batch(x)
    np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("flow", [
    {"poly": [{"target": 0, "terms": [{"c": 1.0, "powers": [1, 0, 0]}]}]},
    {"poly": [{"target": 5, "terms": [{"c": 1.0, "powers": [1, 0]}]}]},
    {"affine": {"A": [[1.0, 0.0, 0.0]]}},
])
def test_inline_maps_are_checked_against_dim(flow, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"system": {"name": "bad", "dim": 2, "flow": flow}}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--x0", "1,0", "--tmax", "1",
                "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_observer_chain_exit_zero(tmp_path):
    out = tmp_path / "chain"
    code = run(["analyze", "--system", "observer",
                "--reduce-chain", "gamma1,gamma2,gamma3",
                "--scope", "global", "--box", "preset",
                "--budget", "5", "--eps", "0.25,1.0", "--delta-shrinks", "3",
                "--tmax", "35", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    rep = payload["reports"]["reduction"]
    assert rep["all_consistent"] and rep["sound"]
    for t in rep["theorems"]:
        assert t["sound"]


def test_a_fixture_block_of_a_config_file_runs_as_the_system_flag_does(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"system": {"fixture": "observer", "params": {"omega": 2.0}}}')
    outs = {}
    for how, args in (("config", ["--config", str(cfg)]),
                      ("flags", ["--system", "observer", "--param", "omega=2.0"])):
        out = tmp_path / how
        assert run(["simulate", *args, "--preset", "fig3", "--tmax", "5", "--out", str(out)]) == 0
        outs[how] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert outs["config"] == outs["flags"]
    assert json.loads(outs["config"]["run.json"])["system"]["params"]["omega"] == 2.0


def test_simulate_without_a_usable_initial_state_is_a_configuration_error(tmp_path, capsys):
    for args, why in ((["--system", "circles", "--preset", "bogus"], "unknown preset 'bogus'"),
                      (["--config", _inline_config(tmp_path, DRIFT)], "no initial condition")):
        assert run(["simulate", *args, "--tmax", "1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and why in err
        assert not (tmp_path / "out").exists()


def test_an_explicit_box_equal_to_the_preset_window_gives_its_report(tmp_path):
    args = ["analyze", "--system", "circles", "--check", "stability", "--gamma", "gamma1",
            "--budget", "4", "--eps", "0.5", "--delta-shrinks", "1", "--tmax", "5"]
    digests = []
    for box in ("preset", "-1.5:1.5,-1.5:1.5,-1.5:1.5,-1:1", "-1:1,-1:1,-1:1,-1:1"):
        out = tmp_path / f"box{len(digests)}"
        assert run([*args, f"--box={box}", "--out", str(out)]) in (0, 1)  # a draw landed
        digests.append(_dir_digest(out))
    assert digests[0] == digests[1] != digests[2]


def test_observer_param_override(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--system", "observer", "--preset", "fig3",
                "--param", "omega=2.0", "--tmax", "10", "--out", str(out),
                "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    t1 = math.acos(-0.125 / 1.0) / 2.0  # 2 cos(2 t) = -0.25
    assert f"jump 1 at t={t1:.6f}"[:18] in text


def _inline_config(tmp_path, system: dict) -> str:
    path = tmp_path / f"{system['name']}.json"
    path.write_text(json.dumps({"system": system}))
    return str(path)


UNIT_BOX_DECAY = {"name": "unit-box-decay", "dim": 2,
                  "flow": {"affine": {"A": [[-1.0, 0.0], [0.0, -1.0]]}},
                  "flow_set": {"type": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}}
DRIFT = {"name": "drift", "dim": 1, "flow": {"affine": {"A": [[0.0]], "b": [1.0]}}}


def test_analyze_with_no_draw_in_cd_exits_config(tmp_path):
    out = tmp_path / "rep"
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hybridkit.cli", "analyze",
         "--config", _inline_config(tmp_path, UNIT_BOX_DECAY),
         "--check", "attractivity", "--gamma", "origin", "--box", "3:4,3:4",
         "--budget", "5", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert "no initial condition in C u D" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "report.json").exists()


def test_replay_of_an_inline_witness_reproduces(tmp_path, capsys):
    out = tmp_path / "rep"
    assert run(["analyze", "--config", _inline_config(tmp_path, DRIFT),
                "--check", "strong-invariance", "--gamma", "origin",
                "--budget", "2", "--tmax", "1", "--out", str(out)]) == 1
    assert json.loads((out / "witness_invariance.json").read_text())["system"] == DRIFT
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "witness_invariance.csv")]) == 0
    assert "violation reproduced: True" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["decay", "contraction"])  # the catalog's contraction has A = -1
def test_an_inline_run_replays_against_its_own_system(name, tmp_path, capsys):
    system = {"name": name, "dim": 1, "flow": {"affine": {"A": [[-2.0]]}}}
    out = tmp_path / "run"
    assert run(["simulate", "--config", _inline_config(tmp_path, system), "--x0", "1",
                "--tmax", "2", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["system"] == system
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv")]) == 0
    text = capsys.readouterr().out
    assert "check_is_solution: clean" in text
    assert "bitwise match after regeneration: True" in text


@pytest.mark.parametrize("args", [
    ["--system", "observer", "--param", "omega=2.0", "--preset", "fig3", "--tmax", "3"],
    ["--config", "DRIFT", "--x0", "0.5", "--tmax", "2"],
], ids=["observer-fig3", "inline"])
def test_a_run_records_blocks_form_a_config_file_that_reruns_it(args, tmp_path):
    cfg = _inline_config(tmp_path, DRIFT)
    first = tmp_path / "first"
    assert run(["simulate", *[cfg if a == "DRIFT" else a for a in args],
                "--out", str(first)]) == 0
    record = json.loads((first / "run.json").read_text())
    again = tmp_path / "again.json"
    again.write_text(json.dumps({k: record[k] for k in ("system", "solver")}))
    second = tmp_path / "second"
    assert run(["simulate", "--config", str(again), "--x0", ",".join(map(repr, record["x0"])),
                "--out", str(second)]) == 0
    for name in ("arc.csv", "run.json"):
        assert_same_text((first / name).read_bytes(), (second / name).read_bytes())


@pytest.mark.parametrize("old", [{"params": {}}, {"fixture": "circles"}])
def test_replay_refuses_a_record_of_the_old_layout(old, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["simulate", "--system", "circles", "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    (out / "run.json").write_text(json.dumps({**meta, "system": "circles", **old}))
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "arc.csv")]) == 2
    err = capsys.readouterr().err
    assert f"unknown record key(s) {sorted(old)}" in err


_POOLED_CIRCLES = ["analyze", "--system", "circles", "--gamma", "gamma1", "--scope", "global",
                   "--box", "preset", "--budget", "64", "--tmax", "10"]


def test_a_pooled_analyze_prints_what_one_cpu_prints(tmp_path, capfd, monkeypatch):
    # a forked worker leaves without flushing this process's buffers: a line
    # still buffered when the pool forks is printed once
    stdout = open(os.dup(1), "w")  # buffered, on the captured descriptor
    monkeypatch.setattr(sys, "stdout", stdout)
    outs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        sys.stdout.write("before the run\n")
        out = tmp_path / f"cpus{cpus}"
        assert run([*_POOLED_CIRCLES, "--check", "attractivity", "--out", str(out)]) == 0
        outs[cpus] = capfd.readouterr().out.replace(str(out), "OUT")
    assert outs[2] == outs[1]
    lines = outs[2].splitlines()
    assert lines[0] == "before the run" and len(lines) == len(set(lines))
    assert lines[-1] == "wrote OUT/report.json"
    stdout.close()


def test_a_witness_of_a_pooled_stability_search_replays(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "rep"
    assert run([*_POOLED_CIRCLES, "--check", "stability", "--out", str(out)]) == 1
    capsys.readouterr()
    assert run(["replay", "--arc", str(out / "witness_stability.csv"),
                "--meta", str(out / "witness_stability.json")]) == 0
    assert "violation reproduced: True" in capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args,code", [
    (["--system", "contraction", "--check", "stability", "--gamma", "origin",
      "--budget", "2", "--tmax", "2"], 0),
    (["--system", "circles", "--check", "stability", "--gamma", "gamma1",
      "--budget", "25", "--tmax", "5"], 1),
])
def test_closed_stdout_keeps_the_exit_code(args, code, unbuffered, tmp_path):
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone away before the first line
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hybridkit.cli", "analyze", *args,
             "--out", str(tmp_path / "rep")], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr
    assert (tmp_path / "rep" / "report.json").exists()


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# SHA-256 of each run's whole output directory.  A change that moves one of
# these changes seed-pinned report bytes and must say so when it updates them.
PINNED_RUNS = {
    "stability": (
        ["--system", "circles", "--check", "stability", "--gamma", "gamma1",
         "--budget", "6", "--tmax", "20", "--seed", "9"],
        "2a722af39f9bb3026a127436614795f91e63ffdca1e94a86166f3705b2285e51"),
    "attractivity": (
        ["--system", "limit-circles", "--check", "attractivity",
         "--gamma", "x2x3-axis", "--budget", "4", "--tmax", "30", "--seed", "3"],
        "0714164ef8724303ff3415aeb442f04f6e5e0ddf8a05e8d7c0af10667771733e"),
    "local-stability-near": (
        ["--system", "sigma-bump", "--check", "local-stability-near",
         "--gamma", "gamma1", "--gamma2", "gamma2", "--budget", "4",
         "--tmax", "10", "--seed", "5"],
        "a666948537ac02b14e67a1d87e6855f95fc48acb0e97b8f2b35fd05dc4fdfb24"),
    "strong-invariance": (
        ["--system", "drift-line", "--check", "strong-invariance",
         "--gamma", "gamma2", "--budget", "4", "--tmax", "5", "--seed", "7"],
        "646589392c807cf4c3c8c8dc7e8ac850a5d322a427436c6926cec2d8cbc0057e"),
    "weak-invariance": (  # falsified under both priorities
        ["--config", "DRIFT", "--check", "weak-invariance", "--gamma", "origin",
         "--budget", "4", "--tmax", "2", "--seed", "11"],
        "d8c404f9b7115c83d2d7ca67f3abaa54dea1a96413390722b9945574928d9a45"),
    "reduction": (
        ["--system", "settle-line", "--check", "reduction", "--gamma", "origin",
         "--gamma2", "gamma2", "--budget", "3", "--tmax", "10", "--eps", "0.5",
         "--delta-shrinks", "2", "--seed", "13"],
        "1e5d9ce78d0d1b6de23bb24f046767ea50fb82cf50fa1898aed796df3ac45453"),
    "reduction-global": (
        ["--system", "sigma-bump", "--check", "reduction", "--scope", "global",
         "--budget", "4", "--tmax", "10", "--eps", "0.25,0.5",
         "--delta-shrinks", "2", "--seed", "13"],
        "3aefac3bc69bede530923cfc745ec59f0efbfa3a776dbdf96f3d5e347ff325ac"),
    "attractivity-local": (
        ["--system", "sigma-bump", "--check", "attractivity", "--gamma", "origin",
         "--scope", "local", "--eps", "0.1", "--budget", "4", "--tmax", "2",
         "--seed", "3"],
        "100c84842c2e8857a7022076315ea43fce4ec81be5ddce53deff2759521c19ef"),
    "detectability": (
        ["--system", "limit-circles", "--check", "detectability", "--budget", "4",
         "--tmax", "20", "--eps", "0.5", "--delta-shrinks", "2", "--seed", "17"],
        "85a33369ac147a5659ef1b2e766d04a8086ecfec82e5077bab5080ee033f8682"),
    "chain-local": (
        ["--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2", "--scope", "local",
         "--budget", "3", "--tmax", "10", "--eps", "0.5", "--delta-shrinks", "2",
         "--seed", "19"],
        "0d340d718d993634203830ad0c79361f2b89f298c838324ff303dede0e10889f"),
    "chain-global": (
        ["--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2", "--scope", "global",
         "--budget", "3", "--tmax", "10", "--eps", "0.5", "--delta-shrinks", "2",
         "--seed", "19"],
        "411f94dcffa74a84ba18f18f5a22f66194a4cb23c37555f5735060a150e73295"),
}


# SHA-256 of each simulate run's whole output directory (arc.csv, arc.json,
# run.json and, for the observer, the three plot panels).
PINNED_SIMULATE = {
    "observer-fig3": (
        ["--system", "observer", "--preset", "fig3", "--tmax", "3",
         "--tracks", "y,q,T,chihat"],
        "19c1b49ffa3731e5d55cf712eed6feee89b1f54a3fa7c157e04223d339cc26c3"),
    "circles": (
        ["--system", "circles"],
        "b040a4ecc8f643d442c626d525fea469dc414c51b0da49756ec8290b360db91f"),
}


@pytest.mark.parametrize("name", list(PINNED_SIMULATE))
def test_simulate_output_bytes(name, tmp_path):
    args, digest = PINNED_SIMULATE[name]
    out = tmp_path / "sim"
    assert run(["simulate", *args, "--out", str(out)]) == 0
    assert _dir_digest(out) == digest


def _query_blocks(node, queries: list, radii: list):
    """Collects every ``query`` block of a report, and the near radius of each
    local-stability-near check in it."""
    if isinstance(node, dict):
        if "query" in node:
            queries.append(node["query"])
        if node.get("property") == "LocalStabilityNear":
            radii.append(node["measured"]["r"])
        for value in node.values():
            _query_blocks(value, queries, radii)
    elif isinstance(node, list):
        for value in node:
            _query_blocks(value, queries, radii)


def _check_margins(node, out: Path):
    """No report consistent at budget has a negative margin, and a falsified
    one's worst margin of its witness clause is the witness's own, replayed
    from the witness files."""
    if isinstance(node, dict):
        margins = node.get("measured", {}).get("margins")
        if node.get("verdict") == "ConsistentAtBudget":
            assert all(m is None or m["worst"] >= 0 for m in margins.values())
        elif margins is not None:
            arc_path = out / node["witness_path"]
            meta = json.loads(arc_path.with_suffix(".json").read_text())
            arc = HybridArc.from_csv(arc_path.read_text(),
                                     termination=meta["termination"])
            fixture, _, _ = _resolve({"system": meta["system"], "solver": meta["solver"]})
            sets = {k: _resolve_gamma(fixture, meta[g], arc.dim)
                    for k, g in (("gamma", "gamma"), ("g2", "gamma2")) if meta[g]}
            output = fixture.output if fixture is not None else None
            margin = clause_margin(arc, meta["clause"], output=output, **sets)[0]
            assert margin < 0
            assert margin == margins[meta["clause"]["type"]]["worst"]
        for value in node.values():
            _check_margins(value, out)


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_seed_pinned_report_bytes(name, tmp_path, capsys):
    args, digest = PINNED_RUNS[name]
    cfg = _inline_config(tmp_path, DRIFT)
    out = tmp_path / "rep"
    code = run(["analyze", *[cfg if a == "DRIFT" else a for a in args], "--out", str(out)])
    # a query block holds the campaign's settings, not the property checked,
    # and the near radius it records is the one the checks used
    queries, radii = [], []
    _query_blocks(json.loads((out / "report.json").read_text()), queries, radii)
    assert queries and len(set(radii)) <= 1
    for q in queries:
        assert "property" not in q
        assert q["near_radius"] == (radii[0] if radii else max(q["eps_grid"]))
    _check_margins(json.loads((out / "report.json").read_text()), out)
    assert _dir_digest(out) == digest
    # every witness replays through the command line, from its own files
    witnesses = sorted(out.glob("witness_*.csv"))
    assert code == (1 if witnesses else 0)
    for arc in witnesses:
        capsys.readouterr()
        assert run(["replay", "--arc", str(arc)]) == 0, arc.name
        assert "violation reproduced: True" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_a_run_spec_through_json_gives_the_pinned_report(name, tmp_path):
    args, digest = PINNED_RUNS[name]
    cfg = _inline_config(tmp_path, DRIFT)
    spec = spec_from_args(_build_parser().parse_args(
        ["analyze", *[cfg if a == "DRIFT" else a for a in args]]))
    os.remove(cfg)  # the spec holds the config file's content, not its path
    out = tmp_path / "rep"
    write_report(out, *run_spec(json.loads(json.dumps(spec))))
    assert _dir_digest(out) == digest


@pytest.mark.parametrize("block,why", [
    ({**DRIFT, "flwo": {"affine": {"A": [[-1.0]]}}}, "unknown inline system key(s) ['flwo']"),
    ({"fixture": "observer", "parms": {"omega": 2.0}}, "unknown fixture block key(s) ['parms']"),
], ids=["inline", "fixture"])
def test_a_spec_whose_system_block_has_an_unknown_key_is_a_configuration_error(block, why):
    # a config file's block is refused in the same place, by the same words
    spec = spec_from_args(_build_parser().parse_args(["analyze", "--system", "observer"]))
    spec["system"] = block
    with pytest.raises(ConfigError) as exc:
        run_spec(spec)
    assert why in str(exc.value)


@pytest.mark.parametrize("key,value", [("sample_budget", 2.5), ("delta_shrinks", 1.5),
                                       ("seed", 1.7), ("sample_budget", True)])
def test_a_spec_with_a_non_integral_count_is_a_configuration_error(key, value):
    spec = spec_from_args(_build_parser().parse_args(["analyze", "--system", "circles"]))
    spec["query"][key] = value
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value}"):
        run_spec(spec)


def test_a_hand_written_spec_with_an_unknown_check_is_a_configuration_error():
    spec = spec_from_args(_build_parser().parse_args(["analyze", "--system", "circles"]))
    spec["check"]["name"] = "bogus"
    with pytest.raises(ConfigError, match="unknown check 'bogus'"):
        run_spec(spec)


def test_a_hand_written_spec_with_an_empty_chain_is_a_configuration_error():
    # not a plain reduction on the default targets
    spec = spec_from_args(_build_parser().parse_args(
        ["analyze", "--system", "sigma-bump", "--reduce-chain", "gamma1,gamma2"]))
    spec["check"]["chain"] = []
    with pytest.raises(ConfigError, match="empty chain"):
        run_spec(spec)
