"""CLI surface: commands, exit codes, file outputs, replay, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from hybridkit.cli import _resolve_gamma, main
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


def test_replay_witness_reproduces(tmp_path):
    out = tmp_path / "rep"
    run(["analyze", "--system", "limit-circles", "--check", "attractivity",
         "--gamma", "x2x3-axis", "--budget", "10", "--tmax", "60",
         "--out", str(out)])
    code = run(["replay", "--arc", str(out / "witness_attractivity.csv"),
                "--meta", str(out / "witness_attractivity.json")])
    assert code == 0


def test_replay_corrupted_csv_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,j,x_1,event\n0,0,1,flow\n0,7,2,jump\n")
    assert run(["replay", "--arc", str(bad)]) == 2
    missing = tmp_path / "missing.csv"
    assert run(["replay", "--arc", str(missing)]) == 2


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
    run(["simulate", "--system", "circles", "--x0", "1,0,1,1",
         "--out", str(out), "--format", "csv"])
    capsys.readouterr()
    code = run(["replay", "--arc", str(out / "arc.csv"),
                "--meta", str(out / "run.json")])
    assert code == 0
    assert "bitwise match after regeneration: True" in capsys.readouterr().out


def test_seed_determines_reports_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["analyze", "--system", "circles", "--check", "stability",
            "--gamma", "gamma1", "--budget", "6", "--tmax", "20",
            "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 1
    assert run(args + ["--out", str(b)]) == 1
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "witness_stability.csv").read_bytes() == \
        (b / "witness_stability.csv").read_bytes()


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


def test_observer_param_override(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["simulate", "--system", "observer", "--preset", "fig3",
                "--param", "omega=2.0", "--tmax", "10", "--out", str(out),
                "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    t1 = math.acos(-0.125 / 1.0) / 2.0  # 2 cos(2 t) = -0.25
    assert f"jump 1 at t={t1:.6f}"[:18] in text
