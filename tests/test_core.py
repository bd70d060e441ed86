"""Hybrid time domains, arcs, the solution checker, and serialization."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from conftest import assert_same_text

from hybridkit.core import (
    HybridArc,
    HybridSystem,
    HybridTimeDomain,
    Termination,
    check_is_solution,
    hybrid_time_leq,
    hybrid_time_lt,
    is_complete,
)
from hybridkit.errors import MalformedArc
from hybridkit.geometry import empty_set, full_space
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import catalog

PRESETS = [(name, preset) for name, fx in catalog().items() for preset in fx.presets]


def _rotation_system(omega=1.5):
    return HybridSystem(
        2, full_space(2),
        lambda x: np.array([-omega * x[1], omega * x[0]]),
        empty_set(2), lambda x: x, name="rotation",
    )


def test_hybrid_time_order_examples():
    assert hybrid_time_leq((1.0, 2), (1.0, 2))           # reflexive
    assert not hybrid_time_leq((1.0, 3), (2.0, 2))       # j decreases
    assert hybrid_time_leq((0.5, 1), (0.5, 2))
    assert hybrid_time_lt((0.5, 1), (0.5, 2))            # one strict inequality
    assert not hybrid_time_lt((1.0, 2), (1.0, 2))


def test_hybrid_time_is_partial_order():
    grid = list(itertools.product([0.0, 0.5, 1.0], [0, 1, 2]))
    for a in grid:
        assert hybrid_time_leq(a, a)
        for b in grid:
            if hybrid_time_leq(a, b) and hybrid_time_leq(b, a):
                assert a == b
            for c in grid:
                if hybrid_time_leq(a, b) and hybrid_time_leq(b, c):
                    assert hybrid_time_leq(a, c)


def test_time_domain_invariants():
    HybridTimeDomain(((0.0, 1.0, 0), (1.0, 1.0, 1), (1.0, 2.5, 2)))
    with pytest.raises(MalformedArc):
        HybridTimeDomain(((0.0, 1.0, 0), (1.5, 2.0, 1)))  # t gap
    with pytest.raises(MalformedArc):
        HybridTimeDomain(((0.0, 1.0, 0), (1.0, 2.0, 2)))  # j skips
    with pytest.raises(MalformedArc):
        HybridTimeDomain(((1.0, 0.5, 0),))                # t_end < t_start


def test_arc_sample_times_must_increase():
    with pytest.raises(MalformedArc):
        HybridArc([np.array([0.0, 0.0])], [np.zeros((2, 1))],
                  Termination.NOT_EXTENDABLE)


def test_is_complete_flags():
    stuck = HybridArc([np.array([0.0, 0.3])], [np.zeros((2, 1))],
                      Termination.NOT_EXTENDABLE)
    assert not is_complete(stuck)
    horizon = HybridArc([np.array([0.0, 50.0])], [np.zeros((2, 1))],
                        Termination.COMPLETE_T)
    assert is_complete(horizon)


def test_checker_clean_on_solver_output():
    sys = _rotation_system()
    arc = solve(sys, [2.0, 0.0], SolverConfig(t_max=5.0, store_max_dt=0.02))
    assert check_is_solution(sys, arc, 1e-3) == []


def test_checker_flags_flow_residual():
    # e^{-t} samples perturbed by 10x the tolerance must trip the residual
    sys = HybridSystem(1, full_space(1), lambda x: -x, empty_set(1),
                       lambda x: x, name="decay")
    t = np.linspace(0.0, 2.0, 201)
    x = np.exp(-t)[:, None]
    tol = 1e-3
    gen = np.random.default_rng(0)
    x_bad = x + gen.normal(scale=10 * tol, size=x.shape)
    arc = HybridArc([t], [x_bad], Termination.COMPLETE_T)
    v = check_is_solution(sys, arc, tol)
    assert any(viol.kind == "FlowResidual" for viol in v)
    clean = check_is_solution(sys, HybridArc([t], [x], Termination.COMPLETE_T), tol)
    assert clean == []


def test_checker_flags_jump_outside_d(cat):
    fx = cat["observer"]
    sys = fx.system
    # fabricate a jump from a point with qy > -sigma (outside the jump set)
    pre = np.array([2.0, 0.0, 0.0, 0.0, 1.0, 2.5, 0.1])
    post = np.array(sys.jump_map(np.array([-0.5, 1.9, 0.0, 0.0, 1.0, 2.5, 0.1])))
    post[0:2] = pre[0:2]
    arc = HybridArc([np.array([0.0]), np.array([0.0])],
                    [pre[None, :], post[None, :]],
                    Termination.NOT_EXTENDABLE)
    v = check_is_solution(sys, arc, 1e-3)
    assert any(viol.kind == "JumpOutsideD" for viol in v)


def test_checker_flags_jump_map_mismatch():
    sys = HybridSystem(1, full_space(1), lambda x: 0 * x, full_space(1),
                       lambda x: 0.5 * x, name="halving")
    arc = HybridArc([np.array([0.0]), np.array([0.0])],
                    [np.array([[1.0]]), np.array([[0.9]])],
                    Termination.COMPLETE_J)
    v = check_is_solution(sys, arc, 1e-6)
    assert any(viol.kind == "JumpMapMismatch" for viol in v)


def test_csv_round_trip_and_column_order():
    sys = _rotation_system()
    arc = solve(sys, [1.0, 0.0], SolverConfig(t_max=1.0))
    text = arc.to_csv()
    header = text.splitlines()[0]
    assert header == "t,j,x_1,x_2,event"
    back = HybridArc.from_csv(text, termination=arc.termination)
    assert_same_text(back.to_csv(), text)
    assert back.termination == arc.termination


def test_json_round_trip():
    vals = [1.0, 0.5]
    arc = HybridArc([np.array([0.0, 1.0]), np.array([1.0, 2.0])],
                    [np.array([[1.0], [1.0]]), np.array([[0.5], [0.5]])],
                    Termination.COMPLETE_T, meta={"note": "x"})
    back = HybridArc.from_json(arc.to_json())
    assert_same_text(back.to_csv(), arc.to_csv())
    assert back.termination == arc.termination


def test_json_jump_counter_skip_raises():
    arc = HybridArc([np.array([0.0, 1.0]), np.array([1.0, 2.0])],
                    [np.array([[1.0], [1.0]]), np.array([[0.5], [0.5]])],
                    Termination.COMPLETE_T)
    payload = json.loads(arc.to_json())
    for row in payload["samples"]:
        row["j"] *= 2  # j goes 0 -> 2
    with pytest.raises(MalformedArc, match="j=2"):
        HybridArc.from_json(json.dumps(payload))


def test_csv_jump_rows_marked():
    arc = HybridArc([np.array([0.0, 1.0]), np.array([1.0, 2.0])],
                    [np.array([[1.0], [0.9]]), np.array([[0.45], [0.4]])],
                    Termination.COMPLETE_T)
    lines = arc.to_csv().splitlines()
    events = [ln.split(",")[-1] for ln in lines[1:]]
    assert events == ["flow", "flow", "jump", "flow"]


@pytest.mark.parametrize("name,preset", PRESETS)
def test_preset_arc_files_round_trip_byte_for_byte(cat, name, preset):
    fx = cat[name]
    arc = solve(fx.system, fx.presets[preset], SolverConfig(**fx.solver_overrides))
    text, payload = arc.to_csv(), arc.to_json()
    assert_same_text(HybridArc.from_csv(text, termination=arc.termination).to_csv(), text)
    back = HybridArc.from_json(payload)
    assert_same_text(back.to_csv(), text)
    assert_same_text(back.to_json(), payload)


def test_arc_wide_reductions_take_one_call(cat, monkeypatch):
    fx = cat["circles"]
    arc = solve(fx.system, fx.presets["default"], SolverConfig(**fx.solver_overrides))
    assert arc.n_jumps >= 50
    gamma = fx.gamma("gamma1")
    per_interval = max(np.max(gamma.distance(x)) for x in arc.states)
    norm_per_interval = max(np.max(np.linalg.norm(x, axis=1)) for x in arc.states)
    calls = []
    distance = gamma.distance
    monkeypatch.setattr(gamma, "distance", lambda x: calls.append(len(x)) or distance(x))
    assert arc.sup_distance(gamma) == per_interval  # bit for bit
    assert calls == [sum(len(t) for t in arc.times)]
    assert arc.sup_norm() == norm_per_interval


def test_malformed_csv_raises():
    with pytest.raises(MalformedArc):
        HybridArc.from_csv("t,j,x_1,event\n0,0,1,flow\n0,2,1,jump\n")
    with pytest.raises(MalformedArc):
        HybridArc.from_csv("nonsense,header\n1,2\n")
    for text in ("t,j,x_1,event\nabc,0,1,flow\n",    # non-numeric cell
                 "t,j,x_1,event\n0,0.5,1,flow\n",    # j is not an integer
                 "t,j,x_1,event\n0,0,1,2,flow\n",    # one column too many
                 "t,j,x_1,event\n0,1,1,jump\n",      # j does not start at 0
                 "t,j,x_1,event\n"):                  # no samples
        with pytest.raises(MalformedArc):
            HybridArc.from_csv(text)
    with pytest.raises(MalformedArc, match="bogus"):
        HybridArc.from_csv("t,j,x_1,event\n0,0,1,flow\n", termination="bogus")


def test_same_text_failures_name_the_first_differing_line():
    assert_same_text("a\nb\n", "a\nb\n")
    with pytest.raises(AssertionError, match=r"line 2: 'b' != 'c'"):
        assert_same_text("a\nb\n", "a\nc\n")
    with pytest.raises(AssertionError, match=r"\(4, '[0-9a-f]{64}'\) != \(2, "):
        assert_same_text(b"a\nb\n", b"a\n")
