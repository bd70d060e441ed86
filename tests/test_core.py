"""Hybrid time domains, arcs, the solution checker, and serialization."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from hybridkit.core import (
    HybridArc,
    HybridSystem,
    HybridTimeDomain,
    Termination,
    check_is_solution,
    hybrid_time_leq,
    hybrid_time_lt,
    is_complete,
    range_of,
)
from hybridkit.errors import MalformedArc
from hybridkit.geometry import empty_set, full_space
from hybridkit.solver import SolverConfig, solve


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


def test_range_of_constant_and_halving():
    const = HybridArc([np.array([0.0, 1.0, 2.0])], [np.full((3, 1), 0.7)],
                      Termination.COMPLETE_T)
    assert range_of(const).shape == (1, 1)

    vals = [1.0, 0.5, 0.25, 0.125]
    arc = HybridArc([np.array([0.0])] * 4,
                    [np.array([[v]]) for v in vals],
                    Termination.COMPLETE_J)
    r = range_of(arc)
    assert sorted(r.ravel().tolist()) == sorted(vals)


def test_range_of_rotation_stays_on_circle():
    sys = _rotation_system(1.5)
    arc = solve(sys, [2.0, 0.0],
                SolverConfig(t_max=2 * np.pi / 1.5, store_max_dt=0.02))
    pts = range_of(arc)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 2.0)) < 1e-6


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
    assert back.to_csv() == text
    assert back.termination == arc.termination


def test_json_round_trip():
    vals = [1.0, 0.5]
    arc = HybridArc([np.array([0.0, 1.0]), np.array([1.0, 2.0])],
                    [np.array([[1.0], [1.0]]), np.array([[0.5], [0.5]])],
                    Termination.COMPLETE_T, meta={"note": "x"})
    back = HybridArc.from_json(arc.to_json())
    assert back.to_csv() == arc.to_csv()
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


def test_malformed_csv_raises():
    with pytest.raises(MalformedArc):
        HybridArc.from_csv("t,j,x_1,event\n0,0,1,flow\n0,2,1,jump\n")
    with pytest.raises(MalformedArc):
        HybridArc.from_csv("nonsense,header\n1,2\n")
