"""Hybrid time domains, arcs, the solution checker, and serialization."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from conftest import assert_same_text

from hybridkit.core import (
    ARC_SCHEMA_VERSION,
    HybridArc,
    HybridSystem,
    HybridTimeDomain,
    Termination,
    Violation,
    _events,
    _jsonable,
    check_is_solution,
    hybrid_time_leq,
    hybrid_time_lt,
    is_complete,
)
from hybridkit.errors import DimensionMismatch, MalformedArc
from hybridkit.geometry import box_set, coords_set, empty_set, full_space
from hybridkit.solver import Priority, SolverConfig, solve
from hybridkit.systems import catalog

PRESETS = [(name, preset) for name, fx in catalog().items() for preset in fx.presets]


@functools.lru_cache(maxsize=None)
def _preset_arc(name, preset):
    fx = catalog()[name]
    return fx.system, solve(fx.system, fx.presets[preset], SolverConfig(**fx.solver_overrides))


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


def test_in_cd_tests_d_only_when_a_point_is_outside_c():
    d = coords_set(1, {0: ("values", (2.0,))})
    member = d.member
    d_calls: list = []
    d.member = lambda x, tol=None: d_calls.append(x) or member(x, tol)
    sys = HybridSystem(1, box_set([[0.0, 1.0]]), lambda x: x, d, lambda x: x, name="box-and-point")
    # C = [0, 1] and D = {2}: 0.5 is in C, 2 in D only, 3 in neither
    for pts, expected, n_d in [([0.5], True, 0), ([2.0], True, 1), ([3.0], False, 1),
                               ([[0.5], [1.0]], [True, True], 0),
                               ([[0.5], [3.0], [2.0]], [True, False, True], 1)]:
        d_calls.clear()
        x = np.array(pts)
        got = sys.in_cd(x, 1e-9)
        assert np.array_equal(got, expected) and len(d_calls) == n_d
        assert np.array_equal(got, np.logical_or(sys.flow_set.member(x, 1e-9), member(x, 1e-9)))


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


def test_every_constructor_refuses_an_interval_that_starts_after_the_jump_time():
    # interval 1 starts at t = 0.5, but interval 0 ended at t = 1
    rows = [(0.0, 0, 0.0), (1.0, 0, 1.0), (0.5, 1, 0.0), (2.0, 1, 1.0)]
    text = "t,j,x_1,event\n" + "".join(
        f"{t!r},{j},{x!r},{'jump' if k == 2 else 'flow'}\n" for k, (t, j, x) in enumerate(rows))
    payload = json.dumps({"schema_version": ARC_SCHEMA_VERSION, "n": 1,
                          "termination": "CompleteByHorizonT",
                          "samples": [{"t": t, "j": j, "x": [x], "event": "flow"}
                                      for t, j, x in rows]})
    match = "interval 1 starts at 0.5, previous ended at 1.0"
    with pytest.raises(MalformedArc, match=match):
        HybridArc.from_csv(text)
    with pytest.raises(MalformedArc, match=match):
        HybridArc.from_json(payload)
    with pytest.raises(MalformedArc, match=match):
        HybridArc([np.array([0.0, 1.0]), np.array([0.5, 2.0])],
                  [np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])], None)


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


def test_arc_intervals_of_two_state_widths_raise_malformed_arc():
    with pytest.raises(MalformedArc, match="state shape"):
        HybridArc([np.array([0.0]), np.array([0.0])], [np.zeros((1, 2)), np.zeros((1, 3))],
                  None)


def test_arc_states_of_three_dimensions_raise_malformed_arc():
    with pytest.raises(MalformedArc, match="not \\(N,\\), \\(N,\\), \\(N, n >= 1\\)"):
        HybridArc([np.array([0.0, 1.0])], [np.zeros((2, 2, 2))], None)


def _edited_arc_json(edit) -> str:
    arc = HybridArc([np.array([0.0, 1.0])], [np.array([[1.0, 2.0], [0.5, 1.0]])],
                    Termination.COMPLETE_T)
    payload = json.loads(arc.to_json())
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("text", [
    # one sample's x of another length
    _edited_arc_json(lambda p: p["samples"][1].update(x=[1.0])),
    # a sample without "t", "j" or "x"
    *(_edited_arc_json(lambda p, k=k: p["samples"][0].pop(k)) for k in ("t", "j", "x")),
    # scalar states
    _edited_arc_json(lambda p: [row.update(x=1.0) for row in p["samples"]]),
    # rows of a width other than the payload's "n"
    _edited_arc_json(lambda p: p.update(n=3)),
    # not JSON
    '{"schema_version": 1, "samples": [',
], ids=["ragged-x", "no-t", "no-j", "no-x", "scalar-x", "width-not-n", "not-json"])
def test_malformed_arc_json_raises_malformed_arc(text):
    with pytest.raises(MalformedArc):
        HybridArc.from_json(text)


def test_csv_jump_rows_marked():
    arc = HybridArc([np.array([0.0, 1.0]), np.array([1.0, 2.0])],
                    [np.array([[1.0], [0.9]]), np.array([[0.45], [0.4]])],
                    Termination.COMPLETE_T)
    lines = arc.to_csv().splitlines()
    events = [ln.split(",")[-1] for ln in lines[1:]]
    assert events == ["flow", "flow", "jump", "flow"]


@pytest.mark.parametrize("name,preset", PRESETS)
def test_preset_arc_files_round_trip_byte_for_byte(name, preset):
    _, arc = _preset_arc(name, preset)
    text, payload = arc.to_csv(), arc.to_json()
    assert_same_text(HybridArc.from_csv(text, termination=arc.termination).to_csv(), text)
    back = HybridArc.from_json(payload)
    assert_same_text(back.to_csv(), text)
    assert_same_text(back.to_json(), payload)


def test_arc_wide_reductions_take_one_call(cat, monkeypatch):
    fx = cat["circles"]
    arc = solve(fx.system, fx.presets["default"], SolverConfig(**fx.solver_overrides))
    assert arc.n_jumps >= 50
    gamma = fx.gammas["gamma1"]
    per_interval = max(np.max(gamma.distance(x)) for x in arc.states)
    norm_per_interval = max(np.max(np.linalg.norm(x, axis=1)) for x in arc.states)
    calls = []
    distance = gamma.distance
    monkeypatch.setattr(gamma, "distance", lambda x: calls.append(len(x)) or distance(x))
    assert arc.sup_distance(gamma) == per_interval  # bit for bit
    assert calls == [sum(len(t) for t in arc.times)]
    assert arc.sup_norm() == norm_per_interval


def test_table_is_stored_once_and_intervals_are_views_of_it():
    _, arc = _preset_arc("circles", "default")
    t, j, x = arc.table()
    assert all(a is b for a, b in zip(arc.table(), (t, j, x)))
    assert all(np.shares_memory(tk, t) for tk in arc.times)
    assert all(np.shares_memory(xk, x) for xk in arc.states)


@pytest.mark.parametrize("config", ["default", "fixture"])
@pytest.mark.parametrize("name,preset", PRESETS)
def test_solved_rebuilt_and_parsed_arcs_share_one_table(name, preset, config):
    fx = catalog()[name]
    if config == "fixture":
        _, arc = _preset_arc(name, preset)
    else:
        arc = solve(fx.system, fx.presets[preset], SolverConfig())
    if name == "circles":  # the toggle's Zeno run: intervals one sample long
        assert min(len(t) for t in arc.times) == 1
    # the per-interval definitions, read off the views
    domain = tuple((float(t[0]), float(t[-1]), k) for k, t in enumerate(arc.times))
    jumps = [(float(arc.times[k][-1]), k, arc.states[k][-1].tobytes(),
              arc.states[k + 1][0].tobytes()) for k in range(len(arc.times) - 1)]
    rebuilt = HybridArc(arc.times, arc.states, arc.termination, arc.meta)
    parsed = HybridArc.from_csv(arc.to_csv(), arc.termination)
    for other in (arc, rebuilt, parsed):
        assert ([(a.dtype, a.shape, a.tobytes()) for a in other.table()]
                == [(a.dtype, a.shape, a.tobytes()) for a in arc.table()])
        assert other.n_jumps == len(jumps) and other.final_time() == arc.final_time()
        assert other.domain == HybridTimeDomain(domain)
        assert [(t, j, pre.tobytes(), post.tobytes())
                for t, j, pre, post in other.jump_transitions()] == jumps


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


# -- the array-form checker and the row-template JSON writer against the
# per-sample code they replaced, kept here as references ---------------------

def _check_per_row(sys, arc, tol, tol_set=1e-9):
    """``check_is_solution`` with one Python iteration per stored sample."""
    out = []
    for j, (t, x) in enumerate(zip(arc.times, arc.states)):
        check = x[:-1]
        if check.shape[0]:
            inside = np.asarray(sys.flow_set.member(check, tol_set), dtype=bool)
            for k in np.flatnonzero(~inside):
                out.append(Violation("FlowOutsideC", float(t[k]), j,
                                     float(sys.flow_set.distance(check[k]))))
        for k in range(t.shape[0] - 1):
            dt = t[k + 1] - t[k]
            if dt <= 0:
                continue
            mid = 0.5 * (x[k] + x[k + 1])
            resid = (x[k + 1] - x[k]) / dt - np.asarray(sys.flow_map(mid), dtype=float)
            mag = float(np.linalg.norm(resid))
            if mag > tol:
                out.append(Violation("FlowResidual", float(t[k]), j, mag))
    for t, j, pre, post in arc.jump_transitions():
        if not bool(sys.jump_set.member(pre, tol_set)):
            out.append(Violation("JumpOutsideD", t, j, float(sys.jump_set.distance(pre))))
        err = float(np.linalg.norm(post - np.asarray(sys.jump_map(pre), dtype=float)))
        if err > tol:
            out.append(Violation("JumpMapMismatch", t, j, err))
    return out


def _assert_same_violations(sys, arc, tol):
    got, ref = check_is_solution(sys, arc, tol), _check_per_row(sys, arc, tol)
    assert [(v.kind, v.t, v.j) for v in got] == [(v.kind, v.t, v.j) for v in ref]
    for g, r in zip(got, ref):
        assert math.isclose(g.magnitude, r.magnitude, rel_tol=1e-12, abs_tol=0.0)
    return got


def _json_per_row(arc):
    """``to_json`` as one dict per sample through ``json.dumps(indent=1)``."""
    t, j, x = arc.table()
    columns = (t.tolist(), j.tolist(), x.tolist(), _events(j).tolist())
    rows = [{"t": tk, "j": jk, "x": xk, "event": ek} for tk, jk, xk, ek in zip(*columns)]
    return json.dumps({"schema_version": ARC_SCHEMA_VERSION, "n": arc.dim,
                       "termination": arc.termination.value, "samples": rows,
                       "meta": _jsonable(arc.meta)}, indent=1)


def _decay_arc(times, noise, seed=0):
    """Sampled e^{-t} on each interval of ``times``, jumping by x -> x/2,
    with N(0, noise) added to every state."""
    gen = np.random.default_rng(seed)
    states, x0 = [], 1.0
    for t in times:
        x = x0 * np.exp(-(t - t[0]))[:, None]
        states.append(x + gen.normal(scale=noise, size=x.shape))
        x0 = 0.5 * float(x[-1, 0])
    return HybridArc([np.asarray(t, dtype=float) for t in times], states,
                     Termination.COMPLETE_J)


def _decay_system(flow_map=lambda x: -x):
    return HybridSystem(1, full_space(1), flow_map, full_space(1),
                        lambda x: 0.5 * x, name="decay")


@pytest.mark.parametrize("name,preset", PRESETS)
def test_array_checker_equals_per_row_reference_on_presets(name, preset):
    sys, arc = _preset_arc(name, preset)
    assert _assert_same_violations(sys, arc, 1e-3) == []


def test_array_checker_equals_per_row_reference_on_a_noisy_arc():
    sys, arc = _preset_arc("observer", "fig3")
    gen = np.random.default_rng(0)
    noisy = HybridArc(list(arc.times),
                      [x + gen.normal(scale=1e-3, size=x.shape) for x in arc.states],
                      arc.termination)
    v = _assert_same_violations(sys, noisy, 1e-3)
    assert sum(viol.kind == "FlowResidual" for viol in v) == 3002


def test_array_checker_equals_per_row_reference_on_odd_intervals():
    # a single-sample interval between two flows, and a flow map that
    # returns a scalar for the 1-D state
    times = [np.linspace(0.0, 1.0, 41), np.array([1.0]), np.linspace(1.0, 2.0, 41)]
    scalar = _decay_system(lambda x: -float(x[0]))
    for sys in (_decay_system(), scalar):
        arc = _decay_arc(times, noise=1e-3)
        assert any(v.kind == "FlowResidual" for v in _assert_same_violations(sys, arc, 1e-3))
    # a repeated time sample (dt = 0) is skipped by both; the arc constructor
    # refuses one, so it is written afterwards, on purpose, into the arc's
    # stored table through the view ``times`` returns
    arc = _decay_arc(times, noise=1e-3)
    arc.times[0][5] = arc.times[0][4]
    v = _assert_same_violations(scalar, arc, 1e-3)
    assert sum(viol.kind == "FlowResidual" and viol.j == 0 for viol in v) == 39


def test_array_checker_propagates_a_flow_map_error_at_the_same_midpoint():
    def flow_map(x):
        if x[0] < 0.5:
            raise FloatingPointError(f"flow map refused {float(x[0])!r}")
        return -x

    sys, arc = _decay_system(flow_map), _decay_arc([np.linspace(0.0, 2.0, 81)], 0.0)
    with pytest.raises(FloatingPointError) as ref:
        _check_per_row(sys, arc, 1e-3)
    with pytest.raises(FloatingPointError, match=re.escape(str(ref.value))):
        check_is_solution(sys, arc, 1e-3)


def test_checker_makes_one_membership_call_per_interval_and_one_map_call_per_gap(
        monkeypatch):
    times = [np.linspace(0.0, 1.0, 11), np.array([1.0]), np.linspace(1.0, 1.5, 7),
             np.array([1.5, 2.0])]
    arc = _decay_arc(times, noise=0.0)
    # one zero-length gap, written on purpose into the stored table through
    # the view ``times`` returns (the arc constructor refuses one)
    arc.times[0][3] = arc.times[0][2]
    maps = []
    sys = _decay_system(lambda x: maps.append(1) or -x)
    members = []
    member = sys.flow_set.member
    monkeypatch.setattr(sys.flow_set, "member",
                        lambda x, tol=None: members.append(len(x)) or member(x, tol))
    check_is_solution(sys, arc, 1e-3)
    assert members == [10, 6, 1]  # intervals with at least 2 samples
    assert len(maps) == 9 + 6 + 1  # positive-length gaps


@pytest.mark.parametrize("name,preset", PRESETS)
def test_to_json_equals_json_dumps_reference_on_presets(name, preset):
    _, arc = _preset_arc(name, preset)
    assert_same_text(arc.to_json(), _json_per_row(arc))


def test_to_json_equals_json_dumps_reference_on_extreme_values():
    arc = HybridArc(
        [np.array([0.0, 5e-324, 1.0]), np.array([1.0, np.inf])],
        [np.array([[np.nan, -0.0], [np.inf, -np.inf], [1e300, 5e-324]]),
         np.array([[-1e300, 0.1], [np.nan, 1.0]])],
        Termination.COMPLETE_T,
        meta={"nested": [1, [2.5, {"k": None}], {"deep": {"x": [True, False]}}],
              "empty_list": [], "empty_dict": {}, "none": None, "flag": True,
              "text": "nan inf Infinity -Infinity NaN", "nan": float("nan"),
              "inf": [float("inf"), -float("inf")], "array": np.arange(3)},
    )
    text = arc.to_json()
    assert_same_text(text, _json_per_row(arc))
    back = HybridArc.from_json(text)
    assert_same_text(back.to_json(), text)
    assert back.termination == arc.termination
    for a, b in zip(back.states + back.times, arc.states + arc.times):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# -- column text: each column formatted once per arc, the bytes of the
# row-template writer it replaced --------------------------------------------

def _csv_per_row(arc):
    """``to_csv`` as one ``%``-format per row, the writer before column text."""
    t, j, x = arc.table()
    fmt = ",".join(["%.17g", "%d", *["%.17g"] * arc.dim, "%s"]) + "\n"
    header = ",".join(["t", "j", *(f"x_{i + 1}" for i in range(arc.dim)), "event"])
    rows = zip(t.tolist(), j.tolist(), *x.T.tolist(), _events(j).tolist())
    return header + "\n" + "".join([fmt % row for row in rows])


@pytest.mark.parametrize("name,preset", PRESETS)
def test_to_csv_equals_the_per_row_writer_on_presets(name, preset):
    _, arc = _preset_arc(name, preset)
    assert_same_text(arc.to_csv(), _csv_per_row(arc))


def test_to_csv_equals_the_per_row_writer_on_extreme_values():
    arc = HybridArc(
        [np.array([0.0, 5e-324, 1.0]), np.array([1.0, np.inf])],
        [np.array([[np.nan, -0.0], [np.inf, -np.inf], [1e300, 5e-324]]),
         np.array([[-1e300, 0.1], [np.nan, 1.0]])],
        Termination.COMPLETE_T)
    assert_same_text(arc.to_csv(), _csv_per_row(arc))


def test_each_column_is_formatted_once_per_arc():
    arc = HybridArc([np.array([0.0, 0.5]), np.array([0.5])],
                    [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0]])],
                    Termination.COMPLETE_J)
    text = arc.to_csv()
    columns = {name: arc.column_text(name) for name in ("t", "j", "x_1", "x_2", "event")}
    assert columns == {"t": ["0", "0.5", "0.5"], "j": ["0", "0", "1"],
                       "x_1": ["1", "3", "5"], "x_2": ["2", "4", "6"],
                       "event": ["flow", "flow", "jump"]}
    assert all(arc.column_text(name) is col for name, col in columns.items())
    assert arc.to_csv() == text


# -- the batched flow map in the checker -------------------------------------

def _per_row_system(sys):
    return dataclasses.replace(sys, flow_map_batch=None)


def _assert_batched_equals_per_row(sys, arc, tol, abs_tol=0.0):
    assert sys.flow_map_batch is not None
    got, ref = check_is_solution(sys, arc, tol), check_is_solution(_per_row_system(sys), arc, tol)
    assert [(v.kind, v.t, v.j) for v in got] == [(v.kind, v.t, v.j) for v in ref]
    for g, r in zip(got, ref):
        assert math.isclose(g.magnitude, r.magnitude, rel_tol=1e-12, abs_tol=abs_tol)
    return got


@pytest.mark.parametrize("priority", list(Priority))
@pytest.mark.parametrize("name,preset", PRESETS)
def test_batched_checker_equals_per_row_checker_on_presets(name, preset, priority):
    fx = catalog()[name]
    cfg = SolverConfig(**{**fx.solver_overrides, "priority": priority})
    arc = solve(fx.system, fx.presets[preset], cfg)
    assert _assert_batched_equals_per_row(fx.system, arc, 1e-3) == []
    # below the residual floor nearly every gap is reported (all but the
    # exact ones of a linear flow); such a residual is a difference of nearly
    # equal terms, so the two maps' last-bit differences are compared absolutely
    _assert_batched_equals_per_row(fx.system, arc, 1e-12, abs_tol=1e-12)


def test_batched_checker_equals_per_row_checker_on_a_corrupted_arc():
    sys, arc = _preset_arc("observer", "fig3")
    gen = np.random.default_rng(1)
    bad = HybridArc(list(arc.times),
                    [s + gen.normal(scale=1e-3, size=s.shape) for s in arc.states],
                    arc.termination)
    v = _assert_batched_equals_per_row(sys, bad, 1e-3)
    kinds = {viol.kind for viol in v}
    assert {"FlowResidual", "JumpMapMismatch", "FlowOutsideC"} <= kinds


def test_checker_makes_one_batched_call_per_interval():
    times = [np.linspace(0.0, 1.0, 11), np.array([1.0]), np.linspace(1.0, 1.5, 7),
             np.array([1.5, 2.0])]
    arc = _decay_arc(times, noise=0.0)
    maps, batches = [], []
    sys = _decay_system(lambda x: maps.append(1) or -x)
    sys = dataclasses.replace(sys, flow_map_batch=lambda x: batches.append(len(x)) or -x)
    assert check_is_solution(sys, arc, 1e-3) == []
    assert batches == [10, 6, 1]  # intervals with a positive-length gap
    assert len(maps) == 3  # the first midpoint of each batch


def test_checker_refuses_a_batched_map_that_is_not_the_flow_map():
    arc = _decay_arc([np.linspace(0.0, 1.0, 11)], noise=0.0)
    sys = _decay_system()
    with pytest.raises(ValueError, match="flow_map_batch gives"):
        check_is_solution(dataclasses.replace(sys, flow_map_batch=lambda x: -1.001 * x),
                          arc, 1e-3)
    with pytest.raises(DimensionMismatch, match="flow_map_batch returned shape"):
        check_is_solution(dataclasses.replace(sys, flow_map_batch=lambda x: -x[:, 0]),
                          arc, 1e-3)


def test_a_raising_batched_map_leaves_solve_unaffected(cat):
    fx = cat["observer"]

    def refuse(x):
        raise RuntimeError("the solver called flow_map_batch")

    cfg = SolverConfig(**{**fx.solver_overrides, "t_max": 3.0})
    sys = dataclasses.replace(fx.system, flow_map_batch=refuse)
    arc = solve(sys, fx.presets["fig3"], cfg)
    assert_same_text(arc.to_csv(), solve(fx.system, fx.presets["fig3"], cfg).to_csv())
    with pytest.raises(RuntimeError, match="called flow_map_batch"):
        check_is_solution(sys, arc, 1e-3)

