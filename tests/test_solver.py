"""Solver semantics: oracles, event location, priorities, horizons, guards."""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import assert_same_text

from hybridkit.core import HybridSystem, Termination, check_is_solution
from hybridkit.errors import InitialConditionOutsideCD
from hybridkit.geometry import box_set, coords_set, empty_set, full_space, union
from hybridkit.solver import Priority, SolverConfig, solve, solve_batch
from hybridkit.systems import catalog, estimator_diagnostics


def test_pure_flow_matches_exponential():
    sys = HybridSystem(1, full_space(1), lambda x: -x, empty_set(1),
                       lambda x: x, name="decay")
    arc = solve(sys, [1.0], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.COMPLETE_T
    assert abs(arc.final_state()[0] - math.exp(-5.0)) < 1e-6


def test_lti_flow_matches_closed_form_along_arc():
    a = np.array([[-1.0, 1.0], [0.0, -1.0]])
    sys = HybridSystem(2, full_space(2), lambda x: a @ x, empty_set(2),
                       lambda x: x, name="lti")
    arc = solve(sys, [1.0, 1.0], SolverConfig(t_max=10.0))
    for t, j, x in zip(*arc.table()):
        exact = np.array([math.exp(-t) * (1.0 + t), math.exp(-t)])
        assert np.linalg.norm(x - exact) < 1e-6


def test_observer_first_jump_time(cat, obs_params):
    fx = cat["observer"]
    cfg = SolverConfig(**fx.solver_overrides)
    arc = solve(fx.system, fx.presets["fig3"], cfg)
    d = estimator_diagnostics(arc, obs_params)
    t1_oracle = math.acos(-obs_params.sigma / 2.0) / obs_params.omega
    assert abs(d.jump_times[0] - t1_oracle) < 1e-6
    from hybridkit.core import is_complete
    assert is_complete(arc)  # the reference run persistently flows and jumps


def test_observer_half_period_timer(cat, obs_params):
    fx = cat["observer"]
    cfg = SolverConfig(**fx.solver_overrides)
    arc = solve(fx.system, fx.presets["fig3"], cfg)
    d = estimator_diagnostics(arc, obs_params)
    half = math.pi / obs_params.omega
    assert np.max(np.abs(d.tau_at_jumps[1:] - half)) < 2 * cfg.event_tol


def test_event_bracketing_gap(cat):
    fx = cat["observer"]
    cfg = SolverConfig(**fx.solver_overrides)
    arc = solve(fx.system, fx.presets["fig3"], cfg)
    gaps = [e["bracket_gap"] for e in arc.meta["events"] if e["kind"] == "flow_exit"]
    assert gaps and max(gaps) <= cfg.event_tol


def test_jump_maps_applied_exactly(cat):
    fx = cat["circles"]
    arc = solve(fx.system, [1.0, 0.0, 1.0, 1.0],
                SolverConfig(t_max=10.0, store_max_dt=0.01))
    assert arc.n_jumps >= 2
    for t, j, pre, post in arc.jump_transitions():
        expected = fx.system.jump_map(pre)
        assert np.array_equal(post, expected)       # exact, not integrated
        assert post[2] == pre[2] / 2.0              # halving is exact
        assert post[3] == -pre[3]                   # toggle is exact


def test_zeno_guard_trips_on_toggle_plane(cat):
    fx = cat["circles"]
    cfg = SolverConfig(t_max=10.0)
    arc = solve(fx.system, [0.0, 1.0, 1.0, 1.0], cfg)
    assert arc.termination is Termination.ZENO
    # zeno_k short intervals have occurred: zeno_k - 1 jumps plus the open one
    assert arc.n_jumps == cfg.zeno_k - 1
    assert arc.final_time()[0] == 0.0


def test_initial_condition_outside_cd_raises(cat):
    fx = cat["circles"]
    with pytest.raises(InitialConditionOutsideCD):
        solve(fx.system, [1.0, 0.0, 0.0, -1.0], SolverConfig())


def test_numerical_failure_on_finite_escape():
    sys = HybridSystem(1, full_space(1), lambda x: x * x, empty_set(1),
                       lambda x: x, name="blowup")
    arc = solve(sys, [1.0], SolverConfig(t_max=5.0, max_step=0.5))
    assert arc.termination is Termination.NUMERICAL_FAILURE


def test_flow_priority_still_jumps_from_d_only_states(cat):
    fx = cat["circles"]
    cfg = SolverConfig(t_max=10.0, priority=Priority.FLOW)
    arc = solve(fx.system, [1.0, 0.0, 1.0, 1.0], cfg)
    assert arc.n_jumps >= 1  # boundary stall resolves by jumping, not error


def test_priority_resolves_c_cap_d(cat):
    # on the toggle plane with x2 != 0 both priorities end up jumping; the
    # flow attempt just produces a zero-length interval first
    fx = cat["circles"]
    arc_j = solve(fx.system, [0.0, -1.0, 0.5, 1.0],
                  SolverConfig(t_max=5.0, priority=Priority.JUMP))
    arc_f = solve(fx.system, [0.0, -1.0, 0.5, 1.0],
                  SolverConfig(t_max=5.0, priority=Priority.FLOW))
    assert arc_j.termination is Termination.ZENO
    assert arc_f.termination is Termination.ZENO


def test_j_max_horizon():
    sys = HybridSystem(1, empty_set(1), lambda x: 0 * x, full_space(1),
                       lambda x: 0.5 * x, name="pure-jumps")
    arc = solve(sys, [1.0], SolverConfig(t_max=1.0, j_max=7, zeno_k=100))
    assert arc.termination is Termination.COMPLETE_J
    assert arc.n_jumps == 7
    assert arc.final_state()[0] == pytest.approx(0.5 ** 7)


def test_solver_is_deterministic(cat):
    fx = cat["observer"]
    cfg = SolverConfig(**fx.solver_overrides)
    a1 = solve(fx.system, fx.presets["fig3"], cfg)
    a2 = solve(fx.system, fx.presets["fig3"], cfg)
    assert_same_text(a1.to_csv(), a2.to_csv())


def test_batch_of_one_equals_solve(cat):
    fx = cat["circles"]
    cfg = SolverConfig(t_max=8.0)
    x0 = [1.0, 0.2, 0.5, 1.0]
    single = solve(fx.system, x0, cfg)
    batch = solve_batch(fx.system, [x0], cfg)
    assert_same_text(batch[0].to_csv(), single.to_csv())


def test_batch_observer_arcs_all_check_out(cat):
    fx = cat["observer"]
    gen = np.random.default_rng(99)
    x0s = fx.system.state_sampler(gen, 10)
    arcs = solve_batch(fx.system, list(x0s), SolverConfig(t_max=10.0))
    for arc in arcs:
        assert check_is_solution(fx.system, arc, 1e-3) == []


def test_batch_permutation_equivariance(cat):
    fx = cat["circles"]
    cfg = SolverConfig(t_max=6.0)
    gen = np.random.default_rng(13)
    x0s = fx.system.state_sampler(gen, 6)
    fwd = solve_batch(fx.system, list(x0s), cfg)
    perm = [5, 3, 0, 4, 1, 2]
    rev = solve_batch(fx.system, [x0s[i] for i in perm], cfg)
    for k, i in enumerate(perm):
        assert_same_text(rev[k].to_csv(), fwd[i].to_csv())


def test_batch_raises_the_first_error(cat):
    fx = cat["circles"]
    good = [1.0, 0.0, 0.5, 1.0]
    bad = [1.0, 0.0, 0.5, -1.0]  # outside C u D
    with pytest.raises(InitialConditionOutsideCD):
        solve_batch(fx.system, [good, bad, good], SolverConfig(t_max=2.0))


@pytest.mark.parametrize("priority", [p.value for p in Priority])
@pytest.mark.parametrize("name", list(catalog()))
def test_batch_arcs_equal_solve_arcs_on_every_preset(cat, name, priority):
    # each preset twice, shuffled among draws of the fixture's sampler: arcs
    # whose probes share dense passes and membership calls keep their bits
    fx = cat[name]
    cfg = SolverConfig(**fx.solver_overrides, priority=priority)
    x0s = [*fx.presets.values()] * 2
    if fx.system.state_sampler is not None:
        x0s += list(fx.system.state_sampler(np.random.default_rng(5), 3))
    order = np.random.default_rng(len(name)).permutation(len(x0s))
    arcs = solve_batch(fx.system, [x0s[i] for i in order], cfg)
    for i, arc in zip(order, arcs):
        assert_same_text(arc.to_json(), solve(fx.system, x0s[i], cfg).to_json())


def test_batch_raises_the_first_error_in_order_not_in_time():
    def flow(x):
        if x[0] >= 4.0:
            raise OverflowError("at once")
        if x[0] >= 1.0:
            raise ValueError("late")
        return np.ones(1)

    sys = HybridSystem(1, full_space(1), flow, empty_set(1), lambda x: x, name="ramp")
    cfg = SolverConfig(t_max=5.0)
    # x0 = 0 fails when the flow reaches 1, many rounds after x0 = 5 fails
    with pytest.raises(ValueError, match="late"):
        solve_batch(sys, [[0.0], [5.0]], cfg)
    with pytest.raises(OverflowError, match="at once"):
        solve_batch(sys, [[5.0], [0.0]], cfg)


def test_default_max_step_tracks_horizon():
    cfg = SolverConfig(t_max=30.0)
    assert cfg.effective_max_step == pytest.approx(0.3)
    assert SolverConfig(t_max=30.0, max_step=0.05).effective_max_step == 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(j_max=0)
    with pytest.raises(ValueError):
        SolverConfig(rtol=0.0)
    # counts are integers, never truncated, nor flags
    for kw in ({"j_max": 2.5}, {"zeno_k": 1.5}, {"j_max": True}, {"zeno_k": np.float64(50.0)}):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            SolverConfig(**kw)
    cfg = SolverConfig(j_max=np.int64(7), zeno_k=np.int32(9))
    assert (cfg.j_max, cfg.zeno_k) == (7, 9) and type(cfg.j_max) is int
    # real-valued settings are numbers, never flags, and are kept as given
    for name in ("t_max", "rtol", "atol", "max_step", "event_tol", "zeno_dt_min", "tol_set",
                 "store_max_dt"):
        for bad in (True, np.True_, "1", math.nan, math.inf, 10 ** 400):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    cfg = SolverConfig(t_max=np.float32(2.5), rtol=np.int64(1), zeno_dt_min=0)
    assert (type(cfg.t_max), type(cfg.rtol), type(cfg.zeno_dt_min)) == (np.float32, np.int64, int)


def test_flow_exit_before_the_first_stored_sample():
    # x0 lies in C = [0, 1] only within tol_set, so the flow leaves C at once
    sys = HybridSystem(1, box_set([[0.0, 1.0]]), lambda x: np.ones(1),
                       empty_set(1), lambda x: x, name="ramp")
    arc = solve(sys, [1.0 + 0.999e-9], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.NOT_EXTENDABLE
    assert sum(len(t) for t in arc.times) == 1
    assert [(e["kind"], e["t"]) for e in arc.meta["events"]] == [("flow_exit", 0.0)]
    assert check_is_solution(sys, arc, 1e-3) == []


def test_not_extendable_on_flow_set_exit_without_jump():
    # flow pushes x out of the box and no jump set is available
    sys = HybridSystem(1, box_set([[0.0, 1.0]]), lambda x: np.ones(1),
                       empty_set(1), lambda x: x, name="ramp")
    arc = solve(sys, [0.5], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.NOT_EXTENDABLE
    assert arc.final_state()[0] == pytest.approx(1.0, abs=1e-6)
    assert arc.final_time()[0] == pytest.approx(0.5, abs=1e-6)


def test_escape_when_jump_lands_outside(cat):
    # a jump map that throws the state out of C u D ends the arc cleanly
    sys = HybridSystem(1, box_set([[0.0, 1.0]]), lambda x: np.ones(1),
                       coords_set(1, {0: ("interval", 1.0, 1.0)}),
                       lambda x: x + 5.0, name="eject")
    arc = solve(sys, [0.0], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.ESCAPED
    assert arc.final_state()[0] == pytest.approx(6.0, abs=1e-6)
    assert arc.n_jumps == 1


def _record_member(s, log: list):
    """Make the set instance log every point array its ``member`` receives."""
    member = s.member

    def recording(x, tol=None):
        log.append(np.array(x, dtype=float))
        return member(x, tol)

    s.member = recording
    return s


def test_exit_probes_are_the_stored_samples():
    # one batched membership call per accepted step, on exactly the samples
    # that step stores
    seen: list = []
    flow_set = _record_member(box_set([[-2.0, 2.0], [-2.0, 2.0]]), seen)
    sys = HybridSystem(2, flow_set, lambda x: np.array([-x[1], x[0]]), empty_set(2),
                       lambda x: x, name="rotation")
    arc = solve(sys, [1.0, 0.0], SolverConfig(t_max=3.0))
    assert arc.termination is Termination.COMPLETE_T and len(seen) > 2
    received = np.vstack([np.atleast_2d(x) for x in seen])
    assert received.tobytes() == np.vstack(arc.states).tobytes()


def _state_calls(calls: list) -> int:
    """How many logged calls tested a single hybrid state; the stored-sample
    probes come as (m, n) arrays."""
    return sum(np.ndim(x) == 1 for x in calls)


def test_each_hybrid_state_is_tested_against_its_deciding_set_first():
    # (priority, C, D, termination, calls on hybrid states to C, to D): x' = 0
    # and the halving jump map, so the states are 1, 1/2, 1/4, ...
    jump, flow = Priority.JUMP, Priority.FLOW
    cases = [
        # every state in C n D: the priority's set alone is asked
        (jump, full_space(1), full_space(1), Termination.COMPLETE_J, 0, 5),
        (flow, full_space(1), full_space(1), Termination.COMPLETE_T, 1, 0),
        # D alone holds the states
        (jump, empty_set(1), full_space(1), Termination.COMPLETE_J, 0, 5),
        # the deciding set says no: the other set is asked once per state
        (flow, empty_set(1), full_space(1), Termination.COMPLETE_J, 5, 5),
        (jump, full_space(1), empty_set(1), Termination.COMPLETE_T, 1, 1),
    ]
    for priority, c, d, termination, n_c, n_d in cases:
        c_calls: list = []
        d_calls: list = []
        sys = HybridSystem(1, _record_member(c, c_calls), lambda x: 0 * x,
                           _record_member(d, d_calls), lambda x: x / 2, name="halving")
        arc = solve(sys, [1.0], SolverConfig(t_max=1.0, j_max=5, priority=priority))
        assert arc.termination is termination
        # x0 and the states after jumps 1..4; the fifth jump ends the arc
        assert arc.n_jumps == (5 if termination is Termination.COMPLETE_J else 0)
        assert (_state_calls(c_calls), _state_calls(d_calls)) == (n_c, n_d), priority
        if n_d == 0:
            assert not d_calls  # D is never asked, not even about a probe


def test_a_flow_set_exit_state_is_asked_of_d_alone():
    # x' = 1 on C = [0, 1] from x0 = 0.5: the flow leaves C at x = 1, t = 0.5;
    # D = [1, 2] holds that state (and G(x) = 0 restarts the ramp), D = {} not.
    # The exit state lies in C, so only D decides whether the arc goes on.
    for priority in Priority:
        for d, termination in ((box_set([[1.0, 2.0]]), Termination.COMPLETE_T),
                               (empty_set(1), Termination.NOT_EXTENDABLE)):
            calls: list = []  # (set, point array) in the order the sets are asked

            def log(tag):
                return SimpleNamespace(append=lambda x: calls.append((tag, x)))

            sys = HybridSystem(1, _record_member(box_set([[0.0, 1.0]]), log("C")),
                               lambda x: np.ones(1), _record_member(d, log("D")),
                               lambda x: 0 * x, name="ramp")
            cfg = SolverConfig(t_max=1.2, priority=priority)
            arc = solve(sys, [0.5], cfg)
            assert arc.termination is termination
            assert [e["kind"] for e in arc.meta["events"]][:1] == ["flow_exit"]
            x_exit = arc.states[0][-1]
            assert abs(x_exit[0] - 1.0) <= cfg.tol_set + cfg.event_tol  # in C within tol_set
            asked = [tag for tag, x in calls if np.ndim(x) == 1 and np.array_equal(x, x_exit)]
            assert asked == ["D"], priority
            if termination is Termination.COMPLETE_T:
                assert arc.n_jumps == 1, priority
            else:
                assert calls[-1][0] == "D" and np.array_equal(calls[-1][1], x_exit)


def test_post_jump_states_on_the_toggle_plane_are_not_tested_against_c():
    # each circles arc ends in a run of jumps on the toggle plane, where every
    # post-jump state is in D; under jump priority C is never asked about one
    fx = catalog()["circles"]  # a fresh instance: _record_member patches its sets
    c_calls: list = []
    d_calls: list = []
    sys = HybridSystem(4, _record_member(fx.system.flow_set, c_calls), fx.system.flow_map,
                       _record_member(fx.system.jump_set, d_calls), fx.system.jump_map,
                       name="circles")
    cfg = SolverConfig(**fx.solver_overrides)
    assert cfg.priority is Priority.JUMP
    for x0 in (fx.presets["default"], np.array([0.0, 1.0, 1.0, 1.0])):
        c_calls.clear()
        d_calls.clear()
        arc = solve(sys, x0, cfg)
        assert arc.termination is Termination.ZENO and arc.n_jumps > 1
        post_jump = [xs[0] for xs in arc.states[1:]]
        c_states = [x for x in c_calls if np.ndim(x) == 1]
        assert not any(np.array_equal(x, y) for x in c_states for y in post_jump)
        # C is asked about x0 only when x0 is not on the toggle plane
        assert len(c_states) == (0 if x0[0] == 0.0 else 1)
        # D is asked about x0, each flow-set exit and each post-jump state
        exits = sum(e["kind"] == "flow_exit" for e in arc.meta["events"])
        assert _state_calls(d_calls) == 1 + exits + len(post_jump)
        assert all(bool(sys.jump_set.member(x, cfg.tol_set)) for x in post_jump)


#: sha256 of ``to_csv()`` of every catalog preset's arc under each priority,
#: recorded before the solver tested the deciding set first
PINNED_PRESET_CSV = {
    ("observer", "fig3", "jump"): "2ce56332d55d5b24d2dc592f760af9d979a234cb830f3a9ec866fbdeddcc0cec",
    ("observer", "fig3", "flow"): "2ce56332d55d5b24d2dc592f760af9d979a234cb830f3a9ec866fbdeddcc0cec",
    ("circles", "default", "jump"): "6fbfa520a14a6a5fba8ab17ea946c4ab8c79f56fa0628fd579f5590cf73df5d9",
    ("circles", "default", "flow"): "2eaee3a9f86e002cdcdd75c7f7903c624233645d12e0d683ab6102f276aa5172",
    ("cascade-ex1", "default", "jump"): "c20503dcf633565f8de8c648ee7caea1e691f751a68d23d2a533772fdcc80371",
    ("cascade-ex1", "default", "flow"): "c20503dcf633565f8de8c648ee7caea1e691f751a68d23d2a533772fdcc80371",
    ("polar", "default", "jump"): "26989e8a015b60b23f95eb50784c570db92ebf4eca64ffcc6b1d224b6b53ff5c",
    ("polar", "default", "flow"): "26989e8a015b60b23f95eb50784c570db92ebf4eca64ffcc6b1d224b6b53ff5c",
    ("sigma-bump", "default", "jump"): "09a8231a29ba3990c745582f96127acdeed6113579c76d25cab3d589610e73f5",
    ("sigma-bump", "default", "flow"): "09a8231a29ba3990c745582f96127acdeed6113579c76d25cab3d589610e73f5",
    ("limit-circles", "default", "jump"): "94480b2052f1f4645450c210bc933f5b39e693fa1760d77b193f1b26995defb9",
    ("limit-circles", "default", "flow"): "94480b2052f1f4645450c210bc933f5b39e693fa1760d77b193f1b26995defb9",
    ("drift-line", "default", "jump"): "c86dc21152f9415897197791a06125344cbc0a46b32cd7b5bd06491945d28ec0",
    ("drift-line", "default", "flow"): "c86dc21152f9415897197791a06125344cbc0a46b32cd7b5bd06491945d28ec0",
    ("settle-line", "default", "jump"): "f669bba9ad69a890c8a46730a4102edb1900a8310230b2a7c072202788933ab5",
    ("settle-line", "default", "flow"): "f669bba9ad69a890c8a46730a4102edb1900a8310230b2a7c072202788933ab5",
    ("contraction", "default", "jump"): "f41c4f297f8482e2b6721290de7370927713b95f1357ba3b4727f4f3c51c233f",
    ("contraction", "default", "flow"): "f41c4f297f8482e2b6721290de7370927713b95f1357ba3b4727f4f3c51c233f",
}


@pytest.mark.parametrize("name,preset,priority", [
    (name, preset, priority.value)
    for name, fx in catalog().items() for preset in fx.presets for priority in Priority
])
def test_preset_arcs_are_pinned_under_both_priorities(cat, name, preset, priority):
    fx = cat[name]
    arc = solve(fx.system, fx.presets[preset],
                SolverConfig(**fx.solver_overrides, priority=priority))
    digest = hashlib.sha256(arc.to_csv().encode()).hexdigest()
    assert digest == PINNED_PRESET_CSV[(name, preset, priority)]


def test_flow_map_is_evaluated_once_at_each_segment_start():
    args: list = []

    def ramp(x):
        args.append(x.copy())
        return np.ones(1)

    sys = HybridSystem(1, box_set([[0.0, 1.0]]), ramp,
                       coords_set(1, {0: ("interval", 1.0, 1.0)}), lambda x: 0 * x,
                       name="ramp-reset")
    arc = solve(sys, [0.0], SolverConfig(t_max=3.5))
    flowed = [xs[0] for ts, xs in zip(arc.times, arc.states) if ts[-1] > ts[0]]
    assert len(flowed) == 4 and all(x[0] == 0.0 for x in flowed)
    assert sum(a[0] == 0.0 for a in args) == len(flowed)


def _raising_beyond(log: list):
    def flow(x):
        if x[0] > 1.2:
            log.append(x[0])
            raise ValueError("flow map undefined beyond x = 1.2")
        return np.ones(1)
    return flow


def _breaking_beyond(log: list):
    def flow(x):
        # non-finite from its first evaluation beyond x = 1.2 on, so the
        # stepper rejects every later step down to its minimum and gives up
        if x[0] > 1.2:
            log.append(x[0])
        return np.full(1, np.nan) if log else np.ones(1)
    return flow


@pytest.mark.parametrize("make_flow", [_raising_beyond, _breaking_beyond])
def test_failure_beyond_an_exit_does_not_replace_it(make_flow):
    # C = [0, 1] and no jump set: x0 = 0 flows with x' = 1 and exits C at t = 1
    def ramp(flow_map):
        return HybridSystem(1, box_set([[0.0, 1.0]]), flow_map, empty_set(1),
                            lambda x: x, name="ramp")

    beyond: list = []
    cfg = SolverConfig(t_max=5.0)
    with np.errstate(invalid="ignore"):
        arc = solve(ramp(make_flow(beyond)), [0.0], cfg)
    ref = solve(ramp(lambda x: np.ones(1)), [0.0], cfg)
    assert not beyond  # each step is probed as it is taken: none is computed past the exit
    assert arc.termination is Termination.NOT_EXTENDABLE
    assert_same_text(arc.to_csv(), ref.to_csv())
    assert_same_text(arc.to_json(), ref.to_json())


def test_exit_is_located_in_few_membership_calls():
    # C = [0, 1] and no jump set: x0 = 0 flows with x' = 1 and exits C at t = 1
    calls: list = []
    sys = HybridSystem(1, _record_member(box_set([[0.0, 1.0]]), calls), lambda x: np.ones(1),
                       empty_set(1), lambda x: x, name="ramp")
    cfg = SolverConfig(t_max=5.0)
    arc = solve(sys, [0.0], cfg)
    first_out = next(i for i, x in enumerate(calls)
                     if np.any(np.atleast_2d(x)[:, 0] > 1.0 + cfg.tol_set))
    # each call after the first one with an outside probe narrows the bracket
    # 16-fold, and the last tests the end state
    assert len(calls) - 1 - first_out <= 9
    assert arc.termination is Termination.NOT_EXTENDABLE
    # C is tested within tol_set, so the flow leaves it at t = 1 + tol_set
    assert abs(arc.final_time()[0] - (1.0 + cfg.tol_set)) <= cfg.event_tol
    (gap,) = [e["bracket_gap"] for e in arc.meta["events"] if e["kind"] == "flow_exit"]
    assert gap <= cfg.event_tol / 8


def test_event_tol_below_an_ulp_ends_on_adjacent_doubles():
    # no double lies strictly between the bracket ends, so it cannot narrow further
    sys = HybridSystem(1, box_set([[0.0, 1.0]]), lambda x: np.ones(1), empty_set(1),
                       lambda x: x, name="ramp")
    arc = solve(sys, [0.0], SolverConfig(t_max=5.0, event_tol=1e-300))
    (event,) = arc.meta["events"]
    assert arc.termination is Termination.NOT_EXTENDABLE
    assert event["t"] + event["bracket_gap"] == math.nextafter(event["t"], 2.0)


@pytest.mark.xfail(strict=True, reason="exit probes are samples: a gap in C narrower "
                   "than their spacing is flowed through (ROADMAP item 3)")
def test_flow_stops_at_a_gap_between_sample_probes():
    # C = {x1 <= 0.9995} u {x1 >= 1.0005}: the flow x' = (1, 0) leaves C at x1 = 0.9995
    c = union(coords_set(2, {0: ("interval", -math.inf, 0.9995)}),
              coords_set(2, {0: ("interval", 1.0005, math.inf)}))
    sys = HybridSystem(2, c, lambda x: np.array([1.0, 0.0]), empty_set(2),
                       lambda x: x, name="gap")
    arc = solve(sys, [0.0, 0.0], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.NOT_EXTENDABLE
    assert arc.final_state()[0] == pytest.approx(0.9995, abs=1e-6)


def _enters_d_inside_c() -> HybridSystem:
    # C = R, D = {x >= 1}, x' = 1, G(x) = 0: D is entered in the interior of C
    return HybridSystem(1, full_space(1), lambda x: np.ones(1),
                        coords_set(1, {0: ("interval", 1.0, math.inf)}),
                        lambda x: np.zeros(1), name="enter-d")


@pytest.mark.xfail(strict=True, reason="the flow stops only where it leaves C, so D "
                   "entered inside C is flowed through under jump priority (ROADMAP item 7)")
def test_jump_priority_jumps_where_the_flow_enters_d():
    cfg = SolverConfig(t_max=5.0)
    arc = solve(_enters_d_inside_c(), [0.2], cfg)
    assert arc.termination is Termination.COMPLETE_T
    jump_times = [t for t, *_ in arc.jump_transitions()]
    assert len(jump_times) == 5
    assert jump_times == pytest.approx([0.8 + k for k in range(5)], abs=cfg.event_tol)


def test_flow_priority_flows_through_d_inside_c():
    arc = solve(_enters_d_inside_c(), [0.2], SolverConfig(t_max=5.0, priority=Priority.FLOW))
    assert arc.termination is Termination.COMPLETE_T
    assert arc.n_jumps == 0
    assert arc.final_time() == (5.0, 0)
    assert arc.final_state()[0] == pytest.approx(5.2, abs=1e-9)


def test_a_jump_just_before_the_horizon_ends_complete_by_flowing_to_it():
    # C = {x <= 1} is left 1e-9 before t_max; the jump resets x into C and the
    # remaining ~1e-12 of flow ends the arc at t_max.  Every flow segment
    # starts before t_max: an exit is stored at its bracket's low end, below
    # the step end, and a jump keeps the time.
    t_max = 1.0 + 1e-9
    sys = HybridSystem(1, box_set([[-5.0, 1.0]]), lambda x: np.ones(1),
                       box_set([[1.0, 5.0]]), lambda x: np.zeros(1), name="reset")
    arc = solve(sys, [0.0], SolverConfig(t_max=t_max))
    assert arc.termination is Termination.COMPLETE_T
    assert arc.n_jumps == 1
    (t_jump, _, pre, post), = arc.jump_transitions()
    assert t_max - 1e-10 < t_jump < t_max
    assert pre[0] == pytest.approx(1.0, abs=2e-9) and post[0] == 0.0  # C within tol_set
    assert arc.final_time() == (t_max, 1)
    assert len(arc.times[1]) > 1
    assert check_is_solution(sys, arc, 1e-3) == []


def test_a_non_finite_jump_image_ends_in_numerical_failure_with_the_row_stored():
    sys = HybridSystem(1, box_set([[-5.0, 1.0]]), lambda x: np.ones(1),
                       box_set([[1.0, 5.0]]), lambda x: np.array([np.nan]), name="nan-jump")
    arc = solve(sys, [0.0], SolverConfig(t_max=5.0))
    assert arc.termination is Termination.NUMERICAL_FAILURE
    t, j, x = arc.table()
    assert arc.n_jumps == 1 and j[-1] == 1 and t[-1] == t[-2]
    assert np.isnan(x[-1, 0]) and np.isfinite(x[:-1]).all()
    assert [e["kind"] for e in arc.meta["events"]] == ["flow_exit", "jump"]


def test_each_post_jump_state_is_stored_as_a_copy():
    # the jump map returns one buffer that it writes again on its next call
    buf = np.zeros(1)

    def jump(x):
        buf[0] = x[0] + 1.0
        return buf

    sys = HybridSystem(1, full_space(1), lambda x: np.zeros(1), box_set([[0.0, 3.0]]), jump,
                       name="one-buffer")
    cfg = SolverConfig(t_max=1.0)
    for arc in (solve(sys, [0.0], cfg), *solve_batch(sys, [[0.0], [0.0]], cfg)):
        assert [post[0] for _, _, _, post in arc.jump_transitions()] == [1.0, 2.0, 3.0, 4.0]
        assert arc.termination is Termination.COMPLETE_T
