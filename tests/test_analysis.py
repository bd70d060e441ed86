"""Empirical stability checkers and reduction reports on the fixture catalog:
paper verdicts, witness replayability, budget monotonicity, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from conftest import assert_same_text

import hybridkit
from hybridkit import analysis, cli, geometry, solver
from hybridkit.analysis import (
    CONSISTENT,
    FALSIFIED,
    PropertyQuery,
    check_attractivity,
    check_boundedness,
    check_invariance,
    check_local_stability_near,
    check_output_convergence,
    check_stability,
    clause_margin,
    detectability_report,
    recursive_reduction_report,
    reduction_report,
    replay_clause,
)
from hybridkit.composition import with_output
from hybridkit.core import HybridArc, HybridSystem, check_is_solution
from hybridkit.errors import ApproximateDistance, ChainNotNested, ConfigError, DimensionMismatch
from hybridkit.geometry import (Window, box_set, empty_set, full_space, inflate, intersect,
                                point_set)
from hybridkit.solver import SolverConfig
from hybridkit.systems import Q_IDX


def q_for(fx, **kw):
    base = dict(window=fx.window, sample_budget=12, seed=2024)
    base.update(kw)
    return PropertyQuery(**base)


# -- stability ---------------------------------------------------------------


def test_contraction_stability_delta_equals_eps(cat):
    fx = cat["contraction"]
    rep = check_stability(fx.system, fx.gammas["origin"],
                          q_for(fx, solver=SolverConfig(t_max=20.0)))
    assert rep.verdict == CONSISTENT
    for eps, delta in rep.measured["delta_for_eps"].items():
        assert delta == eps


def test_drift_line_stability_falsified(cat):
    fx = cat["drift-line"]
    rep = check_stability(fx.system, fx.gammas["origin"],
                          q_for(fx, solver=SolverConfig(t_max=50.0)))
    assert rep.verdict == FALSIFIED
    assert rep.witness is not None
    assert rep.witness_clause["sup_distance"] > rep.witness_clause["eps"]


def test_settling_nonlinearity_origin_stable(cat):
    fx = cat["sigma-bump"]
    rep = check_stability(fx.system, fx.gammas["origin"],
                          q_for(fx, solver=SolverConfig(t_max=50.0)))
    assert rep.verdict == CONSISTENT


def test_stability_refuses_lower_bound_distance(cat):
    lens = intersect(inflate(point_set([0.0, 0.0]), 1.0),
                     inflate(point_set([0.5, 0.0]), 1.0))
    fx = cat["sigma-bump"]
    with pytest.raises(ApproximateDistance):
        check_stability(fx.system, lens, q_for(fx))


def test_budget_monotonicity_of_falsification(cat):
    fx = cat["drift-line"]
    small = check_stability(fx.system, fx.gammas["origin"],
                            q_for(fx, sample_budget=4,
                                  solver=SolverConfig(t_max=50.0)))
    big = check_stability(fx.system, fx.gammas["origin"],
                          q_for(fx, sample_budget=16,
                                solver=SolverConfig(t_max=50.0)))
    assert small.verdict == FALSIFIED
    assert big.verdict == FALSIFIED


def test_reports_are_seed_deterministic(cat):
    fx = cat["circles"]
    g1 = fx.gammas["gamma1"]
    q = q_for(fx, sample_budget=6,
              solver=SolverConfig(t_max=20.0, store_max_dt=0.01))
    r1 = check_stability(fx.system, g1, q)
    r2 = check_stability(fx.system, g1, q)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert_same_text(r1.witness.to_csv(), r2.witness.to_csv())


def test_campaign_solves_to_the_solver_horizon(cat):
    # the horizon is the solver config's; the query has no copy to override it
    fx = cat["contraction"]
    configs = []
    q = q_for(fx, sample_budget=2, solver=SolverConfig(t_max=10.0, j_max=3),
              arc_hook=lambda sys, arc: configs.append(arc.meta["config"]))
    rep = check_attractivity(fx.system, fx.gammas["origin"], q)
    assert configs
    assert all((c["t_max"], c["j_max"]) == (10.0, 3) for c in configs)
    assert rep.provenance["horizon"] == {"t_max": 10.0, "j_max": 3}


# -- attractivity ------------------------------------------------------------


def test_contraction_globally_attractive(cat):
    fx = cat["contraction"]
    rep = check_attractivity(fx.system, fx.gammas["origin"],
                             q_for(fx, solver=SolverConfig(t_max=30.0)))
    assert rep.verdict == CONSISTENT
    assert rep.measured["pass_fraction"] == 1.0


def test_circles_dichotomy(cat):
    # globally attractive at budget while stability is falsified
    fx = cat["circles"]
    g1 = fx.gammas["gamma1"]
    cfgkw = dict(solver=SolverConfig(t_max=25.0, store_max_dt=0.01))
    attract = check_attractivity(fx.system, g1, q_for(fx, **cfgkw))
    stab = check_stability(fx.system, g1, q_for(fx, **cfgkw))
    assert attract.verdict == CONSISTENT
    assert stab.verdict == FALSIFIED


def test_limit_circles_attractivity_falsified(cat):
    fx = cat["limit-circles"]
    g1 = fx.gammas["gamma1"]
    rep = check_attractivity(
        fx.system, g1,
        q_for(fx, sample_budget=10,
              solver=SolverConfig(t_max=60.0, store_max_dt=0.004)))
    assert rep.verdict == FALSIFIED
    assert rep.witness_clause["type"] == "attractivity_terminal"


def test_unbounded_solutions_falsify_attractivity(cat):
    # the drift-free growth region: x2 blows up, boundedness clause trips
    fx = cat["sigma-bump"]
    g1 = fx.gammas["origin"]
    window = Window.from_bounds([[2.0, 3.0], [0.5, 1.0]])
    rep = check_attractivity(fx.system, g1,
                             q_for(fx, window=window,
                                   solver=SolverConfig(t_max=15.0),
                                   bound_radius=100.0))
    assert rep.verdict == FALSIFIED
    assert rep.witness_clause["type"] == "unbounded"


# -- local stability near ----------------------------------------------------


def test_local_stability_near_on_settling_nonlinearity(cat):
    fx = cat["sigma-bump"]
    rep = check_local_stability_near(
        fx.system, fx.gammas["origin"], fx.gammas["gamma2"], 1.0,
        q_for(fx, solver=SolverConfig(t_max=50.0)))
    assert rep.verdict == CONSISTENT


def test_outer_set_unstable_far_away_but_locally_fine(cat):
    # sampled in the growth region the line is unstable; the near-check at
    # r = 1 still passes because x2 is frozen while |x1| <= 1
    fx = cat["sigma-bump"]
    g2 = fx.gammas["gamma2"]
    far_window = Window.from_bounds([[2.0, 3.0], [-0.5, 0.5]])
    unstable = check_stability(fx.system, g2,
                               q_for(fx, window=far_window,
                                     solver=SolverConfig(t_max=15.0)))
    assert unstable.verdict == FALSIFIED
    near = check_local_stability_near(
        fx.system, fx.gammas["origin"], g2, 1.0,
        q_for(fx, solver=SolverConfig(t_max=50.0)))
    assert near.verdict == CONSISTENT


def test_containment_makes_near_check_trivial(cat):
    fx = cat["settle-line"]
    g1 = fx.gammas["origin"]
    g2 = inflate(g1, 2.0)
    rep = check_local_stability_near(
        fx.system, g1, g2, 1.0,
        q_for(fx, eps_grid=(1.5, 2.0), solver=SolverConfig(t_max=20.0)))
    assert rep.verdict == CONSISTENT


# -- where a campaign draws --------------------------------------------------


_CONTRACTION_ORIGIN_CHECKS = {
    "stability": lambda fx, q: check_stability(fx.system, fx.gammas["origin"], q),
    "strong_invariance": lambda fx, q: check_invariance(
        fx.system, fx.gammas["origin"], "strong", q),
}


@pytest.mark.parametrize("case", sorted(_CONTRACTION_ORIGIN_CHECKS))
def test_query_sampler_cannot_leave_the_delta_ball(cat, case):
    fx = cat["contraction"]
    far = q_for(fx, solver=SolverConfig(t_max=5.0),
                sampler=lambda rng, n: np.full((n, 1), 5.0))
    with pytest.raises(ConfigError, match="no initial condition in C u D "
                       r"within delta = \S+ of 'origin'"):
        _CONTRACTION_ORIGIN_CHECKS[case](fx, far)


def test_query_sampler_inside_the_delta_ball_is_used(cat):
    fx = cat["contraction"]
    x0s = []
    near = q_for(fx, solver=SolverConfig(t_max=5.0),
                 sampler=lambda rng, n: rng.uniform(-0.01, 0.01, (n, 1)),
                 arc_hook=lambda sys, arc: x0s.append(arc.meta["x0"][0]))
    rep = check_stability(fx.system, fx.gammas["origin"], near)
    assert rep.verdict == CONSISTENT
    assert x0s and all(abs(x) <= 0.01 for x in x0s)


def test_local_attractivity_with_a_sampler_draws_near_the_set(cat):
    fx = cat["sigma-bump"]
    origin = fx.gammas["origin"]
    x0s = []
    q = q_for(fx, near_radius=0.1, solver=SolverConfig(t_max=2.0),
              sampler=lambda rng, n: fx.window.uniform(rng, n),
              arc_hook=lambda sys, arc: x0s.append(arc.meta["x0"]))
    rep = check_attractivity(fx.system, origin, q, near=origin)
    assert rep.prop == "LocalAttractivityNear"
    assert x0s and all(float(origin.distance(np.array(x))) <= 0.1 for x in x0s)
    glob = check_attractivity(fx.system, origin, q)
    assert glob.prop == "GlobalAttractivity"


# -- invariance --------------------------------------------------------------


def test_amplitude_shell_strongly_invariant(cat):
    fx = cat["observer"]
    w = fx.gammas["w-shell"]
    rep = check_invariance(
        fx.system, w, "strong",
        q_for(fx, solver=SolverConfig(t_max=20.0), sample_budget=8,
              sampler=fx.system.state_sampler))
    assert rep.verdict == CONSISTENT
    assert rep.measured["margins"]["invariance_exit"]["worst"] > 0


def test_noninvariant_slab_falsified_immediately():
    from hybridkit.core import HybridSystem
    from hybridkit.geometry import box_set, empty_set, full_space

    sys = HybridSystem(1, full_space(1), lambda x: np.ones(1), empty_set(1),
                       lambda x: x, name="drift")
    slab = box_set([[-1.0, 1.0]])
    rep = check_invariance(sys, slab, "strong",
                           PropertyQuery(solver=SolverConfig(t_max=5.0),
                                         sample_budget=5, seed=1,
                                         window=Window.cube(1, 1.0)))
    assert rep.verdict == FALSIFIED
    assert rep.witness_clause["type"] == "invariance_exit"


def test_synchronized_set_invariant_along_runs(cat):
    fx = cat["observer"]
    g3 = fx.gammas["gamma3"]
    rep = check_invariance(fx.system, g3, "strong",
                           q_for(fx, solver=SolverConfig(t_max=15.0),
                                 sample_budget=6))
    assert rep.verdict == CONSISTENT


def test_weak_invariance_retries_other_priority(cat):
    # on the toggle plane: jump-priority arcs stay (Zeno), so the check holds
    # "under available selections"
    fx = cat["circles"]
    g2 = fx.gammas["gamma2"]
    rep = check_invariance(fx.system, g2, "weak",
                           q_for(fx, solver=SolverConfig(t_max=10.0),
                                 sample_budget=8))
    assert rep.verdict == CONSISTENT
    assert any("selection" in n for n in rep.notes)


# -- output convergence and boundedness --------------------------------------


def test_output_convergence_on_circles(cat):
    fx = cat["circles"]
    osys = with_output(fx.system, lambda x: np.array([x[0]]))
    rep = check_output_convergence(
        osys, q_for(fx, solver=SolverConfig(t_max=25.0)))
    assert rep.verdict == CONSISTENT


def test_boundedness_flags_growth(cat):
    fx = cat["sigma-bump"]
    window = Window.from_bounds([[2.0, 3.0], [0.5, 1.0]])
    rep = check_boundedness(fx.system,
                            q_for(fx, window=window,
                                  solver=SolverConfig(t_max=15.0),
                                  bound_radius=100.0))
    assert rep.verdict == FALSIFIED


# -- witnesses ---------------------------------------------------------------


def test_falsification_witnesses_replay(cat):
    cases = []
    fx = cat["drift-line"]
    cases.append((fx, fx.gammas["origin"], check_stability(
        fx.system, fx.gammas["origin"],
        q_for(fx, solver=SolverConfig(t_max=50.0)))))
    fx = cat["limit-circles"]
    cases.append((fx, fx.gammas["gamma1"], check_attractivity(
        fx.system, fx.gammas["gamma1"],
        q_for(fx, sample_budget=10,
              solver=SolverConfig(t_max=60.0, store_max_dt=0.004)))))
    fx = cat["circles"]
    cases.append((fx, fx.gammas["gamma1"], check_stability(
        fx.system, fx.gammas["gamma1"],
        q_for(fx, solver=SolverConfig(t_max=25.0, store_max_dt=0.01)))))
    for fx, gamma, rep in cases:
        assert rep.verdict == FALSIFIED
        assert check_is_solution(fx.system, rep.witness, 1e-3) == []
        assert replay_clause(rep.witness, rep.witness_clause, gamma)


def test_witness_margin_is_the_worst_margin(cat):
    # one falsified check per witness clause type, with the sets its margin
    # is taken on: the witness's own margin, from the arc in memory and from
    # its CSV, is the report's worst margin of that clause, bit for bit
    drift, bump, lc = cat["drift-line"], cat["sigma-bump"], cat["limit-circles"]
    origin = drift.gammas["origin"]
    long = q_for(drift, solver=SolverConfig(t_max=50.0))
    growth = q_for(bump, window=Window.from_bounds([[2.0, 3.0], [0.5, 1.0]]),
                   solver=SolverConfig(t_max=15.0), bound_radius=100.0)
    line = HybridSystem(1, full_space(1), lambda x: np.ones(1), empty_set(1),
                        lambda x: x, name="drift")
    slab = box_set([[-1.0, 1.0]])
    osys = with_output(lc.system, lc.output)
    cases = {
        "stability_escape": (
            check_stability(drift.system, origin, long), {"gamma": origin}),
        "local_stability_escape": (
            check_local_stability_near(drift.system, origin, origin, 10.0, long),
            {"gamma": origin, "g2": origin}),
        "attractivity_terminal": (
            check_attractivity(lc.system, lc.gammas["gamma1"],
                               q_for(lc, solver=SolverConfig(t_max=60.0))),
            {"gamma": lc.gammas["gamma1"]}),
        "unbounded": (check_boundedness(bump.system, growth), {}),
        "invariance_exit": (
            check_invariance(line, slab, "strong",
                             PropertyQuery(solver=SolverConfig(t_max=5.0),
                                           sample_budget=5, seed=1,
                                           window=Window.cube(1, 1.0))),
            {"gamma": slab}),
        "output_not_converged": (
            check_output_convergence(osys, q_for(lc, solver=SolverConfig(t_max=20.0))),
            {"output": osys.output}),
    }
    for kind, (rep, on) in cases.items():
        assert rep.verdict == FALSIFIED and rep.witness_clause["type"] == kind
        worst = rep.measured["margins"][kind]
        assert worst["x0"] == rep.witness_clause["x0"]
        stored = HybridArc.from_csv(rep.witness.to_csv(),
                                    termination=rep.witness.termination)
        margin, clause = clause_margin(rep.witness, rep.witness_clause, **on)
        assert clause == rep.witness_clause
        assert margin < 0 and margin == worst["worst"]
        assert clause_margin(stored, rep.witness_clause, **on)[0] == margin
        assert replay_clause(stored, rep.witness_clause, on.get("gamma"),
                             on.get("g2"), on.get("output"))


@pytest.mark.parametrize("kw", [
    {"eps_grid": (float("nan"),)}, {"eps_grid": (0.25, float("inf"))},
    {"bound_radius": float("nan")}, {"bound_radius": float("inf")},
    {"bound_radius": 0.0},
    # counts and seeds are integers, never truncated, nor flags
    {"sample_budget": 2.5}, {"delta_shrinks": 1.5}, {"seed": 1.7}, {"sample_budget": True},
    {"seed": np.float64(3.0)},
    # real-valued settings are numbers, never flags
    {"conv_tol": True}, {"near_radius": True}, {"bound_radius": True}, {"eps_grid": (True,)},
    {"eps_grid": (0.25, np.True_)}, {"conv_tol": "1e-3"}])
def test_query_rejects_non_finite_grids_and_radii(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        PropertyQuery(**kw)


def test_query_takes_numpy_integers_and_bounds_at_1e3_without_a_radius_or_window():
    q = PropertyQuery(sample_budget=np.int64(3), seed=np.int32(7), delta_shrinks=np.uint8(1))
    assert (q.sample_budget, q.seed, q.delta_shrinks) == (3, 7, 1)
    assert all(type(v) is int for v in (q.sample_budget, q.seed, q.delta_shrinks))
    assert PropertyQuery().effective_bound_radius() == 1e3


def test_restriction_agreement_with_interior_outer_set(cat):
    # a fat outer set containing the target in its interior: verdicts for the
    # full system and the restriction agree at equal seed and budget
    fx = cat["settle-line"]
    g1 = fx.gammas["origin"]
    ball = inflate(g1, 2.0)
    q = q_for(fx, solver=SolverConfig(t_max=40.0), sample_budget=10)
    full = check_stability(fx.system, g1, q)
    from hybridkit.composition import restrict

    restricted = check_stability(restrict(fx.system, ball), g1, q,
                                 project=ball.project)
    assert full.verdict == restricted.verdict == CONSISTENT


# -- reduction reports -------------------------------------------------------


def test_reduction_report_settling_line_stability_bundle(cat):
    # the origin is stable but not attractive (the drift level is frozen), so
    # the stability implication engages and holds while the asymptotic
    # stability bundle correctly reports failed hypotheses
    fx = cat["settle-line"]
    rep = reduction_report(fx.system, fx.gammas["origin"], fx.gammas["gamma2"],
                           q_for(fx, solver=SolverConfig(t_max=40.0),
                                 sample_budget=8, near_radius=1.0),
                           scope="local")
    thm = {t.name: t for t in rep.theorems}
    assert thm["stability"].hypotheses_consistent
    assert thm["stability"].conclusion_consistent
    assert rep.conclusions["stability"].verdict == CONSISTENT
    assert rep.sub_reports["relative_stability"].verdict == CONSISTENT
    assert rep.sub_reports["relative_attractivity"].verdict == CONSISTENT
    assert rep.sub_reports["local_stability_near"].verdict == CONSISTENT
    assert rep.sound


def test_reduction_report_limit_circles_counterexample(cat):
    # relative stability fails and so does the conclusion; the attractivity
    # implication never engages, so the report stays sound.  The relative
    # escape crawls at speed ~ delta^2, so the horizon must scale like the
    # reciprocal of the smallest probed delta.
    fx = cat["limit-circles"]
    q = q_for(fx, sample_budget=10, conv_tol=0.05,
              solver=SolverConfig(t_max=600.0, store_max_dt=0.05))
    rep = reduction_report(fx.system, fx.gammas["gamma1"], fx.gammas["gamma2"],
                           q, scope="global")
    assert rep.sub_reports["relative_stability"].verdict == FALSIFIED
    assert rep.sub_reports["relative_attractivity"].verdict == CONSISTENT
    assert rep.sub_reports["global_attractivity_gamma2"].verdict == CONSISTENT
    assert rep.conclusions["attractivity"].verdict == FALSIFIED
    assert rep.sound
    thm = {t.name: t for t in rep.theorems}
    assert not thm["attractivity"].hypotheses_consistent


def test_recursive_chain_of_one_matches_plain_checks(cat):
    fx = cat["contraction"]
    g = fx.gammas["origin"]
    q = q_for(fx, solver=SolverConfig(t_max=30.0), sample_budget=8)
    rep = recursive_reduction_report(fx.system, [g], q, scope="global")
    assert rep.all_consistent
    plain_s = check_stability(fx.system, g, q)
    plain_a = check_attractivity(fx.system, g, q)
    assert rep.sub_reports["link1_stability_rel_statespace"].verdict == plain_s.verdict
    assert rep.sub_reports["link1_attractivity_rel_statespace"].verdict == plain_a.verdict


def test_recursive_chain_circles_distinguishes_attractivity_from_as(cat):
    fx = cat["circles"]
    g1, g2 = fx.gammas["gamma1"], fx.gammas["gamma2"]
    q = q_for(fx, sample_budget=8,
              solver=SolverConfig(t_max=25.0, store_max_dt=0.01))
    rep = recursive_reduction_report(fx.system, [g1, g2], q, scope="global")
    assert rep.sub_reports["link1_stability_rel_gamma2"].verdict == CONSISTENT
    assert rep.sub_reports["link1_attractivity_rel_gamma2"].verdict == CONSISTENT
    assert rep.sub_reports["link2_stability_rel_statespace"].verdict == FALSIFIED
    assert rep.sub_reports["link2_attractivity_rel_statespace"].verdict == CONSISTENT
    thm = {t.name: t for t in rep.theorems}
    assert thm["attractivity"].hypotheses_consistent
    assert thm["attractivity"].conclusion_consistent
    assert not thm["asymptotic_stability"].hypotheses_consistent
    assert rep.sound


def test_chain_nesting_enforced(cat):
    fx = cat["circles"]
    q = q_for(fx, sample_budget=4)
    with pytest.raises(ChainNotNested):
        recursive_reduction_report(fx.system,
                                   [fx.gammas["gamma2"], fx.gammas["gamma1"]],
                                   q, scope="global")


# -- detectability -----------------------------------------------------------


def test_detectability_circles_consistent(cat):
    fx = cat["circles"]
    osys = with_output(fx.system, lambda x: np.array([x[0]]))
    rep = detectability_report(
        osys, fx.gammas["gamma1"], fx.gammas["gamma2"],
        q_for(fx, sample_budget=8,
              solver=SolverConfig(t_max=25.0, store_max_dt=0.01)))
    assert rep.all_consistent
    assert rep.sound


def test_detectability_trivial_zero_output(cat):
    fx = cat["contraction"]
    from hybridkit.geometry import full_space

    osys = with_output(fx.system, lambda x: np.array([0.0]))
    rep = detectability_report(
        osys, fx.gammas["origin"], full_space(1),
        q_for(fx, solver=SolverConfig(t_max=30.0), sample_budget=8))
    assert rep.all_consistent


def test_detectability_limit_circles_needs_relative_gas(cat):
    fx = cat["limit-circles"]
    osys = with_output(fx.system, lambda x: np.array([x[2]]))
    rep = detectability_report(
        osys, fx.gammas["gamma1"], fx.gammas["gamma2"],
        q_for(fx, sample_budget=10, conv_tol=0.05,
              solver=SolverConfig(t_max=600.0, store_max_dt=0.05)))
    assert rep.sub_reports["boundedness"].verdict == CONSISTENT
    assert rep.sub_reports["output_convergence"].verdict == CONSISTENT
    assert rep.sub_reports["relative_stability"].verdict == FALSIFIED
    assert rep.conclusions["global_attractivity"].verdict == FALSIFIED
    assert rep.sound


# -- campaigns that solve no arc ---------------------------------------------

_UNIT_BOX = box_set([[-1.0, 1.0], [-1.0, 1.0]], name="unit-box")
_MISSES_C = Window.from_bounds([[3.0, 4.0], [3.0, 4.0]])
_VACUOUS = {
    # every draw near a target outside C u D is rejected
    "local_stability_near": lambda sys, q: check_local_stability_near(
        sys, point_set([5.0, 5.0]), _UNIT_BOX, 0.5, q),
    "strong_invariance": lambda sys, q: check_invariance(
        sys, point_set([5.0, 5.0]), "strong", q),
    "boundedness": lambda sys, q: check_boundedness(sys, q.replace(window=_MISSES_C)),
    "output_convergence": lambda sys, q: check_output_convergence(
        with_output(sys, lambda x: x), q.replace(window=_MISSES_C)),
    # B_0.1((1.2, 0)) misses C, B_0.5 does not: the eps = 0.1 levels are empty
    "stability_empty_delta_level": lambda sys, q: check_stability(
        sys, point_set([1.2, 0.0]), q.replace(eps_grid=(0.1, 0.5))),
}


@pytest.mark.parametrize("case", sorted(_VACUOUS))
def test_campaign_that_solves_no_arc_raises(case):
    sys = HybridSystem(2, _UNIT_BOX, lambda x: -x, empty_set(2), lambda x: x,
                       name="unit-box-decay")
    q = PropertyQuery(solver=SolverConfig(t_max=2.0), sample_budget=4, seed=3,
                      window=Window.cube(2, 1.0))
    with pytest.raises(ConfigError, match="no initial condition in C u D"):
        _VACUOUS[case](sys, q)


# -- campaigns solved in chunks ------------------------------------------------


def _per_draw(sys, x0s, cfg=None):
    """``solve_batch`` as the per-draw loop: one ``solve`` per initial condition."""
    return [solver.solve(sys, x0, cfg) for x0 in x0s]


_CIRCLES = ["--system", "circles", "--gamma", "gamma1", "--scope", "global", "--box", "preset"]
_SEQUENTIAL_CASES = {
    "circles-attractivity": [*_CIRCLES, "--check", "attractivity", "--budget", "20",
                             "--tmax", "10"],
    # 64 draws split into one range per CPU (up to 2), judged in forked children
    "circles-attractivity-pooled": [*_CIRCLES, "--check", "attractivity", "--budget", "64",
                                    "--tmax", "10"],
    "circles-stability": [*_CIRCLES, "--check", "stability", "--budget", "12", "--tmax", "10"],
    "sigma-bump-stability": ["--system", "sigma-bump", "--check", "stability", "--gamma",
                             "gamma1", "--budget", "5", "--tmax", "10", "--eps", "0.25,0.5",
                             "--delta-shrinks", "2"],
    "observer-chain": ["--system", "observer", "--reduce-chain", "gamma1,gamma2,gamma3",
                       "--scope", "global", "--box", "preset", "--budget", "2", "--eps",
                       "1.0", "--delta-shrinks", "1", "--tmax", "8"],
}


@pytest.mark.parametrize("case", list(_SEQUENTIAL_CASES))
def test_campaign_reports_match_the_sequential_loop(case, tmp_path, monkeypatch):
    # every output byte and the x0 of every arc handed to arc_hook, in order,
    # are those of solving one draw at a time
    x0s: list = []
    hook = lambda sys, arc: x0s.append(arc.meta["x0"])
    if not case.endswith("-pooled"):  # a hooked campaign forks nothing
        monkeypatch.setattr(cli, "PropertyQuery",
                            lambda **kw: PropertyQuery(arc_hook=hook, **kw))

    def run(out, seed):
        x0s.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", *_SEQUENTIAL_CASES[case], "--seed", str(seed),
                             "--out", str(out)])
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return code, files, list(x0s)

    verdicts = set()
    for seed in range(5):
        chunked = run(tmp_path / f"chunked{seed}", seed)
        with monkeypatch.context() as m:
            m.setattr(analysis, "solve_batch", _per_draw)
            sequential = run(tmp_path / f"sequential{seed}", seed)
        assert chunked[0] == sequential[0] and chunked[2] == sequential[2]
        assert chunked[1].keys() == sequential[1].keys()
        for name, text in chunked[1].items():
            assert_same_text(text, sequential[1][name])
        verdicts.add(chunked[0])
    if case == "circles-stability":
        assert verdicts == {1}  # falsified at every seed


# -- the campaign precision ----------------------------------------------------


def _at_reference_precision(monkeypatch):
    """Campaigns solve every draw at the query's own precision."""
    monkeypatch.setattr(PropertyQuery, "campaign_solver", property(lambda self: self.solver))


def test_a_margin_inside_the_guard_band_is_judged_at_the_query_precision(cat, monkeypatch):
    # conv_tol between one observer draw's terminal distances at the two
    # precisions: the campaign precision's arc alone would pass the draw
    fx = cat["observer"]
    gamma = fx.gammas["gamma1"]
    query = PropertyQuery(window=fx.window, sample_budget=1, seed=5,
                          solver=SolverConfig(**{**fx.solver_overrides, "t_max": 10.0}))
    assert query.campaign_solver != query.solver
    arcs: list = []
    check_attractivity(fx.system, gamma, query.replace(arc_hook=lambda sys, arc: arcs.append(arc)))
    fast = arcs[0]  # the first arc of a draw is solved at the campaign precision
    assert fast.meta["config"] == query.campaign_solver.to_config()
    reference = solver.solve(fx.system, fast.meta["x0"], query.solver)
    far, near = fast.terminal_distance(gamma), reference.terminal_distance(gamma)
    assert far < near and near - far < analysis._GUARD
    query = query.replace(conv_tol=(far + near) / 2)

    arcs.clear()
    guarded = check_attractivity(fx.system, gamma,
                                 query.replace(arc_hook=lambda sys, arc: arcs.append(arc)))
    assert [a.meta["config"] for a in arcs] == [query.campaign_solver.to_config(),
                                                query.solver.to_config()]
    with monkeypatch.context() as m:
        _at_reference_precision(m)
        alone = check_attractivity(fx.system, gamma, query)
    assert guarded.verdict == alone.verdict == FALSIFIED
    assert guarded.witness_clause == alone.witness_clause


@pytest.mark.parametrize("cfg", [SolverConfig(t_max=10.0, store_max_dt=0.01),
                                 SolverConfig(t_max=10.0, rtol=1e-6, atol=1e-8, max_step=0.5)])
def test_a_query_no_tighter_than_the_defaults_solves_each_draw_once(cat, cfg):
    fx = cat["circles"]
    arcs: list = []
    rep = check_attractivity(fx.system, fx.gammas["gamma1"],
                             q_for(fx, solver=cfg, arc_hook=lambda sys, arc: arcs.append(arc)))
    assert len(arcs) == rep.measured["n_total"]
    assert all(a.meta["config"] == cfg.to_config() for a in arcs)
    assert "campaign_precision" not in rep.provenance


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_the_campaign_precision_keeps_the_observer_chain_report(seed, tmp_path, monkeypatch):
    # every verdict, delta_for_eps, witness clause and witness file byte is
    # that of solving every draw at the fixture's precision
    def run(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", *_SEQUENTIAL_CASES["observer-chain"],
                             "--seed", str(seed), "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())["reports"]["reduction"]
        checks = {k: (r["verdict"], r["measured"].get("delta_for_eps"), r["witness_clause"])
                  for part in ("sub_reports", "conclusions") for k, r in rep[part].items()}
        witnesses = {f.name: f.read_bytes() for f in sorted(out.glob("witness_*"))}
        return ("campaign_precision" in rep["query"], code, rep["sound"],
                rep["all_consistent"], checks, witnesses)

    fast = run(tmp_path / "fast")
    with monkeypatch.context() as m:
        _at_reference_precision(m)
        reference = run(tmp_path / "reference")
    assert fast[0] and not reference[0]
    assert fast[1:] == reference[1:]
    assert fast[-1]  # a check is falsified, so there are witness files to compare


#: the fewest draws a campaign splits: two ranges of two full solve chunks
_SMALLEST_POOLED_BUDGET = 2 * 2 * analysis._MAX_CHUNK


def _indexed_decay(monkeypatch, x0: dict):
    """A decaying line whose draw of index i is ``x0[i]``, else 0.5, with a
    flow map that raises at x >= 4 and a stability clause that x = 2
    violates; returns a campaign of the smallest pooled budget on it, with
    ``kw`` added to its query."""
    def flow(x):
        if x[0] >= 4.0:
            raise DimensionMismatch("raised at its own draw")
        return -x

    sys = HybridSystem(1, full_space(1), flow, empty_set(1), lambda x: x, name="decay")
    monkeypatch.setattr(analysis, "_rng", lambda seed, *ctx: ctx[-1])
    monkeypatch.setattr(analysis, "_draw_initial",
                        lambda sys, i, *a: np.array([x0.get(i, 0.5)]))
    query = PropertyQuery(solver=SolverConfig(t_max=2.0), sample_budget=_SMALLEST_POOLED_BUDGET)
    clauses = [{"type": "stability_escape", "eps": 1.0}]
    return lambda **kw: analysis._campaign(sys, query.replace(**kw), "t", clauses,
                                           on={"gamma": point_set([0.0])})


@pytest.mark.parametrize("bad,raises,falsified", [
    (1, 3, True),   # different chunks
    (3, 4, True),   # one chunk (indices 2-5): the raise after the violation is discarded
    (4, 3, False),  # one chunk: the raise comes first, at its own draw
])
def test_campaign_returns_a_violation_that_precedes_a_raising_draw(
        monkeypatch, bad, raises, falsified):
    hooked: list = []
    run = _indexed_decay(monkeypatch, {bad: 2.0, raises: 5.0})
    campaign = lambda: run(sample_budget=8,
                           arc_hook=lambda sys, arc: hooked.append(arc.meta["x0"][0]))
    if not falsified:
        with pytest.raises(DimensionMismatch, match="its own draw"):
            campaign()
        assert hooked == [0.5] * raises
        return
    run = campaign()
    assert run.witness.meta["x0"] == [2.0] and run.n_total == bad + 1
    assert hooked == [0.5] * bad + [2.0]


def test_chunked_campaign_makes_an_eighth_of_the_membership_calls(cat, monkeypatch):
    # the calls the solves make; the draws make the same calls either way.  On
    # one CPU, so that the solves are made, and counted, in this process
    _on_cpus(monkeypatch, 1)
    fx = cat["circles"]
    query = q_for(fx, sample_budget=64, seed=0)
    calls, drawing = [0], [False]
    member, draw = geometry.ClosedSet.member, analysis._draw_initial

    def counted(self, x, tol=None):
        calls[0] += not drawing[0]
        return member(self, x, tol)

    def flagged(*args):
        drawing[0] = True
        try:
            return draw(*args)
        finally:
            drawing[0] = False

    monkeypatch.setattr(geometry.ClosedSet, "member", counted)
    monkeypatch.setattr(analysis, "_draw_initial", flagged)
    chunked = check_attractivity(fx.system, fx.gammas["gamma1"], query)
    n_chunked, calls[0] = calls[0], 0
    monkeypatch.setattr(analysis, "solve_batch", _per_draw)
    sequential = check_attractivity(fx.system, fx.gammas["gamma1"], query)
    assert chunked.to_json_dict() == sequential.to_json_dict()
    assert chunked.measured["n_total"] == 64
    assert n_chunked > 0
    assert 8 * n_chunked <= calls[0]


# -- bundles run side by side ---------------------------------------------------


def _on_cpus(monkeypatch, n: int) -> None:
    """The process may use ``n`` CPUs, as far as a bundle or a campaign can
    tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_children() -> None:
    """No child process of this one is left, running or unreaped; forked
    workers are not multiprocessing's, so its own view is not enough."""
    assert not multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _small_bundle(cat, name: str, **kw):
    """A small catalog bundle, with ``kw`` added to its query."""
    if name == "reduction-local":  # the local attractivity parts are falsified
        fx = cat["settle-line"]
        q = q_for(fx, sample_budget=3, eps_grid=(0.5,), delta_shrinks=2,
                  solver=SolverConfig(t_max=10.0), **kw)
        return reduction_report(fx.system, fx.gammas["origin"], fx.gammas["gamma2"], q,
                                scope="local")
    if name == "reduction-global":
        fx = cat["sigma-bump"]
        q = q_for(fx, sample_budget=4, eps_grid=(0.25, 0.5), delta_shrinks=2,
                  solver=SolverConfig(t_max=10.0), **kw)
        return reduction_report(fx.system, fx.gammas["gamma1"], fx.gammas["gamma2"], q,
                                scope="global")
    if name == "chain":
        fx = cat["circles"]
        q = q_for(fx, sample_budget=3, eps_grid=(0.5,), delta_shrinks=1,
                  solver=SolverConfig(t_max=10.0), **kw)
        return recursive_reduction_report(
            fx.system, [fx.gammas["gamma1"], fx.gammas["gamma2"]], q, scope="global")
    fx = cat["limit-circles"]
    q = q_for(fx, sample_budget=4, eps_grid=(0.5,), delta_shrinks=2,
              solver=SolverConfig(t_max=20.0), **kw)
    return detectability_report(with_output(fx.system, fx.output), fx.gammas["gamma1"],
                                fx.gammas["gamma2"], q)


def _report_bytes(rep) -> tuple[str, dict]:
    """A bundle's report JSON and the CSV of each witness arc."""
    witnesses = {(section, k): r.witness.to_csv()
                 for section in ("sub_reports", "conclusions")
                 for k, r in getattr(rep, section).items() if r.witness is not None}
    return json.dumps(rep.to_json_dict()), witnesses


@pytest.mark.parametrize("name", ["reduction-local", "reduction-global", "chain",
                                  "detectability"])
def test_a_bundle_in_a_pool_reports_the_bytes_it_reports_inline(cat, name, monkeypatch,
                                                                 tmp_path):
    # each campaign records the process it ran in, so that the pooled run is
    # seen to have run checks outside this one
    pids = tmp_path / "pids"
    campaign = analysis._campaign

    def recorded(*args, **kw):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return campaign(*args, **kw)

    monkeypatch.setattr(analysis, "_campaign", recorded)
    runs = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        pids.write_text("")
        rep = _small_bundle(cat, name)
        runs[cpus] = _report_bytes(rep), set(pids.read_text().split())
    (pooled, pooled_pids), (inline, inline_pids) = runs[2], runs[1]
    assert_same_text(pooled[0], inline[0])
    assert pooled[1].keys() == inline[1].keys() and pooled[1]  # a witness, at least
    for key, text in pooled[1].items():
        assert_same_text(text, inline[1][key])
    assert inline_pids == {str(os.getpid())}
    assert pooled_pids - inline_pids
    _assert_no_children()


@pytest.mark.parametrize("name", ["chain", "detectability"])
def test_a_bundle_with_an_arc_hook_hands_it_every_arc_in_this_process(cat, name,
                                                                      monkeypatch):
    # the hook is a callback into this process, so a hooked bundle runs inline
    # even where it could run side by side
    x0s = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        seen: list = []
        _small_bundle(cat, name, arc_hook=lambda sys, arc: seen.append(arc.meta["x0"]))
        x0s[cpus] = seen
    assert x0s[2] and x0s[2] == x0s[1]


def test_a_pooled_bundle_raises_the_error_of_its_first_declared_failing_check(monkeypatch):
    # no draw of the window lands in C: the relative attractivity (on the
    # restriction to R^n) is the first declared check to raise, though the
    # conclusion's attractivity is dispatched before it and raises as well
    sys = HybridSystem(2, _UNIT_BOX, lambda x: -x, empty_set(2), lambda x: x,
                       name="unit-box-decay")
    q = PropertyQuery(solver=SolverConfig(t_max=2.0), sample_budget=4, seed=3,
                      window=_MISSES_C)
    errors = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(ConfigError, match="drew no initial condition") as info:
            reduction_report(sys, point_set([0.0, 0.0]), full_space(2), q, scope="global")
        errors[cpus] = (type(info.value), str(info.value))
        _assert_no_children()
    assert errors[2] == errors[1]
    assert "'unit-box-decay|R^n'" in errors[2][1]


def test_a_pooled_reduction_bundle_starts_its_conclusion_checks_first(cat, monkeypatch,
                                                                      tmp_path):
    # conclusion stability is the longest check of the chain report measured;
    # each campaign records its query's seed as it starts
    seeds = tmp_path / "seeds"
    campaign = analysis._campaign

    def recorded(sys, query, *args, **kw):
        with open(seeds, "a") as f:
            f.write(f"{query.seed}\n")
        return campaign(sys, query, *args, **kw)

    monkeypatch.setattr(analysis, "_campaign", recorded)
    _on_cpus(monkeypatch, 2)
    fx = cat["sigma-bump"]
    q = q_for(fx, sample_budget=4, eps_grid=(0.25, 0.5), delta_shrinks=2,
              solver=SolverConfig(t_max=10.0))
    reduction_report(fx.system, fx.gammas["gamma1"], fx.gammas["gamma2"], q, scope="global")
    # each check's seed where its first campaign starts; a check may run several
    started = list(dict.fromkeys(seeds.read_text().split()))
    assert set(started[:2]) == {str(q.child("conc-s").seed), str(q.child("conc-a").seed)}
    assert len(started) > 2
    _assert_no_children()


# -- campaigns judged in forked workers ------------------------------------------


def test_fork_map_yields_each_result_in_index_order_from_a_worker_of_its_own(monkeypatch):
    _on_cpus(monkeypatch, 2)

    def task(i):
        if i == 3 and analysis._in_worker:
            raise ValueError("raised in a worker only")
        return i, os.getpid(), analysis._pool_size(False)

    got = list(analysis._fork_map(task, 6, 2))
    assert [g[0] for g in got] == list(range(6))
    assert got[3][1:] == (os.getpid(), 2)  # its worker failed: computed in this process
    forked = got[:3] + got[4:]
    pids = {g[1] for g in forked}
    assert len(pids) == 5 and os.getpid() not in pids
    assert {g[2] for g in forked} == {1}  # a worker's own pools run inline
    assert analysis._pool_size(False) == 2
    # nothing forked: each result is computed in this process
    assert list(analysis._fork_map(task, 2, 1)) == [(0, os.getpid(), 2), (1, os.getpid(), 2)]
    _assert_no_children()


@pytest.mark.parametrize("workers", [2, 1])
def test_fork_map_raises_a_task_error_after_the_results_before_it(workers):
    def task(i):
        if i == 2:
            raise ValueError("task 2 raised")
        return i

    got = []
    with pytest.raises(ValueError, match="task 2 raised"):
        for result in analysis._fork_map(task, 5, workers):
            got.append(result)
    assert got == [0, 1]
    _assert_no_children()


def test_fork_map_starts_the_first_indices_before_the_rest(tmp_path):
    started = tmp_path / "started"

    def task(i):
        with open(started, "a") as f:
            f.write(f"{i}\n")
        return i

    assert list(analysis._fork_map(task, 5, 2, first=range(3, 5))) == list(range(5))
    lines = started.read_text().split()
    assert sorted(lines) == ["0", "1", "2", "3", "4"] and set(lines[:2]) == {"3", "4"}
    _assert_no_children()


def test_fork_map_kills_the_workers_left_when_its_consumer_stops():
    start = time.perf_counter()
    for got in analysis._fork_map(lambda i: time.sleep(60) if i else "first", 4, 2):
        assert got == "first"
        break
    _assert_no_children()
    assert time.perf_counter() - start < 30


def _recording_pids(monkeypatch, path: Path) -> Callable:
    """Records the process each campaign range is solved in, in ``path``;
    returns the set of pids recorded since it was last called."""
    solved = analysis._solved_draws

    def recorded(*args):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return solved(*args)

    monkeypatch.setattr(analysis, "_solved_draws", recorded)
    path.write_text("")

    def taken() -> set[str]:
        pids = set(path.read_text().split())
        path.write_text("")
        return pids

    return taken


@pytest.mark.parametrize("check", ["attractivity", "stability"])
def test_a_pooled_campaign_reports_the_bytes_of_one_cpu(cat, check, monkeypatch, tmp_path):
    # at the smallest pooled budget the draws are judged in forked workers, at
    # one CPU in this process; the report and the witness arc are byte for byte equal
    fx = cat["circles"]
    query = q_for(fx, sample_budget=_SMALLEST_POOLED_BUDGET, seed=0,
                  solver=SolverConfig(t_max=10.0))
    run = {"attractivity": check_attractivity, "stability": check_stability}[check]
    taken = _recording_pids(monkeypatch, tmp_path / "pids")
    runs = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        rep = run(fx.system, fx.gammas["gamma1"], query)
        runs[cpus] = (json.dumps(rep.to_json_dict()),
                      rep.witness.to_csv() if rep.witness is not None else None, taken())
        _assert_no_children()
    (pooled, pooled_witness, pooled_pids), (inline, inline_witness, inline_pids) = \
        runs[2], runs[1]
    assert_same_text(pooled, inline)
    assert (pooled_witness is None) == (check == "attractivity")
    if check == "stability":
        assert_same_text(pooled_witness, inline_witness)
    assert inline_pids == {str(os.getpid())}
    assert str(os.getpid()) not in pooled_pids and pooled_pids


@pytest.mark.parametrize("x0,first", [
    ({13: 2.0, 40: 2.0}, 13),  # inside the first range, and in the second
    ({8: 2.0, 9: 5.0}, 8),     # a raise right after it, in its chunk, discarded
    ({13: 2.0, 60: 5.0}, 13),  # a later range raises, and is cancelled or discarded
])
def test_a_pooled_campaign_stops_at_the_first_violation_of_one_cpu(monkeypatch, x0, first):
    campaign = _indexed_decay(monkeypatch, x0)
    runs = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        run = campaign()
        runs[cpus] = (run.n_total, run.n_vacuous, run.clause, run.margins,
                      run.witness.to_csv())
        _assert_no_children()
    assert runs[2] == runs[1]
    assert runs[2][0] == first + 1 and runs[2][2]["x0"] == [2.0]


@pytest.mark.parametrize("x0", [
    {21: 5.0},            # a range raises, none before it violates
    {21: 5.0, 40: 2.0},   # it raises before a later range's violation
    {22: 2.0, 21: 5.0},   # it raises before its own violation
])
def test_a_pooled_range_that_raises_raises_at_its_own_draw(monkeypatch, x0):
    campaign = _indexed_decay(monkeypatch, x0)
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(DimensionMismatch, match="its own draw"):
            campaign()
        _assert_no_children()
    # the error surfaces once the draws before it are judged, and no later
    hooked: list = []
    with pytest.raises(DimensionMismatch):
        campaign(arc_hook=lambda sys, arc: hooked.append(arc.meta["x0"][0]))
    assert hooked == [0.5] * 21


@pytest.mark.parametrize("budget,ranges", [
    (63, (1, 1, 1, 1)),    # fewer than two ranges of two full chunks: inline
    (64, (1, 2, 2, 2)),
    (100, (1, 2, 3, 3)),
    (130, (1, 2, 3, 4)),
])
@pytest.mark.parametrize("violated", [False, True])
def test_a_campaign_takes_one_range_per_cpu_of_two_full_chunks_at_least(
        monkeypatch, tmp_path, budget, ranges, violated):
    # ``ranges`` at 1, 2, 3 and 4 CPUs, counted by the processes the ranges
    # are judged in; a draw of index i starts at 0.5, bar one inside the last
    # range at every CPU count, which leaves the bound radius
    sys = HybridSystem(1, full_space(1), lambda x: -x, empty_set(1), lambda x: x, name="decay")
    monkeypatch.setattr(analysis, "_rng", lambda seed, *ctx: ctx[-1])
    monkeypatch.setattr(analysis, "_draw_initial", lambda sys, i, *a: np.array(
        [2.0 if violated and i == budget - 2 else 0.5]))
    query = PropertyQuery(solver=SolverConfig(t_max=2.0, max_step=1.0), sample_budget=budget,
                          bound_radius=1.0)
    taken = _recording_pids(monkeypatch, tmp_path / "pids")
    runs = []
    for cpus, n in zip((1, 2, 3, 4), ranges):
        _on_cpus(monkeypatch, cpus)
        rep = check_boundedness(sys, query)
        runs.append((json.dumps(rep.to_json_dict()),
                     rep.witness.to_csv() if rep.witness is not None else None))
        pids = taken()
        _assert_no_children()
        assert len(pids) == n and (str(os.getpid()) in pids) == (n == 1), cpus
    assert all(run == runs[0] for run in runs)
    assert (runs[0][1] is not None) == violated
    assert json.loads(runs[0][0])["measured"]["n_total"] == (budget - 1 if violated else budget)


def test_a_hooked_campaign_runs_inline_and_hands_its_hook_every_x0(cat, monkeypatch,
                                                                   tmp_path):
    fx = cat["circles"]
    taken = _recording_pids(monkeypatch, tmp_path / "pids")
    x0s = {}
    for cpus in (2, 1):
        _on_cpus(monkeypatch, cpus)
        seen: list = []
        query = q_for(fx, sample_budget=_SMALLEST_POOLED_BUDGET, seed=0,
                      solver=SolverConfig(t_max=10.0),
                      arc_hook=lambda sys, arc: seen.append(arc.meta["x0"]))
        check_attractivity(fx.system, fx.gammas["gamma1"], query)
        x0s[cpus] = seen
        assert taken() == {str(os.getpid())}
    assert len(x0s[2]) == _SMALLEST_POOLED_BUDGET and x0s[2] == x0s[1]


def test_a_pooled_analyze_leaves_multiprocessing_and_concurrent_futures_unimported(tmp_path):
    # the workers are forked by hand: the two packages would add about 1 MB
    # to the process, and ``select`` is loaded when a pool first forks
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    argv = ["analyze", *_CIRCLES, "--check", "attractivity", "--budget", "64", "--tmax", "10",
            "--out", str(tmp_path / "out")]
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from hybridkit import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, 'select' in sys.modules, "
            "'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "0 True False False"


def test_importing_the_cli_and_building_the_catalog_leaves_multiprocessing_unimported():
    # no command imports it: its workers are forked by hand
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    code = ("import sys, hybridkit.cli, hybridkit.systems as s; s.catalog(); "
            "print('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"
