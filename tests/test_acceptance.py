"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7 (semantics
closure) audits every arc the other criteria produced, so the module is meant
to run as a whole and in order.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import assert_same_text

from hybridkit.analysis import (
    CONSISTENT,
    FALSIFIED,
    PropertyQuery,
    check_attractivity,
    check_stability,
    detectability_report,
    recursive_reduction_report,
    reduction_report,
    replay_clause,
)
from hybridkit.composition import restrict, with_output
from hybridkit.core import check_is_solution
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import (
    CHI,
    CHIHAT,
    T_IDX,
    ObserverParams,
    estimator_diagnostics,
)

OM = 1.5
PERIOD = 2.0 * math.pi / OM
CHECK_TOL = 1e-3

_audit = {"checked": 0, "bad": [], "kept": []}


def _register(sys, arc, label="", keep=False):
    violations = check_is_solution(sys, arc, CHECK_TOL)
    _audit["checked"] += 1
    if violations:
        _audit["bad"].append((label or sys.name, violations[:3]))
    if keep:
        _audit["kept"].append((label or sys.name, sys, arc))


def _hook(label):
    return lambda sys, arc: _register(sys, arc, label)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_reference_trajectory(cat, obs_params):
    start = time.time()
    fx = cat["observer"]
    cfg = SolverConfig(**fx.solver_overrides)
    arc = solve(fx.system, fx.presets["fig3"], cfg)
    _register(fx.system, arc, "criterion1-fig3", keep=True)
    d = estimator_diagnostics(arc, obs_params)

    t1_oracle = math.acos(-0.125) / OM
    err_t1 = abs(d.jump_times[0] - t1_oracle)
    assert err_t1 < 1e-6, f"first jump off by {err_t1:.2e}"

    tau_err = float(np.max(np.abs(d.tau_at_jumps[1:] - math.pi / OM)))
    assert tau_err < 2 * cfg.event_tol, f"timer error {tau_err:.2e}"

    eta2 = np.abs(d.eta2_after_jumps)
    settled = np.flatnonzero(eta2 < 1e-3)
    assert settled.size and settled[0] + 1 <= 15, "period estimate too slow"
    assert np.all(eta2[settled[0]:] < 1e-3)

    eta1_end = float(np.linalg.norm(arc.final_state()[CHI]
                                    - arc.final_state()[CHIHAT]))
    assert eta1_end < 1e-2, f"state estimate error {eta1_end:.2e} at t=30"

    elapsed = time.time() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(1, True,
            f"first jump err {err_t1:.1e}, timer err {tau_err:.1e}, "
            f"|T-period|<1e-3 after {settled[0] + 1} jumps, "
            f"terminal estimate err {eta1_end:.1e}, {elapsed:.2f}s")


def test_criterion_2_jump_contraction(cat, obs_params):
    start = time.time()
    fx = cat["observer"]
    p = obs_params
    cfg = SolverConfig(t_max=30.0)
    gen = np.random.default_rng(20240815)
    x0s = fx.system.state_sampler(gen, 50)
    worst = 0.0
    informative = 0
    for i, x0 in enumerate(x0s):
        arc = solve(fx.system, x0, cfg)
        _register(fx.system, arc, f"criterion2-{i}")
        d = estimator_diagnostics(arc, p)
        e = d.eta2_after_jumps
        if e.size >= 3:
            informative += 1
            gaps = np.abs(e[2:] - p.lam * e[1:-1])
            worst = max(worst, float(np.max(gaps)))
    assert informative >= 25, f"only {informative} runs reached 3 jumps"
    assert worst < 1e-6, f"contraction violated by {worst:.2e}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(2, True,
            f"50 runs ({informative} with >=3 jumps), max |eta2(k+1) - "
            f"lam*eta2(k)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_toggle_system_dichotomy(cat):
    start = time.time()
    fx = cat["circles"]
    g1 = fx.gammas["gamma1"]
    scfg = SolverConfig(t_max=25.0, store_max_dt=0.01)
    attract = check_attractivity(
        fx.system, g1,
        PropertyQuery(sample_budget=500, window=fx.window, seed=31, solver=scfg,
                      arc_hook=_hook("criterion3-attract")))
    stab = check_stability(
        fx.system, g1,
        PropertyQuery(sample_budget=25, window=fx.window, seed=31, solver=scfg,
                      arc_hook=_hook("criterion3-stab")))
    assert attract.verdict == CONSISTENT, "attractivity should hold at budget"
    assert stab.verdict == FALSIFIED, "stability should be falsified"
    _audit["kept"].append(("criterion3-witness", fx.system, stab.witness))
    assert check_is_solution(fx.system, stab.witness, CHECK_TOL) == []
    assert replay_clause(stab.witness, stab.witness_clause, g1)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(3, True,
            f"attractivity consistent at budget 500, stability falsified with "
            f"replayable witness (sup {stab.witness_clause['sup_distance']:.3f}),"
            f" {elapsed:.1f}s")


def test_criterion_4_attractivity_counterexample(cat):
    fx = cat["limit-circles"]
    g1, g2 = fx.gammas["gamma1"], fx.gammas["gamma2"]
    full = check_attractivity(
        fx.system, g1,
        PropertyQuery(sample_budget=25, window=fx.window, seed=11,
                      solver=SolverConfig(t_max=60.0, store_max_dt=0.004),
                      arc_hook=_hook("criterion4-full")))
    assert full.verdict == FALSIFIED
    td = full.witness_clause["terminal_distance"]
    assert td > 0.1, f"witness terminal distance {td:.3f} not above 0.1"
    assert full.witness_clause["x0"][2] != 0.0
    _audit["kept"].append(("criterion4-witness", fx.system, full.witness))

    rsys = restrict(fx.system, g2)
    rel = check_attractivity(
        rsys, g1,
        PropertyQuery(sample_budget=30, conv_tol=0.05, window=fx.window, seed=5,
                      solver=SolverConfig(t_max=3000.0, store_max_dt=0.05,
                                          max_step=5.0),
                      sampler=lambda rng, n: g2.project(
                          fx.window.uniform(rng, n)),
                      arc_hook=_hook("criterion4-rel")))
    assert rel.verdict == CONSISTENT, rel.witness_clause
    _report(4, True,
            f"full attractivity falsified (terminal distance {td:.3f} > 0.1, "
            f"x3(0) = {full.witness_clause['x0'][2]:.3f}), relative "
            f"attractivity within the invariant plane consistent at budget 30")


def test_criterion_5_theorem_soundness_guard(cat, obs_params):
    reports = []

    fx = cat["settle-line"]
    reports.append(reduction_report(
        fx.system, fx.gammas["origin"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=8, near_radius=1.0,
                      solver=SolverConfig(t_max=40.0),
                      window=fx.window, seed=71, arc_hook=_hook("c5-settle")),
        scope="local"))

    fx = cat["drift-line"]
    reports.append(reduction_report(
        fx.system, fx.gammas["origin"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=8, near_radius=1.0,
                      solver=SolverConfig(t_max=50.0),
                      window=fx.window, seed=72, arc_hook=_hook("c5-drift")),
        scope="local"))

    fx = cat["sigma-bump"]
    reports.append(reduction_report(
        fx.system, fx.gammas["origin"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=8, near_radius=1.0,
                      solver=SolverConfig(t_max=50.0),
                      window=fx.window, seed=73, arc_hook=_hook("c5-bump")),
        scope="local"))

    fx = cat["circles"]
    reports.append(recursive_reduction_report(
        fx.system, [fx.gammas["gamma1"], fx.gammas["gamma2"]],
        PropertyQuery(sample_budget=8, window=fx.window, seed=74,
                      solver=SolverConfig(t_max=25.0, store_max_dt=0.01),
                      arc_hook=_hook("c5-circles")),
        scope="global"))
    reports.append(detectability_report(
        with_output(fx.system, lambda x: np.array([x[0]])),
        fx.gammas["gamma1"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=8, window=fx.window, seed=75,
                      solver=SolverConfig(t_max=25.0, store_max_dt=0.01),
                      arc_hook=_hook("c5-circles-det"))))

    fx = cat["limit-circles"]
    reports.append(reduction_report(
        fx.system, fx.gammas["gamma1"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=10, conv_tol=0.05, window=fx.window, seed=76,
                      solver=SolverConfig(t_max=600.0, store_max_dt=0.05),
                      arc_hook=_hook("c5-limit")),
        scope="global"))
    reports.append(detectability_report(
        with_output(fx.system, lambda x: np.array([x[2]])),
        fx.gammas["gamma1"], fx.gammas["gamma2"],
        PropertyQuery(sample_budget=10, conv_tol=0.05, window=fx.window, seed=77,
                      solver=SolverConfig(t_max=600.0, store_max_dt=0.05),
                      arc_hook=_hook("c5-limit-det"))))

    fx = cat["observer"]
    reports.append(recursive_reduction_report(
        fx.system,
        [fx.gammas["gamma1"], fx.gammas["gamma2"], fx.gammas["gamma3"]],
        PropertyQuery(eps_grid=(0.25, 1.0),
                      sample_budget=6, conv_tol=1e-3,
                      delta_shrinks=3, window=fx.window, seed=78,
                      solver=SolverConfig(t_max=35.0, store_max_dt=0.02),
                      arc_hook=_hook("c5-observer")),
        scope="global"))

    unsound = [t.name for rep in reports for t in rep.theorems if not t.sound]
    assert not unsound, f"soundness violations: {unsound}"
    n_theorems = sum(len(rep.theorems) for rep in reports)
    _report(5, True,
            f"{len(reports)} reduction/detectability reports, {n_theorems} "
            f"theorem bundles, zero soundness violations")


def test_criterion_5b_observer_chain_conclusions(cat):
    # the reference chain must also be consistent end to end, not just sound
    fx = cat["observer"]
    rep = recursive_reduction_report(
        fx.system,
        [fx.gammas["gamma1"], fx.gammas["gamma2"], fx.gammas["gamma3"]],
        PropertyQuery(eps_grid=(0.25, 1.0),
                      sample_budget=6, conv_tol=1e-3,
                      delta_shrinks=3, window=fx.window, seed=42,
                      solver=SolverConfig(t_max=35.0, store_max_dt=0.02),
                      arc_hook=_hook("c5b-observer")),
        scope="global")
    assert rep.all_consistent and rep.sound
    _report("5b", True, "observer chain consistent end to end and sound")


def test_criterion_6_solver_oracles(cat):
    from hybridkit.core import HybridSystem
    from hybridkit.geometry import empty_set, full_space

    # LTI flow vs closed form over [0, 10]
    a = np.array([[-1.0, 1.0], [0.0, -1.0]])
    lti = HybridSystem(2, full_space(2), lambda x: a @ x, empty_set(2),
                       lambda x: x, name="lti")
    arc = solve(lti, [1.0, 1.0], SolverConfig(t_max=10.0))
    _register(lti, arc, "criterion6-lti", keep=True)
    worst = max(float(np.linalg.norm(
        x - np.array([math.exp(-t) * (1 + t), math.exp(-t)])))
        for t, j, x in zip(*arc.table()))
    assert worst < 1e-6, f"LTI deviation {worst:.2e}"

    # rotation preserves the amplitude
    rot = HybridSystem(2, full_space(2),
                       lambda x: np.array([-OM * x[1], OM * x[0]]),
                       empty_set(2), lambda x: x, name="rotation")
    arc_r = solve(rot, [2.0, 0.0], SolverConfig(t_max=10.0))
    _register(rot, arc_r, "criterion6-rotation", keep=True)
    drift = float(np.max(np.abs(
        np.linalg.norm(arc_r.table()[2], axis=1) - 2.0)))
    assert drift < 1e-6, f"amplitude drift {drift:.2e}"

    # halving jumps are applied exactly
    fx = cat["circles"]
    arc_c = solve(fx.system, [1.0, 0.0, 1.0, 1.0],
                  SolverConfig(t_max=10.0, store_max_dt=0.01))
    _register(fx.system, arc_c, "criterion6-circles", keep=True)
    for t, j, pre, post in arc_c.jump_transitions():
        assert post[2] == pre[2] / 2.0

    # byte-for-byte determinism across reruns
    again = solve(fx.system, [1.0, 0.0, 1.0, 1.0],
                  SolverConfig(t_max=10.0, store_max_dt=0.01))
    assert_same_text(again.to_csv(), arc_c.to_csv())
    _report(6, True,
            f"LTI error {worst:.1e}, amplitude drift {drift:.1e}, halving "
            f"exact, reruns byte-identical")


def test_criterion_7_semantics_closure():
    if _audit["checked"] == 0:  # isolated invocation: audit at least fig3
        from hybridkit.systems import catalog

        fx = catalog()["observer"]
        arc = solve(fx.system, fx.presets["fig3"],
                    SolverConfig(**fx.solver_overrides))
        _register(fx.system, arc, "closure-fallback", keep=True)
    for label, sys, arc in _audit["kept"]:
        assert check_is_solution(sys, arc, CHECK_TOL) == [], label
    assert not _audit["bad"], f"checker violations: {_audit['bad'][:3]}"
    _report(7, True,
            f"{_audit['checked']} arcs re-validated at tol 1e-3, zero "
            f"violations")


def test_criterion_8_restriction_agreement(cat):
    fx = cat["sigma-bump"]
    g1 = fx.gammas["origin"]
    g2 = fx.gammas["gamma2"]
    q = PropertyQuery(sample_budget=12, solver=SolverConfig(t_max=50.0),
                      window=fx.window, seed=88, arc_hook=_hook("c8"))
    full = check_stability(fx.system, g1, q)
    restricted = check_stability(restrict(fx.system, g2), g1, q,
                                 project=g2.project)
    assert full.verdict == restricted.verdict == CONSISTENT
    _report(8, True,
            f"stability verdicts agree across restriction at equal "
            f"seed/budget: {full.verdict}")
