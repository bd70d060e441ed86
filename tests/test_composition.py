"""Restriction, cascades, and output attachment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm
from conftest import assert_same_text

from hybridkit.composition import (
    CascadeSpec,
    build_cascade,
    restrict,
    subsystem_h1,
    subsystem_h2,
    with_output,
)
from hybridkit.core import HybridSystem, Termination, check_is_solution
from hybridkit.errors import InitialConditionOutsideCD
from hybridkit.geometry import (
    box_set,
    coords_set,
    empty_set,
    full_space,
    point_set,
)
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import CHI, CHIHAT


def test_restrict_to_full_space_preserves_arcs(cat):
    fx = cat["circles"]
    r = restrict(fx.system, full_space(4))
    cfg = SolverConfig(t_max=6.0)
    x0 = [1.0, 0.1, 0.5, 1.0]
    assert_same_text(solve(r, x0, cfg).to_csv(), solve(fx.system, x0, cfg).to_csv())


def test_restriction_idempotence(cat):
    fx = cat["circles"]
    g2 = fx.gammas["gamma2"]
    once = restrict(fx.system, g2)
    twice = restrict(once, g2)
    cfg = SolverConfig(t_max=4.0)
    x0 = [0.0, 0.4, 0.5, 1.0]
    assert_same_text(solve(once, x0, cfg).to_csv(), solve(twice, x0, cfg).to_csv())


def test_restriction_to_disjoint_set_has_no_solutions(cat):
    fx = cat["circles"]
    far = point_set([9.0, 9.0, 9.0, 9.0])
    r = restrict(fx.system, far)
    gen = np.random.default_rng(3)
    for x0 in fx.system.state_sampler(gen, 10):
        with pytest.raises(InitialConditionOutsideCD):
            solve(r, x0, SolverConfig(t_max=1.0))


def test_restricted_arcs_solve_the_full_system(cat):
    # solution inclusion: arcs of H|_Gamma are solutions of H
    fx = cat["circles"]
    r = restrict(fx.system, fx.gammas["gamma2"])
    arc = solve(r, [0.0, 0.4, 0.5, 1.0], SolverConfig(t_max=4.0))
    assert arc.termination is Termination.ZENO
    assert check_is_solution(fx.system, arc, 1e-3) == []

    obs = cat["observer"]
    r3 = restrict(obs.system, obs.gammas["gamma3"])
    gen = np.random.default_rng(5)
    x0 = obs.gammas["gamma3"].sample(gen, 1)[0]
    arc = solve(r3, x0, SolverConfig(t_max=12.0, store_max_dt=0.02))
    assert check_is_solution(obs.system, arc, 1e-3) == []


def test_restricted_observer_error_matches_matrix_exponential(cat, obs_params):
    # on the correct-period set the estimation error flows linearly with a
    # double eigenvalue at -omega; compare against the matrix exponential and
    # the (1+t) envelope
    p = obs_params
    fx = cat["observer"]
    g2 = fx.gammas["gamma2"]
    rsys = restrict(fx.system, g2)
    gen = np.random.default_rng(11)
    x0 = g2.sample(gen, 1)[0]
    x0[CHIHAT] = x0[CHI] + np.array([0.8, -0.5])
    arc = solve(rsys, x0, SolverConfig(t_max=8.0, store_max_dt=0.02))
    om = p.omega
    a = np.array([[-2 * om, -om], [om, 0.0]])
    eta0 = x0[CHIHAT] - x0[CHI]
    t0 = None
    for t, j, x in arc.samples():
        eta = x[CHIHAT] - x[CHI]
        exact = expm(a * t) @ eta0
        assert np.linalg.norm(eta - exact) < 1e-5
        assert np.linalg.norm(eta) <= 3.0 * (1 + t) * math.exp(-om * t) * \
            np.linalg.norm(eta0) + 1e-12


def _lti_cascade_spec():
    return CascadeSpec(
        n1=1, n2=1,
        f1=lambda x1, x2: -x1 + x2,
        f2=lambda x2: -x2,
        g1=lambda x1, x2: x1,
        g2=lambda x2: x2,
        c1=full_space(1), c2=full_space(1),
        d1=empty_set(1), d2=empty_set(1),
        name="lti-cascade",
    )


def test_cascade_ex1_solutions_are_single_points(cat):
    fx = cat["cascade-ex1"]
    for x2 in (-1.0, 0.0, 0.7):
        arc = solve(fx.system, [1.0, x2], SolverConfig(t_max=5.0))
        assert arc.termination is Termination.NOT_EXTENDABLE
        assert arc.final_time()[0] < 1e-6
        assert np.allclose(arc.final_state(), [1.0, x2], atol=1e-6)


def test_trivial_cascade_freezes_zero_block():
    spec = CascadeSpec(
        n1=1, n2=1,
        f1=lambda x1, x2: -x1,
        f2=lambda x2: 0.0 * x2,
        g1=lambda x1, x2: x1,
        g2=lambda x2: x2,
        c1=full_space(1), c2=coords_set(1, {0: ("interval", 0.0, 0.0)}),
        d1=empty_set(1), d2=empty_set(1),
    )
    casc = build_cascade(spec)
    arc = solve(casc, [1.0, 0.0], SolverConfig(t_max=3.0))
    h1 = solve(subsystem_h1(spec), [1.0], SolverConfig(t_max=3.0))
    assert arc.termination is Termination.COMPLETE_T
    assert np.max(np.abs(arc.all_states()[:, 1])) < 1e-9
    assert abs(arc.final_state()[0] - h1.final_state()[0]) < 1e-8


def test_lti_cascade_matches_variation_of_constants():
    casc = build_cascade(_lti_cascade_spec())
    arc = solve(casc, [1.0, 1.0], SolverConfig(t_max=6.0))
    for t, j, x in arc.samples():
        exact = np.array([math.exp(-t) * (1.0 + t), math.exp(-t)])
        assert np.linalg.norm(x - exact) < 1e-6


def test_subsystem_h1_freezes_driver():
    spec = _lti_cascade_spec()
    h1 = subsystem_h1(spec)
    for v in np.linspace(-2, 2, 9):
        assert h1.flow_map(np.array([v])) == pytest.approx(-v)


def test_cascade_projection_property():
    # driver started at its equilibrium: the driven track equals the
    # frozen-driver subsystem from the same initial condition
    spec = _lti_cascade_spec()
    casc = build_cascade(spec)
    cfg = SolverConfig(t_max=5.0, store_max_dt=0.02)
    full = solve(casc, [2.0, 0.0], cfg)
    sub = solve(subsystem_h1(spec), [2.0], cfg)
    # adaptive steps differ between the two solves; compare each track against
    # the shared closed form at its own sample times
    assert np.allclose(full.states[0][:, 0],
                       2.0 * np.exp(-full.times[0]), atol=1e-7)
    assert np.allclose(sub.states[0][:, 0],
                       2.0 * np.exp(-sub.times[0]), atol=1e-7)
    assert abs(full.final_state()[0] - sub.final_state()[0]) < 1e-7


def test_subsystem_h2_of_growth_cascade_is_unstable(cat):
    # the driver block grows exponentially even though the cascade's origin is
    # vacuously asymptotically stable
    from hybridkit.systems import _cascade_ex1_spec

    h2 = subsystem_h2(_cascade_ex1_spec())
    arc = solve(h2, [0.1], SolverConfig(t_max=10.0))
    assert arc.final_state()[0] > 100.0


def test_circles_output_converges(cat):
    fx = cat["circles"]
    osys = with_output(fx.system, lambda x: np.array([x[0]]))
    arc = solve(fx.system, [1.0, 0.3, 0.8, 1.0], SolverConfig(t_max=15.0))
    assert arc.termination is Termination.ZENO
    assert abs(float(osys.output(arc.final_state())[0])) < 1e-9
