"""Fixture catalog: observer construction and oracles, target sets, selector
and residual functions, bump function, per-fixture smoke runs."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from hybridkit.core import Termination, check_is_solution
from hybridkit.errors import InvalidParams, UndefinedAtPoint
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import (
    CHI,
    CHIHAT,
    Q_IDX,
    T_IDX,
    TAU_IDX,
    ObserverParams,
    build_observer,
    estimator_diagnostics,
    gamma_sets,
    h_frak,
    rho,
    smoothstep_bump,
)

OM = 1.5
PERIOD = 2 * math.pi / OM


def test_observer_params_validation():
    ObserverParams()
    with pytest.raises(InvalidParams):
        ObserverParams(omega=0.5)          # below omega_m
    with pytest.raises(InvalidParams):
        ObserverParams(sigma=1.5)          # not below chi_m
    with pytest.raises(InvalidParams):
        ObserverParams(lam=1.0)
    for bad in ({"chi_M": math.inf}, {"omega_M": math.inf}, {"lam": math.nan}):
        with pytest.raises(InvalidParams, match="must be finite"):
            ObserverParams(**bad)
    for bad in ({"chi_M": True}, {"lam": False}, {"omega": "1.5"}):
        with pytest.raises(InvalidParams, match=f"{next(iter(bad))} must be a real number"):
            ObserverParams(**bad)
    p = ObserverParams()
    assert p.t_min < PERIOD < p.t_max_period


def test_selector_cases():
    assert h_frak([1.0, 0.0], 0.25) == -1.0      # chi1 >= sigma
    assert h_frak([0.0, 1.0], 0.25) == -1.0      # strip, chi2 > 0
    assert h_frak([-1.0, -1.0], 0.25) == 1.0     # chi1 <= -sigma
    assert h_frak([-0.1, -0.5], 0.25) == 1.0     # strip, chi2 < 0
    with pytest.raises(UndefinedAtPoint):
        h_frak([0.1, 0.0], 0.25)


def test_residual_at_locked_timer():
    p = ObserverParams()
    # tau = pi/omega makes the rotation the identity
    val = rho(np.array([2.0, 0.0]), math.pi / OM, p)
    assert val == pytest.approx(2.0 - (-1.0) * 0.25)  # 2.25


def test_residual_constant_along_flow(cat, obs_params):
    fx = cat["observer"]
    arc = solve(fx.system, fx.presets["fig3"], SolverConfig(**fx.solver_overrides))
    d = estimator_diagnostics(arc, obs_params)
    # finite differences of the residual on every flow interval
    for j, (t, x) in enumerate(zip(arc.times, arc.states)):
        mask = d.j == j
        r = d.rho[mask]
        if r.size > 2:
            assert np.max(np.abs(np.diff(r))) < 1e-6


def test_residual_zero_after_second_jump(cat, obs_params):
    fx = cat["observer"]
    arc = solve(fx.system, fx.presets["fig3"], SolverConfig(**fx.solver_overrides))
    d = estimator_diagnostics(arc, obs_params)
    late = d.rho[d.j >= 2]
    assert np.max(np.abs(late)) < 1e-6


def test_gamma_nesting(cat):
    fx = cat["observer"]
    g1, g2, g3 = fx.gammas["gamma1"], fx.gammas["gamma2"], fx.gammas["gamma3"]
    gen = np.random.default_rng(41)
    p1 = g1.sample(gen, 300)
    p2 = g2.sample(gen, 300)
    assert np.all(g2.member(p1, 1e-7))
    assert np.all(g3.member(p1, 1e-7))
    assert np.all(g3.member(p2, 1e-7))
    # and strictness: generic gamma3 points are not in gamma2
    p3 = g3.sample(gen, 300)
    assert np.mean(np.asarray(g2.member(p3, 1e-7), dtype=float)) < 0.2


def test_gamma_membership_via_scalar_oracle(obs_params):
    # oracle: solve 2 cos(omega (pi/omega - tau)) = -sigma for tau directly
    p = obs_params
    g1, g2, g3 = gamma_sets(p)
    target = -p.sigma  # q = +1 at chi = (2, 0)
    tau = (math.pi - math.acos(target / 2.0)) / p.omega
    xi = np.array([2.0, 0.0, 2.0, 0.0, 1.0, PERIOD, tau])
    assert bool(g1.member(xi, 1e-9))
    assert bool(g2.member(xi, 1e-9))
    assert bool(g3.member(xi, 1e-9))
    assert float(g1.distance(xi)) < 1e-12


def test_gamma2_distance_in_period_coordinate(obs_params):
    g1, g2, g3 = gamma_sets(obs_params)
    gen = np.random.default_rng(43)
    xi = g2.sample(gen, 1)[0]
    xi[T_IDX] = 5.0
    assert float(g2.distance(xi)) == pytest.approx(abs(5.0 - PERIOD), abs=1e-9)
    assert float(g3.distance(xi)) < 1e-9  # period estimate is free in gamma3


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


#: sha256 of each observer target's samples at seeds 0, 1 and 2, then of its
#: projection, distance and membership on 64 window draws (membership also on
#: their projections); the samplers and projections drive the timer-root solver
PINNED_GAMMA_BITS = {
    "gamma1": ["29487a89d9bfb977b54bf8fe111ed0b0174566997dd446facbe1a51b0bd3d5eb",
               "18dc7209d53549ac7b4a4ca15293b02f9d86f1265a28cd59a5fef90c049a360b",
               "bba9ef1422e5ec18ab7e31f0d5ef6c2ac3f74389d79ca70c74c88c276d5a30f6",
               "3f6dee4ee44ddc0fb6da56eb4307a2d8945cf32bc9eb88d741fbcb3075868cee",
               "d047b93d8e48cf3be2048a03929a56df966f85f0d1b8236cc855bee9cec75d15",
               "5dd416a7d99de1b0a4b66db11cac119ac4603f81f93d2bc2ff0299488077d5f2"],
    "gamma2": ["c618a24d013594c7413876f98aa9b6c0d2eff7b996a4717be99f1dff8c47d4c7",
               "e3fee250fe8a37623983dd22eb8e9dc2893f04b1a0c2a08b0ac75ed8f724387f",
               "fdc52357e8f93fc2d841ce1e95155f6965aca63ea120c069ed6208582ddf86fe",
               "f937c106f83b87253d111b501da8864739c5bf962636d6e66a2e3d368e5abc61",
               "81753ef9b752ca6eea2a749c208c2c103f0f1123977d774ff493806d9650a578",
               "5dd416a7d99de1b0a4b66db11cac119ac4603f81f93d2bc2ff0299488077d5f2"],
    "gamma3": ["c777a889ede4be6b6ed0f94be913891f37511a7558143e20da3457c30aa9130d",
               "d4bcce2ea9c3b395d5374e3312254f16c0bae88b8ccf912e853c84a15ed31254",
               "86c7d06c1abd371258d9474e6c521befe639fb414b68aabeabef3404c0609041",
               "346f861a85bfb6291e3aa32cc0dadfe18ce34051b71f475bb3bb71ecf175cd1a",
               "0291c0f4a3e7c0e34d465ec9ca062358b398170361c53ba9dfac8733ba58849c",
               "5dd416a7d99de1b0a4b66db11cac119ac4603f81f93d2bc2ff0299488077d5f2"],
}


@pytest.mark.parametrize("name", list(PINNED_GAMMA_BITS))
def test_observer_target_bits_are_pinned(cat, name):
    fx = cat["observer"]
    g = fx.gammas[name]
    pts = fx.window.uniform(np.random.default_rng(5), 64)
    got = [_sha256(g.sample(np.random.default_rng(s), 64)) for s in (0, 1, 2)]
    got += [_sha256(g.project(pts)), _sha256(g.distance(pts)),
            _sha256(g.member(np.vstack([pts, g.project(pts)])))]
    assert got == PINNED_GAMMA_BITS[name]


def test_observer_state_draws_and_fig3_residual_are_pinned(cat):
    fx = cat["observer"]
    draws = fx.system.state_sampler(np.random.default_rng(0), 64)
    assert _sha256(draws) == "dfb9e9ce02729b6ffce56bb1b1ff3b0923083d4f405322fa9d2881122522d37e"
    arc = solve(fx.system, fx.presets["fig3"], SolverConfig(**fx.solver_overrides))
    assert _sha256(estimator_diagnostics(arc).rho) == \
        "54141e57c4c3f5d41130f59c7a005fc69c80355404a4b383c14f4ac5035f34cf"


def test_observer_period_update_recursion(cat, obs_params):
    # geometric recursion oracle: T_{k+1} = lam*T_k + (1-lam)*2*(pi/omega)
    fx = cat["observer"]
    p = obs_params
    arc = solve(fx.system, fx.presets["fig3"], SolverConfig(**fx.solver_overrides))
    d = estimator_diagnostics(arc, p)
    t1 = math.acos(-p.sigma / 2.0) / p.omega
    t_first = p.lam * 2.5 + (1 - p.lam) * 2.0 * t1
    assert d.eta2_after_jumps[0] + PERIOD == pytest.approx(t_first, abs=1e-8)
    expected = p.lam * t_first + (1 - p.lam) * 2.0 * (math.pi / p.omega)
    assert d.eta2_after_jumps[1] + PERIOD == pytest.approx(expected, abs=1e-8)
    assert expected == pytest.approx(3.2847698, abs=1e-6)
    # contraction by lam from the second jump on
    for k in range(1, len(d.eta2_after_jumps) - 1):
        assert d.eta2_after_jumps[k + 1] == pytest.approx(
            p.lam * d.eta2_after_jumps[k], abs=1e-9)


def test_shat_equals_plant_matrix_on_correct_period(cat):
    fx = cat["observer"]
    x = np.array([0.3, 1.9, 0.7, -1.2, 1.0, PERIOD, 0.5])
    f = fx.system.flow_map(x)
    s = np.array([[0.0, -OM], [OM, 0.0]])
    lhat = np.array([4 * math.pi / PERIOD, 0.0])
    expected = s @ x[CHIHAT] + lhat * (x[0] - x[2])
    assert np.allclose(f[CHIHAT], expected, atol=1e-12)


def test_amplitude_is_preserved(cat, obs_params):
    fx = cat["observer"]
    gen = np.random.default_rng(47)
    x0 = fx.system.state_sampler(gen, 1)[0]
    arc = solve(fx.system, x0, SolverConfig(t_max=20.0))
    norms = np.linalg.norm(arc.table()[2][:, CHI], axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-6


def test_selector_never_queried_on_undefined_segment(cat, obs_params):
    # diagnostics evaluate the residual at every sample; UndefinedAtPoint
    # would propagate if the solver ever visited the undefined segment
    fx = cat["observer"]
    gen = np.random.default_rng(53)
    for x0 in fx.system.state_sampler(gen, 5):
        arc = solve(fx.system, x0, SolverConfig(t_max=15.0))
        estimator_diagnostics(arc, obs_params)
        chi = arc.table()[2][:, CHI]
        strip = np.abs(chi[:, 0]) < obs_params.sigma
        assert not np.any(strip & (chi[:, 1] == 0.0))


def test_bump_function_shape():
    s = np.linspace(-3, 3, 1201)
    b = smoothstep_bump(s)
    assert np.all(b[np.abs(s) <= 1.0] == 0.0)
    assert np.all(b[np.abs(s) >= 2.0] == 1.0)
    assert np.all((b >= 0.0) & (b <= 1.0))
    # C1: numerical derivative is continuous at the knots
    h = 1e-6
    for knot in (1.0, 2.0, -1.0, -2.0):
        left = (smoothstep_bump(knot) - smoothstep_bump(knot - h)) / h
        right = (smoothstep_bump(knot + h) - smoothstep_bump(knot)) / h
        assert abs(left - right) < 1e-4


def test_catalog_contents_and_smoke_runs(cat):
    assert len(cat) >= 6
    for required in ("observer", "circles", "cascade-ex1", "polar",
                     "sigma-bump", "limit-circles"):
        assert required in cat
    for name, fx in cat.items():
        preset = next(iter(fx.presets.values()))
        overrides = dict(fx.solver_overrides)
        overrides["t_max"] = min(overrides.get("t_max", 10.0), 10.0)
        arc = solve(fx.system, preset, SolverConfig(**overrides))
        assert check_is_solution(fx.system, arc, 1e-3) == [], name


def test_circles_flow_keeps_sign_consistency(cat):
    fx = cat["circles"]
    arc = solve(fx.system, [1.0, 0.2, 0.5, 1.0],
                SolverConfig(t_max=10.0, store_max_dt=0.01))
    states = arc.table()[2]
    assert np.min(states[:, 3] * states[:, 0]) >= -1e-8


def test_limit_circles_closed_form_decay(cat):
    # radius of the planar block is invariant; the vertical state follows
    # x3(t) = x3(0)/sqrt(1 + 2 x3(0)^2 t) exactly
    fx = cat["limit-circles"]
    x0 = np.array([1.0, 0.0, 0.8])
    arc = solve(fx.system, x0, SolverConfig(t_max=60.0, store_max_dt=0.004))
    states = arc.table()[2]
    radius = np.hypot(states[:, 0], states[:, 1])
    assert np.max(np.abs(radius - 1.0)) < 1e-6
    t_end = arc.final_time()[0]
    x3_exact = x0[2] / math.sqrt(1.0 + 2.0 * x0[2] ** 2 * t_end)
    assert arc.final_state()[2] == pytest.approx(x3_exact, abs=1e-7)


def test_polar_distance_uses_circle_metric(cat):
    fx = cat["polar"]
    g1 = fx.gammas["gamma1"]
    assert float(g1.distance([2 * math.pi - 0.05, 1.0])) == pytest.approx(0.05)
    arc = solve(fx.system, [2.0, 1.0], SolverConfig(t_max=200.0, max_step=1.0))
    # motion on the unit circle creeps toward the rest point; circle-metric
    # distance must shrink monotonically in t at late times
    d_end = float(g1.distance(arc.final_state()))
    assert d_end < 0.05


def test_jump_map_guards_small_output(cat):
    fx = cat["observer"]
    bad = np.array([1e-6, 2.0, 0.0, 0.0, 1.0, 2.5, 0.1])
    with pytest.raises(UndefinedAtPoint):
        fx.system.jump_map(bad)


def test_every_catalog_fixture_declares_a_batched_flow_map_equal_to_its_flow_map(cat):
    for name, fx in cat.items():
        x = fx.window.uniform(np.random.default_rng(7), 512)
        batch = fx.system.flow_map_batch(x)
        rows = np.array([fx.system.flow_map(row) for row in x])
        assert batch.shape == x.shape, name
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=0.0, err_msg=name)


def test_only_the_named_fixtures_keep_a_separate_batched_flow_map(cat):
    # observer and circles: their tolist() read is the fast one-state path;
    # polar: written over x.T, its one-state call is slower; cascade-ex1: its
    # spec's blocks take one state
    separate = {name for name, fx in cat.items()
                if fx.system.flow_map_batch is not fx.system.flow_map}
    assert separate == {"observer", "circles", "polar", "cascade-ex1"}


def test_observer_flow_map_keeps_the_bits_of_numpy_scalar_arithmetic(obs_params):
    # the map before it read its state once, as a reference
    def reference(x):
        chi1, chi2, ch1, ch2, T = x[0], x[1], x[2], x[3], x[T_IDX]
        w_hat = 2.0 * math.pi / T
        return np.array([-OM * chi2, OM * chi1, -w_hat * ch2 + 2.0 * w_hat * (chi1 - ch1),
                         w_hat * ch1, 0.0, 0.0, 1.0])

    flow = build_observer(obs_params).flow_map
    gen = np.random.default_rng(3)
    x = gen.uniform(-3.0, 3.0, (20000, 7))
    x[:, T_IDX] = gen.uniform(2.0, 6.3, len(x))
    x[:3, T_IDX] = [0.0, -0.0, np.inf]  # a NaN's sign bit is not compared
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.array([reference(row) for row in x])
    got = np.array([flow(row) for row in x])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_circles_one_state_maps_keep_the_bits_of_numpy_scalar_arithmetic(cat):
    # the maps before they read their state once, as a reference
    def reference_flow(x):
        return np.array([x[3] * x[1], -x[3] * x[0], x[0] ** 2 - x[2], 0.0])

    def reference_jump(x):
        return np.array([x[0], x[1], 0.5 * x[2], -x[3]])

    sys = cat["circles"].system
    gen = np.random.default_rng(11)
    x = gen.uniform(-1.0, 1.0, (20000, 4)) * 10.0 ** gen.uniform(-5.0, 5.0, (20000, 4))
    x[::2, 3] = np.sign(x[::2, 3])  # the flag's own values, and any other
    # every coordinate at zeros, subnormals, infinities, NaNs and a square that overflows
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -1.5, 1e200]
    x = np.concatenate([x, np.array(list(itertools.product(special, repeat=4)))])
    for new, reference in ((sys.flow_map, reference_flow), (sys.jump_map, reference_jump)):
        with np.errstate(all="ignore"):
            ref = np.array([reference(row) for row in x])
        got = np.array([new(row) for row in x])
        # bit for bit, every NaN read as one: a product of two NaNs may carry either's sign
        ref[np.isnan(ref)] = got[np.isnan(got)] = np.nan
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), new.__name__


def test_observer_targets_project_a_zero_plant_state_onto_the_inner_circle(obs_params):
    x = np.array([0.0, 0.0, 0.3, -0.2, 1.0, 4.0, 0.5])
    for gamma in gamma_sets(obs_params):
        image = gamma.project(x)
        assert image[CHI].tolist() == [obs_params.chi_m, 0.0], gamma.name
        assert gamma.member(image, 1e-7), gamma.name


def test_projections_keep_the_input_shape(cat):
    for name, fx in cat.items():
        x = fx.window.uniform(np.random.default_rng(5), 6)
        for gname, gamma in fx.gammas.items():
            if not gamma.can_project:
                continue
            assert gamma.project(x).shape == x.shape, (name, gname)
            one = gamma.project(x[0])
            assert one.shape == x[0].shape, (name, gname)
            assert np.array_equal(one, gamma.project(x[:1])[0]), (name, gname)
