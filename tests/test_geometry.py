"""Closed-set constructors: distance/membership consistency, Lipschitz bounds,
combinator arithmetic, samplers, projections, and config round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from hybridkit.errors import DimensionMismatch
from hybridkit.geometry import (
    ClosedSet,
    Window,
    affine_set,
    box_set,
    circle_distance,
    coords_set,
    empty_set,
    full_space,
    inflate,
    intersect,
    point_set,
    product,
    set_from_config,
    shell_set,
    union,
)


def _builtin_sets():
    return [
        point_set([0.0, 0.0]),
        point_set([1.0, -2.0, 3.0]),
        box_set([[-1.0, 2.0], [0.0, 0.0]]),
        box_set([[0.0, np.inf], [-np.inf, np.inf]]),
        shell_set(2, (0, 1), 1.0, 3.0),
        shell_set(3, (0, 2), 0.5, 0.5),
        affine_set([[1.0, 1.0, 0.0]], [1.0]),
        coords_set(3, {0: ("interval", 0.0, 0.0), 2: ("values", (-1.0, 1.0))}),
        coords_set(2, {0: ("angle", 0.0, 2 * np.pi), 1: ("interval", 1.0, 1.0)}),
        union(point_set([1.0, 0.0]), point_set([-1.0, 0.0])),
        product(point_set([0.0]), box_set([[-1.0, 1.0]])),
        inflate(point_set([0.0, 0.0]), 1.0),
    ]


@pytest.mark.parametrize("s", _builtin_sets(), ids=lambda s: s.name)
def test_member_iff_distance_zero(s):
    gen = np.random.default_rng(101)
    pts = gen.uniform(-4, 4, size=(400, s.dim))
    d = s.distance(pts)
    m = np.asarray(s.member(pts), dtype=bool)
    assert np.array_equal(m, d <= s.member_tol)
    if s.can_sample:
        on = s.sample(gen, 50, Window.cube(s.dim, 4.0))
        assert np.max(s.distance(on)) <= 1e-9


@pytest.mark.parametrize("s", _builtin_sets(), ids=lambda s: s.name)
def test_distance_is_one_lipschitz(s):
    gen = np.random.default_rng(7)
    x = gen.uniform(-5, 5, size=(500, s.dim))
    y = x + gen.normal(scale=0.5, size=x.shape)
    lhs = np.abs(s.distance(x) - s.distance(y))
    rhs = np.linalg.norm(x - y, axis=1) + 1e-9
    assert np.all(lhs <= rhs)


@pytest.mark.parametrize("s", _builtin_sets(), ids=lambda s: s.name)
def test_projection_realizes_distance(s):
    if not s.can_project:
        pytest.skip("no projection")
    gen = np.random.default_rng(11)
    x = gen.uniform(-4, 4, size=(200, s.dim))
    p = s.project(x)
    assert np.max(s.distance(p)) <= 1e-8
    assert np.allclose(np.linalg.norm(x - p, axis=1), s.distance(x), atol=1e-8)


def test_point_distance_is_euclidean_norm():
    s = point_set([0.0, 0.0])
    assert s.distance([3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_amplitude_shell_contains_radius_two():
    w = shell_set(2, (0, 1), 1.0, 3.0)
    x = np.array([2.0, 0.0])
    assert w.distance(x) == 0.0
    assert bool(w.member(x))
    assert w.distance([4.0, 0.0]) == pytest.approx(1.0)
    assert w.distance([0.25, 0.0]) == pytest.approx(0.75)


def test_axis_subspace_distance_is_orthogonal_projection():
    line = coords_set(2, {1: ("interval", 0.0, 0.0)})
    assert line.distance([7.0, -2.0]) == pytest.approx(2.0)


def test_general_affine_distance():
    # {x : x_1 + x_2 = 1} in R^2, distance of the origin is 1/sqrt(2)
    s = affine_set([[1.0, 1.0]], [1.0])
    assert s.distance([0.0, 0.0]) == pytest.approx(1 / np.sqrt(2))


def test_inflate_unit_ball():
    ball = inflate(point_set([0.0, 0.0]), 1.0)
    assert ball.distance([2.0, 0.0]) == pytest.approx(1.0)
    assert bool(ball.member([0.3, 0.4]))
    strip = inflate(coords_set(2, {1: ("interval", 0.0, 0.0)}), 0.5)
    assert bool(strip.member([0.0, 0.5]))
    assert strip.distance([0.0, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_inflate_composes_additively():
    gen = np.random.default_rng(3)
    base = shell_set(2, (0, 1), 1.0, 2.0)
    two_step = inflate(inflate(base, 0.4), 0.3)
    one_step = inflate(base, 0.7)
    pts = gen.uniform(-4, 4, size=(500, 2))
    assert np.array_equal(np.asarray(two_step.member(pts)),
                          np.asarray(one_step.member(pts)))
    assert np.allclose(two_step.distance(pts), one_step.distance(pts), atol=1e-12)


def test_inflate_distance_matches_brute_force():
    # oracle: minimum distance to a dense sample of the base set, minus c
    base = shell_set(2, (0, 1), 1.0, 1.0)  # unit circle
    infl = inflate(base, 0.5)
    ang = np.linspace(0, 2 * np.pi, 20001)
    boundary = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    gen = np.random.default_rng(5)
    for x in gen.uniform(-3, 3, size=(25, 2)):
        brute = max(0.0, float(np.min(np.linalg.norm(boundary - x, axis=1))) - 0.5)
        assert infl.distance(x) == pytest.approx(brute, abs=1e-6)


def test_inflation_of_declared_surrogate_keeps_formula():
    s = ClosedSet(2, lambda x: np.abs(x[..., 0] ** 2 + x[..., 1] - 1.0),
                  distance_kind="declared", name="parab")
    infl = inflate(s, 0.25)
    x = np.array([0.5, 2.0])
    assert infl.distance(x) == pytest.approx(max(0.0, float(s.distance(x)) - 0.25))
    assert infl.distance_kind == "declared"


def test_inflation_samples_are_sample_near_draws(cat):
    # inflate(s, c) draws an on-set point plus a normal direction scaled to
    # radius c * U^(1/dim), the draws of s.sample_near(rng, n, c, window)
    sets = [point_set([0.0, 0.0]), coords_set(3, {0: ("interval", 0.0, 0.0)}),
            shell_set(2, (0, 1), 1.0, 3.0), cat["observer"].gammas["gamma1"],
            cat["circles"].gammas["gamma2"]]
    for s in sets:
        for c in (0.5, 2.0):
            for seed in range(5):
                for window in (None, Window.cube(s.dim, 3.0)):
                    got = inflate(s, c).sample(np.random.default_rng(seed), 30, window)
                    near = s.sample_near(np.random.default_rng(seed), 30, c, window)
                    rng = np.random.default_rng(seed)
                    base = s.sample(rng, 30, window)
                    u = rng.normal(size=(30, s.dim))
                    u /= np.linalg.norm(u, axis=1, keepdims=True)
                    ref = base + u * (c * rng.uniform(size=(30, 1)) ** (1.0 / s.dim))
                    assert got.tobytes() == near.tobytes() == ref.tobytes(), (s.name, c, seed)


def test_intersect_with_full_space_is_identity():
    s = shell_set(2, (0, 1), 1.0, 3.0)
    assert intersect(s, full_space(2)) is s
    assert intersect(full_space(2), s) is s


def test_intersect_disjoint_is_empty_on_grid():
    ball = inflate(point_set([0.0, 0.0]), 1.0)
    far = point_set([5.0, 5.0])
    both = intersect(ball, far)
    gen = np.random.default_rng(9)
    pts = gen.uniform(-6, 6, size=(2000, 2))
    assert not np.any(both.member(pts))
    assert both.distance_kind == "lower_bound"


def test_intersect_membership_is_conjunction(cat):
    fx = cat["observer"]
    flow_set = fx.system.flow_set  # Xi intersect threshold half-space
    gen = np.random.default_rng(17)
    pts = fx.system.state_sampler(gen, 1000)
    g2 = fx.gammas["gamma2"]
    joint = intersect(flow_set, g2)
    lhs = np.asarray(joint.member(pts, 1e-7))
    rhs = np.asarray(flow_set.member(pts, 1e-7)) & np.asarray(g2.member(pts, 1e-7))
    assert np.array_equal(lhs, rhs)


def test_intersect_samples_lie_in_both_operands():
    a, b = box_set([[-1.0, 1.0], [-1.0, 1.0]]), box_set([[0.0, 2.0], [-2.0, 0.5]])
    pts = intersect(a, b).sample(np.random.default_rng(5), 50)
    assert pts.shape == (50, 2)
    assert np.all(a.member(pts)) and np.all(b.member(pts))
    starved = intersect(a, box_set([[3.0, 4.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="intersection sampler starved"):
        starved.sample(np.random.default_rng(5), 1)


def test_product_of_points():
    p = product(point_set([0.0]), point_set([0.0]))
    assert p.dim == 2
    assert p.distance([3.0, 4.0]) == pytest.approx(5.0)


def test_product_with_full_space_is_cylinder():
    cyl = product(point_set([1.0]), full_space(2))
    gen = np.random.default_rng(2)
    pts = gen.uniform(-3, 3, size=(200, 3))
    assert np.allclose(cyl.distance(pts), np.abs(pts[:, 0] - 1.0))


def test_product_distance_matches_finite_brute_force():
    # finite value sets make the Cartesian brute force exact
    a = coords_set(2, {0: ("values", (-1.0, 0.5)), 1: ("values", (0.0, 2.0))})
    b = coords_set(2, {0: ("values", (1.0,)), 1: ("values", (-2.0, 0.25))})
    prod = product(a, b)
    grid_a = np.array([[i, j] for i in (-1.0, 0.5) for j in (0.0, 2.0)])
    grid_b = np.array([[1.0, k] for k in (-2.0, 0.25)])
    grid = np.array([np.concatenate([u, v]) for u in grid_a for v in grid_b])
    gen = np.random.default_rng(23)
    for x in gen.uniform(-3, 3, size=(50, 4)):
        brute = float(np.min(np.linalg.norm(grid - x, axis=1)))
        assert prod.distance(x) == pytest.approx(brute, abs=1e-6)


def test_product_membership_is_pairwise_conjunction():
    a = box_set([[0.0, 1.0]])
    b = box_set([[-1.0, 0.0]])
    prod = product(a, b)
    gen = np.random.default_rng(29)
    pts = gen.uniform(-2, 2, size=(500, 2))
    lhs = np.asarray(prod.member(pts))
    rhs = np.asarray(a.member(pts[:, :1])) & np.asarray(b.member(pts[:, 1:]))
    assert np.array_equal(lhs, rhs)


def test_union_distance_is_min_and_exact():
    u = union(point_set([1.0, 0.0]), point_set([-1.0, 0.0]))
    assert u.distance_kind == "exact"
    assert u.distance([0.0, 0.0]) == pytest.approx(1.0)
    assert u.distance([1.5, 0.0]) == pytest.approx(0.5)


def test_empty_set_distance_is_infinite():
    e = empty_set(2)
    assert np.isinf(e.distance([0.0, 0.0]))
    assert not bool(e.member([0.0, 0.0]))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        point_set([0.0, 0.0]).distance([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        intersect(point_set([0.0]), point_set([0.0, 0.0]))


def test_circle_metric_wraps():
    assert circle_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2)
    wrapped = coords_set(2, {0: ("angle", 0.0, 2 * np.pi)})
    assert wrapped.distance([2 * np.pi - 0.05, 3.0]) == pytest.approx(0.05)


def test_config_round_trip():
    gen = np.random.default_rng(31)
    for s in _builtin_sets():
        cfg = s.to_config()
        if cfg.get("type") == "custom":
            continue
        rebuilt = set_from_config(cfg)
        pts = gen.uniform(-3, 3, size=(200, s.dim))
        assert np.allclose(rebuilt.distance(pts), s.distance(pts), atol=1e-12)
        assert np.array_equal(np.asarray(rebuilt.member(pts)),
                              np.asarray(s.member(pts)))


def test_sample_near_stays_in_neighborhood():
    s = shell_set(3, (0, 1), 1.0, 2.0)
    gen = np.random.default_rng(37)
    pts = s.sample_near(gen, 200, 0.3, Window.cube(3, 3.0), frozen=(2,))
    assert np.max(s.distance(pts)) <= 0.3 + 1e-12
