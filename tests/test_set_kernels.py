"""Set membership and distance through the raw kernels against the tree walk
they replaced.

``ClosedSet.member``/``distance`` validate a query once and run the set's raw
kernels; composites call their operands' kernels directly.  The reference
below is the earlier tree walk over the set descriptors: every node of a
composite re-entered the public ``member``/``distance`` of its operands
(re-validating the array), and the leaves used ``np.linalg.norm``, an
``np.zeros`` accumulator, ``np.min`` and ``np.stack``.  The two must agree
exactly: equal booleans, and distances equal bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hybridkit.composition import restrict
from hybridkit.geometry import (
    ClosedSet,
    Window,
    coords_set,
    inflate,
    intersect,
    product,
    set_from_config,
    shell_set,
    union,
)
from hybridkit.systems import ObserverParams, catalog, xi_space

# ---------------------------------------------------------------------------
# the reference: the tree walk over set descriptors
# ---------------------------------------------------------------------------


def _interval(x, lo, hi):
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


def _coords_dist(x, constraints):
    total = np.zeros(x.shape[:-1])
    for i, c in sorted((int(i), tuple(c)) for i, c in constraints.items()):
        xi = x[..., i]
        if c[0] == "interval":
            d = _interval(xi, c[1], c[2])
        elif c[0] == "values":
            d = np.min(np.abs(xi[..., None] - np.asarray(c[1], dtype=float)), axis=-1)
        else:
            d = np.mod(np.asarray(xi) - c[1], c[2])
            d = np.minimum(d, c[2] - d)
        total = total + d * d
    return np.sqrt(total)


def _observer_customs(p: ObserverParams) -> dict:
    """The observer's custom leaves as they were written: name -> (dim,
    distance, member or None)."""
    sigma, period = p.sigma, p.period
    xi_desc = xi_space(p).to_config()

    def phase(chi, tau):
        a = math.pi - p.omega * np.asarray(tau, dtype=float)
        return np.cos(a) * chi[..., 0] - np.sin(a) * chi[..., 1]

    def advanced(chi, tau):
        a = math.pi - p.omega * np.asarray(tau, dtype=float)
        return np.sin(a) * chi[..., 0] + np.cos(a) * chi[..., 1]

    def resid_rho(x):
        chi, tau, q = x[..., 0:2], x[..., 6], x[..., 4]
        qy = q * x[..., 0]
        r1 = np.abs(phase(chi, tau) + q * sigma)
        r2 = np.maximum(0.0, -(qy + sigma))
        r3 = np.maximum(0.0, -q * advanced(chi, tau))
        r4 = np.maximum(0.0, tau - math.pi / p.omega)
        return np.linalg.norm(np.stack([r1, r2, r3, r4], axis=-1), axis=-1)

    def resid_T(x):
        return np.abs(x[..., 5] - period)

    def resid_est(x):
        return np.linalg.norm(x[..., 2:4] - x[..., 0:2], axis=-1)

    def gamma_member(*resids):
        def member(x, tol):
            ok = np.asarray(_ref_member(xi_desc, x, tol), dtype=bool)
            for r in resids:
                ok = ok & (r(x) <= tol)
            return ok
        return member

    def jump_guard(x):
        qy = x[..., 4] * x[..., 0]
        return np.minimum(np.abs(x[..., 0]) - sigma, -(qy + sigma))

    return {
        "qy >= -sigma": (7, lambda x: np.maximum(-(x[..., 4] * x[..., 0] + sigma), 0.0), None),
        "|y| >= sigma, qy <= -sigma": (7, lambda x: np.maximum(-jump_guard(x), 0.0), None),
        "timer-synchronized": (7, resid_rho, gamma_member(resid_rho)),
        "timer-synchronized, correct period": (
            7, lambda x: np.hypot(resid_rho(x), resid_T(x)), gamma_member(resid_rho, resid_T)),
        "timer-synchronized, correct period, locked estimate": (
            7, lambda x: np.sqrt(resid_rho(x) ** 2 + resid_T(x) ** 2 + resid_est(x) ** 2),
            gamma_member(resid_rho, resid_T, resid_est)),
    }


def _parabola(x):
    return np.abs(x[..., 0] ** 2 + x[..., 1] - 1.0)


def _disc_member(x, tol):
    return x[..., 0] ** 2 + x[..., 1] ** 2 <= 1.0 + tol


#: custom leaves by descriptor name: (dim, distance, member or None)
CUSTOM = {
    **_observer_customs(ObserverParams()),
    "parabola": (2, _parabola, None),
    "disc": (2, lambda x: np.maximum(np.hypot(x[..., 0], x[..., 1]) - 1.0, 0.0), _disc_member),
}


def _dim(desc) -> int:
    kind = desc["type"]
    if kind == "custom":
        return CUSTOM[desc["name"]][0]
    if kind == "point":
        return len(desc["at"])
    if kind == "box":
        return len(desc["bounds"])
    if kind == "affine":
        return len(desc["A"][0])
    if kind in ("intersection", "union"):
        return _dim(desc["parts"][0])
    if kind == "product":
        return sum(_dim(d) for d in desc["parts"])
    if kind == "inflation":
        return _dim(desc["of"])
    return int(desc["dim"])


def _ref_distance(desc, x):
    x = np.asarray(x, dtype=float)
    assert x.shape[-1] == _dim(desc)
    kind = desc["type"]
    if kind == "custom":
        d = CUSTOM[desc["name"]][1](x)
    elif kind == "point":
        d = np.linalg.norm(x - np.asarray(desc["at"], dtype=float), axis=-1)
    elif kind == "box":
        d = _coords_dist(x, {i: ("interval", float(lo), float(hi))
                             for i, (lo, hi) in enumerate(desc["bounds"])})
    elif kind == "coords":
        d = _coords_dist(x, desc["constraints"])
    elif kind == "full":
        d = np.zeros(x.shape[:-1])
    elif kind == "empty":
        d = np.full(x.shape[:-1], np.inf)
    elif kind == "shell":
        d = _interval(np.linalg.norm(x[..., tuple(desc["coords"])], axis=-1),
                      desc["r_min"], desc["r_max"])
    elif kind == "affine":
        A, b = np.asarray(desc["A"], dtype=float), np.asarray(desc["b"], dtype=float)
        d = np.linalg.norm((x @ A.T - b) @ np.linalg.pinv(A).T, axis=-1)
    elif kind == "intersection":
        a, b = desc["parts"]
        d = np.maximum(_ref_distance(a, x), _ref_distance(b, x))
    elif kind == "union":
        a, b = desc["parts"]
        d = np.minimum(_ref_distance(a, x), _ref_distance(b, x))
    elif kind == "product":
        a, b = desc["parts"]
        na = _dim(a)
        d = np.hypot(_ref_distance(a, x[..., :na]), _ref_distance(b, x[..., na:]))
    elif kind == "inflation":
        d = np.maximum(_ref_distance(desc["of"], x) - desc["c"], 0.0)
    else:
        raise AssertionError(kind)
    return np.asarray(d)


def _ref_member(desc, x, tol):
    x = np.asarray(x, dtype=float)
    assert x.shape[-1] == _dim(desc)
    kind = desc["type"]
    if kind == "custom" and CUSTOM[desc["name"]][2] is not None:
        return CUSTOM[desc["name"]][2](x, tol)
    if kind == "intersection":
        a, b = desc["parts"]
        return np.logical_and(_ref_member(a, x, tol), _ref_member(b, x, tol))
    if kind == "union":
        a, b = desc["parts"]
        return np.logical_or(_ref_member(a, x, tol), _ref_member(b, x, tol))
    if kind == "product":
        a, b = desc["parts"]
        na = _dim(a)
        return np.logical_and(_ref_member(a, x[..., :na], tol), _ref_member(b, x[..., na:], tol))
    return np.asarray(_ref_distance(desc, x)) <= tol


# ---------------------------------------------------------------------------
# the sets and the points
# ---------------------------------------------------------------------------


def _custom(name, **kw) -> ClosedSet:
    _, dist, member = CUSTOM[name]
    return ClosedSet(2, dist, member=member, descriptor={"type": "custom", "name": name},
                     distance_kind="declared", name=name, **kw)


def _cases():
    """(label, set, window, extra on-set points or None)."""
    out = []
    cat = catalog()
    for fname, fx in cat.items():
        for label, s in [("C", fx.system.flow_set), ("D", fx.system.jump_set),
                         *fx.gammas.items()]:
            out.append((f"{fname}.{label}", s, fx.window, None))
    obs = cat["observer"]
    for k in (1, 2, 3):
        g = obs.gammas[f"gamma{k}"]
        rsys = restrict(obs.system, g)
        on = g.sample(np.random.default_rng(k), 12, obs.window)
        out.append((f"observer|gamma{k}.C", rsys.flow_set, obs.window, on))
        out.append((f"observer|gamma{k}.D", rsys.jump_set, obs.window, on))
    descriptors = [
        {"type": "point", "at": [0.5, -1.0]},
        {"type": "box", "bounds": [[-1.0, 2.0], [0.0, np.inf], [3.0, 3.0]]},
        {"type": "full", "dim": 2},
        {"type": "empty", "dim": 2},
        {"type": "shell", "dim": 3, "coords": [0, 2], "r_min": 0.5, "r_max": 1.5},
        {"type": "affine", "A": [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], "b": [1.0, 0.0]},
        {"type": "coords", "dim": 6, "constraints": {
            "0": ["interval", 0.0, 0.0], "1": ["interval", -np.inf, 0.0],
            "2": ["values", [-1.0, 0.5, 2.0]], "3": ["angle", 0.5, 2 * np.pi],
            "4": ["interval", -1.0, 1.0], "5": ["values", 0.25]}},
        {"type": "intersection", "parts": [{"type": "point", "at": [0.0, 0.0]},
                                           {"type": "box", "bounds": [[-1, 1], [-1, 1]]}]},
        {"type": "union", "parts": [{"type": "point", "at": [1.0, 0.0]},
                                    {"type": "shell", "dim": 2, "coords": [0, 1],
                                     "r_min": 2.0, "r_max": 2.0}]},
        {"type": "product", "parts": [{"type": "point", "at": [0.0]},
                                      {"type": "box", "bounds": [[-1.0, 1.0]]}]},
        {"type": "inflation", "of": {"type": "point", "at": [0.0, 0.0]}, "c": 0.5},
    ]
    for desc in descriptors:
        s = set_from_config(desc)
        out.append((f"config.{desc['type']}", s, Window.cube(s.dim, 2.5), None))
    wide = [
        ("shell7", shell_set(7, range(7), 0.5, 1.5)),
        ("shell9", shell_set(9, range(8), 0.5, 1.5)),
        ("coords9", coords_set(9, {i: ("interval", -0.5, 0.5) for i in range(9)})),
        ("coords-inf-values", coords_set(2, {0: ("values", (np.inf, 0.0)),
                                             1: ("interval", np.inf, np.inf)})),
    ]
    out += [(label, s, Window.cube(s.dim, 2.0), None) for label, s in wide]
    par, disc = _custom("parabola"), _custom("disc", member_tol=1e-7)
    composites = [
        ("custom&custom", intersect(par, disc)),
        ("custom|box", union(par, set_from_config({"type": "box", "bounds": [[0, 1], [0, 1]]}))),
        ("custom x custom", product(par, disc)),
        ("inflate(custom)", inflate(disc, 0.25)),
        ("(custom|custom)&inflate", intersect(union(par, disc), inflate(par, 0.1))),
    ]
    out += [(label, s, Window.cube(s.dim, 2.0), None) for label, s in composites]
    return out


CASES = _cases()


def _points(s: ClosedSet, window: Window, on, seed: int) -> np.ndarray:
    """Window draws, on-set samples, boundary points +-tol, NaN/+-inf rows."""
    rng = np.random.default_rng(seed)
    n = s.dim
    parts = [window.uniform(rng, 24)]
    if on is None and s.can_sample:
        try:
            on = s.sample(rng, 12, window)
        except ValueError:  # a rejection sampler may starve on thin sets
            on = None
    if on is not None:
        parts.append(on)
        tol = s.member_tol
        for sign in (1.0, -1.0):
            for scale in (1.0, 2.0):
                shifted = np.array(on, copy=True)
                shifted[np.arange(len(on)), rng.integers(0, n, len(on))] += sign * scale * tol
                parts.append(shifted)
    special = np.repeat(window.uniform(rng, 1), 7, axis=0)
    special[0], special[1], special[2] = np.nan, np.inf, -np.inf
    for row, v in zip(special[3:], (np.nan, -np.nan, np.inf, -np.inf)):
        row[rng.integers(0, n)] = v
    parts.append(special)
    return np.concatenate(parts)


def _same_member(got, ref):
    assert type(got) is type(ref)
    assert np.asarray(got).dtype == np.asarray(ref).dtype == bool
    assert np.array_equal(got, ref)


def _same_distance(got, ref):
    assert type(got) is type(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("label, s, window, on", CASES, ids=[c[0] for c in CASES])
def test_kernels_match_the_tree_walk_bit_for_bit(label, s, window, on):
    pts = _points(s, window, on, seed=len(label))
    desc = s.to_config()
    m = len(pts) - len(pts) % 2
    shapes = [pts, pts[:m].reshape(2, m // 2, s.dim), *pts]  # (m, n), (a, b, n), each (n,)
    with np.errstate(all="ignore"):
        for x in shapes:
            _same_distance(s.distance(x), _ref_distance(desc, x))
            for tol in (None, 1e-6, 0.0):
                ref_tol = s.member_tol if tol is None else tol
                _same_member(s.member(x, tol), _ref_member(desc, x, ref_tol))


@pytest.mark.parametrize("which", ["observer|gamma3", "circles"])
def test_a_composite_query_enters_the_public_methods_once(which, monkeypatch):
    cat = catalog()
    if which == "circles":
        s, window = cat["circles"].system.flow_set, cat["circles"].window
    else:
        obs = cat["observer"]
        s, window = restrict(obs.system, obs.gammas["gamma3"]).flow_set, obs.window
    entries = {"member": 0, "distance": 0}
    for attr in entries:
        orig = getattr(ClosedSet, attr)

        def counted(self, *args, _orig=orig, _attr=attr, **kw):
            entries[_attr] += 1
            return _orig(self, *args, **kw)

        monkeypatch.setattr(ClosedSet, attr, counted)
    x = window.uniform(np.random.default_rng(0), 10)
    s.member(x)
    s.member(x[0], 1e-9)
    s.distance(x)
    assert entries == {"member": 2, "distance": 1}
