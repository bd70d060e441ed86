"""Closed subsets of R^n: membership, point-to-set distance, combinators.

Every set carries a batched distance function (arrays of shape (..., n) map to
(...,)) and a membership predicate derived from it; the solver locates flow
exits by testing membership on grids along the dense output.  ``member`` and
``distance`` validate their input once and then run the set's raw kernels,
which combinators call directly.  Distances are tagged with a
``distance_kind``:

* ``"exact"`` -- the Euclidean point-to-set distance,
* ``"declared"`` -- a user-supplied surrogate (zero exactly on the set),
* ``"lower_bound"`` -- an underestimate (intersections); membership is still
  exact, but stability-type analyses refuse such sets.

Sets may optionally expose ``sample`` (points on the set inside a window) and
``project`` (closest point), which the sampling-based analyses rely on for
measure-zero targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch

DEFAULT_MEMBER_TOL = 1e-9

#: kernel constants are float64 scalars, which numpy need not convert per call
_ZERO = np.float64(0.0)

_INTERVAL = "interval"
_VALUES = "values"
_ANGLE = "angle"


@dataclass(frozen=True)
class Window:
    """Axis-aligned sampling box; the compact stand-in for 'global'."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def cube(dim: int, radius: float) -> "Window":
        r = float(radius)
        return Window(np.full(dim, -r), np.full(dim, r))

    @staticmethod
    def from_bounds(bounds) -> "Window":
        arr = np.asarray(bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"bounds must have shape (k, 2), not {arr.shape}")
        if not (np.isfinite(arr).all() and (arr[:, 0] <= arr[:, 1]).all()):
            raise ValueError("bounds must be finite with lo <= hi")
        return Window(arr[:, 0].copy(), arr[:, 1].copy())

    @property
    def dim(self) -> int:
        return self.lo.size

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def to_config(self) -> list:
        return [[float(a), float(b)] for a, b in zip(self.lo, self.hi)]


class ClosedSet:
    """A closed subset of R^n defined through its distance function.

    ``distance(x) == 0`` iff ``member(x)`` (within ``member_tol``); built-in
    constructors produce 1-Lipschitz distances.
    """

    def __init__(
        self,
        dim: int,
        distance: Callable[[np.ndarray], np.ndarray],
        *,
        member: Callable[[np.ndarray, float], np.ndarray] | None = None,
        descriptor: dict | None = None,
        distance_kind: str = "exact",
        member_tol: float = DEFAULT_MEMBER_TOL,
        sample: Callable | None = None,
        project: Callable | None = None,
        bounded: bool = False,
        name: str = "",
    ):
        if dim < 1:
            raise DimensionMismatch(f"set dimension must be positive, got {dim}")
        if distance_kind not in ("exact", "declared", "lower_bound"):
            raise ValueError(f"unknown distance_kind {distance_kind!r}")
        self.dim = int(dim)
        # raw kernels: a validated float array of shape (..., dim) in, arrays out
        self._distance = distance
        self._member = member or (lambda x, tol: distance(x) <= tol)
        self.descriptor = descriptor or {"type": "custom"}
        self.distance_kind = distance_kind
        self.member_tol = float(member_tol)
        self._sample = sample
        self._project = project
        self.bounded = bool(bounded)
        self.name = name or self.descriptor.get("type", "set")

    # -- core predicates ---------------------------------------------------

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"set '{self.name}' has dim {self.dim}, point has dim {x.shape[-1]}"
            )
        return x

    def distance(self, x) -> np.ndarray:
        return np.asarray(self._distance(self._check_dim(x)))

    def member(self, x, tol: float | None = None):
        return self._member(self._check_dim(x), self.member_tol if tol is None else float(tol))

    # -- sampling / projection ---------------------------------------------

    @property
    def can_sample(self) -> bool:
        return self._sample is not None

    @property
    def can_project(self) -> bool:
        return self._project is not None

    def sample(self, rng: np.random.Generator, n: int, window: Window | None = None) -> np.ndarray:
        """Draw ``n`` points on the set, confined to ``window`` where it matters."""
        if self._sample is None:
            raise ValueError(f"set '{self.name}' has no sampler")
        pts = np.asarray(self._sample(rng, int(n), window), dtype=float)
        return pts.reshape(n, self.dim)

    def project(self, x) -> np.ndarray:
        if self._project is None:
            raise ValueError(f"set '{self.name}' has no projection")
        return np.asarray(self._project(self._check_dim(x)), dtype=float)

    def sample_near(
        self,
        rng: np.random.Generator,
        n: int,
        delta: float,
        window: Window | None = None,
        frozen: tuple[int, ...] = (),
    ) -> np.ndarray:
        """Points of the closed delta-neighborhood: on-set samples plus a
        uniform ball perturbation, zeroed on ``frozen`` coordinates."""
        base = self.sample(rng, n, window)
        direction = rng.normal(size=(n, self.dim))
        if frozen:
            direction[:, list(frozen)] = 0.0
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = delta * rng.uniform(size=(n, 1)) ** (1.0 / max(1, self.dim - len(frozen)))
        return base + direction / norms * radii

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosedSet({self.name}, dim={self.dim}, kind={self.distance_kind})"

    def to_config(self) -> dict:
        return dict(self.descriptor)


# ---------------------------------------------------------------------------
# coordinate-constraint sets (the workhorse: boxes, points, axis subspaces,
# finite value sets, wrapped angles -- independent per-coordinate constraints
# compose in quadrature, so the distance stays exact)
# ---------------------------------------------------------------------------


def _interval_dist(x, lo, hi):
    return np.maximum(np.maximum(lo - x, x - hi), _ZERO)


def _norm(v):
    """``np.linalg.norm(v, axis=-1)`` bit for bit (the same product, reduction
    and root) without its Python-level dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def circle_distance(theta, theta0: float, period: float = 2 * math.pi):
    """Arc distance between angles, the metric for wrapped coordinates."""
    d = np.mod(np.asarray(theta) - theta0, period)
    return np.minimum(d, period - d)


def coords_set(
    dim: int,
    constraints: dict[int, tuple],
    *,
    name: str = "",
) -> ClosedSet:
    """Set defined by independent per-coordinate constraints.

    ``constraints`` maps a coordinate index to one of
    ``("interval", lo, hi)``, ``("values", (v, ...))`` or
    ``("angle", theta0, period)``; unlisted coordinates are free.
    """
    items = sorted((int(i), tuple(c)) for i, c in constraints.items())
    for i, c in items:
        if not 0 <= i < dim:
            raise DimensionMismatch(f"constraint index {i} out of range for dim {dim}")
        if c[0] not in (_INTERVAL, _VALUES, _ANGLE):
            raise ValueError(f"unknown coordinate constraint {c!r}")
    values = {i: np.asarray(c[1], dtype=float).reshape(-1) for i, c in items if c[0] == _VALUES}

    def term(i, c):  # the distance along coordinate i, up to sign (it is squared)
        if c[0] == _VALUES:  # min over |x_i - v|, each >= +0 or NaN, so in any order
            first, *rest = values[i]

            def values_dist(x):
                xi = x[..., i]
                d = abs(xi - first)
                for v in rest:
                    d = np.minimum(d, abs(xi - v))
                return d
            return values_dist
        if c[0] == _ANGLE:
            return lambda x: circle_distance(x[..., i], c[1], c[2])
        lo, hi = np.float64(c[1]), np.float64(c[2])
        if lo == hi:  # x - lo squares to the square of _interval_dist(x, lo, lo)
            return lambda x: x[..., i] - lo
        return lambda x: _interval_dist(x[..., i], lo, hi)

    terms = [term(i, c) for i, c in items]

    def dist(x):  # the terms add in quadrature, in coordinate order
        total = None
        for t in terms:
            d = t(x)
            total = d * d if total is None else total + d * d
        return np.zeros(x.shape[:-1]) if total is None else np.sqrt(total)

    def sample(rng, n, window):
        if window is None:
            window = Window.cube(dim, 1.0)
        pts = window.uniform(rng, n)
        for i, c in items:
            if c[0] == _INTERVAL:
                lo = max(c[1], window.lo[i])
                hi = min(c[2], window.hi[i])
                if lo > hi:
                    lo, hi = c[1], c[2]  # constraint wins over window
                pts[:, i] = rng.uniform(lo, hi, size=n) if hi > lo else lo
            elif c[0] == _VALUES:
                pts[:, i] = rng.choice(values[i], size=n)
            else:
                pts[:, i] = c[1]
        return pts

    def project(x):
        out = np.array(x, dtype=float, copy=True)
        for i, c in items:
            xi = out[..., i]
            if c[0] == _INTERVAL:
                out[..., i] = np.clip(xi, c[1], c[2])
            elif c[0] == _VALUES:
                out[..., i] = values[i][np.argmin(np.abs(xi[..., None] - values[i]), axis=-1)]
            else:
                out[..., i] = _project_angle(xi, c[1], c[2])
        return out

    bounded = len(items) == dim and all(
        (c[0] == _INTERVAL and np.isfinite(c[1]) and np.isfinite(c[2])) or c[0] == _VALUES
        for _, c in items
    )
    desc = {"type": "coords", "dim": dim, "constraints": {str(i): list(c) for i, c in items}}
    return ClosedSet(
        dim, dist, descriptor=desc,
        sample=sample, project=project, bounded=bounded, name=name or "coords",
    )


def _project_angle(xi, theta0, period):
    # nearest representative of theta0 (mod period) on the real line
    k = np.round((xi - theta0) / period)
    return theta0 + k * period


def point_set(p, *, name: str = "") -> ClosedSet:
    """Singleton {p}."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    dim = p.size

    def dist(x):
        return _norm(x - p)

    desc = {"type": "point", "at": p.tolist()}
    return ClosedSet(
        dim, dist, descriptor=desc, bounded=True, name=name or "point",
        sample=lambda rng, n, window: np.tile(p, (n, 1)),
        project=lambda x: np.broadcast_to(p, np.asarray(x).shape).copy(),
    )


def box_set(bounds, *, name: str = "") -> ClosedSet:
    """Axis-aligned box given per-coordinate [lo, hi] (infinities allowed)."""
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"box bounds must be a list of [lo, hi] pairs, got {bounds!r}")
    cons = {i: (_INTERVAL, float(arr[i, 0]), float(arr[i, 1])) for i in range(arr.shape[0])}
    s = coords_set(arr.shape[0], cons, name=name or "box")
    s.descriptor = {"type": "box", "bounds": arr.tolist()}
    return s


def full_space(dim: int) -> ClosedSet:
    def dist(x):
        return np.zeros(x.shape[:-1])

    return ClosedSet(
        dim, dist, descriptor={"type": "full", "dim": dim}, name="R^n",
        sample=lambda rng, n, window: (window or Window.cube(dim, 1.0)).uniform(rng, n),
        project=lambda x: np.array(x, dtype=float, copy=True),
    )


def empty_set(dim: int) -> ClosedSet:
    def dist(x):
        return np.full(x.shape[:-1], np.inf)

    return ClosedSet(
        dim, dist, descriptor={"type": "empty", "dim": dim}, name="empty", bounded=True,
    )


def shell_set(dim: int, coords, r_min: float, r_max: float, *, name: str = "") -> ClosedSet:
    """Points whose coordinate-block norm lies in [r_min, r_max] (a spherical
    shell cylinder; with r_min = 0 a solid ball cylinder)."""
    coords = tuple(int(i) for i in coords)
    r_min, r_max = float(r_min), float(r_max)
    if not (0 <= r_min <= r_max):
        raise ValueError("need 0 <= r_min <= r_max")

    def dist(x):
        return _interval_dist(_norm(x[..., coords]), r_min, r_max)

    def sample(rng, n, window):
        if window is None:
            window = Window.cube(dim, max(1.0, r_max))
        pts = window.uniform(rng, n)
        u = rng.normal(size=(n, len(coords)))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = rng.uniform(r_min, r_max, size=(n, 1))
        pts[:, list(coords)] = u * radii
        return pts

    def project(x):
        out = np.array(x, dtype=float, copy=True)
        blk = out[..., list(coords)]
        r = np.linalg.norm(blk, axis=-1, keepdims=True)
        target = np.clip(r, r_min, r_max)
        safe = np.where(r > 0, r, 1.0)
        scaled = np.where(r > 0, blk * target / safe, 0.0)
        if r_min > 0:
            # degenerate center: pick a fixed direction
            e = np.zeros(len(coords))
            e[0] = r_min
            scaled = np.where(r > 0, scaled, e)
        out[..., list(coords)] = scaled
        return out

    desc = {"type": "shell", "dim": dim, "coords": list(coords),
            "r_min": r_min, "r_max": r_max}
    return ClosedSet(dim, dist, descriptor=desc, sample=sample,
                     project=project, name=name or "shell")


def affine_set(A, b, *, name: str = "") -> ClosedSet:
    """Affine subspace {x : A x = b}; exact distance via the pseudoinverse."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[0] != b.size:
        raise DimensionMismatch("A and b row counts differ")
    dim = A.shape[1]
    pinv = np.linalg.pinv(A)

    def correction(x):
        resid = x @ A.T - b
        return resid @ pinv.T

    def dist(x):
        return _norm(correction(x))

    def project(x):
        return np.asarray(x, dtype=float) - correction(np.asarray(x, dtype=float))

    def sample(rng, n, window):
        if window is None:
            window = Window.cube(dim, 1.0)
        return project(window.uniform(rng, n))

    desc = {"type": "affine", "A": A.tolist(), "b": b.tolist()}
    return ClosedSet(dim, dist, descriptor=desc, sample=sample, project=project,
                     name=name or "affine")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def _same_dim(a: ClosedSet, b: ClosedSet):
    if a.dim != b.dim:
        raise DimensionMismatch(f"sets have dims {a.dim} and {b.dim}")


def _combined_kind(a: ClosedSet, b: ClosedSet, exact_result: str) -> str:
    kinds = {a.distance_kind, b.distance_kind}
    if "lower_bound" in kinds:
        return "lower_bound"
    if "declared" in kinds:
        return "declared"
    return exact_result


def intersect(a: ClosedSet, b: ClosedSet) -> ClosedSet:
    """Intersection: exact membership, distance is the max lower bound
    (exact only when one operand is the full space)."""
    _same_dim(a, b)
    if a.descriptor.get("type") == "full":
        return b
    if b.descriptor.get("type") == "full":
        return a
    da, db, ma, mb = a._distance, b._distance, a._member, b._member

    def dist(x):
        return np.maximum(da(x), db(x))

    def member(x, tol):
        return ma(x, tol) & mb(x, tol)

    def sample(rng, n, window):
        # rejection through a's sampler; workable only for fat intersections
        out, tries = [], 0
        while sum(len(o) for o in out) < n and tries < 200:
            cand = a.sample(rng, n, window)
            keep = cand[np.asarray(b.member(cand), dtype=bool)]
            if keep.size:
                out.append(keep)
            tries += 1
        if not out or sum(len(o) for o in out) < n:
            raise ValueError(f"intersection sampler starved ({a.name} & {b.name})")
        return np.concatenate(out)[:n]

    desc = {"type": "intersection", "parts": [a.to_config(), b.to_config()]}
    return ClosedSet(
        a.dim, dist, member=member, descriptor=desc,
        distance_kind=_combined_kind(a, b, "lower_bound"),
        member_tol=max(a.member_tol, b.member_tol),
        sample=sample if a.can_sample else None,
        bounded=a.bounded or b.bounded,
        name=f"({a.name} & {b.name})",
    )


def union(a: ClosedSet, b: ClosedSet) -> ClosedSet:
    """Union: distance is the min, which stays exact for exact operands."""
    _same_dim(a, b)
    da, db, ma, mb = a._distance, b._distance, a._member, b._member

    def dist(x):
        return np.minimum(da(x), db(x))

    def member(x, tol):
        return ma(x, tol) | mb(x, tol)

    sample = None
    if a.can_sample and b.can_sample:
        def sample(rng, n, window):
            na = int(rng.integers(0, n + 1))
            parts = []
            if na:
                parts.append(a.sample(rng, na, window))
            if n - na:
                parts.append(b.sample(rng, n - na, window))
            return np.concatenate(parts) if parts else np.empty((0, a.dim))

    project = None
    if a.can_project and b.can_project:
        def project(x):
            pa, pb = a.project(x), b.project(x)
            pick = (a.distance(x) <= b.distance(x))[..., None]
            return np.where(pick, pa, pb)

    desc = {"type": "union", "parts": [a.to_config(), b.to_config()]}
    return ClosedSet(
        a.dim, dist, member=member, descriptor=desc,
        distance_kind=_combined_kind(a, b, "exact"),
        member_tol=max(a.member_tol, b.member_tol),
        sample=sample, project=project,
        bounded=a.bounded and b.bounded,
        name=f"({a.name} | {b.name})",
    )


def product(a: ClosedSet, b: ClosedSet) -> ClosedSet:
    """Cartesian product on R^{dim_a + dim_b}; distance adds in quadrature."""
    na, nb = a.dim, b.dim
    da, db, ma, mb = a._distance, b._distance, a._member, b._member

    def dist(x):
        return np.hypot(da(x[..., :na]), db(x[..., na:]))

    def member(x, tol):
        return ma(x[..., :na], tol) & mb(x[..., na:], tol)

    sample = None
    if a.can_sample and b.can_sample:
        def sample(rng, n, window):
            wa = wb = None
            if window is not None:
                wa = Window(window.lo[:na], window.hi[:na])
                wb = Window(window.lo[na:], window.hi[na:])
            return np.hstack([a.sample(rng, n, wa), b.sample(rng, n, wb)])

    project = None
    if a.can_project and b.can_project:
        def project(x):
            return np.concatenate(
                [a.project(x[..., :na]), b.project(x[..., na:])], axis=-1
            )

    desc = {"type": "product", "parts": [a.to_config(), b.to_config()]}
    return ClosedSet(
        na + nb, dist, member=member, descriptor=desc,
        distance_kind=_combined_kind(a, b, "exact"),
        member_tol=max(a.member_tol, b.member_tol),
        sample=sample, project=project,
        bounded=a.bounded and b.bounded,
        name=f"({a.name} x {b.name})",
    )


def inflate(s: ClosedSet, c: float) -> ClosedSet:
    """Closed c-neighborhood: distance'(x) = max(0, distance(x) - c)."""
    c = float(c)
    if c <= 0:
        raise ValueError("inflation radius must be positive")
    ds, c64 = s._distance, np.float64(c)

    def dist(x):
        return np.maximum(ds(x) - c64, _ZERO)

    sample = (lambda rng, n, window: s.sample_near(rng, n, c, window)) if s.can_sample else None

    project = None
    if s.can_project:
        def project(x):
            x = np.asarray(x, dtype=float)
            d = s.distance(x)
            p = s.project(x)
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(d > c, (d - c) / np.where(d > 0, d, 1.0), 0.0)
            return x - (x - p) * frac[..., None]

    desc = {"type": "inflation", "of": s.to_config(), "c": c}
    return ClosedSet(
        s.dim, dist, descriptor=desc,
        distance_kind=s.distance_kind, member_tol=s.member_tol,
        sample=sample, project=project, bounded=s.bounded,
        name=f"B[{c}]({s.name})",
    )


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------


def set_from_config(cfg: dict) -> ClosedSet:
    """Rebuild a built-in set from its descriptor dictionary."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a set descriptor must be a JSON object, got {cfg!r}")
    kind = cfg.get("type")
    if kind == "point":
        return point_set(cfg["at"])
    if kind == "box":
        return box_set(cfg["bounds"])
    if kind == "full":
        return full_space(int(cfg["dim"]))
    if kind == "empty":
        return empty_set(int(cfg["dim"]))
    if kind == "shell":
        return shell_set(int(cfg["dim"]), cfg["coords"], cfg["r_min"], cfg["r_max"])
    if kind == "affine":
        return affine_set(cfg["A"], cfg["b"])
    if kind == "coords":
        cons = cfg["constraints"]
        if not isinstance(cons, dict):
            raise ValueError(f"coords constraints must be a JSON object, got {cons!r}")
        return coords_set(int(cfg["dim"]), {int(i): tuple(c) for i, c in cons.items()})
    if kind == "intersection":
        a, b = (set_from_config(p) for p in cfg["parts"])
        return intersect(a, b)
    if kind == "union":
        a, b = (set_from_config(p) for p in cfg["parts"])
        return union(a, b)
    if kind == "product":
        a, b = (set_from_config(p) for p in cfg["parts"])
        return product(a, b)
    if kind == "inflation":
        return inflate(set_from_config(cfg["of"]), cfg["c"])
    raise ValueError(f"cannot rebuild set of type {kind!r} from config")

