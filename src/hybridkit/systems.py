"""Built-in catalog of concrete hybrid systems with their canonical target sets.

The centerpiece is the adaptive period-estimation observer for a sinusoid of
unknown angular frequency: a 7-dimensional embedding with state
(chi1, chi2, chihat1, chihat2, q, T, tau) where chi is the plant, chihat the
estimate, q the +-1 logic variable, T the period estimate and tau the timer.
Flow rotates the plant and runs a Luenberger-style estimator built from the
current period estimate; a jump fires when q*y crosses -sigma, flips q to
sign(y), resets the timer, and blends T toward twice the measured half-period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .composition import CascadeSpec, build_cascade
from .core import HybridArc, HybridSystem
from .errors import InvalidParams, UndefinedAtPoint
from .geometry import (
    ClosedSet,
    Window,
    _ZERO,
    _norm,
    coords_set,
    empty_set,
    full_space,
    intersect,
    point_set,
    shell_set,
    union,
)
from .solver import _real

TWO_PI = 2.0 * math.pi

# state layout of the observer embedding
CHI = slice(0, 2)
CHIHAT = slice(2, 4)
Q_IDX = 4
T_IDX = 5
TAU_IDX = 6


# ---------------------------------------------------------------------------
# observer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObserverParams:
    """Plant frequency, its known bounds, amplitude bounds, threshold, blend."""

    omega: float = 1.5
    omega_m: float = 1.0
    omega_M: float = 3.0
    chi_m: float = 1.0
    chi_M: float = 3.0
    sigma: float = 0.25
    lam: float = 0.5

    def __post_init__(self):
        for k, v in self.to_config().items():
            try:
                _real(f"observer parameter {k}", v)
            except ValueError as exc:
                raise InvalidParams(str(exc)) from None
        if not (0 < self.omega_m < self.omega < self.omega_M):
            raise InvalidParams("need 0 < omega_m < omega < omega_M")
        if not (0 < self.sigma < self.chi_m <= self.chi_M):
            raise InvalidParams("need 0 < sigma < chi_m <= chi_M")
        if not (0 <= self.lam < 1):
            raise InvalidParams("need 0 <= lam < 1")

    @property
    def t_min(self) -> float:
        return TWO_PI / self.omega_M

    @property
    def t_max_period(self) -> float:
        return TWO_PI / self.omega_m

    @property
    def tau_cap(self) -> float:
        return math.pi / self.omega_m

    @property
    def period(self) -> float:
        return TWO_PI / self.omega

    def to_config(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def h_frak(chi, sigma: float):
    """Sign-of-next-crossing selector on the plant plane.

    -1 when chi1 >= sigma or (|chi1| < sigma and chi2 > 0), +1 when
    chi1 <= -sigma or (|chi1| < sigma and chi2 < 0); undefined on the segment
    |chi1| < sigma, chi2 = 0.
    """
    chi = np.asarray(chi, dtype=float)
    c1 = chi[..., 0]
    c2 = chi[..., 1]
    strip = np.abs(c1) < sigma
    undefined = strip & (c2 == 0.0)
    if np.any(undefined):
        raise UndefinedAtPoint(
            f"selector undefined at chi with |chi1| < sigma and chi2 = 0 "
            f"(sigma = {sigma})"
        )
    minus = (c1 >= sigma) | (strip & (c2 > 0))
    out = np.where(minus, -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _advanced(chi, tau, p: ObserverParams):
    """Both components of exp(S (pi/omega - tau)) chi.  The first, H times it,
    is the rotating part of the synchronization residual (the full residual
    subtracts h_frak(chi) * sigma); the sign of the second identifies which
    threshold crossing the timer is synchronized to."""
    chi = np.asarray(chi, dtype=float)
    a = math.pi - p.omega * np.asarray(tau, dtype=float)
    cos_a, sin_a = np.cos(a), np.sin(a)
    return cos_a * chi[..., 0] - sin_a * chi[..., 1], sin_a * chi[..., 0] + cos_a * chi[..., 1]


def rho(chi, tau, p: ObserverParams):
    """Synchronization residual; constant along flow, zero once the timer is
    locked to half-periods."""
    return _advanced(chi, tau, p)[0] - h_frak(chi, p.sigma) * p.sigma


def _rho_of_state(x, p: ObserverParams):
    """Residual evaluated along embedded states with the logic variable q
    standing in for the selector (h_frak(chi) = -q along properly operating
    solutions).  Unlike the raw selector, q is continuous across the jump
    boundary, which keeps the surrogate well defined on located event samples."""
    x = np.asarray(x, dtype=float)
    return _advanced(x[..., CHI], x[..., TAU_IDX], p)[0] + x[..., Q_IDX] * p.sigma


def _valid_tau_roots(chi, q: float, p: ObserverParams) -> np.ndarray:
    """Timer values in [0, pi/omega] solving the synchronization equation with
    selector value -q, on the threshold crossing that q names."""
    chi = np.asarray(chi, dtype=float)
    r = float(np.linalg.norm(chi))
    if r < p.sigma:
        return np.empty(0)
    gamma = math.acos(max(-1.0, min(1.0, -q * p.sigma / r)))
    phi = math.atan2(chi[1], chi[0])
    period, roots = p.period, []
    for s in (gamma, -gamma):
        base = (math.pi + phi - s) / p.omega
        m_lo = math.floor((base - p.tau_cap) / period) - 1
        m_hi = math.floor(base / period) + 1
        for m in range(m_lo, m_hi + 1):
            tau = base - m * period
            if -1e-12 <= tau <= p.tau_cap + 1e-12:
                roots.append(min(max(tau, 0.0), p.tau_cap))
    return np.asarray([t for t in np.unique(np.asarray(roots))
                       if t <= math.pi / p.omega + 1e-12
                       and q * _advanced(chi, t, p)[1] >= -1e-9])


def _plant_draws(rng: np.random.Generator, n: int, p: ObserverParams) -> np.ndarray:
    """``n`` plant states, uniform in angle and in radius over the amplitude shell."""
    ang = rng.uniform(0.0, TWO_PI, n)
    rad = rng.uniform(p.chi_m, p.chi_M, n)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def xi_space(p: ObserverParams) -> ClosedSet:
    """State space Xi: amplitude shell x free estimate x {-1,1} x period and
    timer intervals."""
    shell = shell_set(7, (0, 1), p.chi_m, p.chi_M, name="amplitude-shell")
    rest = coords_set(7, {
        Q_IDX: ("values", (-1.0, 1.0)),
        T_IDX: ("interval", p.t_min, p.t_max_period),
        TAU_IDX: ("interval", 0.0, p.tau_cap),
    }, name="logic-period-timer")
    xi = intersect(shell, rest)
    xi.name = "Xi"
    return xi


def _threshold_sets(p: ObserverParams) -> tuple[ClosedSet, ClosedSet]:
    sigma = np.float64(p.sigma)

    def flow_dist(x):  # qy >= -sigma
        return np.maximum(-(x[..., Q_IDX] * x[..., 0] + sigma), _ZERO)

    def jump_dist(x):  # |y| >= sigma and qy <= -sigma
        y = x[..., 0]
        return np.maximum(-np.minimum(abs(y) - sigma, -(x[..., Q_IDX] * y + sigma)), _ZERO)

    flow_half = ClosedSet(
        7,
        flow_dist,
        descriptor={"type": "custom", "name": "qy >= -sigma"},
        distance_kind="declared",
        name="qy>=-sigma",
    )
    jump_half = ClosedSet(
        7,
        jump_dist,
        descriptor={"type": "custom", "name": "|y| >= sigma, qy <= -sigma"},
        distance_kind="declared",
        name="qy<=-sigma",
    )
    return flow_half, jump_half


def build_observer(p: ObserverParams | None = None) -> HybridSystem:
    """Closed loop of the rotating plant and the adaptive period estimator."""
    p = p or ObserverParams()
    om = p.omega
    lam = p.lam
    xi = xi_space(p)
    flow_half, jump_half = _threshold_sets(p)

    def flow(x):
        # one read of the state; Python floats round as numpy's scalars do
        chi1, chi2, ch1, ch2, _, T, _ = x.tolist()
        w_hat = TWO_PI / T if T else math.copysign(math.inf, T)  # numpy's 2*pi/0
        gain = 2.0 * w_hat  # 4*pi/T
        y = chi1
        return np.array([
            -om * chi2,
            om * chi1,
            -w_hat * ch2 + gain * (y - ch1),
            w_hat * ch1,
            0.0,
            0.0,
            1.0,
        ])

    # a second map for rows: one-state calls are fastest through the tolist() read
    def flow_batch(x):
        w_hat = TWO_PI / x[:, T_IDX]
        out = np.zeros_like(x)
        out[:, 0] = -om * x[:, 1]
        out[:, 1] = om * x[:, 0]
        out[:, 2] = -w_hat * x[:, 3] + 2.0 * w_hat * (x[:, 0] - x[:, 2])
        out[:, 3] = w_hat * x[:, 2]
        out[:, TAU_IDX] = 1.0
        return out

    def jump(x):
        y = x[0]
        if abs(y) < p.sigma * 0.5:
            raise UndefinedAtPoint(
                f"jump map queried at |y| = {abs(y):.3e} < sigma/2"
            )
        out = np.array(x, dtype=float)
        out[Q_IDX] = math.copysign(1.0, y)
        out[T_IDX] = lam * x[T_IDX] + (1.0 - lam) * 2.0 * x[TAU_IDX]
        out[TAU_IDX] = 0.0
        return out

    def state_sampler(rng: np.random.Generator, n: int):
        pts = np.empty((n, 7))
        pts[:, CHI] = _plant_draws(rng, n, p)
        pts[:, 2:4] = rng.uniform(-p.chi_M, p.chi_M, (n, 2))
        pts[:, Q_IDX] = rng.choice([-1.0, 1.0], n)
        pts[:, T_IDX] = rng.uniform(p.t_min, p.t_max_period, n)
        pts[:, TAU_IDX] = rng.uniform(0.0, p.tau_cap, n)
        return pts

    return HybridSystem(
        dim=7,
        flow_set=intersect(xi, flow_half),
        flow_map=flow,
        jump_set=intersect(xi, jump_half),
        jump_map=jump,
        name="observer",
        state_sampler=state_sampler,
        discrete_coords=(Q_IDX,),
        flow_map_batch=flow_batch,
    )


def gamma_sets(p: ObserverParams | None = None) -> tuple[ClosedSet, ClosedSet, ClosedSet]:
    """The nested targets: timer-synchronized set, correct-period subset, and
    the compact synchronized-estimate core (returned innermost first).

    Distances are declared surrogates built from the defining residuals; they
    are exact in the coordinates that matter on the next set of the chain.
    """
    p = p or ObserverParams()
    xi = xi_space(p)
    pi, omega, sigma, period, late = (
        np.float64(v) for v in (math.pi, p.omega, p.sigma, p.period, math.pi / p.omega))

    def resid_rho(x):
        """Norm of the violations (residual, jump-set-interior excess, crossing
        branch, late timer) that vanish together on the synchronized core; each
        is flow-constant and preserved by jumps taken on the threshold."""
        tau, q = x[..., TAU_IDX], x[..., Q_IDX]
        a = pi - omega * tau
        cos_a, sin_a = np.cos(a), np.sin(a)
        r = np.empty(x.shape[:-1] + (4,))
        r[..., 0] = abs(cos_a * x[..., 0] - sin_a * x[..., 1] + q * sigma)
        r[..., 1] = np.maximum(_ZERO, -(q * x[..., 0] + sigma))
        r[..., 2] = np.maximum(_ZERO, -q * (sin_a * x[..., 0] + cos_a * x[..., 1]))
        r[..., 3] = np.maximum(_ZERO, tau - late)
        return _norm(r)

    def resid_T(x):
        return abs(x[..., T_IDX] - period)

    def resid_est(x):
        return _norm(x[..., CHIHAT] - x[..., CHI])

    distances = {
        1: resid_rho,
        2: lambda x: np.hypot(resid_rho(x), resid_T(x)),
        3: lambda x: np.sqrt(resid_rho(x) ** 2 + resid_T(x) ** 2 + resid_est(x) ** 2),
    }
    xi_member = xi._member

    def target(level: int) -> ClosedSet:
        """Xi points with the first ``level`` residuals zero: from level 2 the
        period is correct, at level 3 the estimate is locked to the plant."""
        resids = (resid_rho, resid_T, resid_est)[:level]

        def member(x, tol):
            ok = np.asarray(xi_member(x, tol), dtype=bool)
            for r in resids:
                ok = ok & (r(x) <= tol)
            return ok

        def sample(rng: np.random.Generator, n: int, window=None):
            rows, tries = [], 0
            while len(rows) < n and tries < 200:
                for c in _plant_draws(rng, max(n, 8), p):
                    q = float(rng.choice([-1.0, 1.0]))
                    if q * c[0] < -p.sigma:
                        q = -q  # keep the draw out of the jump-set interior
                    roots = _valid_tau_roots(c, q, p)
                    if roots.size == 0:
                        continue
                    tau = float(roots[rng.integers(0, roots.size)])
                    T = period if level > 1 else float(rng.uniform(p.t_min, p.t_max_period))
                    chihat = c if level > 2 else rng.uniform(-p.chi_M, p.chi_M, 2)
                    rows.append(np.concatenate([c, chihat, [q, T, tau]]))
                tries += 1
            if len(rows) < n:
                raise ValueError("synchronized-set sampler starved")
            return np.asarray(rows)[:n]

        def project(x):
            out = np.array(x, dtype=float)
            for row in out.reshape(-1, 7):
                chi = row[CHI]
                r = np.linalg.norm(chi)
                if r < 1e-12:
                    chi = np.array([p.chi_m, 0.0])
                else:
                    chi = chi * np.clip(r, p.chi_m, p.chi_M) / r
                row[CHI] = chi
                row[Q_IDX] = 1.0 if row[Q_IDX] >= 0 else -1.0
                if row[Q_IDX] * chi[0] < -p.sigma:
                    row[Q_IDX] = -row[Q_IDX]
                roots = _valid_tau_roots(chi, row[Q_IDX], p)
                if roots.size:
                    row[TAU_IDX] = roots[np.argmin(np.abs(roots - row[TAU_IDX]))]
                row[T_IDX] = period if level > 1 else np.clip(row[T_IDX], p.t_min, p.t_max_period)
                if level > 2:
                    row[CHIHAT] = chi
            return out

        return ClosedSet(
            7,
            distances[level],
            member=member,
            descriptor={"type": "custom", "name": ", ".join(
                ("timer-synchronized", "correct period", "locked estimate")[:level])},
            distance_kind="declared",
            member_tol=1e-7,
            sample=sample,
            project=project,
            bounded=level == 3,
            name=f"gamma{4 - level}",
        )

    return target(3), target(2), target(1)


@dataclass
class ObserverDiagnostics:
    """Per-sample error tracks plus the jump-indexed estimate sequence."""

    t: np.ndarray
    j: np.ndarray
    eta1_norm: np.ndarray
    eta2: np.ndarray
    tau: np.ndarray
    rho: np.ndarray
    jump_times: np.ndarray
    tau_at_jumps: np.ndarray
    eta2_after_jumps: np.ndarray


def estimator_diagnostics(arc: HybridArc, p: ObserverParams | None = None) -> ObserverDiagnostics:
    """eta1 = chi - chihat and eta2 = T - 2*pi/omega along the arc."""
    p = p or ObserverParams()
    t, j, x = arc.table()
    jumps = list(arc.jump_transitions())
    return ObserverDiagnostics(
        t, j, np.linalg.norm(x[:, CHIHAT] - x[:, CHI], axis=1), x[:, T_IDX] - p.period,
        x[:, TAU_IDX], _rho_of_state(x, p), np.asarray([tj for tj, *_ in jumps]),
        np.asarray([pre[TAU_IDX] for *_, pre, _ in jumps]),
        np.asarray([post[T_IDX] - p.period for *_, post in jumps]),
    )


# ---------------------------------------------------------------------------
# the rest of the catalog
# ---------------------------------------------------------------------------


def smoothstep_bump(s):
    """C1 bump: 0 for |s| <= 1, 1 for |s| >= 2, cubic smoothstep between."""
    u = np.clip(np.abs(s) - 1.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


#: where circles' state sampler draws, and its fixture's sampling window
_CIRCLES_WINDOW = Window.from_bounds([[-1.5, 1.5]] * 3 + [[-1.0, 1.0]])


def _circles_system() -> HybridSystem:
    # planar rotation whose direction flag q keeps x1 sign-consistent; hitting
    # {x1 = 0} toggles q and halves x3
    c = union(
        coords_set(4, {0: ("interval", 0.0, np.inf), 3: ("values", (1.0,))}),
        coords_set(4, {0: ("interval", -np.inf, 0.0), 3: ("values", (-1.0,))}),
    )
    c.name = "sign-consistent"
    d = coords_set(4, {0: ("interval", 0.0, 0.0), 3: ("values", (-1.0, 1.0))},
                   name="toggle-plane")

    def flow(x):
        # one read of the state; Python floats round as numpy's scalars do
        x1, x2, x3, q = x.tolist()
        try:
            square = x1 ** 2  # libm's pow, as numpy's scalar power calls it
        except OverflowError:  # where numpy's scalar power overflows to inf
            square = math.inf
        return np.array([q * x2, -q * x1, square - x3, 0.0])

    # a second map for rows: over x.T the one-state call is slower, and toggle makes many
    def flow_batch(x):
        x1, x2, x3, q = x.T
        return np.stack([q * x2, -q * x1, x1 ** 2 - x3, np.zeros_like(q)], axis=1)

    def jump(x):
        x1, x2, x3, q = x.tolist()
        return np.array([x1, x2, 0.5 * x3, -q])

    def state_sampler(rng, n):
        pts = _CIRCLES_WINDOW.uniform(rng, n)
        q = rng.choice([-1.0, 1.0], n)
        pts[:, 3] = q
        pts[:, 0] = q * np.abs(pts[:, 0])
        return pts

    return HybridSystem(4, c, flow, d, jump, name="circles", state_sampler=state_sampler,
                        discrete_coords=(3,), flow_map_batch=flow_batch)


def _flow_only(dim: int, flow, flow_batch, name: str) -> HybridSystem:
    """A system that flows everywhere and never jumps."""
    return HybridSystem(dim, full_space(dim), flow, empty_set(dim), lambda x: x, name=name,
                        flow_map_batch=flow_batch)


# each flow-only fixture's flow map: one function serves one state and rows
# of states, as x.T unpacks into scalars or columns


def _limit_circles_flow(x):
    x1, x2, x3 = x.T
    s = x2 ** 2 + x3 ** 2
    return np.array([-s * x2, s * x1, -x3 ** 3]).T


def _sigma_bump_flow(x):
    x1, x2 = x.T
    b = smoothstep_bump(x1)
    return np.array([-x1 * (1.0 - b) + x2 ** 2, b * x2]).T


# polar keeps a second map for rows: over x.T its one-state call is 4x slower
def _polar_flow(x):
    # angle theta wraps mod 2*pi; its target sets use the circle metric
    return np.array([math.sin(x[0] / 2.0) ** 2 + (1.0 - x[1]) ** 2, 0.0])


def _polar_flow_batch(x):
    theta, r = x.T
    return np.stack([np.sin(theta / 2.0) ** 2 + (1.0 - r) ** 2, np.zeros_like(r)], axis=1)


def _cascade_ex1_spec() -> CascadeSpec:
    return CascadeSpec(
        n1=1, n2=1,
        f1=lambda x1, x2: np.array([1.0]),
        f2=lambda x2: np.asarray(x2, dtype=float),
        g1=lambda x1, x2: np.asarray(x1, dtype=float),
        g2=lambda x2: np.asarray(x2, dtype=float),
        c1=coords_set(1, {0: ("interval", 1.0, 1.0)}, name="{1}"),
        c2=full_space(1),
        d1=empty_set(1),
        d2=empty_set(1),
        name="cascade-ex1",
    )


def _lti_system(a_matrix, name: str) -> HybridSystem:
    a = np.asarray(a_matrix, dtype=float)
    flow = lambda x: x @ a.T  # one state or rows of states
    return _flow_only(a.shape[0], flow, flow, name)


@dataclass
class Fixture:
    """A catalog entry: system, canonical target sets, sampling window, presets."""

    name: str
    system: HybridSystem
    gammas: dict[str, ClosedSet]
    window: Window
    presets: dict[str, np.ndarray] = field(default_factory=dict)
    solver_overrides: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    output: Callable | None = None
    notes: str = ""


def observer_fixture(params: ObserverParams | None = None) -> Fixture:
    p = params or ObserverParams()
    system = build_observer(p)
    g1, g2, g3 = gamma_sets(p)
    w_shell = shell_set(7, (0, 1), p.chi_m, p.chi_M, name="amplitude-shell")
    window = Window.from_bounds(
        [[-p.chi_M, p.chi_M]] * 4 + [[-1, 1],
                                     [p.t_min, p.t_max_period],
                                     [0.0, p.tau_cap]]
    )
    fig3 = np.array([2.0, 0.0, 0.0, 0.0, 1.0, 2.5, 0.0])
    return Fixture(
        name="observer",
        system=system,
        gammas={"gamma1": g1, "gamma2": g2, "gamma3": g3, "w-shell": w_shell},
        window=window,
        presets={"fig3": fig3},
        solver_overrides={
            "t_max": 30.0, "rtol": 1e-12, "atol": 1e-14,
            "event_tol": 1e-10, "max_step": 0.1, "store_max_dt": 0.02,
        },
        params=p.to_config(),
        output=lambda x: np.array([x[0]]),
        notes="adaptive half-period estimator; preset fig3 reproduces the "
              "reference trajectory",
    )


def catalog(observer_params: ObserverParams | None = None) -> dict[str, Fixture]:
    """All built-in fixtures, keyed by their CLI names."""
    fixtures: dict[str, Fixture] = {}

    fixtures["observer"] = observer_fixture(observer_params)

    circles = _circles_system()
    fixtures["circles"] = Fixture(
        name="circles",
        system=circles,
        gammas={
            "gamma1": coords_set(4, {0: ("interval", 0.0, 0.0),
                                     2: ("interval", 0.0, 0.0),
                                     3: ("values", (-1.0, 1.0))}, name="gamma1"),
            "gamma2": coords_set(4, {0: ("interval", 0.0, 0.0),
                                     3: ("values", (-1.0, 1.0))}, name="gamma2"),
        },
        window=_CIRCLES_WINDOW,
        presets={"default": np.array([1.0, 0.0, 1.0, 1.0])},
        solver_overrides={"t_max": 25.0, "store_max_dt": 0.01},
        output=lambda x: np.array([x[0]]),
        notes="rotation with direction toggle; x3 halves at each toggle",
    )

    spec = _cascade_ex1_spec()
    fixtures["cascade-ex1"] = Fixture(
        name="cascade-ex1",
        # F = (1, x2), one row per state; the spec's blocks take one state
        system=replace(build_cascade(spec), flow_map_batch=lambda x: np.stack(
            [np.ones(len(x)), x[:, 1]], axis=1)),
        gammas={"origin": point_set([0.0, 0.0], name="origin")},
        window=Window.from_bounds([[0.0, 2.0], [-2.0, 2.0]]),
        presets={"default": np.array([1.0, 0.7])},
        notes="flow pushes x1 off the singleton flow set: solutions are "
              "single points",
    )

    fixtures["polar"] = Fixture(
        name="polar",
        system=_flow_only(2, _polar_flow, _polar_flow_batch, "polar"),
        gammas={
            "gamma1": coords_set(2, {0: ("angle", 0.0, TWO_PI),
                                     1: ("interval", 1.0, 1.0)}, name="gamma1"),
            "gamma2": coords_set(2, {1: ("interval", 1.0, 1.0)}, name="gamma2"),
        },
        window=Window.from_bounds([[0.0, TWO_PI], [0.25, 2.0]]),
        presets={"default": np.array([2.0, 1.0])},
        solver_overrides={"t_max": 80.0},
        notes="angular coordinate wraps mod 2*pi; target distances use the "
              "circle metric",
    )

    fixtures["sigma-bump"] = Fixture(
        name="sigma-bump",
        system=_flow_only(2, _sigma_bump_flow, _sigma_bump_flow, "sigma-bump"),
        gammas={
            "origin": point_set([0.0, 0.0], name="origin"),
            "gamma1": point_set([0.0, 0.0], name="gamma1"),
            "gamma2": coords_set(2, {1: ("interval", 0.0, 0.0)}, name="gamma2"),
            "x1-axis": coords_set(2, {1: ("interval", 0.0, 0.0)}, name="x1-axis"),
        },
        window=Window.from_bounds([[-0.8, 0.8], [-0.8, 0.8]]),
        presets={"default": np.array([0.5, 0.3])},
        notes="nonlinearity switches off the x1 contraction away from the "
              "origin and releases x2 growth",
    )

    fixtures["limit-circles"] = Fixture(
        name="limit-circles",
        system=_flow_only(3, _limit_circles_flow, _limit_circles_flow, "limit-circles"),
        gammas={
            "gamma1": coords_set(3, {1: ("interval", 0.0, 0.0),
                                     2: ("interval", 0.0, 0.0)}, name="gamma1"),
            "x2x3-axis": coords_set(3, {1: ("interval", 0.0, 0.0),
                                        2: ("interval", 0.0, 0.0)},
                                    name="x2x3-axis"),
            "gamma2": coords_set(3, {2: ("interval", 0.0, 0.0)}, name="gamma2"),
        },
        window=Window.from_bounds([[-1.2, 1.2], [-1.2, 1.2], [0.2, 1.0]]),
        presets={"default": np.array([1.0, 0.0, 0.8])},
        solver_overrides={"t_max": 60.0, "store_max_dt": 0.004},
        output=lambda x: np.array([x[2]]),
        notes="planar phase circulates forever while x3 decays algebraically; "
              "limit sets are whole circles",
    )

    fixtures["drift-line"] = Fixture(
        name="drift-line",
        system=_lti_system([[0.0, 1.0], [0.0, 0.0]], "drift-line"),
        gammas={
            "origin": point_set([0.0, 0.0], name="origin"),
            "gamma2": coords_set(2, {1: ("interval", 0.0, 0.0)}, name="gamma2"),
        },
        window=Window.from_bounds([[-1.0, 1.0], [-1.0, 1.0]]),
        presets={"default": np.array([0.0, 0.5])},
        notes="x2 is a frozen drift rate for x1",
    )

    fixtures["settle-line"] = Fixture(
        name="settle-line",
        system=_lti_system([[-1.0, 1.0], [0.0, 0.0]], "settle-line"),
        gammas={
            "origin": point_set([0.0, 0.0], name="origin"),
            "gamma2": coords_set(2, {1: ("interval", 0.0, 0.0)}, name="gamma2"),
        },
        window=Window.from_bounds([[-1.0, 1.0], [-1.0, 1.0]]),
        presets={"default": np.array([0.5, 0.2])},
        notes="x1 settles onto the frozen x2 level",
    )

    fixtures["contraction"] = Fixture(
        name="contraction",
        system=_lti_system([[-1.0]], "contraction"),
        gammas={"origin": point_set([0.0], name="origin")},
        window=Window.from_bounds([[-10.0, 10.0]]),
        presets={"default": np.array([1.0])},
        notes="scalar exponential decay, the simplest oracle fixture",
    )

    return fixtures
