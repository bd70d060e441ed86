"""Hybrid solver: event-located flow integration plus jump application.

Flow intervals are integrated by the adaptive Dormand-Prince 5(4) pair with
its quartic dense output (``_dopri5``).  Its tableau, initial step, RMS error
norm and step controller are those of Hairer, Norsett & Wanner, *Solving ODEs
I*, Sec. II.4-II.6, written operation for operation as scipy's ``RK45`` does
them, so the two produce the same bits (``tests/test_stepper.py`` keeps scipy
as the oracle).  Everything hybrid -- flow-set exit location, jump
application, flow/jump priority on C n D, horizons, and the Zeno guard -- is
implemented here too.  Each accepted step's stored samples are also its exit
probes (one batched flow-set membership call per run of up to 16 steps) and
are kept as one block per step, concatenated once per flow interval; an
exit is located by bisecting membership on the dense output after the first
sample outside C, which subsumes sign bisection of a scalar guard and also
copes with band sets and boundary starts.

Determinism contract: identical (system, x0, config) produce bitwise-identical
arcs; no randomness is involved anywhere in the solve path.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace as _dc_replace
from typing import NamedTuple

import numpy as np

from .core import HybridArc, HybridSystem, Termination
from .errors import (
    DimensionMismatch,
    FlowMapEvaluationFailure,
    InitialConditionOutsideCD,
)

_MIN_SUBDIV = 6  # stored samples (the exit probes) per step, besides the dt cap
_LOOKAHEAD = 16  # most accepted steps whose probes share one membership call


class Priority(enum.Enum):
    JUMP = "jump"
    FLOW = "flow"


@dataclass(frozen=True)
class SolverConfig:
    """Step control, event tolerance, horizons, priority, and Zeno guards.

    ``zeno_k`` consecutive flow intervals shorter than ``zeno_dt_min`` trip the
    Zeno guard.  Stored sample spacing is at most ``store_max_dt`` and at most
    one sixth of each accepted integrator step, which bounds the
    finite-difference residual floor seen by the independent solution checker;
    the stored samples are also the exit probes, so it is the exit-detection grid,
    tested by one batched membership call per run of up to 16 steps.
    """

    t_max: float = 50.0
    j_max: int = 200
    priority: Priority = Priority.JUMP
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float | None = None  # None -> 0.01 * t_max
    event_tol: float = 1e-10
    zeno_k: int = 50
    zeno_dt_min: float = 1e-7
    tol_set: float = 1e-9
    store_max_dt: float = 0.05

    def __post_init__(self):
        # the comparisons are False for NaN, and the upper bound rejects inf
        for field_name in ("t_max", "rtol", "atol", "event_tol", "tol_set",
                           "store_max_dt", "max_step"):
            value = getattr(self, field_name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{field_name} must be finite and strictly positive")
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")
        if self.zeno_k < 1 or not 0 <= self.zeno_dt_min < math.inf:
            raise ValueError("invalid zeno window")
        if isinstance(self.priority, str):
            object.__setattr__(self, "priority", Priority(self.priority))

    @property
    def effective_max_step(self) -> float:
        return self.max_step if self.max_step is not None else 0.01 * self.t_max

    def replace(self, **kw) -> "SolverConfig":
        return _dc_replace(self, **kw)

    def to_config(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["priority"] = self.priority.value
        return d

    @staticmethod
    def from_config(cfg: dict) -> "SolverConfig":
        cfg = dict(cfg)
        if "priority" in cfg:
            cfg["priority"] = Priority(cfg["priority"])
        return SolverConfig(**cfg)


@dataclass
class _FlowEnd:
    reason: str  # "exit" | "horizon" | "failed"
    t: float
    x: np.ndarray
    bracket_gap: float = 0.0


# Dormand-Prince 5(4): stage matrix, 5th-order weights, error weights (5th minus
# 4th order, last entry for the first-same-as-last stage) and Shampine's
# quartic dense-output coefficients for the optimal c6.  The literals are
# scipy's, so every coefficient rounds to the same double.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY = 0.9      # multiplies the asymptotically optimal step factor
_MIN_FACTOR = 0.2  # largest decrease of a rejected step
_MAX_FACTOR = 10   # largest increase of an accepted step
_ERROR_EXPONENT = -1 / 5
_A_ROWS = [_A[s, :s] for s in range(1, 6)]
_RTOL_MIN = 100 * float(np.finfo(float).eps)


class _Step(NamedTuple):
    """One accepted step from (t_old, y_old) to (t, y).

    ``Q`` holds the dense-output coefficients; it is None for a step of zero
    length, whose output is the constant ``y``.
    """

    t_old: float
    t: float
    y_old: np.ndarray
    y: np.ndarray
    Q: np.ndarray | None


def _rms(v: np.ndarray):
    return np.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(flow, y0, f0, interval, max_step, rtol, atol):
    """Starting step size from one explicit Euler probe (HNW Sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((flow(y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _dopri5(flow, t: float, y: np.ndarray, f: np.ndarray, t_bound: float,
            rtol: float, atol: float, max_step: float):
    """Accepted Dormand-Prince 5(4) steps from (t, y) forward to t_bound >= t.

    ``flow(y)`` returns the derivative of state ``y``; ``f`` is ``flow(y)``,
    the first stage.  Yields one _Step per accepted step and stops after the
    step that reaches t_bound; yields None and stops when the step size falls
    below ten ulps of t.
    """
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state must be finite.")
    if rtol < _RTOL_MIN:
        warnings.warn(f"rtol {rtol!r} is below 100 eps; using {_RTOL_MIN!r}",
                      stacklevel=4)
        rtol = _RTOL_MIN
    if t == t_bound:
        yield _Step(t, t, y, y, None)
        return
    h_abs = _initial_step(flow, y, f, abs(t_bound - t), max_step, rtol, atol)
    K = np.empty((7, y.size))
    K[0] = f
    stages = [(K[:s].T, a) for s, a in enumerate(_A_ROWS, start=1)]
    K_lower, K_all = K[:-1].T, K.T
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                yield None
                return
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            for s, (K_s, a) in enumerate(stages, start=1):
                K[s] = flow(y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_lower, _B)
            K[-1] = flow(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K_all, _E) * h / scale)
            if error < 1:
                if error == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        yield _Step(t, t_new, y, y_new, K_all.dot(_P))
        if t_new >= t_bound:
            return
        t, y = t_new, y_new
        K[0] = K[-1]  # first same as last


def _dense(step: _Step, t):
    """The step's interpolant at a scalar time, shape (n,), or at a 1-D array
    of times, shape (n, len(t)).

    The powers of the normalised time are built by the same sequential
    products as ``np.cumprod``, so the values match scipy's dense output.
    """
    if step.Q is None:
        return step.y if np.ndim(t) == 0 else np.repeat(step.y[:, None], len(t), axis=1)
    h = step.t - step.t_old
    x = (t - step.t_old) / h
    x2 = x * x
    x3 = x2 * x
    y = h * np.dot(step.Q, np.array([x, x2, x3, x3 * x]))
    y += step.y_old[:, None] if y.ndim == 2 else step.y_old
    return y


def _grid(a: float, b: float, m: int) -> np.ndarray:
    """``np.linspace(a, b, m + 1)[1:]``, bit for bit, without its overhead."""
    k = np.arange(1.0, m + 1)
    step = (b - a) / m
    ts = k / m * (b - a) if step == 0 else k * step
    ts += a
    ts[-1] = b
    return ts


def _flow_segment(sys: HybridSystem, t0: float, x0: np.ndarray, cfg: SolverConfig):
    """Integrate the flow from (t0, x0 in C) until flow-set exit, t_max, or failure.

    Returns (stored_times, stored_states, _FlowEnd): arrays of shapes (m,) and
    (m, n), or two empty lists when nothing is stored.  The stored samples
    exclude (t0, x0) itself and end exactly at the segment end point.
    """
    member = lambda pts: np.asarray(sys.flow_set.member(pts, cfg.tol_set), dtype=bool)

    fx0 = np.asarray(sys.flow_map(x0), dtype=float)
    if fx0.shape != x0.shape:
        raise DimensionMismatch(
            f"flow map returned shape {fx0.shape} for state of shape {x0.shape}"
        )
    if not np.all(np.isfinite(fx0)):
        raise FlowMapEvaluationFailure(
            f"flow map non-finite at segment start (t={t0:.6g})"
        )

    stored: list[tuple[np.ndarray, np.ndarray]] = []  # one (ts, xs) block per step

    def samples(step: _Step, b: float) -> tuple[np.ndarray, np.ndarray]:
        # spacing tracks the integrator's own step, so the finite-difference
        # residual floor of the solution checker scales with local dynamics
        m = max(_MIN_SUBDIV, math.ceil((b - step.t_old) / cfg.store_max_dt))
        ts = _grid(step.t_old, b, m)
        return ts, _dense(step, ts).T

    def segment_end(reason: str, gap: float = 0.0):
        if not stored:  # a start at t_max, or an exit before the first sample
            return [], [], _FlowEnd(reason, t0, np.array(x0, dtype=float), gap)
        ts, xs = (np.concatenate(blocks) for blocks in zip(*stored))
        return ts, xs, _FlowEnd(reason, float(ts[-1]), xs[-1], gap)

    steps = _dopri5(sys.flow_map, t0, x0, fx0, cfg.t_max, cfg.rtol, cfg.atol,
                    cfg.effective_max_step)
    run_len = 1
    while True:
        # a run of accepted steps shares one membership call; runs double from
        # 1 up to _LOOKAHEAD, so a short segment computes few steps past its exit
        run: list[_Step] = []
        stop: str | Exception | None = None
        for _ in range(run_len):
            try:
                step = next(steps)
            except StopIteration:
                stop = "horizon"
                break
            except Exception as exc:  # re-raised unless an earlier step exits C
                stop = exc
                break
            if step is None or not np.all(np.isfinite(step.y)):
                stop = "failed"
                break
            if step.t > step.t_old:  # a start at t_max has nothing to store
                run.append(step)
        if run:
            grids = [samples(step, step.t) for step in run]  # the exit probes
            inside = member(np.concatenate([xs for _, xs in grids]))
            k = int(np.argmin(inside))  # first False, if any
            if not inside[k]:
                for step, (ts, xs) in zip(run, grids):
                    if k < len(ts):
                        break
                    k -= len(ts)
                    stored.append((ts, xs))
                # bracket the first exit and bisect membership down to
                # event_tol / 8, leaving slack in the 2*event_tol budgets downstream
                lo = step.t_old if k == 0 else float(ts[k - 1])
                hi = float(ts[k])
                tol_bis = cfg.event_tol / 8.0
                while hi - lo > tol_bis:
                    mid = 0.5 * (lo + hi)
                    if member(_dense(step, mid)):
                        lo = mid
                    else:
                        hi = mid
                if lo > step.t_old:
                    stored.append(samples(step, lo))  # stored samples end exactly at lo
                return segment_end("exit", gap=hi - lo)
            stored += grids
        if isinstance(stop, Exception):
            raise stop
        if stop is not None:
            return segment_end(stop)
        run_len = min(2 * run_len, _LOOKAHEAD)


def solve(sys: HybridSystem, x0, cfg: SolverConfig | None = None) -> HybridArc:
    """Compute one maximal-up-to-horizon hybrid arc from x0.

    Raises InitialConditionOutsideCD when x0 sits outside C u D (within
    tol_set) and FlowMapEvaluationFailure when F cannot be evaluated at the
    start of a flow segment; numerical breakdown mid-flow terminates the arc
    with Termination.NUMERICAL_FAILURE instead.
    """
    cfg = cfg or SolverConfig()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (sys.dim,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, system dim is {sys.dim}")
    in_c = bool(sys.flow_set.member(x, cfg.tol_set))
    in_d = bool(sys.jump_set.member(x, cfg.tol_set))
    if not (in_c or in_d):
        raise InitialConditionOutsideCD(
            f"x0 = {x.tolist()} is outside C u D "
            f"(distances {float(sys.flow_set.distance(x)):.3e} / "
            f"{float(sys.jump_set.distance(x)):.3e})"
        )

    # the sample blocks of each flow interval, concatenated once at the end
    interval_times: list[list[np.ndarray]] = [[np.zeros(1)]]
    interval_states: list[list[np.ndarray]] = [[np.array([x])]]
    events: list[dict] = []
    t = 0.0
    j = 0
    zeno_run = 0
    termination: Termination | None = None

    while termination is None:
        take_jump = in_d and (cfg.priority is Priority.JUMP or not in_c)

        if not take_jump:
            if not in_c:
                # not in C, not jumping: the state escaped C u D
                termination = Termination.ESCAPED
                break
            if t >= cfg.t_max:
                termination = Termination.COMPLETE_T
                break
            seg_t, seg_x, end = _flow_segment(sys, t, x, cfg)
            if len(seg_t):
                interval_times[-1].append(np.asarray(seg_t))
                interval_states[-1].append(np.asarray(seg_x))
            t, x = end.t, end.x
            if end.reason == "horizon":
                termination = Termination.COMPLETE_T
                break
            if end.reason == "failed":
                termination = Termination.NUMERICAL_FAILURE
                break
            events.append({"kind": "flow_exit", "t": t, "j": j,
                           "bracket_gap": end.bracket_gap})
            if bool(sys.jump_set.member(x, cfg.tol_set)):
                take_jump = True
            elif bool(sys.flow_set.member(x, cfg.tol_set)):
                termination = Termination.NOT_EXTENDABLE
                break
            else:
                termination = Termination.ESCAPED
                break

        if take_jump:
            # close the current flow interval, applying the Zeno accounting
            duration = interval_times[-1][-1][-1] - interval_times[-1][0][0]
            zeno_run = zeno_run + 1 if duration < cfg.zeno_dt_min else 0
            if zeno_run >= cfg.zeno_k:
                termination = Termination.ZENO
                break
            x_new = np.atleast_1d(np.asarray(sys.jump_map(x), dtype=float))
            if x_new.shape != x.shape:
                raise DimensionMismatch(
                    f"jump map returned shape {x_new.shape} for state {x.shape}"
                )
            events.append({"kind": "jump", "t": t, "j": j})
            j += 1
            interval_times.append([np.array([t])])
            interval_states.append([np.array([x_new])])
            x = x_new
            if not np.all(np.isfinite(x)):
                termination = Termination.NUMERICAL_FAILURE
                break
            if j >= cfg.j_max:
                termination = Termination.COMPLETE_J
                break
            # a state outside C u D ends ESCAPED at the loop top
            in_c = bool(sys.flow_set.member(x, cfg.tol_set))
            in_d = bool(sys.jump_set.member(x, cfg.tol_set))

    return HybridArc(
        [np.concatenate(ts) for ts in interval_times],
        [np.concatenate(xs) for xs in interval_states],
        termination,
        meta={
            "system": sys.name,
            "x0": interval_states[0][0][0].tolist(),
            "events": events,
            "termination": termination.value,
            "config": cfg.to_config(),
        },
    )


@dataclass(frozen=True)
class SolveError:
    """Captured per-element failure from solve_batch."""

    index: int
    x0: np.ndarray
    error: Exception


def solve_batch(sys: HybridSystem, x0s, cfg: SolverConfig | None = None,
                on_error: str = "raise") -> list:
    """Elementwise solve, order preserving, independent of any partitioning.

    With on_error="collect", failed entries appear as SolveError records in
    place of arcs; "raise" propagates the first failure.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError("on_error must be 'raise' or 'collect'")
    out = []
    for i, x0 in enumerate(x0s):
        try:
            out.append(solve(sys, x0, cfg))
        except Exception as exc:  # noqa: BLE001 - collected per element
            if on_error == "raise":
                raise
            out.append(SolveError(i, np.asarray(x0, dtype=float), exc))
    return out
