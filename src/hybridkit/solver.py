"""Hybrid solver: event-located flow integration plus jump application.

Flow intervals are integrated by Dormand & Prince's explicit 8(5,3) pair with
its 7th-order dense output (``_dop853``).  Its tableau, initial step, combined
5th/3rd-order error norm and step controller are those of Hairer, Norsett &
Wanner, *Solving ODEs I*, Sec. II.4-II.6 and their DOP853 code, written
operation for operation as scipy's ``DOP853`` does them, so the two produce
the same bits (``tests/test_stepper.py`` keeps scipy as the oracle).
Everything hybrid -- flow-set exit location, jump application, flow/jump
priority on C n D, horizons, and the Zeno guard -- is implemented here too.
Each step's stored samples are sized by the solution checker's residual
floor, not by the long 8th-order step (``_sample_times``), appended per step
and concatenated once into the arc's (t, j, x) table.  They are also its exit
probes, tested against C as the step is taken, and an exit bracket is
narrowed by the same rule on the dense output (``_probe_step``); this
subsumes sign bisection of a scalar guard and also copes with band sets and
boundary starts.  At x0 and after each jump, a hybrid state is tested against
its deciding set first and against the other set only when it is not in the
deciding one (``_next_move``): D under jump priority, C under flow priority.
A flow-set exit state is tested against D alone: it lies in C, and its flow
leaves C, so it jumps if it is in D and ends the arc ``NotExtendable`` if
not.

A solve (``_solve``) yields each membership test as ``(set, x)`` and each
probe as ``(set, step, ts)``; ``_drive`` advances solves in lockstep rounds
and answers all requests on one set per round with one dense pass and one
``ClosedSet.member`` call, both elementwise, so an arc's bits do not depend
on the solves beside it.  ``solve`` is the batch of one.

Determinism contract: identical (system, x0, config) produce bitwise-identical
arcs; no randomness is involved anywhere in the solve path.
"""

from __future__ import annotations

import enum
import itertools
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

_MIN_SUBDIV = 6  # fewest stored samples (the exit probes) per step
_MAX_SUBDIV = 256  # most samples per step that the residual floor may ask for
_RESIDUAL_FLOOR = 1e-4  # a tenth of the checker's 1e-3 tolerance
_PROBES = 16  # an exit bracket narrows _PROBES-fold per membership call


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int: ValueError unless an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _real(name: str, value, above: float | None = None):
    """``value`` itself: ValueError unless a real number, not a bool, finite and above ``above``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite or (above is not None and not value > above):
        bound = "" if above is None else f" and > {above:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return value


class Priority(enum.Enum):
    JUMP = "jump"
    FLOW = "flow"


@dataclass(frozen=True)
class SolverConfig:
    """Step control, event tolerance, horizons, priority, and Zeno guards.

    ``zeno_k`` consecutive flow intervals shorter than ``zeno_dt_min`` trip the
    Zeno guard.  Stored sample spacing is at most ``store_max_dt``, one sixth
    of each accepted step, and what keeps the independent solution checker's
    residual, as the step's dense output estimates it, under a tenth of its
    1e-3 tolerance.  The stored samples are the exit probes, tested by one
    batched membership call per round; an exit is bracketed to ``event_tol / 8``.
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
        for field_name in ("t_max", "rtol", "atol", "event_tol", "tol_set",
                           "store_max_dt", "max_step"):
            if getattr(self, field_name) is not None:
                _real(field_name, getattr(self, field_name), 0)
        for field_name in ("j_max", "zeno_k"):
            object.__setattr__(self, field_name, _integer(field_name, getattr(self, field_name), 1))
        if _real("zeno_dt_min", self.zeno_dt_min) < 0:
            raise ValueError("invalid zeno window")
        if not isinstance(self.priority, Priority):
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


def _sparse(shape, rows: dict) -> np.ndarray:
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


# Dormand-Prince 8(5,3) as in Hairer's DOP853: rows 1-11 of the stage matrix
# give the stages, row 12 the 8th-order weights, rows 13-15 the three extra
# stages of the 7th-order dense output; _E5/_E3 are the 5th- and 3rd-order
# error weights and _D the dense-output coefficients of the last 4 powers.
# The literals are scipy's, so every coefficient rounds to the same double.
_A = _sparse((16, 16), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
})
_B = _A[12, :12]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0])
_D = _sparse((4, 16), {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
})
# third derivatives, at x = 0, 1/4, 1/2, 3/4, 1 (rows), of the 7 polynomials
# x^ceil((k+1)/2) (1-x)^floor((k+1)/2) that _dense weights by the rows of F
_D3 = np.array([[0, 0, -6, -12, 6, 6, 0],
                [0, 0, -6, -6, -2.25, -2.625, -0.4453125],
                [0, 0, -6, 0, -3, 0, -1.125],
                [0, 0, -6, 6, 3.75, 2.625, 2.1796875],
                [0, 0, -6, 12, 18, -6, -6]])
_SAFETY = 0.9      # multiplies the asymptotically optimal step factor
_MIN_FACTOR = 0.2  # largest decrease of a rejected step
_MAX_FACTOR = 10   # largest increase of an accepted step
_ERROR_EXPONENT = -1 / 8
_RTOL_MIN = 100 * float(np.finfo(float).eps)


class _Step(NamedTuple):
    """One accepted step from (t_old, y_old) to (t, y), with the 7 rows ``F``
    of its dense output."""

    t_old: float
    t: float
    y_old: np.ndarray
    y: np.ndarray
    F: np.ndarray


def _norm(v: np.ndarray):
    return np.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its overhead


def _rms(v: np.ndarray):
    return _norm(v) / v.size ** 0.5


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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval, max_step)


def _dop853(flow, t: float, y: np.ndarray, f: np.ndarray, t_bound: float,
            rtol: float, atol: float, max_step: float):
    """Accepted DOP853 steps from (t, y) forward to t_bound > t.

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
    h_abs = _initial_step(flow, y, f, abs(t_bound - t), max_step, rtol, atol)
    K = np.empty((16, y.size))
    K[0] = f
    stages = [(s, K[:s].T, _A[s, :s]) for s in range(1, 12)]
    extra = [(s, K[:s].T, _A[s, :s]) for s in range(13, 16)]
    K_lower, K_all = K[:12].T, K[:13].T
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
            for s, K_s, a in stages:
                K[s] = flow(y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_lower, _B)
            K[12] = flow(y_new)
            # the 5th-order error, damped where the 3rd-order one is small
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _norm(np.dot(K_all, _E5) / scale) ** 2
            err3 = _norm(np.dot(K_all, _E3) / scale) ** 2
            error = h_abs * err5 / np.sqrt((err5 + 0.01 * err3) * y.size) \
                if err5 or err3 else 0.0
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
        for s, K_s, a in extra:
            K[s] = flow(y + np.dot(K_s, a) * h)
        F = np.empty((7, y.size))
        F[0] = y_new - y
        F[1] = h * K[0] - F[0]
        F[2] = 2 * F[0] - h * (K[12] + K[0])
        F[3:] = h * np.dot(_D, K)
        yield _Step(t, t_new, y, y_new, F)
        if t_new >= t_bound:
            return
        t, y = t_new, y_new
        K[0] = K[12]  # first same as last


def _dense(step: _Step, t: np.ndarray) -> np.ndarray:
    """The step's interpolant at a 1-D array of times, shape (len(t), n), by
    scipy's nested products.  The fields broadcast against the times: with
    arrays of one row per time (t_old, t of shape (m,), y_old of (m, n) and F
    of (7, m, n)) it evaluates many steps in one pass, with the same bits."""
    x = ((t - step.t_old) / (step.t - step.t_old))[:, None]
    factors = (x, 1 - x)
    y = (step.F[6] + 0.0) * x  # scipy adds F[6] to zeros, so -0.0 becomes 0.0
    for i in range(1, 7):
        y += step.F[6 - i]
        y *= factors[i % 2]
    y += step.y_old
    return y


def _grid(a: float, b: float, m: int) -> np.ndarray:
    """Strictly increasing times in (a, b], 0 <= a < b, ending at b:
    ``np.linspace(a, b, m + 1)[1:]``, bit for bit, without its overhead, on
    4m ulps of b or more, else (where linspace can repeat times) min(m, n) of
    the n doubles in (a, b], spread evenly by index."""
    if b - a < 4 * m * math.ulp(b):
        lo, hi = np.array([a, b]).view(np.int64)
        n = int(hi - lo)  # bits of non-negative doubles order as the doubles
        k = np.arange(1, min(m, n) + 1)
        return (lo + k * n // len(k)).view(np.float64)
    k = np.arange(1.0, m + 1)
    step = (b - a) / m
    ts = k / m * (b - a) if step == 0 else k * step
    ts += a
    ts[-1] = b
    return ts


def _sample_times(step, b: float, store_max_dt: float) -> np.ndarray:
    """The times of a step's stored samples, which are also its exit probes,
    on (t_old, b]: at most ``store_max_dt`` and a sixth of the step apart, and
    close enough, up to _MAX_SUBDIV samples, that the checker's midpoint
    residual, about d^2 |x'''| / 12 at spacing d (exactly so for a linear
    flow), stays under _RESIDUAL_FLOOR for the largest |x'''| of the step's
    dense output ``F`` at five points."""
    h, span = step.t - step.t_old, b - step.t_old
    d3 = _D3 @ step.F  # h^3 x''' at the five points
    d3_max = math.sqrt(np.max(np.einsum("ij,ij->i", d3, d3)))
    floor = span / h * math.sqrt(d3_max / (12 * h * _RESIDUAL_FLOOR))
    m = max(_MIN_SUBDIV, math.ceil(span / store_max_dt), math.ceil(min(_MAX_SUBDIV, floor)))
    return _grid(step.t_old, b, m)


def _probe_step(step, flow_set, cfg: SolverConfig):
    """An accepted step's stored samples on (t_old, t], yielded as one probe of
    ``flow_set`` as the step is taken, and None; or, when a probe is outside
    C, the samples on (t_old, lo] and the width of the exit bracket [lo, hi],
    narrowed by grids of _PROBES probes to event_tol / 8, which leaves slack
    in the 2 * event_tol budgets downstream.  ``step`` needs only the t_old,
    t, y_old and F of a DOP853 dense output."""
    ts = _sample_times(step, step.t, cfg.store_max_dt)
    xs, inside = yield flow_set, step, ts
    if inside.all():
        return ts, xs, None
    lo, probes = step.t_old, ts
    while True:
        k = int(np.argmin(inside))  # the first probe outside C
        lo, hi = (lo if k == 0 else float(probes[k - 1])), float(probes[k])
        if hi - lo <= cfg.event_tol / 8 or math.nextafter(lo, hi) == hi:
            break
        probes = _grid(lo, hi, _PROBES)  # ends at hi, which is outside C
        _, inside = yield flow_set, step, probes[:-1]
        inside = np.append(inside, False)
    ts = _sample_times(step, lo, cfg.store_max_dt) if lo > step.t_old else ts[:0]
    return ts, _dense(step, ts), hi - lo


def _flow_segment(sys: HybridSystem, t0: float, x0: np.ndarray, cfg: SolverConfig,
                  blocks: list, j: int):
    """Integrate the flow from (t0, x0 in C) until flow-set exit, t_max, or failure,
    appending each step's stored samples to ``blocks`` as one (ts, xs, j) block.

    The samples exclude (t0, x0) itself and end exactly at the segment end
    point.  Returns (termination, bracket_gap): None and the exit bracket's
    width at a flow-set exit, else COMPLETE_T or NUMERICAL_FAILURE and None.
    """
    fx0 = np.asarray(sys.flow_map(x0), dtype=float)
    if fx0.shape != x0.shape:
        raise DimensionMismatch(
            f"flow map returned shape {fx0.shape} for state of shape {x0.shape}"
        )
    if not np.isfinite(fx0).all():
        raise FlowMapEvaluationFailure(
            f"flow map non-finite at segment start (t={t0:.6g})"
        )
    for step in _dop853(sys.flow_map, t0, x0, fx0, cfg.t_max, cfg.rtol, cfg.atol,
                        cfg.effective_max_step):
        if step is None or not np.isfinite(step.y).all():
            return Termination.NUMERICAL_FAILURE, None
        ts, xs, gap = yield from _probe_step(step, sys.flow_set, cfg)
        if len(ts):
            blocks.append((ts, xs, j))
        if gap is not None:
            return None, gap
    return Termination.COMPLETE_T, None


def _next_move(sys: HybridSystem, x: np.ndarray, priority: Priority):
    """Whether the hybrid state x, at x0 or after a jump, jumps or flows next
    under ``priority``: "jump", "flow", or None when x lies outside C u D
    (within tol_set).

    The priority's own set decides (D under JUMP, C under FLOW); the other
    set is tested only when x is not in it.  A flow-set exit state is not
    asked here: ``_solve`` tests it against D alone.
    """
    if priority is Priority.JUMP:
        moves = (sys.jump_set, "jump"), (sys.flow_set, "flow")
    else:
        moves = (sys.flow_set, "flow"), (sys.jump_set, "jump")
    for s, move in moves:
        if (yield s, x):
            return move
    return None


def _solve(sys: HybridSystem, x0, cfg: SolverConfig):
    """The body of ``solve``, yielding its membership tests and probes."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (sys.dim,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, system dim is {sys.dim}")
    move = yield from _next_move(sys, x, cfg.priority)
    if move is None:
        raise InitialConditionOutsideCD(
            f"x0 = {x.tolist()} is outside C u D "
            f"(distances {float(sys.flow_set.distance(x)):.3e} / "
            f"{float(sys.jump_set.distance(x)):.3e})"
        )

    # (times, states, jump counter) of each sample block, concatenated once;
    # the last block always ends at the current hybrid state
    blocks: list[tuple[np.ndarray, np.ndarray, int]] = [(np.zeros(1), np.array([x]), 0)]
    events: list[dict] = []
    t_start = 0.0  # the time of the current flow interval's start
    j = zeno_run = 0

    while True:
        t, x = float(blocks[-1][0][-1]), blocks[-1][1][-1]
        if move is None:  # the state escaped C u D
            termination = Termination.ESCAPED
            break

        if move == "flow":
            # t < t_max: a flow exit is stored at its bracket's low end, below
            # the step end and so below t_max, and a jump keeps the time
            termination, gap = yield from _flow_segment(sys, t, x, cfg, blocks, j)
            if termination is not None:
                break
            t, x = float(blocks[-1][0][-1]), blocks[-1][1][-1]
            events.append({"kind": "flow_exit", "t": t, "j": j, "bracket_gap": gap})
            # x is in C (the last probe found there, or the segment start) and
            # its flow leaves C: only a jump from D extends the solution
            if not (yield sys.jump_set, x):
                termination = Termination.NOT_EXTENDABLE
                break
            move = "jump"
            continue

        # close the current flow interval, applying the Zeno accounting
        zeno_run = zeno_run + 1 if t - t_start < cfg.zeno_dt_min else 0
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
        blocks.append((np.array([t]), np.array([x_new]), j))
        t_start = t
        if not np.isfinite(x_new).all():
            termination = Termination.NUMERICAL_FAILURE
            break
        if j >= cfg.j_max:
            termination = Termination.COMPLETE_J
            break
        move = yield from _next_move(sys, x_new, cfg.priority)

    ts, xs, js = zip(*blocks)
    return HybridArc._from_table(
        np.concatenate(ts), np.repeat(js, [len(b) for b in ts]), np.concatenate(xs),
        termination,
        meta={
            "system": sys.name,
            "x0": xs[0][0].tolist(),
            "events": events,
            "termination": termination.value,
            "config": cfg.to_config(),
        },
    )


def _answer(requests: list, tol: float) -> list:
    """The replies to requests on one set, in order: a membership test's
    boolean, and a probe's dense states and their booleans.  A group of one
    is answered directly; a larger one by one dense pass over its probes'
    steps, stacked one row per time, and one membership call."""
    s = requests[0][0]
    if len(requests) == 1:
        if len(requests[0]) == 2:
            return [s.member(requests[0][1], tol)]
        xs = _dense(*requests[0][1:])
        return [(xs, s.member(xs, tol))]
    probes = [r[1:] for r in requests if len(r) == 3]
    if probes:
        steps, ts = zip(*probes)
        counts = [len(t) for t in ts]
        rows = lambda f, axis=0: np.array(
            [getattr(st, f) for st in steps]).swapaxes(0, axis).repeat(counts, axis)
        stacked = _Step(rows("t_old"), rows("t"), rows("y_old"), None, rows("F", 1))
        xs = _dense(stacked, np.concatenate(ts))
        dense = (xs[e - c:e] for c, e in zip(counts, itertools.accumulate(counts)))
    points = [next(dense) if len(r) == 3 else r[1][None] for r in requests]
    inside = s.member(np.concatenate(points), tol)
    ends = itertools.accumulate(len(p) for p in points)
    return [(p, inside[e - len(p):e]) if len(r) == 3 else inside[e - 1]
            for r, p, e in zip(requests, points, ends)]


def _drive(solves: list, tol: float) -> list:
    """Run ``_solve`` generators in lockstep rounds: each round every live
    solve makes one request, and the requests on one set are answered
    together.  Returns the arcs in order, or raises the error of the first
    solve, in order, that raised (a membership call's error at once)."""
    arcs, replies, error = [None] * len(solves), [None] * len(solves), None
    live = range(len(solves))
    while live:
        groups: dict[int, list] = {}
        for i in live:
            try:
                request = solves[i].send(replies[i])
            except StopIteration as stop:
                arcs[i] = stop.value
            except Exception as exc:
                error = exc
                break
            else:
                groups.setdefault(id(request[0]), []).append((i, request))
        for group in groups.values():
            for (i, _), reply in zip(group, _answer([r for _, r in group], tol)):
                replies[i] = reply
        live = sorted(i for group in groups.values() for i, _ in group)
    if error is not None:
        raise error
    return arcs


def solve(sys: HybridSystem, x0, cfg: SolverConfig | None = None) -> HybridArc:
    """Compute one maximal-up-to-horizon hybrid arc from x0.

    Raises InitialConditionOutsideCD when x0 sits outside C u D (within
    tol_set) and FlowMapEvaluationFailure when F cannot be evaluated at the
    start of a flow segment; numerical breakdown mid-flow terminates the arc
    with Termination.NUMERICAL_FAILURE instead.
    """
    cfg = cfg or SolverConfig()
    return _drive([_solve(sys, x0, cfg)], cfg.tol_set)[0]


def solve_batch(sys: HybridSystem, x0s, cfg: SolverConfig | None = None) -> list:
    """``solve`` of each x0, in order, in lockstep rounds (``_drive``); each arc
    has the bits ``solve`` gives it alone, and the error of the first x0, in
    order, whose solve raises propagates."""
    cfg = cfg or SolverConfig()
    return _drive([_solve(sys, x0, cfg) for x0 in x0s], cfg.tol_set)
