"""Hybrid systems, hybrid time domains, hybrid arcs, and solution semantics.

A hybrid system is the 4-tuple (flow set, flow map, jump set, jump map) on R^n.
Flow and jump maps are single-valued selections; set-valued dynamics are out of
scope.  An arc stores its samples as one (t, j, x) table, the form in which it
is written, read and reduced; its flow intervals are views of that table.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionMismatch, MalformedArc
from .geometry import ClosedSet

ARC_SCHEMA_VERSION = 1


class Termination(enum.Enum):
    """Why an arc stopped extending."""

    COMPLETE_T = "CompleteByHorizonT"
    COMPLETE_J = "CompleteByHorizonJ"
    NOT_EXTENDABLE = "NotExtendable"
    ESCAPED = "EscapedFlowAndJumpSets"
    ZENO = "ZenoGuardTripped"
    NUMERICAL_FAILURE = "NumericalFailure"


#: terminations that stand in for completeness at the configured horizon
_COMPLETE_FLAGS = (Termination.COMPLETE_T, Termination.COMPLETE_J)


def hybrid_time_leq(a: tuple[float, int], b: tuple[float, int]) -> bool:
    """Partial order on hybrid times: (t1,j1) <= (t2,j2) componentwise."""
    return a[0] <= b[0] and a[1] <= b[1]


def hybrid_time_lt(a: tuple[float, int], b: tuple[float, int]) -> bool:
    """Strict variant: componentwise <= with at least one strict inequality."""
    return hybrid_time_leq(a, b) and (a[0] < b[0] or a[1] < b[1])


@dataclass(frozen=True)
class HybridSystem:
    """The 4-tuple (C, flow map, D, jump map) plus state dimension and label.

    ``state_sampler(rng, n)`` and ``discrete_coords`` are optional
    hooks the sampling-based analyses use; they are not part of the solution
    semantics.  ``flow_map_batch``, also optional, maps an (m, n) array of
    states to the (m, n) array of their flow-map values.  Only the solution
    checker calls it: it rounds differently from ``flow_map``, which the solver
    calls one state at a time.
    """

    dim: int
    flow_set: ClosedSet
    flow_map: Callable[[np.ndarray], np.ndarray]
    jump_set: ClosedSet
    jump_map: Callable[[np.ndarray], np.ndarray]
    name: str = "hybrid-system"
    state_sampler: Callable | None = None
    discrete_coords: tuple[int, ...] = ()
    flow_map_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("state dimension must be positive")
        for s, label in ((self.flow_set, "flow_set"), (self.jump_set, "jump_set")):
            if s.dim != self.dim:
                raise DimensionMismatch(
                    f"{label} has dim {s.dim}, system has dim {self.dim}"
                )

    def in_cd(self, x, tol: float | None = None):
        # D is tested only when some point is outside C
        in_c = self.flow_set.member(x, tol)
        return in_c if np.asarray(in_c).all() else np.logical_or(in_c, self.jump_set.member(x, tol))


@dataclass(frozen=True)
class HybridTimeDomain:
    """Stacked intervals [t_j, t_{j+1}] x {j}; the final one may be degenerate."""

    intervals: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        iv = self.intervals
        if not iv:
            raise MalformedArc("empty hybrid time domain")
        for t0, t1, j in iv:
            if t1 < t0:
                raise MalformedArc(f"interval {j} has t_end {t1} < t_start {t0}")
            if j < 0:
                raise MalformedArc("negative jump index")
        for (a0, a1, aj), (b0, b1, bj) in zip(iv, iv[1:]):
            if bj != aj + 1:
                raise MalformedArc(f"jump counter skips from {aj} to {bj}")
            if b0 != a1:
                raise MalformedArc(
                    f"interval {bj} starts at {b0}, previous ended at {a1}"
                )


class HybridArc:
    """A sampled hybrid arc: one (t, j, x) table of shapes (N,), (N,), (N, n)
    in hybrid-time order, a termination flag and meta.  ``times`` and
    ``states`` are the table split at the jumps, one view per flow interval."""

    def __init__(self, times, states, termination: Termination | str | None,
                 meta: dict | None = None):
        times = [np.atleast_1d(np.asarray(t, dtype=float)) for t in times]
        states = [np.atleast_2d(np.asarray(x, dtype=float)) for x in states]
        counts = [len(t) for t in times]
        if not counts or counts != [len(x) for x in states] or \
                len({x.shape[1:] for x in states}) > 1:
            raise MalformedArc("arc needs intervals of as many times as states, of one state shape")
        self._store(np.concatenate(times), np.repeat(np.arange(len(counts)), counts),
                    np.concatenate(states), termination, meta)

    def _store(self, t, j, x, termination, meta) -> None:
        """Check the (t, j, x) table, of shapes (N,), (N,) and (N, n >= 1), and
        keep it as the arc: the jump counter starts at 0 and steps by 0 or 1,
        each step opening an interval that starts at the time the previous one
        ended, and the times strictly increase within an interval.  C order
        keeps row-wise reductions bitwise independent of how x was built."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or not x.shape[1] or t.shape != j.shape or t.shape != x.shape[:1]:
            raise MalformedArc(f"arc table of shapes t {t.shape}, j {j.shape}, "
                               f"x {x.shape} is not (N,), (N,), (N, n >= 1)")
        if not len(j):
            raise MalformedArc("arc has no samples")
        step = np.diff(j, prepend=-1)
        ok = (step == 0) | (step == 1)
        ok[0] = step[0] == 1
        if not ok.all():
            raise MalformedArc(f"jump counter out of order at j={j[np.argmin(ok)]}")
        if not (np.diff(t)[step[1:] == 0] > 0).all():
            raise MalformedArc("sample times not strictly increasing")
        cuts = np.flatnonzero(step[1:]) + 1  # the first row after each jump
        moved = t[cuts] != t[cuts - 1]
        if moved.any():
            k = cuts[np.argmax(moved)]
            raise MalformedArc(f"interval {j[k]} starts at {t[k]}, previous ended at {t[k - 1]}")
        try:
            self.termination = Termination(Termination.NOT_EXTENDABLE if termination is None
                                           else termination)
        except ValueError:
            raise MalformedArc(f"unknown termination {termination!r}") from None
        self._t, self._j, self._x, self._cuts = t, j, x, cuts
        self._text: dict[str, list[str]] = {}
        self.meta = dict(meta or {})

    @staticmethod
    def _from_table(t: np.ndarray, j: np.ndarray, x: np.ndarray,
                    termination: Termination | str | None,
                    meta: dict | None) -> "HybridArc":
        """The arc whose samples are the (t, j, x) table."""
        arc = object.__new__(HybridArc)
        arc._store(t, j, x, termination, meta)
        return arc

    # -- structure -----------------------------------------------------------

    @property
    def times(self) -> list[np.ndarray]:
        return np.split(self._t, self._cuts)

    @property
    def states(self) -> list[np.ndarray]:
        return np.split(self._x, self._cuts)

    @property
    def dim(self) -> int:
        return self._x.shape[1]

    @property
    def domain(self) -> HybridTimeDomain:
        first, last = np.append(0, self._cuts), np.append(self._cuts, len(self._t)) - 1
        return HybridTimeDomain(tuple(zip(self._t[first].tolist(), self._t[last].tolist(),
                                          range(len(first)))))

    @property
    def n_jumps(self) -> int:
        return len(self._cuts)

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (t, j, x) table, as it is: for reading, not a copy."""
        return self._t, self._j, self._x

    def final_state(self) -> np.ndarray:
        return self._x[-1]

    def final_time(self) -> tuple[float, int]:
        return float(self._t[-1]), self.n_jumps

    def jump_transitions(self) -> Iterator[tuple[float, int, np.ndarray, np.ndarray]]:
        """(t, j, pre-jump state, post-jump state) for each recorded jump."""
        for j, k in enumerate(self._cuts.tolist()):
            yield float(self._t[k - 1]), j, self._x[k - 1], self._x[k]

    def sup_distance(self, target: ClosedSet) -> float:
        return float(np.max(target.distance(self._x)))

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self._x, axis=1)))

    def terminal_distance(self, target: ClosedSet) -> float:
        return float(target.distance(self.final_state()))

    # -- serialization ---------------------------------------------------------

    def column_text(self, name: str) -> list[str]:
        """The CSV text of one column, ``t``, ``j``, ``x_1`` .. ``x_n`` or
        ``event``: one string per sample, ``%.17g`` for t and x (the bytes of
        ``f"{v:.17g}"``, nan and inf included), ``%d`` for j and ``%s`` for the
        event.  Each column is formatted once per arc and kept, so every file
        written from the arc shares its text; the table must not change after."""
        text = self._text.get(name)
        if text is None:
            if name == "j":
                text = list(map("%d".__mod__, self._j.tolist()))
            elif name == "event":
                text = _events(self._j).tolist()
            else:
                col = self._t if name == "t" else self._x[:, int(name.removeprefix("x_")) - 1]
                text = list(map("%.17g".__mod__, col.tolist()))
            self._text[name] = text
        return text

    def to_csv(self) -> str:
        """Columns (t, j, x_1..x_n, event); first sample of interval j>0 is the
        jump event.  Column order is part of the golden-file contract.  The
        cells are the arc's ``column_text``, formatted once per arc."""
        header = ["t", "j", *(f"x_{i + 1}" for i in range(self.dim)), "event"]
        return _csv_text(",".join(header), [self.column_text(c) for c in header])

    @staticmethod
    def from_csv(text: str, termination: Termination | str | None = None) -> "HybridArc":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise MalformedArc("empty arc file")
        header = lines[0].split(",")
        if header[:2] != ["t", "j"] or header[-1] != "event":
            raise MalformedArc(f"unexpected arc header: {header}")
        n, rows = len(header), lines[1:]
        for ln in rows:
            if ln.count(",") != n - 1:
                raise MalformedArc(f"row has {ln.count(',') + 1} columns, expected {n}")
        # row-major cells: column k is cells[k::n]; no rows leave no intervals
        cells = ",".join(rows).split(",") if rows else []
        try:
            t = np.array([float(v) for v in cells[0::n]])
            j = np.array([int(v) for v in cells[1::n]])
            x = np.array([[float(v) for v in cells[k::n]] for k in range(2, n - 1)])
        except ValueError as exc:
            raise MalformedArc(f"non-numeric arc cell: {exc}") from None
        return HybridArc._from_table(t, j, x.T.reshape(len(rows), n - 3), termination, None)

    def to_json(self) -> str:
        """The bytes of ``json.dumps({schema_version, n, termination, samples,
        meta}, indent=1)`` with one ``{t, j, x, event}`` per sample, each written
        by one ``%``-format row template (floats by ``%r``, as json does)."""
        t, j, x = self.table()
        coords = ",".join(["\n    %r"] * self.dim)
        row = ('\n  {\n   "t": %r,\n   "j": %d,\n   "x": [' + coords
               + '\n   ],\n   "event": "%s"\n  }')
        samples = ",".join([row % r for r in zip(t.tolist(), j.tolist(), *x.T.tolist(),
                                                 _events(j).tolist())])
        if not (np.isfinite(t).all() and np.isfinite(x).all()):
            samples = samples.replace("nan", "NaN").replace("inf", "Infinity")
        head = json.dumps({"schema_version": ARC_SCHEMA_VERSION, "n": self.dim,
                           "termination": self.termination.value}, indent=1)
        meta = json.dumps(_jsonable(self.meta), indent=1).replace("\n", "\n ")
        return f'{head[:-2]},\n "samples": [{samples}\n ],\n "meta": {meta}\n}}'

    @staticmethod
    def from_json(text: str) -> "HybridArc":
        try:
            payload = json.loads(text)
            rows, n = payload["samples"], payload["n"]
            t = np.array([row["t"] for row in rows], dtype=float)
            j = np.array([row["j"] for row in rows])
            x = np.array([row["x"] for row in rows], dtype=float)
            termination = payload["termination"]
        except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedArc(f"malformed arc JSON: {exc!r}") from None
        if x.shape[1:] != (n,):
            raise MalformedArc(f"sample states of shape {x.shape[1:]}, the arc's n is {n}")
        return HybridArc._from_table(t, j, x, termination, payload.get("meta", {}))


def _events(j: np.ndarray) -> np.ndarray:
    """"jump" where the jump counter steps up, "flow" elsewhere."""
    return np.where(np.diff(j, prepend=0) > 0, "jump", "flow")


def _csv_text(header: str, columns: list[list[str]]) -> str:
    """CSV text: ``header``, then one line per row of the equal-length
    ``columns`` of cell text, such as an arc's ``column_text``, joined by
    commas.  Every arc file and plot panel is written here."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _jsonable(obj):
    """Plain JSON types for arc meta and analysis reports (string keys)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, Termination):
        return obj.value
    return obj


def is_complete(arc: HybridArc) -> bool:
    """Complete up to horizon: the recorded domain reached a configured horizon
    (operational stand-in for an unbounded hybrid time domain)."""
    return arc.termination in _COMPLETE_FLAGS


@dataclass(frozen=True)
class Violation:
    """One structured solution-condition violation."""

    kind: str  # FlowResidual | FlowOutsideC | JumpMapMismatch | JumpOutsideD
    t: float
    j: int
    magnitude: float
    detail: str = ""


def check_is_solution(
    sys: HybridSystem,
    arc: HybridArc,
    tol: float,
    tol_set: float = 1e-9,
) -> list[Violation]:
    """Independent check that ``arc`` solves ``sys``.

    Empty result iff (a) midpoint finite-difference flow residuals stay within
    ``tol`` on each flow interval, (b) every jump satisfies x+ = G(x) within
    ``tol`` from a point of D (within ``tol_set``), and (c) flow samples lie in
    C within ``tol_set`` (the final sample before a jump may sit just past the
    located boundary and is exempt).

    Per flow interval: one flow-set membership call, and the flow map at the
    midpoints of its positive-length gaps.  A system that declares
    ``flow_map_batch`` gets one batched call on all of an interval's
    midpoints, whose first row must agree with ``flow_map`` at the same
    midpoint to 1e-9 relative (else ValueError), so that the map checked is
    the map the solver integrated; a system without one gets one ``flow_map``
    call per midpoint, in time order.  Per arc: one jump-set membership call
    on the pre-jump states, one jump-map call per jump, and array operations
    for the rest.  Violations are listed interval by interval (flow-set ones
    first, then residuals, each in time order), then jump by jump.
    """
    if not 0 < tol < math.inf:  # False for NaN
        raise ValueError("tol must be finite and strictly positive")
    if arc.dim != sys.dim:
        raise DimensionMismatch(f"arc dim {arc.dim} != system dim {sys.dim}")
    t, j, x = arc.table()
    cuts = arc._cuts

    # (c) flow-set membership on [min I_j, sup I_j): the right endpoint of
    # every interval is exempt, and degenerate intervals impose nothing
    inside = np.ones(len(t), dtype=bool)
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(t)]):
        if b - a > 1:
            inside[a:b - 1] = sys.flow_set.member(x[a:b - 1], tol_set)
    flow_viol = [(j[k], 0, k, Violation(
        "FlowOutsideC", float(t[k]), int(j[k]), float(sys.flow_set.distance(x[k])),
        "flow sample outside the flow set")) for k in np.flatnonzero(~inside).tolist()]

    # (a) finite-difference flow residuals at the midpoint states of the
    # positive-length gaps within an interval
    dt = np.diff(t)
    ks = np.flatnonzero((dt > 0) & (np.diff(j) == 0))
    mids = 0.5 * (x[ks] + x[ks + 1])
    flow = np.concatenate([_flow_at(sys, m) for m in np.split(mids, np.searchsorted(ks, cuts))])
    mags = np.linalg.norm((x[ks + 1] - x[ks]) / dt[ks, None] - flow, axis=1)
    bad = mags > tol
    flow_viol += [(j[k], 1, k, Violation(
        "FlowResidual", float(t[k]), int(j[k]), mag,
        f"|dx/dt - F| = {mag:.3e} over dt = {dt[k]:.3e}"))
        for k, mag in zip(ks[bad].tolist(), mags[bad].tolist())]
    out = [v for *_, v in sorted(flow_viol, key=lambda e: e[:3])]

    # (b) jumps: x+ = G(x) from a point of D
    if not len(cuts):
        return out
    pre, post = x[cuts - 1], x[cuts]
    in_d = np.asarray(sys.jump_set.member(pre, tol_set), dtype=bool)
    errs = np.linalg.norm(post - _per_row(sys.jump_map, pre), axis=1)
    for i, (k, ok, err) in enumerate(zip((cuts - 1).tolist(), in_d.tolist(), errs.tolist())):
        if not ok:
            out.append(Violation(
                "JumpOutsideD", float(t[k]), i, float(sys.jump_set.distance(pre[i])),
                "jump taken from a point outside the jump set",
            ))
        if err > tol:
            out.append(Violation(
                "JumpMapMismatch", float(t[k]), i, err,
                f"|x+ - G(x)| = {err:.3e}",
            ))
    return out


def _flow_at(sys: HybridSystem, mids: np.ndarray) -> np.ndarray:
    """The flow map at each row of ``mids``, for ``check_is_solution``: one
    batched call, checked against ``flow_map`` on the first row, or one call
    per row."""
    if sys.flow_map_batch is None or not len(mids):
        return _per_row(sys.flow_map, mids)
    flow = np.asarray(sys.flow_map_batch(mids), dtype=float)
    if flow.shape != mids.shape:
        raise DimensionMismatch(
            f"flow_map_batch returned shape {flow.shape} for states of shape {mids.shape}")
    first = np.asarray(sys.flow_map(mids[0]), dtype=float)
    if np.linalg.norm(flow[0] - first) > 1e-9 * np.linalg.norm(first):
        raise ValueError(f"flow_map_batch gives {flow[0].tolist()} at {mids[0].tolist()}, "
                         f"flow_map gives {first.tolist()}")
    return flow


def _per_row(fn, xs: np.ndarray) -> np.ndarray:
    """``fn`` at each row of ``xs``, one call per row, in order."""
    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        out[i] = fn(x)
    return out
