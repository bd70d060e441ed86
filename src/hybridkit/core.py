"""Hybrid systems, hybrid time domains, hybrid arcs, and solution semantics.

A hybrid system is the 4-tuple (flow set, flow map, jump set, jump map) on R^n.
Flow and jump maps are single-valued selections; set-valued dynamics are out of
scope.  Arcs store dense samples per flow interval, which keeps golden-file
testing and the independent solution checker simple.
"""

from __future__ import annotations

import enum
import io
import json
from dataclasses import dataclass, field
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

    ``state_sampler(rng, n, window)`` and ``discrete_coords`` are optional
    hooks the sampling-based analyses use; they are not part of the solution
    semantics.
    """

    dim: int
    flow_set: ClosedSet
    flow_map: Callable[[np.ndarray], np.ndarray]
    jump_set: ClosedSet
    jump_map: Callable[[np.ndarray], np.ndarray]
    name: str = "hybrid-system"
    state_sampler: Callable | None = None
    discrete_coords: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("state dimension must be positive")
        for s, label in ((self.flow_set, "flow_set"), (self.jump_set, "jump_set")):
            if s.dim != self.dim:
                raise DimensionMismatch(
                    f"{label} has dim {s.dim}, system has dim {self.dim}"
                )

    def in_cd(self, x, tol: float | None = None):
        return np.logical_or(self.flow_set.member(x, tol), self.jump_set.member(x, tol))


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

    @property
    def t_end(self) -> float:
        return self.intervals[-1][1]

    @property
    def j_end(self) -> int:
        return self.intervals[-1][2]

    def total_flow_time(self) -> float:
        return sum(t1 - t0 for t0, t1, _ in self.intervals)


@dataclass
class HybridArc:
    """A sampled hybrid arc: per-interval (times, states) plus a termination flag."""

    times: list[np.ndarray]
    states: list[np.ndarray]
    termination: Termination
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise MalformedArc("times/states interval counts differ")
        if not self.times:
            raise MalformedArc("arc has no intervals")
        self.times = [np.atleast_1d(np.asarray(t, dtype=float)) for t in self.times]
        self.states = [np.atleast_2d(np.asarray(x, dtype=float)) for x in self.states]
        for t, x in zip(self.times, self.states):
            if t.shape[0] != x.shape[0]:
                raise MalformedArc("sample count mismatch within an interval")
            if t.size > 1 and not np.all(np.diff(t) > 0):
                raise MalformedArc("sample times not strictly increasing")

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.states[0].shape[1]

    @property
    def domain(self) -> HybridTimeDomain:
        return HybridTimeDomain(
            tuple((float(t[0]), float(t[-1]), j) for j, t in enumerate(self.times))
        )

    @property
    def n_jumps(self) -> int:
        return len(self.times) - 1

    def samples(self) -> Iterator[tuple[float, int, np.ndarray]]:
        for j, (t, x) in enumerate(zip(self.times, self.states)):
            for k in range(t.shape[0]):
                yield float(t[k]), j, x[k]

    def all_states(self) -> np.ndarray:
        return np.vstack(self.states)

    def final_state(self) -> np.ndarray:
        return self.states[-1][-1]

    def final_time(self) -> tuple[float, int]:
        return float(self.times[-1][-1]), len(self.times) - 1

    def jump_transitions(self) -> Iterator[tuple[float, int, np.ndarray, np.ndarray]]:
        """(t, j, pre-jump state, post-jump state) for each recorded jump."""
        for j in range(len(self.times) - 1):
            yield float(self.times[j][-1]), j, self.states[j][-1], self.states[j + 1][0]

    def sup_distance(self, target: ClosedSet) -> float:
        return float(max(np.max(target.distance(x)) for x in self.states))

    def sup_norm(self) -> float:
        return float(max(np.max(np.linalg.norm(x, axis=1)) for x in self.states))

    def terminal_distance(self, target: ClosedSet) -> float:
        return float(target.distance(self.final_state()))

    # -- serialization ---------------------------------------------------------

    def to_csv(self) -> str:
        """Columns (t, j, x_1..x_n, event); first sample of interval j>0 is the
        jump event.  Column order is part of the golden-file contract."""
        buf = io.StringIO()
        n = self.dim
        header = ["t", "j"] + [f"x_{i + 1}" for i in range(n)] + ["event"]
        buf.write(",".join(header) + "\n")
        for j, (t, x) in enumerate(zip(self.times, self.states)):
            for k in range(t.shape[0]):
                event = "jump" if (j > 0 and k == 0) else "flow"
                cols = [f"{t[k]:.17g}", str(j)]
                cols += [f"{v:.17g}" for v in x[k]]
                cols.append(event)
                buf.write(",".join(cols) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, termination: Termination | str | None = None,
                 meta: dict | None = None) -> "HybridArc":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise MalformedArc("empty arc file")
        header = lines[0].split(",")
        if header[:2] != ["t", "j"] or header[-1] != "event":
            raise MalformedArc(f"unexpected arc header: {header}")
        n = len(header) - 3
        times: list[list[float]] = []
        states: list[list[list[float]]] = []
        last_j = -1
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != n + 3:
                raise MalformedArc(f"row has {len(parts)} columns, expected {n + 3}")
            t = float(parts[0])
            j = int(parts[1])
            x = [float(v) for v in parts[2:-1]]
            if j == last_j + 1:
                times.append([t])
                states.append([x])
                last_j = j
            elif j == last_j:
                times[-1].append(t)
                states[-1].append(x)
            else:
                raise MalformedArc(f"jump counter out of order at j={j}")
        term = termination if termination is not None else (meta or {}).get("termination")
        if isinstance(term, str):
            term = Termination(term)
        if term is None:
            term = Termination.NOT_EXTENDABLE
        return HybridArc(
            [np.asarray(t) for t in times],
            [np.asarray(x) for x in states],
            term,
            meta=dict(meta or {}),
        )

    def to_json(self) -> str:
        rows = []
        for j, (t, x) in enumerate(zip(self.times, self.states)):
            for k in range(t.shape[0]):
                rows.append({
                    "t": float(t[k]),
                    "j": j,
                    "x": [float(v) for v in x[k]],
                    "event": "jump" if (j > 0 and k == 0) else "flow",
                })
        payload = {
            "schema_version": ARC_SCHEMA_VERSION,
            "n": self.dim,
            "termination": self.termination.value,
            "samples": rows,
            "meta": _jsonable(self.meta),
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "HybridArc":
        payload = json.loads(text)
        times: list[list[float]] = []
        states: list[list[list[float]]] = []
        last_j = -1
        for row in payload["samples"]:
            j = row["j"]
            if j == last_j + 1:
                times.append([row["t"]])
                states.append([row["x"]])
                last_j = j
            elif j == last_j:
                times[-1].append(row["t"])
                states[-1].append(row["x"])
            else:
                raise MalformedArc(f"jump counter out of order at j={j}")
        return HybridArc(
            [np.asarray(t) for t in times],
            [np.asarray(x) for x in states],
            Termination(payload["termination"]),
            meta=payload.get("meta", {}),
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Termination):
        return obj.value
    return obj


def is_complete(arc: HybridArc) -> bool:
    """Complete up to horizon: the recorded domain reached a configured horizon
    (operational stand-in for an unbounded hybrid time domain)."""
    return arc.termination in _COMPLETE_FLAGS


def range_of(arc: HybridArc, tol: float = 1e-9) -> np.ndarray:
    """All sampled state values, deduplicated within ``tol`` (grid rounding)."""
    pts = arc.all_states()
    if tol <= 0:
        return np.unique(pts, axis=0)
    keys = np.round(pts / tol).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(idx)]


@dataclass(frozen=True)
class Violation:
    """One structured solution-condition violation."""

    kind: str  # FlowResidual | FlowOutsideC | JumpMapMismatch | JumpOutsideD
    t: float
    j: int
    magnitude: float
    detail: str = ""


ViolationList = list


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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    arc.domain  # raises MalformedArc on bad structure
    if arc.dim != sys.dim:
        raise DimensionMismatch(f"arc dim {arc.dim} != system dim {sys.dim}")

    out: list[Violation] = []
    for j, (t, x) in enumerate(zip(arc.times, arc.states)):
        # (c) flow-set membership on [min I_j, sup I_j): the right endpoint of
        # every interval is exempt, and degenerate intervals impose nothing
        check = x[:-1]
        if check.shape[0]:
            inside = np.asarray(sys.flow_set.member(check, tol_set), dtype=bool)
            for k in np.flatnonzero(~inside):
                out.append(Violation(
                    "FlowOutsideC", float(t[k]), j,
                    float(sys.flow_set.distance(check[k])),
                    "flow sample outside the flow set",
                ))
        # (a) finite-difference flow residuals at midpoint states
        for k in range(t.shape[0] - 1):
            dt = t[k + 1] - t[k]
            if dt <= 0:
                continue
            mid = 0.5 * (x[k] + x[k + 1])
            resid = (x[k + 1] - x[k]) / dt - np.asarray(sys.flow_map(mid), dtype=float)
            mag = float(np.linalg.norm(resid))
            if mag > tol:
                out.append(Violation(
                    "FlowResidual", float(t[k]), j, mag,
                    f"|dx/dt - F| = {mag:.3e} over dt = {dt:.3e}",
                ))

    for t, j, pre, post in arc.jump_transitions():
        if not bool(sys.jump_set.member(pre, tol_set)):
            out.append(Violation(
                "JumpOutsideD", t, j, float(sys.jump_set.distance(pre)),
                "jump taken from a point outside the jump set",
            ))
        image = np.asarray(sys.jump_map(pre), dtype=float)
        err = float(np.linalg.norm(post - image))
        if err > tol:
            out.append(Violation(
                "JumpMapMismatch", t, j, err,
                f"|x+ - G(x)| = {err:.3e}",
            ))
    return out
