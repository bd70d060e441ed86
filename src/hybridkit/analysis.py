"""Sampling-based empirical checkers for set-stability notions, plus
reduction-theorem consistency reports.

Every verdict here is falsify-or-consistent-at-budget, never a proof: a
Falsified report ships a witness arc that reproduces the violated inequality
exactly; ConsistentAtBudget records the budgets, grids, and seed under which
no violation was found.  Per-sample generators are keyed (seed, context,
index), so growing the budget replays the same early samples and can never
flip Falsified back to consistent, and verdicts are independent of scheduling.
No verdict rests on zero arcs: a campaign none of whose draws lands in C u D
raises ConfigError.

The checks of a reduction, chain or detectability report stand alone, and
so do the draws of a campaign, so both run side by side in forked workers
(``_fork_map``): a report's checks one per worker, and a campaign's draws
in one contiguous index range per usable CPU, each of at least two full
solve chunks.  Both run inline on one CPU, inside a worker, so that pools
never nest, and with an ``arc_hook``; either way on one path, as
``_fork_map`` yields every task's result itself, and with the same report
bytes.
"""

from __future__ import annotations

import itertools
import os
import pickle
import zlib
from contextlib import closing
from dataclasses import dataclass, field, replace as _dc_replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .composition import OutputSystem, restrict
from .core import HybridArc, HybridSystem, Termination, _jsonable, is_complete
from .errors import ApproximateDistance, ChainNotNested, ConfigError
from .geometry import ClosedSet, Window
from .solver import Priority, SolverConfig, _integer, _real, solve, solve_batch

_MAX_DRAW_TRIES = 80

#: a campaign solves its draws in chunks of indices, doubling from 2 to 16
_FIRST_CHUNK = 2
_MAX_CHUNK = 16

#: points of each nested set checked to lie in the next one of a chain
_NESTING_SAMPLES = 64

#: how far an arc started on a set may stray from it and still count as
#: staying (forward invariance)
_INV_TOL = 1e-6

#: a margin (a state distance) under which a draw is solved again: over 100x the 7.1e-6 measured
_GUARD = 8e-4

FALSIFIED = "Falsified"
CONSISTENT = "ConsistentAtBudget"


@dataclass(frozen=True)
class PropertyQuery:
    """Where to sample, at which budgets, and how to solve.  The horizon is
    ``solver.t_max`` and ``solver.j_max``; which property is checked, and
    of which sets, is the checker's to say.  Draws come from ``sampler``,
    else from the sampled set's own sampler, else (global checks only) the
    system's, else ``window``; a check near a set rejects any draw, bar the
    set's own, that lies farther than the check's delta from it."""

    near_radius: float | None = None
    eps_grid: tuple[float, ...] = (0.25, 0.5, 1.0)
    sample_budget: int = 50
    conv_tol: float = 1e-3
    seed: int = 0
    window: Window | None = None
    bound_radius: float | None = None
    delta_shrinks: int = 5
    solver: SolverConfig = SolverConfig()
    sampler: Callable | None = None
    # called (system, arc) for every judged solve, re-solves included, in
    # draw order; solves discarded after a violation are never passed.  A
    # hooked query runs all its checks and draws in this process
    arc_hook: Callable | None = None

    def __post_init__(self):
        eps = tuple(float(_real("eps_grid", e, 0)) for e in self.eps_grid)
        if not eps or list(eps) != sorted(eps):
            raise ValueError("eps_grid must be non-empty and sorted")
        object.__setattr__(self, "eps_grid", eps)
        for name, least in (("seed", None), ("sample_budget", 1), ("delta_shrinks", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        _real("conv_tol", self.conv_tol, 0)
        for name in ("near_radius", "bound_radius"):
            if getattr(self, name) is not None:
                _real(name, getattr(self, name), 0)

    def replace(self, **kw) -> "PropertyQuery":
        return _dc_replace(self, **kw)

    def child(self, tag: str, **kw) -> "PropertyQuery":
        """A sub-query whose seed is derived from this seed and ``tag``."""
        return self.replace(seed=int(_rng(self.seed, tag).integers(2 ** 31)), **kw)

    @property
    def radius(self) -> float:
        """The near radius of the local notions: ``near_radius``, else the
        largest epsilon of the grid."""
        return self.near_radius or max(self.eps_grid)

    @property
    def campaign_solver(self) -> SolverConfig:
        """``solver``, its rtol, atol and step cap no tighter than ``SolverConfig()``'s."""
        s, d = self.solver, SolverConfig(t_max=self.solver.t_max)
        return s.replace(rtol=max(s.rtol, d.rtol), atol=max(s.atol, d.atol), max_step=None
                         if s.effective_max_step < d.effective_max_step else s.max_step)

    def effective_bound_radius(self) -> float:
        if self.bound_radius is not None:
            return self.bound_radius
        if self.window is not None:
            return 50.0 * max(1.0, float(np.max(np.abs(np.concatenate(
                [self.window.lo, self.window.hi])))))
        return 1e3

    def provenance(self) -> dict:
        c = self.campaign_solver
        return {
            "eps_grid": list(self.eps_grid),
            "sample_budget": self.sample_budget,
            "horizon": {"t_max": self.solver.t_max, "j_max": self.solver.j_max},
            "conv_tol": self.conv_tol,
            "seed": self.seed,
            "delta_shrinks": self.delta_shrinks,
            "near_radius": self.radius,
            "window": self.window.to_config() if self.window is not None else None,
            **({"campaign_precision": {"rtol": c.rtol, "atol": c.atol, "max_step": c.max_step}}
               if c != self.solver else {}),
        }


@dataclass
class AnalysisReport:
    """Verdict plus everything needed to reproduce it."""

    verdict: str
    prop: str
    measured: dict
    provenance: dict
    witness: HybridArc | None = None
    witness_clause: dict | None = None
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.verdict == FALSIFIED and self.witness is None:
            raise ValueError("Falsified verdicts must carry a witness arc")

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "query": _jsonable(self.provenance),
            "verdict": self.verdict,
            "property": self.prop,
            "measured": _jsonable(self.measured),
            "witness_clause": _jsonable(self.witness_clause),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# seeding and sampling
# ---------------------------------------------------------------------------


def _rng(seed: int, *ctx) -> np.random.Generator:
    parts = [int(seed) & 0xFFFFFFFF]
    for c in ctx:
        if isinstance(c, (int, np.integer)):
            parts.append(int(c) & 0xFFFFFFFF)
        else:
            parts.append(zlib.crc32(str(c).encode()))
    return np.random.default_rng(parts)


def _require_distance(gamma: ClosedSet):
    if gamma.distance_kind == "lower_bound":
        raise ApproximateDistance(
            f"set '{gamma.name}' only offers a lower-bound distance; provide an "
            "exact descriptor or a declared surrogate"
        )


def _draw_initial(sys: HybridSystem, rng: np.random.Generator,
                  query: PropertyQuery, near: ClosedSet | None = None,
                  delta: float = 0.0,
                  project: Callable | None = None) -> np.ndarray | None:
    """One initial condition in B_delta(near) n (C u D), or in the query's
    region n (C u D) when ``near`` is None; None after _MAX_DRAW_TRIES
    rejected draws.  The source is ``query.sampler``, else ``near``'s own
    sampler, else ``sys.state_sampler`` (global draws only), else
    ``query.window``.  A draw ``near``'s sampler did not produce is rejected
    when farther than delta from ``near``, and so is a projected draw."""
    own = query.sampler is None and near is not None and near.can_sample
    # outside B_delta(near), up to rounding; never without a near set
    beyond = lambda x: near is not None and float(near.distance(x)) > delta + 1e-9
    for _ in range(_MAX_DRAW_TRIES):
        if query.sampler is not None:
            x = np.asarray(query.sampler(rng, 1), dtype=float).reshape(-1)
        elif own and delta > 0:
            x = near.sample_near(rng, 1, delta, query.window,
                                 frozen=sys.discrete_coords)[0]
        elif own:
            x = near.sample(rng, 1, query.window)[0]
        elif near is None and sys.state_sampler is not None:
            x = np.asarray(sys.state_sampler(rng, 1), dtype=float).reshape(-1)
        elif query.window is not None:
            x = query.window.uniform(rng, 1)[0]
        else:
            raise ValueError("no sampling region: need a sampler, a samplable "
                             "set, or a window")
        if not own and beyond(x):
            continue
        if project is not None:
            x = np.asarray(project(x), dtype=float).reshape(-1)
            if beyond(x):
                continue
        if not bool(sys.in_cd(x, query.solver.tol_set)):
            continue
        return x
    return None


# ---------------------------------------------------------------------------
# witness clauses
# ---------------------------------------------------------------------------


def _judged_at_horizon(arc: HybridArc) -> bool:
    """Whether an arc's end state is held to a terminal test: it is complete
    at the horizon, or Zeno-truncated; maximal-but-incomplete arcs are not."""
    return is_complete(arc) or arc.termination is Termination.ZENO


def clause_margin(arc: HybridArc, clause: dict, gamma: ClosedSet | None = None,
                  g2: ClosedSet | None = None, output: Callable | None = None):
    """The signed margin of a witness clause on an arc, at the clause's
    parameters: negative exactly when the arc violates the clause, None when
    the clause does not apply to the arc.  Returned with the clause as a
    witness of this arc records it.

    - stability_escape: eps - sup distance to gamma;
    - local_stability_escape: eps - the largest distance to g2 over the
      prefix that stays in B_r(gamma); an empty prefix has none;
    - attractivity_terminal: conv_tol - terminal distance to gamma;
    - unbounded: bound_radius - sup norm;
    - invariance_exit: inv_tol - sup distance to gamma;
    - output_not_converged: conv_tol - |output| at the final state.

    The two terminal clauses apply only to arcs judged at the horizon.
    """
    kind, x0 = clause.get("type"), arc.meta.get("x0")
    if kind == "stability_escape":
        supd = arc.sup_distance(gamma)
        return clause["eps"] - supd, {**clause, "sup_distance": supd, "x0": x0}
    if kind == "local_stability_escape":
        t, j, x = arc.table()
        left = np.flatnonzero(np.asarray(gamma.distance(x)) >= clause["r"])
        n = left[0] if left.size else len(x)
        if not n:
            return None, None
        d2 = np.asarray(g2.distance(x[:n]))
        k = int(np.argmax(d2 > clause["eps"]))  # the first escape, if any
        return clause["eps"] - float(np.fmax.reduce(d2)), {
            **clause, "x0": x0, "t": float(t[k]), "j": int(j[k]),
            "dist_gamma2": float(d2[k])}
    if kind == "attractivity_terminal":
        if not _judged_at_horizon(arc):
            return None, None
        td = arc.terminal_distance(gamma)
        return clause["conv_tol"] - td, {
            "type": kind, "terminal_distance": td, "conv_tol": clause["conv_tol"],
            "x0": x0}
    if kind == "unbounded":
        supn = arc.sup_norm()
        return clause["bound_radius"] - supn, {
            "type": kind, "sup_norm": supn, "bound_radius": clause["bound_radius"],
            "x0": x0}
    if kind == "invariance_exit":
        exc = arc.sup_distance(gamma)
        return clause["inv_tol"] - exc, {
            "type": kind, "mode": clause.get("mode"), "excursion": exc,
            "inv_tol": clause["inv_tol"], "x0": x0}
    if kind == "output_not_converged":
        if output is None:
            raise ValueError("an output clause needs the output map")
        if not _judged_at_horizon(arc):
            return None, None
        hval = float(np.linalg.norm(output(arc.final_state())))
        return clause["conv_tol"] - hval, {
            "type": kind, "terminal_output": hval, "conv_tol": clause["conv_tol"],
            "x0": x0}
    raise ValueError(f"unknown witness clause type {kind!r}")


# ---------------------------------------------------------------------------
# the sampling campaign
# ---------------------------------------------------------------------------


#: True in a forked worker of _fork_map
_in_worker = False


def _pool_size(hooked: bool) -> int:
    """Forked workers alive at once: one per usable CPU, but 1 (inline) where
    that is unknown, inside a worker, so that pools never nest, and when
    ``hooked``, as an ``arc_hook`` must see every arc in this process."""
    if hooked or _in_worker or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_map(fn: Callable, n: int, workers: int, first: Sequence[int] = ()):
    """Yields ``fn(i)`` for every i < n in index order, each computed in its
    own forked worker, at most ``workers`` alive at once, the indices of
    ``first`` started first, a freed slot taking the next; below 2 workers,
    and where a worker failed, ``fn(i)`` runs in this process when its turn
    comes, so that its error surfaces where it does inline.  Forked, because
    a task holds what cannot be pickled, such as a lambda flow map; a worker
    pipes its result back pickled and leaves by ``os._exit``, so it never
    flushes this process's buffers.  Closing the generator kills and reaps
    the workers still running."""
    if workers < 2:
        yield from map(fn, range(n))
        return
    # here, not with the module, so that a command that forks nothing loads neither
    import select
    import signal

    global _in_worker
    order = [*first, *(i for i in range(n) if i not in first)]
    done: dict[int, tuple[bool, bytes]] = {}  # i: (whether its worker succeeded, its result)
    running: dict[int, tuple[int, int]] = {}  # read end of a worker's pipe: (pid, i)
    started = 0
    try:
        for i in range(n):
            while i not in done:
                while started < n and len(running) < workers:
                    r, w = os.pipe()
                    pid = os.fork()
                    if not pid:
                        code = 1
                        try:
                            _in_worker = True
                            with open(w, "wb") as f:
                                f.write(pickle.dumps(fn(order[started])))
                            code = 0
                        finally:
                            os._exit(code)
                    os.close(w)
                    running[r] = (pid, order[started])
                    started += 1
                for r in select.select(list(running), [], [])[0]:
                    pid, j = running.pop(r)
                    with open(r, "rb") as f:  # a worker writes its result as it ends
                        data = f.read()
                    done[j] = os.waitpid(pid, 0)[1] == 0, data
            ok, data = done.pop(i)
            yield pickle.loads(data) if ok else fn(i)
    finally:
        for r, (pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


class _Campaign(NamedTuple):
    """What one campaign found: the initial conditions solved, how many of
    them passed vacuously, the witness arc and its clause (None when no arc
    violated a clause), and per clause type the worst margin and its x0
    (None when the clause applied to no arc)."""

    n_total: int
    n_vacuous: int
    witness: HybridArc | None
    clause: dict | None
    margins: dict


def _solved_draws(sys: HybridSystem, cfg: SolverConfig, draw: Callable, indices: range):
    """(x0, arc) of each of ``indices`` whose ``draw(i)`` is not None, in
    index order.  Chunks of _FIRST_CHUNK indices, doubling up to _MAX_CHUNK,
    are drawn and solved by one ``solve_batch`` each; when it raises, the
    chunk is drawn and solved again lazily, index by index, so that the
    error surfaces at its own draw and only when that draw is reached."""
    start, size = indices.start, _FIRST_CHUNK
    while start < indices.stop:
        chunk = range(start, min(start + size, indices.stop))
        start, size = chunk.stop, min(2 * size, _MAX_CHUNK)
        try:
            x0s = [x0 for x0 in map(draw, chunk) if x0 is not None]
            pairs = zip(x0s, solve_batch(sys, x0s, cfg))
        except Exception:
            pairs = ((x0, solve(sys, x0, cfg)) for x0 in map(draw, chunk) if x0 is not None)
        yield from pairs


def _campaign(sys: HybridSystem, query: PropertyQuery, tag: str,
              clauses: list[dict], key: tuple = (), *, on: dict | None = None,
              alt: SolverConfig | None = None, near: ClosedSet | None = None,
              delta: float = 0.0, project: Callable | None = None,
              kept: dict | None = None) -> _Campaign:
    """The one sampling loop of every checker.

    For each index ``i < sample_budget`` it draws an initial condition, in
    B_delta(near) when ``near`` is given, with the generator keyed ``(seed,
    tag, *key, i)``, solves, hands the arc to ``query.arc_hook`` and takes
    the clause_margin of each of ``clauses`` on the arc, in order, with the
    sets ``on``; the first negative margin is the violation.  A draw is
    solved at ``query.campaign_solver``, and again at ``query.solver`` where
    a margin is under _GUARD, None or NaN, as a margin larger than the error
    keeps its sign; longer steps probe C no more sparsely, as
    ``_sample_times`` spaces a step's probes at most ``store_max_dt`` and a
    sixth of the step apart.  An arc at ``query.solver`` with a violation is
    solved again under ``alt`` when given, and judged again.
    The arc each draw's verdict rests on counts: the worst margin of each
    clause type is kept with its x0, starting from ``kept``, and a draw
    passes vacuously when a clause did not apply to its arc.  Stops at the
    first violation; raises ConfigError when no draw landed in C u D, so
    that no verdict rests on zero arcs.  The draws are solved in chunks
    (``_solved_draws``) but judged in index order, one by one, so the
    solves of a chunk after its violation are discarded unjudged.

    The budget is split into one contiguous index range per CPU that
    ``_pool_size`` gives, but no more ranges than hold two full chunks
    (2 * _MAX_CHUNK draws) each; two or more ranges are judged side by side
    by ``_fork_map``, each up to its first violation, and one range inline.
    The lists of the one function that judges a range are merged in index
    order up to the first violation, so the result is the inline loop's,
    and a range that raised in a worker raises at its own draw.
    """
    cfg, fast, budget = query.solver, query.campaign_solver, query.sample_budget
    # (solver, guard) of each solve in turn; at guard 0 an arc stands unless it violates
    configs = [*([(fast, _GUARD)] if fast != cfg else []), (cfg, 0.0),
               *([(alt, 0.0)] if alt is not None else [])]
    worst = {c["type"]: (kept or {}).get(c["type"]) for c in clauses}
    n_solved = n_vacuous = 0
    draw = lambda i: _draw_initial(sys, _rng(query.seed, tag, *key, i), query,
                                   near, delta, project)

    def judged(indices: range) -> list:
        # (x0, margins, violation record or None, arc of a violation or None)
        # of each solved draw of ``indices``, through the first violation
        out = []
        for x0, arc in _solved_draws(sys, configs[0][0], draw, indices):
            for k, (c, guard) in enumerate(configs):
                arc = solve(sys, x0, c) if k else arc
                if query.arc_hook:
                    query.arc_hook(sys, arc)
                margins, bad = [], None
                for clause in clauses:
                    m, record = clause_margin(arc, clause, **(on or {}))
                    margins.append((clause["type"], m))
                    if m is not None and m < 0:
                        bad = record
                        break
                if all(m is not None and m >= guard for _, m in margins) if guard else bad is None:
                    break
            out.append((arc.meta["x0"], margins, bad, arc if bad is not None else None))
            if bad is not None:
                break
        return out

    parts = max(1, min(_pool_size(query.arc_hook is not None), budget // (2 * _MAX_CHUNK)))
    ranges = [range(budget * k // parts, budget * (k + 1) // parts) for k in range(parts)]
    with closing(_fork_map(lambda k: judged(ranges[k]), parts, parts)) as pooled:
        for x0, margins, bad, arc in itertools.chain.from_iterable(pooled):
            n_solved += 1
            for kind, m in margins:
                # a NaN margin (a non-finite sample) violates nothing and is not kept
                if m is not None and not np.isnan(m) and (
                        worst[kind] is None or m < worst[kind]["worst"]):
                    worst[kind] = {"worst": m, "x0": x0}
            if bad is not None:
                return _Campaign(n_solved, n_vacuous, arc, bad, worst)
            n_vacuous += any(m is None for _, m in margins)
    if not n_solved:
        where, why = "", ""
        if near is not None:
            where = f" within delta = {delta:g} of '{near.name}'"
            why = " (draws farther from it are rejected, a sampler's too)"
        raise ConfigError(
            f"campaign {tag!r}{list(key) if key else ''} on '{sys.name}' drew "
            f"no initial condition in C u D{where} in {budget} "
            f"draws{why}; provide a sampler or a wider window")
    return _Campaign(n_solved, n_vacuous, None, None, worst)


def _eps_delta(sys: HybridSystem, near: ClosedSet, query: PropertyQuery,
               tag: str, kind: str, on: dict, project: Callable | None = None,
               **params) -> tuple[dict, _Campaign]:
    """Shrinking-delta search: for each eps of the grid, the first delta in
    eps * 2^-k (k = 0..delta_shrinks) from whose B_delta(near) no sampled arc
    violates the ``kind`` clause at (eps, delta, **params).  The search stops
    at the first eps for which every delta level had a violation, recording
    None for it.  Returns the delta for each eps tried and the last
    campaign, whose margins are kept over the campaigns the verdict rests
    on: the accepted delta of each eps, and the falsifying one."""
    delta_for_eps: dict = {}
    kept = None
    for ei, eps in enumerate(query.eps_grid):
        for k in range(query.delta_shrinks + 1):
            delta = eps * 2.0 ** (-k)
            run = _campaign(
                sys, query, tag, [{"type": kind, "eps": eps, "delta": delta, **params}],
                (ei, k), on=on, near=near, delta=delta, project=project, kept=kept)
            if run.witness is None:
                delta_for_eps[eps], kept = delta, run.margins
                break
        else:
            delta_for_eps[eps] = None
            break
    return delta_for_eps, run


def _provenance(sys: HybridSystem, query: PropertyQuery, sets: dict) -> dict:
    """The query's settings, the system, and each named set (a chain of sets
    by its list of names)."""
    return {**query.provenance(), "system": sys.name,
            **{k: s.name if isinstance(s, ClosedSet) else [g.name for g in s]
               for k, s in sets.items()}}


def _report(prop: str, sys: HybridSystem, query: PropertyQuery, measured: dict,
            run: _Campaign, notes=(), **sets: ClosedSet) -> AnalysisReport:
    """The report of one campaign, with its margins under ``measured``;
    ``sets`` names the target (and the outer set) in the provenance."""
    return AnalysisReport(FALSIFIED if run.witness is not None else CONSISTENT,
                          prop, {**measured, "margins": run.margins},
                          _provenance(sys, query, sets),
                          run.witness, run.clause, list(notes))


# ---------------------------------------------------------------------------
# core checks
# ---------------------------------------------------------------------------


def check_stability(sys: HybridSystem, gamma: ClosedSet, query: PropertyQuery,
                    project: Callable | None = None) -> AnalysisReport:
    """epsilon-delta stability of ``gamma``: for each epsilon a shrinking-delta
    search over initial conditions in B_delta(gamma) n (C u D)."""
    _require_distance(gamma)
    notes = []
    if not gamma.bounded:
        notes.append("target not declared compact: the uniform notion is "
                     "tested inside the sampling window")
    found, run = _eps_delta(sys, gamma, query, "stab", "stability_escape",
                            {"gamma": gamma}, project)
    return _report("Stability", sys, query, {"delta_for_eps": found}, run,
                   notes, target=gamma)


def check_attractivity(sys: HybridSystem, gamma: ClosedSet, query: PropertyQuery,
                       project: Callable | None = None,
                       near: ClosedSet | None = None) -> AnalysisReport:
    """Attractivity at budget: every sampled arc must be bounded and, when
    judged at the horizon, end within conv_tol of the target.

    ``near`` decides the flavor: given, every draw lies within query.radius
    of it (LocalAttractivityNear: the target attracts near ``near``); else
    query.sampler, the system's sampler or the window stands in for 'global
    at budget' (GlobalAttractivity).
    """
    _require_distance(gamma)
    run = _campaign(
        sys, query, "attr",
        [{"type": "unbounded", "bound_radius": query.effective_bound_radius()},
         {"type": "attractivity_terminal", "conv_tol": query.conv_tol}],
        on={"gamma": gamma}, near=near, delta=query.radius, project=project)
    n_pass = run.n_total - run.n_vacuous - (run.witness is not None)
    measured = {"n_pass": n_pass, "n_vacuous": run.n_vacuous,
                "n_total": run.n_total,
                "pass_fraction": (n_pass + run.n_vacuous) / run.n_total}
    prop = "GlobalAttractivity" if near is None else "LocalAttractivityNear"
    return _report(prop, sys, query, measured, run, target=gamma)


def check_local_stability_near(sys: HybridSystem, g1: ClosedSet, g2: ClosedSet,
                               r: float, query: PropertyQuery) -> AnalysisReport:
    """Conditional epsilon-delta check: prefixes confined to B_r(g1) must stay
    within B_eps(g2)."""
    _require_distance(g1)
    _require_distance(g2)
    found, run = _eps_delta(sys, g1, query, "lsn", "local_stability_escape",
                            {"gamma": g1, "g2": g2}, r=r)
    return _report("LocalStabilityNear", sys, query,
                   {"r": r, "delta_for_eps": found}, run,
                   target=g1, relative_to=g2)


def check_invariance(sys: HybridSystem, gamma: ClosedSet, mode: str,
                     query: PropertyQuery) -> AnalysisReport:
    """Forward invariance from on-set samples.

    strong: every produced arc stays within _INV_TOL of the set.  weak: the
    produced arc may be retried under the other jump/flow priority; verdicts
    are therefore only 'under available selections' of this single-valued
    solver.
    """
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    _require_distance(gamma)
    notes, alt = [], None
    if mode == "weak":
        notes.append("weak invariance is selection-wise: verified under the "
                     "available solver priorities only")
        alt = query.solver.replace(
            priority=Priority.FLOW if query.solver.priority is Priority.JUMP
            else Priority.JUMP)
    run = _campaign(
        sys, query, "inv",
        [{"type": "invariance_exit", "mode": mode, "inv_tol": _INV_TOL}],
        on={"gamma": gamma}, alt=alt, near=gamma)
    prop = ("StrongForwardInvariance" if mode == "strong"
            else "WeakForwardInvariance")
    return _report(prop, sys, query, {"n_total": run.n_total}, run, notes,
                   target=gamma)


def check_boundedness(sys: HybridSystem, query: PropertyQuery) -> AnalysisReport:
    """All sampled solutions stay within the declared bound radius."""
    bound_radius = query.effective_bound_radius()
    run = _campaign(sys, query, "bnd",
                    [{"type": "unbounded", "bound_radius": bound_radius}])
    return _report("Boundedness", sys, query,
                   {"n_total": run.n_total, "bound_radius": bound_radius}, run)


def check_output_convergence(osys: OutputSystem, query: PropertyQuery) -> AnalysisReport:
    """Complete sampled arcs must end with |h(x)| <= conv_tol."""
    run = _campaign(osys.sys, query, "out",
                    [{"type": "output_not_converged", "conv_tol": query.conv_tol}],
                    on={"output": osys.output})
    return _report("OutputConvergence", osys.sys, query, {"n_total": run.n_total},
                   run)


# ---------------------------------------------------------------------------
# relative properties and reduction reports
# ---------------------------------------------------------------------------


def _relative_checks(sys: HybridSystem, g1: ClosedSet, g2: ClosedSet | None,
                     query: PropertyQuery, scope: str,
                     tag: str = "rel") -> tuple[Callable, Callable]:
    """(G)AS of g1 relative to g2, as the pair (stability, attractivity) of
    checks of g1 for the restriction, sampling through g2 (projection when
    available); each check is a zero-argument callable."""
    if scope not in ("local", "global"):
        raise ValueError("scope must be 'local' or 'global'")
    rsys, project, amb_sampler = sys, None, None
    if g2 is not None:
        rsys = restrict(sys, g2)
        project = g2.project if g2.can_project else None
        if g2.can_sample:
            amb_sampler = lambda rng, n: g2.sample(rng, n, query.window)
    sub = query.child(tag, sampler=None)
    stab = partial(check_stability, rsys, g1, sub, project=project)
    if scope == "global":
        attr = partial(check_attractivity, rsys, g1, sub.replace(sampler=amb_sampler),
                       project=project)
    else:
        attr = partial(check_attractivity, rsys, g1, sub, project=project, near=g1)
    return stab, attr


@dataclass
class TheoremCheck:
    """Observed status of one implication: the verdicts of its hypothesis
    bundle and of its conclusion."""

    name: str
    hypotheses: dict[str, str]
    conclusion: dict[str, str]

    @property
    def hypotheses_consistent(self) -> bool:
        return all(v == CONSISTENT for v in self.hypotheses.values())

    @property
    def conclusion_consistent(self) -> bool:
        return all(v == CONSISTENT for v in self.conclusion.values())

    @property
    def sound(self) -> bool:
        # every witness we produce starts inside our own sampled region, so a
        # falsified conclusion under all-consistent hypotheses is a soundness hit
        return not (self.hypotheses_consistent and not self.conclusion_consistent)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.name,
            "hypotheses": dict(self.hypotheses),
            "conclusion": dict(self.conclusion),
            "hypotheses_consistent": self.hypotheses_consistent,
            "conclusion_consistent": self.conclusion_consistent,
            "sound": self.sound,
        }


@dataclass
class ReductionReport:
    """All sub-reports of a reduction check plus per-theorem consistency."""

    scope: str
    sub_reports: dict[str, AnalysisReport]
    conclusions: dict[str, AnalysisReport]
    theorems: list[TheoremCheck]
    provenance: dict

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.sub_reports.values()) and \
            all(r.consistent for r in self.conclusions.values())

    @property
    def sound(self) -> bool:
        return all(t.sound for t in self.theorems)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scope": self.scope,
            "query": _jsonable(self.provenance),
            "sub_reports": {k: v.to_json_dict() for k, v in self.sub_reports.items()},
            "conclusions": {k: v.to_json_dict() for k, v in self.conclusions.items()},
            "theorems": [t.to_json_dict() for t in self.theorems],
            "all_consistent": self.all_consistent,
            "sound": self.sound,
        }


def _bundle(scope: str, sys: HybridSystem, query: PropertyQuery,
            sub: dict[str, Callable], conclusions: dict[str, Callable],
            theorems: list[tuple], **names) -> ReductionReport:
    """The report of a theorem bundle: the hypothesis checks ``sub`` and the
    conclusion checks, each a zero-argument callable keyed as declared, and
    each theorem declared as ``(name, hypothesis keys, conclusion keys)``,
    where omitted keys mean all of them.  ``names`` names the sets in the
    provenance, as in _report.

    The checks share no state and are seeded by their own keys, so they run
    side by side in forked workers (``_fork_map``), one per usable CPU and
    never more than one per check, unless ``_pool_size`` says inline; the
    conclusions start first, because the one on the unrestricted system is
    the longest check measured.  The first declared check to raise raises
    its error, as it does inline.
    """
    declared = [*sub.values(), *conclusions.values()]
    reports = list(_fork_map(lambda i: declared[i](), len(declared),
                             _pool_size(query.arc_hook is not None),
                             first=range(len(sub), len(declared))))
    sub, conclusions = dict(zip(sub, reports)), dict(zip(conclusions, reports[len(sub):]))

    def verdicts(reports: dict, keys) -> dict[str, str]:
        return {k: reports[k].verdict for k in (reports if keys is None else keys)}

    checks = []
    for name, *keys in theorems:
        hyp, conc = [*keys, None, None][:2]
        checks.append(TheoremCheck(name, verdicts(sub, hyp), verdicts(conclusions, conc)))
    return ReductionReport(scope, sub, conclusions, checks,
                           _provenance(sys, query, names))


def _conclusions(sys: HybridSystem, g1: ClosedSet, query: PropertyQuery,
                 scope: str) -> dict[str, Callable]:
    """The conclusion checks on the innermost target of a reduction."""
    return {
        "stability": partial(check_stability, sys, g1, query.child("conc-s")),
        "attractivity": partial(check_attractivity, sys, g1, query.child("conc-a"),
                                near=None if scope == "global" else g1),
    }


def reduction_report(sys: HybridSystem, g1: ClosedSet, g2: ClosedSet,
                     query: PropertyQuery, scope: str = "local") -> ReductionReport:
    """Two-set reduction: relative asymptotic stability on g2, the local
    stability/attractivity conditions within ``query.radius`` of g1, and the
    conclusion checks on g1, with the implication directions evaluated for
    soundness."""
    sub: dict[str, Callable] = {}
    sub["relative_stability"], sub["relative_attractivity"] = _relative_checks(
        sys, g1, g2, query, scope)
    sub["local_stability_near"] = partial(
        check_local_stability_near, sys, g1, g2, query.radius, query.child("lsn-seed"))
    relative = ("relative_stability", "relative_attractivity")
    if scope == "local":
        sub["local_attractivity_near"] = partial(
            check_attractivity, sys, g2, query.child("lan-seed"), near=g1)
        theorems = [("stability", (*relative, "local_stability_near"), ("stability",)),
                    ("asymptotic_stability",)]
    else:
        sub["global_attractivity_gamma2"] = partial(
            check_attractivity, sys, g2, query.child("ga2-seed"))
        sub["boundedness"] = partial(check_boundedness, sys, query.child("bnd-seed"))
        theorems = [("attractivity", (*relative, "global_attractivity_gamma2",
                                      "boundedness"), ("attractivity",)),
                    ("global_asymptotic_stability",)]
    return _bundle(scope, sys, query, sub, _conclusions(sys, g1, query, scope),
                   theorems, gamma1=g1, gamma2=g2)


def recursive_reduction_report(sys: HybridSystem, chain: list[ClosedSet],
                               query: PropertyQuery, scope: str = "local") -> ReductionReport:
    """Chain reduction: pairwise relative (G)AS along nested targets, plus
    boundedness at global scope, against the conclusion on the innermost set."""
    if not chain:
        raise ConfigError("empty chain: a chain names one target set or more")
    # sampled nesting check, before any other
    rng = _rng(query.seed, "nest")
    for i in range(len(chain) - 1):
        if not chain[i].can_sample:
            continue
        pts = chain[i].sample(rng, _NESTING_SAMPLES, query.window)
        ok = np.asarray(chain[i + 1].member(pts, 1e-6), dtype=bool)
        if not ok.all():
            bad = pts[~ok][0]
            raise ChainNotNested(
                f"sampled point of {chain[i].name} lies outside "
                f"{chain[i + 1].name}: {bad.tolist()}"
            )

    sub: dict[str, Callable] = {}
    for i, g in enumerate(chain):
        amb = chain[i + 1] if i + 1 < len(chain) else None
        label = amb.name if amb is not None else "statespace"
        stab, attr = _relative_checks(sys, g, amb, query, scope, tag=f"link{i}")
        sub[f"link{i + 1}_stability_rel_{label}"] = stab
        sub[f"link{i + 1}_attractivity_rel_{label}"] = attr
    if scope == "global":
        sub["boundedness"] = partial(check_boundedness, sys, query.child("bnd-seed"))
    attr_hyps = [k for k in sub if not k.startswith(f"link{len(chain)}_stability")]
    return _bundle(scope, sys, query, sub, _conclusions(sys, chain[0], query, scope),
                   [("asymptotic_stability",),
                    ("attractivity", attr_hyps, ("attractivity",))], chain=chain)


def detectability_report(osys: OutputSystem, g1: ClosedSet,
                         g2_declared: ClosedSet, query: PropertyQuery) -> ReductionReport:
    """Output-zeroing bundle: boundedness, output convergence, relative GAS of
    g1 inside the declared zero-output invariant set, and the global
    attractivity conclusion on g1."""
    sys = osys.sys
    sub = {"boundedness": partial(check_boundedness, sys, query.child("det-b")),
           "output_convergence": partial(check_output_convergence, osys,
                                         query.child("det-o"))}
    sub["relative_stability"], sub["relative_attractivity"] = _relative_checks(
        sys, g1, g2_declared, query, "global", tag="det")
    conclusions = {"global_attractivity": partial(check_attractivity, sys, g1,
                                                  query.child("det-c"))}
    return _bundle("global", sys, query, sub, conclusions,
                   [("detectability_attractivity",)],
                   gamma1=g1, gamma2_declared=g2_declared)


# ---------------------------------------------------------------------------
# witness replay
# ---------------------------------------------------------------------------


def replay_clause(arc: HybridArc, clause: dict, gamma: ClosedSet | None,
                  g2: ClosedSet | None = None,
                  output: Callable | None = None) -> bool:
    """Re-evaluate a witness clause on a stored arc; True iff the recorded
    violation reproduces: the clause's margin at its recorded parameters is
    negative."""
    m = clause_margin(arc, clause, gamma, g2, output)[0]
    return m is not None and m < 0


def summarize(report) -> str:
    """Human-readable one-screen summary of an analysis or reduction report."""
    lines = []
    if isinstance(report, AnalysisReport):
        lines.append(f"{report.prop}: {report.verdict}")
        for k, v in report.measured.items():
            lines.append(f"  {k}: {v}")
        if report.witness_clause:
            lines.append(f"  witness: {report.witness_clause}")
        for n in report.notes:
            lines.append(f"  note: {n}")
    elif isinstance(report, ReductionReport):
        lines.append(f"reduction report (scope={report.scope})")
        for k, v in report.sub_reports.items():
            lines.append(f"  [hyp] {k}: {v.verdict}")
        for k, v in report.conclusions.items():
            lines.append(f"  [conclusion] {k}: {v.verdict}")
        for t in report.theorems:
            status = "sound" if t.sound else "SOUNDNESS VIOLATION"
            lines.append(
                f"  [theorem {t.name}] hypotheses "
                f"{'consistent' if t.hypotheses_consistent else 'falsified'}, "
                f"conclusion "
                f"{'consistent' if t.conclusion_consistent else 'falsified'} "
                f"-> {status}")
    else:
        raise TypeError(f"cannot summarize {type(report)!r}")
    return "\n".join(lines)
