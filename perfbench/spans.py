"""In-memory span tracing of hybridkit, installed from outside the package.

``Tracer.install()`` wraps the public functions of every hybridkit module,
the ``ClosedSet``/``HybridArc``/``HybridSystem`` methods they dispatch
through, and the flow map, jump map and state sampler of every system built
while it is installed.  Each wrapped call records a span (name, start, end,
parent, op id) in columnar in-memory arrays; ``write`` saves them at the end.
A span name is ``<layer>.<function>`` where the layer is the hybridkit module
that owns the function; a layer's self time is its spans' durations minus
their child spans.

Membership, distance and sampling calls are spanned only at the outermost
level, so a composite set (intersection, inflation band, union) counts as one
call of its own and its operand calls are part of it.

``op_metrics()`` turns the counts and times gathered since ``begin_op`` into
the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from array import array
from collections import defaultdict

#: hybridkit modules, each one layer, in call order from the user inwards
LAYERS = ("cli", "analysis", "composition", "solver", "core", "geometry", "systems")

#: where a membership call happened: inside a solve, the independent
#: checker, or an initial-condition draw (anything else is "other")
MEMBER_CONTEXTS = ("solve", "check", "draw")

#: (metric, unit) reported by a traced run, per op
PER_LAYER = (
    [
        ("solver.solves", "count"),
        ("solver.self_s", "s"),
        ("solver.rhs_evals", "count"),
        ("solver.failed_arcs", "count"),
        ("solver.stored_samples", "count/solve"),
        ("solver.jumps", "count/solve"),
        ("solver.flow_exits", "count/solve"),
        ("solver.bracket_gap_max", "s"),
    ]
    + [(f"geometry.member_calls.{c}", "count") for c in MEMBER_CONTEXTS]
    + [(f"geometry.member_points.{c}", "count") for c in MEMBER_CONTEXTS]
    + [(f"geometry.member_s.{c}", "s") for c in MEMBER_CONTEXTS]
    + [
        ("geometry.points_per_call", "points/call"),
        ("geometry.sample_s", "s"),
        ("geometry.self_s", "s"),
        ("systems.flow_map_s", "s"),
        ("systems.jump_map_calls", "count"),
        ("systems.self_s", "s"),
        ("composition.member_s", "s"),
        ("composition.self_s", "s"),
        ("core.check_s", "s"),
        ("core.check_rhs_evals", "count"),
        ("core.csv_parse_s", "s"),
        ("core.csv_write_s", "s"),
        ("core.json_write_s", "s"),
        ("core.csv_bytes", "bytes"),
        ("core.json_bytes", "bytes"),
        ("core.self_s", "s"),
        ("analysis.draws", "count"),
        ("analysis.draws_rejected", "count"),
        ("analysis.arcs_solved", "count"),
        ("analysis.arcs_per_draw", "arcs/draw"),
        ("analysis.self_s", "s"),
        ("cli.self_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_frac", "frac"),
    ]
)

#: metrics that depend only on the code and the inputs, never on the clock;
#: they must repeat exactly between runs of the same code at one seed
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER
    if unit not in ("s", "frac") or name == "solver.bracket_gap_max"
)


class Tracer:
    """Collects spans and per-layer counts; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self.ctx = "other"
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[int, float] = defaultdict(float)  # by name id
        self._outer = {"member": False, "distance": False, "sample": False}
        self._restricted = weakref.WeakSet()  # flow/jump sets made by restrict
        self._analysis_ids: set[int] = set()

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith("analysis."):
                self._analysis_ids.add(nid)
        return nid

    def enter(self, nid: int) -> None:
        self._stack.append([len(self.span_name), 0.0])
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        t = time.perf_counter()
        i, child = self._stack.pop()
        self.span_end[i] = t
        dur = t - self.span_start[i]
        if self._stack:
            self._stack[-1][1] += dur
        self.self_s[self.span_name[i]] += dur - child
        return dur

    def wrap(self, name: str, fn, *, ctx: str | None = None, after=None,
             outer: str | None = None):
        """A span around ``fn``.

        ``ctx`` sets the membership context for the call's duration;
        ``after(args, result, seconds)`` runs once the span closes (``result``
        is None when ``fn`` raised); with ``outer`` set, calls nested in
        another call of the same kind pass straight through.
        """
        nid = self.name_id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active or (outer and tr._outer[outer]):
                return fn(*args, **kwargs)
            prev = tr.ctx
            if ctx:
                tr.ctx = ctx
            if outer:
                tr._outer[outer] = True
            tr.enter(nid)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dur = tr.exit()
                tr.ctx = prev
                if outer:
                    tr._outer[outer] = False
                if after is not None:
                    after(args, out, dur)

        traced.perfbench_traced = True
        return traced

    def in_analysis(self) -> bool:
        return any(self.span_name[i] in self._analysis_ids for i, _ in self._stack)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap hybridkit's entry points for the rest of the process."""
        import numpy as np

        import hybridkit

        mods = {layer: importlib.import_module(f"hybridkit.{layer}") for layer in LAYERS}
        core, geometry = mods["core"], mods["geometry"]
        c = self.counts

        def on_solve(args, arc, dur):
            c["solver.solves"] += 1
            if self.in_analysis():
                c["analysis.arcs_solved"] += 1
            if arc is None or arc.termination is core.Termination.NUMERICAL_FAILURE:
                c["solver.failed_arcs"] += 1
                return
            c["solver.stored_samples"] += sum(len(t) for t in arc.times)
            c["solver.jumps"] += arc.n_jumps
            for ev in arc.meta.get("events", ()):
                if ev["kind"] == "flow_exit":
                    c["solver.flow_exits"] += 1
                    c["solver.bracket_gap_max"] = max(
                        c["solver.bracket_gap_max"], ev["bracket_gap"])

        def on_check(args, out, dur):
            c["core.check_s"] += dur

        def on_draw(args, out, dur):
            c["analysis.draws"] += 1

        def on_restrict(args, rsys, dur):
            if rsys is not None:
                self._restricted.add(rsys.flow_set)
                self._restricted.add(rsys.jump_set)

        def on_write(args, out, dur):
            c["cli.bytes_written"] += len(args[1].encode("utf-8"))

        hooks = {
            "solver.solve": dict(ctx="solve", after=on_solve),
            "core.check_is_solution": dict(ctx="check", after=on_check),
            "composition.restrict": dict(after=on_restrict),
        }
        private = {"analysis._draw_initial": dict(ctx="draw", after=on_draw),
                   "cli._write": dict(after=on_write)}

        # module-level functions, and every module's imported reference to them
        targets = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in private:
                    continue
                targets[fn] = self.wrap(name, fn, **hooks.get(name, private.get(name, {})))
        for mod in (hybridkit, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in targets:
                    setattr(mod, attr, targets[val])

        # methods
        def timed(metric, size=None):
            def after(args, out, dur):
                c[metric] += dur
                if size and out is not None:
                    c[size] += len(out)
            return after

        arc_cls = core.HybridArc
        for attr, after in (("to_csv", timed("core.csv_write_s", "core.csv_bytes")),
                            ("to_json", timed("core.json_write_s", "core.json_bytes")),
                            ("from_csv", timed("core.csv_parse_s")),
                            ("from_json", None)):
            fn = self.wrap(f"core.HybridArc.{attr}", getattr(arc_cls, attr), after=after)
            if isinstance(arc_cls.__dict__[attr], staticmethod):
                fn = staticmethod(fn)
            setattr(arc_cls, attr, fn)

        def on_in_cd(args, out, dur):
            if self.ctx == "draw" and out is not None and not np.any(out):
                c["analysis.draws_rejected"] += 1

        sys_cls = core.HybridSystem
        sys_cls.in_cd = self.wrap("core.HybridSystem.in_cd", sys_cls.in_cd, after=on_in_cd)

        def on_member(args, out, dur):
            x = np.asarray(args[1])
            ctx = self.ctx if self.ctx in MEMBER_CONTEXTS else "other"
            c[f"geometry.member_calls.{ctx}"] += 1
            c[f"geometry.member_points.{ctx}"] += int(np.prod(x.shape[:-1]))
            c[f"geometry.member_s.{ctx}"] += dur
            if args[0] in self._restricted:
                c["composition.member_s"] += dur

        sample_after = timed("geometry.sample_s")
        set_cls = geometry.ClosedSet
        set_cls.member = self.wrap(
            "geometry.ClosedSet.member", set_cls.member, outer="member", after=on_member)
        set_cls.distance = self.wrap(
            "geometry.ClosedSet.distance", set_cls.distance, outer="distance")
        for attr in ("sample", "sample_near", "project"):
            setattr(set_cls, attr, self.wrap(
                f"geometry.ClosedSet.{attr}", getattr(set_cls, attr),
                outer="sample", after=sample_after))

        # per-system callables, wrapped as each system is built
        def on_flow(args, out, dur):
            c["systems.flow_map_s"] += dur
            if self.ctx == "solve":
                c["solver.rhs_evals"] += 1
            elif self.ctx == "check":
                c["core.check_rhs_evals"] += 1

        def on_jump(args, out, dur):
            c["systems.jump_map_calls"] += 1

        callables = (("flow_map", "systems.flow_map", dict(after=on_flow)),
                     ("jump_map", "systems.jump_map", dict(after=on_jump)),
                     ("state_sampler", "systems.state_sampler",
                      dict(outer="sample", after=sample_after)))
        post_init = sys_cls.__post_init__

        def traced_post_init(system):
            post_init(system)
            for attr, name, kw in callables:
                fn = getattr(system, attr)
                if fn is not None and not getattr(fn, "perfbench_traced", False):
                    object.__setattr__(system, attr, self.wrap(name, fn, **kw))

        sys_cls.__post_init__ = traced_post_init
        self.active = True

    # -- per-op metrics ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts.clear()
        self.self_s.clear()
        self._op_first_span = len(self.span_name)

    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the op begun last (``trace.overhead_frac`` is
        left to the caller, which knows the untraced time)."""
        c = self.counts
        m = {name: float(c.get(name, 0.0)) for name, _ in PER_LAYER}
        solves = c.get("solver.solves", 0.0)
        for name in ("solver.stored_samples", "solver.jumps", "solver.flow_exits"):
            m[name] = c.get(name, 0.0) / solves if solves else 0.0
        calls = sum(c.get(f"geometry.member_calls.{x}", 0.0) for x in MEMBER_CONTEXTS + ("other",))
        points = sum(c.get(f"geometry.member_points.{x}", 0.0) for x in MEMBER_CONTEXTS + ("other",))
        m["geometry.points_per_call"] = points / calls if calls else 0.0
        draws = c.get("analysis.draws", 0.0)
        m["analysis.arcs_per_draw"] = c.get("analysis.arcs_solved", 0.0) / draws if draws else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
        for nid, s in self.self_s.items():
            layer = self.names[nid].split(".", 1)[0]
            m[f"{layer}.self_s"] += s
        m["trace.spans"] = float(len(self.span_name) - self._op_first_span)
        m["trace.overhead_frac"] = 0.0
        return {name: m[name] for name, _ in PER_LAYER}

    def write(self, path) -> None:
        """Save every span as columns (name id, start, end, parent, op) plus
        the name table, in one compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
