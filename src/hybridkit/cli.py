"""Command-line front end: simulate fixtures or config-defined systems, run
analysis campaigns, replay witnesses, and emit trajectory/plot-data files.

Exit codes: 0 success / all consistent, 1 falsified (witness paths printed),
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    AnalysisReport,
    PropertyQuery,
    check_attractivity,
    check_invariance,
    check_local_stability_near,
    check_stability,
    detectability_report,
    recursive_reduction_report,
    reduction_report,
    replay_clause,
    summarize,
)
from .composition import with_output
from .core import HybridArc, HybridSystem, Termination, _csv_text, check_is_solution
from .errors import ConfigError, HybridkitError
from .geometry import ClosedSet, Window, empty_set, full_space, point_set, set_from_config
from .solver import SolverConfig, solve
from .systems import Fixture, ObserverParams, catalog

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: the independent checker's tolerance a witness is replayed at
WITNESS_CHECK_TOL = 1e-3


def _say(line: str) -> None:
    """Print one line to stdout.  A reader that has gone away (a closed pipe)
    does not change the command's exit code: stdout is pointed at the null
    device, so later lines and the flush at interpreter exit are dropped."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


#: the keys of a config file and of a run record (``run.json``, a witness's
#: metadata) at the top level, and of a fixture's and an inline system block
_KEYS = {"config": ("system", "solver"),
         "record": ("schema_version", "system", "solver", "x0", "termination", "n_jumps",
                    "t_end", "clause", "gamma", "gamma2", "check_tol"),
         "fixture block": ("fixture", "params"),
         "inline system": ("name", "dim", "flow", "jump", "flow_set", "jump_set")}


def _refuse_unknown_keys(node: dict, where: str, source: str = "") -> None:
    unknown = sorted(set(node) - set(_KEYS[where]))
    if unknown:
        raise ConfigError(f"{source}unknown {where} key(s) {unknown}; "
                          f"allowed: {', '.join(_KEYS[where])}")


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    _refuse_unknown_keys(cfg, "config", f"config {path}: ")
    if not isinstance(cfg.get("solver", {}), dict):
        raise ConfigError(f"solver configuration must be a JSON object, got {cfg['solver']!r}")
    return cfg


def _affine_map(spec: dict, dim: int):
    """x -> A x + b, for one state and for rows of states."""
    a = np.asarray(spec["A"], dtype=float)
    b = np.asarray(spec.get("b", np.zeros(dim)), dtype=float)
    if a.shape != (dim, dim) or b.shape != (dim,):
        raise ValueError(f"affine A must have shape ({dim}, {dim}) and b ({dim},), "
                         f"got {a.shape} and {b.shape}")
    return lambda x: x @ a.T + b


#: a pole (x' = 1/x at 0) gives inf/nan, which the solver reports itself
_POLE_ERRSTATE = dict(divide="ignore", invalid="ignore", over="ignore")


def _poly_map(spec: list, dim: int):
    """A polynomial map, for one state and for rows of states."""
    # terms: [{"target": i, "terms": [{"c": coef, "powers": [e_1..e_n]}]}]
    rows = {int(r["target"]): [(t["c"], np.asarray(t["powers"], dtype=float))
                               for t in r["terms"]] for r in spec}
    if not all(0 <= i < dim for i in rows) or \
            any(p.shape != (dim,) for terms in rows.values() for _, p in terms):
        raise ValueError(f"poly targets must lie in [0, {dim}) and powers have {dim} entries")

    def poly(x):
        out = np.zeros(x.shape)
        with np.errstate(**_POLE_ERRSTATE):
            for i, terms in rows.items():
                for c, p in terms:
                    out[..., i] += c * np.prod(x ** p, axis=-1)
        return out

    return poly


def _map_from_config(spec: dict | None, dim: int):
    """A config block's map, for one state and for rows of states."""
    if spec is None:
        return lambda x: x
    if "affine" in spec:
        return _affine_map(spec["affine"], dim)
    if "poly" in spec:
        return _poly_map(spec["poly"], dim)
    raise ConfigError("dynamics must be given as 'affine' or 'poly' blocks")


def _system_from_inline(spec: dict):
    try:
        dim = int(spec["dim"])
        flow_set = set_from_config(spec["flow_set"]) if "flow_set" in spec \
            else full_space(dim)
        jump_set = set_from_config(spec["jump_set"]) if "jump_set" in spec \
            else empty_set(dim)
        flow_map = _map_from_config(spec.get("flow"), dim)
        jump_map = _map_from_config(spec.get("jump"), dim)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad inline system: {exc}") from exc
    return HybridSystem(dim, flow_set, flow_map, jump_set, jump_map,
                        name=spec.get("name", "inline"), flow_map_batch=flow_map)


def _run_inputs(args) -> dict:
    """A run's system block and solver block: the config file's, with
    ``--system``, ``--param``, ``--tmax`` and ``--jmax`` applied."""
    cfg = {} if args.config is None else _load_config(args.config)
    block = cfg.get("system")
    if args.system is not None and block is not None:
        raise ConfigError(f"--system {args.system!r} and the system block of config "
                          f"{args.config} both name a system; give one of them")
    if args.system is not None or isinstance(block, str):
        block = {"fixture": block if args.system is None else args.system}
    if block is None:
        raise ConfigError("no system given: use --system NAME or a config file")
    if args.param:
        if not (isinstance(block, dict) and "fixture" in block):
            raise ConfigError("--param sets catalog fixture parameters; "
                              "an inline system takes none")
        params = block.get("params", {})
        for kv in args.param if isinstance(params, dict) else ():  # else _resolve refuses it
            k, eq, v = kv.partition("=")
            if not eq:
                raise ConfigError(f"--param needs key=value, got {kv!r}")
            try:
                params = {**params, k: float(v)}
            except ValueError:
                raise ConfigError(f"--param {kv!r}: value is not a number") from None
        block = {**block, "params": params}
    horizon = {"t_max": args.tmax, "j_max": args.jmax}
    solver = {**cfg.get("solver", {}), **{k: v for k, v in horizon.items() if v is not None}}
    return {"system": block, "solver": solver}


def _resolve(spec: dict) -> tuple[Fixture | None, object, SolverConfig]:
    """(fixture | None, system, solver configuration) of a run: the one place a
    system block (a catalog name, a fixture block or an inline system) is
    checked and becomes a system, and a fixture's ``solver_overrides`` apply."""
    block = {"fixture": spec["system"]} if isinstance(spec["system"], str) else spec["system"]
    if not isinstance(block, dict):
        raise ConfigError(f"a system block is a catalog name or a JSON object, got {block!r}")
    if "fixture" in block:
        _refuse_unknown_keys(block, "fixture block")
        name, params = block["fixture"], block.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"system params must be a JSON object, got {params!r}")
        try:
            observer = ObserverParams(**params) if name == "observer" and params else None
        except (TypeError, HybridkitError) as exc:
            raise ConfigError(f"bad observer parameters: {exc}") from exc
        cat = catalog(observer)
        if not isinstance(name, str) or name not in cat:
            raise ConfigError(f"unknown system {name!r}: it names no catalog fixture; "
                              f"try: {', '.join(sorted(cat))}")
        if params and name != "observer":
            raise ConfigError(f"system {name!r} takes no parameters, got {params!r}")
        fixture = cat[name]
        system, base = fixture.system, fixture.solver_overrides
    else:
        _refuse_unknown_keys(block, "inline system")
        fixture, system, base = None, _system_from_inline(block), {}
    try:
        return fixture, system, SolverConfig(**{**base, **spec["solver"]})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver configuration: {exc}") from exc


def _record(fixture: Fixture | None, spec: dict) -> dict:
    """The system block a run record keeps for ``_resolve``: a fixture's with
    every parameter, an inline system's as given."""
    return {"fixture": fixture.name, "params": fixture.params} if fixture else spec["system"]


def _write_record(path: Path, system: dict, **fields) -> None:
    """Writes a run record: the run's system block and ``fields``."""
    _write(path, json.dumps({"schema_version": REPORT_SCHEMA_VERSION, "system": system,
                             **fields}, indent=1))


def _resolve_gamma(fixture: Fixture | None, token: str, dim: int) -> ClosedSet:
    """A fixture target by catalog key, else by set name (witnesses record
    the latter), else ``origin``."""
    if fixture is not None:
        if token in fixture.gammas:
            return fixture.gammas[token]
        for gamma in fixture.gammas.values():
            if gamma.name == token:
                return gamma
    if token == "origin":
        return point_set(np.zeros(dim), name="origin")
    raise ConfigError(
        f"unknown target set {token!r}"
        + (f"; fixture offers {sorted(fixture.gammas)}" if fixture else ""))


def _resolve_window(box: str | None, fixture: Fixture | None, dim: int) -> Window:
    if box in (None, "preset"):
        return fixture.window if fixture is not None else Window.cube(dim, 2.0)
    try:
        bounds = [[float(v) for v in part.split(":")] for part in box.split(",")]
        window = Window.from_bounds(bounds)
    except ValueError as exc:
        raise ConfigError(f"bad --box {box!r} (want lo:hi,lo:hi,...): {exc}") from exc
    if window.dim != dim:
        raise ConfigError(f"--box has {window.dim} bounds, system dim is {dim}")
    return window


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_x0(fixture: Fixture | None, args, dim: int) -> np.ndarray:
    if args.preset is not None:
        if fixture is None or args.preset not in fixture.presets:
            raise ConfigError(f"unknown preset {args.preset!r}")
        return np.array(fixture.presets[args.preset], dtype=float)
    if args.x0 is not None:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")], dtype=float)
        except ValueError as exc:
            raise ConfigError(f"bad --x0 {args.x0!r}") from exc
        if not np.isfinite(x0).all():
            raise ConfigError(f"--x0 {args.x0!r} has a non-finite entry")
        if x0.size != dim:
            raise ConfigError(f"--x0 has {x0.size} entries, system dim is {dim}")
        return x0
    if fixture is not None and len(fixture.presets) == 1:
        (preset,) = fixture.presets.values()
        return np.array(preset, dtype=float)
    raise ConfigError("no initial condition: use --x0 or --preset")


#: the tracks ``simulate --tracks`` accepts; any of them emits all three panels
_TRACKS = ("y", "q", "T", "chihat")


def _fig3_panels(arc: HybridArc) -> dict[str, str]:
    """Three plot-data CSVs in hybrid-time order: (y, q), (T), and the
    estimate-vs-plant states, written from the arc's column text."""
    panels = (("panel_y_q.csv", "t,j,y,q", ["x_1", "x_5"]),
              ("panel_T.csv", "t,j,T", ["x_6"]),
              ("panel_states.csv", "t,j,chihat_1,chihat_2,chi_1,chi_2",
               ["x_3", "x_4", "x_1", "x_2"]))
    return {name: _csv_text(header, [arc.column_text(c) for c in ["t", "j", *cols]])
            for name, header, cols in panels}


def cmd_simulate(args) -> int:
    spec = _run_inputs(args)
    fixture, system, scfg = _resolve(spec)
    x0 = _parse_x0(fixture, args, system.dim)
    if args.tracks is not None:
        if fixture is None or fixture.name != "observer":
            raise ConfigError("--tracks emits the observer's plot panels; "
                              f"system {system.name!r} has none")
        bad = sorted(set(args.tracks.split(",")) - set(_TRACKS))
        if bad:
            raise ConfigError(f"--tracks {args.tracks!r}: unknown tracks {bad}; "
                              f"choose from {','.join(_TRACKS)}")
    try:
        arc = solve(system, x0, scfg)
    except HybridkitError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if arc.termination is Termination.NUMERICAL_FAILURE:
        print(f"solver failure: termination flag {arc.termination.value}",
              file=sys.stderr)
        return EXIT_SOLVER

    out = Path(args.out)
    # the JSON mirror first, so that its text is not built while the arc
    # holds the column text it keeps for the CSV and the panels
    if args.format in ("json", "both"):
        _write(out / "arc.json", arc.to_json())
    if args.format in ("csv", "both"):
        _write(out / "arc.csv", arc.to_csv())
    _write_record(out / "run.json", _record(fixture, spec), x0=x0.tolist(),
                  termination=arc.termination.value, n_jumps=arc.n_jumps,
                  t_end=arc.final_time()[0], solver=scfg.to_config())

    if args.tracks is not None:
        for name, text in _fig3_panels(arc).items():
            _write(out / name, text)

    # event log
    _say(f"system: {system.name}  termination: {arc.termination.value}  "
         f"t_end: {arc.final_time()[0]:.6g}  jumps: {arc.n_jumps}")
    for t, j, pre, post in arc.jump_transitions():
        _say(f"jump {j + 1} at t={t:.10g}")
    _say(f"wrote {out}/arc.{args.format if args.format != 'both' else 'csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


#: the checks ``analyze --check`` offers, and those of them ``--gamma2`` feeds
CHECKS = ("stability", "attractivity", "local-stability-near", "strong-invariance",
          "weak-invariance", "reduction", "detectability")
_OUTER = ("local-stability-near", "reduction", "detectability")


def spec_from_args(args) -> dict:
    """The run spec of an ``analyze`` command: one JSON-able dict holding all
    that the run reads, the config file's content included.  Raises the
    argument errors seen before any system is built."""
    check = args.check or "stability"
    chained = args.reduce_chain is not None
    if chained and (args.check, args.gamma) != (None, None):
        raise ConfigError("--check and --gamma do not apply to --reduce-chain, which runs "
                          "the chain report on the sets it names")
    if args.gamma2 is not None and (chained or check not in _OUTER):
        raise ConfigError(f"--gamma2 is read only by --check {', '.join(_OUTER)}")
    try:
        eps = [0.25, 0.5, 1.0] if args.eps is None else [float(e) for e in args.eps.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --eps {args.eps!r}: {exc}") from exc
    return {**_run_inputs(args), "box": args.box,
            "query": {"eps_grid": eps, "sample_budget": args.budget, "conv_tol": args.conv_tol,
                      "seed": args.seed, "delta_shrinks": args.delta_shrinks,
                      "near_radius": args.r},
            "check": {"name": "reduction" if chained else check,
                      "gamma": args.gamma, "gamma2": args.gamma2, "scope": args.scope,
                      "chain": args.reduce_chain.split(",") if chained else None}}


def run_spec(spec: dict) -> tuple[str, object, dict]:
    """Builds and runs the analysis a run spec describes, from the spec alone.
    Returns the report's name, the report, and its records' system block."""
    check = spec["check"]
    name, scope = check["name"], check["scope"]
    if name not in CHECKS:
        raise ConfigError(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
    fixture, system, scfg = _resolve(spec)
    window = _resolve_window(spec["box"], fixture, system.dim)
    try:
        query = PropertyQuery(**spec["query"], window=window, solver=scfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad analysis query: {exc}") from exc

    if check["chain"] is not None:
        chain = [_resolve_gamma(fixture, n, system.dim) for n in check["chain"]]
        return name, recursive_reduction_report(system, chain, query,
                                                scope=scope or "local"), _record(fixture, spec)
    if name == "detectability" and (fixture is None or fixture.output is None):
        raise ConfigError("--check detectability needs a fixture with an output map")
    g = lambda name, default: _resolve_gamma(fixture, default if name is None else name, system.dim)
    g1, g2 = g(check["gamma"], "gamma1"), lambda: g(check["gamma2"], "gamma2")
    if name == "reduction":
        rep = reduction_report(system, g1, g2(), query, scope=scope or "local")
    elif name == "detectability":
        rep = detectability_report(with_output(system, fixture.output), g1, g2(), query)
    elif name == "stability":
        rep = check_stability(system, g1, query)
    elif name == "attractivity":
        rep = check_attractivity(system, g1, query, near=g1 if scope == "local" else None)
    elif name == "local-stability-near":
        name, rep = "local_stability_near", check_local_stability_near(
            system, g1, g2(), query.radius, query)
    else:
        name, rep = "invariance", check_invariance(system, g1, name.split("-")[0], query)
    return name, rep, _record(fixture, spec)


def write_report(out: Path, name: str, rep, system: dict) -> int:
    """Writes a report, its summary and each falsified check's witness arc and
    metadata (a run record of ``system``) under ``out``; returns the exit code."""
    d = rep.to_json_dict()
    # (check, its JSON node, its witness tag) for every check the report holds
    walk = [(rep, d, name)] if isinstance(rep, AnalysisReport) else [
        (sub, d[section][k], f"{name}_{prefix}{k}")
        for section, prefix in (("sub_reports", ""), ("conclusions", "conclusion_"))
        for k, sub in getattr(rep, section).items()]
    for sub, node, tag in walk:
        if sub.witness is None:
            continue
        # relative to the report directory so --seed pins files byte-for-byte
        node["witness_path"] = f"witness_{tag}.csv"
        _write(out / node["witness_path"], sub.witness.to_csv())
        _write_record(out / f"witness_{tag}.json", system, clause=sub.witness_clause,
                      termination=sub.witness.termination.value, x0=sub.witness.meta.get("x0"),
                      solver=sub.witness.meta.get("config"), gamma=sub.provenance.get("target"),
                      gamma2=sub.provenance.get("relative_to"), check_tol=WITNESS_CHECK_TOL)
    falsified = not all(sub.consistent for sub, _, _ in walk)

    payload = {"schema_version": REPORT_SCHEMA_VERSION, "reports": {name: d}}
    _write(out / "report.json", json.dumps(payload, indent=1))
    summary = summarize(rep) + "\n"
    _write(out / "summary.txt", summary)
    _say(f"{summary}wrote {out}/report.json")
    return EXIT_FALSIFIED if falsified else EXIT_OK


def cmd_analyze(args) -> int:
    return write_report(Path(args.out), *run_spec(spec_from_args(args)))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args) -> int:
    arc_path = Path(args.arc)
    meta_path = arc_path.with_suffix(".json") if args.meta is None else Path(args.meta)
    # a missing default <stem>.json falls back to run.json; a named --meta must exist
    read = lambda path: json.loads(path.read_text(encoding="utf-8")) \
        if args.meta is not None or path.exists() else {}
    try:
        arc_text = arc_path.read_text(encoding="utf-8")
        meta = read(meta_path)
        if args.meta is None and (not meta_path.exists()
                                  or isinstance(meta, dict) and "samples" in meta):
            # no <stem>.json, or the arc's JSON mirror: the run's metadata is run.json
            meta_path = arc_path.with_name("run.json")
            meta = read(meta_path)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        print(f"cannot read arc/meta: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(meta, dict):
        raise ConfigError(f"metadata {meta_path} is not a JSON object")
    _refuse_unknown_keys(meta, "record", f"metadata {meta_path}: ")
    try:
        arc = HybridArc.from_csv(arc_text, termination=meta.get("termination"))
    except HybridkitError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # the run's solver settings: its tol_set for the checker, all of them to regenerate
    solver = meta.get("solver")
    fixture, system, scfg = _resolve({"system": meta.get("system"),
                                      "solver": {} if solver is None else solver})
    tol = meta.get("check_tol", WITNESS_CHECK_TOL)
    try:
        violations = check_is_solution(system, arc, float(tol), scfg.tol_set)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"cannot check the arc at check_tol {tol!r}: {exc}") from exc
    ok_solution = not violations
    _say(f"check_is_solution: {'clean' if ok_solution else violations[:3]}")

    clause = meta.get("clause")
    if clause:
        gname, g2name = meta.get("gamma"), meta.get("gamma2")
        gamma = _resolve_gamma(fixture, gname, system.dim) if gname else None
        g2 = _resolve_gamma(fixture, g2name, system.dim) if g2name else None
        try:
            reproduced = replay_clause(arc, clause, gamma, g2, output=fixture and fixture.output)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot replay witness clause {clause!r}: {exc}") from exc
        _say(f"violation reproduced: {reproduced}")
        if not (ok_solution and reproduced):
            return EXIT_FALSIFIED if ok_solution else EXIT_CONFIG
        return EXIT_OK

    # plain arc: optionally regenerate and compare bitwise
    bitwise = None
    if meta.get("x0") is not None and solver is not None:
        try:
            x0 = np.asarray(meta["x0"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad x0 {meta['x0']!r} in metadata: {exc}") from exc
        bitwise = solve(system, x0, scfg).to_csv() == arc_text
        _say(f"bitwise match after regeneration: {bitwise}")
    return EXIT_OK if ok_solution and bitwise is not False else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# list-systems
# ---------------------------------------------------------------------------


def cmd_list_systems(_args) -> int:
    for name, fx in sorted(catalog().items()):
        gammas = ", ".join(sorted(fx.gammas))
        presets = ", ".join(sorted(fx.presets)) or "-"
        _say(f"{name:14s} dim={fx.system.dim}  targets: {gammas}  "
             f"presets: {presets}")
        if fx.notes:
            _say(f"{'':14s} {fx.notes}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybridkit",
        description="Simulate and empirically analyze hybrid dynamical systems "
                    "given as flow set / flow map / jump set / jump map.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--system", default=None, help="fixture name")
        p.add_argument("--param", action="append", default=None,
                       metavar="KEY=VALUE", help="fixture parameter override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tmax", type=float, default=None)
        p.add_argument("--jmax", type=int, default=None)

    p = sub.add_parser("simulate", help="compute one hybrid arc")
    common(p)
    p.add_argument("--x0", default=None, help="comma-separated initial state")
    p.add_argument("--preset", default=None, help="named initial condition")
    p.add_argument("--tracks", default=None,
                   help="comma list (observer: y,q,T,chihat) to emit plot panels")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="run property checks or reduction reports")
    common(p)
    p.add_argument("--check", default=None,  # stability when absent
                   choices=CHECKS)
    p.add_argument("--gamma", default=None, help="target set name")
    p.add_argument("--gamma2", default=None, help="outer set name")
    p.add_argument("--reduce-chain", default=None,
                   help="comma list of nested target names (innermost first)")
    p.add_argument("--scope", choices=("local", "global"), default=None,
                   help="attractivity: local draws within --r of the target, "
                        "global (default) from the window or system sampler; "
                        "reductions and chains: which theorem (default "
                        "local); other checks: ignored")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", default=None,
                   help="'preset' or lo:hi,lo:hi,... sampling window")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--eps", default=None, help="comma list of epsilons")
    p.add_argument("--conv-tol", type=float, default=1e-3)
    p.add_argument("--delta-shrinks", type=int, default=5)
    p.add_argument("--r", type=float, default=None,
                   help="near-radius for local notions")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("replay", help="re-validate a stored arc or witness")
    p.add_argument("--arc", required=True, help="arc CSV path")
    p.add_argument("--meta", default=None,
                   help="witness/run metadata JSON (default: arc path with .json, "
                        "else run.json beside the arc)")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("list-systems", help="show the fixture catalog")
    p.set_defaults(fn=cmd_list_systems)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Runs one command.  A toolkit error the command does not handle itself
    (bad configuration, a stored arc that does not fit its system) exits 2."""
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except HybridkitError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
