"""Command-line front end: simulate fixtures or config-defined systems, run
analysis campaigns, replay witnesses, and emit trajectory/plot-data files.

Exit codes: 0 success / all consistent, 1 falsified (witness paths printed),
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    AnalysisReport,
    PropertyQuery,
    ReductionReport,
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
from .core import HybridArc, Termination, check_is_solution
from .errors import ConfigError, HybridkitError
from .geometry import ClosedSet, Window, box_set, full_space, point_set, set_from_config
from .solver import SolverConfig, solve
from .systems import Fixture, ObserverParams, catalog

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _affine_map(spec: dict):
    a = np.asarray(spec["A"], dtype=float)
    b = np.asarray(spec.get("b", np.zeros(a.shape[0])), dtype=float)
    return lambda x: a @ x + b


def _poly_map(spec: list, dim: int):
    # terms: [{"target": i, "terms": [{"c": coef, "powers": [e_1..e_n]}]}]
    rows = {int(r["target"]): r["terms"] for r in spec}

    def fn(x):
        out = np.zeros(dim)
        for i, terms in rows.items():
            acc = 0.0
            for t in terms:
                acc += t["c"] * float(np.prod(x ** np.asarray(t["powers"], dtype=float)))
            out[i] = acc
        return out

    return fn


def _map_from_config(spec: dict | None, dim: int):
    if spec is None:
        return lambda x: x
    if "affine" in spec:
        return _affine_map(spec["affine"])
    if "poly" in spec:
        return _poly_map(spec["poly"], dim)
    raise ConfigError("dynamics must be given as 'affine' or 'poly' blocks")


def _system_from_inline(spec: dict):
    from .core import HybridSystem
    from .geometry import empty_set

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
                        name=spec.get("name", "inline"))


def _resolve_fixture(args, cfg: dict) -> tuple[Fixture | None, object]:
    """Returns (fixture | None, system); inline configs have no fixture."""
    sys_spec = cfg.get("system")
    name = args.system or (sys_spec if isinstance(sys_spec, str) else None)
    if name is None and isinstance(sys_spec, dict) and "fixture" in sys_spec:
        name = sys_spec["fixture"]
    if name is not None:
        params = None
        overrides = {}
        if isinstance(sys_spec, dict):
            overrides = sys_spec.get("params", {})
        if getattr(args, "param", None):
            for kv in args.param:
                k, _, v = kv.partition("=")
                if not _:
                    raise ConfigError(f"--param needs key=value, got {kv!r}")
                overrides[k] = float(v)
        if name == "observer" and overrides:
            params = ObserverParams(**{**ObserverParams().to_config(), **overrides})
        cat = catalog(params)
        if name not in cat:
            raise ConfigError(
                f"unknown system {name!r}; try: {', '.join(sorted(cat))}")
        fx = cat[name]
        return fx, fx.system
    if isinstance(sys_spec, dict):
        return None, _system_from_inline(sys_spec)
    raise ConfigError("no system given: use --system NAME or a config file")


def _solver_config(args, cfg: dict, fixture: Fixture | None) -> SolverConfig:
    base = dict(fixture.solver_overrides) if fixture is not None else {}
    base.update(cfg.get("solver", {}))
    if getattr(args, "tmax", None) is not None:
        base["t_max"] = args.tmax
    if getattr(args, "jmax", None) is not None:
        base["j_max"] = args.jmax
    try:
        return SolverConfig.from_config(base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver configuration: {exc}") from exc


def _resolve_gamma(fixture: Fixture | None, token: str, dim: int) -> ClosedSet:
    """A fixture target by catalog key, else by set name (witnesses record
    the latter), else ``origin``."""
    if fixture is not None:
        if token in fixture.gammas:
            return fixture.gamma(token)
        for gamma in fixture.gammas.values():
            if gamma.name == token:
                return gamma
    if token == "origin":
        return point_set(np.zeros(dim), name="origin")
    raise ConfigError(
        f"unknown target set {token!r}"
        + (f"; fixture offers {sorted(fixture.gammas)}" if fixture else ""))


def _resolve_window(args, fixture: Fixture | None, dim: int) -> Window:
    box = getattr(args, "box", None)
    if box in (None, "preset"):
        if fixture is not None:
            return fixture.window
        return Window.cube(dim, 2.0)
    try:
        bounds = [[float(v) for v in part.split(":")] for part in box.split(",")]
        return Window.from_bounds(bounds)
    except ValueError as exc:
        raise ConfigError(f"bad --box {box!r} (want lo:hi,lo:hi,...)") from exc


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
        if x0.size != dim:
            raise ConfigError(f"--x0 has {x0.size} entries, system dim is {dim}")
        return x0
    if fixture is not None and "default" in fixture.presets:
        return np.array(fixture.presets["default"], dtype=float)
    if fixture is not None and "fig3" in fixture.presets:
        return np.array(fixture.presets["fig3"], dtype=float)
    raise ConfigError("no initial condition: use --x0 or --preset")


def _fig3_panels(arc: HybridArc) -> dict[str, str]:
    """Three plot-data CSVs in hybrid-time order: (y, q), (T), and the
    estimate-vs-plant states."""
    rows = list(arc.samples())
    out = {}
    buf = ["t,j,y,q"]
    for t, j, x in rows:
        buf.append(f"{t:.17g},{j},{x[0]:.17g},{x[4]:.17g}")
    out["panel_y_q.csv"] = "\n".join(buf) + "\n"
    buf = ["t,j,T"]
    for t, j, x in rows:
        buf.append(f"{t:.17g},{j},{x[5]:.17g}")
    out["panel_T.csv"] = "\n".join(buf) + "\n"
    buf = ["t,j,chihat_1,chihat_2,chi_1,chi_2"]
    for t, j, x in rows:
        buf.append(f"{t:.17g},{j},{x[2]:.17g},{x[3]:.17g},{x[0]:.17g},{x[1]:.17g}")
    out["panel_states.csv"] = "\n".join(buf) + "\n"
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    fixture, system = _resolve_fixture(args, cfg)
    scfg = _solver_config(args, cfg, fixture)
    x0 = _parse_x0(fixture, args, system.dim)
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
    if args.format in ("csv", "both"):
        _write(out / "arc.csv", arc.to_csv())
    if args.format in ("json", "both"):
        _write(out / "arc.json", arc.to_json())
    meta = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "system": system.name,
        "x0": x0.tolist(),
        "termination": arc.termination.value,
        "n_jumps": arc.n_jumps,
        "t_end": arc.final_time()[0],
        "solver": scfg.to_config(),
    }
    if fixture is not None:
        meta["fixture"] = fixture.name
        meta["params"] = fixture.params
    _write(out / "run.json", json.dumps(meta, indent=1))

    tracks = (args.tracks or "").split(",") if args.tracks else []
    if tracks and fixture is not None and fixture.name == "observer":
        for name, text in _fig3_panels(arc).items():
            _write(out / name, text)

    # event log
    print(f"system: {system.name}  termination: {arc.termination.value}  "
          f"t_end: {arc.final_time()[0]:.6g}  jumps: {arc.n_jumps}")
    for t, j, pre, post in arc.jump_transitions():
        print(f"jump {j + 1} at t={t:.10g}")
    print(f"wrote {out}/arc.{args.format if args.format != 'both' else 'csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _save_witness(report: AnalysisReport, out: Path, tag: str,
                  meta_extra: dict) -> str | None:
    if report.witness is None:
        return None
    arc_name = f"witness_{tag}.csv"
    arc_path = out / arc_name
    _write(arc_path, report.witness.to_csv())
    meta = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "clause": report.witness_clause,
        "termination": report.witness.termination.value,
        "solver": report.witness.meta.get("config"),
        "x0": report.witness.meta.get("x0"),
        "gamma": report.provenance.get("target"),
        "gamma2": report.provenance.get("relative_to"),
        "check_tol": 1e-3,
        **meta_extra,
    }
    _write(out / f"witness_{tag}.json", json.dumps(meta, indent=1))
    # relative to the report directory so --seed pins files byte-for-byte
    return arc_name


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    fixture, system = _resolve_fixture(args, cfg)
    scfg = _solver_config(args, cfg, fixture)
    window = _resolve_window(args, fixture, system.dim)
    out = Path(args.out)
    meta_extra = {"system": fixture.name if fixture else "inline"}
    if fixture is not None:
        meta_extra["params"] = fixture.params

    query = PropertyQuery(
        prop="Stability",
        eps_grid=tuple(float(e) for e in args.eps.split(",")) if args.eps
        else (0.25, 0.5, 1.0),
        sample_budget=args.budget,
        t_max=scfg.t_max,
        j_max=scfg.j_max,
        conv_tol=args.conv_tol,
        seed=args.seed,
        window=window,
        delta_shrinks=args.delta_shrinks,
        solver=scfg,
        near_radius=args.r,
    )

    reports: dict[str, AnalysisReport | ReductionReport] = {}
    try:
        if args.reduce_chain:
            names = args.reduce_chain.split(",")
            chain = [_resolve_gamma(fixture, n, system.dim) for n in names]
            reports["reduction"] = recursive_reduction_report(
                system, chain, query, scope=args.scope)
        elif args.check == "reduction":
            g1 = _resolve_gamma(fixture, args.gamma or "gamma1", system.dim)
            g2 = _resolve_gamma(fixture, args.gamma2 or "gamma2", system.dim)
            reports["reduction"] = reduction_report(
                system, g1, g2, query, scope=args.scope, r=args.r)
        elif args.check == "detectability":
            if fixture is None or fixture.output is None:
                raise ConfigError("detectability needs a fixture with an output map")
            g1 = _resolve_gamma(fixture, args.gamma or "gamma1", system.dim)
            g2 = _resolve_gamma(fixture, args.gamma2 or "gamma2", system.dim)
            reports["detectability"] = detectability_report(
                with_output(system, fixture.output), g1, g2, query)
        else:
            gamma = _resolve_gamma(fixture, args.gamma or "gamma1", system.dim)
            if args.check == "stability":
                reports["stability"] = check_stability(system, gamma, query)
            elif args.check == "attractivity":
                reports["attractivity"] = check_attractivity(system, gamma, query)
            elif args.check == "local-stability-near":
                g2 = _resolve_gamma(fixture, args.gamma2 or "gamma2", system.dim)
                reports["local_stability_near"] = check_local_stability_near(
                    system, gamma, g2, args.r or max(query.eps_grid), query)
            elif args.check in ("strong-invariance", "weak-invariance"):
                mode = "strong" if args.check.startswith("strong") else "weak"
                reports["invariance"] = check_invariance(system, gamma, mode, query)
            else:
                raise ConfigError(f"unknown check {args.check!r}")
    except HybridkitError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    any_falsified = False
    summary_lines = []
    payload: dict = {"schema_version": REPORT_SCHEMA_VERSION, "reports": {}}
    for name, rep in reports.items():
        if isinstance(rep, ReductionReport):
            d = rep.to_json_dict()
            for sub_name, sub in rep.reports().items():
                wpath = _save_witness(sub, out, f"{name}_{sub_name}", meta_extra)
                if wpath:
                    key = sub_name if not sub_name.startswith("conclusion_") \
                        else sub_name
                    section = ("conclusions" if sub_name.startswith("conclusion_")
                               else "sub_reports")
                    short = sub_name.removeprefix("conclusion_")
                    d[section][short]["witness_path"] = wpath
            payload["reports"][name] = d
            any_falsified |= not rep.all_consistent
        else:
            d = rep.to_json_dict()
            wpath = _save_witness(rep, out, name, meta_extra)
            if wpath:
                d["witness_path"] = wpath
            payload["reports"][name] = d
            any_falsified |= not rep.consistent
        summary_lines.append(summarize(rep))

    _write(out / "report.json", json.dumps(payload, indent=1))
    summary = "\n\n".join(summary_lines) + "\n"
    _write(out / "summary.txt", summary)
    print(summary, end="")
    print(f"wrote {out}/report.json")
    return EXIT_FALSIFIED if any_falsified else EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args) -> int:
    arc_path = Path(args.arc)
    meta_path = Path(args.meta) if args.meta else arc_path.with_suffix(".json")
    try:
        arc_text = arc_path.read_text(encoding="utf-8")
        meta = json.loads(meta_path.read_text(encoding="utf-8")) \
            if meta_path.exists() else {}
    except OSError as exc:
        print(f"cannot read arc/meta: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        arc = HybridArc.from_csv(arc_text, termination=meta.get("termination"))
    except HybridkitError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fixture = None
    if meta.get("system") in catalog():
        params = None
        if meta.get("system") == "observer" and meta.get("params"):
            params = ObserverParams(**meta["params"])
        fixture = catalog(params)[meta["system"]]
    if fixture is None:
        print("no fixture information in witness metadata; validated structure "
              "only")
        return EXIT_OK

    system = fixture.system
    tol = float(meta.get("check_tol", 1e-3))
    violations = check_is_solution(system, arc, tol)
    ok_solution = not violations
    print(f"check_is_solution: {'clean' if ok_solution else violations[:3]}")

    clause = meta.get("clause")
    reproduced = None
    if clause:
        gname, g2name = meta.get("gamma"), meta.get("gamma2")
        gamma = _resolve_gamma(fixture, gname, system.dim) if gname else None
        g2 = _resolve_gamma(fixture, g2name, system.dim) if g2name else None
        reproduced = replay_clause(arc, clause, gamma, g2, output=fixture.output)
        print(f"violation reproduced: {reproduced}")
        if not (ok_solution and reproduced):
            return EXIT_FALSIFIED if ok_solution else EXIT_CONFIG
        return EXIT_OK

    # plain arc: optionally regenerate and compare bitwise
    bitwise = None
    if meta.get("x0") is not None and meta.get("solver") is not None:
        scfg = SolverConfig.from_config(meta["solver"])
        arc2 = solve(system, np.asarray(meta["x0"], dtype=float), scfg)
        bitwise = arc2.to_csv() == arc_text
        print(f"bitwise match after regeneration: {bitwise}")
    if not ok_solution:
        return EXIT_FALSIFIED
    if bitwise is False:
        return EXIT_FALSIFIED
    return EXIT_OK


# ---------------------------------------------------------------------------
# list-systems
# ---------------------------------------------------------------------------


def cmd_list_systems(_args) -> int:
    for name, fx in sorted(catalog().items()):
        gammas = ", ".join(sorted(fx.gammas))
        presets = ", ".join(sorted(fx.presets)) or "-"
        print(f"{name:14s} dim={fx.system.dim}  targets: {gammas}  "
              f"presets: {presets}")
        if fx.notes:
            print(f"{'':14s} {fx.notes}")
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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.add_argument("--tmax", type=float, default=None)
        p.add_argument("--jmax", type=int, default=None)

    p = sub.add_parser("simulate", help="compute one hybrid arc")
    common(p)
    p.add_argument("--x0", default=None, help="comma-separated initial state")
    p.add_argument("--preset", default=None, help="named initial condition")
    p.add_argument("--tracks", default=None,
                   help="comma list (observer: y,q,T,chihat) to emit plot panels")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="run property checks or reduction reports")
    common(p)
    p.add_argument("--check", default="stability",
                   choices=("stability", "attractivity", "local-stability-near",
                            "strong-invariance", "weak-invariance",
                            "reduction", "detectability"))
    p.add_argument("--gamma", default=None, help="target set name")
    p.add_argument("--gamma2", default=None, help="outer set name")
    p.add_argument("--reduce-chain", default=None,
                   help="comma list of nested target names (innermost first)")
    p.add_argument("--scope", choices=("local", "global"), default="local")
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
                   help="witness/run metadata JSON (default: arc path with .json)")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("list-systems", help="show the fixture catalog")
    p.set_defaults(fn=cmd_list_systems)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
