"""The benchmark's workloads: the CLI commands of one op, and its output checks.

An op is a short sequence of ``hybridkit.cli.main`` calls writing into one
output directory.  ``check`` returns a list of problems (empty when the op's
outputs are right); exit codes alone are not enough, because ``replay`` exits
0 after validating structure only.  README.md gives each workload's reason.

``SIZES["tiny"]`` shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: toggle's ``--seed`` when the benchmark is given none
DEFAULT_SEED = 31

#: chain's ``--seed``, whatever the benchmark's seed: at budget 2 the number
#: of solves the epsilon-delta loops make varies with the seed, and with it
#: the op's time by +-15%, too much to compare runs; 0 is the seed of the
#: Tier-1 CLI test this workload shares its code path with
CHAIN_SEED = 0

#: ``setup_reps`` is how many fresh interpreters ``setup_s`` is the median of
SIZES = {
    "full": {"setup_reps": 11, "fig3_tmax": 30, "fig3_jumps": 14, "toggle_budget": 500,
             "toggle_stab_budget": 25, "chain_budget": 2, "chain_eps": "0.25,1.0",
             "chain_shrinks": 3, "chain_tmax": 35},
    # chain cannot shrink below ~9 s and stay consistent: attractivity of the
    # observer targets needs the 35 s horizon
    "tiny": {"setup_reps": 1, "fig3_tmax": 3, "fig3_jumps": 1, "toggle_budget": 8,
             "toggle_stab_budget": 25, "chain_budget": 1, "chain_eps": "1.0",
             "chain_shrinks": 0, "chain_tmax": 35},
}

#: first jump of the fig3 reference run: 2 cos(1.5 t) = -0.25
FIG3_FIRST_JUMP = math.acos(-0.125) / 1.5


@dataclass(frozen=True)
class Command:
    kind: str        # timing bucket: simulate | analyze | replay
    argv: list[str]


@dataclass
class Done:
    """One finished command: exit code and captured standard output."""

    kind: str
    code: int
    stdout: str
    seconds: float


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[Path, int, dict], list[Command]]
    check: Callable[[Path, list[Done], dict], list[str]]
    seeded: bool  # whether the op's inputs depend on the benchmark's seed


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _report(path: Path, name: str) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))["reports"][name]
    except (OSError, ValueError, KeyError) as exc:
        return {"unreadable": str(exc)}


# -- fig3: the reference run --------------------------------------------------


def _fig3_commands(out: Path, seed: int, size: dict) -> list[Command]:
    return [
        Command("simulate", ["simulate", "--system", "observer", "--preset", "fig3",
                             "--tmax", str(size["fig3_tmax"]),
                             "--tracks", "y,q,T,chihat", "--out", str(out)]),
        Command("replay", ["replay", "--arc", str(out / "arc.csv"),
                           "--meta", str(out / "run.json")]),
    ]


def _fig3_check(out: Path, done: list[Done], size: dict) -> list[str]:
    sim, rep = done
    p: list[str] = []
    _expect(p, sim.code == 0, f"simulate exit {sim.code}")
    _expect(p, "termination: CompleteByHorizonT" in sim.stdout,
            "simulate did not end CompleteByHorizonT")
    jumps = re.search(r"jumps: (\d+)", sim.stdout)
    _expect(p, jumps is not None and int(jumps.group(1)) == size["fig3_jumps"],
            f"expected {size['fig3_jumps']} jumps, got {jumps and jumps.group(1)}")
    first = re.search(r"^jump 1 at t=(\S+)$", sim.stdout, re.M)
    _expect(p, first is not None and abs(float(first.group(1)) - FIG3_FIRST_JUMP) <= 1e-6,
            f"first jump {first and first.group(1)} not within 1e-6 of {FIG3_FIRST_JUMP}")
    _expect(p, rep.code == 0, f"replay exit {rep.code}")
    _expect(p, "bitwise match after regeneration: True" in rep.stdout,
            "replay did not regenerate the arc bitwise")
    return p


# -- toggle: the event-heavy campaign ----------------------------------------


def _toggle_commands(out: Path, seed: int, size: dict) -> list[Command]:
    common = ["--system", "circles", "--gamma", "gamma1", "--scope", "global",
              "--box", "preset", "--seed", str(seed)]
    stab = out / "stability"
    return [
        Command("analyze", ["analyze", "--check", "attractivity", *common,
                            "--budget", str(size["toggle_budget"]),
                            "--out", str(out / "attractivity")]),
        Command("analyze", ["analyze", "--check", "stability", *common,
                            "--budget", str(size["toggle_stab_budget"]),
                            "--out", str(stab)]),
        Command("replay", ["replay", "--arc", str(stab / "witness_stability.csv"),
                           "--meta", str(stab / "witness_stability.json")]),
    ]


def _toggle_check(out: Path, done: list[Done], size: dict) -> list[str]:
    attr, stab, rep = done
    p: list[str] = []
    a = _report(out / "attractivity" / "report.json", "attractivity")
    _expect(p, attr.code == 0, f"attractivity exit {attr.code}")
    _expect(p, a.get("verdict") == "ConsistentAtBudget",
            f"attractivity verdict {a.get('verdict')}")
    n_total = a.get("measured", {}).get("n_total")
    _expect(p, n_total == size["toggle_budget"],
            f"attractivity n_total {n_total}, budget {size['toggle_budget']}")
    s = _report(out / "stability" / "report.json", "stability")
    _expect(p, stab.code == 1, f"stability exit {stab.code}, expected 1 (falsified)")
    _expect(p, s.get("verdict") == "Falsified", f"stability verdict {s.get('verdict')}")
    _expect(p, rep.code == 0, f"witness replay exit {rep.code}")
    _expect(p, "violation reproduced: True" in rep.stdout,
            "witness replay did not reproduce the violation")
    return p


# -- chain: the nested-chain reduction campaign --------------------------------


def _chain_commands(out: Path, seed: int, size: dict) -> list[Command]:
    return [Command("analyze", [
        "analyze", "--system", "observer", "--reduce-chain", "gamma1,gamma2,gamma3",
        "--scope", "global", "--box", "preset", "--budget", str(size["chain_budget"]),
        "--eps", size["chain_eps"], "--delta-shrinks", str(size["chain_shrinks"]),
        "--tmax", str(size["chain_tmax"]), "--seed", str(CHAIN_SEED), "--out", str(out)])]


def _chain_check(out: Path, done: list[Done], size: dict) -> list[str]:
    (run,) = done
    p: list[str] = []
    r = _report(out / "report.json", "reduction")
    _expect(p, run.code == 0, f"analyze exit {run.code}")
    _expect(p, r.get("all_consistent") is True, "reduction not all_consistent")
    _expect(p, r.get("sound") is True, "reduction not sound")
    return p


WORKLOADS = {
    w.name: w for w in (
        Workload("fig3", _fig3_commands, _fig3_check, seeded=False),
        Workload("toggle", _toggle_commands, _toggle_check, seeded=True),
        Workload("chain", _chain_commands, _chain_check, seeded=False),
    )
}
