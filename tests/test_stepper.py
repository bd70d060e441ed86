"""The in-repo Dormand-Prince 5(4) stepper against scipy's RK45 as the oracle.

The stepper repeats RK45's arithmetic operation for operation, so every
accepted step, every dense-output value and every arc must match bit for bit.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45

import hybridkit
from hybridkit import solver
from hybridkit.core import HybridSystem, Termination
from hybridkit.geometry import empty_set, full_space
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import catalog

CATALOG = catalog()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rk45(flow_map, t0, x0, cfg: SolverConfig) -> RK45:
    return RK45(lambda t, y: flow_map(y), t0, x0, t_bound=cfg.t_max,
                rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.effective_max_step)


def _scipy_flow_segment(sys_, t0, x0, cfg):
    """solver._flow_segment driven by scipy's RK45 and its dense output."""
    member = lambda pts: np.asarray(sys_.flow_set.member(pts, cfg.tol_set), dtype=bool)
    rk = _rk45(sys_.flow_map, t0, x0, cfg)
    times, states = [], []

    def store(dense, a, b):
        if b > a:
            m = max(solver._MIN_SUBDIV, math.ceil((b - a) / cfg.store_max_dt))
            ts = np.linspace(a, b, m + 1)[1:]
            times.extend(ts.tolist())
            states.extend(dense(ts).T)

    def end(reason, gap=0.0):
        if times:
            return times, states, solver._FlowEnd(reason, times[-1],
                                                  np.asarray(states[-1]), gap)
        return times, states, solver._FlowEnd(reason, t0, np.array(x0, dtype=float), gap)

    t_prev = t0
    while rk.status != "finished":
        rk.step()
        if rk.status == "failed" or not np.all(np.isfinite(rk.y)):
            return end("failed")
        dense = rk.dense_output()
        probes = np.linspace(t_prev, rk.t, solver._INTERIOR_PROBES + 2)[1:]
        inside = member(dense(probes).T)
        if inside.all():
            store(dense, t_prev, rk.t)
            t_prev = rk.t
            continue
        k = int(np.argmin(inside))
        lo = t_prev if k == 0 else float(probes[k - 1])
        hi = float(probes[k])
        while hi - lo > cfg.event_tol / 8.0:
            mid = 0.5 * (lo + hi)
            if member(dense(mid)):
                lo = mid
            else:
                hi = mid
        if lo > t_prev:
            store(dense, t_prev, lo)
        return end("exit", gap=hi - lo)
    return end("horizon")


def _solve_with_rk45(monkeypatch, sys_, x0, cfg):
    with monkeypatch.context() as m:
        m.setattr(solver, "_flow_segment", _scipy_flow_segment)
        return solve(sys_, x0, cfg)


def _assert_steps_match(flow_map, t0, x0, t_end, cfg) -> int:
    """Step RK45 and _dopri5 side by side from (t0, x0) until t_end; compare
    t, y and the dense output at the exit probes, the stored-sample grid and
    a bisection midpoint.  Returns the number of steps compared."""
    rk = _rk45(flow_map, t0, x0, cfg)
    n = 0
    for step in solver._dopri5(flow_map, t0, x0, cfg.t_max, cfg.rtol, cfg.atol,
                               cfg.effective_max_step):
        rk.step()
        assert step is not None and rk.status != "failed"
        assert step.t_old == rk.t_old and step.t == rk.t
        assert _same_bits(step.y, rk.y)
        dense = rk.dense_output()
        m = max(solver._MIN_SUBDIV, math.ceil((rk.t - rk.t_old) / cfg.store_max_dt))
        for k in (solver._INTERIOR_PROBES + 1, m):
            ts = np.linspace(rk.t_old, rk.t, k + 1)[1:]
            assert _same_bits(solver._grid(step.t_old, step.t, k), ts)
            assert _same_bits(solver._dense(step, ts), dense(ts))
        mid = 0.5 * (rk.t_old + rk.t)
        assert _same_bits(solver._dense(step, mid), dense(mid))
        n += 1
        if step.t >= t_end:
            break
    return n


CASES = [(name, preset, label)
         for name, fx in CATALOG.items()
         for preset in fx.presets
         for label in ("default", "fixture")]


@pytest.mark.parametrize("name,preset,label", CASES)
def test_preset_arcs_match_rk45_bit_for_bit(monkeypatch, name, preset, label):
    fx = CATALOG[name]
    cfg = SolverConfig(**fx.solver_overrides) if label == "fixture" else SolverConfig()
    x0 = fx.presets[preset]
    arc = solve(fx.system, x0, cfg)
    oracle = _solve_with_rk45(monkeypatch, fx.system, x0, cfg)
    assert arc.to_csv() == oracle.to_csv()
    assert arc.to_json() == oracle.to_json()
    steps = 0
    for ts, xs in zip(arc.times, arc.states):
        if ts[-1] > ts[0]:
            steps += _assert_steps_match(fx.system.flow_map, float(ts[0]), xs[0],
                                         ts[-1], cfg)
    assert steps > 0


def _decay():
    return HybridSystem(2, full_space(2), lambda x: np.array([-x[0], x[0] - 2 * x[1]]),
                        empty_set(2), lambda x: x, name="decay")


def test_rtol_below_100_eps_is_clamped_as_in_rk45(monkeypatch):
    cfg = SolverConfig(t_max=2.0, rtol=1e-17, atol=1e-12)
    x0 = np.array([1.0, 0.5])
    with pytest.warns(UserWarning, match="rtol"):
        arc = solve(_decay(), x0, cfg)
    with pytest.warns(UserWarning, match="rtol"):
        oracle = _solve_with_rk45(monkeypatch, _decay(), x0, cfg)
    assert arc.to_csv() == oracle.to_csv()
    with pytest.warns(UserWarning):
        assert _assert_steps_match(_decay().flow_map, 0.0, x0, cfg.t_max, cfg) > 10


def test_start_at_t_max_is_a_constant_step():
    cfg = SolverConfig(t_max=3.0)
    x0 = np.array([1.0, 0.5])
    steps = list(solver._dopri5(_decay().flow_map, 3.0, x0, 3.0, cfg.rtol,
                                cfg.atol, cfg.effective_max_step))
    assert len(steps) == 1 and steps[0].t_old == steps[0].t == 3.0
    rk = _rk45(_decay().flow_map, 3.0, x0, cfg)
    rk.step()
    assert rk.status == "finished"
    ts = np.full(4, 3.0)
    assert _same_bits(solver._dense(steps[0], ts), rk.dense_output()(ts))
    assert _same_bits(solver._dense(steps[0], 3.0), rk.dense_output()(3.0))
    seg = solver._flow_segment(_decay(), 3.0, x0, cfg)
    ref = _scipy_flow_segment(_decay(), 3.0, x0, cfg)
    assert seg[:2] == ([], []) and ref[:2] == ([], [])
    assert seg[2].reason == ref[2].reason == "horizon"
    assert _same_bits(seg[2].x, ref[2].x)


def test_non_finite_start_is_rejected_as_in_rk45():
    constant = HybridSystem(1, full_space(1), lambda x: np.ones(1), empty_set(1),
                            lambda x: x, name="constant")
    with pytest.raises(ValueError, match="finite"):
        _rk45(constant.flow_map, 0.0, np.array([np.inf]), SolverConfig())
    with pytest.raises(ValueError, match="finite"):
        solve(constant, [np.inf])


def test_finite_time_blowup_fails_with_rk45_samples(monkeypatch):
    blowup = HybridSystem(1, full_space(1), lambda x: x * x, empty_set(1),
                          lambda x: x, name="blowup")
    cfg = SolverConfig(t_max=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        arc = solve(blowup, [1.0], cfg)
        oracle = _solve_with_rk45(monkeypatch, blowup, [1.0], cfg)
    assert arc.termination is Termination.NUMERICAL_FAILURE
    assert oracle.termination is Termination.NUMERICAL_FAILURE
    assert arc.to_csv() == oracle.to_csv()
    assert abs(arc.times[0][-1] - 1.0) < 1e-6  # x(t) = 1 / (1 - t)


def test_cli_import_and_catalog_leave_scipy_unloaded():
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    code = ("import sys, hybridkit.cli; from hybridkit.systems import catalog; "
            "catalog(); print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
