"""The in-repo DOP853 stepper against scipy's DOP853 as the oracle.

The stepper repeats scipy's arithmetic operation for operation, so every
accepted step, every dense-output value and every arc must match bit for bit.
The oracle arcs take scipy's steps through the solver's own probe and exit
rule (``solver._probe_step`` of scipy's dense output).  Test names that say
``rk45`` date from the Dormand-Prince 5(4) stepper and its RK45 oracle; they
are kept so that the test ids stay stable.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_text
from scipy.integrate import DOP853

import hybridkit
from hybridkit import solver
from hybridkit.core import HybridSystem, Termination, check_is_solution
from hybridkit.geometry import empty_set, full_space
from hybridkit.solver import SolverConfig, solve
from hybridkit.systems import catalog

CATALOG = catalog()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _dop853(flow_map, t0, x0, cfg: SolverConfig) -> DOP853:
    return DOP853(lambda t, y: flow_map(y), t0, x0, t_bound=cfg.t_max,
                  rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.effective_max_step)


def _scipy_flow_segment(sys_, t0, x0, cfg, blocks, j):
    """solver._flow_segment with scipy's DOP853 taking the steps: each step's
    dense output goes through the solver's own probe and exit rule."""
    rk = _dop853(sys_.flow_map, t0, x0, cfg)
    while rk.status != "finished":
        rk.step()
        if rk.status == "failed" or not np.all(np.isfinite(rk.y)):
            return Termination.NUMERICAL_FAILURE, None
        if rk.t == rk.t_old:
            continue
        ts, xs, gap = yield from solver._probe_step(rk.dense_output(), sys_.flow_set, cfg)
        if len(ts):
            blocks.append((ts, xs, j))
        if gap is not None:
            return None, gap
    return Termination.COMPLETE_T, None


def _solve_with_scipy(monkeypatch, sys_, x0, cfg):
    with monkeypatch.context() as m:
        m.setattr(solver, "_flow_segment", _scipy_flow_segment)
        return solve(sys_, x0, cfg)


def _assert_steps_match(flow_map, t0, x0, t_end, cfg) -> int:
    """Step scipy's DOP853 and _dop853 side by side from (t0, x0) until t_end;
    compare t, y and the dense output on the stored-sample grid (which is also
    the exit-probe grid) and at the step's midpoint.  Returns the number of
    steps compared."""
    rk = _dop853(flow_map, t0, x0, cfg)
    n = 0
    f0 = np.asarray(flow_map(x0), dtype=float)
    for step in solver._dop853(flow_map, t0, x0, f0, cfg.t_max, cfg.rtol, cfg.atol,
                               cfg.effective_max_step):
        rk.step()
        assert step is not None and rk.status != "failed"
        assert step.t_old == rk.t_old and step.t == rk.t
        assert _same_bits(step.y, rk.y)
        dense = rk.dense_output()
        ts = solver._sample_times(step, step.t, cfg.store_max_dt)
        assert _same_bits(ts, solver._sample_times(dense, rk.t, cfg.store_max_dt))
        assert _same_bits(solver._dense(step, ts), dense(ts).T)
        m = max(solver._MIN_SUBDIV, math.ceil((rk.t - rk.t_old) / cfg.store_max_dt))
        if rk.t - rk.t_old >= 4 * m * math.ulp(rk.t):
            assert _same_bits(solver._grid(step.t_old, step.t, m),
                              np.linspace(rk.t_old, rk.t, m + 1)[1:])
        mid = 0.5 * (rk.t_old + rk.t)
        assert _same_bits(solver._dense(step, np.array([mid]))[0], dense(mid))
        n += 1
        if step.t >= t_end:
            break
    return n


CASES = [(name, preset, label)
         for name, fx in CATALOG.items()
         for preset in fx.presets
         for label in ("default", "fixture")]


def _config(fx, label: str) -> SolverConfig:
    return SolverConfig(**fx.solver_overrides) if label == "fixture" else SolverConfig()


@pytest.mark.parametrize("name,preset,label", CASES)
def test_preset_arcs_match_rk45_bit_for_bit(monkeypatch, name, preset, label):
    fx = CATALOG[name]
    cfg = _config(fx, label)
    x0 = fx.presets[preset]
    arc = solve(fx.system, x0, cfg)
    oracle = _solve_with_scipy(monkeypatch, fx.system, x0, cfg)
    assert_same_text(arc.to_csv(), oracle.to_csv())
    assert_same_text(arc.to_json(), oracle.to_json())
    steps = 0
    for ts, xs in zip(arc.times, arc.states):
        if ts[-1] > ts[0]:
            steps += _assert_steps_match(fx.system.flow_map, float(ts[0]), xs[0],
                                         ts[-1], cfg)
    assert steps > 0


# termination and jump count of every preset under both configs, as the
# Dormand-Prince 5(4) stepper left them
PRESET_OUTCOMES = {
    ("observer", "fig3", "default"): ("COMPLETE_T", 24),
    ("observer", "fig3", "fixture"): ("COMPLETE_T", 14),
    ("circles", "default", "default"): ("ZENO", 50),
    ("circles", "default", "fixture"): ("ZENO", 50),
    ("cascade-ex1", "default", "default"): ("NOT_EXTENDABLE", 0),
    ("cascade-ex1", "default", "fixture"): ("NOT_EXTENDABLE", 0),
}


@pytest.mark.parametrize("name,preset,label", CASES)
def test_preset_arcs_keep_outcome_and_residual_floor(name, preset, label):
    fx = CATALOG[name]
    arc = solve(fx.system, fx.presets[preset], _config(fx, label))
    termination, jumps = PRESET_OUTCOMES.get((name, preset, label), ("COMPLETE_T", 0))
    assert (arc.termination.name, arc.n_jumps) == (termination, jumps)
    # every stored sample interval's midpoint residual, and nothing else, is
    # within 3 residual floors
    assert check_is_solution(fx.system, arc, 3 * solver._RESIDUAL_FLOOR) == []


def test_third_derivative_table_of_the_dense_output():
    # _dense evaluates y_old + sum_k F[k] x^ceil((k+1)/2) (1-x)^floor((k+1)/2)
    x = np.polynomial.Polynomial([0.0, 1.0])
    table = [(x ** ((k + 2) // 2) * (1 - x) ** ((k + 1) // 2)).deriv(3)(np.linspace(0, 1, 5))
             for k in range(7)]
    assert np.array_equal(solver._D3, np.array(table).T)
    F = np.random.default_rng(0).normal(size=(7, 3))
    step = solver._Step(0.0, 1.0, np.zeros(3), None, F)
    basis = np.array([(x ** ((k + 2) // 2) * (1 - x) ** ((k + 1) // 2))(0.3) for k in range(7)])
    assert np.allclose(solver._dense(step, np.array([0.3]))[0], basis @ F,
                       rtol=1e-14, atol=1e-14)


def _decay():
    return HybridSystem(2, full_space(2), lambda x: np.array([-x[0], x[0] - 2 * x[1]]),
                        empty_set(2), lambda x: x, name="decay")


def test_rtol_below_100_eps_is_clamped_as_in_rk45(monkeypatch):
    cfg = SolverConfig(t_max=2.0, rtol=1e-17, atol=1e-12)
    x0 = np.array([1.0, 0.5])
    with pytest.warns(UserWarning, match="rtol"):
        arc = solve(_decay(), x0, cfg)
    with pytest.warns(UserWarning, match="rtol"):
        oracle = _solve_with_scipy(monkeypatch, _decay(), x0, cfg)
    assert_same_text(arc.to_csv(), oracle.to_csv())
    with pytest.warns(UserWarning):
        assert _assert_steps_match(_decay().flow_map, 0.0, x0, cfg.t_max, cfg) > 10


def test_a_tail_step_of_3_ulps_stores_strictly_increasing_times(monkeypatch):
    t_max = 3.0
    t0 = t_max - 3 * math.ulp(t_max)
    cfg = SolverConfig(t_max=t_max)
    x0 = np.array([1.0, 0.5])

    def stored(flow_segment):
        blocks = []
        termination, _ = solver._drive([flow_segment(_decay(), t0, x0, cfg, blocks, 0)],
                                       cfg.tol_set)[0]
        ts, xs, _ = zip(*blocks)
        return termination, np.concatenate(ts), np.concatenate(xs)

    termination, ts, xs = stored(solver._flow_segment)
    # the step spans 3 doubles, fewer than the 6 samples a step stores at least
    assert ts.tolist() == [math.nextafter(t0, 4.0), math.nextafter(t_max, 0.0), t_max]
    assert termination is Termination.COMPLETE_T and ts[-1] == t_max
    ref = stored(_scipy_flow_segment)
    assert ref[1].tolist() == ts.tolist() and _same_bits(ref[2], xs)
    assert _same_bits(solver._grid(t_max - 5 * math.ulp(t_max), t_max, 16),
                      t_max - math.ulp(t_max) * np.arange(4.0, -1.0, -1.0))


def test_non_finite_start_is_rejected_as_in_rk45():
    constant = HybridSystem(1, full_space(1), lambda x: np.ones(1), empty_set(1),
                            lambda x: x, name="constant")
    with pytest.raises(ValueError, match="finite"):
        _dop853(constant.flow_map, 0.0, np.array([np.inf]), SolverConfig())
    with pytest.raises(ValueError, match="finite"):
        solve(constant, [np.inf])


def test_finite_time_blowup_fails_with_rk45_samples(monkeypatch):
    blowup = HybridSystem(1, full_space(1), lambda x: x * x, empty_set(1),
                          lambda x: x, name="blowup")
    cfg = SolverConfig(t_max=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        arc = solve(blowup, [1.0], cfg)
        oracle = _solve_with_scipy(monkeypatch, blowup, [1.0], cfg)
    assert arc.termination is Termination.NUMERICAL_FAILURE
    assert oracle.termination is Termination.NUMERICAL_FAILURE
    assert_same_text(arc.to_csv(), oracle.to_csv())
    assert abs(arc.times[0][-1] - 1.0) < 1e-6  # x(t) = 1 / (1 - t)


def test_cli_import_and_catalog_leave_scipy_unloaded(tmp_path):
    src = str(Path(hybridkit.__file__).resolve().parents[1])
    code = ("import sys, hybridkit.cli; from hybridkit.systems import catalog; "
            "from hybridkit.solver import solve; fx = catalog()['observer']; "
            "solve(fx.system, fx.presets['fig3']); "
            "hybridkit.cli.main(['simulate', '--system', 'circles', '--tmax', '2', "
            f"'--out', {str(tmp_path / 'sim')!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
