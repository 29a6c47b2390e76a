"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import korteweg  # noqa: E402
from korteweg import certify  # noqa: E402
from korteweg import verification  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import tail_index, traced_metrics  # noqa: E402


def small_workloads():
    return [workloads.RBound16(trials=1, residual_checks=1),
            workloads.Pipeline256(points_per_axis=128, n_cases=2),
            workloads.SymbolsScan(grid=certify.GridSpec(8, 3, 8),
                                  cert_grid=certify.GridSpec(4, 3, 4),
                                  sets=workloads.ACCEPTANCE_SETS[:2])]


IDS = ["rbound16", "pipeline256", "symbols_scan"]


def namespace_snapshot():
    """Identity of every attribute the tracer may replace."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "korteweg"
                                    or n.startswith("korteweg."))]
    owners += [np.fft, korteweg.resolvent.PipelineSolution,
               korteweg.manufactured.InteriorBump]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def fingerprints(wl, seed):
    inputs = wl.setup(seed)
    return [wl.check(inputs, i, wl.run_op(inputs, i)).fingerprint
            for i in range(len(inputs.cases))]


def test_wrappers_removed_after_traced_run():
    wl = workloads.RBound16(trials=1, residual_checks=1)
    before = namespace_snapshot()
    original = verification.estimate_rbound
    with Tracer().installed():
        assert verification.estimate_rbound is not original
        assert np.fft.ifftn.__wrapped__ is not None
    assert namespace_snapshot() == before
    _, loop, layer, _, missing = traced_metrics(wl, 0, 0.0)
    assert verification.estimate_rbound is original
    assert namespace_snapshot() == before
    assert not missing
    # one traced and one untraced cycle; only the traced one is counted
    assert len(loop["traced_times"]) == len(loop["times"]) == 1
    assert layer["verification.estimate_rbound.calls"] == 8


def test_wrappers_removed_when_an_op_raises():
    before = namespace_snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            raise ZeroDivisionError
    assert namespace_snapshot() == before


@pytest.mark.parametrize("wl", small_workloads(), ids=IDS)
def test_traced_outputs_equal_untraced(wl):
    plain = fingerprints(wl, 7)
    with Tracer().installed():
        traced = fingerprints(wl, 7)
    assert traced == plain


@pytest.mark.parametrize("wl", small_workloads(), ids=IDS)
def test_exact_counts_repeat(wl):
    exact = ("fft.calls", "fft.points", "resolvent.solve_gamma_zero.calls",
             "resolvent.block_bytes", "resolvent.distinct_solve_frac",
             "resolvent.neumann_iterations")
    runs = []
    for _ in range(2):
        _, loop, layer, _, _ = traced_metrics(wl, 3, 0.0)
        runs.append(layer)
    for name in exact:
        assert runs[0][name] == runs[1][name], name
    calls = sorted(k for k in runs[0] if k.endswith(".calls"))
    assert [runs[0][k] for k in calls] == [runs[1][k] for k in calls]


def test_rbound_repeats_solves():
    """S_A/T_B share solves and the 2T run redoes the T prefix."""
    _, _, layer, _, _ = traced_metrics(
        workloads.RBound16(trials=1, residual_checks=1), 0, 0.0)
    assert layer["resolvent.solve_gamma_zero.calls"] > 0
    assert 0.0 < layer["resolvent.distinct_solve_frac"] < 0.5
    assert layer["fft.points"] > 0 and layer["resolvent.block_bytes"] > 0


def test_pipeline_counts():
    wl = workloads.Pipeline256(points_per_axis=128, n_cases=2)
    _, loop, layer, _, _ = traced_metrics(wl, 1, 0.0)
    assert loop["failed"] == 0
    assert layer["resolvent.neumann_iterations"] >= 1
    assert layer["resolvent.solve_general.calls"] == 1
    assert layer["manufactured.InteriorBump.random.calls"] == 2


def test_tail_index():
    assert tail_index(10) is None
    assert tail_index(11) == 0
    assert tail_index(100) == 89


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "rbound16", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
