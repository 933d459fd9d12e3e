"""The benchmark's trace contract, checked from the test suite.

perfbench/tracer.py wraps the module attributes through which one layer
calls the next (sweep._eval_point, kubo_static.solve_self_energy_landau,
...) and fails a traced pass when a workload's required call site records
no call or an SCBA solve runs outside a traced span. A refactor that moves
a solve off those call sites breaks the benchmark; this test makes it
break the suite too. It also pins the traced call counts of the dynamic
quantities: one hall_dynamic, one B = 0 shear_dynamic_b0 and one field
shear_dynamic_bfield call per (B, A) block of a sweep, so a relapse to
per-point calls fails here, and two counted _k_kernel calls per B = 0
window solve. perfbench/ is only read: its tracer and workload
modules are loaded from their files, and one traced pass of each
workload's seed-0 sweeps runs in a temporary directory.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from diracvisc import cli, kubo_dynamic, kubo_static, model, scba, sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")
PACKAGE = {"cli": cli, "sweep": sweep, "model": model,
           "kubo_static": kubo_static, "kubo_dynamic": kubo_dynamic,
           "scba": scba}


def blocks(config: dict) -> int:
    """(B, A) blocks of a sweep config: one call per dynamic quantity each."""
    fields = config["B"]["count"] if isinstance(config["B"], dict) else 1
    return fields * len(config["A"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_meets_the_contract(workload, tmp_path, capsys):
    paths = workloads.write_configs(workload, 0, tmp_path)
    traced = tracer.Tracer()
    with tracer.instrument(traced, PACKAGE):
        main = traced.wrap("cli.main", cli.main)
        codes = [main(["sweep", "--config", str(path), "--output",
                       str(tmp_path / f"{name}.csv")])
                 for name, path in paths.items()]
    capsys.readouterr()
    assert codes == [0] * len(paths)
    assert traced.check(workloads.WORKLOADS[workload].sites) == []
    metrics, _, _ = tracer.layer_metrics(traced, 0)
    configs = workloads.seeded_configs(workload, 0).values()
    assert metrics["kubo_dynamic.hall.calls"] == sum(
        blocks(c) for c in configs if c["quantity"] == "dynamic_hall")
    assert metrics["kubo_dynamic.shear_b0.calls"] == sum(
        blocks(c) for c in configs
        if c["quantity"] == "dynamic_shear" and c["B"] is None)
    assert metrics["kubo_dynamic.shear_bfield.calls"] == sum(
        blocks(c) for c in configs
        if c["quantity"] == "dynamic_shear" and c["B"] is not None)
    if workload == "landau_10T":  # fig5's 348 points, 4 E x 87 Omega
        assert metrics["kubo_dynamic.hall.calls"] == 1
    if workload == "landau_window":  # 3 points in 2 blocks
        assert metrics["kubo_dynamic.shear_bfield.calls"] == 2
    if workload == "b0_window":
        # two radial kernel calls per solve, counted through the module
        # global kubo_dynamic._k_kernel: a kernel bound at import time
        # would read 0 here
        assert metrics["kubo_dynamic.k_kernel.calls"] == (
            2 * metrics["kubo_dynamic.shear_b0.calls"]
            * metrics["kubo_dynamic.shear_b0.solves_per_call"]) > 0
