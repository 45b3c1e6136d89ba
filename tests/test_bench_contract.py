"""The names the benchmark reads from qlan still exist.

``perfbench/tracer.py`` wraps qlan functions and methods by name, reads
attributes of what they take and return, and the ``exact-risk`` gate
compares ``RiskReport.to_json`` strings, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1`` or the selftest without a failing qlan
test.  These checks read the tracer's tables and feed its observers the
objects of one small sweep row; they run no workload.
"""

import importlib
import importlib.util
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np

from qlan.fock_gaussian import GaussianLimitParams, HeterodyneSampler
from qlan.lan_channels import (
    apply_S,
    apply_T,
    block_data,
    gaussian_limit,
    hybrid_trace_distance,
)
from qlan.qsde import JointWaveVector
from qlan.risk_bench import RiskReport
from qlan.spin_blocks import LocalParams, ModelParams

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_qlan():
    tracer = _tracer()
    for mod_name, fn_name, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"qlan.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"qlan.{mod_name}.{fn_name}"
    for mod_name, cls_name, meth, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"qlan.{mod_name}"), cls_name, None)
        assert meth in vars(cls or object), f"qlan.{mod_name}.{cls_name}.{meth}"


def test_attributes_the_bench_reads_exist():
    assert callable(RiskReport.to_json)
    assert hasattr(HeterodyneSampler(np.eye(1)), "m_const")
    assert "sectors" in {f.name for f in fields(JointWaveVector)}


def test_lan_observers_read_one_sweep_row():
    """The channel observers read ``apply_T(...).dropped_mass``,
    ``apply_S(...).leaked`` and ``.classical.x`` and ``.dim`` on
    ``hybrid_trace_distance``'s first argument."""
    tracer = _tracer()
    observers = {fn: obs for mod, fn, obs in tracer.FUNCTIONS if mod == "lan_channels"}
    params, u = ModelParams(0.8, 20), LocalParams(1.0, 1.0, 0.5)
    gp = GaussianLimitParams(params.mu, u)
    counts = defaultdict(float)
    t_state = apply_T(block_data(params, u))
    observers["apply_T"](counts, t_state, (), {})
    args = (t_state, gaussian_limit(gp, grid=t_state.classical.x))
    observers["hybrid_trace_distance"](counts, hybrid_trace_distance(*args), args, {})
    observers["apply_S"](counts, apply_S(gp, params.n), (gp, params.n), {})
    prefix = "lan_channels"
    assert counts[f"{prefix}.apply_T.dropped_mass_max"] == t_state.dropped_mass
    assert counts[f"{prefix}.apply_S.leaked_max"] > 0.0
    assert counts[f"{prefix}.hybrid_trace_distance.eig_count"] == len(t_state.classical.x)
    assert counts[f"{prefix}.hybrid_trace_distance.eig_dim_max"] == t_state.dim
