"""The names the benchmark reads from qlan still exist.

``perfbench/tracer.py`` wraps qlan functions and methods by name, and the
``exact-risk`` gate compares ``RiskReport.to_json`` strings, so deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` or the selftest
without a failing qlan test.  This check reads the tracer's tables only; it
runs no workload.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from qlan.fock_gaussian import HeterodyneSampler
from qlan.qsde import JointWaveVector
from qlan.risk_bench import RiskReport

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
