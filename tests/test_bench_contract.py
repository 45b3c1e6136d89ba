"""The names the benchmark reads from qlan still exist.

``perfbench/tracer.py`` wraps qlan functions and methods by name, reads
attributes of what they take and return, and the ``exact-risk`` gate
compares ``RiskReport.to_json`` strings, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1`` or the selftest without a failing qlan
test.  These checks read the tracer's tables and feed its observers the
objects of one small sweep row and one collision run, trace one small
exact chunk and read the row keys of one small ``qsde-check`` that the gate
reads.  One check runs a full pass of the two deterministic workloads,
``lan-sweep`` and ``qsde-check``, through their gates, so that a change
that moves a recorded number fails here too; no check times anything.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np

import qlan
from dense_channels import window_grid
from qlan import cli, estimator, fock_gaussian, spin_blocks
from qlan.estimator import EstimatorConfig
from qlan.fock_gaussian import GaussianLimitParams, HeterodyneSampler
from qlan.lan_channels import (
    apply_S,
    apply_T,
    block_data,
    gaussian_limit,
    hybrid_trace_distance,
)
from qlan.qsde import JointWaveVector, collision_integrate
from qlan.risk_bench import RiskReport
from qlan.spin_blocks import ModelParams, local_qubit_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_cli_loads_every_traced_module():
    """``Tracer.install`` looks every traced module up in ``sys.modules``, and
    the bench imports only ``qlan.cli`` (through its workloads) before it
    installs the tracer, so ``import qlan.cli`` must load every module the
    tracer's tables name; a module it stopped loading would surface only as
    a ``KeyError`` under ``perfbench/run.py --trace 1``.  A fresh
    interpreter, because this one has them all loaded already."""
    tracer = _tracer()
    traced = sorted({f"qlan.{entry[0]}" for entry in tracer.FUNCTIONS + tracer.METHODS})
    child = (
        "import json, sys, qlan.cli\n"
        f"print(json.dumps([m for m in {traced!r} if m not in sys.modules]))"
    )
    src = str(Path(qlan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_attributes_the_bench_reads_exist():
    assert callable(RiskReport.to_json)
    assert hasattr(HeterodyneSampler(np.ones(1)), "m_const")
    assert "sectors" in {f.name for f in fields(JointWaveVector)}


def test_qsde_check_rows_carry_what_the_gate_reads(capsys):
    """``perfbench/workloads.gate_qsde_check`` reads these keys of every
    ``qsde-check`` JSON row."""
    argv = ["qsde-check", "--n-list", "1000,4000", "--collisions", "40", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 4  # m in {1, 2} x two n values
    for row in rows:
        assert {"n", "m", "j", "overlap", "bound", "slope"} <= row.keys()


def test_lan_observers_read_one_sweep_row():
    """The channel observers read ``apply_T(...).dropped_mass``,
    ``apply_S(...).leaked`` and ``.classical.x`` and ``.dim`` on
    ``hybrid_trace_distance``'s first argument."""
    tracer = _tracer()
    observers = {fn: obs for mod, fn, obs in tracer.FUNCTIONS if mod == "lan_channels"}
    params, u = ModelParams(0.8, 20), (1.0, 1.0, 0.5)
    gp = GaussianLimitParams(params.mu, u)
    counts = defaultdict(float)
    blocks = block_data(params, u)
    t_state = apply_T(blocks, window_grid(blocks))
    observers["apply_T"](counts, t_state, (), {})
    args = (t_state, gaussian_limit(gp, grid=t_state.classical.x))
    observers["hybrid_trace_distance"](counts, hybrid_trace_distance(*args), args, {})
    observers["apply_S"](counts, apply_S(gp, params.n), (gp, params.n), {})
    prefix = "lan_channels"
    assert counts[f"{prefix}.apply_T.dropped_mass_max"] == t_state.dropped_mass
    assert counts[f"{prefix}.apply_S.leaked_max"] > 0.0
    assert counts[f"{prefix}.hybrid_trace_distance.eig_count"] == len(t_state.classical.x)
    assert counts[f"{prefix}.hybrid_trace_distance.eig_dim_max"] == t_state.dim


def test_collision_observer_reads_one_run():
    """The collision observer sums the bytes of every amplitude in
    ``collision_integrate(...).sectors``: a run from the starts 0..2 holds
    1 + 2 + 3 complex numbers, 96 B."""
    tracer = _tracer()
    observers = {fn: obs for mod, fn, obs in tracer.FUNCTIONS if mod == "qsde"}
    counts = defaultdict(float)
    args = (ModelParams(0.75, 4000), 1503, 2, 5.0, 400)
    wave = collision_integrate(*args)
    observers["collision_integrate"](counts, wave, args, {})
    entries = sum(len(comps) for comps in wave.sectors.values())
    assert entries == 6
    assert counts["qsde.collision_integrate.state_mb"] * 2**20 == entries * 16 == 96


def test_deterministic_workloads_pass_their_gates(monkeypatch):
    """One full pass of ``lan-sweep`` and of ``qsde-check`` passes its gate:
    the recorded distances (``LAN_TOL``) and rows (``QSDE_TOL``) hold.
    ``workloads.py`` defines dataclasses, which look their module up in
    ``sys.modules``, so it is registered there before it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in ("lan-sweep", "qsde-check"):
        wl = workloads.WORKLOADS[name]
        inputs = wl.build(7, False)
        assert wl.gate(inputs, wl.run(inputs), None) == [], name


def test_tracer_counts_one_sampler_per_exact_group(monkeypatch):
    """Traced, one exact ``full_estimate`` chunk counts one sampler per
    distinct (mu, u, j, k) and one draw per trial, reads an expected angle
    acceptance in (0, 1], one ``stage1`` and one ``localize_frame`` call
    (both reached through the estimator module's names, which the tracer
    wraps), and ``uninstall`` restores the originals.  At n = 12 stage 1 has
    few outcomes, so trials share groups; the groups are recounted from the
    block indices and levels the chunk drew."""
    drawn = []

    def level(*args):
        drawn.append(spin_blocks.ladder_level(*args))
        return drawn[-1]

    def index(n, mu_u, rng):
        drawn.append(spin_blocks.sample_block_index(n, mu_u, rng))
        return drawn[-1]

    monkeypatch.setattr(estimator, "ladder_level", level)
    monkeypatch.setattr(estimator, "sample_block_index", index)
    sampler = fock_gaussian.HeterodyneSampler
    originals = (sampler.__init__, sampler.sample, estimator.full_estimate)
    trials, tr = 40, _tracer().Tracer()
    rho = local_qubit_state(0.75, (0.0, 0.0, 0.0))
    with tr.installed():
        assert estimator.full_estimate is not originals[2]
        with tr.pass_span(0):
            res = estimator.full_estimate(
                rho, 12, EstimatorConfig(sampler="exact"), np.random.default_rng(2), size=trials
            )
    assert (sampler.__init__, sampler.sample, estimator.full_estimate) == originals
    js, ks = drawn
    inside = ~res.outside
    keys = np.vstack([res.stage1.mu_tilde[inside], res.u_true_local[:, inside], js, ks])
    groups = len(np.unique(keys, axis=1).T)
    assert groups < inside.sum()
    names = [
        "fock_gaussian.HeterodyneSampler.init.calls",
        "fock_gaussian.HeterodyneSampler.sample.draws",
        "fock_gaussian.heterodyne.expected_acceptance",
        "estimator.stage1.calls",
        "estimator.localize_frame.calls",
    ]
    inits, draws, acceptance, stage1_calls, frame_calls = tr.pass_metrics(0, names).values()
    assert inits == groups and draws == inside.sum()
    assert 0.0 < acceptance <= 1.0
    assert stage1_calls == 1 and frame_calls == 1
