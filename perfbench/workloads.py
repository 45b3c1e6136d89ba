"""The four benchmark workloads, their inputs and their correctness gates.

Each workload mirrors one CLI subcommand at its documented invocation and
one group of library layers:

- ``risk-gaussian``: ``qlan risk --sampler gaussian``, fidelity loss, 10^5
  trials per grid point.  All time is in the vectorized risk pipeline; it
  bypasses the Fock, channel and collision code.
- ``lan-sweep``: ``qlan lan-dist`` up to n = 100.  Dense block states and
  ``eigvalsh`` at block dimensions up to 101 do the work.
- ``exact-risk``: ``qlan risk --sampler exact``, trace loss, four trials at
  the centre grid point, at a fixed seed.  The estimator runs one trial at
  a time, each building one heterodyne sampler for a single draw.
- ``qsde-check``: ``qlan qsde-check``.  The only workload that runs the
  collision integrator and its O(K^2) field sector, so it is memory bound.

A pass takes 1-3 s, so that a run of the benchmark holds many passes and
reports their median.

Import this module only after :func:`bootstrap.load_qlan`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from qlan import cli, lan_channels, risk_bench
from qlan.estimator import EstimatorConfig

RISK_GAUSSIAN_TOL = 0.05
LAN_SLOPE_MAX = -0.2
LAN_TOL = 1e-10
QSDE_TOL = 1e-9

LAN_MU = 0.8
LAN_U = (1.0, 1.0, 1.0)
LAN_N_LIST = (20, 50, 100)
QSDE_N_LIST = (1000, 4000, 16000, 64000)
QSDE_COLLISIONS = 3000
QSDE_T = 5.0

# convergence_sweep(0.8, (1, 1, 1), n) rows with BLAS on one thread:
# n -> (dist_T, dist_S).  Each row depends on its own n only.
LAN_REFERENCE = {
    20: (0.6305416420979109, 0.9884695858490877),
    50: (0.5266657958948452, 0.7935872605765508),
    100: (0.3763068690510465, 0.5246947679235741),
}

# qsde-check --collisions 3000 --t 5.0 rows: (n, m) -> (j, overlap, bound).
QSDE_REFERENCE = {
    (1000, 1): (428.0, 0.9660485447594621, 1.018730382006164),
    (4000, 1): (1503.0, 0.9803916646984558, 0.6187663128303135),
    (16000, 1): (5423.0, 0.9890473901578507, 0.3798600843787678),
    (64000, 1): (20024.0, 0.9940561014977073, 0.23580193248994624),
    (1000, 2): (428.0, 0.9333925110953893, 8.25315371974437),
    (4000, 2): (1503.0, 0.9611998085489095, 4.30607519042029),
    (16000, 2): (5423.0, 0.9782215093478731, 2.2950497275135593),
    (64000, 2): (20024.0, 0.9881489001368613, 1.2507044195555066),
}
# The slope column is a fit over the whole n list, so it is recorded for
# the full list only: m -> slope.
QSDE_SLOPES = {1: -0.2095542114562368, 2: -0.20762875268502598}


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``build(seed, tiny)`` makes the inputs; ``run(inputs)`` is one timed
    pass; ``work(inputs)`` counts the operations a pass attempts;
    ``gate(inputs, output, first)`` returns the failed correctness checks
    (empty when the pass is correct), where ``first`` is the output of the
    run's first pass, or None for the first pass itself.
    """

    name: str
    unit_of_work: str
    build: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    work: Callable[[Any], int]
    gate: Callable[[Any, Any, Any], list]


# --- risk-gaussian -----------------------------------------------------------


def _build_risk_gaussian(seed: int, tiny: bool) -> risk_bench.RiskConfig:
    return risk_bench.RiskConfig(
        mu0=0.75,
        loss="fidelity",
        n_list=(10**6,),
        trials=2 * 10**4 if tiny else 10**5,
        batches=5,
        seed=seed,
    )


def _run_risk(cfg: risk_bench.RiskConfig):
    # looked up per call, so that the tracer's wrapper is the one called
    return risk_bench.local_sup_risk(cfg)


def _risk_trials(cfg: risk_bench.RiskConfig) -> int:
    return len(risk_bench.grid_points(cfg.mu0, cfg.radii)) * len(cfg.n_list) * cfg.trials


def gate_risk_gaussian(report, tol: float = RISK_GAUSSIAN_TOL) -> list:
    ratio = report.sup / report.reference
    if not abs(ratio - 1.0) <= tol:
        return [f"sup/reference = {ratio!r} is more than {tol} from 1"]
    return []


# --- lan-sweep ---------------------------------------------------------------


def _build_lan_sweep(seed: int, tiny: bool) -> tuple:
    # deterministic: the seed selects nothing
    return (LAN_MU, LAN_U, LAN_N_LIST[::2] if tiny else LAN_N_LIST)


def gate_lan_sweep(
    result,
    reference: dict = LAN_REFERENCE,
    slope_max: float = LAN_SLOPE_MAX,
    tol: float = LAN_TOL,
) -> list:
    failures = []
    for col in ("dist_T", "dist_S"):
        vals = [getattr(r, col) for r in result.rows]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(f"{col} does not strictly decrease with n: {vals}")
    for name, slope in (("slope_T", result.slope_T), ("slope_S", result.slope_S)):
        if not slope <= slope_max:
            failures.append(f"{name} = {slope!r} > {slope_max}")
    for r in result.rows:
        if r.n not in reference:
            failures.append(f"no recorded distances for n = {r.n}")
            continue
        for col, want in zip(("dist_T", "dist_S"), reference[r.n]):
            got = getattr(r, col)
            if not abs(got - want) <= tol:
                failures.append(f"n = {r.n}: {col} = {got!r}, recorded {want!r}")
    return failures


# --- exact-risk --------------------------------------------------------------


def _build_exact_risk(seed: int, tiny: bool) -> risk_bench.RiskConfig:
    # The seed selects nothing: each call's cost is set by the state it
    # samples (0.4-1.2 s a call over seeds 1-8), so a seeded pass of a few
    # calls would time the seed more than the code.  RiskConfig's default
    # seed is used.
    return risk_bench.RiskConfig(
        mu0=0.75,
        loss="trace",
        n_list=(10**6,),
        trials=2 if tiny else 4,
        batches=2,
        radii=(0.0,),
        estimator=EstimatorConfig(sampler="exact"),
    )


def gate_exact_risk(report, first) -> list:
    """Rows finite, and the seeded report byte-identical to the first pass.

    A RuntimeError from the heterodyne envelope fails the pass before this
    gate runs.
    """
    failures = [
        f"row {row['label']}: non-finite {col} = {row[col]!r}"
        for row in report.rows
        for col in ("mean", "stderr")
        if not math.isfinite(row[col])
    ]
    if first is not None and report.to_json() != first.to_json():
        failures.append("seeded report differs from the run's first pass")
    return failures


# --- qsde-check --------------------------------------------------------------


def _build_qsde_check(seed: int, tiny: bool) -> list:
    n_list = QSDE_N_LIST[:2] if tiny else QSDE_N_LIST
    return [
        "qsde-check",
        "--n-list",
        ",".join(str(n) for n in n_list),
        "--collisions",
        str(QSDE_COLLISIONS),
        "--t",
        str(QSDE_T),
        "--format",
        "json",
    ]


def _run_cli(argv: list) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qlan {' '.join(argv)} exited with {code}")
    return json.loads(buf.getvalue())["rows"]


def gate_qsde_check(
    rows: list,
    reference: dict = QSDE_REFERENCE,
    slopes: dict = QSDE_SLOPES,
    tol: float = QSDE_TOL,
) -> list:
    failures = []
    full_list = sorted({r["n"] for r in rows}) == list(QSDE_N_LIST)
    for m in (1, 2):
        ovs = [r["overlap"] for r in sorted(rows, key=lambda r: r["n"]) if r["m"] == m]
        if not all(0.0 < ov <= 1.0 for ov in ovs):
            failures.append(f"m = {m}: overlap outside (0, 1]: {ovs}")
        if not all(b > a for a, b in zip(ovs, ovs[1:])):
            failures.append(f"m = {m}: overlap does not rise with n: {ovs}")
    for r in rows:
        key = (r["n"], r["m"])
        if key not in reference:
            failures.append(f"no recorded row for (n, m) = {key}")
            continue
        got = [r["j"], r["overlap"], r["bound"]]
        want = list(reference[key])
        if full_list:
            got.append(r["slope"])
            want.append(slopes[r["m"]])
        for col, g, w in zip(("j", "overlap", "bound", "slope"), got, want):
            if not abs(g - w) <= tol:
                failures.append(f"(n, m) = {key}: {col} = {g!r}, recorded {w!r}")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "risk-gaussian",
            "trials",
            _build_risk_gaussian,
            _run_risk,
            _risk_trials,
            lambda cfg, report, first: gate_risk_gaussian(report),
        ),
        Workload(
            "lan-sweep",
            "rows",
            _build_lan_sweep,
            lambda args: lan_channels.convergence_sweep(*args),
            lambda args: len(args[2]),
            lambda args, result, first: gate_lan_sweep(result),
        ),
        Workload(
            "exact-risk",
            "trials",
            _build_exact_risk,
            _run_risk,
            _risk_trials,
            lambda cfg, report, first: gate_exact_risk(report, first),
        ),
        Workload(
            "qsde-check",
            "rows",
            _build_qsde_check,
            _run_cli,
            lambda argv: 2 * len(argv[2].split(",")),
            lambda argv, rows, first: gate_qsde_check(rows),
        ),
    )
}
