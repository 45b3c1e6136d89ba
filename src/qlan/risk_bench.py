"""Monte Carlo benchmark of the two-stage estimator's local minimax risk.

``local_sup_risk`` scans a metric-calibrated grid of local parameters
around a reference state, runs the estimator at each grid point, and
reports the supremum of the rescaled risk next to the asymptotic
references: 8 mu0 - 4 mu0^2 for (rescaled squared) trace-norm loss and
the equalized local quadratic loss, mu0 + 1/4 for fidelity loss.
``pointwise_risk`` is the risk at one grid point: it runs the batched
:func:`full_estimate` one chunk per batch, alike for both samplers, and
scores the trials in their stage-1 frames (trace and fidelity losses)
or from local parameters (local loss).  Gaussian grid points run on a thread
pool, exact ones in the caller's thread; the output does not depend on
which.  ``hoeffding_check`` verifies the stage-1 large-deviation bound
cell by cell.  Batches are components first, as in :mod:`qlan.estimator`:
B vectors form a ``(3, B)`` array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimatorConfig, full_estimate, stage1
from .operator_core import pool_map, pool_width
from .spin_blocks import local_qubit_state
from .tolerances import MODEL_MARGIN, PROPERTY_SLACK


def loss_local(u, u_hat, mu: float):
    """Equalized quadratic loss 4[(du_z)^2 + (2mu-1)^2((du_x)^2+(du_y)^2)].

    ``u``/``u_hat`` may be (3, B) batches, components first.
    """
    dx, dy, dz = np.asarray(u_hat, dtype=float) - np.asarray(u, dtype=float)
    w = (2.0 * mu - 1.0) ** 2
    return 4.0 * (dz**2 + w * (dx**2 + dy**2))


def loss_trace_sq(r, r_hat):
    """Squared trace-norm loss ||rho - rho_hat||_1^2 (always <= 4) between
    qubit states given by Bloch vectors, where the trace distance is the
    Euclidean one; either argument may be a (3, B) batch, components first.
    """
    dx, dy, dz = (np.asarray(a, dtype=float) - b for a, b in zip(r_hat, np.asarray(r, dtype=float)))
    val = (dx * dx + dy * dy) + dz * dz
    if np.any(val > 4.0 + PROPERTY_SLACK):
        raise AssertionError(f"trace loss {np.max(val)} exceeds the qubit bound 4")
    return val


def loss_fidelity(r, r_hat, mu, lam):
    """Infidelity loss 1 - F^2 of qubit states with Bloch vectors r, r_hat (or (3, B) batches)
    and eigenvalues mu, lam along them, as (|r - r_hat|^2 + (2a - 2b)^2) / 4, a = sqrt(mu (1 - mu))
    and b = sqrt(lam (1 - lam)): squares, which do not cancel near F = 1 as 1 - F^2 does."""
    a, b = np.sqrt(mu * (1.0 - mu)), np.sqrt(lam * (1.0 - lam))
    g = (mu - lam) * ((1.0 - mu) - lam) / np.maximum(a + b, 1e-300)
    return np.minimum(0.25 * loss_trace_sq(r, r_hat) + g * g, 1.0)


def reference_risks(mu0: float) -> tuple[float, float]:
    """Asymptotic minimax references (trace-squared, infidelity) at mu0."""
    return 8.0 * mu0 - 4.0 * mu0 * mu0, mu0 + 0.25


@dataclass(frozen=True)
class RiskConfig:
    """Benchmark specification.

    The grid is directions {+-z/2, +-x/(2(2mu0-1)), +-y/(2(2mu0-1))} times
    radius factors ``radii`` scaled by n^eps, eps the estimator's
    localization exponent — every point then sits at the
    same equalized-loss distance from the center.  ``loss`` is "trace",
    "fidelity", or "local"; trace/fidelity losses are rescaled by the
    stage-2 copy count, the local loss is already on the local scale.
    """

    mu0: float
    loss: str = "trace"
    n_list: tuple = (10**6,)
    trials: int = 10_000
    radii: tuple = (0.0, 0.5, 1.0)
    batches: int = 20
    seed: int = 20260801
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if not self.mu0 < 1.0 or self.mu0 - 0.5 < MODEL_MARGIN:
            raise ValueError(
                f"mu0 = {self.mu0} outside [1/2 + {MODEL_MARGIN}, 1): the model requires an "
                "eigenvalue below 1 and at least its margin MODEL_MARGIN above 1/2"
            )
        for n in self.n_list:
            if not n >= 1:
                raise ValueError(f"n = {n} in n_list: the number of qubits must be at least 1")
        if self.loss not in ("trace", "fidelity", "local"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batches < 2:
            raise ValueError(f"batches = {self.batches}: the stderr needs two batch means or more")
        if self.trials < self.batches:
            raise ValueError(f"trials = {self.trials}: at least {self.batches} needed, one per batch")


@dataclass(frozen=True)
class GridPoint:
    label: str
    u: tuple  # in units of n^eps, i.e. the actual parameter is u * n^eps


def grid_points(mu0: float, radii=(0.0, 0.5, 1.0)) -> list[GridPoint]:
    """Metric-calibrated direction/radius grid (center deduplicated)."""
    s = 1.0 / (2.0 * (2.0 * mu0 - 1.0))
    dirs = [
        ("z+", (0.0, 0.0, 0.5)),
        ("z-", (0.0, 0.0, -0.5)),
        ("x+", (s, 0.0, 0.0)),
        ("x-", (-s, 0.0, 0.0)),
        ("y+", (0.0, s, 0.0)),
        ("y-", (0.0, -s, 0.0)),
    ]
    pts = [GridPoint("center", (0.0, 0.0, 0.0))]
    for r in radii:
        if r == 0.0:
            continue
        for name, d in dirs:
            pts.append(GridPoint(f"{name}@{r:g}", tuple(r * c for c in d)))
    return pts


def _failure_loss(cfg: RiskConfig, grid_max_sq: float) -> float:
    # caps when the estimator declares itself outside the model
    if cfg.loss == "trace":
        return 4.0
    if cfg.loss == "fidelity":
        return 1.0
    return 4.0 + 4.0 * (2.0 * cfg.mu0 - 1.0) ** 2 * grid_max_sq


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Stream ``key`` (none: the seed's own) of master seed ``seed``, on SFC64."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _true_state(mu0: float, u: np.ndarray, n: int) -> np.ndarray:
    return local_qubit_state(mu0, u / math.sqrt(n))


def _batch_losses(rho_true, fail, n, cfg, cell, b, size):
    """Batch ``b``'s rescaled losses, scored in its frames, and its event counts."""
    res = full_estimate(rho_true, n, cfg.estimator, seeded_rng(cfg.seed, *cell, b), size=size)
    r, r_hat = res.r_true_frame, res.r_hat_frame
    if cfg.loss == "local":
        loss = loss_local(res.u_true_local, res.u_hat, res.mu_true)
    elif cfg.loss == "trace":
        loss = res.n_rest * loss_trace_sq(r, r_hat)
    else:
        loss = res.n_rest * loss_fidelity(r, r_hat, res.mu_true, res.lam_hat)
    loss[res.outside] = fail if cfg.loss == "local" else fail * res.n_rest
    trunc = np.count_nonzero(res.trunc_flags.any(axis=0))
    events = (int(res.outside.sum()), int(trunc), int(res.recon_clamped.sum()))
    return loss, events


def pointwise_risk(
    rho_true: np.ndarray,
    n: int,
    config: RiskConfig,
    cell: tuple = (0, 0),
) -> tuple[float, float, dict]:
    """Mean rescaled loss at one true state, its stderr, and event counts.

    The trials fall into ``config.batches`` near-equal batches; the mean
    is that of all trials' losses, the stderr that of the batch means.
    Each batch is one :func:`full_estimate` chunk, for either sampler, on
    its own stream: a child of the master seed keyed by ``cell`` (the
    (n, grid point) indices) and the batch number.  A batch's estimates
    are freed before the next batch starts, so a call holds one batch's
    working set.  The counts are the trials outside the model (charged the
    failure loss), with a truncated component, and with a clamped eigenvalue.
    """
    fail = _failure_loss(config, _grid_max_sq(config, n))
    per, rem = divmod(config.trials, config.batches)
    sizes = [per + (1 if b < rem else 0) for b in range(config.batches)]
    losses, events = zip(*(
        _batch_losses(rho_true, fail, n, config, cell, b, size)
        for b, size in enumerate(sizes)
    ))
    counts = dict(zip(("failures", "truncated", "clamped"), map(sum, zip(*events))))
    losses = np.concatenate(losses)
    means = np.array([float(np.mean(b)) for b in np.split(losses, np.cumsum(sizes)[:-1])])
    stderr = float(np.std(means, ddof=1) / math.sqrt(config.batches))
    return float(np.mean(losses)), stderr, counts


def _grid_max_sq(cfg: RiskConfig, n: int) -> float:
    scale = float(n) ** cfg.estimator.eps
    return max(
        (scale**2) * sum(c * c for c in p.u) for p in grid_points(cfg.mu0, cfg.radii)
    )


@dataclass
class RiskReport:
    config: dict
    rows: list
    sup: float
    argmax: dict
    reference: float

    def to_json(self) -> str:
        return json_report(
            self.config, self.rows, sup=self.sup, reference=self.reference, argmax=self.argmax
        )


def json_report(config: dict, rows: list, **totals) -> str:
    """The JSON document {"config", "rows", **totals} that every table
    output writes; a non-finite float in a row or a total becomes null."""
    rows = [_finite(r) for r in rows]
    return json.dumps({"config": config, "rows": rows, **_finite(totals)}, indent=2)


def _finite(d: dict) -> dict:
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in d.items()}


def local_sup_risk(config: RiskConfig) -> RiskReport:
    """Sup over the parameter grid of the Monte Carlo risk, per n.

    Returns a report whose ``sup``/``argmax`` refer to the largest n in
    ``n_list``; every (n, grid point) row carries mean, stderr and the
    event counts of :func:`pointwise_risk`.  Each (n, point) cell runs on
    its own children of the master seed and the rows are kept in cell
    order, so the report is byte-identical whatever the worker count.
    Gaussian cells run on :func:`pool_map`, one worker per available CPU,
    as their numpy loops release the GIL; memory grows by about one batch's
    working set per worker.  Exact cells run in the caller's thread, since
    their per-group sampler set-up holds the GIL.
    """
    grid = grid_points(config.mu0, config.radii)
    cells = [(i, n, g, pt) for i, n in enumerate(config.n_list) for g, pt in enumerate(grid)]

    def row(cell) -> dict:
        n_idx, n, g_idx, pt = cell
        u_vec = np.array(pt.u) * float(n) ** config.estimator.eps
        rho = _true_state(config.mu0, u_vec, n)
        mean, se, counts = pointwise_risk(rho, n, config, (n_idx, g_idx))
        return {
            "n": int(n),
            "label": pt.label,
            "ux": float(u_vec[0]),
            "uy": float(u_vec[1]),
            "uz": float(u_vec[2]),
            "mean": mean,
            "stderr": se,
            "trials": config.trials,
            **counts,
        }

    rows = pool_map(row, cells, 1 if config.estimator.sampler == "exact" else pool_width())

    n_last = int(config.n_list[-1])
    last_rows = [r for r in rows if r["n"] == n_last]
    best = max(last_rows, key=lambda r: r["mean"])
    tref, fref = reference_risks(config.mu0)
    reference = fref if config.loss == "fidelity" else tref
    cfg_echo = {
        "mu0": config.mu0,
        "loss": config.loss,
        "n_list": [int(x) for x in config.n_list],
        "trials": config.trials,
        "eps": config.estimator.eps,
        "radii": list(config.radii),
        "batches": config.batches,
        "seed": config.seed,
        "sampler": config.estimator.sampler,
        "kappa": config.estimator.kappa,
        "eta": config.estimator.eta,
        "truncate": config.estimator.truncate,
    }
    return RiskReport(
        config=cfg_echo,
        rows=rows,
        sup=best["mean"],
        argmax={"n": best["n"], "label": best["label"]},
        reference=reference,
    )


def hoeffding_check(
    n_values,
    eps_values,
    kappa: float,
    trials: int,
    rng: np.random.Generator,
    mu0: float = 0.75,
) -> list:
    """Stage-1 large-deviation check, one row per (n, eps) cell.

    Event: the squared stage-1 Bloch error exceeds 3 n^(2 eps - 1).
    Analytic bound: 6 exp(-n_tilde n^(2 eps - 1) / 2) with the actual
    stage-1 copy count n_tilde = ceil(n^(1 - kappa)).  Rows flag both
    violations (empirical > bound) and vacuous cells (bound >= 1).
    """
    if not trials >= 1:
        raise ValueError(f"trials = {trials}: the check needs at least one trial")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa = {kappa}: stage 1 takes n^(1 - kappa) copies, so 0 < kappa < 1")
    for n in n_values:
        if not n >= 1 or math.ceil(float(n) ** (1.0 - kappa)) < 3:
            raise ValueError(f"n = {n} in n_list: stage 1 needs ceil(n^(1 - kappa)) >= 3 copies")
    r_true = np.array([0.0, 0.0, 2.0 * mu0 - 1.0])
    rows = []
    for n in n_values:
        n = int(n)
        n_tilde = int(math.ceil(float(n) ** (1.0 - kappa)))
        r_raw = stage1(r_true, n_tilde, rng, size=trials).r_raw
        dx, dy, dz = r_raw - r_true[:, None]
        err_sq = (dx * dx + dy * dy) + dz * dz
        for eps in eps_values:
            thresh = 3.0 * float(n) ** (2.0 * eps - 1.0)
            empirical = float(np.mean(err_sq > thresh))
            bound = 6.0 * math.exp(-0.5 * n_tilde * float(n) ** (2.0 * eps - 1.0))
            rows.append(
                {
                    "n": n,
                    "eps": float(eps),
                    "n_tilde": n_tilde,
                    "empirical": empirical,
                    "bound": bound,
                    "ok": empirical <= bound,
                    "vacuous": bound >= 1.0,
                }
            )
    return rows
