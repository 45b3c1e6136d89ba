"""End-to-end acceptance checks for the two-stage estimation library.

One test per advertised guarantee, each printing a single line with the
measured value next to the required tolerance (run with ``-s`` or ``-v``
to see them).  Every draw is seeded, so reruns are bit-identical; the
whole file finishes in a couple of minutes on one core.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from fullspace import (
    assemble_from_blocks,
    isotypic_isometries,
    tensor_power,
)
from qlan.estimator import EstimatorConfig, stage2_sample
from qlan.lan_channels import convergence_sweep
from qlan.operator_core import density_to_bloch
from qlan.qsde import collision_integrate, xi_overlap, xi_state
from qlan.risk_bench import (
    RiskConfig,
    hoeffding_check,
    local_sup_risk,
    reference_risks,
)
from qlan.spin_blocks import (
    ModelParams,
    block_pmf_window,
    block_state,
    local_qubit_state,
)

SEED = 20260801


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1 + 2: minimax risk of the full two-stage scheme at n = 10^6
# ---------------------------------------------------------------------------


def _sup_risk(mu0: float, loss: str) -> tuple[float, float]:
    cfg = RiskConfig(
        mu0=mu0,
        loss=loss,
        n_list=(10**6,),
        trials=10_000,
        batches=20,
        seed=SEED,
    )
    report = local_sup_risk(cfg)
    ref_trace, ref_fid = reference_risks(mu0)
    return report.sup, (ref_fid if loss == "fidelity" else ref_trace)


def test_acceptance_01_local_risk_within_5pct_of_reference():
    t0 = time.monotonic()
    lines = []
    for mu0 in (0.75, 0.9):
        sup, ref = _sup_risk(mu0, "local")
        lines.append(f"mu0={mu0}: sup={sup:.4f} ref={ref:.4f} ratio={sup / ref:.4f}")
        assert abs(sup / ref - 1.0) <= 0.05
    _report(
        "01 local-loss sup risk (10^4 trials/point, n=10^6)",
        "; ".join(lines) + f"; {time.monotonic() - t0:.1f}s",
    )


def test_acceptance_02_fidelity_risk_within_5pct_of_reference():
    t0 = time.monotonic()
    lines = []
    for mu0 in (0.75, 0.9):
        sup, ref = _sup_risk(mu0, "fidelity")
        lines.append(f"mu0={mu0}: sup={sup:.4f} ref={ref:.4f} ratio={sup / ref:.4f}")
        assert abs(sup / ref - 1.0) <= 0.05
    _report(
        "02 fidelity-loss sup risk (10^4 trials/point, n=10^6)",
        "; ".join(lines) + f"; {time.monotonic() - t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3 + 4: strong convergence of the localization channels (shared sweep)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lan_sweep():
    return convergence_sweep(0.8, (1.0, 1.0, 1.0), (20, 50, 100, 200, 400))


def test_acceptance_03_forward_channel_distance_decays(lan_sweep):
    dist = [r.dist_T for r in lan_sweep.rows]
    _report(
        "03 forward-channel distance (mu=0.8, u=(1,1,1))",
        f"dist_T={['%.4f' % d for d in dist]} slope={lan_sweep.slope_T:.3f}",
    )
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert lan_sweep.slope_T <= -0.2


def test_acceptance_04_reverse_channel_distance_decays(lan_sweep):
    dist = [r.dist_S for r in lan_sweep.rows]
    _report(
        "04 reverse-channel distance (mu=0.8, u=(1,1,1))",
        f"dist_S={['%.4f' % d for d in dist]} slope={lan_sweep.slope_S:.3f}",
    )
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert lan_sweep.slope_S <= -0.2


# ---------------------------------------------------------------------------
# 5: exact stage-2 sampler converges to its gaussian limit
# ---------------------------------------------------------------------------


def test_acceptance_05_exact_sampler_matches_gaussian_limit():
    """One-sample KS of the exact stage-2 draws against the gaussian
    sampler's law: N(u_i, mu_u / (2 (2 mu_u - 1)^2)) for the transverse
    components and N(u_z, mu_u (1 - mu_u)) for g."""
    t0 = time.monotonic()
    u, draws = (1.0, 1.0, 1.0), 200_000
    cols = np.repeat(np.array(u)[:, None], draws, axis=1)
    cfg_exact = EstimatorConfig(sampler="exact")
    ks_max = {}
    detail = []
    for n in (400, 1600):
        ex = stage2_sample(np.full(draws, 0.8), n, cols, cfg_exact, np.random.default_rng(11))
        mu_u = 0.8 + u[2] / math.sqrt(n)
        sd_xy = math.sqrt(mu_u / (2.0 * (2.0 * mu_u - 1.0) ** 2))
        laws = [stats.norm(u[0], sd_xy), stats.norm(u[1], sd_xy)]
        laws.append(stats.norm(u[2], math.sqrt(mu_u * (1.0 - mu_u))))
        ks = [stats.ks_1samp(ex[i], laws[i].cdf).statistic for i in range(3)]
        ks_max[n] = max(ks)
        detail.append(f"n={n}: KS=({ks[0]:.4f},{ks[1]:.4f},{ks[2]:.4f})")
    _report(
        "05 exact stage 2 vs its gaussian law (mu=0.8, 2e5 draws)",
        "; ".join(detail) + f"; {time.monotonic() - t0:.1f}s",
    )
    assert ks_max[400] <= 0.05  # every coordinate at the smaller n
    assert ks_max[1600] < ks_max[400]  # and the gap shrinks with n


# ---------------------------------------------------------------------------
# 6: monitored-block dynamics against the closed-form field state
# ---------------------------------------------------------------------------


def test_acceptance_06_collision_dynamics_reach_closed_form_state():
    t0 = time.monotonic()
    t_run, K = 5.0, 2000
    params = ModelParams(0.75, 10_000)
    jn = params.j_n

    # (a) one-excitation system amplitude follows exp(-gamma t / 2)
    waves = {}
    for m in (1, 2):
        w_full = collision_integrate(params, jn, m, t_run, K)
        w_half = collision_integrate(params, jn, m, t_run, K // 2)
        waves[m] = (w_half, w_full)
    amp = abs(waves[1][1].sectors[1][1])
    amp_err = abs(amp - math.exp(-t_run / 2.0))
    assert amp_err <= 1e-3

    # (b) overlap with the closed-form state after removing the O(dt)
    # discretization budget by step-halving extrapolation
    overlaps = {}
    for m in (1, 2):
        xi = xi_state(params, jn, m, t_run)
        w_half, w_full = waves[m]
        overlaps[m] = 2.0 * xi_overlap(w_full, xi) - xi_overlap(w_half, xi)
        assert overlaps[m] >= 0.999

    # (c) at the typical-window edge the remaining deficit is O(n^-1/4):
    # quadrupling n must shrink the distance by about sqrt(2)
    deficits = {}
    for n in (10_000, 40_000):
        p = ModelParams(0.75, n)
        edge = p.j_n + round(n**0.75)
        for m in (1, 2):
            xi = xi_state(p, edge, m, t_run)
            w_full = collision_integrate(p, edge, m, t_run, K)
            w_half = collision_integrate(p, edge, m, t_run, K // 2)
            ov = 2.0 * xi_overlap(w_full, xi) - xi_overlap(w_half, xi)
            deficits[(n, m)] = math.sqrt(max(2.0 * (1.0 - ov), 0.0))
    ratios = {m: deficits[(10_000, m)] / deficits[(40_000, m)] for m in (1, 2)}
    _report(
        "06 collision model vs closed form (n=1e4, t=5, K=2000)",
        f"amp_err={amp_err:.2e}; overlaps m1={overlaps[1]:.6f} "
        f"m2={overlaps[2]:.6f}; edge ratios m1={ratios[1]:.3f} "
        f"m2={ratios[2]:.3f}; {time.monotonic() - t0:.1f}s",
    )
    for m in (1, 2):
        assert 0.99 <= ratios[m] <= 1.84


# ---------------------------------------------------------------------------
# 7: with truncation off, the gaussian pipeline is exactly the shift model
# ---------------------------------------------------------------------------


def test_acceptance_07_untruncated_gaussian_risk_is_exact():
    t0 = time.monotonic()
    n, worst = 10**6, 0.0
    for mu0 in (0.6, 0.75, 0.9):
        cfg = RiskConfig(
            mu0=mu0,
            loss="local",
            n_list=(n,),
            trials=100_000,
            batches=50,
            seed=SEED,
            estimator=EstimatorConfig(truncate=False),
        )
        report = local_sup_risk(cfg)
        for row in report.rows:
            u = np.array([row["ux"], row["uy"], row["uz"]])
            r = density_to_bloch(local_qubit_state(mu0, u / math.sqrt(n)))
            mu_pt = 0.5 * (1.0 + float(np.linalg.norm(r)))
            ref = 8.0 * mu_pt - 4.0 * mu_pt * mu_pt
            dev = abs(row["mean"] - ref) / row["stderr"]
            worst = max(worst, dev)
            assert dev <= 3.0, (mu0, row["label"], row["mean"], ref, dev)
    _report(
        "07 gaussian-shift exactness (39 grid points, 10^5 trials each)",
        f"worst deviation {worst:.2f} sigma (need <= 3); "
        f"{time.monotonic() - t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8: stage-1 localization failure probability under its analytic bound
# ---------------------------------------------------------------------------


def test_acceptance_08_stage1_tail_bound_holds():
    """The exact stage-1 probability, not a count of draws, so the check
    also speaks where the bound is far below any feasible 1 / trials."""
    rows = hoeffding_check((10**3, 10**4, 10**5), (0.05, 0.1, 0.15, 0.2, 0.25), 0.1)
    cells = "; ".join(
        f"(n={r['n']},eps={r['eps']}): {r['probability']:.3g} <= {r['bound']:.3g}"
        for r in rows
    )
    _report("08 stage-1 large-deviation bound", cells)
    assert len(rows) == 15
    assert all(r["ok"] for r in rows)
    assert any(not r["vacuous"] for r in rows)
    assert all(r["probability"] > 0.0 for r in rows)


# ---------------------------------------------------------------------------
# 9: block decomposition reproduces the full 2^n tensor power
# ---------------------------------------------------------------------------


def test_acceptance_09_block_decomposition_equals_tensor_power():
    t0 = time.monotonic()
    worst = 0.0
    for n, mu, u in [
        (2, 0.75, (0.0, 0.0, 0.0)),
        (3, 0.8, (0.5, -0.3, 0.2)),
        (4, 0.7, (0.4, 0.1, 0.3)),
        (5, 0.66, (0.9, 0.4, -0.25)),
        (6, 0.75, (1.0, 1.0, 0.3)),
        (7, 0.85, (-0.4, 0.7, 0.1)),
        (8, 0.75, (0.8, -0.8, 0.5)),
    ]:
        params = ModelParams(mu, n)
        ul = u
        target = tensor_power(local_qubit_state(mu, np.asarray(u) / math.sqrt(n)), n)
        iso = isotypic_isometries(n)
        weights = dict(zip(*block_pmf_window(params, ul)[:2]))
        blocks = {j: block_state(params, ul, j) for j in iso}
        rebuilt = assemble_from_blocks(n, weights, blocks, iso)
        worst = max(worst, float(np.max(np.abs(rebuilt - target))))
    _report(
        "09 full-space reconstruction n=2..8",
        f"max entrywise error {worst:.2e} (need <= 1e-8); "
        f"{time.monotonic() - t0:.1f}s",
    )
    assert worst <= 1e-8
