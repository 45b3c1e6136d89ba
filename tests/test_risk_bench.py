"""Tests for the Monte Carlo risk benchmark."""

import json
import math
import os
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qlan import risk_bench
from qlan.cli import main
from qlan.estimator import EstimatorConfig, full_estimate
from qlan.operator_core import density_to_bloch, qubit_fidelity_sq
from qlan.risk_bench import (
    RiskConfig,
    RiskReport,
    _failure_loss,
    _true_state,
    grid_points,
    hoeffding_check,
    local_sup_risk,
    loss_fidelity,
    loss_local,
    loss_trace_sq,
    pointwise_risk,
    reference_risks,
    seeded_rng,
)


def test_reference_risks():
    assert reference_risks(0.75) == (3.75, 1.0)
    t, f = reference_risks(0.9)
    assert t == pytest.approx(3.96, abs=1e-12)
    assert f == pytest.approx(1.15, abs=1e-12)


def test_grid_points_metric_calibrated():
    pts = grid_points(0.75)
    assert len(pts) == 13
    assert pts[0].label == "center" and pts[0].u == (0.0, 0.0, 0.0)
    labels = {p.label for p in pts}
    assert labels == {"center"} | {
        f"{d}@{r}" for d in ("z+", "z-", "x+", "x-", "y+", "y-") for r in ("0.5", "1")
    }
    # every direction at radius 1 sits at equalized loss 1 from the center
    for p in pts:
        if p.label.endswith("@1"):
            val = loss_local((0.0, 0.0, 0.0), p.u, 0.75)
            assert val == pytest.approx(1.0, rel=1e-12)
    # radius 0 deduplicates into the center
    assert len(grid_points(0.8, radii=(0.0,))) == 1


def test_loss_local_values_and_broadcast():
    assert loss_local((0, 0, 0), (1.0, 2.0, 3.0), 0.75) == pytest.approx(41.0)
    u = np.zeros((3, 2))
    u_hat = np.array([[1.0, 0, 0], [0, 0, 1.0]]).T
    out = loss_local(u, u_hat, 0.75)
    assert out.shape == (2,)
    assert np.allclose(out, [1.0, 4.0])


def test_matrix_losses():
    rho = density_to_bloch(np.diag([0.75, 0.25]).astype(complex))
    sig = density_to_bloch(np.diag([0.8, 0.2]).astype(complex))
    assert loss_trace_sq(rho, sig) == pytest.approx(0.01, rel=1e-9)
    f = math.sqrt(0.75 * 0.8) + math.sqrt(0.25 * 0.2)
    assert loss_fidelity(rho, sig, 0.75, 0.8) == pytest.approx(1.0 - f * f, rel=1e-9)
    # an eigenvalue below 1/2 along -r_hat is the one above 1/2 along r_hat
    assert loss_fidelity(rho, -sig, 0.75, 0.2) == pytest.approx(
        loss_fidelity(rho, -sig, 0.75, 0.8), rel=1e-15
    )
    f = math.sqrt(0.75 * 0.2) + math.sqrt(0.25 * 0.8)
    assert loss_fidelity(rho, -sig, 0.75, 0.2) == pytest.approx(1.0 - f * f, rel=1e-12)
    assert loss_fidelity(rho, rho, 0.75, 0.75) == 0.0
    assert loss_trace_sq(rho, rho) == pytest.approx(0.0, abs=1e-12)
    # a (3, B) batch gives one loss per column; antipodal pure states sit at 4
    pair = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]).T
    assert np.array_equal(loss_trace_sq(pair, pair[:, ::-1]), [4.0, 4.0])
    with pytest.raises(AssertionError, match="qubit bound"):
        loss_trace_sq(pair, 2.0 * pair[:, ::-1])


def _infidelity_oracle(r, s, mu: float, lam: float) -> Decimal:
    """1 - F^2 at 50 digits between the states of eigenvalue mu along r and
    lam along s, the vectors rescaled to the lengths |2 mu - 1|, |2 lam - 1|."""
    with localcontext() as ctx:
        ctx.prec = 50

        def scaled(v, m):
            v = [Decimal(float(c)) for c in v]
            k = abs(2 * Decimal(m) - 1) / sum(c * c for c in v).sqrt()
            return [c * k for c in v]

        dm, dl = Decimal(mu), Decimal(lam)
        root = (dm * (1 - dm) * dl * (1 - dl)).sqrt()
        dot = sum(a * b for a, b in zip(scaled(r, mu), scaled(s, lam)))
        return 1 - (1 + dot + 4 * root) / 2


def test_infidelity_keeps_its_digits():
    """At mu = 0.75, for states 1e-3 apart (1 - F^2 ~ 1e-7), the infidelity
    is within 1e-12 relative of a 50-digit oracle; 1 - F^2 from the
    squared fidelity of the Bloch vectors loses about four more digits."""
    rng = np.random.default_rng(29)
    mu, count = 0.75, 200
    e = rng.normal(size=(3, count))
    e /= np.linalg.norm(e, axis=0)
    f = e + 1e-3 * rng.normal(size=(3, count))
    f /= np.linalg.norm(f, axis=0)
    lam = mu + 1e-3 * rng.normal(size=count)
    r, s = (2.0 * mu - 1.0) * e, (2.0 * lam - 1.0) * f
    want = [_infidelity_oracle(r[:, b], s[:, b], mu, lam[b]) for b in range(count)]

    def rel_err(got):
        return max(float(abs((Decimal(float(g)) - w) / w)) for g, w in zip(got, want))

    assert rel_err(loss_fidelity(r, s, mu, lam)) <= 1e-12
    assert rel_err(1.0 - qubit_fidelity_sq(r, s)) > 1e-10


@pytest.mark.parametrize("batches", [0, 1, -2])
def test_config_needs_two_batches(batches):
    """The stderr is the spread of the batch means, so a config with fewer
    than two batches is refused when built; two batches run."""
    with pytest.raises(ValueError, match=f"batches = {batches}: the stderr needs two batch means or more"):
        RiskConfig(mu0=0.75, n_list=(10**4,), trials=10, batches=batches)
    cfg = RiskConfig(mu0=0.75, n_list=(10**4,), trials=10, batches=2)
    mean, se, _ = pointwise_risk(_true_state(0.75, np.zeros(3), 10**4), 10**4, cfg)
    assert math.isfinite(mean) and math.isfinite(se) and se > 0.0


def test_failure_loss_caps():
    cfg_t = RiskConfig(mu0=0.75, loss="trace")
    cfg_f = RiskConfig(mu0=0.75, loss="fidelity")
    cfg_l = RiskConfig(mu0=0.75, loss="local")
    assert _failure_loss(cfg_t, 9.0) == 4.0
    assert _failure_loss(cfg_f, 9.0) == 1.0
    assert _failure_loss(cfg_l, 9.0) == 4.0 + 4.0 * 0.25 * 9.0


def test_config_validation():
    assert not hasattr(RiskConfig, "validate")
    with pytest.raises(ValueError, match="eigenvalue"):
        RiskConfig(mu0=0.5)
    # the estimator puts every state within MODEL_MARGIN of 1/2 outside the model
    with pytest.raises(ValueError, match="mu0 = 0.549 outside \\[1/2 \\+ 0.05, 1\\)"):
        RiskConfig(mu0=0.549)
    RiskConfig(mu0=0.55)
    with pytest.raises(ValueError, match="loss"):
        RiskConfig(mu0=0.75, loss="l2")
    with pytest.raises(ValueError, match="trials = 10: at least 20 needed, one per batch"):
        RiskConfig(mu0=0.75, trials=10, batches=20)
    with pytest.raises(ValueError, match="n = 0 in n_list: the number of qubits must be at least 1"):
        RiskConfig(mu0=0.75, n_list=(10**4, 0))
    with pytest.raises(ValueError, match="eps < eta"):
        RiskConfig(
            mu0=0.75, estimator=EstimatorConfig(eps=0.1, eta=0.05)
        )


def test_center_risk_matches_reference():
    """At the grid center the gaussian-route local risk is exactly the
    asymptotic value 8 mu - 4 mu^2 in expectation: the stage-1 frame does
    not change the rotated eigenvalue, so the stage-2 noise is drawn at
    mu0 itself."""
    cfg = RiskConfig(
        mu0=0.75,
        loss="local",
        trials=8000,
        batches=16,
        estimator=EstimatorConfig(truncate=False),
    )
    rho = _true_state(cfg.mu0, np.zeros(3), 10**6)
    mean, se, counts = pointwise_risk(rho, 10**6, cfg)
    assert abs(mean - 3.75) < 5.0 * se
    assert se < 0.1
    assert counts == {"failures": 0, "truncated": 0, "clamped": 0}


# (loss, n, mu0, point in units of n^eps, truncate) -> (mean, stderr) at
# RiskConfig(trials=3000, batches=6, seed=99), cell (0, 3).  First recorded
# from the vectorized gaussian evaluator the batched pipeline replaced;
# re-recorded from the pipeline when the seeded streams moved to SFC64 and
# stage 1 to per-axis binomial draws, and again when the losses were scored
# in the stage-1 frames (cancellation-free infidelity, hypot -> sqrt)
GAUSSIAN_RECORDED = {
    ("trace", 10**4, 0.8, (0.0, 0.5 / 1.2, 0.0), True): (3.739246609031201, 0.04016917859696375),
    ("trace", 10**6, 0.75, (0.0, 0.0, -0.5), True): (3.6560427002935474, 0.038280768518593904),
    ("trace", 2000, 0.6, (1.0, 0.0, 0.0), False): (3.236587810520005, 0.05760232959065986),
    ("fidelity", 10**4, 0.8, (0.0, 0.5 / 1.2, 0.0), True): (1.0226031401749038, 0.011840650791586783),
    ("fidelity", 10**6, 0.75, (0.0, 0.0, -0.5), True): (0.9749896340613156, 0.011018800023790272),
    ("fidelity", 2000, 0.6, (1.0, 0.0, 0.0), False): (0.8195103778459845, 0.014604887213378215),
    ("local", 10**4, 0.8, (0.0, 0.5 / 1.2, 0.0), True): (3.7418873172606957, 0.03837006035604498),
    ("local", 10**6, 0.75, (0.0, 0.0, -0.5), True): (3.6560062460821015, 0.03807571215943673),
    ("local", 2000, 0.6, (1.0, 0.0, 0.0), False): (3.316619413590631, 0.04917706735144352),
}


@pytest.mark.parametrize("key", list(GAUSSIAN_RECORDED), ids=lambda k: f"{k[0]}-n{k[1]}")
def test_gaussian_pointwise_risk_matches_recorded(key):
    """Same streams and the same arithmetic: the mean agrees to 1e-12, the
    stderr (a spread of nearly equal batch means) to 1e-9."""
    loss, n, mu0, point, truncate = key
    cfg = RiskConfig(
        mu0=mu0,
        loss=loss,
        n_list=(n,),
        trials=3000,
        batches=6,
        seed=99,
        estimator=EstimatorConfig(truncate=truncate),
    )
    rho = _true_state(mu0, np.array(point) * float(n) ** cfg.estimator.eps, n)
    mean, se, counts = pointwise_risk(rho, n, cfg, (0, 3))
    want_mean, want_se = GAUSSIAN_RECORDED[key]
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=0.0)
    assert se == pytest.approx(want_se, rel=1e-9, abs=0.0)
    assert counts["failures"] == 0


# Two single exact-sampler trials, one after the other on one stream, at
# the centre point of the exact-risk benchmark (mu0 = 0.75, n = 10^6,
# default seed): stage-1 Bloch vector, mu_tilde and u_raw, recorded from
# the walk-maximum block index, the closed-form ladder level and the polar
# heterodyne sampler of its pure ladder vector, on the SFC64 stream.
EXACT_RECORDED = [
    (
        [-0.0010355374918443738, -0.0035016730215547964, 0.4986172798122852],
        0.7493153253308196,
        [2.5761835592127205, -0.29889092035655174, -0.19145672608201725],
    ),
    (
        [-0.0015862279499350151, 0.00026935946319661674, 0.5018017263052041],
        0.7509021528387674,
        [-1.3252273422796081, -2.883841824928175, -0.9492838778650342],
    ),
]


def test_exact_trials_keep_their_stream():
    """Stage-1 draws and mu_tilde are bitwise those recorded; u_raw agrees
    to 1e-10, far below the ~1e-3 shift of another block index or draw."""
    rho = _true_state(0.75, np.zeros(3), 10**6)
    rng = seeded_rng(20260801, 0, 0, 10_000)
    for r_raw, mu_tilde, u_raw in EXACT_RECORDED:
        res = full_estimate(rho, 10**6, EstimatorConfig(sampler="exact"), rng)
        assert res.stage1.r_raw[:, 0].tolist() == r_raw
        assert res.stage1.mu_tilde[0] == mu_tilde
        assert np.abs(res.u_raw[:, 0] - u_raw).max() <= 1e-10


def test_pointwise_risk_charges_outside_trials():
    """A state inside the model margin fails every trial of every batch;
    each is charged the capped loss and counted."""
    cfg = RiskConfig(mu0=0.75, loss="fidelity", n_list=(10**4,), trials=50, batches=5)
    rho = np.diag([0.52, 0.48]).astype(complex)
    mean, se, counts = pointwise_risk(rho, 10**4, cfg)
    n_rest = 10**4 - math.ceil((10**4) ** 0.95)
    assert mean == n_rest * 1.0 and se == 0.0
    assert counts["failures"] == 50


def test_pointwise_risk_weights_every_trial_equally():
    """30 trials in 20 batches (ten of two, ten of one): the mean is that of
    all 30 losses, recomputed here batch by batch on the same streams, not
    the mean of the batch means (3.071 against 3.013), which the same
    comparison tells apart."""
    cfg = RiskConfig(mu0=0.75, loss="local", n_list=(10**4,), trials=30, batches=20)
    rho = _true_state(0.75, np.zeros(3), 10**4)
    mean, _, counts = pointwise_risk(rho, 10**4, cfg)
    assert counts["failures"] == 0
    mu_weight = 0.5 * (1.0 + np.linalg.norm(density_to_bloch(rho)))
    batches = []
    for b in range(20):
        rng = seeded_rng(cfg.seed, 0, 0, b)
        res = full_estimate(rho, 10**4, cfg.estimator, rng, size=2 if b < 10 else 1)
        batches.append(loss_local(res.u_true_local, res.u_hat, mu_weight))
    assert mean == pytest.approx(np.mean(np.concatenate(batches)), rel=1e-12)
    assert mean != pytest.approx(np.mean([b.mean() for b in batches]), rel=1e-12)


def test_risk_rows_carry_event_counts(capsys):
    """Each report row counts the failures, truncations and clamps of its
    grid point; recounted here trial by trial from full_estimate on the
    same batch streams.  At mu0 = 0.55, n = 10^4 the z- points put every
    trial outside the model and the others truncate."""
    cfg = RiskConfig(mu0=0.55, loss="fidelity", n_list=(10**4,), trials=60, batches=4, seed=3)
    rep = local_sup_risk(cfg)
    for g_idx, (pt, row) in enumerate(zip(grid_points(cfg.mu0), rep.rows)):
        rho = _true_state(cfg.mu0, np.array(pt.u) * float(10**4) ** cfg.estimator.eps, 10**4)
        want = {"failures": 0, "truncated": 0, "clamped": 0}
        for b in range(cfg.batches):
            res = full_estimate(rho, 10**4, cfg.estimator, seeded_rng(cfg.seed, 0, g_idx, b), size=15)
            for k in range(15):
                want["failures"] += bool(res.outside[k])
                want["truncated"] += bool(res.trunc_flags[:, k].any())
                want["clamped"] += bool(res.recon_clamped[k])
        assert {key: row[key] for key in want} == want, pt.label
    assert sum(row["failures"] for row in rep.rows) == 2 * 60
    assert sum(row["truncated"] for row in rep.rows) > 0
    # the CLI writes the counters into its JSON rows and its CSV columns
    args = ["risk", "--mu0", "0.55", "--n", "10000", "--trials", "40", "--seed", "3"]
    assert main(args) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[2]["failures"] == 40 and rows[2]["label"] == "z-@0.5"
    assert main(args + ["--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.strip().split("\n")
    assert header == "n,label,ux,uy,uz,mean,stderr,trials,failures,truncated,clamped"
    assert lines[2].split(",")[8] == "40"


def test_report_structure_and_serialization(tmp_path):
    cfg = RiskConfig(mu0=0.75, loss="fidelity", n_list=(2000, 4000), trials=200)
    rep = local_sup_risk(cfg)
    assert len(rep.rows) == 2 * 13
    assert rep.reference == 1.0
    last = [r for r in rep.rows if r["n"] == 4000]
    assert rep.sup == max(r["mean"] for r in last)
    assert rep.argmax["n"] == 4000

    js = json.loads(rep.to_json())
    assert set(js) == {"config", "rows", "sup", "reference", "argmax"}
    assert js["config"]["sampler"] == "gaussian"
    assert len(js["rows"]) == 26

    # the CLI writes the same report, atomically, as JSON or CSV
    args = ["risk", "--mu0", "0.75", "--loss", "fidelity", "--n-list", "2000,4000", "--trials", "200"]
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    assert main(args + ["--out", str(jpath)]) == 0
    assert main(args + ["--format", "csv", "--out", str(cpath)]) == 0
    assert jpath.read_text() == rep.to_json() + "\n"
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "n,label,ux,uy,uz,mean,stderr,trials,failures,truncated,clamped"
    assert len(lines) == 1 + 26
    # atomic write leaves no temp file behind
    assert not os.path.exists(str(jpath) + ".tmp")
    # floats survive the round trip at full precision
    cell = lines[1].split(",")[5]
    assert float(cell) == rep.rows[0]["mean"]


def test_report_json_writes_null_for_a_non_finite_float():
    """``to_json`` writes the document the CLI writes: a non-finite float in
    a row or a total is null, so the text stays strict JSON."""
    rep = RiskReport({"seed": 1}, [{"n": 4, "mean": math.inf}], math.nan, {"n": 4}, 1.0)
    doc = json.loads(rep.to_json(), parse_constant=pytest.fail)
    assert doc["sup"] is None and doc["rows"][0]["mean"] is None
    assert doc["reference"] == 1.0 and doc["argmax"] == {"n": 4}


@pytest.mark.parametrize("sampler", ["gaussian", "exact"])
def test_pooled_rows_are_the_serial_computation(sampler, monkeypatch):
    """Gaussian cells run on a pool of worker threads (four here, whatever
    the host), exact cells in the caller's thread; either way every row
    equals, by ==, its cell recomputed alone in this thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    threads = set()

    def estimate(*args, **kwargs):
        threads.add(threading.current_thread())
        return full_estimate(*args, **kwargs)

    monkeypatch.setattr(risk_bench, "full_estimate", estimate)
    n_list, trials = ((10**4, 10**6), 400) if sampler == "gaussian" else ((400, 1600), 4)
    cfg = RiskConfig(
        mu0=0.75,
        loss="local",
        n_list=n_list,
        trials=trials,
        batches=4,
        estimator=EstimatorConfig(sampler=sampler),
    )
    rows = local_sup_risk(cfg).rows
    assert {t is threading.main_thread() for t in threads} == {sampler == "exact"}
    grid = grid_points(cfg.mu0, cfg.radii)
    assert len(grid) == 13 and len(rows) == 26
    cells = [(i, n, g, pt) for i, n in enumerate(n_list) for g, pt in enumerate(grid)]
    for row, (n_idx, n, g_idx, pt) in zip(rows, cells):
        u_vec = np.array(pt.u) * float(n) ** cfg.estimator.eps
        mean, se, counts = pointwise_risk(_true_state(cfg.mu0, u_vec, n), n, cfg, (n_idx, g_idx))
        assert (row["n"], row["label"]) == (n, pt.label)
        assert (row["mean"], row["stderr"]) == (mean, se)
        assert {key: row[key] for key in counts} == counts


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_failing_cell_raises_its_own_error(error, monkeypatch, capsys):
    """An error in one pooled cell reaches the caller with its own type and
    cancels the cells not yet started; ``qlan risk`` exits 2 on a ValueError."""
    cfg = RiskConfig(mu0=0.75, n_list=(10**4, 10**6), trials=40)
    u_bad = np.array(grid_points(0.75)[1].u) * 1e4**cfg.estimator.eps  # cell (0, 1)
    bad = _true_state(0.75, u_bad, 10**4)
    calls = []

    def estimate(rho, n, *args, **kwargs):
        calls.append(n)
        if n == 10**4 and np.array_equal(rho, bad):
            raise error("cell (0, 1) failed")
        return full_estimate(rho, n, *args, **kwargs)

    monkeypatch.setattr(risk_bench, "full_estimate", estimate)
    with pytest.raises(error, match=r"cell \(0, 1\)"):
        local_sup_risk(cfg)
    assert len(calls) < 26 * cfg.batches
    if error is ValueError:
        assert main(["risk", "--n-list", "10000,1000000", "--trials", "40"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cell (0, 1) failed" in err


def test_hoeffding_rows():
    rows = hoeffding_check(
        n_values=(10**4, 10**5),
        eps_values=(0.05, 0.15),
        kappa=0.1,
        trials=20_000,
        rng=np.random.default_rng(99),
    )
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"n", "eps", "n_tilde", "empirical", "bound", "ok", "vacuous"}
        assert row["ok"]  # empirical never exceeds the analytic bound
    by_key = {(r["n"], r["eps"]): r for r in rows}
    # kappa = 0.1 with eps = 0.05 gives a constant exponent: bound >= 1
    assert by_key[(10**4, 0.05)]["vacuous"]
    # eps = 0.15 is informative and the empirical tail sits well inside
    tight = by_key[(10**5, 0.15)]
    assert not tight["vacuous"]
    assert tight["empirical"] < tight["bound"] < 0.05


def test_exact_risk_runs_the_gaussian_chunks():
    """The exact sampler's risk is recounted batch by batch from
    full_estimate on the chunk sizes and streams of the gaussian sampler."""
    cfg = RiskConfig(
        mu0=0.75,
        loss="local",
        n_list=(10**4,),
        trials=14,
        batches=4,
        estimator=EstimatorConfig(sampler="exact"),
    )
    rho = _true_state(0.75, np.array([0.3, -0.4, 0.2]), 10**4)
    mean, _, counts = pointwise_risk(rho, 10**4, cfg, (0, 5))
    assert counts["failures"] == 0
    mu_weight = 0.5 * (1.0 + np.linalg.norm(density_to_bloch(rho)))
    losses = []
    for b, size in enumerate((4, 4, 3, 3)):
        res = full_estimate(rho, 10**4, cfg.estimator, seeded_rng(cfg.seed, 0, 5, b), size=size)
        losses.append(loss_local(res.u_true_local, res.u_hat, mu_weight))
    assert mean == pytest.approx(np.mean(np.concatenate(losses)), rel=1e-12)


# (loss, mu0, n, point in units of n^eps, truncate) -> pointwise_risk's
# (mean, stderr, counts), recorded with repr at RiskConfig(trials=10^4,
# batches=4, seed=4242), cell (0, 2), and re-recorded when the seeded
# streams moved to SFC64 and stage 1 to per-axis binomial draws, and when
# the losses were scored in the stage-1 frames (last digits only).  The
# mu0 = 0.55, n = 10^4 rows truncate (x+) or put every trial outside the
# model (z-); the mu0 = 0.99, n = 100 rows mix degenerate stage-1 trials
# with clamped eigenvalues.
PIPELINE_PINNED = {
    ("trace", 0.75, 10**6, (0.0, 0.0, -0.5), True):
        (3.7578315594651746, 0.021995209854049343, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("trace", 0.75, 10**6, (0.0, 0.0, -0.5), False):
        (3.7578315594651746, 0.021995209854049343, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("fidelity", 0.75, 10**6, (0.0, 0.0, -0.5), True):
        (1.000938190561868, 0.005341812936459823, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("fidelity", 0.75, 10**6, (0.0, 0.0, -0.5), False):
        (1.000938190561868, 0.005341812936459823, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("local", 0.75, 10**6, (0.0, 0.0, -0.5), True):
        (3.7579793130124455, 0.021838073395747244, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("local", 0.75, 10**6, (0.0, 0.0, -0.5), False):
        (3.7579793130124455, 0.021838073395747244, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("trace", 0.55, 10**4, (5.0, 0.0, 0.0), True):
        (4.301542493907202, 0.04096923659664858, {"failures": 0, "truncated": 6946, "clamped": 0}),
    ("trace", 0.55, 10**4, (5.0, 0.0, 0.0), False):
        (3.1326410922930243, 0.0197674954122693, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("fidelity", 0.55, 10**4, (5.0, 0.0, 0.0), True):
        (1.0778927723321068, 0.010240739766198347, {"failures": 0, "truncated": 6946, "clamped": 0}),
    ("fidelity", 0.55, 10**4, (5.0, 0.0, 0.0), False):
        (0.7856674219285622, 0.0049490931964319305, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("local", 0.55, 10**4, (5.0, 0.0, 0.0), True):
        (4.374947179296405, 0.03306673949016962, {"failures": 0, "truncated": 6946, "clamped": 0}),
    ("local", 0.55, 10**4, (5.0, 0.0, 0.0), False):
        (3.1951678772837564, 0.012261140354334085, {"failures": 0, "truncated": 0, "clamped": 0}),
    ("trace", 0.55, 10**4, (0.0, 0.0, -0.5), True):
        (14760.0, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("trace", 0.55, 10**4, (0.0, 0.0, -0.5), False):
        (14760.0, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("fidelity", 0.55, 10**4, (0.0, 0.0, -0.5), True):
        (3690.0, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("fidelity", 0.55, 10**4, (0.0, 0.0, -0.5), False):
        (3690.0, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("local", 0.55, 10**4, (0.0, 0.0, -0.5), True):
        (6.511886431509581, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("local", 0.55, 10**4, (0.0, 0.0, -0.5), False):
        (6.511886431509581, 0.0, {"failures": 10000, "truncated": 0, "clamped": 0}),
    ("trace", 0.99, 100, (0.0, 0.0, 0.0), True):
        (64.44871373665599, 0.1957070832396957, {"failures": 7956, "truncated": 0, "clamped": 657}),
    ("trace", 0.99, 100, (0.0, 0.0, 0.0), False):
        (64.44871373665599, 0.1957070832396957, {"failures": 7956, "truncated": 0, "clamped": 657}),
    ("fidelity", 0.99, 100, (0.0, 0.0, 0.0), True):
        (16.136415284537605, 0.048856549895040235, {"failures": 7956, "truncated": 0, "clamped": 657}),
    ("fidelity", 0.99, 100, (0.0, 0.0, 0.0), False):
        (16.136415284537605, 0.048856549895040235, {"failures": 7956, "truncated": 0, "clamped": 657}),
    ("local", 0.99, 100, (0.0, 0.0, 0.0), True):
        (5.290205906069149, 0.017103552307611403, {"failures": 7956, "truncated": 0, "clamped": 657}),
    ("local", 0.99, 100, (0.0, 0.0, 0.0), False):
        (5.290205906069149, 0.017103552307611403, {"failures": 7956, "truncated": 0, "clamped": 657}),
}
# one full_estimate trial per sampler (a batch of one) on default_rng:
# (r_hat, u_hat, u_raw).  The gaussian trial was re-recorded when
# localize_frame stopped normalizing the rotated vector, which moved two
# entries by an ulp; the exact trial did not move.
GAUSSIAN_TRIAL_PINNED = (
    [-0.006843791098841675, -0.00972932161265309, 0.4993568511500431],
    (-0.4549870520591945, -1.7191095886702032, -0.856556751021805),
    (-0.4549870520591945, -1.7191095886702032, -0.856556751021805),
)
EXACT_TRIAL_PINNED = (  # re-recorded when each draw became one pure ladder vector's
    [-0.019775142199138146, -0.028761150410730567, 0.4799539508763972],
    (-2.186189111313594, 1.47643094043796, -0.8246740082076564),
    (-2.186189111313594, 1.47643094043796, -0.8246740082076564),
)
HOEFFDING_PINNED = [
    {"n": 1000, "eps": 0.1, "n_tilde": 502, "empirical": 0.548, "bound": 2.2089349386202013, "ok": True, "vacuous": True},
    {"n": 1000, "eps": 0.2, "n_tilde": 502, "empirical": 0.0375, "bound": 0.1123290864776665, "ok": True, "vacuous": False},
    {"n": 10000, "eps": 0.1, "n_tilde": 3982, "empirical": 0.439, "bound": 1.7083421483759413, "ok": True, "vacuous": True},
    {"n": 10000, "eps": 0.2, "n_tilde": 3982, "empirical": 0.001, "bound": 0.0021666907043559258, "ok": True, "vacuous": False},
]


def test_risk_pipeline_is_bitwise_pinned():
    """Seeded outputs of the estimator chain equal, bit for bit, the values
    recorded: the risk of every loss with and without truncation, one
    single-trial estimate per sampler, and the stage-1 large-deviation rows."""
    for (loss, mu0, n, point, truncate), want in PIPELINE_PINNED.items():
        cfg = RiskConfig(
            mu0=mu0,
            loss=loss,
            n_list=(n,),
            trials=10**4,
            batches=4,
            seed=4242,
            estimator=EstimatorConfig(truncate=truncate),
        )
        rho = _true_state(mu0, np.array(point) * float(n) ** cfg.estimator.eps, n)
        assert pointwise_risk(rho, n, cfg, (0, 2)) == want, (loss, mu0, n, point, truncate)
    rho = _true_state(0.75, np.array([0.3, -0.4, 0.2]), 10**4)
    for cfg, seed, want in (
        (EstimatorConfig(), 123, GAUSSIAN_TRIAL_PINNED),
        (EstimatorConfig(sampler="exact"), 321, EXACT_TRIAL_PINNED),
    ):
        res = full_estimate(rho, 10**4, cfg, np.random.default_rng(seed))
        got = (res.r_hat[:, 0].tolist(), tuple(res.u_hat[:, 0].tolist()), tuple(res.u_raw[:, 0].tolist()))
        assert got == want, cfg.sampler
    rows = hoeffding_check((10**3, 10**4), (0.1, 0.2), 0.1, 2000, np.random.default_rng(5))
    assert rows == HOEFFDING_PINNED
