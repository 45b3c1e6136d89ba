"""Tests for the two-stage estimation pipeline."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from dense_channels import MixedHeterodyneSampler
from fullspace import bloch_to_density
from qlan import estimator, spin_blocks
from qlan.estimator import (
    EstimateResult,
    EstimatorConfig,
    Stage1Result,
    full_estimate,
    localize,
    localize_frame,
    reconstruct,
    stage1,
    stage2_sample,
    truncate_estimate,
)
from qlan.operator_core import density_to_bloch, qubit_fidelity_sq
from qlan.risk_bench import loss_fidelity, loss_trace_sq, seeded_rng
from qlan.spin_blocks import ModelParams, local_qubit_state


def _frames(r_proj) -> Stage1Result:
    r_proj = np.asarray(r_proj, dtype=float).T
    mu_tilde = 0.5 * (1.0 + np.linalg.norm(r_proj, axis=0))
    return Stage1Result(r_proj, r_proj, mu_tilde, 100)


_coord = st.floats(-1.0, 1.0)
_tiny = st.floats(-1e-6, 1e-6)
# directions anywhere, within a micro-radian of +-z, and exactly on it
_direction = st.one_of(
    st.tuples(_coord, _coord, _coord),
    st.tuples(_tiny, _tiny, st.sampled_from([-1.0, -0.3, 0.3, 1.0])),
    st.sampled_from([(0.0, 0.0, -0.7), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)]),
)
_batch = st.lists(_direction, min_size=1, max_size=12)


@given(directions=_batch, vec=arrays(float, 3, elements=_coord))
def test_frame_takes_direction_to_z(directions, vec):
    s1 = _frames(directions)
    d = s1.r_proj
    z = s1.rotate(d)
    assert np.abs(z[:2]).max() <= 1e-12
    assert np.abs(z[2] - np.linalg.norm(d, axis=0)).max() <= 1e-12
    # a rotation: lengths kept, and rotate_back inverts it, trial by trial
    v = np.broadcast_to(vec[:, None], d.shape)
    rv = s1.rotate(v)
    assert np.abs(np.linalg.norm(rv, axis=0) - np.linalg.norm(vec)).max() <= 1e-12
    assert np.abs(s1.rotate_back(rv) - v).max() <= 1e-12
    # each trial is rotated as if it were alone
    assert np.array_equal(_frames(directions[:1]).rotate(v[:, :1]), rv[:, :1])


def test_stage1_statistics():
    s1 = stage1(np.array([0.6, 0.0, 0.0]), 30_000, np.random.default_rng(0), 1)
    assert s1.r_raw.shape == s1.r_proj.shape == (3, 1) and s1.mu_tilde.shape == (1,)
    # each axis sees ~10^4 coins; 5 sigma on the Bloch component is 0.04
    assert abs(s1.r_raw[0, 0] - 0.6) < 0.04
    assert abs(s1.r_raw[1, 0]) < 0.05
    assert abs(s1.r_raw[2, 0]) < 0.05
    assert s1.mu_tilde[0] == pytest.approx(0.8, abs=0.03)
    # the frame takes the projected vector to +z
    z = s1.rotate(s1.r_proj)
    assert np.allclose(z[:2], 0.0, atol=1e-12)
    assert z[2, 0] == pytest.approx(np.linalg.norm(s1.r_proj))
    v = np.array([[0.3], [-0.2], [0.9]])
    assert np.allclose(s1.rotate_back(s1.rotate(v)), v)


def test_stage1_axes_are_independent_binomials():
    """Axis i's heads are Binomial(counts[i], p_i), independent across
    axes: at n_tilde = 30 (ten coins an axis) and 2 * 10^5 trials, each
    axis's mean and variance lie within 5 sigma, and every cross-axis
    correlation is below 5 / sqrt(B)."""
    trials, r_true = 200_000, np.array([0.6, -0.2, 0.4])
    s1 = stage1(r_true, 30, seeded_rng(2026), trials)
    heads = np.rint(5.0 * (s1.r_raw + 1.0))
    assert np.array_equal(heads / 5.0 - 1.0, s1.r_raw)
    for h, p in zip(heads, (1.0 + r_true) / 2.0):
        var = 10 * p * (1 - p)
        mu4 = var * (1 + 3 * (10 - 2) * p * (1 - p))  # central fourth moment
        assert abs(h.mean() - 10 * p) < 5.0 * math.sqrt(var / trials)
        assert abs(h.var() - var) < 5.0 * math.sqrt((mu4 - var**2) / trials)
    corr = np.corrcoef(heads)
    assert np.abs(corr[np.triu_indices(3, 1)]).max() < 5.0 / math.sqrt(trials)


def test_stage1_projects_into_ball():
    r = np.array([1.0, 0.0, 0.0])  # pure: x coin always heads
    s1 = stage1(r, 300, np.random.default_rng(4), 1)
    assert np.linalg.norm(s1.r_raw) > 1.0
    assert np.linalg.norm(s1.r_proj) == pytest.approx(1.0, abs=1e-12)
    assert s1.mu_tilde[0] == 1.0
    with pytest.raises(ValueError):
        stage1(r, 2, np.random.default_rng(0), 1)


@given(
    directions=_batch,
    offsets=st.lists(arrays(float, 3, elements=_tiny), max_size=4),
    r_true=arrays(float, 3, elements=_coord).filter(lambda r: np.linalg.norm(r) <= 1.0),
    n_rest=st.integers(1, 10**8),
)
def test_localize_reconstruct_roundtrip(directions, offsets, r_true, n_rest):
    """Reconstruction inverts localization: the true local parameter of
    each trial maps back to the true state, for any frame, including
    frames a small angle from the state or from its antipode."""
    near = [sign * r_true + d for d in offsets for sign in (1.0, -1.0)]
    s1 = _frames(list(directions) + near)
    u, mu_rot, r_frame = localize_frame(r_true, s1, n_rest)
    assert mu_rot == 0.5 * (1.0 + np.linalg.norm(r_true))  # a rotation keeps |r_true|
    assert np.array_equal(r_frame, s1.rotate(r_true))
    # a pure state may clamp its eigenvalue by a rounding; r_hat is still exact
    r_local, lam, _ = reconstruct(s1, n_rest, u)
    assert np.abs(r_local - r_frame).max() <= 1e-12
    assert np.abs(lam - mu_rot).max() <= 1e-12
    assert np.abs(s1.rotate_back(r_local) - r_true[:, None]).max() <= 1e-12


@pytest.mark.parametrize("d", [(0.0, 0.0, 0.8), (0.3, 0.6, 0.6), (-0.1, 0.2, -0.9)])
def test_localize_frame_on_the_frame_axis(d):
    """A state exactly along a trial's direction d has theta = 0 and one
    along -d theta = pi: the on-axis branch gives u = 0 and the half turn
    (pi/2) sqrt(n_rest) about x exactly, and reconstruction inverts both."""
    n_rest = 900
    s1 = _frames([d, d])
    r_true = 0.5 * np.asarray(d) / np.linalg.norm(d)
    u, _, _ = localize_frame(r_true, s1, n_rest)
    assert u[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    u_anti, _, _ = localize_frame(-r_true, s1, n_rest)
    assert u_anti[0].tolist() == [15.0 * math.pi] * 2 and u_anti[1].tolist() == [0.0, 0.0]
    for r, uu in ((r_true, u), (-r_true, u_anti)):
        r_local, _, _ = reconstruct(s1, n_rest, uu)
        assert np.abs(s1.rotate_back(r_local) - r[:, None]).max() <= 1e-12


def _frame_matrix(d) -> np.ndarray:
    """The stage-1 frame of direction d by the axis-angle formula: the turn
    about d x e_z by the angle from d to e_z; the identity for d = 0 or
    along +z, and the half turn diag(1, -1, -1) along -z."""
    dx, dy, dz = d
    xy = math.hypot(dx, dy)
    if xy == 0.0:
        return np.diag([1.0, -1.0, -1.0]) if dz < 0.0 else np.eye(3)
    kx, ky = dy / xy, -dx / xy
    k = np.array([[0.0, 0.0, ky], [0.0, 0.0, -kx], [-ky, kx, 0.0]])
    th = math.atan2(xy, dz)
    return np.eye(3) + math.sin(th) * k + (1.0 - math.cos(th)) * (k @ k)


def _tilt_resolved(d) -> bool:
    # the frame takes a direction shorter than ~1e-15, or tilted off the z
    # axis by less than ~1e-100 of its length, to be zero or on the axis
    xy, length = math.hypot(d[0], d[1]), math.hypot(*d)
    return length == 0.0 or (length > 1e-12 and (xy == 0.0 or xy > 1e-90 * length))


@given(
    directions=st.lists(_direction.filter(_tilt_resolved), min_size=1, max_size=12),
    r_true=arrays(float, 3, elements=_coord).filter(lambda r: np.linalg.norm(r) <= 1.0),
    du=arrays(float, 3, elements=st.floats(-8.0, 8.0)),
    n_rest=st.integers(1, 10**8),
)
def test_frame_losses_are_the_lab_losses(directions, r_true, du, n_rest):
    """Scored in the stage-1 frames, the trace and fidelity losses are those
    of the lab-frame Bloch vectors, with each frame rebuilt by the
    axis-angle formula, on +-z and zero directions too; the lazy ``r_hat``
    is ``rotate_back`` of the frame estimates, and the lab-frame estimate."""
    s1 = _frames(list(directions) + [(0.0, 0.0, -0.7), (0.0, 0.0, 0.0), (0.0, 0.0, 0.4)])
    u, mu, r_frame = localize_frame(r_true, s1, n_rest)
    r_local, lam, _ = reconstruct(s1, n_rest, u + du[:, None])
    rot = np.stack([_frame_matrix(d) for d in s1.r_proj.T])
    assert np.abs(r_frame - np.einsum("bij,j->ib", rot, r_true)).max() <= 1e-12
    r_lab = np.einsum("bji,jb->ib", rot, r_local)  # R^T, column by column
    unread = ("u_raw", "u_true_local", "trunc_flags", "recon_clamped", "n_rest", "outside", "mu_true")
    res = EstimateResult(u + du[:, None], r_local, lam, r_frame, s1, **dict.fromkeys(unread))
    assert "r_hat" not in vars(res)
    assert np.array_equal(res.r_hat, s1.rotate_back(r_local)) and res.r_hat is res.r_hat
    assert np.abs(res.r_hat - r_lab).max() <= 1e-12
    r_col = r_true[:, None]
    trace = loss_trace_sq(r_frame, r_local)
    assert np.abs(trace - loss_trace_sq(r_col, r_lab)).max() <= 1e-12
    fid = loss_fidelity(r_frame, r_local, mu, lam)
    assert np.abs(fid - loss_fidelity(r_col, r_lab, mu, lam)).max() <= 1e-12
    assert ((0.0 <= fid) & (fid <= 1.0)).all()
    # away from pure states the Bloch-vector fidelity's radicands are exact enough
    mixed = np.minimum(lam * (1.0 - lam), mu * (1.0 - mu)) > 1e-6
    assert np.abs(fid - (1.0 - qubit_fidelity_sq(r_col, r_lab)))[mixed].max(initial=0.0) <= 1e-12


def test_localize_frame_interior_guard():
    # a state within the model margin of maximally mixed: every trial is
    # flagged and none is drawn in stage 2
    rho = np.diag([0.52, 0.48]).astype(complex)
    res = full_estimate(rho, 10**4, EstimatorConfig(), np.random.default_rng(0), size=8)
    assert res.outside.all() and not res.u_raw.any()
    # localize alone marks them, before any stage-2 draw
    *_, outside = localize(rho, 10**4, EstimatorConfig(), np.random.default_rng(0), size=8)
    assert outside.all()
    # a comfortably interior state reports the right z shift
    s1 = _frames([(0.0, 0.0, 0.1)])
    u, _, _ = localize_frame(np.array([0.0, 0.0, 0.4]), s1, 900)
    assert u[2, 0] == pytest.approx(30.0 * (0.7 - 0.55), rel=1e-12)
    assert u[0, 0] == pytest.approx(0.0, abs=1e-12)


@given(
    mu0=st.floats(0.55, 0.999),
    n=st.integers(100, 10**9),
    u=arrays(float, 3, elements=st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_eigenvalue_is_the_true_one(mu0, n, u, seed):
    """In every trial stage 2's shifted eigenvalue mu_u = mu_tilde + u_z /
    sqrt(n_rest) is mu_true to one ulp: mu_tilde and mu_true lie in [1/2, 1],
    so ``localize_frame``'s mu_true - mu_tilde is exact (Sterbenz), and only
    the product by sqrt(n_rest) and the quotient by it round."""
    assume(mu0 + u[2] / math.sqrt(n) <= 1.0)
    rho = local_qubit_state(mu0, u / math.sqrt(n))
    s1, u_true, mu_true, _, n_rest, _ = localize(rho, n, EstimatorConfig(), seeded_rng(seed), 32)
    mu_u = s1.mu_tilde + u_true[2] / math.sqrt(n_rest)  # as stage2_sample sets it
    assert np.abs(mu_u - mu_true).max() <= np.spacing(mu_true)


@pytest.mark.parametrize("sampler", ["gaussian", "exact"])
def test_full_estimate_is_localize_then_stage2(sampler):
    """On a chunk with trials outside the model (a degenerate stage 1),
    ``localize`` draws what ``stage1`` draws and no more, and ``localize``,
    then ``stage2_sample`` on the inside trials, ``truncate_estimate`` and
    ``reconstruct`` on one generator are ``full_estimate`` bit for bit."""
    config, n, size = EstimatorConfig(sampler=sampler), 100, 64
    rho = local_qubit_state(0.95, (0.1, -0.05, 0.0))
    rng, bare = seeded_rng(11), seeded_rng(11)
    s1, u_true, mu_true, r_frame, n_rest, outside = localize(rho, n, config, rng, size)
    assert 0 < outside.sum() < size
    bare_s1 = stage1(density_to_bloch(rho), n - n_rest, bare, size)
    assert n - n_rest == math.ceil(n ** (1.0 - config.kappa))
    assert np.array_equal(s1.r_raw, bare_s1.r_raw) and rng.random() == bare.random()

    rng = seeded_rng(11)
    s1, u_true, mu_true, r_frame, n_rest, outside = localize(rho, n, config, rng, size)
    inside = ~outside
    raw = np.zeros_like(u_true)
    raw[:, inside] = stage2_sample(s1.mu_tilde[inside], n_rest, u_true[:, inside], config, rng)
    u_hat, flags = truncate_estimate(raw, config.eta, n)
    r_hat, lam_hat, clamped = reconstruct(s1, n_rest, u_hat)
    res = full_estimate(rho, n, config, seeded_rng(11), size)
    pairs = [
        (res.stage1.r_raw, s1.r_raw),
        (res.stage1.r_proj, s1.r_proj),
        (res.stage1.mu_tilde, s1.mu_tilde),
        (res.u_true_local, u_true),
        (res.r_true_frame, r_frame),
        (res.outside, outside),
        (res.u_raw, raw),
        (res.u_hat, u_hat),
        (res.trunc_flags, flags),
        (res.r_hat_frame, r_hat),
        (res.lam_hat, lam_hat),
        (res.recon_clamped, clamped),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (res.mu_true, res.n_rest) == (mu_true, n_rest)


def test_truncation_boundary():
    n = 1024
    eta = 0.1  # 3 n^eta = 6 exactly
    u_hat, flags = truncate_estimate((5.0, -6.0, 6.0 + 1e-9), eta, n)
    assert tuple(u_hat) == (5.0, -6.0, 0.0)
    assert list(flags) == [False, False, True]
    arr, flags2 = truncate_estimate(np.array([[7.0], [0.0], [-1.0]]), eta, n)
    assert arr.shape == (3, 1)
    assert arr[0, 0] == 0.0 and flags2[0, 0]


def test_reconstruct_clamps_eigenvalue():
    s1 = _frames([(0.0, 0.0, 0.0)])
    s1.mu_tilde[0] = 0.75
    r, lam, clamped = reconstruct(s1, 100, [[0.0], [0.0], [1.0]])
    assert not clamped[0] and lam[0] == pytest.approx(0.85)
    assert np.allclose(bloch_to_density(r[:, 0]), np.diag([0.85, 0.15]))
    r2, lam2, clamped2 = reconstruct(s1, 100, [[0.0], [0.0], [-10.0]])
    assert clamped2[0] and lam2[0] == 0.0
    rho2 = bloch_to_density(r2[:, 0])
    w = np.linalg.eigvalsh(rho2)
    assert w[0] >= -1e-12 and np.trace(rho2).real == pytest.approx(1.0)


def _columns(u, count: int) -> np.ndarray:
    return np.repeat(np.array(u, dtype=float)[:, None], count, axis=1)


def test_stage2_gaussian_moments():
    u = (1.0, -0.5, 0.4)
    mu_u = ModelParams(0.75, 400).mu_u(u)  # 0.77
    rng = np.random.default_rng(77)
    ux, uy, g = stage2_sample(np.full(40_000, 0.75), 400, _columns(u, 40_000), EstimatorConfig(), rng)
    var_xy = mu_u / (2.0 * (2.0 * mu_u - 1.0) ** 2)
    for arr, mean, var in (
        (ux, 1.0, var_xy),
        (uy, -0.5, var_xy),
        (g, 0.4, mu_u * (1.0 - mu_u)),
    ):
        assert arr.mean() == pytest.approx(mean, abs=5 * math.sqrt(var / 40_000))
        assert arr.var() == pytest.approx(var, rel=0.05)


def test_exact_sampler_centered():
    cfg = EstimatorConfig(sampler="exact")
    cols = _columns((0.8, -0.5, 0.6), 1000)
    ux, uy, g = stage2_sample(np.full(1000, 0.75), 400, cols, cfg, np.random.default_rng(7))
    assert abs(ux.mean() - 0.8) < 0.25
    assert abs(uy.mean() + 0.5) < 0.25
    assert abs(g.mean() - 0.6) < 0.25


def test_exact_sampler_reproducible():
    cfg = EstimatorConfig(sampler="exact")
    cols = _columns((0.8, -0.5, 0.6), 400)
    a = stage2_sample(np.full(400, 0.75), 400, cols, cfg, np.random.default_rng(7))
    b = stage2_sample(np.full(400, 0.75), 400, cols, cfg, np.random.default_rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert a[0].shape == (400,)


# first three (ux, uy, g) of 50 equal exact-sampler columns at mu = 0.75,
# n = 400, u = (0.8, -0.5, 0.6), default_rng(11); re-recorded when each
# draw became one ladder level and the heterodyne of its pure ladder vector
EXACT_GROUP_PINNED = (
    [-0.08880204154699656, -0.6060518447792644, -0.0747733006485283],
    [0.561477115654389, -0.18181683057757222, -0.7017504947365326],
    [0.8579405089381638, 1.159443461966323, 1.1101709485311901],
)


def test_exact_columns_draw_like_one_u():
    """B equal columns draw their block indices, ladder levels, readouts and
    kernel noise in one draw each, and heterodyne each (block index, level)
    they hit in one draw."""
    cfg = EstimatorConfig(sampler="exact")
    cols = _columns((0.8, -0.5, 0.6), 50)
    batch = stage2_sample(np.full(50, 0.75), 400, cols, cfg, np.random.default_rng(11))
    assert tuple(x[:3].tolist() for x in batch) == EXACT_GROUP_PINNED


def test_exact_chunk_draws_block_indices_once(monkeypatch):
    """A chunk draws all its block indices in one ``sample_block_index``
    call and all its ladder levels in one ``ladder_level`` call, builds no
    pmf window, no block state and no corner, and builds one ladder vector
    per distinct (mu, u, j, k) among its columns."""
    calls = {"index": [], "level": [], "vector": [], "window": 0, "state": 0, "corner": 0}

    def index(n, mu_u, rng):
        js = spin_blocks.sample_block_index(n, mu_u, rng)
        calls["index"].append(js)
        return js

    def level(*args):
        ks = spin_blocks.ladder_level(*args)
        calls["level"].append(ks)
        return ks

    def vector(n, u, j, k):
        calls["vector"].append((tuple(u), j, k))
        return spin_blocks.block_vector(n, u, j, k)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(estimator, "sample_block_index", index)
    monkeypatch.setattr(estimator, "ladder_level", level)
    monkeypatch.setattr(estimator, "block_vector", vector)
    for key, name in (
        ("window", "block_pmf_window"),
        ("state", "block_state"),
        ("corner", "ladder_corner"),
    ):
        monkeypatch.setattr(spin_blocks, name, counted(key, getattr(spin_blocks, name)))
    cols = np.hstack([_columns((0.8, -0.5, 0.6), 30), _columns((0.1, 0.2, -0.3), 3)])
    cols[2, -1] = 0.7  # a third distinct u
    cfg = EstimatorConfig(sampler="exact")
    stage2_sample(np.full(33, 0.75), 400, cols, cfg, np.random.default_rng(3))
    assert len(calls["index"]) == 1 and len(calls["level"]) == 1
    assert calls["window"] == calls["state"] == calls["corner"] == 0
    js, ks = calls["index"][0], calls["level"][0]
    want = {(tuple(cols[:, c]), js[c], ks[c]) for c in range(33)}
    assert len(calls["vector"]) == len(set(calls["vector"])) == len(want)
    assert set(calls["vector"]) == want


def test_exact_draws_follow_the_block_state_heterodyne_law(monkeypatch):
    """At a fixed block index, the exact draws z (read back from u_x~ and
    u_y~) have the law of the mixed-state oracle's heterodyne of the whole
    block state: two-sample KS on Re z, Im z and |z|^2 at three (u, j), one
    with a transverse |u| above 3 and one whose ladder is cut at 2j + 1 =
    25 levels."""
    draws = 4000
    for seed, (mu, n, u, j) in enumerate(
        [
            (0.75, 400, (1.0, 1.0, 1.0), 118.0),
            (0.8, 400, (3.2, -1.5, 0.0), 110.0),
            (0.6, 100, (0.3, -0.8, 0.5), 12.0),
        ]
    ):
        monkeypatch.setattr(estimator, "sample_block_index", lambda n, mu_u, rng: np.full(len(mu_u), j))
        cols = _columns(u, draws)
        cfg = EstimatorConfig(sampler="exact")
        ux, uy, _ = stage2_sample(np.full(draws, mu), n, cols, cfg, np.random.default_rng(seed))
        z = (-uy + 1j * ux) * math.sqrt(2.0 * mu - 1.0)
        rho = spin_blocks.block_state(ModelParams(mu, n), u, j)
        want = MixedHeterodyneSampler(rho).sample(np.random.default_rng(50 + seed), draws)
        for part in (np.real, np.imag, lambda x: np.abs(x) ** 2):
            assert stats.ks_2samp(part(z), part(want)).pvalue > 1e-3, (u, j)


def test_exact_sampler_names_an_inadmissible_shifted_eigenvalue():
    rng, cfg = np.random.default_rng(0), EstimatorConfig(sampler="exact")
    with pytest.raises(ValueError, match="shifted eigenvalue mu_u = 1.1 lies outside the"):
        stage2_sample(np.array([0.9]), 100, [[0.0], [0.0], [2.0]], cfg, rng)
    assert rng.random() == np.random.default_rng(0).random()  # refused before any draw


def test_gaussian_sampler_names_an_inadmissible_shifted_eigenvalue():
    """The gaussian sampler refuses a shifted eigenvalue outside (1/2, 1)
    before any draw, as the exact one does; it used to clip it into its
    variances."""
    rng = np.random.default_rng(0)
    for u_z, shown in ((2.0, "1.1"), (-4.0, "0.5")):
        with pytest.raises(ValueError, match=f"shifted eigenvalue mu_u = {shown} lies outside the"):
            stage2_sample(np.array([0.9]), 100, [[0.0], [0.0], [u_z]], EstimatorConfig(), rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_exact_sampler_takes_an_empty_chunk():
    """A chunk whose trials all fell outside the model draws nothing."""
    cfg = EstimatorConfig(sampler="exact")
    raw = stage2_sample(np.empty(0), 400, np.empty((3, 0)), cfg, np.random.default_rng(0))
    assert [x.shape for x in raw] == [(0,)] * 3


def test_config_validation():
    """An invalid config cannot be built: each setting is checked once, in
    the constructor, and there is no separate ``validate`` to forget."""
    EstimatorConfig()
    assert not hasattr(EstimatorConfig, "validate")
    bad = [
        (dict(eps=0.08, eta=0.05), "need 0 < eps < eta < 1/6, got eps = 0.08, eta = 0.05"),
        (dict(eta=0.2), "need 0 < eps < eta < 1/6"),
        (dict(kappa=0.2, eps=0.05), "need 0 < kappa <= 2 eps, got kappa = 0.2, eps = 0.05"),
        (dict(kappa=0.0), "need 0 < kappa <= 2 eps"),
        (dict(sampler="fancy"), "unknown sampler 'fancy'"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimatorConfig(**kwargs)


def test_full_estimate_gaussian_run():
    """End-to-end smoke at moderate n: estimate lands near the truth."""
    rho = bloch_to_density(np.array([0.3, 0.1, 0.4]))
    errs = []
    for seed in range(5):
        res = full_estimate(rho, 4000, EstimatorConfig(), np.random.default_rng(seed))
        errs.append(np.linalg.norm(res.r_hat[:, 0] - [0.3, 0.1, 0.4]))
    # Bloch error should be a few copies of n^{-1/2} ~ 0.016
    assert np.median(errs) < 0.1
    assert max(errs) < 0.3
