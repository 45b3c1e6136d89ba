"""Tests for the channels between n-qubit block data and the Gaussian pair."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dense_channels
import qlan
from qlan import lan_channels, spin_blocks
from dense_channels import window_grid
from fullspace import exact_block_weight, fock_basis
from qlan.fock_gaussian import GaussianLimitParams, displaced_thermal
from qlan.lan_channels import (
    BlockMixture,
    ClassicalDensity,
    apply_S,
    apply_T,
    block_data,
    blockwise_distance,
    convergence_sweep,
    covering_grid,
    gaussian_limit,
    hybrid_trace_distance,
)
from qlan.spin_blocks import (
    ModelParams,
    block_corners,
    block_pmf_window,
    block_state,
    classical_coordinate,
    gauge_angle,
    kernel_sd,
    local_qubit_state,
    typical_set,
    valid_j_values,
)
from qlan.operator_core import embed_block
from qlan.tolerances import CORNER_TAIL_MASS, WINDOW_TAIL_MASS

U0 = (0.0, 0.0, 0.0)


def test_package_imports_without_np_trapz():
    # numpy 2.4 removed np.trapz (2.0-2.3 only deprecate it); the package
    # must import without it.  A child interpreter keeps the deletion and
    # the fresh import away from the modules this test session holds.
    child = (
        "import numpy as np\n"
        "if hasattr(np, 'trapz'):\n"
        "    del np.trapz\n"
        "import qlan, qlan.cli\n"
    )
    src = str(Path(qlan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def moments(d: ClassicalDensity) -> tuple[float, float]:
    """Mean and variance of a grid density, by the trapezoid rule of its mass."""
    mean = float(np.trapezoid(d.x * d.values, d.x) / d.mass())
    return mean, float(np.trapezoid((d.x - mean) ** 2 * d.values, d.x) / d.mass())


def test_classical_density_moments():
    x = np.linspace(-8.0, 8.0, 3201)
    f = np.exp(-0.5 * (x - 0.3) ** 2 / 0.1875) / math.sqrt(2 * math.pi * 0.1875)
    d = ClassicalDensity(x, f)
    assert d.mass() == pytest.approx(1.0, abs=1e-9)
    mean, var = moments(d)
    assert mean == pytest.approx(0.3, abs=1e-9)
    assert var == pytest.approx(0.1875, abs=1e-9)
    assert d.x[1] - d.x[0] == pytest.approx(x[1] - x[0])


def test_classical_density_validation():
    x = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        ClassicalDensity(np.array([0.0, 0.1, 0.3]), np.ones(3))  # uneven grid
    with pytest.raises(ValueError):
        ClassicalDensity(x, -np.ones(11))
    # mass mismatch against expected_mass
    with pytest.raises(ValueError):
        ClassicalDensity(x, 3.0 * np.ones(11), expected_mass=1.0)


def test_covering_grid_covers_support():
    """The grid covers 8 classical deviations either side of its centre and
    the kernels (8 of their deviations) of blocks in [g_lo, g_hi], at a
    uniform step of at most a fiftieth of a classical deviation."""
    params = ModelParams(0.75, 400)
    sd, ksd = math.sqrt(0.1875), kernel_sd(params.n)
    for g_lo, g_hi in [(0.3, 0.3), (-4.0, 2.0), (-1.0, 5.0)]:
        g = covering_grid(params, 0.3, g_lo, g_hi)
        assert g.min() <= 0.3 - 8.0 * sd
        assert g.max() >= 0.3 + 8.0 * sd
        assert g.min() <= g_lo - 8.0 * ksd and g.max() >= g_hi + 8.0 * ksd
        steps = np.diff(g)
        assert np.allclose(steps, steps[0], atol=1e-12)
        assert steps[0] <= sd / 50.0 + 1e-12


def test_gaussian_limit_structure():
    gp = GaussianLimitParams(0.75, (1.0, 0.0, 0.3))
    state = gaussian_limit(gp, covering_grid(ModelParams(0.75, 400), 0.3, 0.3, 0.3))
    # a one-block mixture: weights f(x), one displaced thermal block
    assert state.blocks.shape == (1, state.dim, state.dim)
    assert np.array_equal(state.weights[:, 0], state.classical.values)
    assert state.classical.mass() == pytest.approx(1.0, abs=1e-9)
    mean, var = moments(state.classical)
    assert mean == pytest.approx(0.3, abs=1e-9)
    assert var == pytest.approx(0.1875, abs=1e-8)
    assert state.chi == gauge_angle(gp.u)
    rho = fock_basis(state.blocks[0], state.chi)
    assert dense_channels.mean_annihilation(rho) == pytest.approx(gp.beta, abs=1e-9)


@pytest.mark.parametrize(
    "mu, u", [(0.8, (1.0, 1.0, 1.0)), (0.6, (1.0, 1.0, 0.3)), (0.75, (2.5, -2.5, 0.0))]
)
def test_limit_corner_matches_displaced_thermal(mu, u):
    """Built from the top of the displaced number operator's ladder, the
    limit corner is the dense displaced thermal state (three times as many
    levels) cut to the same levels, and its tail bounds the dense one's.
    Both channels take their limit state from this one builder, real in
    the gauge of u."""
    gp = GaussianLimitParams(mu, u)
    phi, tail = displaced_thermal(gp)
    assert phi.dtype == np.float64
    dim = phi.shape[0]
    dense = dense_channels.dense_displaced_thermal(gp, 3 * dim)
    rho = fock_basis(phi, gauge_angle(gp.u))
    assert np.abs(np.linalg.eigvalsh(rho - dense[:dim, :dim])).sum() <= 1e-13
    assert float(dense.diagonal()[dim:].real.sum()) <= tail <= CORNER_TAIL_MASS
    limit = gaussian_limit(gp, covering_grid(ModelParams(mu, 400), u[2], u[2], u[2]))
    assert np.array_equal(limit.blocks[0], phi)
    assert np.array_equal(limit.tails, [tail])
    mix = apply_S(gp, 400)
    assert np.array_equal(mix.phi, phi)
    assert mix.tail == tail


def test_apply_t_classical_marginal_moments():
    """The T image's classical part is sum_j p_{n,u}(j) N(g_n(j), 1/(2 sqrt(n)))."""
    params = ModelParams(0.75, 400)
    u = (0.0, 0.0, 0.5)
    blocks = block_data(params, u)
    d = apply_T(blocks, window_grid(blocks)).classical
    assert d.mass() == pytest.approx(1.0, abs=1e-9)
    # mean -> u_z, var -> mu(1-mu) + kernel variance, up to lattice effects
    mean, var = moments(d)
    assert mean == pytest.approx(0.5, abs=0.05)
    assert var == pytest.approx(0.1875 + 0.5 / 20.0, rel=0.08)


def test_apply_t_two_qubits():
    params = ModelParams(0.75, 2)
    blocks = block_data(params, U0)
    state = apply_T(blocks, window_grid(blocks))
    # both blocks (j = 0, 1) survive: dim = 3, weights (nx, 2)
    assert state.dim == 3
    assert state.weights.shape[1] == 2
    assert state.blocks.shape == (2, 3, 3)
    assert state.dropped_mass < 1e-12
    assert state.classical.mass() == pytest.approx(1.0, abs=1e-9)
    # embedded block contents: the j = 1 block in the top-left corner
    want = block_state(params, U0, 1.0)
    got = state.blocks[list(state.weights.sum(axis=0)).index(
        max(state.weights.sum(axis=0)))]
    assert np.allclose(fock_basis(got[:3, :3], state.chi), want, atol=1e-12)


@pytest.mark.parametrize(
    "mu, u", [(Fraction(4, 5), (1.0, 1.0, 1.0)), (Fraction(3, 4), (0.5, -1.0, 0.0))]
)
def test_apply_t_dropped_mass_is_certified(mu, u):
    """dropped_mass is the pmf window's outside mass, summed term by term,
    so it is the exact mass outside the window's blocks up to the pmf's
    relative rounding.  A count of 1 - sum(probs) carries the pmf's
    rounding instead: 37% and 16% high here, and 59% low, so no bound, at
    mu = 3/4, n = 1000."""
    n = 400
    params = ModelParams(float(mu), n)
    blocks = block_data(params, u)
    state = apply_T(blocks, window_grid(blocks))
    js, _, _ = block_pmf_window(params, u)
    mu_u = mu + Fraction(u[2]) / 20  # u_z / sqrt(n), exactly
    exact = float(1 - sum(exact_block_weight(n, j, mu_u) for j in js))
    assert exact > 0.0
    assert exact * (1 - 1e-6) <= state.dropped_mass <= exact * (1 + 1e-6)


@pytest.mark.parametrize("mu, n", [(0.55, 400), (0.8, 21), (0.8, 6400), (0.95, 401)])
def test_apply_t_takes_the_kept_corners_as_a_view(mu, n):
    """The T image takes every block of the pmf window and holds the
    corners block_data keeps, not a copy of them."""
    params = ModelParams(mu, n)
    u = (1.0, 1.0, 0.25 * min(1.0 - mu, mu - 0.5) * math.sqrt(n))
    blocks = block_data(params, u)
    state = apply_T(blocks, window_grid(blocks))
    assert state.blocks is blocks.corners and state.tails is blocks.tails
    assert state.weights.shape[1] == len(blocks.js)
    assert state.dropped_mass == blocks.dropped


def test_apply_t_maps_an_offcenter_window():
    """A u_z shift that pushes the pmf off the typical set still maps: the
    channel takes the window as it is, and leaves out at most the window's
    tails."""
    blocks = block_data(ModelParams(0.75, 400), (0.0, 0.0, 3.0))
    j_lo, j_hi = typical_set(blocks.params, 0.05)
    assert blocks.js[-1] > j_hi  # window blocks past the typical set
    state = apply_T(blocks, window_grid(blocks))
    assert 0.0 < state.dropped_mass <= WINDOW_TAIL_MASS
    assert state.classical.mass() == pytest.approx(1.0, abs=1e-9)


def band_recount(*states) -> float:
    """The weight the tiles of a hybrid distance leave out of their bands,
    recounted from the dense weights: per tile of grid points (as many as
    the tile cap allows at the wider corner), each side's blocks outside the
    run from its first to its last column above the cut at some point."""
    dim = max(s.dim for s in states)
    size = max(4, int(lan_channels.TRACE_NORM_CHUNK_ENTRIES // dim**2))
    out = np.zeros(len(states[0].classical.x))
    for start in range(0, len(out), size):
        rows = slice(start, start + size)
        for s in states:
            live = np.flatnonzero(np.max(s.weights[rows], axis=0) > 1e-16)
            cols = np.arange(s.weights.shape[1])
            kept = (cols >= live.min()) & (cols <= live.max()) if live.size else cols < 0
            out[rows] += np.where(kept, 0.0, s.weights[rows]).sum(axis=1)
    return float(np.trapezoid(out, states[0].classical.x))


def test_hybrid_distance_zero_and_errors():
    params = ModelParams(0.8, 20)
    blocks = block_data(params, (1.0, 0.0, 0.0))
    a = apply_T(blocks, window_grid(blocks))
    assert hybrid_trace_distance(a, a)[0] == pytest.approx(0.0, abs=1e-12)
    gp = GaussianLimitParams(0.8, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):  # mismatched grid
        hybrid_trace_distance(a, gaussian_limit(gp, covering_grid(params, 0.0, 0.0, 0.0)))
    # states on different corners: the narrower one is zero-padded
    b = gaussian_limit(gp, grid=a.classical.x)
    assert b.dim > a.dim
    padded = dataclasses.replace(a, blocks=embed_block(a.blocks, b.dim))
    d, bound, band, _ = hybrid_trace_distance(a, b)
    assert d == pytest.approx(hybrid_trace_distance(padded, b)[0], abs=1e-14)
    assert d == pytest.approx(hybrid_trace_distance(b, a)[0], abs=1e-14)
    assert band == pytest.approx(band_recount(a, b), rel=1e-12, abs=0.0)
    assert bound == a.corner_bound() + b.corner_bound() + band


def test_hybrid_distance_t_vs_limit_bounded():
    params = ModelParams(0.8, 50)
    u = (1.0, 1.0, 0.5)
    blocks = block_data(params, u)
    state = apply_T(blocks, window_grid(blocks))
    gp = GaussianLimitParams(0.8, u)
    limit = gaussian_limit(gp, grid=state.classical.x)
    d = hybrid_trace_distance(state, limit)[0]
    assert 0.0 < d < 2.0


def test_apply_s_mixture_structure():
    """Every tau_j is the limit corner phi's first min(2j+1, D) levels plus
    leaked/(2j+1) times the identity, so one phi and the leaked constants
    are the whole mixture: tau_j has unit trace, and it is PSD since phi is
    and no leak is negative."""
    gp = GaussianLimitParams(0.75, (0.8, -0.5, 0.4))
    mix = apply_S(gp, 400)
    assert mix.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(mix.js, valid_j_values(400))  # every cell, none cut
    limit = gaussian_limit(gp, covering_grid(ModelParams(0.75, 400), 0.4, 0.4, 0.4))
    assert np.array_equal(mix.phi, limit.blocks[0])
    assert mix.tail == limit.tails[0] <= CORNER_TAIL_MASS
    assert mix.chi == gauge_angle(gp.u)
    assert np.linalg.eigvalsh(mix.phi).min() > -1e-12
    assert np.all(mix.leaked >= -1e-15)
    for j, leak in zip(mix.js, mix.leaked):
        m = min(int(round(2 * j)) + 1, mix.phi.shape[0])
        assert np.trace(mix.phi[:m, :m]).real + leak == pytest.approx(1.0, abs=1e-14)


def test_apply_s_does_not_grow_with_n():
    """No block is stored at its size 2j + 1: at n = 6400 the whole
    mixture is a few hundred numbers and one limit corner."""
    mix = apply_S(GaussianLimitParams(0.8, (1.0, 1.0, 1.0)), 6400)
    arrays = (mix.js, mix.probs, mix.phi, mix.leaked)
    assert sum(a.nbytes for a in arrays) < 2**20


def test_blockwise_distance_zero_against_itself():
    """Feeding the true block data through the distance gives ~0.  At
    n = 2 it is a mixture: phi = rho_1, and the filler completes the
    one-level block j = 0 to rho_0 = 1."""
    params = ModelParams(0.75, 2)
    u = (0.5, 0.3, -0.2)
    blocks = block_data(params, u)
    assert list(blocks.js) == [0.0, 1.0] and blocks.dropped == 0.0
    mix = BlockMixture(blocks.js, blocks.probs, blocks.corners[1], blocks.chi)
    assert blockwise_distance(mix, blocks)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [(0.1, 0.1), (0.1, 0.1, 0.05, 0.0)], ids=["short", "long"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda u: ModelParams(0.8, 50).mu_u(u),
        lambda u: block_data(ModelParams(0.8, 50), u),
        lambda u: block_state(ModelParams(0.8, 50), u, 15.0),
        lambda u: block_corners(ModelParams(0.8, 50), u, np.array([15.0])),
        lambda u: GaussianLimitParams(0.8, u),
        lambda u: local_qubit_state(0.8, u),
        lambda u: convergence_sweep(0.8, u, [20]),
    ],
    ids=["mu_u", "block_data", "block_state", "block_corners", "GaussianLimitParams",
         "local_qubit_state", "convergence_sweep"],
)
def test_a_local_parameter_needs_three_components(entry, bad):
    """Every public entry that takes u accepts a float triple and refuses a
    sequence of another length with ValueError."""
    entry((0.1, 0.1, 0.05))
    with pytest.raises(ValueError):
        entry(bad)


def test_distances_refuse_states_in_different_gauges():
    """Both distances take their sides in one gauge: a state of another
    transverse direction, or the same corners labelled with another chi,
    is refused instead of being compared in the wrong frame."""
    params = ModelParams(0.8, 50)
    u = (1.0, 1.0, 0.5)
    blocks = block_data(params, u)
    t_state = apply_T(blocks, window_grid(blocks))
    other = GaussianLimitParams(0.8, (1.0, -1.0, 0.5))
    assert gauge_angle(other.u) != gauge_angle(u)
    with pytest.raises(ValueError, match="gauge"):
        hybrid_trace_distance(t_state, gaussian_limit(other, grid=t_state.classical.x))
    limit = gaussian_limit(GaussianLimitParams(0.8, u), grid=t_state.classical.x)
    relabelled = dataclasses.replace(limit, chi=limit.chi + 0.5)
    with pytest.raises(ValueError, match="gauge"):
        hybrid_trace_distance(t_state, relabelled)
    with pytest.raises(ValueError, match="gauge"):
        blockwise_distance(apply_S(other, params.n), blocks)
    mix = apply_S(GaussianLimitParams(0.8, u), params.n)
    with pytest.raises(ValueError, match="gauge"):
        blockwise_distance(dataclasses.replace(mix, chi=mix.chi + 0.5), blocks)


def test_blockwise_distance_s_channel_small():
    gp = GaussianLimitParams(0.75, (1.0, 1.0, 1.0))
    params = ModelParams(0.75, 400)
    d, _ = blockwise_distance(apply_S(gp, 400), block_data(params, gp.u))
    assert 0.0 < d < 1.0


def test_convergence_sweep_decreasing():
    res = convergence_sweep(0.8, (1.0, 1.0, 1.0), [20, 50])
    assert res.rows[0].dist_T > res.rows[1].dist_T
    assert res.rows[0].dist_S > res.rows[1].dist_S
    assert res.slope_T < 0.0
    assert res.slope_S < 0.0


def test_convergence_sweep_pinned():
    """The default sweep's rows at 20, 50, 100 and 400, recorded when block
    and limit corners were still stored complex in the Fock basis: keeping
    them real in their gauge moves no distance past rounding."""
    res = convergence_sweep(0.8, (1, 1, 1), (20, 50, 100, 400))
    pinned = [
        (0.6305416420981395, 0.9884695858490867),
        (0.5266657958948457, 0.7935872605765412),
        (0.3763068690510467, 0.5246947679235673),
        (0.19195724554167526, 0.2482698394642487),
    ]
    for row, (dist_t, dist_s) in zip(res.rows, pinned, strict=True):
        assert row.dist_T == pytest.approx(dist_t, abs=1e-12)
        assert row.dist_S == pytest.approx(dist_s, abs=1e-12)


def test_convergence_sweep_clamps_inadmissible_shift():
    res = convergence_sweep(0.68, (0.0, 0.0, 3.0), [20])
    row = res.rows[0]
    assert row.clamped
    want_uz = (1.0 - 0.02 - 0.68) * math.sqrt(20)
    assert row.u_effective[2] == pytest.approx(want_uz, abs=1e-12)
    # without clamping the channels of the same row fail validation
    with pytest.raises(ValueError):
        blocks = block_data(ModelParams(0.68, 20), (0.0, 0.0, 3.0))
        apply_T(blocks, window_grid(blocks))


@pytest.mark.parametrize("u", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5)])
@pytest.mark.parametrize("n", [20, 50, 100])
def test_corner_distances_match_dense_oracle(n, u):
    """Sweep distances on Fock corners against the full-dimension oracle:
    dense - corner lies in [0, corner_bound] up to rounding (the two sides
    sum ~10^3 eigenvalue lists in different orders)."""
    mu = 0.8
    row = convergence_sweep(mu, u, [n]).rows[0]
    params = ModelParams(mu, n)
    u_eff = row.u_effective
    gp = GaussianLimitParams(mu, u_eff)
    j_lo, j_hi = typical_set(params, 0.2)
    g_lo, g_hi = classical_coordinate(params, np.array([j_lo, j_hi]))
    grid = covering_grid(params, gp.u[2], g_lo, g_hi)
    # past every corner, so the dense limit state is not cut short either
    dim = max(int(round(2.0 * j_hi)) + 1, 80)
    dense_t = dense_channels.hybrid_trace_distance(
        dense_channels.apply_T(params, u_eff, grid, dim),
        dense_channels.gaussian_limit(gp, grid, dim),
    )
    # past every block of the S image too
    dense_s = dense_channels.blockwise_distance(
        dense_channels.apply_S(gp, n, max(n + 1, 80)), params, u_eff
    )
    if (n, u) == (20, (1.0, 1.0, 1.0)):  # S cells off the window enter as their mass
        mix = apply_S(gp, n)
        off = ~np.isin(mix.js, block_pmf_window(params, u_eff)[0])
        assert mix.probs[off].sum() > 1e-7
    for corner, bound, dense in (
        (row.dist_T, row.corner_bound_T, dense_t),
        (row.dist_S, row.corner_bound_S, dense_s),
    ):
        assert abs(corner - dense) <= 1e-10
        assert -1e-12 <= dense - corner <= bound + 1e-12
        assert 0.0 <= bound <= 1e-10


@pytest.mark.parametrize("u", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5)])
@pytest.mark.parametrize("n", [20, 50, 100])
def test_banded_distance_is_the_unbanded_one(n, u, monkeypatch):
    """On the dense oracle's cases, contracting each tile against its band
    of blocks moves dist_T by less than 1e-15 from the contraction against
    every block (a cut below every weight), and by no more than the row's
    band weight plus rounding; the band weight is the recount's."""
    mu = 0.8
    banded = convergence_sweep(mu, u, [n]).rows[0]
    monkeypatch.setattr(lan_channels, "TRACE_NORM_BAND_CUT", -np.inf)
    full = convergence_sweep(mu, u, [n]).rows[0]
    assert full.band_weight_T == 0.0
    assert abs(banded.dist_T - full.dist_T) <= 1e-15
    assert abs(banded.dist_T - full.dist_T) <= banded.band_weight_T + 2e-16
    assert banded.dist_S == full.dist_S
    monkeypatch.undo()
    params = ModelParams(mu, n)
    gp = GaussianLimitParams(mu, banded.u_effective)
    blocks = block_data(params, banded.u_effective)
    j_lo, j_hi = typical_set(params, lan_channels.GRID_TYPICAL_EPS)
    g = classical_coordinate(params, np.array([min(j_lo, blocks.js[0]), max(j_hi, blocks.js[-1])]))
    grid = covering_grid(params, gp.u[2], *g)
    t_state, limit = apply_T(blocks, grid), gaussian_limit(gp, grid)
    assert 0.0 < banded.band_weight_T == pytest.approx(band_recount(t_state, limit), rel=1e-12)
    assert banded.corner_bound_T == (
        t_state.corner_bound() + limit.corner_bound() + banded.band_weight_T
    )


@pytest.mark.parametrize("n", [100, 1600])
def test_grid_delta_tracks_a_finer_grid(n, monkeypatch):
    """``grid_delta_T`` = |T_h - T_2h| / 3 estimates the quadrature error of
    dist_T: at mu = 0.8, u = (1, 1, 1) it lies within a factor of 10 of
    the change in dist_T when the grid step shrinks 4x."""
    row = convergence_sweep(0.8, (1.0, 1.0, 1.0), [n]).rows[0]
    monkeypatch.setattr(lan_channels, "GRID_STEP_DIVISOR", 200.0)
    fine = convergence_sweep(0.8, (1.0, 1.0, 1.0), [n]).rows[0]
    moved = abs(fine.dist_T - row.dist_T)
    assert row.grid_delta_T / 10.0 <= moved <= 10.0 * row.grid_delta_T


def test_blockwise_distance_filler_outside_corner():
    """A mixture whose phi has only 15 levels leaks ~1e-5 into the
    maximally mixed filler; the filler outside each corner enters in
    closed form and must reproduce the dense sum of the same mixture."""
    gp = GaussianLimitParams(0.7, (1.0, 1.0, 1.0))
    params = ModelParams(0.7, 200)
    full = apply_S(gp, 200)
    mix = BlockMixture(full.js, full.probs, full.phi[:15, :15], full.chi)
    assert mix.leaked.max() > 1e-6
    d, bound = blockwise_distance(mix, block_data(params, gp.u))
    dense = dense_channels.blockwise_distance(dense_channels.expand(mix), params, gp.u)
    assert abs(d - dense) <= 1e-10
    assert 0.0 < bound <= 1e-10


def test_s_distance_certified_where_the_limit_corner_is_wide():
    """At mu = 0.6 the limit state needs about 150 Fock levels and blocks
    reach 201; a 40-level cut of phi put dist_S 4e-9 off the dense value
    while reporting a bound of 4e-18.  On the certified corner the dense
    oracle (a 400-level limit state) lies within the bound."""
    gp = GaussianLimitParams(0.6, (1.0, 1.0, 0.3))
    params = ModelParams(0.6, 200)
    d, bound = blockwise_distance(apply_S(gp, 200), block_data(params, gp.u))
    dense = dense_channels.blockwise_distance(
        dense_channels.apply_S(gp, 200, 400), params, gp.u
    )
    assert abs(d - dense) <= bound + 1e-12


def test_convergence_sweep_blocks_set_the_corner():
    """With u_z < 0 the blocks decay slower than the limit state and need
    the wider corner (66 levels against 56); the row must still match the
    full-dimension values within 1e-10.  Both were recorded from the dense
    oracle: dist_T on the sweep's grid, which widens to the window's blocks
    down to j = 59 below the typical set's 74, and dist_S over the whole
    lattice."""
    params = ModelParams(0.85, 400)
    u = (1.5, 1.5, -1.0)
    blocks = block_data(params, u)
    t_state = apply_T(blocks, window_grid(blocks))
    assert t_state.dim > gaussian_limit(GaussianLimitParams(0.85, u), t_state.classical.x).dim
    row = convergence_sweep(0.85, u, [400]).rows[0]
    assert row.dist_T == pytest.approx(0.3164376605622542, abs=1e-10)
    assert row.dist_S == pytest.approx(0.2939260249975074, abs=1e-10)
    assert row.corner_bound_T <= 1e-10 and row.corner_bound_S <= 1e-10


def test_sweep_row_reports_the_mass_it_leaves_out():
    """A row's ``dropped`` is the pmf window's outside mass, the one block
    cut of both images: the T image reports it as its dropped_mass, and the
    S image keeps every lattice cell."""
    params, u = ModelParams(0.8, 400), (1.0, 1.0, 1.0)
    row = convergence_sweep(params.mu, u, [params.n]).rows[0]
    _, _, outside = block_pmf_window(params, u)
    assert 0.0 < row.dropped == outside <= WINDOW_TAIL_MASS
    blocks = block_data(params, u)
    assert apply_T(blocks, window_grid(blocks)).dropped_mass == outside
    mix = apply_S(GaussianLimitParams(params.mu, u), params.n)
    assert len(mix.js) == len(valid_j_values(params.n))


def test_sweep_row_builds_one_window_and_one_corner_per_block(monkeypatch):
    """Both channels of a row take the one block picture: the pmf window is
    built once, and each of its blocks' corners once."""
    params = ModelParams(0.8, 100)
    u = (1.0, 1.0, 1.0)
    window = len(block_pmf_window(params, u)[0])
    calls = {"window": 0, "corner": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        lan_channels, "block_pmf_window", counted("window", lan_channels.block_pmf_window)
    )
    monkeypatch.setattr(spin_blocks, "_block_corner", counted("corner", spin_blocks._block_corner))
    convergence_sweep(params.mu, u, [params.n])
    assert calls == {"window": 1, "corner": window}


def _distance_runs():
    """The two distances of the default n = 100 row, each as a thunk."""
    params = ModelParams(0.8, 100)
    u = (1.0, 1.0, 1.0)
    gp = GaussianLimitParams(params.mu, u)
    blocks = block_data(params, u)
    t_state = apply_T(blocks, window_grid(blocks))
    limit = gaussian_limit(gp, grid=t_state.classical.x)
    mix = apply_S(gp, params.n)
    return (
        lambda: hybrid_trace_distance(t_state, limit),
        lambda: blockwise_distance(mix, blocks),
    )


def test_trace_norm_chunks_do_not_change_the_distances(monkeypatch):
    """Both distances diagonalize their stacks tile by tile.  At the
    smallest tile (4 matrices) a default row spans at least three of them
    on each side.  The blockwise floats are those of a single tile; the
    hybrid distance's bands narrow with its tiles, so it moves by at most
    the weight the smaller tiles leave out beyond the single tile's.  One
    CPU, so that no pool splits the whole stack."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    eigvalsh, solves = np.linalg.eigvalsh, []

    def counted(stack):
        solves.append(len(stack))
        return eigvalsh(stack)

    def chunked(run, entries):
        monkeypatch.setattr(lan_channels, "TRACE_NORM_CHUNK_ENTRIES", entries)
        solves.clear()
        return run()

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    hybrid, blockwise = _distance_runs()
    for run in (hybrid, blockwise):
        whole = chunked(run, 1e18)
        assert len(solves) == 1
        got = chunked(run, 1.0)
        assert len(solves) >= 3 and max(solves) == 4
        if run is blockwise:
            assert got == whole
        else:
            assert got[2] >= whole[2]
            assert abs(got[0] - whole[0]) <= got[2] - whole[2] + 1e-15


def _recorded_eigvalsh(monkeypatch, fail_on=None):
    """Patch eigvalsh to record (thread, matrices, entries) per call, and
    raise on call number ``fail_on``."""
    eigvalsh, calls, lock = np.linalg.eigvalsh, [], threading.Lock()

    def recorded(stack):
        with lock:
            calls.append((threading.current_thread(), len(stack), stack[0].size * len(stack)))
            if len(calls) == fail_on:
                raise np.linalg.LinAlgError("chunk failed")
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return calls


@pytest.mark.parametrize("entries", [2.0**16, 1.0e5])
def test_pooled_trace_norm_chunks_are_the_serial_distances(entries, monkeypatch):
    """With four CPUs and BLAS pinned to one thread, both distances run
    their tiles on worker threads, each tile within the cap (or at the
    4-matrix floor), whatever the worker count, and equal their one-CPU
    floats by ==.  At these caps both stacks span at least two tiles."""
    runs = _distance_runs()
    monkeypatch.setattr(lan_channels, "TRACE_NORM_CHUNK_ENTRIES", entries)
    monkeypatch.setattr(lan_channels, "TRACE_NORM_POOL_ENTRIES", 0.0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    serial = [run() for run in runs]
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    calls = _recorded_eigvalsh(monkeypatch)
    for run, want in zip(runs, serial):
        calls.clear()
        assert run() == want
        assert threading.main_thread() not in {thread for thread, _, _ in calls}
        assert len(calls) >= 2
        assert all(size <= entries or count <= 4 for _, count, size in calls)


def test_a_default_row_stays_within_the_tile_cap(monkeypatch):
    """The default n = 100 row, serial and on four workers: no eigensolve
    takes more than ``TRACE_NORM_CHUNK_ENTRIES`` matrix entries (or more
    than 4 matrices), so what a stack holds at once does not grow with the
    row, and the rows are equal by ==."""
    cap = lan_channels.TRACE_NORM_CHUNK_ENTRIES
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    rows = []
    for cpus in ({0}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, c=cpus: c, raising=False)
        calls = _recorded_eigvalsh(monkeypatch)
        rows.append(convergence_sweep(0.8, (1.0, 1.0, 1.0), [100]).rows)
        assert len(calls) > 2
        assert all(size <= cap or count <= 4 for _, count, size in calls)
    assert rows[0] == rows[1]


@pytest.mark.parametrize("blas", [None, "auto", "4"])
def test_trace_norms_stay_serial_while_blas_takes_the_cpus(blas, monkeypatch):
    """With no BLAS thread count set (BLAS takes every CPU), one that does
    not parse, or one as large as the CPU count, every eigensolve runs in
    the caller's thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    calls = _recorded_eigvalsh(monkeypatch)
    for run in _distance_runs():
        calls.clear()
        run()
        assert calls and {thread for thread, _, _ in calls} == {threading.main_thread()}


def test_small_stacks_skip_the_pool(monkeypatch):
    """At n = 100 the blockwise stack (37 blocks of D = 55) is below
    ``TRACE_NORM_POOL_ENTRIES`` and stays one chunk in the caller's thread;
    the hybrid stack (about 950 points) still goes to the pool."""
    hybrid, blockwise = _distance_runs()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    calls = _recorded_eigvalsh(monkeypatch)
    blockwise()
    assert [thread for thread, _, _ in calls] == [threading.main_thread()]
    assert calls[0][2] < lan_channels.TRACE_NORM_POOL_ENTRIES
    calls.clear()
    hybrid()
    assert threading.main_thread() not in {thread for thread, _, _ in calls}


def test_a_failing_chunk_raises_and_leaves_no_threads(monkeypatch):
    """An eigensolve that fails on the second tile fails the distance with
    its own error, and the pool's threads are gone when it returns.  The
    cap gives both stacks two tiles or more."""
    runs = _distance_runs()
    monkeypatch.setattr(lan_channels, "TRACE_NORM_CHUNK_ENTRIES", 2.0**16)
    monkeypatch.setattr(lan_channels, "TRACE_NORM_POOL_ENTRIES", 0.0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    for run in runs:
        before = threading.active_count()
        calls = _recorded_eigvalsh(monkeypatch, fail_on=2)
        with pytest.raises(np.linalg.LinAlgError, match="chunk failed"):
            run()
        assert len(calls) >= 2
        assert threading.active_count() == before
