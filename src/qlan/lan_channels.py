"""Channels between the n-qubit block picture and its Gaussian limit.

``apply_T`` maps the block decomposition of n shifted qubits (``block_data``)
to a hybrid classical x quantum object: the block index ``j`` is smoothed
onto the real line with a Gaussian kernel of variance ``1/(2 sqrt(n))``
centered at ``g_n(j) = j/sqrt(n) - sqrt(n)(mu - 1/2)``, while the block
states ride along on Fock corners.  ``gaussian_limit`` produces the
limiting product N(u_z, mu(1-mu)) x (displaced thermal) on the same grid,
and ``hybrid_trace_distance`` integrates the trace-norm gap between two
such hybrids.  ``apply_S`` goes the other way, binning the Gaussian pair
back onto the valid-j lattice; ``blockwise_distance`` measures its
distance to the same block data.  ``convergence_sweep`` builds that data
once per n, runs both directions and fits log-log slopes.

Every quantum state is kept only on its own Fock corner: its first D
levels, the fewest at which it leaves at most ``CORNER_TAIL_MASS``
outside.  Corners are held real, in the gauge ``chi`` of their local
parameter u (``spin_blocks.gauge_angle``).  A distance needs both sides in
one gauge and zero-pads the narrower corner to the wider one, which
changes no trace norm.  Compressing a PSD operator A of trace a whose tail
is t changes it by at most 2 sqrt(a t) + t in trace norm (gentle
measurement), so each distance comes back as a pair ``(value, bound)``,
``bound`` the sum of those bounds over both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy is imported where it is used, so that `import qlan` needs numpy alone

from .fock_gaussian import GaussianLimitParams, displaced_thermal
from .operator_core import embed_block
from .spin_blocks import (
    ModelParams,
    block_corners,
    block_pmf_window,
    classical_coordinate,
    gauge_angle,
    kernel_sd,
    typical_set,
    valid_j_values,
)
from .tolerances import GRID_MASS_TOL


@dataclass
class ClassicalDensity:
    """Probability density sampled on a uniform grid.

    ``values[i]`` is the density at ``x[i]``; the trapezoid mass over the
    grid must be within 1e-6 of ``expected_mass`` (default 1, smaller if a
    channel legitimately dropped mass).
    """

    x: np.ndarray
    values: np.ndarray
    expected_mass: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.values.shape:
            raise ValueError("grid and values must be equal-length 1-d arrays")
        steps = np.diff(self.x)
        if steps.size == 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform with at least two points")
        if np.min(self.values) < -1e-12:
            raise ValueError(f"negative density value {np.min(self.values):.3e}")
        m = self.mass()
        if abs(m - self.expected_mass) > GRID_MASS_TOL:
            raise ValueError(
                f"grid mass {m:.9f} differs from expected {self.expected_mass:.9f} "
                f"by more than {GRID_MASS_TOL:.1e}; grid too narrow or coarse"
            )

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))


@dataclass
class HybridGaussianState:
    """Classical density plus conditional quantum state on a Fock corner.

    The conditional state at x is a block mixture, f(x) rho(x) =
    sum_j weights[x, j] * blocks[j], so the per-x trace equals the
    classical density and the representation stays O(nx * nj + nj * dim^2)
    instead of O(nx * dim^2).  The Gaussian limit is the one-block case.

    ``tails`` holds the mass each block had outside its Fock corner, and
    the blocks are written in the gauge ``chi`` (real for the states of a
    local parameter u whose ``gauge_angle`` is chi).
    """

    classical: ClassicalDensity
    weights: np.ndarray
    blocks: np.ndarray
    tails: np.ndarray
    chi: float
    dropped_mass: float = 0.0

    @property
    def dim(self) -> int:
        """The widest Fock corner of the blocks; narrower ones are zero-padded."""
        return self.blocks.shape[1]

    def corner_bound(self) -> float:
        """Upper bound on integral dx ||A(x) - A_c(x)||_1, A(x) = f(x) rho(x)
        before and A_c(x) after each block's compression to its corner
        (same trapezoid rule)."""
        lost = self.weights @ (2.0 * np.sqrt(self.tails) + self.tails)
        return float(np.trapezoid(lost, self.classical.x))


# Classical grids span GRID_STD_MULT standard deviations either side of
# their centre, at a step of one GRID_STEP_DIVISOR-th of a deviation.  A
# sweep's grid also covers the kernels of typical_set(params,
# GRID_TYPICAL_EPS), and of every block of the pmf window.
GRID_STD_MULT = 8.0
GRID_STEP_DIVISOR = 50.0
GRID_TYPICAL_EPS = 0.2

# A sweep clamps u_z so that the shifted eigenvalue stays this far inside
# (1/2, 1).
DELTA_ADM = 0.02


def default_grid(
    mu: float, center: float, extra_lo: float = 0.0, extra_hi: float = 0.0
) -> np.ndarray:
    """Uniform grid: ``center`` +- ``GRID_STD_MULT`` classical standard
    deviations (std = sqrt(mu(1-mu))), step std/``GRID_STEP_DIVISOR``,
    optionally widened."""
    std = math.sqrt(mu * (1.0 - mu))
    lo = min(center - GRID_STD_MULT * std, center - abs(extra_lo))
    hi = max(center + GRID_STD_MULT * std, center + abs(extra_hi))
    step = std / GRID_STEP_DIVISOR
    npts = int(math.ceil((hi - lo) / step)) + 1
    return lo + step * np.arange(npts)


def _normal_pdf(x, loc, scale):
    """N(loc, scale^2) density, in the arithmetic of scipy.stats.norm.pdf
    (whose import alone costs about half a second)."""
    z = (x - loc) / scale
    return np.exp(-(z**2) / 2.0) / math.sqrt(2.0 * math.pi) / scale


def covering_grid(params: ModelParams, center: float, g_lo: float, g_hi: float) -> np.ndarray:
    """``default_grid`` around ``center``, widened to [g_lo - 8 ksd,
    g_hi + 8 ksd] so that it covers every smoothing kernel of blocks whose
    coordinates lie in [g_lo, g_hi] (ksd = kernel standard deviation)."""
    ksd = kernel_sd(params.n)
    return default_grid(
        params.mu,
        center,
        extra_lo=abs(center - (g_lo - 8.0 * ksd)),
        extra_hi=abs((g_hi + 8.0 * ksd) - center),
    )


def gaussian_limit(
    gp: GaussianLimitParams, grid: np.ndarray | None = None
) -> HybridGaussianState:
    """The limit object: N(u_z, mu(1-mu)) times a displaced thermal state.

    A one-block mixture: the quantum part is kept on its certified corner
    (``displaced_thermal``), and the mass outside it is reported in ``tails``.
    """
    if grid is None:
        grid = default_grid(gp.mu, gp.u[2])
    f = _normal_pdf(grid, gp.u[2], math.sqrt(gp.classical_var))
    classical = ClassicalDensity(grid, f)
    phi, tail = displaced_thermal(gp)
    return HybridGaussianState(
        classical, classical.values[:, None], phi[None], np.array([tail]), gauge_angle(gp.u)
    )


def apply_T(blocks: BlockData, grid: np.ndarray | None = None) -> HybridGaussianState:
    """Map n shifted qubits, as their block picture, to the hybrid object.

    Takes every block of the pmf window, holds its corners themselves, and
    reports the window's outside mass as ``dropped_mass``."""
    params = blocks.params
    g = classical_coordinate(params, blocks.js)
    if grid is None:
        grid = covering_grid(params, float(np.sum(blocks.probs * g)), g.min(), g.max())
    kernel = _normal_pdf(grid[:, None], g[None, :], kernel_sd(params.n))
    weights = kernel * blocks.probs[None, :]
    classical = ClassicalDensity(grid, weights.sum(axis=1), expected_mass=1.0 - blocks.dropped)
    return HybridGaussianState(
        classical, weights, blocks.corners, blocks.tails, blocks.chi, blocks.dropped
    )


# Matrix entries one eigensolve chunk of a trace-norm stack may hold.
TRACE_NORM_CHUNK_ENTRIES = 6.0e6


def _trace_norms(count: int, dim: int, stack) -> np.ndarray:
    """Absolute eigenvalues (count, dim) of the Hermitian stack ``stack(rows)``,
    built and diagonalized ``TRACE_NORM_CHUNK_ENTRIES`` matrix entries at a time."""
    chunk = max(4, int(TRACE_NORM_CHUNK_ENTRIES // (dim * dim)))
    # eigvalsh reads one triangle, so rounding asymmetry never enters
    return np.concatenate(
        [np.abs(np.linalg.eigvalsh(stack(slice(s, s + chunk)))) for s in range(0, count, chunk)]
    )


def hybrid_trace_distance(a: HybridGaussianState, b: HybridGaussianState) -> tuple[float, float]:
    """``(value, bound)``: value = integral dx || f_a(x) rho_a(x) -
    f_b(x) rho_b(x) ||_1, trapezoid rule.

    Both states must share the classical grid and the gauge ``chi``; the
    narrower Fock corner is zero-padded to the wider one.  Each side moves
    by at most its corner bound when taken without its corner, so the
    distance without the corners lies within bound = the two corner bounds
    of the value.
    """
    xa, xb = a.classical.x, b.classical.x
    if xa.shape != xb.shape or not np.allclose(xa, xb, rtol=0.0, atol=1e-9):
        raise ValueError("hybrid states live on different classical grids")
    if a.chi != b.chi:
        raise ValueError(f"states in different gauges (chi = {a.chi}, {b.chi})")
    # f_a rho_a - f_b rho_b at every x as one sum over one stack of both block lists
    coef = np.hstack([a.weights, -b.weights])
    dim, na = max(a.dim, b.dim), len(a.blocks)
    states = np.zeros((na + len(b.blocks), dim, dim), np.result_type(a.blocks, b.blocks))
    states[:na, : a.dim, : a.dim] = a.blocks
    states[na:, : b.dim, : b.dim] = b.blocks
    norms = _trace_norms(len(xa), dim, lambda sl: np.tensordot(coef[sl], states, axes=1))
    return float(np.trapezoid(norms.sum(axis=1), xa)), a.corner_bound() + b.corner_bound()


@dataclass
class BlockMixture:
    """Classical-quantum state on the valid-j lattice: entries (j, q_j, tau_j).

    Every tau_j comes from one state ``phi`` on a Fock corner of D levels
    (for the S channel the limit state's certified corner, which left
    ``tail`` outside): its first min(2 j + 1, D) levels in the k-ladder
    basis, topped up with the maximally mixed filler ``leaked / (2 j + 1)``
    on all 2 j + 1 levels of the block, with ``phi`` in the gauge ``chi``.
    """

    js: np.ndarray
    probs: np.ndarray
    phi: np.ndarray
    chi: float
    tail: float = 0.0

    @property
    def leaked(self) -> np.ndarray:
        """Mass of phi outside each block, filled in as maximally mixed."""
        return _leaked(self.phi, self.js)


@dataclass
class BlockData:
    """The block picture of n shifted qubits that both channels take: the pmf
    window (``block_pmf_window``: ``js``, ``probs``, ``dropped``) and each of
    its blocks' certified corner and tail (``block_corners``, real in the
    gauge ``chi`` of u)."""

    params: ModelParams
    u: tuple[float, float, float]
    js: np.ndarray
    probs: np.ndarray
    dropped: float
    corners: np.ndarray
    tails: np.ndarray

    @property
    def chi(self) -> float:
        return gauge_angle(self.u)


def block_data(params: ModelParams, u) -> BlockData:
    """The pmf window of ``params`` at local parameter u and its blocks' corners."""
    js, probs, dropped = block_pmf_window(params, u)
    corners, tails = block_corners(params, u, js)
    return BlockData(params, tuple(float(c) for c in u), js, probs, dropped, corners, tails)


def _block_dims(js: np.ndarray) -> np.ndarray:
    return np.rint(2.0 * np.asarray(js)).astype(int) + 1


def _leaked(phi: np.ndarray, js: np.ndarray) -> np.ndarray:
    """1 - tr of phi's first min(2j+1, D) levels, from its cumulative diagonal."""
    kept = np.cumsum(phi.diagonal().real)
    return 1.0 - kept[np.minimum(_block_dims(js), len(kept)) - 1]


def apply_S(gp: GaussianLimitParams, n: int) -> BlockMixture:
    """Bin the Gaussian pair back onto n-qubit block data.

    The classical coordinate X ~ N(u_z, mu(1-mu)) selects the block through
    j(X) = floor(sqrt(n) X + n(mu - 1/2)) snapped to the valid-j lattice,
    with the extreme cells absorbing the out-of-range tails; the quantum
    part is the displaced thermal state compressed into the first 2j+1
    levels, topped up with a maximally mixed filler for the leaked mass.
    That state is kept on the certified corner ``gaussian_limit`` uses,
    and its tail is reported.  Every lattice cell is kept.
    """
    from scipy.special import ndtr

    params = ModelParams(gp.mu, n)
    phi, tail = displaced_thermal(gp)
    j_lattice = valid_j_values(n)
    # cells [g_n(j), g_n(j) + 1/sqrt(n)) on the classical axis
    lo = classical_coordinate(params, j_lattice)
    hi = lo + 1.0 / math.sqrt(n)
    lo[0] = -np.inf
    hi[-1] = np.inf
    sd = math.sqrt(gp.classical_var)
    q = ndtr((hi - gp.u[2]) / sd) - ndtr((lo - gp.u[2]) / sd)
    return BlockMixture(j_lattice, q, phi, gauge_angle(gp.u), tail)


def blockwise_distance(mix: BlockMixture, blocks: BlockData) -> tuple[float, float]:
    """``(value, bound)``: value = sum_j || q_j tau_j - p_{n,u}(j) rho_j ||_1
    over the valid lattice.

    ``mix`` and ``blocks`` must share the gauge ``chi``.  The terms are
    diagonalized on the pmf window's rows: rho_j is its certified corner
    from ``blocks``, q_j the mixture's mass on row j (0 where it has no
    cell), both zero-padded to the wider corner, D levels; tau_j's filler
    outside it adds its trace norm in closed form.  A cell off the window
    enters as q_j and ``blocks.dropped``, which holds p_j rho_j there, as
    itself, so the value is an upper bound within 2 ``blocks.dropped``.

    ``bound`` counts p_j (2 sqrt(t_j) + t_j) for each rho_j of tail t_j,
    and q_j (2 sqrt(t) + 2 t) for each block wider than phi, whose source
    state left t outside phi: the cut moves tau_j by at most 2 sqrt(t) + t
    (gentle measurement) and its filler by at most t more.
    """
    if mix.chi != blocks.chi:
        raise ValueError(f"states in different gauges (chi = {mix.chi}, {blocks.chi})")
    js, p = blocks.js, blocks.probs
    # lattice j are spaced by one, so j - js[0] is the window row
    rows = np.rint(mix.js - js[0]).astype(int)
    on = (rows >= 0) & (rows < len(js))
    q = np.zeros(len(js))
    q[rows[on]] = mix.probs[on]
    leaked = _leaked(mix.phi, js)
    dim = max(blocks.corners.shape[1], mix.phi.shape[0])
    d_block = _block_dims(js)
    phi = embed_block(mix.phi, dim)

    def diff(sl: slice) -> np.ndarray:
        # tau_j on the corner: phi's first min(2j+1, dim) levels plus the filler
        inside = np.arange(dim)[None, :] < d_block[sl, None]
        tau = phi * (inside[:, :, None] & inside[:, None, :])
        tau[:, np.arange(dim), np.arange(dim)] += inside * (leaked[sl] / d_block[sl])[:, None]
        return q[sl, None, None] * tau - p[sl, None, None] * embed_block(blocks.corners[sl], dim)

    total = float(_trace_norms(len(js), dim, diff).sum())
    total += float(np.sum(q * leaked / d_block * np.maximum(d_block - dim, 0)))
    wide = d_block > mix.phi.shape[0]
    bound = p @ (2.0 * np.sqrt(blocks.tails) + blocks.tails)
    bound += q[wide].sum() * (2.0 * math.sqrt(mix.tail) + 2.0 * mix.tail)
    return float(total + mix.probs[~on].sum() + blocks.dropped), float(bound)


@dataclass
class SweepRow:
    """One n of a sweep; ``corner_bound_*`` bound how far each distance can
    move if taken without the Fock corner.  ``dropped`` is the block mass
    outside the pmf window, the one block cut of both images."""

    n: int
    dist_T: float
    dist_S: float
    u_effective: tuple
    clamped: bool
    corner_bound_T: float
    corner_bound_S: float
    dropped: float


@dataclass
class SweepResult:
    rows: list
    slope_T: float
    slope_S: float


def _clamp_u(mu: float, u, n: int) -> tuple[tuple[float, float, float], bool]:
    ux, uy, uz = (float(c) for c in u)
    rn = math.sqrt(n)
    lo, hi = (0.5 + DELTA_ADM - mu) * rn, (1.0 - DELTA_ADM - mu) * rn
    return (ux, uy, min(max(uz, lo), hi)), not lo <= uz <= hi


def convergence_sweep(mu: float, u, n_list) -> SweepResult:
    """Distances to/from the Gaussian limit over a list of n, with slopes.

    For each n, one ``block_data`` of the shifted n qubits feeds both
    directions: ``dist_T`` compares its ``apply_T`` image with
    ``gaussian_limit`` on a shared grid, each state on its own certified
    Fock corner, and ``dist_S`` compares ``apply_S`` of the Gaussian pair
    with it.  The grid covers ``typical_set(GRID_TYPICAL_EPS)`` and the
    window's end blocks.
    When ``u_z`` makes the shifted eigenvalue inadmissible at small n it is
    clamped to ``DELTA_ADM`` inside the boundary (row flagged) so that both
    objects stay well defined; the log-log slopes are least-squares fits
    over all rows (nan below two distinct n).
    """
    rows = []
    for n in n_list:
        params = ModelParams(mu, int(n))
        u_eff, clamped = _clamp_u(mu, u, params.n)
        gp = GaussianLimitParams(mu, u_eff)
        blocks = block_data(params, u_eff)
        j_lo, j_hi = typical_set(params, GRID_TYPICAL_EPS)
        js = blocks.js
        g = classical_coordinate(params, np.array([min(j_lo, js[0]), max(j_hi, js[-1])]))
        grid = covering_grid(params, gp.u[2], *g)
        t_state = apply_T(blocks, grid=grid)
        dist_t, bound_t = hybrid_trace_distance(t_state, gaussian_limit(gp, grid=grid))
        dist_s, bound_s = blockwise_distance(apply_S(gp, params.n), blocks)
        rows.append(
            SweepRow(
                n=params.n,
                dist_T=dist_t,
                dist_S=dist_s,
                u_effective=u_eff,
                clamped=clamped,
                corner_bound_T=bound_t,
                corner_bound_S=bound_s,
                dropped=blocks.dropped,
            )
        )
        del blocks, t_state  # not held while the next row builds its own
    ns, dist_t, dist_s = zip(*[(r.n, r.dist_T, r.dist_S) for r in rows])
    return SweepResult(rows, loglog_slope(ns, dist_t), loglog_slope(ns, dist_s))


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) on log(ns); nan below two distinct ns."""
    if len(set(ns)) < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])
