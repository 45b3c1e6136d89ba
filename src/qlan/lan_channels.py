"""Channels between the n-qubit block picture and its Gaussian limit.

``apply_T`` maps the block decomposition of n shifted qubits to a hybrid
classical x quantum object: the block index ``j`` is smoothed onto the
real line with a Gaussian kernel of variance ``1/(2 sqrt(n))`` centered at
``g_n(j) = j/sqrt(n) - sqrt(n)(mu - 1/2)``, while the block states ride
along embedded in a common Fock cutoff.  ``gaussian_limit`` produces the
limiting product N(u_z, mu(1-mu)) x (displaced thermal), on the same grid
and cutoff, and ``hybrid_trace_distance`` integrates the trace-norm gap
between two such hybrids.  ``apply_S`` goes the other way, binning the
Gaussian pair back onto the valid-j lattice; ``blockwise_distance``
measures its distance to the true block data.  ``convergence_sweep`` runs
both directions over a list of n and fits log-log slopes.

Every quantum state is kept only on a Fock corner: its first D levels,
with D chosen so that each state leaves at most ``CORNER_TAIL_MASS``
outside.  Compressing a PSD operator A of trace a whose tail is t changes
it by at most 2 sqrt(a t) + t in trace norm (gentle measurement), so each
distance comes back as a :class:`CornerDistance` carrying that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .fock_gaussian import (
    GaussianLimitParams,
    default_fock_dim,
    displaced_thermal,
)
from .spin_blocks import (
    LocalParams,
    ModelParams,
    as_local,
    block_corners,
    block_pmf_window,
    classical_coordinate,
    typical_set,
    valid_j_values,
)
from .tolerances import (
    BLOCK_SKIP_MASS,
    CHANNEL_DROP_MASS,
    CORNER_TAIL_MASS,
    GRID_MASS_TOL,
    WINDOW_TAIL_MASS,
)


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

    @property
    def step(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.values, self.x) / self.mass())

    def var(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.x - m) ** 2 * self.values, self.x) / self.mass())

    def l1_distance(self, other: "ClassicalDensity") -> float:
        _check_same_grid(self.x, other.x)
        return float(np.trapezoid(np.abs(self.values - other.values), self.x))


def _check_same_grid(xa: np.ndarray, xb: np.ndarray) -> None:
    if xa.shape != xb.shape or not np.allclose(xa, xb, rtol=0.0, atol=1e-9):
        raise ValueError("hybrid states live on different classical grids")


class CornerDistance(float):
    """A trace-norm distance computed on Fock corners.

    ``bound`` is the certified gap to the same distance taken without the
    corner: the full-space value lies within ``bound`` of this one.
    """

    bound: float

    def __new__(cls, value: float, bound: float):
        self = super().__new__(cls, value)
        self.bound = float(bound)
        return self

    def __reduce__(self):
        return CornerDistance, (float(self), self.bound)


@dataclass
class HybridGaussianState:
    """Classical density plus conditional quantum state on a Fock cutoff.

    Either a product (one quantum state for every x) or a block mixture
    whose conditional at x is sum_j weights[x, j] * blocks[j] — then the
    per-x trace equals the classical density and the representation stays
    O(nx * nj + nj * dim^2) instead of O(nx * dim^2).

    ``dim`` is the Fock corner the states are kept on; ``tails`` holds the
    mass each stored state (one for ``quantum``, one per block) had outside
    it, None when nothing was cut.  With ``gauge`` = chi, every stored state
    is real after conjugation by diag(e^{-i chi k}).
    """

    classical: ClassicalDensity
    dim: int
    product: bool
    quantum: np.ndarray | None = None
    weights: np.ndarray | None = None
    blocks: np.ndarray | None = None
    dropped_mass: float = 0.0
    tails: np.ndarray | None = None
    gauge: float | None = None

    def terms(self, chi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(coef, states)`` with f(x) rho(x) = sum_i coef[x, i] states[i].

        With ``chi`` the states are conjugated by diag(e^{-i chi k}), which
        leaves trace norms unchanged; they come back real when ``chi`` is
        this state's ``gauge``.
        """
        if self.product:
            coef, states = self.classical.values[:, None], self.quantum[None]
        else:
            coef, states = self.weights, self.blocks
        if chi is None:
            return coef, states
        g = np.exp(1j * chi * np.arange(self.dim))
        states = states * np.outer(g.conj(), g)
        return coef, (states.real if chi == self.gauge else states)

    def corner_bound(self) -> float:
        """Upper bound on integral dx ||A(x) - P A(x) P||_1, A(x) = f(x) rho(x)
        before the compression P to the corner (same trapezoid rule)."""
        if self.tails is None:
            return 0.0
        coef, _ = self.terms()
        lost = coef @ (2.0 * np.sqrt(self.tails) + self.tails)
        return float(np.trapezoid(lost, self.classical.x))


def default_grid(
    mu: float,
    center: float,
    extra_lo: float = 0.0,
    extra_hi: float = 0.0,
    std_mult: float = 8.0,
    step_divisor: float = 50.0,
) -> np.ndarray:
    """Uniform grid: ``center`` +- ``std_mult`` classical standard deviations
    (std = sqrt(mu(1-mu))), step std/``step_divisor``, optionally widened."""
    std = math.sqrt(mu * (1.0 - mu))
    lo = min(center - std_mult * std, center - abs(extra_lo))
    hi = max(center + std_mult * std, center + abs(extra_hi))
    step = std / step_divisor
    npts = int(math.ceil((hi - lo) / step)) + 1
    return lo + step * np.arange(npts)


def _kernel_sd(n: int) -> float:
    """Standard deviation sqrt(1/(2 sqrt(n))) of the T-channel smoothing kernel."""
    return math.sqrt(0.5 / math.sqrt(n))


def _normal_pdf(x, loc, scale):
    """N(loc, scale^2) density, in the arithmetic of scipy.stats.norm.pdf
    (whose import alone costs about half a second)."""
    z = (x - loc) / scale
    return np.exp(-(z**2) / 2.0) / math.sqrt(2.0 * math.pi) / scale


def covering_grid(
    params: ModelParams,
    center: float,
    g_lo: float,
    g_hi: float,
    std_mult: float = 8.0,
    step_divisor: float = 50.0,
) -> np.ndarray:
    """``default_grid`` around ``center``, widened to [g_lo - 8 ksd,
    g_hi + 8 ksd] so that it covers every smoothing kernel of blocks whose
    coordinates lie in [g_lo, g_hi] (ksd = kernel standard deviation)."""
    ksd = _kernel_sd(params.n)
    return default_grid(
        params.mu,
        center,
        extra_lo=abs(center - (g_lo - 8.0 * ksd)),
        extra_hi=abs((g_hi + 8.0 * ksd) - center),
        std_mult=std_mult,
        step_divisor=step_divisor,
    )


def _limit_corner(gp: GaussianLimitParams, dim: int | None) -> tuple[np.ndarray, float]:
    """The displaced thermal state on its first ``dim`` Fock levels (None:
    the fewest that leave at most ``CORNER_TAIL_MASS`` outside) and the mass
    left outside.

    It is built at a Fock cutoff of at least twice the corner, so that the
    truncated displacement does not reach into the corner; the thermal
    weight beyond that cutoff, p^cutoff, is counted as tail.
    """
    cutoff = 2 * max(dim or 0, default_fock_dim(gp.beta))
    while True:
        phi = displaced_thermal(gp, cutoff)
        tail = np.append(np.cumsum(phi.diagonal().real[::-1])[::-1], 0.0) + gp.p**cutoff
        size = dim
        if size is None:
            fits = np.flatnonzero(tail <= CORNER_TAIL_MASS)
            size = int(fits[0]) if fits.size else cutoff
        if 2 * size <= cutoff:
            return phi[:size, :size], float(tail[size])
        cutoff = 2 * size


def gaussian_limit(
    gp: GaussianLimitParams, grid: np.ndarray | None = None, dim: int | None = None
) -> HybridGaussianState:
    """The limit object: N(u_z, mu(1-mu)) times a displaced thermal state.

    The quantum part is kept on the first ``dim`` Fock levels; by default
    on the fewest that leave at most ``CORNER_TAIL_MASS`` outside.  The mass
    outside is reported in ``tails``.
    """
    if grid is None:
        grid = default_grid(gp.mu, gp.classical_mean)
    f = _normal_pdf(grid, gp.classical_mean, math.sqrt(gp.classical_var))
    classical = ClassicalDensity(grid, f)
    quantum, tail = _limit_corner(gp, dim)
    return HybridGaussianState(
        classical,
        quantum.shape[0],
        True,
        quantum=quantum,
        tails=np.array([tail]),
        gauge=gp.u.phase_angle,
    )


def smoothed_classical_density(
    params: ModelParams, u, grid: np.ndarray | None = None
) -> ClassicalDensity:
    """Marginal of the T-channel: sum_j p_{n,u}(j) N(g_n(j), 1/(2 sqrt(n))).

    With ``grid=None`` a covering grid is built automatically; a supplied
    grid must already cover the support (the mass check errors otherwise).
    """
    u = as_local(u)
    j_vals, probs, _ = block_pmf_window(params, u)
    g = classical_coordinate(params, j_vals)
    if grid is None:
        center = float(np.sum(probs * g) / np.sum(probs))
        grid = covering_grid(params, center, g.min(), g.max())
    vals = _normal_pdf(grid[:, None], g[None, :], _kernel_sd(params.n)) @ probs
    return ClassicalDensity(grid, vals)


def apply_T(
    params: ModelParams,
    u,
    grid: np.ndarray | None = None,
    dim: int | None = None,
    eps_tail: float = 0.2,
) -> HybridGaussianState:
    """Map n shifted qubits to the hybrid classical x quantum object.

    Keeps blocks inside ``typical_set(eps_tail)``; the dropped probability
    must stay below 1e-9 (else the call errors, asking for a larger window)
    and is reported on the returned state.  The blocks are kept on the
    first ``dim`` Fock levels (default: the fewest at which every block
    leaves at most ``CORNER_TAIL_MASS`` outside), with each block's tail
    in ``tails``; a ``dim`` at which some block loses 1e-9 or more errors.
    """
    u = as_local(u)
    j_lo, j_hi = typical_set(params, eps_tail)
    j_all, probs_all, win_drop = block_pmf_window(
        params, u, tail=min(WINDOW_TAIL_MASS, CHANNEL_DROP_MASS / 10.0)
    )
    keep = (j_all >= j_lo) & (j_all <= j_hi) & (probs_all > BLOCK_SKIP_MASS)
    j_keep = j_all[keep]
    p_keep = probs_all[keep]
    dropped = max(1.0 - float(p_keep.sum()), 0.0)
    if dropped >= CHANNEL_DROP_MASS:
        raise ValueError(
            f"typical window [{j_lo}, {j_hi}] (eps_tail = {eps_tail}) drops "
            f"block mass {dropped:.3e} >= {CHANNEL_DROP_MASS:.1e}; increase eps_tail"
        )
    blocks, tails = block_corners(params, u, j_keep, min_dim=dim or 1)
    if dim is not None and blocks.shape[1] > dim:
        # cut the certified corner down to dim: its diagonal there joins the tail
        tails = tails + np.einsum("ill->i", blocks[:, dim:, dim:]).real
        blocks = np.ascontiguousarray(blocks[:, :dim, :dim])
        if tails.max() >= CHANNEL_DROP_MASS:
            raise ValueError(
                f"Fock cutoff dim = {dim} leaves block mass {tails.max():.3e} >= "
                f"{CHANNEL_DROP_MASS:.1e} outside; increase dim or leave it unset"
            )
    g = classical_coordinate(params, j_keep)
    if grid is None:
        grid = covering_grid(params, float(np.sum(p_keep * g)), g.min(), g.max())
    kernel = _normal_pdf(grid[:, None], g[None, :], _kernel_sd(params.n))
    weights = kernel * p_keep[None, :]
    classical = ClassicalDensity(grid, weights.sum(axis=1), expected_mass=1.0 - dropped)
    return HybridGaussianState(
        classical,
        blocks.shape[1],
        False,
        weights=weights,
        blocks=blocks,
        dropped_mass=dropped,
        tails=tails,
        gauge=u.phase_angle,
    )


def hybrid_trace_distance(a: HybridGaussianState, b: HybridGaussianState) -> CornerDistance:
    """integral dx || f_a(x) rho_a(x) - f_b(x) rho_b(x) ||_1, trapezoid rule.

    Both states must share the classical grid and the Fock cutoff.  A
    compression never increases the trace norm, so the distance without the
    corner lies in [value, value + bound], bound = the two corner bounds.
    States of one local parameter share their ``gauge``; in it the
    differences are real and cheaper to diagonalize.
    """
    _check_same_grid(a.classical.x, b.classical.x)
    if a.dim != b.dim:
        raise ValueError(f"Fock cutoffs differ: {a.dim} vs {b.dim}")
    coef_a, states_a = a.terms(a.gauge)
    coef_b, states_b = b.terms(a.gauge)
    # f_a rho_a - f_b rho_b at every x as one sum over both state lists
    coef = np.hstack([coef_a, -coef_b])
    states = np.concatenate([states_a, states_b])
    nx = len(a.classical.x)
    chunk = max(4, int(6.0e6 // (a.dim * a.dim)))
    d_vals = np.empty(nx, dtype=float)
    for start in range(0, nx, chunk):
        sl = slice(start, min(start + chunk, nx))
        # eigvalsh reads one triangle, so rounding asymmetry never enters
        w = np.linalg.eigvalsh(np.tensordot(coef[sl], states, axes=1))
        d_vals[sl] = np.abs(w).sum(axis=1)
    return CornerDistance(
        np.trapezoid(d_vals, a.classical.x), a.corner_bound() + b.corner_bound()
    )


@dataclass
class BlockMixture:
    """Classical-quantum state on the valid-j lattice: entries (j, q_j, tau_j).

    ``states[i]`` is a (2 j_i + 1)-dimensional density matrix in the
    k-ladder basis; ``leaked[i]`` is the mass that had to be filled in as
    maximally mixed because the source state leaked outside the block (or
    outside the Fock cutoff).  ``dropped`` is lattice mass never built.
    On ladder levels >= ``cutoff`` every ``states[i]`` is only its filler,
    ``leaked[i] / (2 j_i + 1)`` times the identity (None: no such level).
    """

    js: np.ndarray
    probs: np.ndarray
    states: list
    leaked: np.ndarray
    dropped: float = 0.0
    cutoff: int | None = None


def apply_S(gp: GaussianLimitParams, n: int, dim: int | None = None) -> BlockMixture:
    """Bin the Gaussian pair back onto n-qubit block data.

    The classical coordinate X ~ N(u_z, mu(1-mu)) selects the block through
    j(X) = floor(sqrt(n) X + n(mu - 1/2)) snapped to the valid-j lattice,
    with the extreme cells absorbing the out-of-range tails; the quantum
    part is the displaced thermal state compressed into the first 2j+1
    levels, topped up with a maximally mixed filler for the leaked mass.
    """
    params = ModelParams(gp.mu, n)
    if dim is None:
        dim = default_fock_dim(gp.beta)
    phi = displaced_thermal(gp, dim)
    sd = math.sqrt(gp.classical_var)
    j_lattice = valid_j_values(n)
    # cells [g_n(j), g_n(j) + 1/sqrt(n)) on the classical axis
    g_edges_lo = classical_coordinate(params, j_lattice)
    g_edges_hi = g_edges_lo + 1.0 / math.sqrt(n)
    lo = np.array(g_edges_lo)
    hi = np.array(g_edges_hi)
    lo[0] = -np.inf
    hi[-1] = np.inf
    q = ndtr((hi - gp.classical_mean) / sd) - ndtr((lo - gp.classical_mean) / sd)
    keep = q > BLOCK_SKIP_MASS
    dropped = float(q[~keep].sum())
    js = j_lattice[keep]
    qs = q[keep]
    states: list[np.ndarray] = []
    leaks = np.empty(len(js), dtype=float)
    for i, j in enumerate(js):
        d_block = int(round(2.0 * j)) + 1
        m = min(d_block, dim)
        tau = np.zeros((d_block, d_block), dtype=complex)
        tau[:m, :m] = phi[:m, :m]
        leak = 1.0 - float(np.trace(tau).real)
        leaks[i] = leak
        tau[np.arange(d_block), np.arange(d_block)] += leak / d_block
        states.append(tau)
    return BlockMixture(js, qs, states, leaks, dropped, cutoff=dim)


def blockwise_distance(mix: BlockMixture, params: ModelParams, u) -> CornerDistance:
    """sum_j || q_j tau_j - p_{n,u}(j) rho_j ||_1 over the valid lattice.

    Blocks present on only one side contribute their full mass; lattice
    mass outside both windows is added through its upper bounds, so the
    returned value is an upper bound tight to ~1e-12 on the full sum.

    Each term is taken on a corner of at least ``mix.cutoff`` levels (the
    whole block if None), wide enough for rho_j's tail to stay below
    ``CORNER_TAIL_MASS``; tau_j's filler outside it adds its trace norm in
    closed form.  Only rho_j's tails enter ``bound``.
    """
    u = as_local(u)
    j_p, p_probs, p_drop = block_pmf_window(params, u)
    p_map = {float(j): float(p) for j, p in zip(j_p, p_probs)}
    q_map = {
        float(j): (float(q), s, float(leak))
        for j, q, s, leak in zip(mix.js, mix.probs, mix.states, mix.leaked)
    }
    total = 0.0
    bound = 0.0
    for j in sorted(set(p_map) | set(q_map)):
        p = p_map.get(j, 0.0)
        q, tau, leak = q_map.get(j, (0.0, None, 0.0))
        if p <= BLOCK_SKIP_MASS and q <= BLOCK_SKIP_MASS:
            total += abs(q - p)
            continue
        d_block = int(round(2.0 * j)) + 1
        size = d_block if mix.cutoff is None else min(mix.cutoff, d_block)
        if p > 0.0:
            corner, tail = block_corners(params, u, [j], min_dim=size)
            m = -p * corner[0]
            size = m.shape[0]
            bound += p * (2.0 * math.sqrt(tail[0]) + tail[0])
        else:
            m = np.zeros((size, size), dtype=complex)
        if tau is not None:
            m = m + q * tau[:size, :size]
            total += q * leak / d_block * (d_block - size)
        m = 0.5 * (m + m.conj().T)
        total += float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return CornerDistance(total + p_drop + mix.dropped, bound)


@dataclass
class SweepRow:
    """One n of a sweep; ``corner_bound_*`` bound how far each distance can
    move if taken without the Fock corner."""

    n: int
    dist_T: float
    dist_S: float
    u_effective: tuple
    clamped: bool
    corner_bound_T: float
    corner_bound_S: float


@dataclass
class SweepConfig:
    eps_tail: float = 0.2
    clamp: bool = True
    delta_adm: float = 0.02
    std_mult: float = 8.0
    step_divisor: float = 50.0


@dataclass
class SweepResult:
    rows: list
    slope_T: float
    slope_S: float
    resid_T: float
    resid_S: float


def _clamp_u(mu: float, u: LocalParams, n: int, delta: float) -> tuple[LocalParams, bool]:
    rn = math.sqrt(n)
    lo = (0.5 + delta - mu) * rn
    hi = (1.0 - delta - mu) * rn
    uz = min(max(u.uz, lo), hi)
    if uz != u.uz:
        return LocalParams(u.ux, u.uy, uz), True
    return u, False


def convergence_sweep(mu: float, u, n_list, config: SweepConfig | None = None) -> SweepResult:
    """Distances to/from the Gaussian limit over a list of n, with slopes.

    For each n, ``dist_T`` compares ``apply_T`` of the shifted n-qubit data
    with ``gaussian_limit`` on a shared grid and Fock corner (the smallest
    at which every state of both leaves at most ``CORNER_TAIL_MASS``
    outside), and ``dist_S`` compares ``apply_S`` of the Gaussian pair with
    the true block data.
    When ``u_z`` makes the shifted eigenvalue inadmissible at small n it is
    clamped to ``delta_adm`` inside the boundary (row flagged) so that both
    objects stay well defined; the log-log slopes are least-squares fits
    over all rows.
    """
    cfg = config or SweepConfig()
    u = as_local(u)
    rows = []
    for n in n_list:
        params = ModelParams(mu, int(n))
        u_eff, clamped = (u, False)
        if cfg.clamp:
            u_eff, clamped = _clamp_u(mu, u, int(n), cfg.delta_adm)
        gp = GaussianLimitParams(mu, u_eff)
        j_lo, j_hi = typical_set(params, cfg.eps_tail)
        g_lo, g_hi = classical_coordinate(params, np.array([j_lo, j_hi]))
        grid = covering_grid(
            params, gp.classical_mean, g_lo, g_hi, cfg.std_mult, cfg.step_divisor
        )
        t_state = apply_T(params, u_eff, grid=grid, eps_tail=cfg.eps_tail)
        limit = gaussian_limit(gp, grid=grid)
        # one corner for both: the wider of the two certified ones
        if limit.dim > t_state.dim:
            t_state = apply_T(params, u_eff, grid=grid, dim=limit.dim, eps_tail=cfg.eps_tail)
        else:
            limit = gaussian_limit(gp, grid=grid, dim=t_state.dim)
        dist_t = hybrid_trace_distance(t_state, limit)
        dist_s = blockwise_distance(apply_S(gp, params.n), params, u_eff)
        rows.append(
            SweepRow(
                n=params.n,
                dist_T=float(dist_t),
                dist_S=float(dist_s),
                u_effective=(u_eff.ux, u_eff.uy, u_eff.uz),
                clamped=clamped,
                corner_bound_T=dist_t.bound,
                corner_bound_S=dist_s.bound,
            )
        )
    ln_n = np.log([r.n for r in rows])
    slope_t, resid_t = _loglog_fit(ln_n, [r.dist_T for r in rows])
    slope_s, resid_s = _loglog_fit(ln_n, [r.dist_S for r in rows])
    return SweepResult(rows, slope_t, slope_s, resid_t, resid_s)


def _loglog_fit(ln_n: np.ndarray, dists) -> tuple[float, float]:
    y = np.log(np.asarray(dists, dtype=float))
    coeffs, residuals, *_ = np.polyfit(ln_n, y, 1, full=True)
    resid = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), resid
