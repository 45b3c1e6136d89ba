"""Dense channel distances: the full-dimension oracle for the Fock corners.

Every block state is built at its full size 2j + 1 and embedded in a common
Fock cutoff, the Gaussian limit is the displaced thermal state on that
cutoff, every tau_j of the S channel is written out at its full size, and
all distances diagonalize at the full dimension.  This is the package's
channel code before it kept only Fock corners; it costs O(dim^3) per grid
point or block, so use it for small n only.  Its hybrids hold complex
states in the Fock basis (gauge chi = 0) with nothing cut (zero tails).

The dense displaced thermal state has two independent routes on a Fock
cutoff: the thermal state conjugated by the displacement operator, and a
Gauss-Hermite mixture of coherent states.  Neither is renormalized, and
both need ``dim`` well past ``|beta|^2``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.stats import norm

from fullspace import block_state, fock_basis
from qlan.lan_channels import ClassicalDensity, HybridGaussianState, covering_grid
from qlan.operator_core import embed_block
from qlan.spin_blocks import (
    ModelParams,
    block_pmf_window,
    classical_coordinate,
    valid_j_values,
)


def thermal_state(p: float, dim: int) -> np.ndarray:
    """Truncated thermal state diag((1-p) p^k), k < dim; its trace is
    1 - p**dim."""
    return np.diag((1.0 - p) * p ** np.arange(dim, dtype=float)).astype(complex)


def coherent_matrix(zs, dim: int) -> np.ndarray:
    """Columns exp(-|z|^2/2) z^k / sqrt(k!), k < dim, one per z in ``zs``."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    k = np.arange(dim, dtype=float)[:, None]
    absz = np.abs(zs)[None, :]
    safe = np.where(absz > 0, absz, 1.0)
    # log-magnitude to avoid overflow in z^k / sqrt(k!)
    mag = np.exp(k * np.log(safe) - 0.5 * gammaln(k + 1.0) - 0.5 * absz**2)
    mag = np.where((absz == 0) & (k > 0), 0.0, mag)
    return mag * np.exp(1j * k * np.angle(zs)[None, :])


def coherent_vector(z: complex, dim: int) -> np.ndarray:
    """Truncated coherent state |z> on ``dim`` levels, one z at a time (the
    check on :func:`coherent_matrix`)."""
    if z == 0:
        return np.eye(dim, dtype=complex)[0]
    k = np.arange(dim, dtype=float)
    logmag = k * math.log(abs(z)) - 0.5 * gammaln(k + 1.0) - 0.5 * abs(z) ** 2
    return np.exp(logmag) * np.exp(1j * k * np.angle(z))


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a^dag - conj(beta) a) on the truncated Fock space."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    h = -1j * (beta * a.conj().T - np.conj(beta) * a)  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def dense_displaced_thermal(gp, dim: int, method: str = "displace") -> np.ndarray:
    """The displaced thermal state of ``gp`` on ``dim`` Fock levels.

    "displace" conjugates the truncated thermal state by the displacement
    operator; "mixture" is the Gauss-Hermite quadrature (48 x 48 nodes) of
    the coherent states |z>, z ~ N(beta, s^2 I), s^2 = (1-mu)/(4 mu - 2).
    """
    if method == "displace":
        d = displacement_operator(gp.beta, dim)
        return d @ thermal_state(gp.p, dim) @ d.conj().T
    if method != "mixture":
        raise ValueError(f"unknown method {method!r}")
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    s = math.sqrt((1.0 - gp.mu) / (4.0 * gp.mu - 2.0))
    xs = gp.beta.real + math.sqrt(2.0) * s * nodes
    ys = gp.beta.imag + math.sqrt(2.0) * s * nodes
    zx, zy = np.meshgrid(xs, ys, indexing="ij")
    c = coherent_matrix((zx + 1j * zy).ravel(), dim)
    return (c * (np.outer(weights, weights).ravel() / math.pi)) @ c.conj().T


def q_function(rho: np.ndarray, z) -> np.ndarray:
    """Husimi Q(z) = <z| rho |z> / pi, vectorized over z (shape-preserving)."""
    zarr = np.asarray(z, dtype=complex)
    c = coherent_matrix(zarr.ravel(), rho.shape[0])
    vals = np.einsum("ks,ks->s", c.conj(), rho @ c).real / math.pi
    return float(vals[0]) if zarr.ndim == 0 else vals.reshape(zarr.shape)


def mean_annihilation(rho: np.ndarray) -> complex:
    """Tr(rho a) on the truncated space."""
    k = np.arange(1, rho.shape[0], dtype=float)
    # a has sqrt(k) on the superdiagonal; Tr(rho a) = sum_k sqrt(k) rho[k, k-1]
    return complex(np.sum(np.sqrt(k) * np.diagonal(rho, -1)))


class MixedHeterodyneSampler:
    """Exact sampler of the heterodyne (Husimi Q) law of a Fock-cutoff
    density matrix: the mixed-state oracle for ``qlan``'s pure-state
    :class:`~qlan.fock_gaussian.HeterodyneSampler`.

    In polar form z = sqrt(s) e^{i theta} the radius has the exact marginal
    s = |z|^2 ~ sum_k rho_kk Gamma(k + 1, 1): draw the level k with
    probability rho_kk, then s ~ Gamma(k + 1).  Given s, the angle has
    density proportional to f(theta) = c^H rho c with c_k = s^{k/2}
    e^{ik theta} / sqrt(k!), and is drawn by rejection from the uniform
    angle against the per-draw constant v^T |rho| v, v = |c|, which bounds
    f by the triangle inequality.

    ``m_const`` is the expected number of angle proposals per accepted
    draw, sum_kl |rho_kl| Gamma((k+l)/2 + 1) / sqrt(k! l!) >= 1, and
    ``proposals`` counts the angle proposals made so far.
    """

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        self.rho = rho / np.trace(rho).real
        k = np.arange(rho.shape[0], dtype=float)
        self._levels = k
        self._half_log_fact = 0.5 * gammaln(k + 1.0)
        self._abs_rho = np.abs(self.rho)
        weights = np.maximum(np.diagonal(self.rho).real, 0.0)
        self._level_cdf = np.cumsum(weights) / weights.sum()
        log_gamma_ratio = gammaln(0.5 * (k[:, None] + k[None, :]) + 1.0) - (
            self._half_log_fact[:, None] + self._half_log_fact[None, :]
        )
        self.m_const = float(np.sum(self._abs_rho * np.exp(log_gamma_ratio)))
        self.proposals = 0

    def _envelope(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v = |c| e^{-s/2} for each radius s (levels on the rows) and the
        bound v^T |rho| v >= e^{-s} c^H rho c on each angle's density."""
        log_r = 0.5 * np.log(np.maximum(s, 1e-300))
        v = np.exp(self._levels[:, None] * log_r - self._half_log_fact[:, None] - 0.5 * s)
        return v, np.einsum("kb,kb->b", v, self._abs_rho @ v)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = self._levels
        level = np.searchsorted(self._level_cdf, rng.random(size), side="right")
        s = rng.standard_gamma(np.minimum(level, len(k) - 1) + 1.0)
        v, bound = self._envelope(s)
        theta = np.empty(size)
        pending = np.arange(size)
        while pending.size:
            angle = 2.0 * math.pi * rng.random(pending.size)
            c = v[:, pending] * np.exp(1j * k[:, None] * angle)
            f = np.einsum("kb,kb->b", c.conj(), self.rho @ c).real
            keep = rng.random(pending.size) * bound[pending] < f
            self.proposals += pending.size
            theta[pending[keep]] = angle[keep]
            pending = pending[~keep]
        return np.sqrt(s) * np.exp(1j * theta)


def apply_T(params, u, grid, dim):
    """The T image with full blocks embedded in ``dim`` Fock levels; same
    blocks (every block of the pmf window), weights and grid handling as
    ``qlan.lan_channels.apply_T``."""
    js, probs, dropped = block_pmf_window(params, u)
    g = classical_coordinate(params, js)
    ksd = math.sqrt(0.5 / math.sqrt(params.n))
    blocks = np.array([embed_block(block_state(params, u, j), dim) for j in js])
    weights = norm.pdf(grid[:, None], loc=g[None, :], scale=ksd) * probs[None, :]
    classical = ClassicalDensity(grid, weights.sum(axis=1), expected_mass=1.0 - dropped)
    return HybridGaussianState(classical, weights, blocks, np.zeros(len(blocks)), 0.0, dropped)


def gaussian_limit(gp, grid, dim):
    """The limit hybrid with the displaced thermal state on ``dim`` levels."""
    f = norm.pdf(grid, loc=gp.u[2], scale=math.sqrt(gp.classical_var))
    phi = dense_displaced_thermal(gp, dim)
    return HybridGaussianState(ClassicalDensity(grid, f), f[:, None], phi[None], np.zeros(1), 0.0)


def window_grid(blocks):
    """A classical grid for the T image of ``blocks`` alone: ``covering_grid``
    around the window's mean coordinate, out to its end blocks' kernels."""
    g = classical_coordinate(blocks.params, blocks.js)
    return covering_grid(blocks.params, float(np.sum(blocks.probs * g)), g.min(), g.max())


def _joint_stack(state, sl):
    return np.tensordot(state.weights[sl], state.blocks, axes=1)


def hybrid_trace_distance(a, b):
    """integral dx || f_a(x) rho_a(x) - f_b(x) rho_b(x) ||_1, trapezoid rule."""
    nx = len(a.classical.x)
    chunk = max(4, int(6.0e6 // (a.dim * a.dim)))
    d_vals = np.empty(nx, dtype=float)
    for start in range(0, nx, chunk):
        sl = slice(start, min(start + chunk, nx))
        diff = _joint_stack(a, sl) - _joint_stack(b, sl)
        diff = 0.5 * (diff + np.conj(np.swapaxes(diff, -1, -2)))
        w = np.linalg.eigvalsh(diff)
        d_vals[sl] = np.abs(w).sum(axis=1)
    return float(np.trapezoid(d_vals, a.classical.x))


@dataclass
class DenseMixture:
    """Block mixture with every tau_j stored at its full size 2j + 1."""

    js: np.ndarray
    probs: np.ndarray
    states: list


def _filled(top, d):
    """The d x d block holding ``top`` in its top-left corner, topped up to
    unit trace with the maximally mixed filler."""
    tau = embed_block(top, d)
    return tau + (1.0 - np.trace(tau).real) / d * np.eye(d)


def apply_S(gp, n, dim):
    """The S image with every tau_j cut from ``dense_displaced_thermal(gp, dim)``
    at its full size, one cell per lattice j; ``dim`` must reach past the
    widest block, n + 1 levels."""
    params = ModelParams(gp.mu, n)
    js = valid_j_values(n)
    edges = classical_coordinate(params, js)[1:]
    cdf = norm.cdf(edges, loc=gp.u[2], scale=math.sqrt(gp.classical_var))
    q = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    if dim < n + 1:
        raise ValueError(f"dim = {dim} does not reach past the widest block ({n + 1})")
    phi = dense_displaced_thermal(gp, dim)
    states = [_filled(phi[:d, :d], d) for d in np.rint(2.0 * js).astype(int) + 1]
    return DenseMixture(js, q, states)


def expand(mix):
    """A compact ``qlan.lan_channels.BlockMixture`` with every tau_j written
    out at full size, in the Fock basis."""
    phi = fock_basis(mix.phi, mix.chi)
    states = []
    for j in mix.js:
        d = int(round(2.0 * j)) + 1
        m = min(d, phi.shape[0])
        states.append(_filled(phi[:m, :m], d))
    return DenseMixture(mix.js, mix.probs, states)


def blockwise_distance(mix, params, u):
    """sum_j || q_j tau_j - p_{n,u}(j) rho_j ||_1 with full block states,
    for a :class:`DenseMixture`, over every lattice row either side has;
    the pmf window's outside mass enters as itself."""
    j_p, p_probs, p_drop = block_pmf_window(params, u)
    p_map = {float(j): float(p) for j, p in zip(j_p, p_probs)}
    q_map = {
        float(j): (float(q), s) for j, q, s in zip(mix.js, mix.probs, mix.states)
    }
    total = 0.0
    for j in sorted(set(p_map) | set(q_map)):
        p = p_map.get(j, 0.0)
        q, tau = q_map.get(j, (0.0, None))
        d_block = int(round(2.0 * j)) + 1
        m = q * tau if tau is not None else np.zeros((d_block, d_block), dtype=complex)
        if p > 0.0:
            m = m - p * block_state(params, u, j)
        m = 0.5 * (m + m.conj().T)
        total += float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return total + p_drop
