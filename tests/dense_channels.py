"""Dense channel distances: the full-dimension oracle for the Fock corners.

Every block state is built at its full size 2j + 1 and embedded in a common
Fock cutoff, the Gaussian limit is the displaced thermal state on that
cutoff, every tau_j of the S channel is written out at its full size, and
all distances diagonalize at the full dimension.  This is the package's
channel code before it kept only Fock corners; it costs O(dim^3) per grid
point or block, so use it for small n only.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from fullspace import block_state
from qlan.fock_gaussian import displaced_thermal
from qlan.lan_channels import ClassicalDensity, HybridGaussianState
from qlan.operator_core import embed_block
from qlan.spin_blocks import (
    ModelParams,
    as_local,
    block_pmf_window,
    classical_coordinate,
    typical_set,
    valid_j_values,
)
from qlan.tolerances import BLOCK_SKIP_MASS, CHANNEL_DROP_MASS, WINDOW_TAIL_MASS


def mean_annihilation(rho: np.ndarray) -> complex:
    """Tr(rho a) on the truncated space."""
    k = np.arange(1, rho.shape[0], dtype=float)
    # a has sqrt(k) on the superdiagonal; Tr(rho a) = sum_k sqrt(k) rho[k, k-1]
    return complex(np.sum(np.sqrt(k) * np.diagonal(rho, -1)))


def apply_T(params, u, grid, dim, eps_tail=0.2):
    """The T image with full blocks embedded in ``dim`` Fock levels; same
    block window, weights and grid handling as ``qlan.lan_channels.apply_T``."""
    u = as_local(u)
    j_lo, j_hi = typical_set(params, eps_tail)
    j_all, probs_all, _ = block_pmf_window(
        params, u, tail=min(WINDOW_TAIL_MASS, CHANNEL_DROP_MASS / 10.0)
    )
    keep = (j_all >= j_lo) & (j_all <= j_hi) & (probs_all > BLOCK_SKIP_MASS)
    j_keep = j_all[keep]
    p_keep = probs_all[keep]
    dropped = max(1.0 - float(p_keep.sum()), 0.0)
    g = classical_coordinate(params, j_keep)
    ksd = math.sqrt(0.5 / math.sqrt(params.n))
    blocks = np.array([embed_block(block_state(params, u, j), dim) for j in j_keep])
    weights = norm.pdf(grid[:, None], loc=g[None, :], scale=ksd) * p_keep[None, :]
    classical = ClassicalDensity(grid, weights.sum(axis=1), expected_mass=1.0 - dropped)
    return HybridGaussianState(classical, weights, blocks, dropped_mass=dropped)


def gaussian_limit(gp, grid, dim):
    """The limit hybrid with the displaced thermal state on ``dim`` levels."""
    f = norm.pdf(grid, loc=gp.classical_mean, scale=math.sqrt(gp.classical_var))
    return HybridGaussianState(
        ClassicalDensity(grid, f), f[:, None], displaced_thermal(gp, dim)[None]
    )


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
    dropped: float = 0.0


def _filled(top, d):
    """The d x d block holding ``top`` in its top-left corner, topped up to
    unit trace with the maximally mixed filler."""
    tau = embed_block(top, d)
    return tau + (1.0 - np.trace(tau).real) / d * np.eye(d)


def apply_S(gp, n, dim):
    """The S image with every tau_j cut from ``displaced_thermal(gp, dim)``
    at its full size; ``dim`` must reach past every block kept."""
    params = ModelParams(gp.mu, n)
    js = valid_j_values(n)
    edges = classical_coordinate(params, js)[1:]
    cdf = norm.cdf(edges, loc=gp.classical_mean, scale=math.sqrt(gp.classical_var))
    q = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    keep = q > BLOCK_SKIP_MASS
    d_max = int(round(2.0 * js[keep].max())) + 1
    if dim < d_max:
        raise ValueError(f"dim = {dim} does not reach past the widest block ({d_max})")
    phi = displaced_thermal(gp, dim)
    states = [_filled(phi[:d, :d], d) for d in np.rint(2.0 * js[keep]).astype(int) + 1]
    return DenseMixture(js[keep], q[keep], states, float(q[~keep].sum()))


def expand(mix):
    """A compact ``qlan.lan_channels.BlockMixture`` with every tau_j written
    out at full size."""
    states = []
    for j in mix.js:
        d = int(round(2.0 * j)) + 1
        m = min(d, mix.phi.shape[0])
        states.append(_filled(mix.phi[:m, :m], d))
    return DenseMixture(mix.js, mix.probs, states, mix.dropped)


def blockwise_distance(mix, params, u):
    """sum_j || q_j tau_j - p_{n,u}(j) rho_j ||_1 with full block states,
    for a :class:`DenseMixture`."""
    u = as_local(u)
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
    return total + p_drop + mix.dropped
