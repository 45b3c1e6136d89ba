"""Dense channel distances: the full-dimension oracle for the Fock corners.

Every block state is built at its full size 2j + 1 and embedded in a common
Fock cutoff, the Gaussian limit is the displaced thermal state on that
cutoff, and both distances diagonalize at the full dimension.  This is the
package's channel code before it kept only Fock corners; it costs
O(dim^3) per grid point or block, so use it for small n only.
"""

import math

import numpy as np
from scipy.stats import norm

from qlan.fock_gaussian import displaced_thermal, embed_block
from qlan.lan_channels import ClassicalDensity, HybridGaussianState
from qlan.spin_blocks import (
    as_local,
    block_pmf_window,
    block_state,
    classical_coordinate,
    typical_set,
)
from qlan.tolerances import BLOCK_SKIP_MASS, CHANNEL_DROP_MASS, WINDOW_TAIL_MASS


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
    return HybridGaussianState(
        classical, dim, False, weights=weights, blocks=blocks, dropped_mass=dropped
    )


def gaussian_limit(gp, grid, dim):
    """The limit hybrid with the displaced thermal state on ``dim`` levels."""
    f = norm.pdf(grid, loc=gp.classical_mean, scale=math.sqrt(gp.classical_var))
    return HybridGaussianState(
        ClassicalDensity(grid, f), dim, True, quantum=displaced_thermal(gp, dim)
    )


def _joint_stack(state, sl):
    if state.product:
        return state.classical.values[sl, None, None] * state.quantum[None, :, :]
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


def blockwise_distance(mix, params, u):
    """sum_j || q_j tau_j - p_{n,u}(j) rho_j ||_1 with full block states."""
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
        if p <= BLOCK_SKIP_MASS and q <= BLOCK_SKIP_MASS:
            total += abs(q - p)
            continue
        d_block = int(round(2.0 * j)) + 1
        m = q * tau if tau is not None else np.zeros((d_block, d_block), dtype=complex)
        if p > 0.0:
            m = m - p * block_state(params, u, j)
        m = 0.5 * (m + m.conj().T)
        total += float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return total + p_drop + mix.dropped
