"""Brute-force n-qubit decomposition oracle (n <= 8 or so).

Builds the isotypic isometries of the collective SU(2) action on
(C^2)^{(x) n} directly: for each total spin j the highest-weight subspace
is recovered as the joint null space of S_+ and (S_z - j), and ladder
orbits of S_- provide an orthonormal basis of each irreducible block.
No combinatorial shortcuts are taken, so agreement with the package's
block machinery is a genuine two-route check.
"""

import math
from functools import reduce

import numpy as np
from scipy.special import gammaln

_HALF_X = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_HALF_Y = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
_HALF_Z = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = op
    return reduce(np.kron, mats)


def collective_spin(n: int):
    """Total spin components (S_x, S_y, S_z) as dense 2^n matrices."""
    dim = 2**n
    out = []
    for local in (_HALF_X, _HALF_Y, _HALF_Z):
        total = np.zeros((dim, dim), dtype=complex)
        for site in range(n):
            total += _embed(local, site, n)
        out.append(total)
    return tuple(out)


def tensor_power(rho: np.ndarray, n: int) -> np.ndarray:
    return reduce(np.kron, [rho] * n)


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis (columns) via SVD."""
    _, s, vh = np.linalg.svd(mat)
    tol = max(mat.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s > max(tol, 1e-10)))
    return vh[rank:].conj().T


def isotypic_isometries(n: int) -> dict:
    """j -> isometry V_j of shape (2^n, (2j+1) * n_j).

    Column (k, a) (flattened k-major) is the k-th ladder vector
    (S_-)^k w_a / |...| grown from the a-th highest-weight vector w_a,
    so k = j - m counts lowered excitations exactly as the package's
    block basis does.
    """
    sx, sy, sz = collective_spin(n)
    sp = sx + 1j * sy
    sm = sx - 1j * sy
    dim = 2**n
    out = {}
    j = n / 2.0
    while j > -0.25:
        tj = int(round(2 * j))
        highest = _null_space(np.vstack([sp, sz - j * np.eye(dim)]))
        n_j = highest.shape[1]
        if n_j == 0:
            break
        cols = np.empty((dim, (tj + 1) * n_j), dtype=complex)
        for a in range(n_j):
            v = highest[:, a]
            for k in range(tj + 1):
                cols[:, k * n_j + a] = v
                if k < tj:
                    v = sm @ v
                    v = v / np.linalg.norm(v)
        gram = cols.conj().T @ cols
        if not np.allclose(gram, np.eye(cols.shape[1]), atol=1e-10):
            raise AssertionError(f"ladder basis for j={j} is not orthonormal")
        out[j] = cols
        j -= 1.0
    total = sum(v.shape[1] for v in out.values())
    if total != dim:
        raise AssertionError(f"isotypic dimensions sum to {total} != {dim}")
    return out


def assemble_from_blocks(n: int, weights: dict, blocks: dict, isometries=None):
    """Sum_j V_j (w_j * rho_j (x) I/n_j) V_j^dag on the full 2^n space."""
    iso = isometries if isometries is not None else isotypic_isometries(n)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for j, v in iso.items():
        tj = int(round(2 * j))
        n_j = v.shape[1] // (tj + 1)
        inner = np.kron(
            np.asarray(blocks[j], dtype=complex), np.eye(n_j) / n_j
        ) * weights[j]
        full += v @ inner @ v.conj().T
    return full


def exact_block_weight(n: int, j: float, mu) -> float:
    """Closed-form block weight, independent of the package's route.

    n_j (mu (1-mu))^{n/2-j} (mu^{2j+1} - (1-mu)^{2j+1}) / (2 mu - 1)
    with the multiplicity n_j = C(n, n/2-j) - C(n, n/2-j-1).  Works with
    floats or fractions.Fraction (pass mu as Fraction for exact values).
    """
    tj = int(round(2 * j))
    k = (n - tj) // 2
    n_j = math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)
    lam = 1 - mu
    geom = (mu ** (tj + 1) - lam ** (tj + 1)) / (mu - lam)
    return n_j * (mu * lam) ** k * geom


def block_probability_factored(params, u, j) -> tuple[float, float]:
    """p_{n,u}(j) as (B, K) with B a binomial pmf term and K -> 1.

    B = C(n, n/2+j) mu_u^{n/2+j} (1-mu_u)^{n/2-j} is the binomial
    probability of n/2 + j successes; K collects the multiplicity ratio and
    geometric tail and tends to 1 on the typical window.  B * K equals
    ``qlan.spin_blocks.block_probability`` to relative rounding error.
    """
    tj = int(round(2 * j))
    n = params.n
    mu = params.mu_u(u)
    p = (1.0 - mu) / mu
    half = tj / 2.0
    log_b = (
        gammaln(n + 1.0)
        - gammaln(n / 2.0 + half + 1.0)
        - gammaln(n / 2.0 - half + 1.0)
        + (n / 2.0 + half) * math.log(mu)
        + (n / 2.0 - half) * math.log(1.0 - mu)
    )
    k_factor = (
        (tj + 1.0)
        / (n / 2.0 + half + 1.0)
        * mu
        * (1.0 - p ** (tj + 1))
        / (2.0 * mu - 1.0)
    )
    return float(np.exp(log_b)), float(k_factor)
