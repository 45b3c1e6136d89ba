"""Brute-force n-qubit decomposition oracle (n <= 8 or so), and dense
block states.

Builds the isotypic isometries of the collective SU(2) action on
(C^2)^{(x) n} directly: for each total spin j the highest-weight subspace
is recovered as the joint null space of S_+ and (S_z - j), and ladder
orbits of S_- provide an orthonormal basis of each irreducible block.
No combinatorial shortcuts are taken, so agreement with the package's
block machinery is a genuine two-route check.

The package keeps every block state on a certified corner built from the
top of its ladder.  Two oracles build the whole block instead:
:func:`block_state` rotates it densely with the spin matrices (O((2j+1)^3),
small j only), and :func:`full_ladder_state` runs inverse iteration on the
full 2j + 1 levels of the rotated ladder (any j up to a few thousand).
The package keeps those corners real in their gauge; :func:`fock_basis`
phases one back to the Fock basis the oracles work in.
"""

import math
from functools import reduce

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammaln

from qlan.spin_blocks import _two_j, gauge_angle
from qlan.tolerances import VALIDATION_TOL

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
    geometric tail and tends to 1 on the typical window.  B * K equals the
    ``qlan.spin_blocks.block_pmf_window`` term to relative rounding error.
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


def spin_matrices(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_x, J_y, J_z) for spin j in the basis |j, m>, m = j, j-1, ..., -j.

    Equivalently: row/column k = j - m counts excitations, and J_+ lowers k
    with matrix element sqrt(k (2j + 1 - k)).
    """
    tj = int(round(2.0 * float(j)))
    if abs(2.0 * float(j) - tj) > 1e-9 or tj < 0:
        raise ValueError(f"j = {j} is not a nonnegative half-integer")
    d = tj + 1
    k = np.arange(1, d, dtype=float)
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(d - 1), np.arange(1, d)] = np.sqrt(k * (tj + 1.0 - k))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag((tj / 2.0) - np.arange(d, dtype=float)).astype(complex)
    return jx, jy, jz


def rotation_unitary(j, v) -> np.ndarray:
    """exp(2i (v_x J_x + v_y J_y)) for spin j, v = (v_x, v_y), through the
    eigendecomposition of the Hermitian generator."""
    jx, jy, _ = spin_matrices(j)
    w, vmat = np.linalg.eigh(2.0 * (float(v[0]) * jx + float(v[1]) * jy))
    return (vmat * np.exp(1j * w)) @ vmat.conj().T


def block_state(params, u, j) -> np.ndarray:
    """Block j's full (2j+1)-level state: the normalized geometric weights
    p_u^k on the k-ladder, conjugated by the dense block rotation."""
    tj = _two_j(params.n, j)
    w = params.p_u(u) ** np.arange(tj + 1, dtype=float)
    rn = math.sqrt(params.n)
    r = rotation_unitary(tj / 2.0, (u[0] / rn, u[1] / rn))
    return (r * (w / w.sum())) @ r.conj().T


def full_ladder_state(params, u, j, n_vec: int) -> np.ndarray:
    """Block j's state from its n_vec leading rotated ladder vectors, each
    built by inverse iteration on all 2j + 1 levels of the rotated
    excitation count R (j - J_z) R^dag (no leading block, no certificate).

    The diagonal is cos(theta) k and the eigenvalues k - 2 sin^2(theta/2) j:
    the unshifted form cos(theta) (j - k) of R J_z R^dag rounds at j eps and
    agrees with this one only to about 1e-14 in trace norm at n = 400.
    """
    tj = _two_j(params.n, j)
    d = tj + 1
    n_vec = min(n_vec, d)
    k = np.arange(d, dtype=float)
    w = params.p_u(u) ** k
    w /= w.sum()
    theta = 2.0 * math.hypot(u[0], u[1]) / math.sqrt(params.n)
    if theta < 1e-30 or d == 1:
        # inverse iteration on couplings this weak underflows its pivots;
        # they move no entry by more than about 1e-27
        z = np.eye(d, n_vec)
    else:
        off = -0.5 * math.sin(theta) * np.sqrt(k[1:] * (tj + 1.0 - k[1:]))
        split = np.zeros(d, dtype=np.int32)
        split[0] = d
        shift = math.sin(0.5 * theta) ** 2 * tj
        z, info = lapack.dstein(
            math.cos(theta) * k, off, k[:n_vec] - shift, np.ones(d, dtype=np.int32), split
        )
        assert info == 0
    return fock_basis((z * w[:n_vec]) @ z.T, gauge_angle(u))


def fock_basis(corner: np.ndarray, chi: float) -> np.ndarray:
    """A state kept in its gauge (a real corner, ``qlan.spin_blocks.ladder_corner``)
    back in the Fock basis: conjugated by diag(e^{i chi k})."""
    phase = np.exp(1j * chi * np.arange(corner.shape[-1]))
    return corner * np.outer(phase, phase.conj())


# Dense qubit states and the Uhlmann fidelity: the oracles of
# ``qlan.operator_core``'s Bloch-vector forms, which the package uses.

# eigenvalues of nominally PSD matrices in [-EIG_CLIP, 0] are rounding and
# clipped to 0; anything below is a genuine negativity
EIG_CLIP = 1e-10


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    if w[0] < -EIG_CLIP:
        raise ValueError(f"matrix is not PSD: eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity F(a, b) = Tr sqrt(sqrt(a) b sqrt(a)), in [0, 1].

    Eigenvalues in [-1e-10, 0] arising from rounding are clipped to zero;
    genuinely negative inputs raise.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ra = _psd_sqrt(a)
    inner = ra @ b @ ra
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if w[0] < -EIG_CLIP:
        raise ValueError(f"inner matrix not PSD: eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(w))))




def bloch_to_density(r) -> np.ndarray:
    """Map a Bloch vector (r_x, r_y, r_z), |r| <= 1, to the qubit state."""
    rx, ry, rz = (float(c) for c in r)
    norm = np.sqrt(rx * rx + ry * ry + rz * rz)
    if norm > 1.0 + VALIDATION_TOL:
        raise ValueError(f"Bloch vector has norm {norm:.12f} > 1")
    return 0.5 * np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
    )
