"""Total-spin block decomposition of n independent, identical qubits.

``n`` copies of a qubit state with eigenvalues ``(mu, 1-mu)``, rotated by a
small transverse parameter, decompose over the isotypic components of the
symmetric/antisymmetric structure of ``(C^2)^{(x)n}``: a classical index
``j`` (total spin) occurring with multiplicity ``n_j``, and inside each
block a ``(2j+1)``-dimensional state that is a rotated, truncated geometric
(thermal-like) state.  This module provides the exact block probabilities,
block states, spin operators, and the typical-``j`` window used everywhere
else in the package.

Conventions
-----------
* Block bases are ordered by ``k = j - m`` ascending (``m`` descending from
  ``+j``), so ``k`` counts excitations away from the top of the ladder.
* ``j`` values are stored internally as doubled integers ``2j`` so that
  half-integer spins are exact; the public API accepts/returns floats.
* The local parameter ``u`` rescales as ``u / sqrt(n)``; admissibility of
  the shifted eigenvalue ``mu_u = mu + u_z / sqrt(n)`` is checked on every
  call that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammaln, rel_entr

from .operator_core import embed_block
from .tolerances import CORNER_TAIL_MASS, WINDOW_TAIL_MASS


@dataclass(frozen=True)
class LocalParams:
    """Local parameter u = (u_x, u_y, u_z) around a reference state.

    ``u_x, u_y`` generate the rotation ``exp(i(u_x sigma_x + u_y sigma_y))``
    and ``u_z`` shifts the larger eigenvalue, all at scale ``1/sqrt(n)``.
    """

    ux: float
    uy: float
    uz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.ux, self.uy, self.uz], dtype=float)

    def norm(self) -> float:
        return float(np.sqrt(self.ux**2 + self.uy**2 + self.uz**2))

    @property
    def phase_angle(self) -> float:
        """chi = arg(-u_y + i u_x): conjugated by diag(e^{-i chi k}), the
        rotated block states and the limit's displaced thermal state are
        real matrices in the k-ladder (Fock) basis."""
        return math.atan2(self.ux, -self.uy)

    @staticmethod
    def zero() -> "LocalParams":
        return LocalParams(0.0, 0.0, 0.0)


def as_local(u) -> LocalParams:
    """Coerce a LocalParams or length-3 sequence to LocalParams."""
    if isinstance(u, LocalParams):
        return u
    arr = np.asarray(u, dtype=float).reshape(-1)
    if arr.size != 3:
        raise ValueError(f"local parameter needs 3 components, got {arr.size}")
    return LocalParams(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class ModelParams:
    """Reference model: n qubits with eigenvalues (mu, 1-mu), 1/2 < mu < 1.

    ``mu`` may also be an array of reference eigenvalues sharing ``n``, one
    per trial of the estimator's batched stage 2; the block functions of
    this module take a scalar ``mu``.
    """

    mu: float
    n: int

    def __post_init__(self):
        if not np.all((0.5 < self.mu) & (self.mu < 1.0)):
            raise ValueError(
                f"mu = {self.mu} outside the model range (1/2, 1): the larger "
                "eigenvalue must exceed 1/2 strictly and be below 1"
            )
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self) -> float:
        """Geometric ratio (1 - mu) / mu of the reference block states."""
        return (1.0 - self.mu) / self.mu

    @property
    def j_n(self) -> float:
        """Center of the typical total-spin window, n (mu - 1/2)."""
        return self.n * (self.mu - 0.5)

    def mu_u(self, u) -> float:
        """Shifted eigenvalue mu + u_z / sqrt(n); errors if inadmissible."""
        u = as_local(u)
        val = self.mu + u.uz / math.sqrt(self.n)
        if not (0.5 < val < 1.0):
            raise ValueError(
                f"shifted eigenvalue mu_u = {val:.6g} (mu = {self.mu}, "
                f"u_z = {u.uz}, n = {self.n}) lies outside the admissible "
                "range (1/2, 1)"
            )
        return val

    def p_u(self, u) -> float:
        m = self.mu_u(u)
        return (1.0 - m) / m


def valid_j_values(n: int) -> np.ndarray:
    """All total-spin values for n qubits: j = n/2, n/2 - 1, ..., (0 or 1/2)."""
    return np.arange(n % 2, n + 1, 2, dtype=float) / 2.0


def _two_j(n: int, j) -> int:
    tj = int(round(2.0 * float(j)))
    if abs(2.0 * float(j) - tj) > 1e-9:
        raise ValueError(f"j = {j} is not a half-integer")
    if (tj - n) % 2 != 0:
        raise ValueError(f"j = {j} has wrong parity for n = {n} qubits")
    if tj < 0 or tj > n:
        raise ValueError(f"j = {j} outside [{(n % 2) / 2}, {n / 2}] for n = {n}")
    return tj


def multiplicity(n: int, j) -> int:
    """Exact multiplicity n_j = C(n, n/2-j) - C(n, n/2-j-1) of spin j."""
    tj = _two_j(n, j)
    k = (n - tj) // 2
    low = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - low


def _log_multiplicity(n: int, tj_arr: np.ndarray) -> np.ndarray:
    # ln n_j = ln C(n, (n-2j)/2) + ln((2j+1)/(n/2+j+1)); stable for large n.
    k = (n - tj_arr) / 2.0
    log_binom = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    return log_binom + np.log(tj_arr + 1.0) - np.log(n / 2.0 + tj_arr / 2.0 + 1.0)


def _log_probability(params: ModelParams, u, tj_arr: np.ndarray) -> np.ndarray:
    """log p_{n,u}(j), vectorized over an array of doubled j values."""
    n = params.n
    mu = params.mu_u(u)
    p = (1.0 - mu) / mu
    half = tj_arr / 2.0
    log_tail = np.log1p(-np.exp((tj_arr + 1.0) * math.log(p)))
    return (
        _log_multiplicity(n, tj_arr)
        - math.log(2.0 * mu - 1.0)
        + (n / 2.0 - half) * math.log(1.0 - mu)
        + (n / 2.0 + half + 1.0) * math.log(mu)
        + log_tail
    )


def block_probability(params: ModelParams, u, j) -> float:
    """Probability p_{n,u}(j) of total spin j under the shifted state.

    Computed in log space; sums to 1 over ``valid_j_values(n)``.
    """
    tj = _two_j(params.n, j)
    return float(np.exp(_log_probability(params, u, np.array([tj], dtype=float)))[0])


def classical_coordinate(params: ModelParams, j) -> np.ndarray:
    """Rescaled block index g_n(j) = j/sqrt(n) - sqrt(n)(mu - 1/2)."""
    j = np.asarray(j, dtype=float)
    rn = math.sqrt(params.n)
    return j / rn - rn * (params.mu - 0.5)


def typical_set(params: ModelParams, eps: float) -> tuple[float, float]:
    """Window [j_n - n^(1/2+eps), j_n + n^(1/2+eps)] snapped to valid j.

    Requires 0 < eps < 1/4.  Endpoints are clamped to the valid-j lattice
    for ``params.n`` qubits, so presence of the parity offset is automatic.
    """
    if not (0.0 < eps < 0.25):
        raise ValueError(f"eps = {eps} outside (0, 1/4)")
    n = params.n
    w = float(n) ** (0.5 + eps)
    lo_raw, hi_raw = params.j_n - w, params.j_n + w
    parity = n % 2
    # snap inward onto the lattice 2j = parity, parity+2, ..., n
    tj_lo = max(parity, int(math.ceil((2.0 * lo_raw - parity) / 2.0)) * 2 + parity)
    tj_hi = min(n, int(math.floor((2.0 * hi_raw - parity) / 2.0)) * 2 + parity)
    if tj_lo > tj_hi:
        tj_lo = tj_hi
    return tj_lo / 2.0, tj_hi / 2.0


def block_pmf_window(
    params: ModelParams, u, tail: float = WINDOW_TAIL_MASS
) -> tuple[np.ndarray, np.ndarray, float]:
    """j values and probabilities covering all but at most ``tail`` of the mass.

    Returns ``(j_values, probs, dropped)`` where ``dropped`` is an upper
    bound on the mass outside the returned window (see
    :func:`_outside_mass_bound`; 0 when the window is the full lattice).
    The window starts at ten standard deviations of the binomial part and
    widens until that bound meets the target tail.
    """
    n = params.n
    mu = params.mu_u(u)
    center = n * (mu - 0.5)
    sigma = math.sqrt(n * mu * (1.0 - mu))
    width = max(10.0 * sigma, 20.0)
    parity = n % 2
    while True:
        tj_lo = max(parity, 2 * int(math.floor((center - width))) - 2)
        tj_lo += (tj_lo - parity) % 2
        tj_hi = min(n, 2 * int(math.ceil(center + width)) + 2)
        tj_hi -= (tj_hi - parity) % 2
        dropped = _outside_mass_bound(n, mu, tj_lo, tj_hi)
        if dropped <= tail:
            break
        width *= 1.6
    tj = np.arange(tj_lo, tj_hi + 1, 2, dtype=float)
    return tj / 2.0, np.exp(_log_probability(params, u, tj)), dropped


def _outside_mass_bound(n: int, mu: float, tj_lo: int, tj_hi: int) -> float:
    """Upper bound on the mass of p_{n,mu}(j) outside tj_lo <= 2j <= tj_hi.

    Each term is dominated by a binomial one:
    p(j) = n_j (mu (1-mu))^{n/2-j} (mu^{2j+1} - (1-mu)^{2j+1}) / (2mu-1)
    <= mu / (2mu-1) * b(n/2 + j), with b the Bin(n, mu) pmf, because
    n_j <= C(n, n/2-j) and the geometric factor is at most mu^{2j+1}.
    The binomial tails past the window's edges obey the Chernoff bounds
    P(X <= x) <= exp(-n D(x/n || mu)) for x <= n mu and
    P(X >= x) <= exp(-n D(x/n || mu)) for x >= n mu, with D the Bernoulli
    relative entropy; an edge on the near side of the mean counts 1.
    """
    total = 0.0
    for x, side, empty in (
        ((n + tj_lo) / 2.0 - 1.0, -1.0, tj_lo <= n % 2),  # last n/2 + j below
        ((n + tj_hi) / 2.0 + 1.0, 1.0, tj_hi >= n),  # first n/2 + j above
    ):
        if empty:
            continue
        q = x / n
        if (q - mu) * side < 0.0:
            total += 1.0
        else:
            total += math.exp(-n * float(rel_entr(q, mu) + rel_entr(1.0 - q, 1.0 - mu)))
    return mu / (2.0 * mu - 1.0) * total


def sample_block_index(params: ModelParams, u, rng: np.random.Generator, size=None):
    """Draw total-spin indices j by inverse CDF on the window of
    :func:`block_pmf_window`, renormalized.

    The draws follow p_{n,u} restricted to that window, within total
    variation ``dropped`` <= 1e-12 of p_{n,u}.  Returns a float (or float
    array for ``size``).
    """
    j_vals, probs, _ = block_pmf_window(params, u)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    draws = rng.random(size)
    idx = np.searchsorted(cdf, draws, side="right")
    idx = np.minimum(idx, len(j_vals) - 1)
    out = j_vals[idx]
    return float(out) if size is None else out


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
    raise_elem = np.sqrt(k * (tj + 1.0 - k))  # <k-1| J_+ |k>
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(d - 1), np.arange(1, d)] = raise_elem
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag((tj / 2.0) - np.arange(d, dtype=float)).astype(complex)
    return jx, jy, jz


def _corner_xy(tj: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """J_x, J_y restricted to the first ``dim`` levels of the k-ladder."""
    k = np.arange(1, dim, dtype=float)
    raise_elem = np.sqrt(k * (tj + 1.0 - k))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = raise_elem
    jm = jp.conj().T
    return 0.5 * (jp + jm), -0.5j * (jp - jm)


def rotation_unitary(j, v) -> np.ndarray:
    """exp(2i (v_x J_x + v_y J_y)) for spin j, v = (v_x, v_y).

    Computed through the eigendecomposition of the Hermitian generator, so
    the result is unitary to rounding for any spin size.
    """
    vx, vy = float(v[0]), float(v[1])
    jx, jy, _ = spin_matrices(j)
    return _expm_i_herm(2.0 * (vx * jx + vy * jy))


def _expm_i_herm(h: np.ndarray) -> np.ndarray:
    w, vmat = np.linalg.eigh(h)
    return (vmat * np.exp(1j * w)) @ vmat.conj().T


def block_state(params: ModelParams, u, j, dim: int | None = None) -> np.ndarray:
    """State inside the spin-j block for local parameter u.

    A geometric distribution (ratio ``p_u``) over the k-ladder, truncated at
    the block dimension and normalized, conjugated by the block rotation
    ``exp(2i (u_x J_x + u_y J_y) / sqrt(n))``.

    ``dim`` (optional, <= 2j+1) keeps only the first ``dim`` levels of the
    ladder — a corner truncation for large blocks whose population decays
    geometrically; the kept weights are renormalized.
    """
    u = as_local(u)
    tj = _two_j(params.n, j)
    d_full = tj + 1
    if dim is None:
        dcut = d_full
    else:
        if dim < 1 or dim > d_full:
            raise ValueError(f"dim = {dim} outside [1, 2j+1] = [1, {d_full}]")
        dcut = int(dim)
    p = params.p_u(u)
    log_w = np.arange(dcut, dtype=float) * math.log(p)
    w = np.exp(log_w)
    # for dcut = 2j+1 this is exactly (1-p) p^k / (1 - p^(2j+1))
    w /= w.sum()
    vx = u.ux / math.sqrt(params.n)
    vy = u.uy / math.sqrt(params.n)
    if vx == 0.0 and vy == 0.0:
        return np.diag(w).astype(complex)
    jx, jy = _corner_xy(tj, dcut)
    r = _expm_i_herm(2.0 * (vx * jx + vy * jy))
    return (r * w) @ r.conj().T


def block_corners(params: ModelParams, u, js) -> tuple[np.ndarray, np.ndarray]:
    """Corners P_j rho_j P_j of the block states, each on its own first D_j
    ladder levels.

    D_j is the smallest size at which block j's tail mass
    tr((1 - P_j) rho_j) is at most ``CORNER_TAIL_MASS``.  The blocks are
    built one at a time and only their corners kept; the corners are then
    zero-padded to the widest, D = max D_j.  Returns ``(corners, tails)``
    of shapes (len(js), D, D) and (len(js),).

    rho_j = R diag(w) R^dag is a function of the rotated spin component
    R J_z R^dag, a tridiagonal matrix whose eigenvalue j - k has eigenvector
    R e_k.  Only the K vectors whose geometric weights exceed
    ``CORNER_TAIL_MASS / 2`` are built, by inverse iteration at the known
    eigenvalues: O(K (2j+1)) work per block instead of a full ``eigh``.
    Each tail is summed from the discarded amplitudes, plus the weight of
    the vectors never built, so it is an upper bound on the true tail.
    """
    u = as_local(u)
    p = params.p_u(u)
    vx = u.ux / math.sqrt(params.n)
    vy = u.uy / math.sqrt(params.n)
    kept = []
    tails = np.empty(len(js))
    for i, j in enumerate(js):
        z, w, phase, rest = _rotated_ladder(_two_j(params.n, j), p, vx, vy, u.phase_angle)
        # profile[D] = tail mass outside the first D levels, D = 0 .. 2j+1
        profile = np.append(np.cumsum(((z * z) @ w)[::-1])[::-1], 0.0) + rest
        m = int(np.argmax(profile <= CORNER_TAIL_MASS))
        kept.append(((z[:m] * w) @ z[:m].T) * np.outer(phase[:m], phase[:m].conj()))
        tails[i] = profile[m]
    dim = max(c.shape[0] for c in kept)
    corners = np.empty((len(kept), dim, dim), dtype=complex)
    for i, c in enumerate(kept):
        corners[i] = embed_block(c, dim)
    return corners, tails


def _rotated_ladder(tj: int, p: float, vx: float, vy: float, chi: float):
    """Leading rotated ladder vectors of the spin-(tj/2) block state.

    Returns ``(z, w, phase, rest)``: R e_k = phase * z[:, k] up to a sign
    for k < K, the block's normalized geometric weights ``w`` for k < K,
    and ``rest``, the weight of the vectors left out (<= half the corner
    tail budget).
    """
    d = tj + 1
    w = np.exp(np.arange(d, dtype=float) * math.log(p))
    w /= w.sum()
    left = np.cumsum(w[::-1])[::-1]  # left[K] = sum_{k >= K} w_k
    n_vec = int(np.count_nonzero(left > 0.5 * CORNER_TAIL_MASS))
    rest = float(left[n_vec]) if n_vec < d else 0.0
    levels = np.arange(d, dtype=float)
    phase = np.exp(1j * chi * levels)
    theta = 2.0 * math.hypot(vx, vy)
    if theta == 0.0 or d == 1:
        return np.eye(d, n_vec), w[:n_vec], phase, rest
    # R J_z R^dag = cos(theta) J_z + sin(theta) (vx J_y - vy J_x) / |v|; the
    # gauge diag(e^{i chi k}) makes its off-diagonal sin(theta) |<k-1|J_+|k>| / 2
    k = levels[1:]
    off = 0.5 * math.sin(theta) * np.sqrt(k * (tj + 1.0 - k))
    diag = math.cos(theta) * (0.5 * tj - levels)
    eigvals = 0.5 * tj - np.arange(n_vec - 1, -1, -1, dtype=float)  # ascending
    split = np.zeros(d, dtype=np.int32)
    split[0] = d  # one unreduced block
    z, info = lapack.dstein(diag, off, eigvals, np.ones(d, dtype=np.int32), split)
    if info != 0:
        raise np.linalg.LinAlgError(f"inverse iteration did not converge (info = {info})")
    return z[:, ::-1], w[:n_vec], phase, rest


def local_qubit_state(mu: float, v) -> np.ndarray:
    """Single-qubit state with eigenvalues (mu + v_z, 1 - mu - v_z) rotated
    by exp(i (v_x sigma_x + v_y sigma_y)).

    ``v`` may be a LocalParams or a 3-sequence (already at scale 1, i.e.
    pass ``u / sqrt(n)`` for the n-qubit local family).
    """
    v = as_local(v)
    lam = mu + v.uz
    if not (0.0 <= lam <= 1.0):
        raise ValueError(
            f"eigenvalue mu + v_z = {lam:.6g} outside [0, 1]; the local "
            "family leaves state space"
        )
    diag = np.diag([lam, 1.0 - lam]).astype(complex)
    if v.ux == 0.0 and v.uy == 0.0:
        return diag
    r = rotation_unitary(0.5, (v.ux, v.uy))
    return r @ diag @ r.conj().T
