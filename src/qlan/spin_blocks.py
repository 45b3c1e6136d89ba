"""Total-spin block decomposition of n independent, identical qubits.

``n`` copies of a qubit state with eigenvalues ``(mu, 1-mu)``, rotated by a
small transverse parameter, decompose over the isotypic components of the
symmetric/antisymmetric structure of ``(C^2)^{(x)n}``: a classical index
``j`` (total spin) occurring with multiplicity ``n_j``, and inside each
block a ``(2j+1)``-dimensional state that is a rotated, truncated geometric
(thermal-like) state.  This module provides the exact block probabilities
on the window of ``j`` the channels sum over (the shortest run that leaves
at most ``WINDOW_TAIL_MASS`` out, that mass summed term by term), the
typical set ``j_n +- n^(1/2+eps)``, an exact sampler of ``j``
that needs no window, the block states and their ladder vectors.

The top of each block behaves as an oscillator mode: a block state, and the
displaced thermal state it tends to, are Gibbs weights on the eigenvectors
of a rotated excitation count, a real tridiagonal matrix with spectrum
0, 1, 2, ...  :func:`ladder_corner` builds any such state on its certified
Fock corner from the top of the ladder alone, at a cost that does not grow
with the block; every block and limit state in the package comes from it.
It returns the state in its gauge, where it is real; that changes no trace
norm, so the package keeps every corner real, and only :func:`block_state`
phases one back to the Fock basis.  For the exact sampler,
:func:`block_vector` builds one vector R e_k of a block by the same
certified loop, at a level k drawn by :func:`ladder_level`.

Conventions
-----------
* Block bases are ordered by ``k = j - m`` ascending (``m`` descending from
  ``+j``), so ``k`` counts excitations away from the top of the ladder.
* ``j`` values are stored internally as doubled integers ``2j`` so that
  half-integer spins are exact; the public API accepts/returns floats.
* The local parameter ``u = (u_x, u_y, u_z)``, a float triple (``(3, B)``
  columns for a batch), rotates by ``exp(i(u_x sigma_x + u_y sigma_y))``
  and shifts the larger eigenvalue, all at scale ``1/sqrt(n)``; ``mu_u = mu
  + u_z / sqrt(n)`` is checked to be admissible on every call that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy is imported where it is used, so that `import qlan.cli` needs numpy alone

from .operator_core import embed_block
from .tolerances import CORNER_TAIL_MASS, WINDOW_TAIL_MASS


def gauge_angle(u):
    """chi = arg(-u_y + i u_x), the gauge of u (or of each (3, B) column):
    conjugated by diag(e^{-i chi k}), the rotated block states and the
    limit's displaced thermal state are real in the k-ladder (Fock) basis."""
    return np.arctan2(u[0], -u[1])


@dataclass(frozen=True)
class ModelParams:
    """Reference model: n qubits with eigenvalues (mu, 1-mu), 1/2 < mu < 1."""

    mu: float
    n: int

    def __post_init__(self):
        if np.ndim(self.mu) != 0:
            raise ValueError(f"mu must be a scalar, got an array of shape {np.shape(self.mu)}")
        if not 0.5 < self.mu < 1.0:
            raise ValueError(
                f"mu = {self.mu} outside the model range (1/2, 1): the larger "
                "eigenvalue must exceed 1/2 strictly and be below 1"
            )
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def j_n(self) -> float:
        """Center of the typical total-spin window, n (mu - 1/2)."""
        return self.n * (self.mu - 0.5)

    def mu_u(self, u) -> float:
        """Shifted eigenvalue mu + u_z / sqrt(n); errors if inadmissible."""
        _, _, uz = u
        val = self.mu + uz / math.sqrt(self.n)
        if not (0.5 < val < 1.0):
            raise ValueError(
                f"shifted eigenvalue mu_u = {val:.6g} (mu = {self.mu}, "
                f"u_z = {uz}, n = {self.n}) lies outside the admissible "
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
    """2j of a spin j of n qubits (a half-integer of n's parity in [0, n/2]), else ValueError."""
    tj = int(round(2.0 * float(j)))
    if abs(2.0 * float(j) - tj) > 1e-9:
        raise ValueError(f"j = {j} is not a half-integer")
    if (tj - n) % 2 != 0:
        raise ValueError(f"j = {j} has wrong parity for n = {n} qubits")
    if tj < 0 or tj > n:
        raise ValueError(f"j = {j} outside [{(n % 2) / 2}, {n / 2}] for n = {n}")
    return tj


def _log_probability(params: ModelParams, u, tj: np.ndarray) -> np.ndarray:
    """ln p_{n,u}(j) less its value at the mode, on the ascending run ``tj``
    of doubled j values, as sums from the mode of the logs of the exact ratios
    p(j+1)/p(j) = [k/(n-k+1)] [mu/(1-mu)] [(2j+3)(n/2+j+1) / ((2j+1)(n/2+j+2))]
    [(1 - p^{2j+3}) / (1 - p^{2j+1})], k = n/2 - j, p = (1-mu)/mu, of p(j) =
    C(n, k) (2j+1)/(n/2+j+1) (mu (1-mu))^k (mu^{2j+1} - (1-mu)^{2j+1}) / (2mu-1).
    Each factor falls with j: the pmf is unimodal.  A ratio is within 7 eps
    (eps = 2^-52; ln p's error moves only the telescoping last factor, by 2 eps
    in all), its log adds 2 eps |log| and each partial sum eps/2 of itself: a
    term d steps from the mode, Lambda = ln(p_mode / p_j), is off by a relative
    ((8 + Lambda/2) d + 2 Lambda + 4) eps at most, and normalizing L terms adds
    their p-weighted mean error and (10 + log2 L) eps.
    """
    n, mu = params.n, params.mu_u(u)
    log_p = math.log1p((1.0 - 2.0 * mu) / mu)
    k, tj = (n - tj[:-1]) / 2.0, tj[:-1]  # each ratio steps from j to j + 1
    steps = np.log(
        k / (n - k + 1.0) * (mu / (1.0 - mu))
        * ((tj + 3.0) * (n - k + 1.0)) / ((tj + 1.0) * (n - k + 2.0))
        * np.expm1((tj + 3.0) * log_p) / np.expm1((tj + 1.0) * log_p)
    )
    mode = int(np.count_nonzero(steps > 0.0))  # the steps fall with j
    return np.concatenate((-np.cumsum(steps[:mode][::-1])[::-1], [0.0], np.cumsum(steps[mode:])))


def classical_coordinate(params: ModelParams, j) -> np.ndarray:
    """Rescaled block index g_n(j) = j/sqrt(n) - sqrt(n)(mu - 1/2)."""
    j = np.asarray(j, dtype=float)
    rn = math.sqrt(params.n)
    return j / rn - rn * (params.mu - 0.5)


def kernel_sd(n: int) -> float:
    """Standard deviation sqrt(1/(2 sqrt(n))) of the kernel that smooths g_n(j)."""
    return math.sqrt(0.5 / math.sqrt(n))


def typical_set(params: ModelParams, eps: float) -> tuple[float, float]:
    """Window [j_n - n^(1/2+eps), j_n + n^(1/2+eps)] snapped to valid j.

    Requires 0 < eps < 1/4.  Endpoints are clamped to the valid-j lattice
    for ``params.n`` qubits, so presence of the parity offset is automatic.
    The window is never empty: it is at least 2 wide about j_n in (0, n/2).
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
    return tj_lo / 2.0, tj_hi / 2.0


def block_pmf_window(params: ModelParams, u) -> tuple[np.ndarray, np.ndarray, float]:
    """The shortest run of the valid j lattice whose two tails each hold at
    most ``WINDOW_TAIL_MASS / 2`` of p_{n,u}, found on the whole lattice,
    where :func:`_log_probability`'s terms are normalized.

    Returns ``(j_values, probs, dropped)``, ``dropped`` the sum of the
    terms outside the run (0 when the run is the whole lattice).
    """
    js = valid_j_values(params.n)
    probs = np.exp(_log_probability(params, u, 2.0 * js))
    probs /= probs.sum()
    half = 0.5 * WINDOW_TAIL_MASS
    # each tail is summed from its far end, smallest terms first
    lo = int(np.searchsorted(np.cumsum(probs), half, side="right"))
    hi = len(probs) - int(np.searchsorted(np.cumsum(probs[::-1]), half, side="right"))
    dropped = float(probs[:lo].sum() + probs[hi:].sum())
    return js[lo:hi], probs[lo:hi], dropped


def sample_block_index(n: int, mu, rng: np.random.Generator) -> np.ndarray:
    """One total-spin index j of n qubits per entry of the (B,) shifted
    eigenvalues ``mu``, as floats, drawn exactly and without a window.

    By RSK (Keyl and Werner, PRA 64, 052311, 2001; O'Donnell and Wright,
    STOC 2016), j = max_k S_k - S_n / 2 for a +-1 walk S of n steps with
    P(+1) = mu.  Given N ~ Bin(n, mu) up-steps, P(max S >= m) = C(n, n - N +
    m) / C(n, N) for m >= max(S_n, 0) (reflection principle), which is 1 at
    m = max(S_n, 0) and gains a factor (N - m) / (n - N + m + 1) per step up:
    the maximum is drawn by inverse CDF, stepping m up while that running
    product stays >= U, s steps rounding it by about s ulps.  The excess is
    about geometric with ratio (1 - mu) / mu, so B draws take O(log B /
    log(mu / (1 - mu))) vectorized passes (the estimator only reaches mu_u >=
    1/2 + ``MODEL_MARGIN``).  The walk law holds for any mu in [0, 1]; it is
    the block law p_{n,u} for mu in (1/2, 1).
    """
    mu = np.asarray(mu, dtype=float)
    up = rng.binomial(n, mu)
    down = n - up
    level = 1.0 - rng.random(len(mu))  # U in (0, 1]
    m, tail = np.maximum(up - down, 0), np.ones(len(mu))
    while True:
        nxt = tail * (up - m) / (down + m + 1.0)  # P(max S >= m + 1), 0 at m = N
        if not (step := nxt >= level).any():
            return m - (up - down) / 2.0
        m, tail = m + step, np.where(step, nxt, tail)


def ladder_level(p, levels, uniform) -> np.ndarray:
    """Level k < ``levels`` of the truncated geometric law w_k ~ p^k at each
    ``uniform`` U in [0, 1), as floats, by its inverse CDF k = floor(log1p(-U
    (1 - p^levels)) / log p), clamped below ``levels`` against rounding."""
    log_p = np.log(p)
    k = np.floor(np.log1p(uniform * np.expm1(levels * log_p)) / log_p)
    return np.minimum(k, levels - 1.0)


def _ladder_vectors(levels, scale, offset, coupling, ks, w, rest: float, tail: float, size: int):
    """Certified eigenvectors R e_k, k in ``ks`` (ascending), of a ladder's
    rotated excitation count: in the gauge, the real tridiagonal T with
    diagonal ``scale * k + offset``, off-diagonal ``-coupling(k)`` between
    levels k - 1 and k, and eigenvalues k = 0, 1, 2, ...

    They are built by inverse iteration at their eigenvalues on the leading
    M x M block T_M of T, shifted by ``-offset`` so that LAPACK's cluster
    test (eigenvalues within 1e-3 ||T_M||) does not reorthogonalize them
    all.  Zero-padded, a vector of T_M has residual r = coupling(M) |z_{M-1}|
    in T, whose eigenvalues are spaced by 1, so by the sin theta theorem
    (Davis and Kahan 1970; Parlett, *The Symmetric Eigenvalue Problem*,
    section 11) its angle to R e_k is at most r / (1 - r).  M starts at
    ``size`` and doubles until the certificate sum_k w_k 2 r_k / (1 - r_k),
    a trace-norm bound on the w-mixture's error, is below ``tail / 16``.
    Returns the vectors as (D, len(ks)) columns, D the fewest levels that
    leave at most ``tail`` outside, counting the w-weighted discarded mass,
    the certificate and ``rest`` (weight never built), and that tail.
    The certificate bounds the angle to *some* eigenvector of T; each
    vector's Rayleigh quotient on the block it solved, within 1/2 of its
    own level, says it is the one at k, or the routine raises.
    """
    from scipy.linalg import lapack

    def certificate(res: np.ndarray) -> float:
        """Trace-norm bound sum_k w_k 2 sin(angle_k) from the residuals."""
        return 2.0 * float(w @ np.where(res < 0.5, res / np.maximum(1.0 - res, 0.5), 1.0))

    # e_k itself has residual |(scale - 1) k + offset| + coupling(k) +
    # coupling(k + 1), so a rotation too weak to move it needs no solve
    top = int(ks[-1]) + 1
    k = np.arange(top + 1, dtype=float)
    b = np.append(0.0, coupling(k[1:]))
    z = np.eye(top)[:, ks]
    # diagonal and off-diagonal of T_M - offset, M = len(z) the levels z is on
    diag, off = scale * k[:top], -b[1:top]
    cert = certificate(np.abs((scale - 1.0) * ks + offset) + b[ks] + b[ks + 1])
    size = int(min(levels, size))
    while cert > tail / 16.0:
        k = np.arange(size, dtype=float)
        diag, off = scale * k, -coupling(k[1:])
        split = np.zeros(size, dtype=np.int32)
        split[0] = size  # one unreduced block
        z, info = lapack.dstein(diag, off, ks - offset, np.ones(size, dtype=np.int32), split)
        if info != 0:
            raise np.linalg.LinAlgError(f"inverse iteration did not converge (info = {info})")
        cert = 0.0 if size == levels else certificate(coupling(float(size)) * np.abs(z[-1]))
        size = int(min(levels, 2 * size))
    # Rayleigh quotients of the unit columns; the block's eigenvalues are
    # k - offset, 1 apart
    zz = z * z
    theta = diag @ zz + 2.0 * off @ (z[:-1] * z[1:])
    miss = np.abs(theta - (ks - offset))
    if miss.max() >= 0.5:
        i = int(np.argmax(miss))
        raise np.linalg.LinAlgError(
            f"ladder vector for level {int(ks[i])} has Rayleigh quotient "
            f"{theta[i] + offset:.6g}: it is another level's"
        )
    # profile[D] bounds the tail outside the first D levels, D = 0 .. len(z)
    profile = np.append(np.cumsum((zz @ w)[::-1])[::-1], 0.0) + (rest + cert)
    dim = int(np.argmax(profile <= tail))
    return z[:dim], float(profile[dim])


def ladder_corner(
    p: float, levels: float, scale: float, offset: float, coupling, tail: float
) -> tuple[np.ndarray, float]:
    """Certified corner of a Gibbs state on a rotated excitation ladder.

    The state is sum_k w_k (R e_k)(R e_k)^dag, k < ``levels`` (``math.inf``
    for an oscillator), with weights w_k = (1 - p) p^k / (1 - p^levels) on
    the eigenvectors of the rotated excitation count R K R^dag, K = sum_k
    k |k><k|.  In its gauge (conjugated by diag(e^{-i chi k}), chi the
    state's :func:`gauge_angle`) that operator is the real
    tridiagonal T of :func:`_ladder_vectors`, which builds the leading
    vectors that leave about ``tail / 2`` of the weight out.  Returns the
    state in that gauge, a real matrix on its first D levels, D the fewest
    that leave at most ``tail`` outside, and that tail; the gentle-
    measurement bound 2 sqrt(t) + t covers the whole construction.
    """
    log_p = math.log(p)
    top = math.exp(levels * log_p)  # 0 for the oscillator
    norm = 1.0 - top
    n_vec = int(min(levels, max(1, math.ceil(math.log(0.5 * tail * norm + top) / log_p))))
    rest = (math.exp(n_vec * log_p) - top) / norm if n_vec < levels else 0.0
    w = (1.0 - p) / norm * np.exp(np.arange(n_vec) * log_p)
    z, cut = _ladder_vectors(
        levels, scale, offset, coupling, np.arange(n_vec), w, rest, tail, 2 * n_vec
    )
    return (z * w) @ z.T, cut


def _block_ladder(n: int, ux: float, uy: float, j):
    """(levels, scale, offset, coupling) of block j's ladder: R = exp(2i
    (v_x J_x + v_y J_y)), v = u / sqrt(n), and R (j - J_z) R^dag in the
    gauge has diagonal cos(theta) k + 2 sin^2(theta / 2) j and off-diagonal
    -sin(theta) |<k-1|J_+|k>| / 2, theta = 2 |v|."""
    tj = _two_j(n, j)
    theta = 2.0 * math.hypot(ux, uy) / math.sqrt(n)
    half_sin = 0.5 * math.sin(theta)

    def coupling(k):
        return half_sin * np.sqrt(k * (tj + 1.0 - k))

    return tj + 1, math.cos(theta), math.sin(0.5 * theta) ** 2 * tj, coupling


def _block_corner(params: ModelParams, u, j):
    """``ladder_corner`` of block j at ``CORNER_TAIL_MASS``."""
    return ladder_corner(params.p_u(u), *_block_ladder(params.n, u[0], u[1], j), CORNER_TAIL_MASS)


def block_vector(n: int, u, j, k) -> tuple[np.ndarray, float]:
    """Block j's ladder vector R e_k at n copies and local parameter ``u``
    (a length-3 sequence), real in its gauge, on the fewest levels that
    leave at most ``CORNER_TAIL_MASS`` = t of |psi|^2 outside, certificate
    included, and that tail: a heterodyne draw of it is within 2 sqrt(t) +
    t in total variation of one of R e_k."""
    levels, scale, offset, coupling = _block_ladder(n, u[0], u[1], j)
    # R e_k is near D(beta)|k>, |beta|^2 ~ offset, whose levels spread about
    # k + |beta|^2: a first block of twice that plus 20 of its square roots
    # certifies in one solve for |u| <= 20, k <= 30 (n = 400 and 10^6)
    mean = k + 1.0 + offset
    size = int(2.0 * mean + 20.0 * math.sqrt(mean) + 16.0)
    ks, w = np.array([int(k)]), np.ones(1)
    z, cut = _ladder_vectors(levels, scale, offset, coupling, ks, w, 0.0, CORNER_TAIL_MASS, size)
    return z[:, 0], cut


def block_state(params: ModelParams, u, j) -> np.ndarray:
    """Block j's state for local parameter u on its certified corner, in
    the Fock basis (the real corner phased by diag(e^{i chi k})).

    The state is the geometric distribution (ratio ``p_u``) over the
    k-ladder of the 2j + 1 levels, conjugated by the block rotation
    ``exp(2i (u_x J_x + u_y J_y) / sqrt(n))``.  It is kept on its first D
    levels, the fewest that leave at most ``CORNER_TAIL_MASS`` outside
    (:func:`ladder_corner`); a block narrower than that is returned whole.
    """
    corner = _block_corner(params, u, j)[0]
    phase = np.exp(1j * gauge_angle(u) * np.arange(corner.shape[0]))
    return corner * np.outer(phase, phase.conj())


def block_corners(params: ModelParams, u, js) -> tuple[np.ndarray, np.ndarray]:
    """Real corners P_j rho_j P_j of the block states in their gauge, each
    on its own first D_j ladder levels (at ``CORNER_TAIL_MASS``), zero-padded
    to the widest, D = max D_j.  Returns ``(corners, tails)`` of shapes
    (len(js), D, D) and (len(js),), ``tails`` each block's certified tail.
    Built from the largest j down into one stack, padded if D_j grows.
    """
    corners, tails = np.zeros((len(js), 0, 0)), np.empty(len(js))
    for i in np.argsort(js)[::-1]:
        c, tails[i] = _block_corner(params, u, js[i])
        if c.shape[0] > corners.shape[1]:
            corners = embed_block(corners, c.shape[0])
        corners[i, : c.shape[0], : c.shape[0]] = c
    return corners, tails


def local_qubit_state(mu: float, v) -> np.ndarray:
    """Single-qubit state with eigenvalues (mu + v_z, 1 - mu - v_z) rotated
    by exp(i (v_x sigma_x + v_y sigma_y)).

    ``v`` is a length-3 sequence already at scale 1 (pass ``u / sqrt(n)``
    for the n-qubit local family).
    """
    vx, vy, vz = v
    lam = mu + vz
    if not (0.0 <= lam <= 1.0):
        raise ValueError(
            f"eigenvalue mu + v_z = {lam:.6g} outside [0, 1]; the local "
            "family leaves state space"
        )
    diag = np.diag([lam, 1.0 - lam]).astype(complex)
    a = math.hypot(vx, vy)
    if a == 0.0:
        return diag
    # exp(i a (n . sigma)) = cos(a) I + i sin(a) (n . sigma), n = (v_x, v_y, 0) / a
    s = math.sin(a) / a
    r = np.array(
        [[math.cos(a), s * (vy + 1j * vx)], [s * (-vy + 1j * vx), math.cos(a)]]
    )
    return r @ diag @ r.conj().T
