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
0, 1, 2, ...  Its eigenvectors, at levels known exactly, come from one
numpy kernel, the twisted factorization, for many ladders at once.
:func:`ladder_corner` builds such states on their certified Fock corners
from the top of the ladder alone, at a cost that does not grow with the
block; every block and limit state in the package comes from it.  It
returns them in their gauge, where they are real; that changes no trace
norm, so the package keeps every corner real, and only :func:`block_state`
phases one back to the Fock basis.  For the exact sampler,
:func:`block_vectors` builds vectors R e_k of many blocks in one solve, at
levels k drawn by :func:`ladder_level`.

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

from .operator_core import embed_block
from .tolerances import CORNER_TAIL_MASS, WINDOW_TAIL_MASS

PROPOSAL_BLOCK = 2**16  # entries of one vectorized pass: ladder rows x vectors, levels x angles


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
    return log_masses_from_mode(steps)


def log_masses_from_mode(steps: np.ndarray) -> np.ndarray:
    """ln of a unimodal law's masses less its mode's: the ratios' logs ``steps`` summed outward."""
    mode = int(np.count_nonzero(steps > 0.0))
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


def _twisted_vectors(d, cpl, size, nudge=0.0):
    """Unit null vectors of T - k for the (M, K, B) diagonals ``d`` of B
    ladders, off-diagonal -``cpl`` (M, 1, B), ``cpl[i]`` joining rows i - 1
    and i, ladder b on its first ``size[b]`` rows (the rest: diagonal 1,
    coupling 0).  Twisted factorization (Fernando 1997; Dhillon and Parlett
    2004): pivots D+ and D- of T - k down and up, z_r = 1 at the twist r =
    argmin |D+_r + D-_r - d_r| inside the ladder, z_i / z_(i+1) = cpl_(i+1) /
    D+_i above r and z_i / z_(i-1) = cpl_i / D-_i below.  A zero pivot makes
    the next infinite (IEEE); a column left with 0 * inf or 0 / 0 (an
    unrotated ladder) is solved again with its level raised a few ulps."""
    rows = np.arange(len(d))[:, None, None]
    d = d - nudge * (1.0 + np.abs(d)) if nudge else d
    # D- runs from the last row up: a forward recurrence on the reversed rows
    sq = np.concatenate((cpl[:, None], np.concatenate((cpl[:1], cpl[:0:-1]))[:, None]), axis=1) ** 2
    piv = np.concatenate((d[:, None], d[::-1, None]), axis=1)
    row, ratio = list(piv), np.empty_like(piv[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for now, before, b2 in zip(row[1:], row, list(sq)[1:]):
            np.subtract(now, np.divide(b2, before, out=ratio), out=now)
        lo, hi = piv[:, 0], piv[::-1, 1]
        twist = np.argmin(np.where(rows < size, np.abs(lo + hi - d), np.inf), axis=0)
        z = np.cumprod(np.where(rows > twist, cpl / hi, 1.0), axis=0)
        z[:-1] *= np.cumprod(np.where(rows[:-1] < twist, cpl[1:] / lo[:-1], 1.0)[::-1], axis=0)[::-1]
    if not (nudge or np.isfinite(z).all()):
        b = np.nonzero(bad := ~np.isfinite(z).all(axis=0))[1]
        z[:, bad] = _twisted_vectors(d[:, bad][:, None], cpl[:, :, b], size[b], 4e-16)[:, 0]
    return z / np.sqrt((z * z).sum(axis=0))


def _first_rows(ks, w, offset, tail: float) -> np.ndarray:
    """Rows of each ladder's first solve: R e_k turns near (sqrt(k + 1) + sqrt(offset))^2,
    then falls to e^-depth, its weight's share of the budget (fitted: mu_u in [0.55, 0.95],
    offsets up to 50 certify at once)."""
    depth = np.log(np.maximum(32.0 * len(ks) * w / tail, 1.0))
    root, spread = np.sqrt(ks + 1.0), np.sqrt(offset)
    rows = (root + spread) ** 2 + depth * (0.3 * spread + 0.04 * root + 0.4)
    return np.ceil(rows.max(axis=0, initial=0.0) + 4.0)


def _ladder_vectors(levels, scale, offset, coupling, ks, w, rest, tail: float):
    """Certified eigenvectors R e_k of B ladders' rotated excitation counts at
    the (K, B) levels ``ks``, weights ``w``: ladder b's real tridiagonal T (in
    the gauge) has diagonal ``scale * k + offset``, off-diagonal -coupling(k)
    between levels k - 1 and k (coupling(levels) = 0) and eigenvalues 0, 1, 2, ...

    Each is :func:`_twisted_vectors`' at its exact level k on T's leading
    block T_M.  Its residual in T beyond that on T_M is r = coupling(M)
    |z_{M-1}|; T's levels are 1 apart, so its angle to R e_k is at most r /
    (1 - r) (Davis and Kahan 1970).  M doubles from :func:`_first_rows` until
    sum_k w_k 2 r_k / (1 - r_k), a trace-norm bound on the mixture's error, is
    below ``tail / 16``.  The residual on T_M is rounding, a few eps ||T_M -
    k|| as each pivot is a few ulps from a nearby T_M's (1.5e-14 seen, 5e-15
    with dstein): left out of the tail test, as dstein's was.  A vector whose
    whole residual in T at k is 1/2 or more (other levels are 1 away) raises.
    Returns the vectors, (D, K, B), ladder b's zero from D_b on, the fewest
    levels leaving at most ``tail`` out with the certificate and ``rest``
    (weight never built); the D_b; and those tails."""
    size = np.minimum(levels, _first_rows(ks, w, offset, tail))
    while True:  # every ladder is solved again, the certified ones alike
        rows = np.arange(size.max() + 1.0)[:, None]
        m, last, cols = len(rows) - 1, size.astype(int) - 1, np.arange(len(size))
        cpl = coupling(np.minimum(rows, levels))
        inside, cut = rows[:m] < size, cpl[last + 1, cols]
        cpl = np.where(inside, cpl[:m], 0.0)[:, None]
        d = np.where(inside[:, None], (scale * rows[:m] + offset)[:, None] - ks, 1.0)
        z = _twisted_vectors(d, cpl, size)
        r = cut * np.abs(z[last, :, cols].T)
        cert = 2.0 * (w * np.where(r < 0.5, r / np.maximum(1.0 - r, 0.5), 1.0)).sum(axis=0)
        # a ladder grows until certified or whole; a vector of NaNs stops it (and raises below)
        if not (grow := (cert > tail / 16.0) & (size < levels) & ~np.isnan(r).any(axis=0)).any():
            break
        size = np.where(grow, np.minimum(levels, 2.0 * size), size)
    res = d * z
    res[1:] -= cpl[1:] * z[:-1]
    res[:-1] -= cpl[1:] * z[1:]
    miss = np.sqrt((res * res).sum(axis=0) + r * r)
    if not (miss < 0.5).all():
        i, b = np.argwhere(~(miss < 0.5))[0]
        raise np.linalg.LinAlgError(f"level {int(ks[i, b])} ladder vector: residual {miss[i, b]:.3g}")
    # profile[D] bounds the tail outside the first D levels, D = 0 .. len(z)
    mass = np.concatenate((np.einsum("mkb,mkb,kb->mb", z, z, w), np.zeros((1, len(cert)))))
    profile = np.cumsum(mass[::-1], axis=0)[::-1] + (rest + cert)
    dims = np.argmax(profile <= tail, axis=0)
    z *= (np.arange(len(z))[:, None] < dims)[:, None]
    return z[: dims.max(initial=0)], dims, profile[dims, np.arange(len(dims))]


def ladder_corner(p: float, levels, scale, offset, coupling, tail: float):
    """Certified corners of Gibbs states sum_k w_k (R e_k)(R e_k)^dag, k <
    ``levels`` (``math.inf`` for an oscillator), w_k = (1 - p) p^k / (1 -
    p^levels), on the eigenvectors of rotated excitation counts R K R^dag, one
    per entry of ``levels``, ``scale`` and ``offset`` (scalars or alike arrays).
    In its gauge (conjugated by diag(e^{-i chi k}), chi the state's
    :func:`gauge_angle`) R K R^dag is the real T of :func:`_ladder_vectors`,
    which builds the leading vectors that leave about ``tail / 2`` out.
    Returns the real states, each on its first D levels, the fewest that leave
    at most ``tail`` out, zero-padded into a (B, D, D) stack, and their (B,)
    tails; gentle measurement, 2 sqrt(t) + t, covers the whole construction."""
    log_p, levels = math.log(p), np.asarray(levels, dtype=float)
    norm = 1.0 - (top := np.exp(levels * log_p))  # top: 0 for the oscillator
    n_vec = np.minimum(levels, np.maximum(1.0, np.ceil(np.log(0.5 * tail * norm + top) / log_p)))
    rest = np.where(n_vec < levels, (np.exp(n_vec * log_p) - top) / norm, 0.0)
    k = np.arange(n_vec.max())[:, None]
    w = np.where(k < n_vec, (1.0 - p) / norm * np.exp(k * log_p), 0.0)
    ks = np.minimum(k, n_vec - 1.0)
    z, _, tails = _ladder_vectors(levels, scale, offset, coupling, ks, w, rest, tail)
    return (z.transpose(2, 0, 1) * w.T[:, None]) @ z.transpose(2, 1, 0), tails


def _block_ladder(n: int, ux, uy, j):
    """(levels, scale, offset, coupling) of blocks j's ladders (``ux``, ``uy``, ``j`` scalars or
    alike arrays): R = exp(2i (v_x J_x + v_y J_y)), v = u / sqrt(n); R (j - J_z) R^dag in the gauge
    has diagonal cos(theta) k + 2 sin^2(theta/2) j, off-diagonal -sin(theta) |<k-1|J_+|k>| / 2."""
    tj = np.reshape([float(_two_j(n, x)) for x in np.ravel(j)], np.shape(j))
    theta = 2.0 * np.hypot(ux, uy) / math.sqrt(n)  # 2 |v|
    half_sin, offset = 0.5 * np.sin(theta), np.sin(0.5 * theta) ** 2 * tj
    return tj + 1.0, np.cos(theta), offset, lambda k: half_sin * np.sqrt(k * (tj + 1.0 - k))


def block_vectors(n: int, u, js, ks) -> tuple[list, np.ndarray]:
    """Block j's ladder vector R e_k at n copies, real in its gauge, for each
    column of the (3, G) ``u`` and (G,) ``js`` and ``ks``, from one solve, on
    the fewest levels that leave at most t = ``CORNER_TAIL_MASS`` of |psi|^2
    out, and the (G,) tails: a heterodyne draw of one is within 2 sqrt(t) + t
    in total variation of one of R e_k."""
    ks, ladder = np.asarray(ks, dtype=float)[None], _block_ladder(n, u[0], u[1], js)
    z, dims, tails = _ladder_vectors(*ladder, ks, np.ones_like(ks), 0.0, CORNER_TAIL_MASS)
    return [z[:d, 0, g] for g, d in enumerate(dims)], tails


def block_state(params: ModelParams, u, j) -> np.ndarray:
    """Block j's state for local parameter u on its certified corner, in
    the Fock basis (the real corner phased by diag(e^{i chi k})).

    The state is the geometric distribution (ratio ``p_u``) over the
    k-ladder of the 2j + 1 levels, conjugated by the block rotation
    ``exp(2i (u_x J_x + u_y J_y) / sqrt(n))``.  It is kept on its first D
    levels, the fewest that leave at most ``CORNER_TAIL_MASS`` outside
    (:func:`ladder_corner`); a block narrower than that is returned whole.
    """
    corner = block_corners(params, u, [j])[0][0]
    phase = np.exp(1j * gauge_angle(u) * np.arange(corner.shape[0]))
    return corner * np.outer(phase, phase.conj())


def block_corners(params: ModelParams, u, js) -> tuple[np.ndarray, np.ndarray]:
    """Real corners P_j rho_j P_j of the block states in their gauge, each
    on its own first D_j ladder levels (at ``CORNER_TAIL_MASS``), zero-padded
    to the widest, D = max D_j.  Returns ``(corners, tails)`` of shapes
    (len(js), D, D) and (len(js),), ``tails`` each block's certified tail.
    Built from the largest j down into one stack, padded if D_j grows, one
    solve per tile of blocks whose vectors x rows are about PROPOSAL_BLOCK / 4."""
    js, p, order = np.asarray(js, dtype=float), params.p_u(u), np.argsort(js)[::-1]
    n_vec = min(2.0 * js.max(initial=0.0) + 1.0, math.log(0.5 * CORNER_TAIL_MASS) / math.log(p) + 1)
    tile = max(1, int(PROPOSAL_BLOCK // (8.0 * n_vec * n_vec)))
    corners, tails = np.zeros((len(js), 0, 0)), np.empty(len(js))
    for blocks in (order[s : s + tile] for s in range(0, len(js), tile)):
        ladders = _block_ladder(params.n, u[0], u[1], js[blocks])
        c, tails[blocks] = ladder_corner(p, *ladders, CORNER_TAIL_MASS)
        if c.shape[1] > corners.shape[1]:
            corners = embed_block(corners, c.shape[1])
        corners[blocks, : c.shape[1], : c.shape[1]] = c
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
