"""Two-stage adaptive estimation of a qubit state from n copies.

Step 1, :func:`localize`, runs stage 1, Pauli coin flips on ``n_tilde =
ceil(n^(1-kappa))`` copies for a rough Bloch vector that fixes a frame taking it
to +z and a preliminary eigenvalue ``mu_tilde``, and reads the true state in each
frame.  Stage 2 measures the other n_rest copies in the localized picture (block
index plus heterodyne on the block, or the limiting Gaussian laws); its raw local
parameter is truncated at ``3 n^eta`` and mapped back to a state.  Its shifted
eigenvalue mu_u = mu_tilde + u_z / sqrt(n_rest) is mu_true to one ulp in every
trial, as mu_tilde and mu_true in [1/2, 1] differ exactly.  The risk benchmark
scores all this and its failure modes (state too close to maximally mixed,
reconstruction leaving state space).

Every stage works on a batch of B independent trials of one true state,
components first: B Bloch vectors or local parameters form a ``(3, B)``
array, so ``x, y, z = v`` unpacks three contiguous rows, and per-trial
scalars form ``(B,)`` arrays.  :func:`full_estimate` runs the chain once
on ``size`` columns; a single trial is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock_gaussian import HeterodyneSampler
from .operator_core import density_to_bloch, validate_density
from .qsde import energy_measurement_sample
from .spin_blocks import block_vectors, gauge_angle, kernel_sd, ladder_level, sample_block_index
from .tolerances import MODEL_MARGIN


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the two-stage scheme.

    kappa: stage-1 fraction exponent (n_tilde = ceil(n^(1-kappa))).
        Keep kappa strictly below 2*eps: at the boundary the stage-1
        frame error and the localization radius are the same order, and
        truncation then clips real signal often enough to inflate the
        risk at moderate n.
    eps:   localization exponent entering the parameter-region radius.
    eta:   truncation exponent (raw components kept while |u| <= 3 n^eta).
    sampler: "gaussian" (limit distributions) or "exact" (block index,
        then heterodyne of the block state as a mixture of certified ladder
        vectors).  Both draw a batch of trials as one chunk.
    truncate: disable only for calibration runs of the raw sampler.
    """

    kappa: float = 0.05
    eps: float = 0.05
    eta: float = 0.08
    sampler: str = "gaussian"
    truncate: bool = True

    def __post_init__(self):
        if not (0.0 < self.eps < self.eta < 1.0 / 6.0):
            raise ValueError(
                f"need 0 < eps < eta < 1/6, got eps = {self.eps}, eta = {self.eta}"
            )
        if not (0.0 < self.kappa <= 2.0 * self.eps):
            raise ValueError(
                f"need 0 < kappa <= 2 eps, got kappa = {self.kappa}, eps = {self.eps}"
            )
        if self.sampler not in ("gaussian", "exact"):
            raise ValueError(f"unknown sampler {self.sampler!r}")


def _norm(v: np.ndarray) -> np.ndarray:
    x, y, z = v  # elementwise, so a trial's norm does not depend on its batch
    return np.sqrt((x * x + y * y) + z * z)


def _turn(vec, wx, wy, den, flip) -> np.ndarray:
    """R vec by Rodrigues' formula R v = v + w x v + w x (w x v) / den, with
    w = (wx, wy, 0); where ``flip`` is set R is diag(1, -1, -1) instead."""
    x, y, z = vec
    px, py, pz = wy * z, -wx * z, wx * y - wy * x  # w x v
    out = np.empty((3, *np.broadcast_shapes(np.shape(x), np.shape(wx))))
    for o, v, p, t in zip(out, (x, y, z), (px, py, pz), (wy * pz, -wx * pz, wx * py - wy * px)):
        np.add(np.add(v, p, out=o), np.divide(t, den, out=t), out=o)
    if np.any(flip):
        for i, v in enumerate((x, -y, -z)):  # v broadcasts: vec may be one (3,) vector
            np.copyto(out[i, ...], v, where=flip)
    return out


@dataclass
class Stage1Result:
    """Coarse Pauli-tomography outcome and the frames it fixes.

    One column per trial, one ``mu_tilde`` entry per trial; each trial's
    frame is the rotation R taking its ``r_proj`` to ``|r_proj| e_z``.
    """

    r_raw: np.ndarray  # possibly |r| > 1
    r_proj: np.ndarray  # radially projected into the ball
    mu_tilde: np.ndarray
    n_tilde: int

    @cached_property
    def frame(self) -> tuple:
        """(wx, wy, den, flip) of R, built once from ``r_proj``: R turns about
        w = d x e_z, d the unit direction, and den = 1 + d_z.  R is the
        identity for a zero direction and diag(1, -1, -1) on the -z axis."""
        nrm = _norm(self.r_proj)
        dx, dy, c = self.r_proj / np.where(nrm < 1e-15, np.inf, nrm)  # 0 -> R = 1
        wx, wy = dy, -dx
        den, south = 1.0 + c, c < 0.0
        if np.any(south):  # there 1 + c = |w|^2 / (1 - c), which does not cancel near -z
            den = np.where(south, (wx * wx + wy * wy) / np.maximum(1.0 - c, 1.0), den)
        flip = den < 1e-200
        if np.any(flip):
            den = np.where(flip, 1.0, den)
        return wx, wy, den, flip

    def rotate(self, vec) -> np.ndarray:
        return _turn(vec, *self.frame)

    def rotate_back(self, vec) -> np.ndarray:
        # R^T turns about -w: negating w is exact
        wx, wy, den, flip = self.frame
        return _turn(vec, -wx, -wy, den, flip)


def stage1_copies(n: int, kappa: float) -> tuple[int, list]:
    """Stage 1's copy count n_tilde = ceil(n^(1 - kappa)) and its round-robin
    split over the three axes: axis i gets ceil((n_tilde - i) / 3) copies."""
    n_tilde = math.ceil(float(n) ** (1.0 - kappa))
    return n_tilde, [math.ceil((n_tilde - i) / 3.0) for i in range(3)]


def stage1(r_true, n_tilde: int, rng: np.random.Generator, size: int) -> Stage1Result:
    """Pauli coin flips on n_tilde copies of the state with Bloch vector
    r_true, round-robin over the three axes, for ``size`` trials, one per
    column.

    Axis i receives :func:`stage1_copies`' share of them; the empirical Bloch
    vector is radially projected into the unit ball if needed and the
    preliminary eigenvalue is mu_tilde = (1 + |r|) / 2.  The heads are
    drawn axis by axis, ``size`` at a time, so the first B' trials of a
    batch of B are not a batch of B'.
    """
    if n_tilde < 3:
        raise ValueError(f"n_tilde = {n_tilde} too small for three axes")
    counts = np.array(stage1_copies(n_tilde, 0.0)[1])  # kappa = 0: all n_tilde copies
    probs = (1.0 + np.asarray(r_true, dtype=float)) / 2.0
    r_raw = np.empty((3, size))  # 2 heads / counts - 1, in place
    for i in range(3):  # one (n, p) a draw: the binomial sampler sets up once per axis
        np.multiply(rng.binomial(counts[i], probs[i], size), 2.0, out=r_raw[i])
    r_raw /= counts[:, None]
    r_raw -= 1.0
    nrm = _norm(r_raw)
    over = nrm > 1.0
    r_proj = r_raw / np.where(over, nrm, 1.0) if np.any(over) else r_raw
    mu_tilde = 0.5 * (1.0 + np.minimum(nrm, 1.0))
    return Stage1Result(r_raw, r_proj, mu_tilde, int(n_tilde))


def localize_frame(r_true, s1: Stage1Result, n_rest: int) -> tuple[np.ndarray, float, np.ndarray]:
    """True local parameters u of the state with Bloch vector r_true in the
    stage-1 frames, its larger eigenvalue mu_rot, and R r_true in the frames.

    In a frame the true state is U(v) diag(mu_rot, 1-mu_rot) U(v)^*; the
    rotation is inverted exactly (matrix logarithm of the residual
    rotation, which for a z-to-n rotation has the closed form below), and
    u = sqrt(n_rest) (v_x, v_y, mu_rot - mu_tilde).  A rotation keeps
    lengths, so mu_rot = (1 + |r_true|) / 2 is one number for all frames.
    """
    x, y, z = r_frame = s1.rotate(r_true)
    r_len = float(np.linalg.norm(r_true))
    mu_rot = 0.5 * (1.0 + r_len)
    denom = np.sqrt(x * x + y * y)  # not libm's slow hypot: |x|, |y| <= 1 cannot overflow
    # atan2 is scale-free, and keeps near 0 and pi the digits arccos loses
    theta = np.arctan2(denom, z)
    on_axis = denom <= 1e-15 * r_len
    rn = math.sqrt(n_rest)
    half = (0.5 * rn) * theta / np.where(on_axis, 1.0, denom)
    u = np.empty_like(r_frame)
    np.multiply(half, y, out=u[0])
    np.multiply(-half, x, out=u[1])
    np.multiply(rn, mu_rot - s1.mu_tilde, out=u[2])
    if np.any(on_axis):
        # on the axis: no rotation at +z, a half turn about x at -z
        u[0] = np.where(on_axis, np.where(z > 0, 0.0, rn * math.pi / 2.0), u[0])
        u[1] = np.where(on_axis, 0.0, u[1])
    return u, mu_rot, r_frame


def reconstruct(
    s1: Stage1Result, n_rest: int, u_hat
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local family member of each local estimate u_hat, in its stage-1
    frame: Bloch vectors (``s1.rotate_back`` turns them to the lab frame),
    eigenvalues lam along them, and flags of a lam clipped into [0, 1]."""
    ux, uy, uz = np.asarray(u_hat, dtype=float)
    rn = math.sqrt(n_rest)
    lam = s1.mu_tilde + uz / rn
    clamped = (lam < 0.0) | (lam > 1.0)
    np.clip(lam, 0.0, 1.0, out=lam)
    # exp(i(h_x sigma_x + h_y sigma_y)) turns e_z by 2|h| about -h
    hx = ux / rn
    hy = uy / rn
    q = np.sqrt(hx * hx + hy * hy)
    s = np.divide(np.sin(2.0 * q), q, out=np.full_like(q, 2.0), where=q > 1e-12)
    scale = 2.0 * lam - 1.0
    r_local = np.array([-hy, hx, np.cos(2.0 * q)])
    r_local[:2] *= s
    r_local *= scale
    return r_local, lam, clamped


def stage2_sample(mu, n: int, u, config: EstimatorConfig, rng: np.random.Generator):
    """Raw stage-2 draws (u_x~, u_y~, g), one per column of the (3, B) true
    local parameters ``u``, as a (3, B) array; column b is local to reference eigenvalue
    ``mu[b]`` at n copies, and its shifted eigenvalue mu_u = mu + u_z /
    sqrt(n) must lie in (1/2, 1) (``ValueError`` otherwise, before any draw).

    gaussian sampler: the limiting distributions — transverse components
    N(u_i, mu_u / (2 (2 mu_u - 1)^2)) and g ~ N(u_z, mu_u (1 - mu_u)).

    exact sampler: draw the block index j, heterodyne the block state
    (long-time limit of the monitored field), rescale by
    1/sqrt(2 mu_tilde - 1), and read the energy observable plus the
    smoothing kernel for g; see :func:`_exact_stage2` for the order of the
    draws.
    """
    mu, u = np.asarray(mu, dtype=float), np.asarray(u, dtype=float)
    mu_u = mu + u[2] / math.sqrt(n)
    bad = mu_u[~((0.5 < mu_u) & (mu_u < 1.0))]
    if len(bad):
        raise ValueError(
            f"shifted eigenvalue mu_u = {bad[0]:.6g} lies outside the admissible range (1/2, 1)"
        )
    if config.sampler == "exact":
        return _exact_stage2(mu, mu_u, n, u, rng)
    draws = rng.standard_normal((3, len(mu_u)))
    draws[:2] *= np.sqrt(mu_u / (2.0 * (2.0 * mu_u - 1.0) ** 2))
    draws[2] *= np.sqrt(mu_u * (1.0 - mu_u))
    draws += u
    return draws


def _exact_stage2(mu, mu_u, n: int, u, rng: np.random.Generator):
    """Exact draws for the (3, B) columns ``u`` about the (B,) reference
    eigenvalues ``mu``, at the shifted eigenvalues ``mu_u``: all block
    indices j in one :func:`sample_block_index` call and all ladder levels
    k in one :func:`ladder_level` draw, then, from one :func:`block_vectors`
    solve, one heterodyne draw per distinct (mu, u, j, k), in ascending order,
    for its columns, then the readouts and kernel noise as one draw each.

    Block j's state is the w-mixture of the pure ladder states R e_k, w the
    geometric law of ratio (1 - mu_u) / mu_u cut at 2j + 1 levels, and so
    is its heterodyne law.  R e_k is real in the gauge chi =
    :func:`gauge_angle`, so its draws are turned by e^{i chi}; each is within
    2 sqrt(t) + t of the block state's law in total variation, t = ``CORNER_TAIL_MASS``."""
    js = sample_block_index(n, mu_u, rng)
    ks = ladder_level((1.0 - mu_u) / mu_u, 2.0 * js + 1.0, rng.random(len(mu)))
    _, first, group, counts = np.unique(
        np.vstack([mu, u, js, ks]), axis=1, return_index=True, return_inverse=True, return_counts=True
    )
    vectors = block_vectors(n, u[:, first], js[first], ks[first])[0] if len(first) else []
    zs = np.exp(1j * gauge_angle(u))
    for psi, cols in zip(vectors, np.split(np.argsort(group, kind="stable"), np.cumsum(counts))):
        zs[cols] *= HeterodyneSampler(psi).sample(rng, size=len(cols))
    scale, rn = 1.0 / np.sqrt(2.0 * mu - 1.0), math.sqrt(n)
    # monitoring time n: the readout variance 1/(4n) is negligible next
    # to the block spread
    x_e = energy_measurement_sample(n, js, float(n), rng)
    g = x_e - rn * (mu - 0.5) + rng.normal(0.0, kernel_sd(n), size=len(mu))
    return np.array([np.imag(zs) * scale, -np.real(zs) * scale, g])


def truncate_estimate(raw, eta: float, n: int):
    """Zero any raw component with |value| > 3 n^eta (boundary kept).

    Returns (u_hat, flags); on the asymptotic event |u| <= n^eta the
    truncation can only move components toward the truth.
    """
    raw_arr = np.asarray(raw, dtype=float)
    flags = np.abs(raw_arr) > 3.0 * float(n) ** eta
    return (np.where(flags, 0.0, raw_arr) if np.any(flags) else raw_arr), flags


@dataclass
class EstimateResult:
    """B trials of the two-stage estimator: (3, B) local parameters, flags and stage-1-frame Bloch
    vectors (``r_hat``: the lab frame's, on first read), (B,) masks and eigenvalues, the true
    state's larger eigenvalue.  A trial in ``outside`` has no stage-2 draw; its estimate is void."""

    u_hat: np.ndarray
    r_hat_frame: np.ndarray
    lam_hat: np.ndarray  # the estimate's eigenvalue along r_hat_frame
    r_true_frame: np.ndarray
    stage1: Stage1Result
    u_raw: np.ndarray
    u_true_local: np.ndarray
    trunc_flags: np.ndarray
    recon_clamped: np.ndarray
    n_rest: int
    outside: np.ndarray
    mu_true: float

    @cached_property
    def r_hat(self) -> np.ndarray:
        return self.stage1.rotate_back(self.r_hat_frame)


def localize(rho_true, n: int, config: EstimatorConfig, rng: np.random.Generator, size: int = 1):
    """Step 1 for ``size`` trials on n copies of rho_true: stage 1, drawing just what
    :func:`stage1` draws, and the frames.  Returns (s1, u_true, mu_true, R r_true, n_rest, outside).

    A trial whose stage 1 lands on a degenerate estimate, whose rotated
    state is not ``MODEL_MARGIN`` inside the model, or whose shifted
    eigenvalue is not in (1/2, 1) (a pure true state) is marked in
    ``outside``; the risk benchmark charges it the maximal loss."""
    n = int(n)
    n_rest = n - stage1_copies(n, config.kappa)[0]
    if n_rest < 1:
        raise ValueError(f"n = {n} leaves no copies for stage 2")
    r_true = density_to_bloch(validate_density(rho_true))
    s1 = stage1(r_true, n - n_rest, rng, size)
    u_true, mu_true, r_frame = localize_frame(r_true, s1, n_rest)
    degenerate = ~((0.5 < s1.mu_tilde) & (s1.mu_tilde < 1.0))
    mu_u = s1.mu_tilde + u_true[2] / math.sqrt(n_rest)  # as stage2_sample sets it
    outside = degenerate | (mu_true - 0.5 < MODEL_MARGIN) | ~((0.5 < mu_u) & (mu_u < 1.0))
    return s1, u_true, mu_true, r_frame, n_rest, outside


def full_estimate(
    rho_true: np.ndarray,
    n: int,
    config: EstimatorConfig,
    rng: np.random.Generator,
    size: int = 1,
) -> EstimateResult:
    """Both stages on n copies of rho_true, ``size`` trials as one batch: :func:`localize`,
    then stage 2 on the trials inside the model, truncation and reconstruction."""
    s1, u_true, mu_true, r_frame, n_rest, outside = localize(rho_true, n, config, rng, size)
    inside = ~outside if np.any(outside) else slice(None)
    raw = np.zeros_like(u_true)
    raw[:, inside] = stage2_sample(s1.mu_tilde[inside], n_rest, u_true[:, inside], config, rng)
    if config.truncate:
        u_hat, flags = truncate_estimate(raw, config.eta, n)
    else:
        u_hat, flags = raw, np.zeros(raw.shape, dtype=bool)
    r_hat, lam_hat, clamped = reconstruct(s1, n_rest, u_hat)
    return EstimateResult(
        u_hat, r_hat, lam_hat, r_frame, s1, raw, u_true, flags, clamped, n_rest, outside, mu_true
    )
