"""Truncated Fock-space states of the Gaussian limit and heterodyne sampling.

The quantum half of the Gaussian limit of the qubit model is a displaced
thermal state of one oscillator mode: thermal ratio ``p = (1-mu)/mu`` and
displacement ``beta = sqrt(2 mu - 1) * alpha_u`` with
``alpha_u = -u_y + i u_x``.  This module builds those states on a finite
Fock cutoff (two independent routes, cross-checked), evaluates Husimi Q
functions, and samples ideal heterodyne outcomes exactly, in polar form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .spin_blocks import LocalParams, as_local

DEFAULT_FOCK_DIM = 40


@dataclass(frozen=True)
class GaussianLimitParams:
    """Parameters (mu, u) of the limiting classical x quantum Gaussian pair.

    Derived quantities: ``p`` (thermal ratio), ``alpha`` (-u_y + i u_x),
    ``beta`` (displacement of the oscillator state), ``classical_mean`` /
    ``classical_var`` (the N(u_z, mu(1-mu)) marginal).
    """

    mu: float
    u: LocalParams

    def __post_init__(self):
        if not (0.5 < self.mu < 1.0):
            raise ValueError(f"mu = {self.mu} outside (1/2, 1)")
        object.__setattr__(self, "u", as_local(self.u))

    @property
    def p(self) -> float:
        return (1.0 - self.mu) / self.mu

    @property
    def alpha(self) -> complex:
        return complex(-self.u.uy, self.u.ux)

    @property
    def beta(self) -> complex:
        return math.sqrt(2.0 * self.mu - 1.0) * self.alpha

    @property
    def classical_mean(self) -> float:
        return self.u.uz

    @property
    def classical_var(self) -> float:
        return self.mu * (1.0 - self.mu)

    @property
    def squeeze_var(self) -> float:
        """Variance s^2 = (1-mu)/(4 mu - 2) of the coherent-mixture kernel."""
        return (1.0 - self.mu) / (4.0 * self.mu - 2.0)


def default_cutoff(beta: complex | float) -> int:
    """Cutoff policy: 40 covers displacements up to |beta|^2 ~ 7.5; larger
    displacements get ceil(10 + 4 |beta|^2)."""
    return max(DEFAULT_FOCK_DIM, int(math.ceil(10.0 + 4.0 * abs(beta) ** 2)))


def _require_dim(beta: complex, dim: int) -> None:
    if dim < math.ceil(10.0 + 4.0 * abs(beta) ** 2):
        raise ValueError(
            f"Fock cutoff dim = {dim} too small for displacement |beta| = "
            f"{abs(beta):.3f}; use dim >= {default_cutoff(beta)}"
        )


def thermal_state(p: float, dim: int) -> np.ndarray:
    """Truncated thermal state diag((1-p) p^k), k < dim.

    The truncation is *not* renormalized: the missing tail mass is exactly
    ``p**dim``, so ``trace = 1 - p**dim``.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"thermal ratio p = {p} outside [0, 1)")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    w = (1.0 - p) * p ** np.arange(dim, dtype=float)
    return np.diag(w).astype(complex)


def coherent_vector(z: complex, dim: int) -> np.ndarray:
    """Truncated coherent state exp(-|z|^2/2) z^k / sqrt(k!), k < dim.

    The norm deficit of the truncation is at most |z|^(2 dim) / dim!.
    """
    k = np.arange(dim, dtype=float)
    if z == 0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    # log-magnitude to avoid overflow in z^k / sqrt(k!)
    logmag = k * math.log(abs(z)) - 0.5 * _log_factorial(k) - 0.5 * abs(z) ** 2
    phase = np.exp(1j * k * np.angle(z))
    return np.exp(logmag) * phase


def _log_factorial(k: np.ndarray) -> np.ndarray:
    return gammaln(k + 1.0)


def coherent_matrix(zs: np.ndarray, dim: int) -> np.ndarray:
    """Columns coherent_vector(z, dim) for an array of z (vectorized)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    k = np.arange(dim, dtype=float)[:, None]
    absz = np.abs(zs)[None, :]
    safe = np.where(absz > 0, absz, 1.0)
    logmag = k * np.log(safe) - 0.5 * _log_factorial(k) - 0.5 * absz**2
    mag = np.exp(logmag)
    mag = np.where((absz == 0) & (k > 0), 0.0, mag)
    phase = np.exp(1j * k * np.angle(zs)[None, :])
    return mag * phase


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a^dag - conj(beta) a) on the truncated Fock space."""
    k = np.arange(1, dim, dtype=float)
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(k)
    gen = beta * a.conj().T - np.conj(beta) * a
    h = -1j * gen  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def displaced_thermal(
    gp: GaussianLimitParams, dim: int | None = None, method: str = "displace"
) -> np.ndarray:
    """Displaced thermal state of the Gaussian limit on a Fock cutoff.

    method = "displace": conjugate the truncated thermal state by the
    displacement operator.  method = "mixture": Gauss-Hermite quadrature of
    the coherent-state mixture with Gaussian kernel of variance ``s^2``
    centered at ``beta``.  The two routes agree to <= 1e-6 in trace norm at
    the default cutoff; tests enforce this.
    """
    beta = gp.beta
    if dim is None:
        dim = default_cutoff(beta)
    _require_dim(beta, dim)
    if method == "displace":
        d = displacement_operator(beta, dim)
        return d @ thermal_state(gp.p, dim) @ d.conj().T
    if method == "mixture":
        return _displaced_thermal_mixture(gp, dim)
    raise ValueError(f"unknown method {method!r}")


def _displaced_thermal_mixture(gp: GaussianLimitParams, dim: int, order: int = 48) -> np.ndarray:
    # int dx dy N((x,y); (Re beta, Im beta), s^2 I) |x+iy><x+iy|
    # with x = Re beta + sqrt(2) s xi_i: (1/pi) sum_{i,k} w_i w_k |z_ik><z_ik|
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    s = math.sqrt(gp.squeeze_var)
    xs = gp.beta.real + math.sqrt(2.0) * s * nodes
    ys = gp.beta.imag + math.sqrt(2.0) * s * nodes
    zx, zy = np.meshgrid(xs, ys, indexing="ij")
    zz = (zx + 1j * zy).ravel()
    ww = np.outer(weights, weights).ravel() / math.pi
    c = coherent_matrix(zz, dim)
    return (c * ww) @ c.conj().T


def q_function(rho: np.ndarray, z) -> np.ndarray:
    """Husimi Q(z) = <z| rho |z> / pi, vectorized over z (shape-preserving)."""
    rho = np.asarray(rho, dtype=complex)
    zarr = np.asarray(z, dtype=complex)
    c = coherent_matrix(zarr.ravel(), rho.shape[0])
    vals = np.einsum("ks,ks->s", c.conj(), rho @ c).real / math.pi
    if zarr.ndim == 0:
        return float(vals[0])
    return vals.reshape(zarr.shape)


class HeterodyneSampler:
    """Exact sampler of the heterodyne (Husimi Q) law of a Fock-cutoff state.

    In polar form z = sqrt(s) e^{i theta} the law splits.  The radius has
    the exact marginal s = |z|^2 ~ sum_k rho_kk Gamma(k + 1, 1): draw the
    level k with probability rho_kk, then s ~ Gamma(k + 1).  Given s, the
    angle has density proportional to f(theta) = c^H rho c with
    c_k = s^{k/2} e^{ik theta} / sqrt(k!), and is drawn by rejection from
    the uniform angle against the per-draw constant v^T |rho| v, v = |c|,
    which bounds f by the triangle inequality.  No grid or safety factor
    enters: the envelope holds for every state and radius.

    ``m_const`` is the expected number of angle proposals per accepted
    draw, int e^{-s} v^T |rho| v ds = sum_kl |rho_kl| Gamma((k+l)/2 + 1)
    / sqrt(k! l!) >= 1, in closed form.  ``proposals`` counts the angle
    proposals made so far.
    """

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > 1e-6:
            rho = rho / tr
        self.rho = rho
        k = np.arange(rho.shape[0], dtype=float)
        self._levels = k
        self._half_log_fact = 0.5 * _log_factorial(k)
        self._abs_rho = np.abs(rho)
        weights = np.maximum(np.diagonal(rho).real, 0.0)
        self._level_cdf = np.cumsum(weights) / weights.sum()
        log_gamma_ratio = gammaln(0.5 * (k[:, None] + k[None, :]) + 1.0) - (
            self._half_log_fact[:, None] + self._half_log_fact[None, :]
        )
        self.m_const = float(np.sum(self._abs_rho * np.exp(log_gamma_ratio)))
        self.proposals = 0

    def sample(self, rng: np.random.Generator, size=None):
        """Draw heterodyne outcomes z (complex).  ``size=None`` -> scalar.

        The first draw is made on its own and the rest as one block, so a
        single draw is the first of any larger one on the same stream.
        """
        want = 1 if size is None else int(size)
        out = self._draw_block(rng, 1)[:want]
        if want > 1:
            out = np.concatenate([out, self._draw_block(rng, want - 1)])
        return complex(out[0]) if size is None else out

    def _envelope(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v = |c| e^{-s/2} for each radius s (levels on the rows) and the
        bound v^T |rho| v >= e^{-s} c^H rho c on each angle's density.

        The common factor e^{-s/2} keeps large s and k in range and cancels
        between the density and its bound.
        """
        log_r = 0.5 * np.log(np.maximum(s, 1e-300))
        v = np.exp(self._levels[:, None] * log_r - self._half_log_fact[:, None] - 0.5 * s)
        return v, np.einsum("kb,kb->b", v, self._abs_rho @ v)

    def _draw_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
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
