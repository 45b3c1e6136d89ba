"""The Gaussian limit's oscillator state and exact heterodyne sampling.

The quantum half of the Gaussian limit of the qubit model is a displaced
thermal state of one oscillator mode: thermal ratio ``p = (1-mu)/mu`` and
displacement ``beta = sqrt(2 mu - 1) * alpha_u`` with
``alpha_u = -u_y + i u_x``.  This module builds that state on its
certified Fock corner, from the top of its ladder, and samples ideal
heterodyne outcomes of a Fock-corner state exactly, in polar form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .spin_blocks import LocalParams, as_local, ladder_corner
from .tolerances import CORNER_TAIL_MASS


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


def displaced_thermal(gp: GaussianLimitParams) -> tuple[np.ndarray, float]:
    """The displaced thermal state on its certified Fock corner, in its
    gauge, and the mass it leaves outside (at most ``CORNER_TAIL_MASS``).

    It is the Gibbs state of the displaced number operator D a^dag a D^dag,
    which in the gauge chi = arg(beta) (``gp.u.phase_angle``) has diagonal
    k + |beta|^2 and off-diagonal -|beta| sqrt(k), so :func:`ladder_corner`
    builds it from the top of the ladder as a real matrix; the state in the
    Fock basis is that matrix conjugated by diag(e^{i chi k}).
    """
    b = abs(gp.beta)
    return ladder_corner(gp.p, math.inf, 1.0, b * b, lambda k: b * np.sqrt(k), CORNER_TAIL_MASS)


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
        self._half_log_fact = 0.5 * gammaln(k + 1.0)
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
