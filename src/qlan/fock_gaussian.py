"""The Gaussian limit's oscillator state and exact heterodyne sampling.

The quantum half of the Gaussian limit of the qubit model is a displaced
thermal state of one oscillator mode: thermal ratio ``p = (1-mu)/mu`` and
displacement ``beta = sqrt(2 mu - 1) * alpha_u`` with
``alpha_u = -u_y + i u_x``.  This module builds that state on its
certified Fock corner, from the top of its ladder, and samples ideal
heterodyne outcomes of a pure state on a Fock corner exactly, in polar
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy is imported where it is used, so that `import qlan.cli` needs numpy alone

from .spin_blocks import ladder_corner
from .tolerances import CORNER_TAIL_MASS

PROPOSAL_BLOCK = 2**16  # levels x angle proposals a rejection pass evaluates at most


@dataclass(frozen=True)
class GaussianLimitParams:
    """Parameters (mu, u) of the limiting classical x quantum Gaussian pair.

    Derived quantities: ``p`` (thermal ratio), ``beta`` (displacement of
    the oscillator state, sqrt(2 mu - 1) (-u_y + i u_x)) and
    ``classical_var`` (the variance of the N(u_z, mu(1-mu)) marginal).
    """

    mu: float
    u: tuple[float, float, float]

    def __post_init__(self):
        if not (0.5 < self.mu < 1.0):
            raise ValueError(f"mu = {self.mu} outside (1/2, 1)")
        ux, uy, uz = self.u
        object.__setattr__(self, "u", (float(ux), float(uy), float(uz)))

    @property
    def p(self) -> float:
        return (1.0 - self.mu) / self.mu

    @property
    def beta(self) -> complex:
        return math.sqrt(2.0 * self.mu - 1.0) * complex(-self.u[1], self.u[0])

    @property
    def classical_var(self) -> float:
        return self.mu * (1.0 - self.mu)


def displaced_thermal(gp: GaussianLimitParams) -> tuple[np.ndarray, float]:
    """The displaced thermal state on its certified Fock corner, in its
    gauge, and the mass it leaves outside (at most ``CORNER_TAIL_MASS``).

    It is the Gibbs state of the displaced number operator D a^dag a D^dag,
    which in the gauge chi = arg(beta) (``gauge_angle(gp.u)``) has diagonal
    k + |beta|^2 and off-diagonal -|beta| sqrt(k), so :func:`ladder_corner`
    builds it from the top of the ladder as a real matrix; the state in the
    Fock basis is that matrix conjugated by diag(e^{i chi k}).
    """
    b = abs(gp.beta)
    return ladder_corner(gp.p, math.inf, 1.0, b * b, lambda k: b * np.sqrt(k), CORNER_TAIL_MASS)


class HeterodyneSampler:
    """Exact sampler of the heterodyne (Husimi Q) law of a pure state psi on
    its first D Fock levels (a real or complex vector, normalized here).

    In polar form z = sqrt(s) e^{i theta} the law splits.  The radius has
    the exact marginal s = |z|^2 ~ sum_m |psi_m|^2 Gamma(m + 1, 1): draw the
    level m with probability |psi_m|^2, then s ~ Gamma(m + 1).  Given s, the
    angle has density proportional to |sum_m psi_m v_m e^{-im theta}|^2 with
    v_m = s^{m/2} / sqrt(m!), and is drawn by rejection from the uniform
    angle against (sum_m |psi_m| v_m)^2, which bounds it by the triangle
    inequality.  No grid or safety factor enters: the envelope holds for
    every state and radius.

    ``m_const`` is the expected number of angle proposals per accepted
    draw, int e^{-s} (sum_m |psi_m| v_m)^2 ds = sum_kl |psi_k| |psi_l|
    Gamma((k+l)/2 + 1) / sqrt(k! l!) >= 1, in closed form.  ``proposals``
    counts the angle proposals made so far.
    """

    def __init__(self, psi: np.ndarray):
        from scipy.special import gammaln

        self.psi = np.asarray(psi) / np.linalg.norm(psi)
        m = np.arange(len(psi))
        self._levels = m.astype(float)
        half = self._half_log_fact = 0.5 * gammaln(self._levels + 1.0)
        cdf = np.cumsum(np.abs(self.psi) ** 2)
        self._level_cdf = cdf / cdf[-1]
        # Gamma((k+l)/2 + 1) / sqrt(k! l!) from the 2D - 1 distinct k + l
        log_gamma = gammaln(0.5 * np.arange(2 * len(psi) - 1) + 1.0)
        ratio = np.exp(log_gamma[m[:, None] + m] - half[:, None] - half)
        amp = np.abs(self.psi)
        self.m_const = float(amp @ ratio @ amp)
        self.proposals = 0

    def _envelope(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a_m = psi_m v_m e^{-s/2} for each radius s (levels on the rows)
        and the bound (sum_m |a_m|)^2 >= |sum_m a_m e^{-im theta}|^2 = pi Q(z)
        on each angle's density; the factor e^{-s/2} keeps large s and m in
        range and cancels between the two."""
        log_r = 0.5 * np.log(np.maximum(s, 1e-300))
        v = np.exp(self._levels[:, None] * log_r - self._half_log_fact[:, None] - 0.5 * s)
        a = self.psi[:, None] * v
        return a, np.abs(a).sum(axis=0) ** 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` heterodyne outcomes z (complex) as one block.  A
        pass proposes about ``m_const`` angles per pending draw (within
        ``PROPOSAL_BLOCK``) and keeps the first accepted: the plain
        rejection draw, in fewer passes."""
        level = np.searchsorted(self._level_cdf, rng.random(size), side="right")
        s = rng.standard_gamma(level + 1.0)
        a, bound = self._envelope(s)
        theta = np.empty(size)
        pending = np.arange(size)
        while pending.size:
            cols = np.arange(pending.size)
            tries = max(1, min(math.ceil(self.m_const), PROPOSAL_BLOCK // (len(a) * len(cols))))
            angle = 2.0 * math.pi * rng.random((tries, len(cols)))
            # e^{-im theta} for every level m, as powers of e^{-i theta}
            powers = np.empty((len(a), tries, len(cols)), dtype=complex)
            powers[0] = 1.0
            powers[1:] = np.exp(-1j * angle)
            np.cumprod(powers, axis=0, out=powers)
            amp = np.einsum("mb,mtb->tb", a[:, pending], powers)
            hit = rng.random((tries, len(cols))) * bound[pending] < amp.real**2 + amp.imag**2
            first = np.argmax(hit, axis=0)
            keep = hit[first, cols]
            self.proposals += int(np.where(keep, first + 1, tries).sum())
            theta[pending[keep]] = angle[first[keep], cols[keep]]
            pending = pending[~keep]
        return np.sqrt(s) * np.exp(1j * theta)
