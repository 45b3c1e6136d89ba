"""Spin-field dynamics inside one total-spin block and its closed forms.

The block coupling lowers the excitation number ``k`` with matrix element
``r_k = sqrt(k) sqrt((2j - k + 1) / (2 j_n))`` (``j_n = n (mu - 1/2)``).
Starting from level ``m`` with the field in vacuum, the joint state after
time ``t`` is approximated by the closed-form vector

    xi = sum_i c(m, i) e^{-(m-i) t / 2} |m - i> (x) |sqrt-exp mode>^{(x) i}

whose coefficients obey a two-term product recursion.  This module
provides the coefficients and norms of ``xi``, a repeated-interaction
(collision) integrator for the same dynamics, overlaps between the two,
and the error-bound envelope used to extrapolate the approximation
quality.

The integrator never stores the field.  Each of the K slots meets the
system once, through the Kraus operators ``A_d`` (``A_d[c - d, c]`` is
the amplitude for level ``c`` to deposit ``d`` quanta into the fresh
slot), and contracting slot k against the xi mode's generating state
``e^{w_k b_k^dag}|0>`` turns the collision into
``T_k = sum_d w_k^d / sqrt(d!) A_d``.  The slot weights are geometric,
``w_k = w_0 q^k`` with ``q = e^{-dt/2}``, so with ``S = diag(q^c)``
``T_k = S^-k T_0 S^k``, which equals ``S^-(K-1) (T_0 S)^K S^-1`` for the
K-step product; it is built by doubling (``_shifted_power``).  That one
transfer-matrix power carries everything that is read: each collision
conserves total excitation, so column ``s`` is the evolution of the start
``|s>`` alone.

The power is of size (L+1) for a top start level L, so any L <= 2j and
any K cost O(L^4 + L^3 log K) time and nothing that grows with K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy alone: the collision exponential is an eigendecomposition, so that
# `qlan qsde-check` loads no scipy

from .spin_blocks import ModelParams, _two_j
from .tolerances import MODEL_MARGIN

# Error-bound prefactor.  For a single emission line the edge distance
# tends to 2 n^(-1/4) exactly, which pins the constant.  Measured with
# Richardson-extrapolated (K = 10^5) chordal distances at the typical-window
# edge j = j_n + n^(3/4), n = 1000..64000, m = 1..6 (tests/test_qsde.py),
# the distance/bound ratio is 0.26-0.46 at m = 1, rising with n (towards 1
# only in the m = 1 limit), and at most 0.13 for every m >= 2.
XI_BOUND_C = 2.0


def lowering_elements(params: ModelParams, j, dim: int) -> np.ndarray:
    """r_k = sqrt(k (2j - k + 1) / (2 j_n)) for k = 1..dim-1."""
    tj = _two_j(params.n, j)
    if dim - 1 > tj:
        raise ValueError(f"coupling needs dim - 1 <= 2j; got dim = {dim}, j = {j}")
    k = np.arange(1, dim, dtype=float)
    return np.sqrt(k * (tj - k + 1.0) / (2.0 * params.j_n))


def c_coefficients(params: ModelParams, j, m: int) -> np.ndarray:
    """Coefficients c(m, i), i = 0..m, of the closed-form vector.

    c(m, 0) = 1 and
    c(m, i) = c(m, i-1) sqrt((2j - m + i) / (2 j_n)) sqrt((m - i + 1) / i).
    """
    tj = _two_j(params.n, j)
    if m < 0 or m > tj:
        raise ValueError(f"initial level m = {m} outside [0, 2j] with j = {j}")
    c = np.ones(m + 1, dtype=float)
    two_jn = 2.0 * params.j_n
    for i in range(1, m + 1):
        c[i] = c[i - 1] * math.sqrt((tj - m + i) / two_jn) * math.sqrt(
            (m - i + 1) / i
        )
    return c


def _first_weight(dt: float) -> float:
    """w_0 of the discretized mode w_k = w_0 e^{-k dt/2}: the exact
    integral of e^{-s/2} over each slot of length dt, divided by sqrt(dt)."""
    return -2.0 * math.expm1(-dt / 2.0) / math.sqrt(dt)


@dataclass(frozen=True)
class XiState:
    """Closed-form joint spin-field vector for initial level m at time t.

    Component i carries system level m - i with amplitude
    c[i] * exp(-(m - i) t / 2) against the (unnormalized) i-fold tensor
    power of the mode s -> exp(-s/2) on [0, t].
    """

    m: int
    t: float
    c: np.ndarray

    def alpha(self) -> np.ndarray:
        i = np.arange(self.m + 1, dtype=float)
        return np.exp(-(self.m - i) * self.t / 2.0)

    def discrete_norm_sq(self, K: int) -> float:
        """||xi||^2 with the mode discretized on K slots (geometric sum)."""
        w2 = _first_weight(self.t / K) ** 2 * math.expm1(-self.t) / math.expm1(-self.t / K)
        i = np.arange(self.m + 1, dtype=float)
        return float(np.sum(self.c**2 * self.alpha() ** 2 * w2**i))


def xi_state(params: ModelParams, j, m: int, t: float) -> XiState:
    if t <= 0:
        raise ValueError(f"t = {t} must be positive")
    return XiState(int(m), float(t), c_coefficients(params, j, m))


def _collision_column(params: ModelParams, j: float, s: int, dt: float) -> np.ndarray:
    """First column of exp(sqrt(dt) G_s) in the pair basis (sys s-d, slot d).

    G_s is the real antisymmetric generator of a (x) b^dag - a^dag (x) b
    restricted to total pair excitation s; the column gives the amplitudes
    for depositing d quanta into a fresh vacuum slot.  i G_s is Hermitian,
    so with i G_s = V diag(w) V^H the column is V e^{-i sqrt(dt) w} V^H e_0.
    Its real part is scaled back to unit norm, as a rotation's column is:
    the contracted product repeats the column's norm error at all K steps.
    """
    r = lowering_elements(params, j, s + 1)  # r[c-1] = r_c
    sub = r[::-1] * np.sqrt(np.arange(1.0, s + 1))  # G_s[d+1, d], system level s-d
    w, v = np.linalg.eigh(1j * (np.diag(sub, -1) - np.diag(sub, 1)))
    col = (v @ (np.exp(-1j * math.sqrt(dt) * w) * v[0].conj())).real
    return col / np.linalg.norm(col)


@dataclass(frozen=True)
class JointWaveVector:
    """System (x) discretized-field pure states from the collision model,
    one per start ``|s>``, s = 0..L, kept as the O(L^2) numbers read from them.

    ``sectors[s][c]`` belongs to the start ``|s>`` and system level ``c``:
    its field part (``s - c`` quanta over ``K`` slots) contracted against
    the xi mode's generating state ``prod_k e^{w_k b_k^dag}|0>``, i.e.
    ``<w^{(x)e} | field> / sqrt(e!)``.  At ``c = s`` that is the amplitude
    with the field in vacuum.
    """

    t: float
    K: int
    sectors: dict


def _shifted_power(t0: np.ndarray, log_shift: np.ndarray, K: int) -> np.ndarray:
    """T_{K-1} ... T_1 T_0 for T_k = S^-k T_0 S^k, S = diag(q^c), by doubling.

    The steps a..a+b-1 multiply to S^-a P_b S^a, P_b the first b steps, and
    S^-a X S^a is X * q^(a (c - r)) entrywise: ``log_shift[r, c]`` holds
    ``(r - c) dt / 2`` on the upper triangle, where an upper-triangular
    ``t0`` has all its entries.  Each shift is one exp, so the slot weights
    keep full precision instead of the K-fold rounding of q^K.
    """
    result = np.eye(len(t0))
    block, size, done = t0, 1, 0
    while K:
        if K & 1:
            result = (block * np.exp(done * log_shift)) @ result
            done += size
        K >>= 1
        if K:
            block = (block * np.exp(size * log_shift)) @ block
            size *= 2
    return result


def collision_integrate(params: ModelParams, j, top: int, t: float, K: int) -> JointWaveVector:
    """Integrate the repeated-interaction dynamics for K collisions from
    every start ``|s>`` (field in vacuum), s = 0..``top``, any top <= 2j.

    Each collision applies exp(sqrt(dt)(a (x) b^dag - a^dag (x) b)) to the
    system and a fresh vacuum slot.  The field is contracted against the
    xi mode slot by slot (module docstring), so the cost is one matrix
    power, O(L^4 + L^3 log K) time and O(L^2) memory (L = top), whatever
    K.  ``sectors[s]`` is column ``s`` of that power; a superposition
    ``sum_s v_s |s>`` has the amplitudes ``v_s * sectors[s][c]``.
    """
    tj = _two_j(params.n, j)
    if t <= 0 or K < 1:
        raise ValueError(f"need t > 0 and K >= 1, got t = {t}, K = {K}")
    if not 0 <= top <= tj:
        raise ValueError(f"initial level {top} outside [0, 2j = {tj}]")
    dim = top + 1
    dt = t / K
    level = np.arange(dim, dtype=float)
    fact = np.array([math.factorial(d) for d in range(dim)], dtype=float)
    weight = _first_weight(dt) ** level / np.sqrt(fact)  # w_0^d / sqrt(d!)
    t0 = np.zeros((dim, dim))  # T_0 = sum_d weight[d] A_d
    for c in range(dim):
        for d, amp in enumerate(_collision_column(params, j, c, dt)):
            t0[c - d, c] = weight[d] * amp
    gen = _shifted_power(t0, np.triu(np.subtract.outer(level, level)) * dt / 2.0, K)
    sectors = {s: {c: complex(gen[c, s]) for c in range(s + 1)} for s in range(dim)}
    return JointWaveVector(float(t), int(K), sectors)


def xi_overlap(wave: JointWaveVector, xi: XiState) -> float:
    """Overlap |<xi_hat | psi_hat>| of the collision-model state from the
    start ``|xi.m>`` with the discretized xi vector scaled to unit norm.

    The xi mode is discretized with the exact per-slot integrals of
    e^{-s/2}; its i-fold power is sqrt(i!) times the degree-i part of the
    generating state the wave was contracted against.
    """
    if xi.m not in wave.sectors:
        raise ValueError(f"wave has no excitation sector m = {xi.m}")
    if abs(wave.t - xi.t) > 1e-12:
        raise ValueError(f"time mismatch: wave t = {wave.t}, xi t = {xi.t}")
    comps = wave.sectors[xi.m]
    alpha = xi.alpha()
    total = sum(
        xi.c[i] * alpha[i] * math.sqrt(math.factorial(i)) * comps[xi.m - i]
        for i in range(xi.m + 1)
    )
    return float(abs(total) / math.sqrt(xi.discrete_norm_sq(wave.K)))


def xi_error_bound(params: ModelParams, j, m: int, eps: float) -> float:
    """Envelope C m^{3/2} (n^{-1/2+eps} + m n^{-1}) (1 + (2/eps2) n^{-1/2+eps})^{m/2}
    on the distance between the true joint state and xi, with C =
    ``XI_BOUND_C`` and eps2 = ``MODEL_MARGIN``.

    Valid on the typical window |j - j_n| <= n^{1/2+eps} with the model at
    least eps2 inside its boundary; quadrupling n at fixed eps shrinks the
    bound by a factor approaching 2^{1-2 eps}.
    """
    if m == 0:
        return 0.0
    n = params.n
    scale = float(n) ** (-0.5 + eps)
    base = XI_BOUND_C * m**1.5 * (scale + m / n)
    return base * (1.0 + (2.0 / MODEL_MARGIN) * scale) ** (m / 2.0)


def energy_measurement_sample(n: int, js, t: float, rng: np.random.Generator) -> np.ndarray:
    """Total-energy readouts after monitoring time t, one per entry of the
    block indices ``js`` of n qubits: N(j/sqrt(n), 1/(4t))."""
    if t <= 0:
        raise ValueError(f"t = {t} must be positive")
    return rng.normal(np.asarray(js, dtype=float) / math.sqrt(n), 0.5 / math.sqrt(t))
