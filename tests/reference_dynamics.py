"""Independent routes to the monitored-block dynamics, for tests only.

* ``dense_collision_state``: the collision model simulated on the full
  joint Fock space, system (x) K slots, each collision an explicit
  two-body unitary.  It stores the whole field, so it costs (L+1)^(K+1)
  amplitudes: keep K <= 6 and the top level L <= 4.
* ``lindblad_reduce``: fixed-step RK4 of the lowering-only master
  equation for the reduced system state.
* ``reduced_xi_evolution``: the reduced state the closed-form xi vector
  predicts, and ``xi_norm_sq`` its squared norm in the continuum.
* ``oscillator_solution``: the damped oscillator, whose coherent states
  stay coherent.
* ``collision_generator``: one collision's generator on a sector of fixed
  total excitation, for ``scipy.linalg.expm`` to exponentiate.
* ``kraus_reduced_state``: the system's reduced state after K collisions,
  the one-collision Kraus channel built from ``qsde._collision_column``
  and raised to the power K.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from qlan.qsde import _collision_column, c_coefficients, lowering_elements
from qlan.spin_blocks import ModelParams

# Trace drift allowed in the Lindblad integrator before erroring out.
LINDBLAD_TRACE_TOL = 1e-6


def dense_collision_state(params: ModelParams, j, vec, t: float, K: int) -> np.ndarray:
    """Joint pure state after K collisions, shape (L+1,) * (K+1): axis 0
    the system level, axis k + 1 the occupation of slot k.

    Each collision applies exp(sqrt(dt)(a (x) b^dag - a^dag (x) b)) with
    a|c> = sqrt(c (2j - c + 1) / (2 j_n)) |c - 1> and the bosonic b, both
    cut at L quanta; total excitation is conserved, so the cut is exact on
    the sectors s <= L the state lives in.
    """
    vec = np.asarray(vec, dtype=complex)
    dim = len(vec)
    lv = np.arange(1, dim, dtype=float)
    a = np.diag(np.sqrt(lv * (2.0 * j - lv + 1.0) / (2.0 * params.j_n)), 1)
    b = np.diag(np.sqrt(lv), 1)
    gen = np.kron(a, b.T) - np.kron(a.T, b)
    u = expm(math.sqrt(t / K) * gen).reshape(dim, dim, dim, dim)
    psi = np.zeros((dim,) * (K + 1), dtype=complex)
    psi[(slice(None),) + (0,) * K] = vec
    for k in range(K):
        psi = np.tensordot(u, psi, axes=([2, 3], [0, k + 1]))
        psi = np.moveaxis(psi, 1, k + 1)
    return psi


def collision_generator(params: ModelParams, j, s: int) -> np.ndarray:
    """a (x) b^dag - a^dag (x) b on total excitation s, in the pair basis
    (system s - d, slot d), d = 0..s: real antisymmetric tridiagonal with
    G[d + 1, d] = r_{s-d} sqrt(d + 1)."""
    r = lowering_elements(params, j, s + 1)  # r[c-1] = r_c
    g = np.zeros((s + 1, s + 1))
    for d in range(s):
        g[d + 1, d] = r[s - d - 1] * math.sqrt(d + 1.0)
        g[d, d + 1] = -g[d + 1, d]
    return g


def kraus_reduced_state(params: ModelParams, j, vec, t: float, K: int) -> np.ndarray:
    """Reduced system state after K collisions from |vec><vec|: the channel
    rho -> sum_d A_d rho A_d^T, with A_d[c - d, c] the amplitude for level c
    to deposit d quanta into a fresh slot, raised to the power K as an
    (L+1)^2-square superoperator."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    dim = len(vec)
    kraus = np.zeros((dim, dim, dim))  # kraus[d] = A_d
    for c in range(dim):
        for d, amp in enumerate(_collision_column(params, j, c, t / K)):
            kraus[d, c - d, c] = amp
    superop = np.einsum("dab,dce->acbe", kraus, kraus).reshape(dim * dim, dim * dim)
    superop = np.linalg.matrix_power(superop, K)
    return (superop @ np.outer(vec, vec.conj()).ravel()).reshape(dim, dim)


def mode_power(w: np.ndarray, e: int, dim: int) -> np.ndarray:
    """(a_w^dag)^e |0> / sqrt(e!) on K slots cut at dim - 1 quanta,
    a_w^dag = sum_k w_k b_k^dag, built by applying the creation operator."""
    K = len(w)
    bdag = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), -1)
    field = np.zeros((dim,) * K)
    field[(0,) * K] = 1.0
    for _ in range(e):
        field = sum(
            w[k] * np.moveaxis(np.tensordot(bdag, field, axes=([1], [k])), 0, k)
            for k in range(K)
        )
    return field / math.sqrt(math.factorial(e))


def lindblad_reduce(
    params: ModelParams, j, rho0: np.ndarray, t: float, dt: float = 1e-3
) -> np.ndarray:
    """Reduced system state after time t under the lowering-only Lindbladian.

    d rho/dt = a rho a^dag - (1/2){a^dag a, rho} with the block coupling
    ``a``.  Because the coupling only lowers, the dynamics closes exactly
    on the span of the first dim(rho0) levels — no truncation error enters
    for initial states supported there.  Fixed-step RK4; trace drift above
    1e-6 raises (use a smaller dt), negativity beyond -1e-9 is warned.
    """
    rho = np.array(rho0, dtype=complex)
    d = rho.shape[0]
    r = lowering_elements(params, j, d)
    n_diag = np.concatenate(([0.0], r * r))  # diag of a^dag a

    def rhs(m):
        out = np.zeros_like(m)
        out[:-1, :-1] = m[1:, 1:] * np.outer(r, r)
        out -= 0.5 * (n_diag[:, None] + n_diag[None, :]) * m
        return out

    steps = max(1, int(math.ceil(t / dt)))
    h = t / steps
    tr0 = float(np.trace(rho).real)
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = abs(float(np.trace(rho).real) - tr0)
    if drift > LINDBLAD_TRACE_TOL:
        raise ValueError(
            f"trace drifted by {drift:.3e} > {LINDBLAD_TRACE_TOL:.1e}; "
            f"reduce dt (currently {dt})"
        )
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w[0] < -1e-9:
        warnings.warn(f"Lindblad positivity drift: min eigenvalue {w[0]:.3e}")
    return rho


def reduced_xi_evolution(params: ModelParams, j, rho0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form reduced state predicted by the xi approximation.

    M[a, b] = sum_i rho0[a+i, b+i] c_{a+i}(i) c_{b+i}(i)
              e^{-(a+b)t/2} (1 - e^{-t})^i.
    Exact for the oscillator (j, j_n -> infinity) and accurate to the xi
    error scale for finite blocks; cross-checked against lindblad_reduce.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    cs = [c_coefficients(params, j, k) for k in range(d)]
    out = np.zeros_like(rho0)
    decay = math.exp(-t)
    for a in range(d):
        for b in range(d):
            acc = 0.0 + 0.0j
            for i in range(d - max(a, b)):
                acc += (
                    rho0[a + i, b + i]
                    * cs[a + i][i]
                    * cs[b + i][i]
                    * (1.0 - decay) ** i
                )
            out[a, b] = acc * math.exp(-(a + b) * t / 2.0)
    return out


def xi_norm_sq(xi) -> float:
    """||xi||^2 = sum_i c_i^2 e^{-(m-i)t} (1 - e^{-t})^i (continuum)."""
    i = np.arange(xi.m + 1, dtype=float)
    return float(np.sum(xi.c**2 * np.exp(-(xi.m - i) * xi.t) * (1.0 - math.exp(-xi.t)) ** i))


@dataclass(frozen=True)
class OscillatorSolution:
    """Damped-oscillator benchmark: a coherent state |z> stays coherent.

    System amplitude z e^{-t/2}; emitted mode s -> z e^{-s/2} on [0, t];
    |sys_amp|^2 + mode_norm_sq = |z|^2 exactly.
    """

    z: complex
    t: float

    @property
    def sys_amp(self) -> complex:
        return self.z * math.exp(-self.t / 2.0)

    def mode(self, s) -> np.ndarray:
        return self.z * np.exp(-np.asarray(s, dtype=float) / 2.0)

    @property
    def mode_norm_sq(self) -> float:
        return abs(self.z) ** 2 * (1.0 - math.exp(-self.t))


def oscillator_solution(z: complex, t: float) -> OscillatorSolution:
    if t <= 0:
        raise ValueError(f"t = {t} must be positive")
    return OscillatorSolution(complex(z), float(t))
