"""Tests for the spin-field emission dynamics and the closed-form state.

The m = 1 problem is exactly solvable in the continuum (one emission line
with rate gamma = j / j_n), giving a closed-form overlap oracle; the
reduced dynamics has an independent RK4 route; the damped oscillator
conserves total amplitude exactly; and for a few slots the collision model
can be run on the full joint Fock space.  Collision results are checked
against all four (routes in ``reference_dynamics.py``).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlan import qsde
from qlan.qsde import (
    XI_BOUND_C,
    c_coefficients,
    collision_integrate,
    energy_measurement_sample,
    lowering_elements,
    xi_error_bound,
    xi_overlap,
    xi_state,
)
from qlan.spin_blocks import ModelParams
from reference_dynamics import (
    dense_collision_state,
    lindblad_reduce,
    mode_power,
    oscillator_solution,
    reduced_xi_evolution,
    xi_norm_sq,
)

PARAMS = ModelParams(0.75, 10_000)
JN = PARAMS.j_n  # 2500


def m1_continuum_overlap(gamma: float, t: float) -> float:
    """Exact normalized overlap of xi with the true m = 1 solution.

    The true state is A |1, vac> + |0> (x) f with A = e^{-gamma t / 2} and
    f(s) = sqrt(gamma) e^{-gamma s / 2}; xi replaces the emission profile
    by e^{-s/2} with weight c_1 = sqrt(gamma).
    """
    num = math.exp(-(1 + gamma) * t / 2.0) + gamma * (2.0 / (1 + gamma)) * (
        1.0 - math.exp(-(1 + gamma) * t / 2.0)
    )
    den = math.sqrt(math.exp(-t) + gamma * (1.0 - math.exp(-t)))
    return num / den


def test_lowering_elements_formula():
    r = lowering_elements(PARAMS, JN, 4)
    k = np.arange(1.0, 4.0)
    assert np.allclose(r, np.sqrt(k * (2 * JN - k + 1) / (2 * JN)))
    for dim in (4, 10):  # dim - 1 > 2j; at dim = 2j + 2 the last r_k is 0
        with pytest.raises(ValueError, match="dim - 1 <= 2j"):
            lowering_elements(PARAMS, 1.0, dim)


def test_c_coefficients_recursion():
    j = JN + 1000.0
    c = c_coefficients(PARAMS, j, 2)
    assert c[0] == 1.0
    want1 = math.sqrt((2 * j - 1) / (2 * JN)) * math.sqrt(2.0)
    assert c[1] == pytest.approx(want1, rel=1e-14)
    want2 = want1 * math.sqrt(2 * j / (2 * JN)) * math.sqrt(0.5)
    assert c[2] == pytest.approx(want2, rel=1e-14)
    with pytest.raises(ValueError):
        c_coefficients(PARAMS, 1.0, 3)  # m > 2j


def test_xi_norm_closed_form():
    # ||xi||^2 = e^{-gamma... } at m = 1: e^{-t} + gamma (1 - e^{-t})
    j = JN + 1000.0
    gamma = j / JN
    xi = xi_state(PARAMS, j, 1, 5.0)
    want = math.exp(-5.0) + gamma * (1.0 - math.exp(-5.0))
    assert xi_norm_sq(xi) == pytest.approx(want, rel=1e-12)
    # pinned value at the center, m = 2
    xi2 = xi_state(PARAMS, JN, 2, 5.0)
    assert xi_norm_sq(xi2) == pytest.approx(0.9998000090799866, abs=1e-12)


def test_xi_discrete_norm_converges():
    xi = xi_state(PARAMS, JN, 2, 5.0)
    cont = xi_norm_sq(xi)
    devs = [abs(xi.discrete_norm_sq(K) - cont) for K in (250, 500, 1000)]
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 1e-4


def test_oscillator_amplitude_conservation():
    sol = oscillator_solution(0.8 - 0.3j, 4.0)
    total = abs(sol.sys_amp) ** 2 + sol.mode_norm_sq
    assert total == pytest.approx(abs(0.8 - 0.3j) ** 2, rel=1e-14)
    s = np.linspace(0.0, 4.0, 5)
    assert np.allclose(sol.mode(s), (0.8 - 0.3j) * np.exp(-s / 2.0))


def test_collision_m1_amplitude_decay():
    """System amplitude after K collisions tracks e^{-gamma t / 2}."""
    wave = collision_integrate(PARAMS, JN, 1, 5.0, 500)
    amp = wave.sectors[1][1]
    assert abs(amp - math.exp(-2.5)) < 1e-3
    assert wave.norm() == pytest.approx(1.0, abs=1e-9)


def test_collision_overlap_matches_continuum_formula():
    """Richardson-extrapolated collision overlap vs the exact m = 1 value
    at an off-center block (gamma = 1.4): two fully independent routes."""
    t = 5.0
    j = JN + 1000.0
    xi = xi_state(PARAMS, j, 1, t)
    o_full = xi_overlap(collision_integrate(PARAMS, j, 1, t, 1000), xi)
    o_half = xi_overlap(collision_integrate(PARAMS, j, 1, t, 500), xi)
    rich = 2.0 * o_full - o_half
    assert rich == pytest.approx(m1_continuum_overlap(1.4, t), abs=1e-5)


def test_collision_overlap_near_one_at_center():
    t = 5.0
    for m in (1, 2):
        xi = xi_state(PARAMS, JN, m, t)
        ov = xi_overlap(collision_integrate(PARAMS, JN, m, t, 800), xi)
        assert ov > 0.9999


def test_collision_sector_norms():
    wave = collision_integrate(PARAMS, JN, 2, 3.0, 400)
    per = [wave.sector_norms_sq[s] for s in wave.sectors]
    assert sum(per) == pytest.approx(1.0, abs=1e-10)
    # superposition input conserves each sector's share
    vec = np.array([math.sqrt(0.2), math.sqrt(0.5), math.sqrt(0.3)])
    wave2 = collision_integrate(PARAMS, JN, vec, 3.0, 400)
    assert wave2.sector_norms_sq[0] == pytest.approx(0.2, abs=1e-12)
    assert wave2.sector_norms_sq[1] == pytest.approx(0.5, abs=1e-10)
    assert wave2.sector_norms_sq[2] == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("K", [400, 200])
def test_one_run_from_two_levels_carries_both_probes(K):
    """Sector m depends on level m of the start alone: a run from
    (0, 1, 1) gives each level's sector, sector norm and overlap exactly as
    the run from that level does (qsde-check's default probe at n = 4000)."""
    params = ModelParams(0.75, 4000)
    j = round(params.j_n + 4000**0.75)
    both = collision_integrate(params, j, (0, 1, 1), 5.0, K)
    for m in (1, 2):
        one = collision_integrate(params, j, m, 5.0, K)
        xi = xi_state(params, j, m, 5.0)
        assert both.sectors[m] == one.sectors[m]
        assert both.sector_norms_sq[m] == one.sector_norms_sq[m]
        assert xi_overlap(both, xi) == xi_overlap(one, xi)


def test_collision_guards():
    with pytest.raises(ValueError):
        collision_integrate(PARAMS, 1.0, 3, 1.0, 100)  # m > 2j


@pytest.mark.parametrize(
    "call",
    [
        lambda p, j: collision_integrate(p, j, 1, 5.0, 100),
        lambda p, j: lowering_elements(p, j, 2),
        lambda p, j: c_coefficients(p, j, 1),
        lambda p, j: xi_state(p, j, 1, 5.0),
    ],
    ids=["collision_integrate", "lowering_elements", "c_coefficients", "xi_state"],
)
def test_spin_checks_are_the_block_lattice(call):
    """j must be a spin of n qubits: 428.0 is not one of 1001 qubits (wrong
    parity), 428.3 is no half-integer and 600.5 exceeds n/2."""
    params = ModelParams(0.75, 1001)
    call(params, 428.5)
    for j, problem in ((428.0, "parity"), (428.3, "half-integer"), (600.5, "outside")):
        with pytest.raises(ValueError, match=problem):
            call(params, j)


def test_collision_norm_check_catches_a_scaled_kraus_column(monkeypatch):
    """One Kraus column off unit norm by 1e-12 drifts the norm by ~4e-9
    over 10^4 collisions, about 10^4 times the rounding drift; the norm
    check must raise on it."""
    exact = qsde._collision_column

    def scaled(params, j, s, dt):
        col = exact(params, j, s, dt)
        return col * (1.0 + 1e-12) if s == 1 else col

    monkeypatch.setattr(qsde, "_collision_column", scaled)
    with pytest.raises(RuntimeError, match="drifted"):
        collision_integrate(PARAMS, JN, 1, 2.0, 10**4)


@pytest.mark.parametrize("m", range(4, 11))
def test_collision_any_level_at_a_million_slots(m):
    """No level limit and no memory cap: every m runs at K = 10^6 with its
    norm kept, the no-emission amplitude on exp(-r_m^2 t / 2) and the
    overlap with the closed form near one at the window centre."""
    t, K = 5.0, 10**6
    wave = collision_integrate(PARAMS, JN, m, t, K)
    assert wave.norm() == pytest.approx(1.0, abs=1e-9)
    r_m = float(lowering_elements(PARAMS, JN, m + 1)[-1])
    assert wave.sectors[m][m].real == pytest.approx(math.exp(-r_m**2 * t / 2.0), rel=1e-4)
    assert 0.99 < xi_overlap(wave, xi_state(PARAMS, JN, m, t)) <= 1.0


_MIXED = np.random.default_rng(5).normal(size=(2, 5)).T @ np.array([1.0, 1j])
DENSE_CASES = [
    (1, 1, JN, None),
    (1, 6, 3.0, None),
    (2, 4, JN + 1000.0, None),
    (3, 5, 8.0, None),
    (4, 6, JN, None),
    (4, 6, 2.0, _MIXED / np.linalg.norm(_MIXED)),
    (2, 3, JN, np.array([0.0, 0.6, 0.8j])),
]


@pytest.mark.parametrize("m, K, j, vec", DENSE_CASES)
def test_collision_matches_dense_joint_state(m, K, j, vec):
    """Transfer-matrix integrator against the full joint Fock space: every
    contracted amplitude, the sector norms, the reduced state and the
    overlap with xi, to 1e-13."""
    t = 2.0
    init = m if vec is None else vec
    if vec is None:
        vec = np.eye(m + 1)[m]
    wave = collision_integrate(PARAMS, j, init, t, K)
    psi = dense_collision_state(PARAMS, j, vec, t, K)
    dim = m + 1
    exc = np.indices(psi.shape).sum(axis=0)  # total excitation per entry
    dt = t / K
    w = 2.0 * np.exp(-np.arange(K) * dt / 2.0) * (1.0 - math.exp(-dt / 2.0)) / math.sqrt(dt)
    powers = [mode_power(w, e, dim) for e in range(dim)]
    live = [s for s in range(dim) if vec[s] != 0]
    assert sorted(wave.sectors) == live
    for s in live:
        assert abs(wave.sectors[s][s] - psi[(s,) + (0,) * K]) < 1e-13
        sector = np.where(exc == s, psi, 0.0)
        assert wave.sector_norms_sq[s] == pytest.approx(np.vdot(sector, sector).real, abs=1e-13)
        for c in range(s + 1):
            e = s - c
            want = np.vdot(powers[e], psi[c]) / math.sqrt(math.factorial(e))
            assert abs(wave.sectors[s][c] - want) < 1e-13
    flat = psi.reshape(dim, -1)
    assert np.max(np.abs(wave.reduced - flat @ flat.conj().T)) < 1e-13
    if live == [m]:
        xi = xi_state(PARAMS, j, m, t)
        amp = xi.c * xi.alpha()
        xi_vec = np.stack([amp[m - c] * powers[m - c] for c in range(dim)])
        want = abs(np.vdot(xi_vec, psi)) / (np.linalg.norm(xi_vec) * np.linalg.norm(psi))
        assert xi_overlap(wave, xi) == pytest.approx(want, abs=1e-13)


@given(
    st.integers(1, 8),
    st.integers(1, 10**6),
    st.floats(0.1, 10.0),
    st.integers(4, 5000),
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=9, max_size=9),
)
def test_collision_reduced_state_is_a_density(m, K, t, j, amps):
    """The Kraus-evolved reduced state keeps trace |vec|^2 and stays PSD,
    up to rounding: a collision's Kraus column is unit-norm to about one
    ulp, the same every step, so the trace may drift by ~K eps."""
    vec = np.asarray(amps[: m + 1], dtype=complex)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq == 0.0:
        vec[m], norm_sq = 1.0, 1.0
    rho = collision_integrate(PARAMS, float(j), vec, t, K).reduced
    tol = 1e-13 + 4.0 * np.finfo(float).eps * K
    assert np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-14 * norm_sq)
    assert np.trace(rho).real == pytest.approx(norm_sq, rel=tol)
    assert np.linalg.eigvalsh(rho)[0] >= -tol * norm_sq


@pytest.mark.parametrize("n", (1000, 4000, 16_000, 64_000))
def test_xi_bound_constant_covers_window_edge(n):
    """XI_BOUND_C against Richardson-extrapolated (K = 10^5) chordal
    distances at the window edge j = j_n + n^(3/4), m = 1..6."""
    t, K = 5.0, 10**5
    params = ModelParams(0.75, n)
    j = min(round(params.j_n) + round(n**0.75), n // 2)
    for m in range(1, 7):
        xi = xi_state(params, j, m, t)
        ov_full = xi_overlap(collision_integrate(params, j, m, t, K), xi)
        ov_half = xi_overlap(collision_integrate(params, j, m, t, K // 2), xi)
        dist = math.sqrt(2.0 * (1.0 - (2.0 * ov_full - ov_half)))
        assert dist / xi_error_bound(params, j, m, 0.25) < 1.0


def test_xi_overlap_guards():
    wave = collision_integrate(PARAMS, JN, 1, 2.0, 200)
    with pytest.raises(ValueError, match="sector"):
        xi_overlap(wave, xi_state(PARAMS, JN, 2, 2.0))
    with pytest.raises(ValueError, match="time"):
        xi_overlap(wave, xi_state(PARAMS, JN, 1, 3.0))


def test_lindblad_vs_closed_form():
    """RK4 master equation against the closed-form reduced state."""
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[2, 2] = 1.0
    a = lindblad_reduce(PARAMS, JN, rho0, 1.0)
    b = reduced_xi_evolution(PARAMS, JN, rho0, 1.0)
    assert np.max(np.abs(a - b)) < 5e-4
    assert np.trace(a).real == pytest.approx(1.0, abs=1e-6)


def test_lindblad_vs_collision_reduced():
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[2, 2] = 1.0
    a = lindblad_reduce(PARAMS, JN, rho0, 1.0)
    red = collision_integrate(PARAMS, JN, 2, 1.0, 800).reduced
    assert np.max(np.abs(red - a)) < 1e-3


def test_lindblad_two_level_exact():
    """For a two-level initial state the master equation is solvable by
    hand: the top population decays at rate r1^2 and the coherence at
    r1^2 / 2."""
    rho0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    t = 2.0
    out = lindblad_reduce(PARAMS, JN, rho0, t)
    r1_sq = float(lowering_elements(PARAMS, JN, 2)[0] ** 2)
    assert out[1, 1].real == pytest.approx(0.5 * math.exp(-r1_sq * t), abs=1e-9)
    assert out[0, 1].real == pytest.approx(
        0.5 * math.exp(-r1_sq * t / 2.0), abs=1e-9
    )
    assert out[0, 0].real == pytest.approx(1.0 - 0.5 * math.exp(-r1_sq * t), abs=1e-9)


def test_xi_error_bound_values():
    # m = 0 vanishes; spot value of the envelope
    assert xi_error_bound(PARAMS, JN, 0, 0.1) == 0.0
    n = PARAMS.n
    scale = n ** (-0.25)
    want = XI_BOUND_C * (scale + 1.0 / n) * math.sqrt(1.0 + 40.0 * scale)
    assert xi_error_bound(PARAMS, JN, 1, 0.25) == pytest.approx(want, rel=1e-12)
    # shrinks as n grows
    b1 = xi_error_bound(ModelParams(0.75, 1000), 250, 2, 0.1)
    b2 = xi_error_bound(ModelParams(0.75, 4000), 1000, 2, 0.1)
    assert b2 < b1


def test_energy_measurement_moments():
    rng = np.random.default_rng(3)
    x = energy_measurement_sample(PARAMS.n, np.full(40000, JN), 100.0, rng)
    assert x.mean() == pytest.approx(JN / 100.0, abs=5 * 0.05 / 200.0)
    assert x.std() == pytest.approx(0.05, rel=0.05)
    arr = energy_measurement_sample(PARAMS.n, np.array([100.0, 200.0]), 1e9, rng)
    assert np.allclose(arr, [1.0, 2.0], atol=1e-3)
    with pytest.raises(ValueError):
        energy_measurement_sample(PARAMS.n, np.array([JN]), 0.0, rng)
