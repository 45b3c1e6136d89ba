"""Tests for the dense operator primitives.

Closed-form qubit values are used as oracles throughout: for qubits the
trace norm of a difference equals the Euclidean distance between Bloch
vectors, and the fidelity has the explicit two-eigenvalue form.
"""

import os

import numpy as np
import pytest

from fullspace import bloch_to_density, fidelity
from qlan.operator_core import (
    density_to_bloch,
    embed_block,
    pool_map,
    pool_width,
    qubit_fidelity_sq,
    trace_norm_distance,
    validate_density,
)

RNG = np.random.default_rng(20260818)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def random_qubit_bloch(rng, size):
    """Uniform directions, radius^3 uniform (uniform in the ball)."""
    v = rng.normal(size=(size, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.random((size, 1)) ** (1.0 / 3.0)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    for s in PAULI:
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s, s.conj().T)
        assert abs(np.trace(s)) == 0.0


def test_trace_distance_diagonal_example():
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.diag([0.80, 0.20]).astype(complex)
    assert trace_norm_distance(a, b) == pytest.approx(0.10, abs=1e-12)


def test_trace_distance_orthogonal_axes():
    # Bloch vectors (1,0,0) and (0,1,0): distance sqrt(2)
    a = bloch_to_density([1.0, 0.0, 0.0])
    b = bloch_to_density([0.0, 1.0, 0.0])
    assert trace_norm_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_trace_distance_equals_bloch_distance():
    r = random_qubit_bloch(RNG, 24)
    s = random_qubit_bloch(RNG, 24)
    for ri, si in zip(r, s):
        d = trace_norm_distance(bloch_to_density(ri), bloch_to_density(si))
        assert d == pytest.approx(np.linalg.norm(ri - si), abs=1e-12)


def test_trace_distance_triangle_inequality():
    pts = random_qubit_bloch(RNG, 15)
    rhos = [bloch_to_density(p) for p in pts]
    for a in rhos[:5]:
        for b in rhos[5:10]:
            for c in rhos[10:]:
                lhs = trace_norm_distance(a, c)
                rhs = trace_norm_distance(a, b) + trace_norm_distance(b, c)
                assert lhs <= rhs + 1e-9


def test_fidelity_diagonal_example():
    # F(diag(3/4,1/4), I/2) = sqrt(3/8) + sqrt(1/8)
    a = np.diag([0.75, 0.25]).astype(complex)
    b = np.eye(2, dtype=complex) / 2.0
    want = np.sqrt(0.375) + np.sqrt(0.125)
    assert fidelity(a, b) == pytest.approx(want, abs=1e-12)
    assert fidelity(b, a) == pytest.approx(want, abs=1e-12)


def test_fidelity_pure_states():
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fuchs_van_de_graaf_bounds():
    """1 - F <= T/2 <= sqrt(1 - F^2) with T the (unhalved) trace norm."""
    r = random_qubit_bloch(RNG, 30)
    s = random_qubit_bloch(RNG, 30)
    for ri, si in zip(r, s):
        a, b = bloch_to_density(ri), bloch_to_density(si)
        f = fidelity(a, b)
        half_t = 0.5 * trace_norm_distance(a, b)
        assert 1.0 - f <= half_t + 1e-9
        assert half_t <= np.sqrt(max(1.0 - f * f, 0.0)) + 1e-9


def test_qubit_fidelity_sq_matches_uhlmann():
    r = random_qubit_bloch(RNG, 40)
    s = random_qubit_bloch(RNG, 40)
    f2 = qubit_fidelity_sq(r.T, s.T)
    assert f2.shape == (40,)
    for i in range(0, 40, 5):
        direct = fidelity(bloch_to_density(r[i]), bloch_to_density(s[i]))
        assert f2[i] == pytest.approx(direct**2, abs=1e-10)


def test_qubit_fidelity_sq_clips_rounding_overshoot():
    # radius 1 + 5e-16 can appear after a projection step; must not NaN
    r = np.array([1.0 + 5e-16, 0.0, 0.0])
    f2 = qubit_fidelity_sq(r, r)
    assert np.isfinite(f2)
    assert f2 == pytest.approx(1.0, abs=1e-12)


def test_bloch_round_trip():
    for v in random_qubit_bloch(RNG, 10):
        back = density_to_bloch(bloch_to_density(v))
        assert np.allclose(back, v, atol=1e-12)


def test_density_to_bloch_takes_qubits_only():
    with pytest.raises(ValueError, match=r"expected a 2x2 matrix, got \(3, 3\)"):
        density_to_bloch(np.eye(3))


def test_trace_distance_refuses_unequal_shapes():
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        trace_norm_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_validate_density_accepts_valid():
    rho = bloch_to_density([0.3, -0.2, 0.5])
    out = validate_density(rho)
    assert out.dtype == complex


def test_validate_density_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        validate_density(np.zeros((2, 3)))


def test_validate_density_rejects_nonhermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(m)


def test_validate_density_rejects_bad_trace():
    """VALIDATION_TOL = 1e-10 is the boundary: a trace 2e-10 off raises,
    one 5e-11 off passes."""
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.5, 0.5 + 2e-10]).astype(complex))
    validate_density(np.diag([0.5, 0.5 + 5e-11]).astype(complex))


def test_validate_density_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(m)


def test_psd_guard_in_fidelity():
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="not PSD"):
        fidelity(not_psd, np.eye(2, dtype=complex) / 2)


def test_embed_block():
    m = np.arange(9.0).reshape(3, 3).astype(complex)
    big = embed_block(m, 6)
    assert big.shape == (6, 6) and big.dtype == m.dtype
    assert np.allclose(big[:3, :3], m)
    assert np.count_nonzero(big[3:, :]) == 0 and np.count_nonzero(big[:, 3:]) == 0
    # a stack pads its trailing two axes and keeps a real dtype
    stack = np.arange(2 * 3 * 4 * 4, dtype=float).reshape(2, 3, 4, 4)
    padded = embed_block(stack, 7)
    assert padded.shape == (2, 3, 7, 7) and padded.dtype == stack.dtype
    assert np.array_equal(padded[..., :4, :4], stack)
    assert not padded[..., 4:, :].any() and not padded[..., :, 4:].any()
    assert np.array_equal(embed_block(stack, 4), stack)
    with pytest.raises(ValueError, match="dim"):
        embed_block(stack, 3)


@pytest.mark.parametrize(
    "env, width",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "auto"}, 1),
        ({"OMP_NUM_THREADS": "-1"}, 1),
    ],
)
def test_pool_width_leaves_the_cpus_blas_takes(env, width, monkeypatch):
    """Four CPUs: one worker each, or for BLAS-bound work one per BLAS
    thread group set in the environment, OPENBLAS_NUM_THREADS first; with
    no count set or parsable BLAS is taken to use them all."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert pool_width() == 4
    assert pool_width(blas_bound=True) == width


@pytest.mark.parametrize("workers", [1, 3])
def test_pool_map_is_map_in_order(workers):
    items = list(range(20))
    assert pool_map(lambda x: x * x, items, workers) == [x * x for x in items]
    assert pool_map(abs, [], workers) == []
