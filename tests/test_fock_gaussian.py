"""Tests for the Gaussian limit's oscillator state and heterodyne sampling.

Thermal and coherent states have closed-form matrix elements, Q functions,
and heterodyne marginals (Gaussians), which serve as the oracles here; the
dense Fock-cutoff states and the mixed-state heterodyne sampler come from
``dense_channels``.  The package samples pure states only: Fock and
coherent states have closed-form heterodyne laws, and a block's mixed
state is sampled as the mixture of its ladder vectors against the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, special, stats

from dense_channels import (
    MixedHeterodyneSampler,
    coherent_matrix,
    coherent_vector,
    dense_displaced_thermal,
    displacement_operator,
    mean_annihilation,
    q_function,
    thermal_state,
)
from fullspace import fock_basis, spin_matrices
from qlan.fock_gaussian import GaussianLimitParams, HeterodyneSampler, displaced_thermal
from qlan.operator_core import trace_norm_distance
from qlan.spin_blocks import ModelParams, block_state, block_vectors, gauge_angle


def sample_heterodyne(rho, rng, size):
    """One-shot draw from a fresh mixed-state oracle sampler."""
    return MixedHeterodyneSampler(rho).sample(rng, size)


def limit_state(gp):
    """The displaced thermal state's certified corner in the Fock basis."""
    return fock_basis(displaced_thermal(gp)[0], gauge_angle(gp.u))


def mean_number(rho):
    """Tr(rho a^dag a) on the truncated space."""
    return float(np.sum(np.arange(rho.shape[0]) * np.diagonal(rho).real))


def test_limit_params_derived_quantities():
    gp = GaussianLimitParams(0.75, (1.0, 0.0, 0.0))
    assert gp.p == pytest.approx(1.0 / 3.0)
    assert gp.beta == pytest.approx(1j * math.sqrt(0.5))
    assert gp.classical_var == pytest.approx(0.1875)
    with pytest.raises(ValueError):
        GaussianLimitParams(0.5, (0.0, 0.0, 0.0))


def test_thermal_state_matrix_elements():
    rho = thermal_state(1.0 / 3.0, 60)
    # ground-state weight 1 - p, mean photon number p / (1 - p)
    assert rho[0, 0].real == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mean_number(rho) == pytest.approx(0.5, abs=1e-10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, np.diag(np.diag(rho)))


def test_coherent_vector_overlaps():
    dim = 80
    for z, w in [(0.5 + 0.2j, -0.3 + 1.0j), (2.0, 1.5j), (0.0, 1.0)]:
        a = coherent_vector(z, dim)
        b = coherent_vector(w, dim)
        got = abs(np.vdot(a, b))
        assert got == pytest.approx(math.exp(-0.5 * abs(z - w) ** 2), abs=1e-9)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_coherent_matrix_one_column_per_point():
    zs = np.array([0.3 - 0.4j, 1.2j, 0.0])
    m = coherent_matrix(zs, 50)
    for i, z in enumerate(zs):
        assert np.allclose(m[:, i], coherent_vector(z, 50), atol=1e-12)


def test_displacement_creates_coherent_state():
    d = displacement_operator(0.7 - 0.3j, 70)
    vac = np.zeros(70)
    vac[0] = 1.0
    assert np.allclose(d @ vac, coherent_vector(0.7 - 0.3j, 70), atol=1e-9)
    assert np.allclose(d @ d.conj().T, np.eye(70), atol=1e-9)


def test_displaced_thermal_two_routes_agree():
    """Unitary displacement of the thermal state vs Gauss-Hermite mixture
    of coherent states: independent constructions of the same state."""
    gp = GaussianLimitParams(0.75, (1.0, -0.5, 0.3))
    a = dense_displaced_thermal(gp, 40, method="displace")
    b = dense_displaced_thermal(gp, 40, method="mixture")
    assert trace_norm_distance(a, b) < 1e-6


def test_displaced_thermal_moments():
    gp = GaussianLimitParams(0.8, (0.7, 0.4, 0.0))
    rho = limit_state(gp)
    nbar = gp.p / (1.0 - gp.p)
    assert mean_annihilation(rho) == pytest.approx(gp.beta, abs=1e-9)
    assert mean_number(rho) == pytest.approx(abs(gp.beta) ** 2 + nbar, abs=1e-8)


def test_displaced_thermal_pinned_oracle():
    # mu = 3/4, u = (1, 0, 0): Tr(rho a) = i / sqrt(2)
    gp = GaussianLimitParams(0.75, (1.0, 0.0, 0.0))
    rho = limit_state(gp)
    assert mean_annihilation(rho) == pytest.approx(1j * math.sqrt(0.5), abs=1e-10)


def test_q_function_vacuum_and_mass():
    vac = np.zeros((40, 40), dtype=complex)
    vac[0, 0] = 1.0
    assert q_function(vac, 0.0) == pytest.approx(1.0 / math.pi)
    z = 0.8 - 0.6j
    assert q_function(vac, z) == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-12)

    gp = GaussianLimitParams(0.75, (0.6, -0.8, 0.0))
    rho = limit_state(gp)
    g = np.linspace(-6.0, 6.0, 241)
    X, Y = np.meshgrid(g, g)
    q = q_function(rho, X + 1j * Y)
    mass = np.trapezoid(np.trapezoid(q, g, axis=1), g)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_heterodyne_thermal_marginals():
    """Thermal Q is an isotropic Gaussian: Var = (nbar + 1) / 2 per axis."""
    rho = thermal_state(1.0 / 3.0, 60)  # nbar = 1/2
    rng = np.random.default_rng(42)
    z = sample_heterodyne(rho, rng, 12000)
    sd = math.sqrt(0.75)
    for axis in (z.real, z.imag):
        ks = stats.kstest(axis, stats.norm(loc=0.0, scale=sd).cdf)
        assert ks.statistic < 0.02


def test_heterodyne_coherent_marginals():
    """A coherent state |alpha> heterodynes to the complex Gaussian
    alpha + N(0, 1/2) per axis; both samplers, the pure one on the
    vector."""
    alpha = 0.9 - 0.4j
    vec = coherent_vector(alpha, 50)
    rho = np.outer(vec, vec.conj())
    sd = math.sqrt(0.5)
    for seed, sampler in ((43, MixedHeterodyneSampler(rho)), (48, HeterodyneSampler(vec))):
        z = sampler.sample(np.random.default_rng(seed), 12000)
        ks_r = stats.kstest(z.real, stats.norm(loc=alpha.real, scale=sd).cdf)
        ks_i = stats.kstest(z.imag, stats.norm(loc=alpha.imag, scale=sd).cdf)
        assert ks_r.statistic < 0.02
        assert ks_i.statistic < 0.02


@pytest.mark.parametrize("k", [0, 1, 4, 12])
def test_heterodyne_fock_state_is_gamma_with_uniform_angle(k):
    """A Fock state |k> heterodynes to |z|^2 ~ Gamma(k + 1) with an
    independent uniform angle; its angle envelope is exact, so every
    proposal is accepted (m_const = 1)."""
    psi = np.zeros(k + 1)
    psi[k] = 1.0
    sampler = HeterodyneSampler(psi)
    z = sampler.sample(np.random.default_rng(100 + k), 20000)
    assert stats.kstest(np.abs(z) ** 2, stats.gamma(k + 1.0).cdf).pvalue > 1e-3
    angle = np.mod(np.angle(z), 2.0 * math.pi)
    assert stats.kstest(angle, stats.uniform(0.0, 2.0 * math.pi).cdf).pvalue > 1e-3
    assert sampler.m_const == pytest.approx(1.0, rel=1e-12)
    a, bound = sampler._envelope(np.abs(z) ** 2)
    assert np.allclose(bound, np.abs(a[k]) ** 2, rtol=1e-12, atol=0.0)  # density = bound


def test_heterodyne_displaced_thermal_marginals():
    gp = GaussianLimitParams(0.75, (1.0, 0.0, 0.0))
    rho = limit_state(gp)
    rng = np.random.default_rng(44)
    z = sample_heterodyne(rho, rng, 12000)
    nbar = 0.5
    sd = math.sqrt((nbar + 1.0) / 2.0)
    ks_r = stats.kstest(z.real, stats.norm(loc=0.0, scale=sd).cdf)
    ks_i = stats.kstest(z.imag, stats.norm(loc=math.sqrt(0.5), scale=sd).cdf)
    assert ks_r.statistic < 0.02
    assert ks_i.statistic < 0.02


def test_heterodyne_rescaled_recovers_local_parameter():
    """Im/Re of z, rescaled by 1/sqrt(2 mu - 1), center on (u_x, u_y)."""
    mu = 0.75
    u = (1.0, 0.0, 0.0)
    rho = limit_state(GaussianLimitParams(mu, u))
    rng = np.random.default_rng(45)
    z = sample_heterodyne(rho, rng, 20000)
    s = math.sqrt(2.0 * mu - 1.0)
    ux = z.imag / s
    uy = -z.real / s
    se = 1.0 / math.sqrt(20000)
    assert abs(ux.mean() - 1.0) < 5 * se * math.sqrt(1.5)
    assert abs(uy.mean() - 0.0) < 5 * se * math.sqrt(1.5)
    # per-axis variance mu / (2 (2 mu - 1)^2) = 1.5
    assert ux.var() == pytest.approx(1.5, rel=0.05)


def test_heterodyne_sampler_reproducible():
    psi = block_vectors(400, np.ones((3, 1)), [100.0], [2.0])[0][0]
    a = HeterodyneSampler(psi).sample(np.random.default_rng(7), size=100)
    b = HeterodyneSampler(psi).sample(np.random.default_rng(7), size=100)
    assert a.shape == (100,) and np.array_equal(a, b)


@given(
    parts=st.integers(1, 12).flatmap(
        lambda d: arrays(float, (2, d, d), elements=st.floats(-1.0, 1.0))
    ),
    s=st.floats(0.0, 60.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_heterodyne_envelope_bounds_angle_density(parts, s, theta):
    """For any state and radius, pi Q(z) = e^{-s} c^H rho c never exceeds
    the oracle's per-draw bound v^T |rho| v, nor, for each eigenvector
    psi of rho, |<z|psi>|^2 the pure sampler's (sum |psi_m| v_m)^2 (up to
    rounding)."""
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    assume(np.trace(rho).real > 1e-3)
    sampler = MixedHeterodyneSampler(rho)
    _, bound = sampler._envelope(np.array([s]))
    z = math.sqrt(s) * np.exp(1j * theta)
    density = math.pi * q_function(sampler.rho, z)
    assert density <= bound[0] * (1.0 + 1e-12)
    for psi in np.linalg.eigh(rho)[1].T:
        pure = HeterodyneSampler(psi)
        _, bound = pure._envelope(np.array([s]))
        density = math.pi * q_function(np.outer(pure.psi, pure.psi.conj()), z)
        assert density <= bound[0] * (1.0 + 1e-12)


def _rotated_block():
    return block_state(ModelParams(0.75, 400), (1.5, -1.0, 0.5), 100.0)


def test_heterodyne_radius_follows_gamma_mixture():
    """|z|^2 ~ sum_k rho_kk Gamma(k + 1, 1) for a rotated block state."""
    rho = _rotated_block()
    weights = np.diagonal(rho).real / np.trace(rho).real
    z = sample_heterodyne(rho, np.random.default_rng(46), 20000)
    shapes = np.arange(len(weights)) + 1.0

    def cdf(x):
        return special.gammainc(shapes, np.asarray(x)[..., None]) @ weights

    assert stats.kstest(np.abs(z) ** 2, cdf).pvalue > 1e-3


def _check_m_const(sampler):
    """m_const is the closed form of int e^{-s} (envelope bound) ds."""
    # the envelope carries the factor e^{-s} already
    integral, _ = integrate.quad(
        lambda s: sampler._envelope(np.array([s]))[1][0], 0.0, np.inf
    )
    assert sampler.m_const == pytest.approx(integral, rel=1e-8)
    assert 1.0 <= sampler.m_const


def test_heterodyne_acceptance_matches_m_const():
    """The oracle's m_const, for a rotated block state, and its inverse is
    the angle acceptance counted on a seeded draw."""
    sampler = MixedHeterodyneSampler(_rotated_block())
    _check_m_const(sampler)
    sampler.sample(np.random.default_rng(47), 20000)
    assert 20000 / sampler.proposals == pytest.approx(1.0 / sampler.m_const, rel=0.03)


@pytest.mark.parametrize("u, k", [((1.5, -1.0, 0.5), 3), ((5.0, 0.0, 0.0), 0)])
def test_pure_sampler_m_const_matches_its_integral(u, k):
    """The pure sampler's m_const, sum_kl |psi_k| |psi_l| Gamma((k+l)/2 + 1)
    / sqrt(k! l!), for a rotated block's ladder vector, at a moderate and a
    large transverse u (60 levels, about 12 proposals a draw).  It is the
    mean number of angle proposals a draw takes, bound(s) / sum_m |a_m(s)|^2
    at its radius s (one proposal is accepted with the angle-mean density
    over the bound), over the radii of a seeded draw."""
    sampler = HeterodyneSampler(block_vectors(400, np.reshape(u, (3, 1)), [100.0], [k])[0][0])
    _check_m_const(sampler)
    a, bound = sampler._envelope(np.abs(sampler.sample(np.random.default_rng(47), 20000)) ** 2)
    assert np.mean(bound / (np.abs(a) ** 2).sum(axis=0)) == pytest.approx(sampler.m_const, rel=0.03)


def test_spin_ladder_embeds_into_fock_corner():
    """In the k-ladder basis J_+ / sqrt(2j) approaches the Fock annihilator:
    superdiagonal sqrt((k+1)(2j-k)) / sqrt(2j) -> sqrt(k+1) for 2j large."""
    tj = 4000
    jx, jy, _ = spin_matrices(tj / 2.0)
    jp = (jx + 1j * jy)[:6, :6] / math.sqrt(tj)
    got = np.diagonal(jp, 1).real
    k = np.arange(5.0)
    exact = np.sqrt((k + 1.0) * (tj - k) / tj)
    assert np.allclose(got, exact, atol=1e-12)
    assert np.max(np.abs(got - np.sqrt(k + 1.0))) < 6.0 / tj
    assert np.count_nonzero(jp - np.diag(np.diagonal(jp, 1), 1)) == 0
