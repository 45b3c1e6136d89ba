"""Tests for the collective-spin block machinery.

The heavyweight oracle lives in fullspace.py: an explicit isotypic
decomposition of the full 2^n-dimensional tensor power, against which the
block probabilities and block states are checked with no shared code.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import lapack

import fullspace
from fullspace import (
    assemble_from_blocks,
    block_probability_factored,
    exact_block_weight,
    fock_basis,
    full_ladder_state,
    isotypic_isometries,
    rotation_unitary,
    spin_matrices,
    tensor_power,
)
from qlan.spin_blocks import (
    ModelParams,
    block_corners,
    block_pmf_window,
    block_state,
    classical_coordinate,
    block_vector,
    gauge_angle,
    ladder_corner,
    ladder_level,
    local_qubit_state,
    sample_block_index,
    typical_set,
    valid_j_values,
)
from qlan.tolerances import CORNER_TAIL_MASS, WINDOW_TAIL_MASS

U0 = (0.0, 0.0, 0.0)


def test_model_params_validation():
    ModelParams(0.75, 10)
    with pytest.raises(ValueError):
        ModelParams(0.5, 10)
    with pytest.raises(ValueError):
        ModelParams(1.0, 10)
    with pytest.raises(ValueError):
        ModelParams(0.3, 10)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        ModelParams(0.8, 0)


@pytest.mark.parametrize("mu", [np.array([0.7]), np.full(3, 0.7)])
def test_model_params_rejects_an_array_mu(mu):
    """One reference state, not a batch of them: a one-element array would
    pass the range check and make j_n an array, a longer one would fail it
    with numpy's error, which does not name mu."""
    with pytest.raises(ValueError, match="mu must be a scalar"):
        ModelParams(mu, 10)


def test_mu_u_admissible_window():
    params = ModelParams(0.75, 100)
    assert params.mu_u((0.0, 0.0, 1.0)) == pytest.approx(0.85)
    # u_z large enough to push mu_u to 1 must raise
    with pytest.raises(ValueError, match="admissible"):
        params.mu_u((0.0, 0.0, 2.6))
    with pytest.raises(ValueError, match="admissible"):
        params.mu_u((0.0, 0.0, -2.6))


def _block_pmf(params, u) -> dict:
    """p_{n,u}(j) by j on the pmf window; a j outside it is a KeyError."""
    js, probs, _ = block_pmf_window(params, u)
    return dict(zip(js, probs))


def test_block_probability_two_qubits():
    # diag(3/4, 1/4)^(x2): singlet weight 3/16, triplet weight 13/16
    pmf = _block_pmf(ModelParams(0.75, 2), U0)
    assert pmf[1.0] == pytest.approx(13 / 16, abs=1e-14)
    assert pmf[0.0] == pytest.approx(3 / 16, abs=1e-14)


def test_block_probability_exact_rational_oracle():
    """Log-domain route vs exact Fraction arithmetic at n = 30."""
    pmf = _block_pmf(ModelParams(0.75, 30), U0)
    for j in (15.0, 9.0, 4.0, 1.0, 0.0):
        want = exact_block_weight(30, j, Fraction(3, 4))
        assert pmf[j] == pytest.approx(float(want), rel=1e-12)


def test_block_probability_shifted_parameter():
    """With u != 0 the weights follow the same closed form at mu_u."""
    params = ModelParams(0.6, 50)
    u = (0.4, -0.3, 0.7)
    mu_u = params.mu_u(u)
    pmf = _block_pmf(params, u)
    for j in (25.0, 10.0, 3.0):
        want = exact_block_weight(50, j, mu_u)
        assert pmf[j] == pytest.approx(want, rel=1e-11)


def test_block_probability_sums_to_one():
    """The window's terms and the ``dropped`` mass outside it: the pmf over
    the whole lattice."""
    for n, mu in ((6, 0.75), (31, 0.65), (200, 0.9)):
        _, probs, dropped = block_pmf_window(ModelParams(mu, n), (0.5, 0.2, -0.4))
        assert probs.sum() + dropped == pytest.approx(1.0, abs=1e-12)


def test_block_probability_factored_consistency():
    params = ModelParams(0.8, 64)
    u = (0.1, 0.0, 0.5)
    pmf = _block_pmf(params, u)
    for j in (32.0, 20.0, 19.0, 5.0):
        b, k = block_probability_factored(params, u, j)
        assert b * k == pytest.approx(pmf[j], rel=1e-9)
        assert k > 0.0


def test_block_probability_factored_k_tends_to_one():
    """The correction factor K -> 1 at the pmf center as n grows."""
    devs = []
    for n in (100, 1000, 10000):
        params = ModelParams(0.75, n)
        j = round(params.j_n)
        _, k = block_probability_factored(params, U0, j)
        devs.append(abs(k - 1.0))
    assert devs[0] < 0.05
    assert devs[2] < devs[1] < devs[0]


def test_classical_coordinate_center_and_slope():
    params = ModelParams(0.75, 100)
    assert classical_coordinate(params, params.j_n) == pytest.approx(0.0)
    g1 = classical_coordinate(params, 30.0)
    g2 = classical_coordinate(params, 31.0)
    assert g2 - g1 == pytest.approx(0.1, abs=1e-14)  # 1/sqrt(n)


def test_typical_set_pinned_example():
    params = ModelParams(0.75, 100)
    lo, hi = typical_set(params, 0.1)
    assert (lo, hi) == (10.0, 40.0)


def test_typical_set_parity_and_range():
    # odd n: bounds must be valid half-integers of the right parity
    params = ModelParams(0.75, 101)
    lo, hi = typical_set(params, 0.2)
    js = valid_j_values(101)
    assert lo in js and hi in js
    assert lo <= params.j_n <= hi
    with pytest.raises(ValueError):
        typical_set(params, 0.25)
    with pytest.raises(ValueError):
        typical_set(params, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**7),
    mu=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    eps=st.floats(0.0, 0.25, exclude_min=True, exclude_max=True),
)
def test_typical_set_is_never_empty(n, mu, eps):
    """The window j_n +- n^(1/2+eps) is at least 2 wide and centred inside
    [0, n/2], so both snapped ends are lattice values inside it, lo <= hi."""
    params = ModelParams(mu, n)
    lo, hi = typical_set(params, eps)
    w = float(n) ** (0.5 + eps)
    assert params.j_n - w <= lo <= hi <= params.j_n + w
    for j in (lo, hi):
        assert (2 * j).is_integer() and (2 * j - n) % 2 == 0 and 0 <= 2 * j <= n


def test_pmf_window_mass():
    params = ModelParams(0.75, 400)
    u = (1.0, 1.0, 1.0)
    js, probs, missing = block_pmf_window(params, u)
    assert missing < 1e-12
    assert probs.sum() == pytest.approx(1.0, abs=1e-11)
    # window sits inside the valid range
    assert js.min() >= valid_j_values(400).min()
    assert js.max() <= 200.0


def test_pmf_window_stays_narrow_at_large_n():
    """At the exact-risk stage-2 size the window is a few binomial standard
    deviations wide, and its outside mass, summed term by term, meets the
    target where 1 - sum(probs) never would (rounding in the log-pmf leaves
    ~1e-9 there)."""
    js, probs, dropped = block_pmf_window(ModelParams(0.75, 498_812), U0)
    assert len(js) <= 20_000
    assert dropped <= 1e-12


@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize(
    "mu", [Fraction(3, 4), Fraction(11, 20), Fraction(9, 10), Fraction(19, 20)]
)
def test_window_drops_the_exact_outside_mass(n, mu):
    """``dropped`` is the rational mass outside the window to 1e-12
    relative, and at most ``WINDOW_TAIL_MASS``.  At n = 30 only mu = 19/20
    leaves a block out; at n = 60 all but mu = 3/4 do."""
    js = valid_j_values(n)
    weights = {float(j): exact_block_weight(n, j, mu) for j in js}
    assert sum(weights.values()) == 1
    got, _, dropped = block_pmf_window(ModelParams(float(mu), n), U0)
    inside = set(got.tolist())
    outside = float(sum(w for j, w in weights.items() if j not in inside))
    assert dropped == pytest.approx(outside, rel=1e-12, abs=0.0)
    assert dropped <= WINDOW_TAIL_MASS
    assert (dropped > 0.0) == (len(got) < len(js))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    mu=st.fractions(Fraction(1, 2), 1, max_denominator=60).filter(lambda f: Fraction(1, 2) < f < 1),
)
def test_window_is_the_shortest_run(n, mu):
    """The window is a run of the lattice whose two tails each hold at most
    half of ``WINDOW_TAIL_MASS``, and trimming one more block from either
    end would push that tail past half, in rational weights (allowed 1e-9
    of the half for the pmf's rounding)."""
    js = valid_j_values(n)
    weights = [exact_block_weight(n, j, mu) for j in js]
    got, _, _ = block_pmf_window(ModelParams(float(mu), n), U0)
    lo = int(np.searchsorted(js, got[0]))
    hi = lo + len(got)
    assert np.array_equal(js[lo:hi], got)
    half = Fraction(WINDOW_TAIL_MASS) / 2
    assert sum(weights[:lo]) <= half * (1 + Fraction(1, 10**9))
    assert sum(weights[hi:]) <= half * (1 + Fraction(1, 10**9))
    assert sum(weights[: lo + 1]) > half * (1 - Fraction(1, 10**9))
    assert sum(weights[hi - 1 :]) > half * (1 - Fraction(1, 10**9))


def _walk_block_law(n: int, mu: Fraction) -> dict:
    """Law of 2j = 2 max_k S_k - S_n for the +-1 walk S with P(+1) = mu,
    summed exactly: N ~ Bin(n, mu) up-steps, and given N the reflection
    principle's P(max S >= m) = C(n, n - N + m) / C(n, N), m >= max(S_n, 0)."""
    law = {}
    for up in range(n + 1):
        down, s = n - up, 2 * up - n
        weight = mu**up * (1 - mu) ** down  # P(N = up) / C(n, up)
        for m in range(max(s, 0), up + 1):
            at_m = math.comb(n, down + m) - (math.comb(n, down + m + 1) if m < up else 0)
            law[2 * m - s] = law.get(2 * m - s, 0) + weight * at_m
    return law


@settings(max_examples=40)
@given(
    n=st.integers(1, 40),
    mu=st.fractions(Fraction(1, 2), 1, max_denominator=60).filter(lambda f: Fraction(1, 2) < f < 1),
)
def test_walk_maximum_law_is_the_block_law(n, mu):
    """The walk maximum that ``sample_block_index`` draws has exactly the
    block law p_{n,mu}(j), in rational arithmetic."""
    law = _walk_block_law(n, mu)
    assert law == {int(2 * j): exact_block_weight(n, j, mu) for j in valid_j_values(n)}


def test_sample_block_index_goodness_of_fit():
    """Seeded chi-square of the walk draws against the pmf window, on the
    cells expected to hold at least 5 draws, at level 1e-3: at n = 40 and
    u = (0.3, -0.2, 0.4), and unshifted at n = 12, 10^4 and 10^6.  Near
    mu = 1/2 at small n the walk maximum sets most of j's spread, so the
    n = 12 case sees a draw biased by 5% in P(max S >= m)."""
    for params, u, draws in (
        (ModelParams(0.7, 40), (0.3, -0.2, 0.4), 20_000),
        (ModelParams(0.55, 12), U0, 100_000),
        (ModelParams(0.8, 10**4), U0, 100_000),
        (ModelParams(0.75, 10**6), U0, 100_000),
    ):
        got = sample_block_index(params.n, np.full(draws, params.mu_u(u)), np.random.default_rng(5))
        js, probs, _ = block_pmf_window(params, u)
        idx = np.searchsorted(js, got)
        assert np.array_equal(js[idx], got)
        counts = np.bincount(idx, minlength=len(js))
        keep = probs * draws >= 5.0  # chi-square validity
        chi = stats.chisquare(
            counts[keep], f_exp=probs[keep] / probs[keep].sum() * counts[keep].sum()
        )
        assert chi.pvalue > 1e-3, params


def test_spin_matrices_algebra():
    for j in (0.5, 1.0, 1.5, 3.0, 7.5):
        jx, jy, jz = spin_matrices(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(int(2 * j + 1)), atol=1e-12)


def test_spin_matrices_ladder_elements():
    # J_+ lowers the excitation index k with element sqrt(k (2j+1-k))
    jx, jy, _ = spin_matrices(1.0)
    jp = jx + 1j * jy
    assert jp[0, 1] == pytest.approx(math.sqrt(1 * 2))
    assert jp[1, 2] == pytest.approx(math.sqrt(2 * 1))
    assert jp[1, 0] == 0.0


def test_rotation_unitary_half_pi():
    r = rotation_unitary(0.5, (math.pi / 2, 0.0))
    assert np.allclose(r, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_rotation_unitary_is_unitary():
    for j in (0.5, 2.0, 11.0):
        r = rotation_unitary(j, (0.37, -1.2))
        d = int(2 * j + 1)
        assert np.allclose(r @ r.conj().T, np.eye(d), atol=1e-12)


def test_block_state_two_qubit_diagonal():
    params = ModelParams(0.75, 2)
    rho = block_state(params, U0, 1.0)
    assert np.allclose(np.diag(rho), [9 / 13, 3 / 13, 1 / 13], atol=1e-14)
    assert np.allclose(rho, np.diag(np.diag(rho)))


def test_block_state_rotation_covariance():
    params = ModelParams(0.8, 36)
    u = (0.9, -0.4, 0.0)
    j = 14.0
    rho = block_state(params, u, j)
    base = block_state(params, (0.0, 0.0, 0.0), j)
    r = rotation_unitary(j, (u[0] / 6.0, u[1] / 6.0))  # sqrt(36) = 6
    assert np.allclose(rho, r @ base @ r.conj().T, atol=1e-12)


def test_block_state_corner_truncation():
    """Unrotated, a block state is diagonal: its corner holds the normalized
    geometric weights on the fewest levels that leave at most the tail out,
    at the package's budget and at a looser one, and a block narrower than
    that is returned whole."""
    p = 1.0 / 3.0
    w = p ** np.arange(201.0)
    w /= w.sum()
    cut = block_state(ModelParams(0.75, 400), U0, 100.0)
    unrotated = ladder_corner(p, 201, 1.0, 0.0, lambda k: 0.0 * k, 1e-14)[0]
    for tail, corner in ((CORNER_TAIL_MASS, cut), (1e-14, unrotated)):
        dim = corner.shape[0]
        assert np.allclose(corner, np.diag(w[:dim]), rtol=1e-13, atol=0.0)
        assert w[dim:].sum() <= tail < w[dim - 1 :].sum()
    whole = block_state(ModelParams(0.75, 60), U0, 10.0)
    assert whole.shape == (21, 21)
    assert np.trace(whole).real == pytest.approx(1.0, abs=1e-15)


def test_block_state_trace_and_positivity():
    params = ModelParams(0.66, 25)
    u = (1.2, 0.8, -0.5)
    for j in (12.5, 5.5):
        rho = block_state(params, u, j)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w.min() > -1e-13


def test_local_qubit_state_eigenvalues():
    rho = local_qubit_state(0.75, (0.3, -0.2, 0.04))
    w = np.linalg.eigvalsh(rho)
    assert np.allclose(sorted(w), [1 - 0.79, 0.79], atol=1e-12)
    with pytest.raises(ValueError):
        local_qubit_state(0.9, (0.0, 0.0, 0.2))


# ---------------------------------------------------------------------------
# full-space oracle: block decomposition vs explicit 2^n tensor power
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,mu,u", [
    (2, 0.75, (0.0, 0.0, 0.0)),
    (3, 0.8, (0.5, -0.3, 0.2)),
    (5, 0.66, (0.9, 0.4, -0.25)),
    (6, 0.75, (1.0, 1.0, 0.3)),
    (7, 0.85, (-0.4, 0.7, 0.1)),
    (8, 0.75, (0.8, -0.8, 0.5)),
])
def test_full_space_reconstruction(n, mu, u):
    params = ModelParams(mu, n)
    v = np.asarray(u) / math.sqrt(n)
    target = tensor_power(local_qubit_state(mu, v), n)
    iso = isotypic_isometries(n)
    blocks = {j: block_state(params, u, j) for j in iso}
    rebuilt = assemble_from_blocks(n, _block_pmf(params, u), blocks, iso)
    assert np.max(np.abs(rebuilt - target)) < 1e-8


def test_full_space_block_extraction():
    """Project the tensor power into one block and compare both factors."""
    n, mu = 4, 0.7
    params = ModelParams(mu, n)
    u = (0.4, 0.1, 0.3)
    target = tensor_power(local_qubit_state(mu, np.array(u) / 2.0), n)
    iso = isotypic_isometries(n)
    v = iso[1.0]  # 3-dimensional block with multiplicity 3
    m = v.conj().T @ target @ v
    m = m.reshape(3, 3, 3, 3)  # (k, a, l, b)
    block = np.einsum("kala->kl", m)
    p_j = _block_pmf(params, u)[1.0]
    assert np.trace(block).real == pytest.approx(p_j, abs=1e-12)
    assert np.allclose(block / p_j, block_state(params, u, 1.0), atol=1e-10)
    # multiplicity factor must be exactly I / n_j
    for k in range(3):
        for l in range(3):
            sub = m[k, :, l, :]
            assert np.allclose(
                sub, np.eye(3) * block[k, l] / 3.0, atol=1e-10
            )


@settings(max_examples=20)
@given(
    mu=st.floats(0.6, 0.9),
    u=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    n=st.integers(10, 40),
)
def test_block_corners_match_dense_states(mu, u, n):
    params = ModelParams(mu, n)
    assume(0.5 < mu + u[2] / math.sqrt(n) < 1.0)
    js = valid_j_values(n)
    corners, tails = block_corners(params, u, js)
    chi = gauge_angle(u)
    for corner, tail, j in zip(corners, tails, js):
        dense = fullspace.block_state(params, u, j)
        m = block_state(params, u, j).shape[0]
        assert m <= dense.shape[0]
        assert np.abs(fock_basis(corner[:m, :m], chi) - dense[:m, :m]).max() <= 1e-12
        assert not corner[m:].any() and not corner[:, m:].any()
        # the reported tail adds the weight of ladder vectors never built
        # (at most half the budget) and the leading block's certificate (at
        # most a sixteenth) to the discarded amplitudes
        dense_tail = float(dense.diagonal()[m:].real.sum())
        assert -1e-28 <= tail - dense_tail <= (0.5 + 1.0 / 16.0) * CORNER_TAIL_MASS
        assert tail <= CORNER_TAIL_MASS


def _trace_norm(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def _n_exact(p: float, d: int) -> int:
    """Ladder vectors the oracle builds: all of weight above ~1e-32."""
    return min(d, int(math.ceil(math.log(1e-32) / math.log(p))))


@settings(max_examples=10)
@given(
    mu=st.floats(0.7, 0.9),
    u=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    n=st.integers(800, 2000),
)
def test_top_of_ladder_corners_match_the_full_ladder(mu, u, n):
    """At the most likely block and two deviations either side, each corner
    equals the full ladder's state cut to the same levels to 1e-14 in trace
    norm, and its certified tail bounds the full ladder's tail.  The likely
    block's leading block (if it needs a solve) is shorter than its
    ladder."""
    params = ModelParams(mu, n)
    assume(0.5 < mu + u[2] / math.sqrt(n) < 1.0)
    js, probs, _ = block_pmf_window(params, u)
    mode = int(np.argmax(probs))
    spread = int(2.0 * math.sqrt(n * mu * (1.0 - mu)))
    dstein = lapack.dstein
    sizes = []

    def spy(*args):
        sizes.append(len(args[0]))
        return dstein(*args)

    for i in (mode, max(mode - spread, 0), min(mode + spread, len(js) - 1)):
        j = js[i]
        sizes.clear()
        lapack.dstein = spy
        try:
            corners, tails = block_corners(params, u, [j])
        finally:
            lapack.dstein = dstein
        d = int(round(2.0 * j)) + 1
        if i == mode:
            assert max(sizes, default=0) < d
        full = full_ladder_state(params, u, j, _n_exact(params.p_u(u), d))
        dim = corners.shape[1]
        rho = fock_basis(corners[0], gauge_angle(u))
        assert _trace_norm(rho - full[:dim, :dim]) <= 1e-14
        # unrotated, the two tails are the same geometric sum, rounded apart
        assert float(full.diagonal()[dim:].real.sum()) <= tails[0] * (1.0 + 1e-12)
        assert tails[0] <= CORNER_TAIL_MASS


def test_short_leading_block_is_caught_by_the_certificate(monkeypatch):
    """A too-short leading block is caught, never used: the first block is
    twice as long as the vectors built, while this rotation carries those
    vectors further down the ladder.  The state that block gives is off by
    more than the tail budget; the certificate rejects it and the corner
    comes from a longer block, which matches the full ladder."""
    params, u, j = ModelParams(0.75, 2000), (2.5, 2.5, 0.0), 499.0
    dstein = lapack.dstein
    calls = []

    def spy(*args):
        out = dstein(*args)
        calls.append(out[0])
        return out

    monkeypatch.setattr(lapack, "dstein", spy)
    corners, tails = block_corners(params, u, [j])
    monkeypatch.undo()
    full = full_ladder_state(params, u, j, _n_exact(params.p_u(u), 999))
    short = calls[0]
    size, n_vec = short.shape
    assert size == 2 * n_vec and len(calls) >= 2 and calls[-1].shape[0] > size
    # the rejected block's own state, built as the routine would have
    p = params.p_u(u)
    w = (1.0 - p) * p ** np.arange(n_vec)
    rejected = fock_basis((short * w) @ short.T, gauge_angle(u))
    assert _trace_norm(rejected - full[:size, :size]) > 100.0 * CORNER_TAIL_MASS
    dim = corners.shape[1]
    assert _trace_norm(fock_basis(corners[0], gauge_angle(u)) - full[:dim, :dim]) <= 1e-14
    assert tails[0] <= CORNER_TAIL_MASS


def test_a_vector_of_another_level_is_refused(monkeypatch):
    """The certificate bounds the angle to some eigenvector of T, not to
    the one at level k.  An inverse iteration that lands one level up
    returns a vector the certificate passes (its tail is about 2e-25);
    the Rayleigh quotient sees level 4 where 3 was asked, and it raises."""
    dstein = lapack.dstein

    def shifted(d, e, w, *rest):
        return dstein(d, e, w + 1.0, *rest)

    monkeypatch.setattr(lapack, "dstein", shifted)
    with pytest.raises(np.linalg.LinAlgError, match="level 3"):
        block_vector(2000, (2.5, 2.5, 0.0), 499.0, 3)


def test_ladder_corner_of_an_unrotated_oscillator_is_thermal():
    """No coupling: the corner is the thermal state's first D levels, and
    its tail is exactly the thermal weight p^D beyond them."""
    corner, tail = ladder_corner(0.5, math.inf, 1.0, 0.0, lambda k: 0.0 * k, 1e-12)
    dim = corner.shape[0]
    assert np.allclose(corner, np.diag(0.5 ** np.arange(1, dim + 1)), rtol=1e-14, atol=0.0)
    assert tail == pytest.approx(0.5**dim, rel=1e-12)
    assert 0.5**dim <= 1e-12 < 0.5 ** (dim - 1)


def test_block_corners_stream_one_block_at_a_time():
    """Each block's corner goes straight into one real stack and its
    leading ladder vectors are dropped: over the n = 1600 pmf window the
    call peaks within a quarter of the stack it returns.  Holding every
    full-length ladder until all corners were built peaked at about 8.6
    times them (119 MB); a list of complex corners copied into a complex
    stack, at about 1.9 times."""
    u = (1.0, 1.0, 1.0)
    for mu in (0.8, 0.6):
        params = ModelParams(mu, 1600)
        js, _, _ = block_pmf_window(params, u)
        tracemalloc.start()
        try:
            corners, _ = block_corners(params, u, js)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corners.dtype == np.float64
        assert peak <= 1.25 * corners.nbytes, (mu, peak / corners.nbytes)


@pytest.mark.parametrize(
    "mu, u, n, j",
    [(0.8, (1.0, 1.0, 1.0), 400, 118.0), (0.75, (1.5, -1.0, 0.5), 400, 100.0),
     (0.7, (0.0, 0.0, 0.3), 41, 4.5), (0.6, (-2.0, 0.5, 0.0), 200, 23.0)],
)
def test_block_state_is_the_real_corner_phased(mu, u, n, j):
    """The corners are kept real in the gauge of u; ``block_state`` is that
    corner phased back by diag(e^{i chi k}), bit for bit, and nothing else."""
    params = ModelParams(mu, n)
    corners, _ = block_corners(params, u, [j])
    assert corners.dtype == np.float64
    want = fock_basis(corners[0], gauge_angle(u))
    got = block_state(params, u, j)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_gauge_angle_of_a_batch_is_its_columns():
    """The exact sampler turns every draw by ``gauge_angle`` of the (3, B)
    batch; each column's angle equals that of its own u, bit for bit."""
    u = np.random.default_rng(3).normal(scale=3.0, size=(3, 1000))
    u[:2, :6] = [[0.0, 1.0, -1.0, 0.0, 0.0, -0.0], [0.0, 0.0, 0.0, 2.0, -2.0, -0.0]]
    batch = gauge_angle(u)
    assert batch.shape == (1000,)
    assert np.array_equal(batch, [gauge_angle(tuple(c)) for c in u.T.tolist()])


@given(
    p=st.floats(1e-3, 0.999),
    tj=st.integers(0, 400),
    uniform=st.floats(0.0, 1.0, exclude_max=True),
    cell=st.integers(0, 400),
    t=st.floats(1e-6, 1.0 - 1e-6),
)
def test_ladder_level_inverts_the_truncated_geometric_cdf(p, tj, uniform, cell, t):
    """k lies in [0, 2j] and F(k - 1) <= U < F(k) under the truncated
    geometric CDF F(k) = (1 - p^{k+1}) / (1 - p^{2j+1}), up to rounding; a
    U drawn inside cell k's interval, away from its ends, maps to k."""
    levels = tj + 1.0

    def cdf(k):
        return -math.expm1((k + 1.0) * math.log(p)) / -math.expm1(levels * math.log(p))

    k = float(ladder_level(p, levels, np.array([uniform]))[0])
    assert k == int(k) and 0 <= k <= tj
    assert cdf(k - 1.0) - 1e-12 <= uniform < cdf(k) + 1e-12
    cell = min(cell, tj)
    lo, hi = cdf(cell - 1.0), cdf(cell)
    assume(hi - lo > 1e-9)
    inside = lo + t * (hi - lo)
    assume(lo + 1e-12 < inside < hi - 1e-12)
    assert ladder_level(p, levels, np.array([inside]))[0] == cell


@settings(max_examples=25)
@given(
    mu=st.floats(0.6, 0.9),
    u=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.just(0.0)),
    n=st.integers(20, 60),
    data=st.data(),
)
def test_block_vector_is_the_rotated_ladder_state(mu, u, n, data):
    """Phased into the Fock basis, block j's ladder vector is R e_k, R the
    dense block rotation, up to its sign and its certified tail, and the
    block state is the geometric mixture of its vectors."""
    params = ModelParams(mu, n)
    js = valid_j_values(n)
    j = float(data.draw(st.sampled_from(list(js))))
    d = int(round(2.0 * j)) + 1
    k = data.draw(st.integers(0, d - 1))
    psi, tail = block_vector(n, u, j, k)
    assert tail <= CORNER_TAIL_MASS and len(psi) <= d
    chi = gauge_angle(u)
    want = rotation_unitary(j, (u[0] / math.sqrt(n), u[1] / math.sqrt(n)))[:, k]
    got = np.exp(1j * chi * np.arange(len(psi))) * psi
    overlap = abs(np.vdot(want[: len(psi)], got))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(np.abs(want[len(psi) :]) ** 2)) <= tail + 1e-15
    # the geometric mixture of the vectors is the block state
    p = params.p_u(u)
    vecs = [np.pad(block_vector(n, u, j, i)[0], (0, d))[:d] for i in range(d)]
    mix = sum((1.0 - p) * p**i / (1.0 - p**d) * np.outer(v, v) for i, v in enumerate(vecs))
    corner = block_corners(params, u, [j])[0][0]
    m = corner.shape[0]
    assert np.abs(mix[:m, :m] - corner).max() <= 1e-12

