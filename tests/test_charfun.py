import numpy as np
import pytest

from mekiv.estimator import ratio_grid
from mekiv.kernels import KernelSpec, SpectralSampler

from reference import (
    DegenerateRatioError,
    EmpiricalCF,
    l2q_distance_sq,
    rbf_eval,
    rkhs_distance_sq,
    w_mn,
    w_x,
)


def test_ecf_at_zero_is_weight_sum_with_exact_zero_imag():
    rng = np.random.default_rng(0)
    cf = EmpiricalCF(rng.normal(size=9), rng.normal(size=9))
    val = cf.ecf(0.0)
    assert val.real == pytest.approx(cf.weights.sum(), rel=1e-14)
    assert val.imag == 0.0


def test_ecf_single_anchor_is_unit_phase():
    cf = EmpiricalCF([1.0], [2.0])
    for alpha in (-1.3, 0.4, 2.2):
        val = cf.ecf(alpha)
        assert val == pytest.approx(np.cos(2.0 * alpha) + 1j * np.sin(2.0 * alpha))


def test_ecf_symmetric_anchors_are_real():
    cf = EmpiricalCF([0.5, 0.5], [1.7, -1.7])
    for alpha in (0.3, 1.1, 4.0):
        val = cf.ecf(alpha)
        assert val.real == pytest.approx(np.cos(1.7 * alpha))
        assert abs(val.imag) < 1e-16


def test_ecf_conjugate_symmetry_exact():
    rng = np.random.default_rng(1)
    cf = EmpiricalCF(rng.normal(size=11), rng.normal(size=11) * 3)
    for alpha in rng.normal(size=10) * 2:
        a = cf.ecf(alpha)
        b = cf.ecf(-alpha)
        assert a.real == b.real and a.imag == -b.imag


def test_ecf_vectorized_alpha():
    rng = np.random.default_rng(2)
    cf = EmpiricalCF(rng.normal(size=5), rng.normal(size=5))
    alphas = np.linspace(-2, 2, 7)
    vec = cf(alphas)
    assert vec.shape == (7,)
    assert vec[3] == pytest.approx(cf.ecf(alphas[3]))


def test_derivative_odd_symmetry_and_single_anchor():
    cf = EmpiricalCF([0.5, 0.5], [1.2, -1.2])
    assert cf.ecf_dalpha(0.0) == pytest.approx(0.0)
    single = EmpiricalCF([1.0], [0.8])
    assert single.ecf_dalpha(0.0) == pytest.approx(1j * 0.8)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    cf = EmpiricalCF(rng.normal(size=8), rng.uniform(-10, 10, size=8))
    h = 1e-6
    for alpha in (0.0, 0.7, -1.9):
        fd = (cf.ecf(alpha + h) - cf.ecf(alpha - h)) / (2 * h)
        an = cf.ecf_dalpha(alpha)
        assert abs(an - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_joint_partial_cases_and_finite_difference():
    rng = np.random.default_rng(4)
    n_anchors = rng.normal(size=6)
    weights = rng.normal(size=6)
    zero_m = EmpiricalCF(weights, n_anchors, companions=np.zeros(6))
    assert zero_m.joint_partial(0.9) == pytest.approx(0.0)
    single = EmpiricalCF([1.0], [3.0], companions=[2.0])
    assert single.joint_partial(0.0) == pytest.approx(2j)
    # finite difference in the auxiliary frequency of sum g exp(i (u m + a n))
    m = rng.normal(size=6)
    cf = EmpiricalCF(weights, n_anchors, companions=m)
    h = 1e-6
    for alpha in (0.0, 1.1):
        up = np.sum(weights * np.exp(1j * (h * m + alpha * n_anchors)))
        dn = np.sum(weights * np.exp(1j * (-h * m + alpha * n_anchors)))
        fd = (up - dn) / (2 * h)
        assert abs(cf.joint_partial(alpha) - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_joint_partial_requires_companions():
    cf = EmpiricalCF([1.0], [0.0])
    with pytest.raises(ValueError):
        cf.joint_partial(0.0)


def test_w_x_point_mass_and_weighted_mean():
    for alpha in (-2.0, 0.0, 1.5):
        assert w_x([1.7], [1.0], alpha) == pytest.approx(1.7 + 0j)
    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    g = rng.uniform(0.1, 1.0, size=6)
    assert w_x(x, g, 0.0) == pytest.approx(np.sum(g * x) / np.sum(g))


def test_w_x_gaussian_identity_monte_carlo():
    # E[X e^{iaX}] / E[e^{iaX}] = mu + i sigma^2 a for X ~ N(mu, sigma^2)
    rng = np.random.default_rng(6)
    mu, sigma = 0.7, 1.3
    x = rng.normal(mu, sigma, size=100_000)
    g = np.full(x.size, 1.0 / x.size)
    for alpha in (0.2, 0.5, -0.8):
        val = w_x(x, g, alpha)
        expected = mu + 1j * sigma**2 * alpha
        assert abs(val - expected) < 0.05


def test_w_x_degenerate_denominator_raises_with_diagnostics():
    with pytest.raises(DegenerateRatioError) as err:
        w_x([1.0, 1.0], [0.0, 0.0], 0.3)
    assert err.value.alpha == 0.3


def test_ratio_grid_degenerate_entries_are_zero_and_raise_in_scalar_view():
    # column 1 has zero denominator weights; column 2 puts unit weights on
    # anchors 0 and pi, whose phases cancel at alpha = 1 and 3 but not at 0.5
    rng = np.random.default_rng(16)
    alphas = np.array([0.5, 1.0, 3.0, -0.7])
    t = np.array([0.0, np.pi, 1.3, -0.4])
    c = rng.normal(size=4)
    g_num = rng.normal(size=(4, 3))
    g_den = rng.uniform(0.2, 1.0, size=(4, 3))
    g_den[:, 1] = 0.0
    g_den[:, 2] = [1.0, 1.0, 0.0, 0.0]
    w, degenerate = ratio_grid(alphas, t, c, g_num, g_den)
    assert w.shape == degenerate.shape == (4, 3)
    assert degenerate[:, 1].all() and np.all(w[:, 1] == 0.0)
    assert degenerate[:, 2].tolist() == [False, True, True, False]
    assert not degenerate[:, 0].any()
    assert np.all(w[degenerate] == 0.0)
    for a, alpha in enumerate(alphas):
        for j in range(3):
            if degenerate[a, j]:
                with pytest.raises(DegenerateRatioError) as err:
                    w_mn(c, t, g_num[:, j], g_den[:, j], alpha)
                assert err.value.alpha == alpha
            else:
                val = w_mn(c, t, g_num[:, j], g_den[:, j], alpha)
                assert val == pytest.approx(w[a, j], rel=1e-14)


def test_w_mn_reduces_to_w_x_without_error():
    rng = np.random.default_rng(7)
    x = rng.normal(size=9)
    g = rng.uniform(0.1, 1.0, size=9)
    for alpha in (0.0, 0.4, -1.2):
        assert w_mn(x, x, g, g, alpha) == pytest.approx(w_x(x, g, alpha))


def test_w_mn_constant_numerator():
    rng = np.random.default_rng(8)
    n = rng.normal(size=7)
    g = rng.uniform(0.2, 1.0, size=7)
    assert w_mn(np.full(7, 3.3), n, g, g, 0.9) == pytest.approx(3.3 + 0j)


def test_w_mn_kotlarski_population_limit():
    # X ~ N(mu, sigma^2), N = X + dN with Gaussian dN, M = X + dM with
    # mean-zero uniform dM: the dN characteristic function cancels in the
    # ratio, leaving mu + i sigma^2 alpha regardless of the error laws.
    rng = np.random.default_rng(9)
    mu, sigma, tau = -0.4, 1.1, 0.8
    size = 100_000
    x = rng.normal(mu, sigma, size=size)
    m = x + rng.uniform(-1.0, 1.0, size=size)
    n = x + rng.normal(0.0, tau, size=size)
    g = np.full(size, 1.0 / size)
    for alpha in (0.2, -0.45):
        val = w_mn(m, n, g, g, alpha)
        expected = mu + 1j * sigma**2 * alpha
        assert abs(val - expected) < 0.05


def test_l2q_distance_identical_and_point_masses():
    rng = np.random.default_rng(10)
    cf = EmpiricalCF(rng.normal(size=4), rng.normal(size=4))
    alphas = rng.normal(size=1000)
    assert l2q_distance_sq(cf, cf, alphas) == 0.0
    # |e^{ia x1} - e^{ia x2}|^2 averaged over q equals 2 - 2 k(x1, x2)
    spec = KernelSpec([0.9])
    draws = SpectralSampler(spec, np.random.default_rng(11)).sample(100_000).ravel()
    a, b = 0.4, 1.6
    d_mc = l2q_distance_sq(EmpiricalCF([1.0], [a]), EmpiricalCF([1.0], [b]), draws)
    assert abs(d_mc - (2.0 - 2.0 * rbf_eval([a], [b], spec))) < 0.01
    with pytest.raises(ValueError):
        l2q_distance_sq(cf, cf, [])


def test_rkhs_distance_cases():
    spec = KernelSpec([0.9])
    rng = np.random.default_rng(12)
    w = rng.normal(size=5)
    a = rng.normal(size=5)
    assert abs(rkhs_distance_sq(w, a, w, a, spec)) < 1e-12
    val = rkhs_distance_sq([1.0], [0.4], [1.0], [1.6], spec)
    assert val == pytest.approx(2.0 - 2.0 * rbf_eval([0.4], [1.6], spec), rel=1e-12)
    # nonnegative up to numerical slack on random embeddings
    for _ in range(25):
        w1, w2 = rng.normal(size=(2, 6))
        a1, a2 = rng.normal(size=(2, 6))
        assert rkhs_distance_sq(w1, a1, w2, a2, spec) >= -1e-10


def test_rkhs_distance_triangle_inequality():
    spec = KernelSpec([1.1])
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = rng.normal(size=(3, 5))
        a = rng.normal(size=(3, 5))
        d12 = np.sqrt(max(rkhs_distance_sq(w[0], a[0], w[1], a[1], spec), 0.0))
        d23 = np.sqrt(max(rkhs_distance_sq(w[1], a[1], w[2], a[2], spec), 0.0))
        d13 = np.sqrt(max(rkhs_distance_sq(w[0], a[0], w[2], a[2], spec), 0.0))
        assert d13 <= d12 + d23 + 1e-9


def test_duality_monte_carlo_matches_closed_form():
    # smoke version of the L2(q) <-> RKHS equivalence on a few random pairs
    spec = KernelSpec([1.0])
    draws = SpectralSampler(spec, np.random.default_rng(14)).sample(100_000).ravel()
    rng = np.random.default_rng(15)
    for _ in range(5):
        w1, w2 = rng.normal(size=(2, 6))
        a1, a2 = rng.normal(size=(2, 6))
        mc = l2q_distance_sq(EmpiricalCF(w1, a1), EmpiricalCF(w2, a2), draws)
        exact = rkhs_distance_sq(w1, a1, w2, a2, spec)
        assert abs(mc - exact) / exact < 0.02
