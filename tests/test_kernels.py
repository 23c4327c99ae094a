import numpy as np
import pytest

from mekiv.kernels import (
    KernelSpec,
    SpectralSampler,
    Standardizer,
    gram,
    median_heuristic,
)

from reference import rbf_eval


def test_kernel_spec_rejects_bad_lengthscales():
    for bad in ([0.0], [-1.0], [np.inf], [np.nan], []):
        with pytest.raises(ValueError):
            KernelSpec(bad)


def test_rbf_self_evaluation_is_one_exactly():
    spec = KernelSpec([0.3, 2.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=2) * 10
        assert rbf_eval(x, x, spec) == 1.0


def test_rbf_hand_value_at_sqrt2_lengthscales():
    # exp(-(l*sqrt(2))^2 / (2 l^2)) = exp(-1)
    for ell in (0.5, 1.0, 3.0):
        spec = KernelSpec([ell])
        val = rbf_eval([0.0], [ell * np.sqrt(2.0)], spec)
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_rbf_symmetric_and_decaying():
    spec = KernelSpec([1.2])
    rng = np.random.default_rng(1)
    prev = 1.0
    for t in np.linspace(0.5, 30, 40):
        val = rbf_eval([0.0], [t], spec)
        assert val < prev
        prev = val
    assert prev < 1e-10
    for _ in range(20):
        x, y = rng.normal(size=(2, 1)) * 3
        assert rbf_eval(x, y, spec) == rbf_eval(y, x, spec)


def test_rbf_dimension_mismatch():
    spec = KernelSpec([1.0, 1.0])
    with pytest.raises(ValueError):
        rbf_eval([0.0], [0.0, 0.0], spec)


def test_gram_single_point_and_psd():
    spec = KernelSpec([0.7])
    assert gram([0.3], [0.3], spec) == pytest.approx(np.array([[1.0]]))
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 1))
    k = gram(pts, pts, spec)
    assert np.allclose(k, k.T)
    assert np.linalg.eigvalsh(k).min() >= -1e-10 * len(pts)


def test_gram_equally_spaced_hand_values():
    ell = 0.8
    spec = KernelSpec([ell])
    pts = np.arange(3.0)[:, None] * ell * np.sqrt(2.0)
    k = gram(pts, pts, spec)
    assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert k[1, 2] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert k[0, 2] == pytest.approx(np.exp(-4.0), rel=1e-12)


def test_median_heuristic_small_cases():
    assert median_heuristic([0.0, 1.0]) == pytest.approx([1.0])
    # gaps {1, 1, 2} -> median 1
    assert median_heuristic([0.0, 1.0, 2.0]) == pytest.approx([1.0])
    # constant dimension falls back to 1.0
    assert median_heuristic([5.0, 5.0, 5.0]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        median_heuristic([1.0])


def test_median_heuristic_per_dimension():
    pts = np.column_stack([[0.0, 1.0, 2.0], [0.0, 10.0, 20.0]])
    assert median_heuristic(pts) == pytest.approx([1.0, 10.0])


def test_spectral_sampler_variance_matches_inverse_lengthscale():
    for ell, lo, hi in ((1.0, 0.97, 1.03), (2.0, 0.25 * 0.97, 0.25 * 1.03)):
        sampler = SpectralSampler(KernelSpec([ell]), np.random.default_rng(3))
        draws = sampler.sample(100_000).ravel()
        assert lo <= draws.var() <= hi


def test_spectral_sampler_degenerate_and_errors():
    sampler = SpectralSampler(KernelSpec([1e12]), np.random.default_rng(4))
    assert np.abs(sampler.sample(1000)).max() < 1e-9
    with pytest.raises(ValueError):
        sampler.sample(0)


def test_spectral_sampler_reproducible_under_seed():
    a = SpectralSampler(KernelSpec([0.5]), np.random.default_rng(7)).sample(100)
    b = SpectralSampler(KernelSpec([0.5]), np.random.default_rng(7)).sample(100)
    assert np.array_equal(a, b)


def test_bochner_consistency_monte_carlo():
    # E_q[cos(alpha (x - y))] reproduces k(x, y) for |x - y| up to 3 lengthscales.
    ell = 0.7
    spec = KernelSpec([ell])
    draws = SpectralSampler(spec, np.random.default_rng(5)).sample(100_000).ravel()
    for t in np.linspace(0.0, 3.0 * ell, 7):
        mc = np.mean(np.cos(draws * t))
        assert abs(mc - rbf_eval([0.0], [t], spec)) < 0.01


def test_standardizer_round_trip_and_constant_fallback():
    rng = np.random.default_rng(6)
    pts = rng.normal(loc=3.0, scale=2.5, size=(200, 2))
    sc = Standardizer.fit(pts)
    ts = sc.transform(pts)
    assert np.allclose(ts.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ts.std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(sc.inverse(ts), pts)
    const = Standardizer.fit(np.full(10, 7.0))
    assert const.scale == pytest.approx([1.0])
    assert np.allclose(const.transform(np.full(3, 7.0)), 0.0)
