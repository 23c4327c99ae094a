import dataclasses

import numpy as np
import pytest

from mekiv.baselines import BASELINE_KINDS, kiv_fit
from mekiv.datagen import DesignSpec, generate_splits
from mekiv.estimator import Instrument
from mekiv.harness import mse_out_of_sample


def test_unknown_kind_rejected():
    spec = DesignSpec(design="linear", sample_size=100, seed=0)
    s1d, s2d = generate_splits(spec, 60, 40)
    with pytest.raises(ValueError):
        kiv_fit("bootstrap", s1d, s2d)


def test_missing_columns_rejected():
    spec = DesignSpec(design="linear", sample_size=100, seed=1)
    s1d, s2d = generate_splits(spec, 60, 40)
    stub = type("S", (), {"z": s1d.z, "y": s1d.y, "m": s1d.m, "n": None, "x": None})()
    with pytest.raises(ValueError):
        kiv_fit("oracle", stub, s2d)
    with pytest.raises(ValueError):
        kiv_fit("mn-average", stub, s2d)


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_empty_splits_rejected_at_entry(kind):
    spec = DesignSpec(design="linear", sample_size=100, seed=4)
    s1d, s2d = generate_splits(spec, 60, 40)

    def empty(ds):
        return dataclasses.replace(ds, z=ds.z[:0], x=ds.x[:0], m=ds.m[:0], n=ds.n[:0], y=ds.y[:0])

    with pytest.raises(ValueError, match="the first split is empty"):
        kiv_fit(kind, empty(s1d), s2d)
    with pytest.raises(ValueError, match="the second split is empty"):
        kiv_fit(kind, s1d, empty(s2d))


def test_zero_noise_m_as_x_equals_oracle_bitwise():
    spec = DesignSpec(design="linear", merror_level=0.0, sample_size=400, seed=2)
    s1d, s2d = generate_splits(spec, 200, 200)
    grid = np.linspace(0.05, 0.95, 101)
    preds_o = kiv_fit("oracle", s1d, s2d).predict(grid)
    preds_m = kiv_fit("m-as-x", s1d, s2d).predict(grid)
    assert np.array_equal(preds_o, preds_m)


def test_mn_average_halves_error_variance():
    # var((M+N)/2 - X) = var(dM)/4 + var(dN)/4 under independent errors
    spec = DesignSpec(design="linear", merror_level=1.0, sample_size=100_000, seed=3)
    s1d, s2d = generate_splits(spec, 50_000, 50_000)
    x = np.concatenate([s1d.x[:, 0], s2d.x[:, 0]])
    m = np.concatenate([s1d.m[:, 0], s2d.m[:, 0]])
    n = np.concatenate([s1d.n[:, 0], s2d.n[:, 0]])
    dm_var = np.var(m - x)
    dn_var = np.var(n - x)
    proxy_var = np.var(0.5 * (m + n) - x)
    assert proxy_var == pytest.approx(dm_var / 4 + dn_var / 4, rel=0.02)


def test_kiv_m_mse_monotone_in_corruption():
    medians = []
    for level in (0.5, 1.0, 2.0):
        mses = []
        for seed in range(5):
            spec = DesignSpec(design="linear", merror_level=level, sample_size=500, seed=seed)
            s1d, s2d = generate_splits(spec, 250, 250)
            fn = kiv_fit("m-as-x", s1d, s2d)
            mses.append(mse_out_of_sample(fn, "linear", None, 200, seed))
        medians.append(float(np.median(mses)))
    assert medians[0] <= medians[1] <= medians[2]


def test_oracle_fit_is_exactly_the_shared_stage2_path():
    # composing the stage-2 step by hand reproduces kiv_fit bit-for-bit
    import numpy as np

    from mekiv import krr
    from mekiv.estimator import DEFAULT_XI_GRID, Instrument, step3
    from mekiv.kernels import KernelSpec, Standardizer, median_heuristic

    spec = DesignSpec(design="linear", merror_level=0.0, sample_size=300, seed=5)
    s1d, s2d = generate_splits(spec, 150, 150)
    via_baseline = kiv_fit("oracle", s1d, s2d)

    instrument = Instrument(s1d.z, s2d.z)
    x_scaler = Standardizer.fit(s1d.x)
    x1s = x_scaler.transform(s1d.x)
    kernel_x = KernelSpec(median_heuristic(x1s))
    lam = krr.validate_lambda(instrument.holdout, x1s, kernel_x, krr.default_lambda_grid(150))
    direct = step3(x1s, lam, instrument, s1d.y, s2d.y, DEFAULT_XI_GRID, kernel_x, x_scaler)

    grid = np.linspace(0.05, 0.95, 80)
    assert np.array_equal(via_baseline.predict(grid), direct.predict(grid))
    assert via_baseline.xi == direct.xi and via_baseline.lambda_x == direct.lambda_x


def test_all_kinds_fit_demand_design():
    spec = DesignSpec(design="demand", rho=0.5, merror_level=0.5, sample_size=240, seed=4)
    s1d, s2d = generate_splits(spec, 120, 120)
    for kind in BASELINE_KINDS:
        fn = kiv_fit(kind, s1d, s2d)
        preds = fn.predict(s2d.x)
        assert preds.shape == (120,)
        assert np.all(np.isfinite(preds))


def test_non_finite_columns_rejected_at_entry():
    spec = DesignSpec(design="linear", sample_size=200, seed=5)
    s1d, s2d = generate_splits(spec, 100, 100)
    s1d.m[3, 0] = np.inf
    for kind in ("m-as-x", "mn-average"):
        with pytest.raises(ValueError, match="column 'm' of the first split"):
            kiv_fit(kind, s1d, s2d)
    s1d.x[3, 0] = np.nan
    with pytest.raises(ValueError, match="column 'x' of the first split"):
        kiv_fit("oracle", s1d, s2d)
    s2d.y[7] = -np.inf
    s1d.x[3, 0] = 0.0
    with pytest.raises(ValueError, match="column 'y' of the second split"):
        kiv_fit("oracle", s1d, s2d)


def test_mismatched_rows_rejected_at_entry():
    spec = DesignSpec(design="linear", sample_size=200, seed=6)
    s1d, s2d = generate_splits(spec, 100, 100)
    y1, y2 = s1d.y, s2d.y
    s1d.y = y1[:-1]
    for kind in BASELINE_KINDS:
        with pytest.raises(ValueError, match="column 'y' of the first split has 99 row"):
            kiv_fit(kind, s1d, s2d)
    s1d.y, s2d.y = y1, y2[:-1]
    with pytest.raises(ValueError, match="column 'y' of the second split has 99 row"):
        kiv_fit("m-as-x", s1d, s2d)
    s2d.y, s1d.n = y2, s1d.n[:-1]
    with pytest.raises(ValueError, match="column 'n' of the first split has 99 row"):
        kiv_fit("mn-average", s1d, s2d)


def test_another_instrument_width_rejected_at_entry():
    spec = DesignSpec(design="linear", sample_size=200, seed=7)
    s1d, s2d = generate_splits(spec, 100, 100)
    s2d.z = np.column_stack([s2d.z, s2d.z])
    for kind in BASELINE_KINDS:
        with pytest.raises(ValueError, match="column 'z' of the second split has 2 column"):
            kiv_fit(kind, s1d, s2d)


def test_kiv_fit_decomposes_its_instrument_once(gram_eigh_sizes):
    spec = DesignSpec(design="demand", rho=0.5, merror_level=0.5, sample_size=240, seed=4)
    s1d, s2d = generate_splits(spec, 120, 100)
    kiv_fit("mn-average", s1d, s2d)
    assert gram_eigh_sizes == [60, 120]


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_shared_instrument_fits_bitwise_and_another_is_rejected(kind):
    spec = DesignSpec(design="linear", merror_level=1.0, sample_size=200, seed=6)
    s1d, s2d = generate_splits(spec, 100, 100)
    grid = np.linspace(0.05, 0.95, 40)
    shared = Instrument(s1d.z, s2d.z)
    assert np.array_equal(kiv_fit(kind, s1d, s2d, instrument=shared).predict(grid),
                          kiv_fit(kind, s1d, s2d).predict(grid))
    with pytest.raises(ValueError, match="instrument was not built from the first split's 'z'"):
        kiv_fit(kind, s1d, s2d, instrument=Instrument(s2d.z, s2d.z))
    with pytest.raises(ValueError, match="instrument was not built from the second split's 'z'"):
        kiv_fit(kind, s1d, s2d, instrument=Instrument(s1d.z, s1d.z))
