import numpy as np
import pytest
from scipy.optimize import brentq

from mekiv.datagen import (
    Dataset,
    DesignSpec,
    apply_merror,
    demand_psi,
    demand_truth,
    generate,
    generate_splits,
    linear_truth,
    load_dataset,
    moment_checks,
    save_dataset,
    sigmoid_truth,
    structural_truth,
)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(design="cubic")
    with pytest.raises(ValueError):
        DesignSpec(design="linear", merror_kind="laplace")
    with pytest.raises(ValueError):
        DesignSpec(design="linear", merror_level=-0.5)
    with pytest.raises(ValueError):
        DesignSpec(design="demand")  # rho required
    with pytest.raises(ValueError):
        DesignSpec(design="demand", rho=1.5)
    with pytest.raises(ValueError):
        DesignSpec(design="linear", rho=0.5)  # rho only for demand


def test_linear_truth_values():
    assert linear_truth(0.0) == pytest.approx(-2.0)
    assert linear_truth(1.0) == pytest.approx(2.0)
    assert linear_truth(0.5) == pytest.approx(0.0)
    assert structural_truth("linear", 0.25) == pytest.approx(-1.0)


def test_sigmoid_truth_values_and_symmetry():
    assert sigmoid_truth(0.5) == pytest.approx(0.0)
    assert sigmoid_truth(1.0) == pytest.approx(np.log(9.0))
    assert sigmoid_truth(0.0) == pytest.approx(-np.log(9.0))
    assert structural_truth("sigmoid", 0.75) == pytest.approx(np.log(5.0))
    for t in (0.1, 0.23, 0.4):
        assert sigmoid_truth(0.5 + t) == pytest.approx(-sigmoid_truth(0.5 - t))


def test_demand_psi_and_truth_values():
    assert demand_psi(5.0) == pytest.approx(-1.0)
    # h reduces to 100 - 2p where psi vanishes
    t_root = brentq(demand_psi, 9.5, 10.0)
    for p in (10.0, 25.0, 40.0):
        assert demand_truth(p, t_root, 4.0) == pytest.approx(100.0 - 2.0 * p, abs=1e-8)
    pt = np.array([20.0, 5.0, 3.0])
    expected = 100.0 + (10.0 + 20.0) * 3.0 * demand_psi(5.0) - 40.0
    assert structural_truth("demand", pt) == pytest.approx(expected)


def test_confounding_is_present():
    ds = generate(DesignSpec(design="linear", sample_size=5000, seed=0))
    eps = ds.y - linear_truth(ds.x[:, 0])
    corr = np.corrcoef(ds.x[:, 0], eps)[0, 1]
    assert corr > 0.2


def test_instrument_exogeneity_binned():
    ds = generate(DesignSpec(design="linear", sample_size=100_000, seed=1))
    checks = moment_checks(ds)
    assert checks["max_binned_eps_mean"] < 0.05


def test_measurement_error_moment_suite():
    ds = generate(DesignSpec(design="linear", sample_size=100_000, seed=2, merror_level=1.0))
    checks = moment_checks(ds)
    assert checks["corr_dm_dn"] < 0.02
    assert checks["corr_dn_x"] < 0.02
    assert checks["corr_eps_dn"] < 0.02


def test_apply_merror_gaussian_zero_level_is_exact_copy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100)
    m, n = apply_merror(x, "gaussian", 0.0, 1.0, rng)
    assert np.array_equal(m, x) and np.array_equal(n, x)


def test_apply_merror_mog_moments():
    rng = np.random.default_rng(4)
    x = np.zeros(100_000)
    sigma_x, c = 0.7, 0.5
    m, _ = apply_merror(x, "mog", c, sigma_x, rng)
    assert abs(m.mean()) < 0.02 * sigma_x
    expected_var = (2.0 * sigma_x) ** 2 + (c * sigma_x) ** 2
    assert m.var() == pytest.approx(expected_var, rel=0.03)


def test_apply_merror_rejects_bad_inputs():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        apply_merror([0.0], "gaussian", -1.0, 1.0, rng)
    with pytest.raises(ValueError):
        apply_merror([0.0], "gaussian", 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        apply_merror([0.0], "cauchy", 1.0, 1.0, rng)


def test_demand_confounding_grows_with_rho():
    corrs = {}
    for rho in (0.25, 0.9):
        ds = generate(DesignSpec(design="demand", rho=rho, sample_size=100_000, seed=6))
        eps = ds.y - demand_truth(ds.x[:, 0], ds.x[:, 1], ds.x[:, 2])
        corrs[rho] = abs(np.corrcoef(ds.x[:, 0], eps)[0, 1])
    assert corrs[0.9] > corrs[0.25]


def test_demand_corrupts_only_price():
    ds = generate(DesignSpec(design="demand", rho=0.5, sample_size=500, seed=7, merror_level=1.0))
    assert ds.corrupted_dim == 0
    assert not np.array_equal(ds.m[:, 0], ds.x[:, 0])
    assert np.array_equal(ds.m[:, 1:], ds.x[:, 1:])
    assert np.array_equal(ds.n[:, 1:], ds.x[:, 1:])
    assert ds.z.shape == (500, 3) and ds.x.shape == (500, 3)


def test_curve_designs_have_unit_interval_treatment():
    for design in ("linear", "sigmoid"):
        ds = generate(DesignSpec(design=design, sample_size=2000, seed=8))
        assert ds.x.min() > 0.0 and ds.x.max() < 1.0
        assert ds.z.min() > 0.0 and ds.z.max() < 1.0


def test_reproducibility_bit_identical():
    spec = DesignSpec(design="sigmoid", sample_size=300, seed=9, merror_kind="mog")
    a, b = generate(spec), generate(spec)
    for name in ("z", "x", "m", "n", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_generate_splits_are_disjoint_parts_of_one_draw():
    spec = DesignSpec(design="linear", sample_size=1, seed=10)
    s1, s2 = generate_splits(spec, 120, 80)
    assert len(s1) == 120 and len(s2) == 80
    full = generate(DesignSpec(design="linear", sample_size=200, seed=10))
    assert np.array_equal(np.concatenate([s1.y, s2.y]), full.y)
    assert np.array_equal(np.concatenate([s1.m, s2.m]), full.m)


def test_csv_round_trip_and_format(tmp_path):
    ds = generate(DesignSpec(design="demand", rho=0.25, sample_size=40, seed=11))
    csv_path = tmp_path / "demand.csv"
    save_dataset(ds, csv_path)
    raw = csv_path.read_bytes()
    assert b"\r\n" not in raw  # LF endings only
    header = raw.split(b"\n", 1)[0].decode()
    assert header == "z_0,z_1,z_2,x_0,x_1,x_2,m_0,m_1,m_2,n_0,n_1,n_2,y"
    loaded = load_dataset(csv_path)
    assert loaded.spec == ds.spec
    for name in ("z", "x", "m", "n", "y"):
        assert np.array_equal(getattr(loaded, name), getattr(ds, name))


def _edit_line(index, edit):
    return lambda lines: lines[:index] + [edit(lines[index])] + lines[index + 1 :]


# Edits of a saved 5-column ``linear`` CSV (line 1 is the header) and the error they raise.
MALFORMED_CSV = {
    "ragged-row": (
        _edit_line(2, lambda line: line + ",0.5"),
        r"linear\.csv:3: 6 fields, the header has 5",
    ),
    "empty-cell": (
        _edit_line(3, lambda line: "," + line.split(",", 1)[1]),
        r"linear\.csv:4: column 'z_0' is '', not a finite number",
    ),
    "no-y-column": (
        _edit_line(0, lambda line: line.replace(",y", ",w")),
        r"linear\.csv:1: the header has no 'y' column",
    ),
    "header-only": (lambda lines: lines[:1], r"linear\.csv: no data rows"),
    "nan": (
        _edit_line(5, lambda line: line.rsplit(",", 1)[0] + ",nan"),
        r"linear\.csv:6: column 'y' is 'nan', not a finite number",
    ),
}


@pytest.mark.parametrize("edit, message", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
def test_load_dataset_names_the_file_and_the_bad_line_or_column(tmp_path, edit, message):
    csv_path = tmp_path / "linear.csv"
    save_dataset(generate(DesignSpec(design="linear", sample_size=5, seed=13)), csv_path)
    lines = edit(csv_path.read_text().splitlines())
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_dataset(csv_path)


def test_split_bounds():
    ds = generate(DesignSpec(design="linear", sample_size=10, seed=12))
    with pytest.raises(ValueError):
        ds.split(0)
    with pytest.raises(ValueError):
        ds.split(10)
