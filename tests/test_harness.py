import json

import numpy as np
import pytest

from mekiv.datagen import DesignSpec, structural_truth
from mekiv.estimator import GdConfig
from mekiv.harness import (
    RESULTS_HEADER,
    ExperimentConfig,
    ResultRow,
    _worker_count,
    mse_out_of_sample,
    read_results_csv,
    report,
    run_experiment,
    write_report,
)


class _Plugin:
    """Stub structural function wrapping an arbitrary callable."""

    def __init__(self, fn):
        self._fn = fn

    def predict(self, x):
        pts = np.asarray(x, dtype=float)
        return self._fn(pts if pts.ndim <= 1 else pts)


def test_mse_oracle_plugin_is_zero():
    fn = _Plugin(lambda x: structural_truth("linear", x))
    assert mse_out_of_sample(fn, "linear") == 0.0


def test_mse_constant_offset_is_one():
    fn = _Plugin(lambda x: structural_truth("sigmoid", x) + 1.0)
    assert mse_out_of_sample(fn, "sigmoid") == pytest.approx(1.0)


def test_mse_mean_predictor_matches_grid_variance():
    grid = np.linspace(0.05, 0.95, 400)
    truth = structural_truth("linear", grid)
    fn = _Plugin(lambda x: np.full(np.shape(x) or (), truth.mean()))
    val = mse_out_of_sample(fn, "linear", test_grid_size=400)
    assert val == pytest.approx(truth.var(), rel=1e-12)
    assert val == pytest.approx(1.08, abs=0.01)


def test_mse_demand_uses_seeded_fresh_draw():
    fn = _Plugin(lambda pts: structural_truth("demand", pts) + 2.0)
    a = mse_out_of_sample(fn, "demand", rho=0.5, mc_seed=11)
    b = mse_out_of_sample(fn, "demand", rho=0.5, mc_seed=11)
    assert a == b == pytest.approx(4.0)


def _tiny_config(tmp_path, **overrides):
    base = dict(
        designs=[DesignSpec(design="linear", merror_level=0.5, sample_size=1)],
        methods=["kiv-oracle", "kiv-m"],
        seeds=[0, 1, 2],
        n_stage1=60,
        n_stage2=60,
        test_grid_size=50,
        output_dir=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_row_count_and_order(tmp_path):
    config = _tiny_config(tmp_path)
    rows = run_experiment(config)
    assert len(rows) == 6
    keys = [(r.design, r.method, r.seed) for r in rows]
    assert keys == [("linear", m, s) for m in ("kiv-oracle", "kiv-m") for s in (0, 1, 2)]
    assert all(r.status == "ok" and r.mse is not None for r in rows)
    header = (tmp_path / "results" / "results.csv").read_text().splitlines()[0]
    assert header == RESULTS_HEADER


def test_run_experiment_deterministic(tmp_path):
    config = _tiny_config(tmp_path)
    a = run_experiment(config)
    b = run_experiment(config)
    assert [r.mse for r in a] == [r.mse for r in b]


def test_run_experiment_isolates_failures(tmp_path):
    # stage-1 too small for mekiv (< 20 samples) -> error rows, sweep continues
    config = _tiny_config(tmp_path, methods=["mekiv", "kiv-oracle"], n_stage1=10, n_stage2=10,
                          seeds=[0, 1])
    rows = run_experiment(config)
    assert len(rows) == 4
    mekiv_rows = [r for r in rows if r.method == "mekiv"]
    assert all(r.status.startswith("error:") and r.mse is None for r in mekiv_rows)
    oracle_rows = [r for r in rows if r.method == "kiv-oracle"]
    assert all(r.status == "ok" for r in oracle_rows)


def test_results_csv_round_trip(tmp_path):
    config = _tiny_config(tmp_path)
    rows = run_experiment(config)
    loaded = read_results_csv(tmp_path / "results" / "results.csv")
    assert [(r.design, r.method, r.seed) for r in loaded] == [
        (r.design, r.method, r.seed) for r in rows
    ]
    assert all(a.mse == b.mse for a, b in zip(loaded, rows))


def test_config_json_round_trip(tmp_path):
    config = _tiny_config(tmp_path, lambda_grid=[1e-6, 1e-3, 1.0], alpha_count=16,
                          optimizer=GdConfig(max_iters=77))
    path = tmp_path / "config.json"
    config.to_json(path)
    raw = json.loads(path.read_text())
    assert set(raw) == {
        "designs", "methods", "seeds", "n_stage1", "n_stage2", "test_grid_size",
        "lambda_grid", "xi_grid", "alpha_count", "pair_cap", "optimizer", "output_dir",
    }
    loaded = ExperimentConfig.from_json(path)
    assert loaded.designs == config.designs
    assert loaded.optimizer.max_iters == 77
    assert loaded.lambda_grid == [1e-6, 1e-3, 1.0]


def test_config_json_with_a_removed_optimizer_key_fails_at_load(tmp_path):
    path = tmp_path / "config.json"
    _tiny_config(tmp_path).to_json(path)
    raw = json.loads(path.read_text())
    raw["optimizer"]["tol"] = 1e-3
    path.write_text(json.dumps(raw))
    with pytest.raises(TypeError, match="'tol'"):
        ExperimentConfig.from_json(path)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(designs=[], methods=["mekiv"], seeds=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(
            designs=[DesignSpec(design="linear")], methods=["gradient-boost"], seeds=[0]
        )


def _row(seed, mse, method="kiv-m"):
    return ResultRow(
        design="linear", method=method, merror_kind="gaussian", merror_level=1.0,
        rho=None, seed=seed, mse=mse, log10_mse=float(np.log10(mse)),
        wall_time_seconds=0.1, dropped_pairs=None, status="ok",
    )


def test_report_single_row_and_constant_groups():
    rows = [_row(0, 0.25)]
    summary = report(rows)
    assert len(summary) == 1
    assert summary[0]["median_log10_mse"] == pytest.approx(np.log10(0.25))
    assert summary[0]["iqr_log10_mse"] == 0.0
    const = report([_row(s, 0.5) for s in range(4)])
    assert const[0]["iqr_log10_mse"] == 0.0
    assert const[0]["n"] == 4


def test_report_median_of_five():
    rows = [_row(s, m) for s, m in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    summary = report(rows)
    assert summary[0]["median_log10_mse"] == pytest.approx(np.log10(3.0))


def test_report_skips_error_rows_and_writes_files(tmp_path):
    rows = [_row(0, 0.5), _row(1, 0.7)]
    rows.append(
        ResultRow(design="linear", method="kiv-m", merror_kind="gaussian",
                  merror_level=1.0, rho=None, seed=2, mse=None, log10_mse=None,
                  wall_time_seconds=0.1, dropped_pairs=None, status="error:ValueError")
    )
    summary_path, long_path = write_report(rows, tmp_path)
    assert report(rows)[0]["n"] == 2
    long_lines = long_path.read_text().splitlines()
    assert len(long_lines) == 3  # header + two ok rows
    assert summary_path.read_text().count("\n") == 2


def test_worker_count_names_the_variable_on_a_non_integer(monkeypatch):
    monkeypatch.delenv("MEKIV_WORKERS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("MEKIV_WORKERS", " 3 ")
    assert _worker_count() == 3
    monkeypatch.setenv("MEKIV_WORKERS", "0")
    assert _worker_count() == 1
    for bad in ("two", "1.5"):
        monkeypatch.setenv("MEKIV_WORKERS", bad)
        with pytest.raises(ValueError, match=f"MEKIV_WORKERS must be an integer, got '{bad}'"):
            _worker_count()


def test_workers_env_parallel_matches_sequential(tmp_path, monkeypatch):
    config = _tiny_config(tmp_path, seeds=[0, 1])
    seq = run_experiment(config, workers=1)
    par = run_experiment(config, workers=2)
    assert [r.mse for r in seq] == [r.mse for r in par]
    monkeypatch.setenv("MEKIV_WORKERS", "2")
    env_rows = run_experiment(config)
    assert [r.mse for r in env_rows] == [r.mse for r in seq]
