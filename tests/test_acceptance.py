"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The benchmark criteria (5-7) fit real estimators at n1 = n2 = 500 and take
minutes; the whole module is sized for a desk-scale run.
"""

import time

import numpy as np
import pytest

from mekiv import krr
from mekiv.baselines import kiv_fit
from mekiv.charfun import EmpiricalCF, l2q_distance_sq, rkhs_distance_sq, w_mn, w_x
from mekiv.datagen import DesignSpec, generate, generate_splits, moment_checks
from mekiv.estimator import (
    MekivConfig,
    TrainingPairs,
    instrument_eigensystem,
    make_training_pairs,
    mekiv_fit,
    step1,
    step2_grad,
    step2_loss,
)
from mekiv.harness import ExperimentConfig, mse_out_of_sample, run_experiment
from mekiv.kernels import KernelSpec, SpectralSampler, median_heuristic


def _check(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def kotlarski_stage1():
    # X | z ~ N(z, 1), two corrupted copies with N(0, 0.5^2) errors, s1 = 2000
    rng = np.random.default_rng(42)
    s1 = 2000
    z = rng.uniform(-5.0, 5.0, size=s1)
    x = z + rng.standard_normal(s1)
    m = x + 0.5 * rng.standard_normal(s1)
    n = x + 0.5 * rng.standard_normal(s1)
    return z, x, m, n, step1(z, m, n)


def test_c1_kotlarski_identity_recovery(kotlarski_stage1):
    start = time.perf_counter()
    z, x, m, n, stage1 = kotlarski_stage1
    ell = median_heuristic(0.5 * (stage1.m + stage1.n))[0]
    z_checks = np.linspace(-3.0, 3.0, 5)
    zq_std = stage1.z_scaler.transform(z_checks[:, None])
    gamma_n = stage1.solver_n.gamma_matrix(zq_std)
    gamma_mn = stage1.solver_mn.gamma_matrix(zq_std)
    mean, scale = stage1.x_scaler.mean[0], stage1.x_scaler.scale[0]
    sigma_sq = 1.0 / scale**2  # conditional variance of X on the pooled scale
    worst = 0.0
    for alpha in np.linspace(-1.0 / ell, 1.0 / ell, 20):
        for j, zq in enumerate(z_checks):
            val = w_mn(stage1.m, stage1.n, gamma_mn[:, j], gamma_n[:, j], alpha)
            expected = (zq - mean) / scale + 1j * sigma_sq * alpha
            worst = max(worst, abs(val.real - expected.real), abs(val.imag - expected.imag))
    elapsed = time.perf_counter() - start
    _check(
        "C1 kotlarski-identity",
        worst < 0.05,
        f"worst |w_MN - (mu + i sigma^2 a)| component = {worst:.4f} < 0.05, {elapsed:.0f}s",
    )


def test_c2_cme_charfun_duality():
    start = time.perf_counter()
    spec = KernelSpec([1.0])
    draws = SpectralSampler(spec, np.random.default_rng(1002)).sample(100_000).ravel()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        w1, w2 = rng.normal(size=(2, 8))
        a1, a2 = rng.normal(size=(2, 8)) * 1.5
        mc = l2q_distance_sq(EmpiricalCF(w1, a1), EmpiricalCF(w2, a2), draws)
        exact = rkhs_distance_sq(w1, a1, w2, a2, spec)
        worst = max(worst, abs(mc - exact) / exact)
    elapsed = time.perf_counter() - start
    _check(
        "C2 duality",
        worst < 0.02,
        f"worst relative gap MC-L2(q) vs RKHS = {worst:.4f} < 0.02, {elapsed:.0f}s",
    )


def test_c3_differentiation_trick_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    s1 = 2000
    z = rng.uniform(-2.0, 2.0, size=s1)
    x = z + rng.standard_normal(s1)
    kernel_z = KernelSpec(median_heuristic(z))
    kernel_x = KernelSpec(median_heuristic(x))
    lam = krr.validate_lambda(krr.holdout_basis(z, kernel_z), x, kernel_x, krr.default_lambda_grid(s1))
    solver = krr.fit(z, kernel_z, lam)
    ell = kernel_x.lengthscales[0]
    worst = 0.0
    for zq in (-1.0, 0.0, 1.0):
        gamma = solver.gamma([zq])
        cf = EmpiricalCF(gamma, x)
        for alpha in np.linspace(-2.0 / ell, 2.0 / ell, 9):
            if alpha == 0.0:
                continue
            nu = np.linspace(0.0, alpha, 400)
            integrand = np.array([1j * w_x(x, gamma, v) for v in nu])
            reconstructed = np.exp(np.trapezoid(integrand, nu))
            worst = max(worst, abs(reconstructed - cf.ecf(alpha)))
    elapsed = time.perf_counter() - start
    _check(
        "C3 differentiation-trick",
        worst < 1e-2,
        f"worst |exp(int i w_X) - psi_hat| = {worst:.5f} < 0.01, {elapsed:.0f}s",
    )


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    s1, n_alpha, n_z = 10, 4, 5
    z1 = rng.normal(size=(s1, 1))
    kernel_z = KernelSpec([1.0])
    z_grid = rng.normal(size=(n_z, 1))
    eigvals, eig_u, b_matrix = instrument_eigensystem(z1, z_grid, kernel_z)
    pairs = TrainingPairs(
        alphas=rng.normal(size=n_alpha),
        z_grid=z_grid,
        labels=rng.normal(size=(n_alpha, n_z)) + 1j * rng.normal(size=(n_alpha, n_z)),
        weight=np.ones((n_alpha, n_z)),
        dropped_pairs=0,
        eigvals=eigvals,
        eig_u=eig_u,
        b_matrix=b_matrix,
    )
    x0 = rng.normal(size=s1)
    ll0 = float(rng.normal() - 4.0)
    return pairs, x0, ll0


def test_c4_gradient_fidelity():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        pairs, x0, ll0 = _random_instance(3000 + trial)
        gx, gl = step2_grad(x0, ll0, pairs)
        fd = np.zeros(x0.size + 1)
        for k in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fd[k] = (step2_loss(xp, ll0, pairs) - step2_loss(xm, ll0, pairs)) / (2 * h)
        fd[-1] = (step2_loss(x0, ll0 + h, pairs) - step2_loss(x0, ll0 - h, pairs)) / (2 * h)
        ana = np.concatenate([gx, [gl]])
        worst = max(worst, np.linalg.norm(ana - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - start
    _check(
        "C4 gradient-fidelity",
        worst <= 1e-4,
        f"worst relative gradient error over 50 instances = {worst:.2e} <= 1e-4, {elapsed:.0f}s",
    )


def test_c5_zero_noise_reduction():
    start = time.perf_counter()
    grid = np.linspace(0.05, 0.95, 400)
    bitwise_ok = True
    mses_oracle, mses_mekiv = [], []
    for seed in range(5):
        spec = DesignSpec(design="linear", merror_kind="gaussian", merror_level=0.0, seed=seed)
        s1d, s2d = generate_splits(spec, 500, 500)
        f_oracle = kiv_fit("oracle", s1d, s2d)
        f_m = kiv_fit("m-as-x", s1d, s2d)
        bitwise_ok &= bool(np.array_equal(f_oracle.predict(grid), f_m.predict(grid)))
        mses_oracle.append(mse_out_of_sample(f_oracle, "linear", None, 400, seed))
        f_mekiv = mekiv_fit(s1d, s2d, MekivConfig(seed=seed))
        mses_mekiv.append(mse_out_of_sample(f_mekiv, "linear", None, 400, seed))
    med_o = float(np.median(mses_oracle))
    med_k = float(np.median(mses_mekiv))
    elapsed = time.perf_counter() - start
    _check(
        "C5 zero-noise-reduction",
        bitwise_ok and med_k <= 2.0 * med_o,
        f"KIV-M == KIV-Oracle bitwise: {bitwise_ok}; median MSE mekiv {med_k:.4f} "
        f"vs 2x oracle {2 * med_o:.4f}, {elapsed:.0f}s",
    )


def test_c6_benchmark_ordering_at_high_noise(tmp_path):
    start = time.perf_counter()
    designs = [
        DesignSpec(design=d, merror_kind=k, merror_level=2.0, sample_size=1)
        for d in ("linear", "sigmoid")
        for k in ("gaussian", "mog")
    ]
    config = ExperimentConfig(
        designs=designs,
        methods=["mekiv", "kiv-oracle", "kiv-m", "kiv-mn"],
        seeds=[0, 1, 2, 3, 4],
        n_stage1=500,
        n_stage2=500,
        test_grid_size=400,
        output_dir=str(tmp_path / "bench"),
    )
    rows = run_experiment(config)
    assert all(r.status == "ok" for r in rows), "benchmark cells must all succeed"
    ok_all = True
    details = []
    for d in ("linear", "sigmoid"):
        for k in ("gaussian", "mog"):
            med = {}
            for method in config.methods:
                vals = [
                    r.log10_mse
                    for r in rows
                    if r.design == d and r.merror_kind == k and r.method == method
                ]
                med[method] = float(np.median(vals))
            ok = (
                med["mekiv"] < med["kiv-m"]
                and med["mekiv"] < med["kiv-mn"]
                and med["mekiv"] >= med["kiv-oracle"] - 0.1
            )
            ok_all &= ok
            details.append(
                f"{d}/{k}: mekiv={med['mekiv']:+.2f} m={med['kiv-m']:+.2f} "
                f"mn={med['kiv-mn']:+.2f} oracle={med['kiv-oracle']:+.2f} {'ok' if ok else 'BAD'}"
            )
    elapsed = time.perf_counter() - start
    _check("C6 benchmark-ordering", ok_all, "; ".join(details) + f", {elapsed:.0f}s")


def test_c7_latent_recovery_quality():
    start = time.perf_counter()
    wins = 0
    gaps = []
    for seed in range(5):
        spec = DesignSpec(design="linear", merror_kind="gaussian", merror_level=1.0, seed=seed)
        s1d, s2d = generate_splits(spec, 500, 500)
        _, details = mekiv_fit(s1d, s2d, MekivConfig(seed=seed), details=True)
        rms_rec = float(np.sqrt(np.mean((details.x_hat_raw - s1d.x[:, 0]) ** 2)))
        rms_m = float(np.sqrt(np.mean((s1d.m[:, 0] - s1d.x[:, 0]) ** 2)))
        wins += rms_rec < rms_m
        gaps.append(f"{rms_rec:.3f}<{rms_m:.3f}")
    elapsed = time.perf_counter() - start
    _check(
        "C7 latent-recovery",
        wins == 5,
        f"RMS(x_hat - x) < RMS(m - x) on {wins}/5 seeds [{', '.join(gaps)}], {elapsed:.0f}s",
    )


def test_c8_data_generator_moment_suite():
    start = time.perf_counter()
    ds = generate(
        DesignSpec(design="linear", merror_kind="gaussian", merror_level=1.0,
                   sample_size=100_000, seed=0)
    )
    checks = moment_checks(ds)
    ok = (
        checks["corr_dm_dn"] < 0.02
        and checks["corr_dn_x"] < 0.02
        and checks["corr_eps_dn"] < 0.02
        and checks["max_binned_eps_mean"] < 0.05
    )
    elapsed = time.perf_counter() - start
    _check(
        "C8 moment-suite",
        ok,
        f"|corr(dM,dN)|={checks['corr_dm_dn']:.4f}, |corr(dN,x)|={checks['corr_dn_x']:.4f}, "
        f"|corr(eps,dN)|={checks['corr_eps_dn']:.4f} < 0.02; "
        f"binned |E[eps|z]|={checks['max_binned_eps_mean']:.4f} < 0.05, {elapsed:.0f}s",
    )


def test_c9_cf_normalization_at_zero(kotlarski_stage1):
    start = time.perf_counter()
    z, x, m, n, stage1 = kotlarski_stage1
    z_checks = np.linspace(-3.0, 3.0, 10)
    gammas = stage1.solver_n.gamma_matrix(
        stage1.z_scaler.transform(z_checks[:, None])
    )
    worst = float(np.abs(gammas.sum(axis=0) - 1.0).max())
    elapsed = time.perf_counter() - start
    _check(
        "C9 cf-normalization",
        worst < 0.05,
        f"worst |psi_hat(0) - 1| over 10 z values = {worst:.4f} < 0.05, {elapsed:.0f}s",
    )
