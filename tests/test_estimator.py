import dataclasses

import numpy as np
import pytest

from mekiv import estimator, krr
from mekiv.datagen import DesignSpec, generate_splits
from mekiv.estimator import (
    DEFAULT_XI_GRID,
    XI_SCORE_REL_TOL,
    GdConfig,
    Instrument,
    MekivConfig,
    Stage1Output,
    StructuralFn,
    TrainingPairs,
    instrument_eigensystem,
    make_training_pairs,
    mekiv_fit,
    optimize_latents,
    step1,
    step2_grad,
    step2_loss,
    step3,
)
from mekiv.kernels import KernelSpec, Standardizer, gram, median_heuristic
from mekiv.krr import NumericalError


def _kotlarski_stage1(seed=0, s1=400, noise=0.5):
    # X | z ~ N(z, 1) with corrupted copies; returns raw arrays and stage 1.
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, size=s1)
    x = z + rng.standard_normal(s1)
    m = x + noise * rng.standard_normal(s1)
    n = x + noise * rng.standard_normal(s1)
    return z, x, m, n, step1(z, m, n)


def _manual_pairs(alphas, z_grid, labels, weight, z1, kernel_z):
    z1 = np.asarray(z1, dtype=float)
    if z1.ndim == 1:
        z1 = z1[:, None]
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim == 1:
        z_grid = z_grid[:, None]
    eigvals, eig_u, b_matrix = instrument_eigensystem(z1, z_grid, kernel_z)
    return TrainingPairs(
        alphas=np.asarray(alphas, dtype=float),
        z_grid=z_grid,
        labels=np.asarray(labels, dtype=complex),
        weight=np.asarray(weight, dtype=float),
        dropped_pairs=0,
        eigvals=eigvals,
        eig_u=eig_u,
        b_matrix=b_matrix,
    )


def test_step1_preconditions():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step1(rng.normal(size=5), rng.normal(size=5), rng.normal(size=5))
    with pytest.raises(ValueError):
        step1(rng.normal(size=30), rng.normal(size=30), rng.normal(size=29))


def test_step1_fits_shared_instrument_sample():
    _, _, _, _, stage1 = _kotlarski_stage1(seed=1, s1=60)
    assert len(stage1.solver_n.train_z) == 60
    assert len(stage1.solver_mn.train_z) == 60
    assert np.array_equal(stage1.solver_n.train_z, stage1.solver_mn.train_z)
    assert stage1.solver_n.kernel_z is stage1.solver_mn.kernel_z
    assert stage1.z is stage1.solver_n.train_z
    grid = krr.default_lambda_grid(60)
    assert stage1.lambda_n in grid
    assert stage1.lambda_mn in grid
    # the joint ridge is validated on the 2-d (M, N) outputs with the product kernel
    kernel_mn = KernelSpec(np.concatenate([median_heuristic(stage1.m), median_heuristic(stage1.n)]))
    mn = np.column_stack([stage1.m, stage1.n])
    assert krr.validate_lambda(stage1.instrument.holdout, mn, kernel_mn, grid) == stage1.lambda_mn


def test_step1_pooled_standardization_preserves_error_structure():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=2, s1=100)
    # one affine map for both: standardized m - standardized n traces m - n
    diff = stage1.m - stage1.n
    assert np.allclose(diff * stage1.x_scaler.scale[0], m - n)


def test_make_training_pairs_counts_and_cap():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=3, s1=40)
    z_check = np.linspace(-1, 1, 4)
    pairs = make_training_pairs(stage1, z_check, alpha_count=3, pair_cap=None,
                                rng=np.random.default_rng(0))
    assert len(pairs) == 12
    assert pairs.labels.shape == (3, 4)
    capped = make_training_pairs(stage1, z_check, alpha_count=3, pair_cap=5,
                                 rng=np.random.default_rng(0))
    assert len(capped) == 5


def test_make_training_pairs_deterministic_under_seed():
    _, _, _, _, stage1 = _kotlarski_stage1(seed=4, s1=40)
    z_check = np.linspace(-1, 1, 6)
    a = make_training_pairs(stage1, z_check, 4, 10, np.random.default_rng(5))
    b = make_training_pairs(stage1, z_check, 4, 10, np.random.default_rng(5))
    assert np.array_equal(a.alphas, b.alphas)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.weight, b.weight)


def test_labels_match_kotlarski_identity_at_scale():
    # with large stage 1 and validated embeddings, w_MN(alpha, z) tracks the
    # analytic mu_z + i sigma^2 alpha of the standardized latent law for
    # alphas inside the spectral band of the initialization kernel
    z, x, m, n, stage1 = _kotlarski_stage1(seed=5, s1=2000, noise=0.5)
    z_check = np.array([-1.0, 0.0, 1.0])
    pairs = make_training_pairs(stage1, z_check, alpha_count=12, pair_cap=None,
                                rng=np.random.default_rng(6))
    band = 1.0 / median_heuristic(0.5 * (stage1.m + stage1.n))[0]
    scale = stage1.x_scaler.scale[0]
    mean = stage1.x_scaler.mean[0]
    checked = 0
    for a_idx, alpha in enumerate(pairs.alphas):
        if abs(alpha) > band:
            continue
        for j, zq in enumerate(z_check):
            mu_std = (zq - mean) / scale
            sigma_std_sq = 1.0 / scale**2
            expected = mu_std + 1j * sigma_std_sq * alpha
            assert abs(pairs.labels[a_idx, j] - expected) < 0.08
            checked += 1
    assert checked >= 9


def test_step2_loss_zero_on_self_labels_and_nonnegative():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=7, s1=50)
    z_check = np.linspace(-1, 1, 5)
    pairs = make_training_pairs(stage1, z_check, 6, None, np.random.default_rng(8))
    x0 = 0.5 * (stage1.m + stage1.n)
    ll0 = float(np.log(stage1.lambda_n))
    from mekiv.estimator import _Step2Eval

    ev = _Step2Eval(x0, ll0, pairs)
    self_labeled = _manual_pairs(pairs.alphas, pairs.z_grid, ev.w_grid, pairs.weight,
                                 stage1.z, stage1.kernel_z)
    assert step2_loss(x0, ll0, self_labeled) < 1e-28
    gx, gl = step2_grad(x0, ll0, self_labeled)
    assert np.abs(gx).max() < 1e-12 and abs(gl) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(5):
        assert step2_loss(rng.normal(size=50), rng.normal(), pairs) >= 0.0


def test_step2_loss_prefers_true_latents_without_measurement_error():
    rng = np.random.default_rng(10)
    s1 = 200
    z = rng.uniform(-2, 2, size=s1)
    x = z + rng.standard_normal(s1)
    stage1 = step1(z, x, x)  # zero measurement error: m = n = x
    pairs = make_training_pairs(stage1, np.linspace(-1.5, 1.5, 40), 16, None,
                                np.random.default_rng(11))
    ll = float(np.log(stage1.lambda_n))
    loss_true = step2_loss(stage1.m, ll, pairs)
    loss_noisy = step2_loss(stage1.m + 0.5 * rng.standard_normal(s1), ll, pairs)
    assert loss_true < loss_noisy


def test_step2_grad_matches_finite_differences():
    rng_master = np.random.default_rng(12)
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        z1 = rng.normal(size=10)
        kernel_z = KernelSpec([1.0])
        labels = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        pairs = _manual_pairs(rng.normal(size=4), rng.normal(size=5), labels,
                              np.ones((4, 5)), z1, kernel_z)
        x0 = rng_master.normal(size=10)
        ll0 = float(rng_master.normal() - 4.0)
        gx, gl = step2_grad(x0, ll0, pairs)
        h = 1e-5
        fd = np.zeros(11)
        for k in range(10):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fd[k] = (step2_loss(xp, ll0, pairs) - step2_loss(xm, ll0, pairs)) / (2 * h)
        fd[10] = (step2_loss(x0, ll0 + h, pairs) - step2_loss(x0, ll0 - h, pairs)) / (2 * h)
        ana = np.concatenate([gx, [gl]])
        assert np.linalg.norm(ana - fd) <= 1e-4 * np.linalg.norm(fd)


def _complex_step2_reference(x, log_lambda, pairs):
    # loss and gradients written directly from w_X = (xE)'Gamma / E'Gamma with
    # E = exp(i x alpha'), Gamma = U diag(1/denom) B, in complex arithmetic
    s1, lam, alphas = x.size, np.exp(log_lambda), pairs.alphas
    denom = pairs.eigvals + s1 * lam
    gamma = pairs.eig_u @ (pairs.b_matrix / denom[:, None])
    dgamma = -s1 * lam * pairs.eig_u @ (pairs.b_matrix / denom[:, None] ** 2)
    e = np.exp(1j * np.outer(x, alphas))
    d = e.T @ gamma
    w = ((e * x[:, None]).T @ gamma) / d
    resid = w - pairs.labels
    n_used = pairs.weight.sum()
    loss = np.sum(pairs.weight * np.abs(resid) ** 2) / n_used
    g = pairs.weight * np.conj(resid) / d
    # dw[a, j] / dx_k = E[k, a] Gamma[k, j] (1 + i alpha_a (x_k - w[a, j])) / d[a, j]
    dn_minus_w_dd = np.einsum(
        "ka,kj,kaj->kaj", e, gamma, 1.0 + 1j * alphas[None, :, None] * (x[:, None, None] - w[None])
    )
    grad_x = 2.0 / n_used * np.real(np.einsum("aj,kaj->k", g, dn_minus_w_dd))
    dd_ll = e.T @ dgamma
    dn_ll = (e * x[:, None]).T @ dgamma
    grad_ll = 2.0 / n_used * np.real(np.sum(g * (dn_ll - w * dd_ll)))
    return w, loss, grad_x, grad_ll


def test_step2_real_block_layout_matches_complex_math():
    from mekiv.charfun import w_x
    from mekiv.estimator import _Step2Eval

    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        n_alpha, n_z = 6, 7
        z1 = rng.normal(size=12)
        labels = rng.normal(size=(n_alpha, n_z)) + 1j * rng.normal(size=(n_alpha, n_z))
        weight = (rng.uniform(size=(n_alpha, n_z)) < 0.8).astype(float)
        pairs = _manual_pairs(rng.normal(size=n_alpha), rng.normal(size=n_z), labels, weight,
                              z1, KernelSpec([1.0]))
        x0 = rng.normal(size=12)
        ll0 = float(rng.normal() - 4.0)
        ev = _Step2Eval(x0, ll0, pairs)
        denom = pairs.eigvals + x0.size * np.exp(ll0)
        gamma = pairs.eig_u @ np.diag(1.0 / denom) @ pairs.b_matrix
        for a, alpha in enumerate(pairs.alphas):
            for j in range(n_z):
                ref = w_x(x0, gamma[:, j], alpha)
                assert abs(ev.w_grid[a, j] - ref) <= 1e-12 * abs(ref)
        w_ref, loss_ref, gx_ref, gl_ref = _complex_step2_reference(x0, ll0, pairs)
        assert np.abs(ev.w_grid - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
        assert abs(ev.loss - loss_ref) <= 1e-12 * loss_ref
        gx, gl = ev.gradients()
        assert np.linalg.norm(gx - gx_ref) <= 1e-12 * np.linalg.norm(gx_ref)
        assert abs(gl - gl_ref) <= 1e-12 * abs(gl_ref)


def test_step2_on_rank_truncated_eigensystem_matches_full_eigh():
    # a 1-d instrument gives a Gaussian K_ZZ of low numerical rank; the
    # dropped eigenpairs are rounding noise and must not move the objective
    z, x, m, n, stage1 = _kotlarski_stage1(seed=30, s1=200, noise=1.0)
    pairs = make_training_pairs(stage1, np.linspace(-1.5, 1.5, 20), 8, None,
                                np.random.default_rng(31))
    s1 = pairs.n_latents
    assert pairs.eigvals.size < s1 // 4
    assert pairs.eig_u.shape == (s1, pairs.eigvals.size)
    assert pairs.b_matrix.shape == (pairs.eigvals.size, 20)
    eigvals, eig_u = np.linalg.eigh(gram(stage1.z, stage1.z, stage1.kernel_z))
    full = dataclasses.replace(
        pairs, eigvals=eigvals, eig_u=eig_u,
        b_matrix=eig_u.T @ gram(stage1.z, pairs.z_grid, stage1.kernel_z),
    )
    rng = np.random.default_rng(32)
    x0 = 0.5 * (stage1.m + stage1.n)
    ll0 = float(np.log(stage1.lambda_n))
    for x_eval, ll in ((x0, ll0), (x0 + 0.3 * rng.standard_normal(s1), ll0 - 1.0)):
        loss, (gx, gl) = step2_loss(x_eval, ll, pairs), step2_grad(x_eval, ll, pairs)
        loss_ref, (gx_ref, gl_ref) = step2_loss(x_eval, ll, full), step2_grad(x_eval, ll, full)
        assert abs(loss - loss_ref) <= 1e-9 * loss_ref
        assert np.linalg.norm(gx - gx_ref) <= 1e-9 * np.linalg.norm(gx_ref)
        assert abs(gl - gl_ref) <= 1e-9 * abs(gl_ref)


def test_training_pairs_full_rank_eigensystem_is_plain_eigh():
    # the demand design's 3-d instrument gives a full-rank K_ZZ: the arrays
    # must be exactly those of a plain eigh, so no sum changes order
    spec = DesignSpec(design="demand", rho=0.5, merror_level=1.0, sample_size=1, seed=33)
    s1d, s2d = generate_splits(spec, 150, 150)
    cd = s1d.corrupted_dim
    stage1 = step1(s1d.z, s1d.m[:, cd], s1d.n[:, cd])
    pairs = make_training_pairs(stage1, s2d.z, 4, 200, np.random.default_rng(34))
    eigvals, eig_u = np.linalg.eigh(gram(stage1.z, stage1.z, stage1.kernel_z))
    b_matrix = eig_u.T @ gram(stage1.z, pairs.z_grid, stage1.kernel_z)
    assert pairs.eig_u.shape == (150, 150)
    assert np.array_equal(pairs.eigvals, eigvals)
    assert np.array_equal(pairs.eig_u, eig_u)
    assert pairs.eig_u.strides == eig_u.strides
    assert np.array_equal(pairs.b_matrix, b_matrix)


def test_step2_grad_antisymmetric_under_sign_flip():
    # alphas (a, -a) with labels (w, -w) make the loss even in x, so the
    # x-gradient must be odd
    rng = np.random.default_rng(13)
    z1 = rng.normal(size=8)
    kernel_z = KernelSpec([1.0])
    w = 0.3 + 0.2j
    pairs = _manual_pairs([0.9, -0.9], [0.4], [[w], [-w]], np.ones((2, 1)), z1, kernel_z)
    x0 = rng.normal(size=8)
    gx_pos, _ = step2_grad(x0, -3.0, pairs)
    gx_neg, _ = step2_grad(-x0, -3.0, pairs)
    assert np.allclose(gx_neg, -gx_pos, atol=1e-12)


def test_optimize_latents_zero_iterations_returns_initialization():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=14, s1=50)
    pairs = make_training_pairs(stage1, np.linspace(-1, 1, 5), 4, None,
                                np.random.default_rng(15))
    rec = optimize_latents(stage1, pairs, GdConfig(max_iters=0))
    assert np.array_equal(rec.x_hat, 0.5 * (stage1.m + stage1.n))
    assert rec.lambda_x == pytest.approx(stage1.lambda_n)
    assert len(rec.loss_trace) == 1


def test_optimize_latents_trace_non_increasing():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=16, s1=80, noise=1.0)
    pairs = make_training_pairs(stage1, np.linspace(-1.5, 1.5, 30), 8, None,
                                np.random.default_rng(17))
    rec = optimize_latents(stage1, pairs, GdConfig(max_iters=150))
    assert np.all(np.diff(rec.loss_trace) <= 0.0)
    assert rec.lambda_x > 0.0
    assert rec.dropped_pair_count >= 0


def test_optimize_latents_zero_error_keeps_initialization_close():
    # with m = n = x the initialization is the truth; optimization must not
    # wander away (RMS drift below 1e-2 on the raw scale)
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        s1 = 200
        z = rng.uniform(-2, 2, size=s1)
        x = z + rng.standard_normal(s1)
        stage1 = step1(z, x, x)
        pairs = make_training_pairs(stage1, rng.uniform(-2, 2, size=50), 16, None,
                                    np.random.default_rng(300 + seed))
        rec = optimize_latents(stage1, pairs, GdConfig(max_iters=300))
        drift = stage1.x_scaler.inverse(rec.x_hat) - x
        assert np.sqrt(np.mean(drift**2)) < 1e-2


def test_optimize_latents_makes_no_proposal_at_the_rounding_floor():
    # without measurement error the initialization reproduces the labels up
    # to rounding, so there is nothing for gradient descent to fit
    spec = DesignSpec(design="linear", merror_level=0.0, sample_size=1, seed=3)
    s1d, s2d = generate_splits(spec, 200, 200)
    stage1 = step1(s1d.z, s1d.m[:, 0], s1d.n[:, 0])
    pairs = make_training_pairs(stage1, s2d.z, 16, 2000, np.random.default_rng(36))
    rec = optimize_latents(stage1, pairs)
    assert len(rec.loss_trace) == 1
    assert np.array_equal(rec.x_hat, 0.5 * (stage1.m + stage1.n))


def test_optimize_latents_rejects_non_finite_start():
    z, x, m, n, stage1 = _kotlarski_stage1(seed=18, s1=50)
    pairs = make_training_pairs(stage1, np.linspace(-1, 1, 5), 4, None,
                                np.random.default_rng(19))
    pairs.labels[:] = np.nan
    with pytest.raises(NumericalError):
        optimize_latents(stage1, pairs, GdConfig(max_iters=5))


def test_step3_constant_outcome_reproduces_constant():
    rng = np.random.default_rng(20)
    s1 = s2 = 60
    z1 = rng.uniform(-2, 2, size=(s1, 1))
    z2 = rng.uniform(-2, 2, size=(s2, 1))
    x1 = (z1[:, 0] + 0.3 * rng.standard_normal(s1))[:, None]
    x_scaler = Standardizer.fit(x1)
    fn = step3(
        x_scaler.transform(x1),
        1e-3,
        Instrument(z1, z2),
        np.full(s1, 4.2),
        np.full(s2, 4.2),
        np.logspace(-7, 0, 5),
        KernelSpec([1.0]),
        x_scaler,
    )
    for q in np.linspace(x1.min(), x1.max(), 9):
        assert abs(fn.predict(q) - 4.2) < 1e-3


def test_step3_heavy_ridge_predicts_outcome_mean():
    rng = np.random.default_rng(21)
    s = 50
    z1 = rng.uniform(-2, 2, size=(s, 1))
    z2 = rng.uniform(-2, 2, size=(s, 1))
    x1 = (z1[:, 0] + 0.2 * rng.standard_normal(s))[:, None]
    y2 = rng.normal(3.0, 1.0, size=s)
    x_scaler = Standardizer.fit(x1)
    fn = step3(x_scaler.transform(x1), 1e-3, Instrument(z1, z2), rng.normal(3.0, 1.0, size=s), y2,
               [1e9], KernelSpec([1.0]), x_scaler)
    for q in np.linspace(-1, 1, 5):
        assert fn.predict(q) == pytest.approx(y2.mean(), abs=1e-4)


def test_step3_makes_no_failing_cholesky_attempt(monkeypatch):
    # the step-3 matrix carries the null space of k_xx, which a 1-d treatment
    # makes numerically singular: an unjittered factorization would fail
    failures = []
    cholesky = krr.scipy.linalg.cholesky

    def counted(*args, **kwargs):
        try:
            return cholesky(*args, **kwargs)
        except krr.scipy.linalg.LinAlgError:
            failures.append(len(args[0]))
            raise

    spec = DesignSpec(design="linear", merror_level=0.0, sample_size=400, seed=23)
    s1d, s2d = generate_splits(spec, 200, 200)
    x_scaler = Standardizer.fit(s1d.x)
    monkeypatch.setattr(krr.scipy.linalg, "cholesky", counted)
    fn = step3(x_scaler.transform(s1d.x), 1e-3, Instrument(s1d.z, s2d.z), s1d.y,
               s2d.y, np.logspace(-7, 0, 10), KernelSpec([1.0]), x_scaler)
    assert failures == []
    assert np.all(np.isfinite(fn.predict(np.linspace(0.05, 0.95, 9))))


def _jittered_step3_reference(x_hat, lambda_x, z1s, y1, z2s, y2, xi_grid, kernel_z):
    # the s1 x s1 path step 3 replaced: Cholesky stage-1 weights, then one
    # Cholesky of v v' + s2*xi*k_xx per xi with a 1e-10 jitter
    s1, s2 = len(z1s), len(z2s)
    kernel_x = KernelSpec(median_heuristic(x_hat))
    k_xx = gram(x_hat, x_hat, kernel_x)
    solver = krr.fit(z1s, kernel_z, lambda_x)
    v = k_xx @ solver.gamma_matrix(z2s)
    v1 = k_xx @ solver.gamma_matrix(z1s)
    y_scaler = Standardizer.fit(y2)
    y2s, y1s = y_scaler.transform(y2), y_scaler.transform(y1)
    fits = []
    for xi in np.sort(xi_grid):
        mat = v @ v.T + s2 * xi * k_xx
        lower = np.linalg.cholesky(mat + 1e-10 * np.mean(np.diag(mat)) * np.eye(s1))
        beta = krr.chol_solve(lower, v @ y2s)
        fits.append((float(xi), float(np.mean((y1s - v1.T @ beta) ** 2)), beta))
    best = min(score for _, score, _ in fits)
    xi, _, beta = max((f for f in fits if f[1] <= best * (1.0 + XI_SCORE_REL_TOL)), key=lambda f: f[0])
    return xi, beta, kernel_x, y_scaler


def _linear_step3_inputs(seed=26, n=300):
    # the instrument is built from split 1 alone: ``with_z2`` adds split 2
    spec = DesignSpec(design="linear", merror_level=1.0, sample_size=2 * n, seed=seed)
    s1d, s2d = generate_splits(spec, n, n)
    instrument = Instrument(s1d.z)
    x_scaler = Standardizer.fit(s1d.m)
    x1s = x_scaler.transform(s1d.m)
    kernel_x = KernelSpec(median_heuristic(x1s))
    lam = krr.validate_lambda(instrument.holdout, x1s, kernel_x, krr.default_lambda_grid(n))
    return (x1s, lam, instrument, s1d.y, s2d.z, s2d.y, DEFAULT_XI_GRID, kernel_x), x_scaler


def test_step3_matches_the_jittered_cholesky_reference():
    args, x_scaler = _linear_step3_inputs()
    x1s, lam, instrument, y1, z2, y2, xi_grid, kernel_x = args
    instrument = instrument.with_z2(z2)
    fn = step3(x1s, lam, instrument, y1, y2, xi_grid, kernel_x, x_scaler)
    xi, beta, kernel_x, y_scaler = _jittered_step3_reference(
        x1s, lam, instrument.z1s, y1, instrument.z2s, y2, xi_grid, instrument.kernel_z
    )
    ref = StructuralFn(args[0], beta, kernel_x, x_scaler, y_scaler, args[1], xi)
    assert fn.xi == xi
    grid = np.linspace(0.05, 0.95, 50)
    expected = ref.predict(grid)
    assert np.max(np.abs(fn.predict(grid) - expected)) <= 1e-6 * np.max(np.abs(expected))


@pytest.mark.parametrize("grid_size", [3, 10])
def test_step3_makes_one_eigendecomposition_and_no_cholesky(decompositions, grid_size):
    args, x_scaler = _linear_step3_inputs(n=100)
    x1s, lam, instrument, y1, z2, y2, _, kernel_x = args
    decompositions.update(cholesky=0, eigh=0)  # validate_lambda ran while building the inputs
    step3(x1s, lam, instrument.with_z2(z2), y1, y2, np.logspace(-7, 0, grid_size), kernel_x, x_scaler)
    assert decompositions == {"cholesky": 0, "eigh": 1}


def test_step3_validates_shapes_and_grid():
    rng = np.random.default_rng(22)
    z = rng.normal(size=(10, 1))
    x_scaler = Standardizer.fit(z)
    instrument = Instrument(z, z)
    with pytest.raises(ValueError):
        step3(z, 1e-3, instrument, np.zeros(10), np.zeros(10), [], KernelSpec([1.0]), x_scaler)
    with pytest.raises(ValueError):
        step3(z, -1.0, instrument, np.zeros(10), np.zeros(10), [0.1], KernelSpec([1.0]), x_scaler)
    with pytest.raises(ValueError):
        step3(z[:5], 1e-3, instrument, np.zeros(10), np.zeros(10), [0.1], KernelSpec([1.0]), x_scaler)


def test_predict_one_hot_beta_reads_kernel_row():
    anchors = np.array([[0.0], [1.0], [2.0]])
    kernel = KernelSpec([1.0])
    ident = Standardizer(mean=np.zeros(1), scale=np.ones(1))
    beta = np.array([0.0, 1.0, 0.0])
    fn = StructuralFn(anchors, beta, kernel, ident, ident, 1e-3, 1e-3)
    assert fn.predict(1.0) == pytest.approx(1.0)
    assert fn.predict(0.0) == pytest.approx(gram([1.0], [0.0], kernel)[0, 0])
    batch = fn.predict(np.array([0.0, 1.0]))
    assert batch.shape == (2,)
    assert fn.predict(1.0) == batch[1]
    # bit-identical repeat evaluations
    assert fn.predict(0.37) == fn.predict(0.37)


def test_mekiv_fit_rejects_empty_splits():
    spec = DesignSpec(design="linear", sample_size=100, seed=23)
    s1d, s2d = generate_splits(spec, 60, 40)
    empty = type("S", (), {"z": np.empty((0, 1)), "m": np.empty((0, 1)),
                           "n": np.empty((0, 1)), "y": np.empty(0)})()
    with pytest.raises(ValueError, match="the second split is empty"):
        mekiv_fit(s1d, empty)
    with pytest.raises(ValueError, match="the first split is empty"):
        mekiv_fit(empty, s2d)


def test_mekiv_fit_rejects_non_finite_columns_at_entry():
    spec = DesignSpec(design="linear", sample_size=200, seed=5)
    s1d, s2d = generate_splits(spec, 100, 100)
    s1d.m[3, 0] = np.inf
    with pytest.raises(ValueError, match="column 'm' of the first split"):
        mekiv_fit(s1d, s2d)
    s1d.m[3, 0] = 0.0
    s2d.z[5, 0] = np.nan
    with pytest.raises(ValueError, match="column 'z' of the second split"):
        mekiv_fit(s1d, s2d)


def test_mekiv_fit_rejects_mismatched_rows_at_entry():
    spec = DesignSpec(design="linear", sample_size=200, seed=5)
    s1d, s2d = generate_splits(spec, 100, 100)
    y1, y2 = s1d.y, s2d.y
    s1d.y = y1[:-1]
    with pytest.raises(ValueError, match="column 'y' of the first split has 99 row"):
        mekiv_fit(s1d, s2d)
    s1d.y, s2d.y = y1, y2[:-1]
    with pytest.raises(ValueError, match="column 'y' of the second split has 99 row"):
        mekiv_fit(s1d, s2d)
    s2d.y, s1d.n = y2, s1d.n[:-1]
    with pytest.raises(ValueError, match="column 'n' of the first split has 99 row"):
        mekiv_fit(s1d, s2d)


def test_mekiv_fit_rejects_another_instrument_width_at_entry(monkeypatch):
    spec = DesignSpec(design="linear", sample_size=200, seed=5)
    s1d, s2d = generate_splits(spec, 100, 100)
    s2d.z = np.column_stack([s2d.z, s2d.z])

    def no_step1(*args, **kwargs):
        raise AssertionError("step 1 ran before the column check")

    monkeypatch.setattr(estimator, "step1", no_step1)
    with pytest.raises(ValueError, match="column 'z' of the second split has 2 column"):
        mekiv_fit(s1d, s2d)


def test_mekiv_fit_deterministic_under_seed():
    spec = DesignSpec(design="linear", merror_level=0.5, sample_size=240, seed=24)
    s1d, s2d = generate_splits(spec, 120, 120)
    cfg = MekivConfig(alpha_count=8, pair_cap=500, gd=GdConfig(max_iters=40), seed=7)
    grid = np.linspace(0.05, 0.95, 50)
    a = mekiv_fit(s1d, s2d, cfg).predict(grid)
    b = mekiv_fit(s1d, s2d, cfg).predict(grid)
    assert np.array_equal(a, b)


def test_mekiv_fit_demand_smoke():
    spec = DesignSpec(design="demand", rho=0.5, merror_level=0.5, sample_size=300, seed=25)
    s1d, s2d = generate_splits(spec, 150, 150)
    cfg = MekivConfig(alpha_count=8, pair_cap=1000, gd=GdConfig(max_iters=30), seed=1)
    fn, details = mekiv_fit(s1d, s2d, cfg, details=True)
    assert details.recovery.x_hat.shape == (150,)
    assert fn.anchors.shape == (150, 3)
    preds = fn.predict(s2d.x)
    assert preds.shape == (150,)
    assert np.all(np.isfinite(preds))
    single = fn.predict(s2d.x[0])
    assert single == pytest.approx(preds[0])


def test_mekiv_fit_decomposes_its_instrument_once(gram_eigh_sizes):
    # step 1 validates both ridges on one holdout basis; steps 2 and 3 share K_ZZ
    spec = DesignSpec(design="linear", merror_level=0.5, sample_size=240, seed=24)
    s1d, s2d = generate_splits(spec, 120, 120)
    mekiv_fit(s1d, s2d, MekivConfig(alpha_count=8, pair_cap=500, gd=GdConfig(max_iters=5)))
    assert gram_eigh_sizes == [60, 120]


def test_mekiv_fit_on_a_shared_instrument_is_bitwise_its_own_and_rejects_another():
    spec = DesignSpec(design="linear", merror_level=0.5, sample_size=240, seed=24)
    s1d, s2d = generate_splits(spec, 120, 120)
    cfg = MekivConfig(alpha_count=8, pair_cap=500, gd=GdConfig(max_iters=20), seed=3)
    grid = np.linspace(0.05, 0.95, 50)
    shared = Instrument(s1d.z, s2d.z)
    assert np.array_equal(mekiv_fit(s1d, s2d, cfg, instrument=shared).predict(grid),
                          mekiv_fit(s1d, s2d, cfg).predict(grid))
    other = generate_splits(dataclasses.replace(spec, seed=25), 120, 120)
    with pytest.raises(ValueError, match="instrument was not built from the first split's 'z'"):
        mekiv_fit(s1d, s2d, cfg, instrument=Instrument(other[0].z, s2d.z))
    with pytest.raises(ValueError, match="instrument was not built from the second split's 'z'"):
        mekiv_fit(s1d, s2d, cfg, instrument=Instrument(s1d.z, other[1].z))
    with pytest.raises(ValueError, match="instrument was not built from the second split's 'z'"):
        mekiv_fit(s1d, s2d, cfg, instrument=Instrument(s1d.z))
