import numpy as np
import pytest

from mekiv import krr
from mekiv.kernels import KernelSpec, gram, median_heuristic


def test_fit_single_point_closed_form():
    for lam in (0.1, 1.0, 5.0):
        solver = krr.fit([0.5], KernelSpec([1.0]), lam)
        assert solver.gamma([0.5]) == pytest.approx([1.0 / (1.0 + lam)], rel=1e-12)


def test_gamma_vanishes_in_heavy_ridge_limit():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(15, 1))
    solver = krr.fit(z, KernelSpec([1.0]), 1e12)
    assert np.abs(solver.gamma_matrix(z)).max() < 1e-10


def test_two_distant_points_explicit_inverse():
    ell = 1.0
    lam = 1e-3
    z = np.array([[0.0], [12.0]])  # k(z1, z2) = exp(-72) < 1e-6
    solver = krr.fit(z, KernelSpec([ell]), lam)
    g = solver.gamma([0.0])
    assert abs(g[0] - 1.0 / (1.0 + 2.0 * lam)) < 1e-3
    assert abs(g[1]) < 1e-3


def test_solve_correctness_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = rng.integers(2, 21)
        z = rng.normal(size=(s, 2))
        spec = KernelSpec([1.0, 1.5])
        lam = 10.0 ** rng.uniform(-6, 0)
        solver = krr.fit(z, spec, lam)
        zq = rng.normal(size=(3, 2))
        g = solver.gamma_matrix(zq)
        kq = gram(z, zq, spec)
        lhs = (gram(z, z, spec) + s * lam * np.eye(s)) @ g
        assert np.linalg.norm(lhs - kq) <= 1e-8 * np.linalg.norm(kq)


def test_interpolation_limit_recovers_basis_vectors():
    z = np.linspace(0.0, 7.0, 8)[:, None]
    solver = krr.fit(z, KernelSpec([0.5]), 1e-10)
    for j in range(8):
        g = solver.gamma(z[j])
        expected = np.zeros(8)
        expected[j] = 1.0
        assert np.abs(g - expected).max() < 1e-3


def test_gamma_is_continuous_in_the_query():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(20, 1))
    solver = krr.fit(z, KernelSpec([1.0]), 1e-3)
    base = solver.gamma([0.3])
    for h in (1e-3, 1e-5, 1e-7):
        assert np.linalg.norm(solver.gamma([0.3 + h]) - base) < 10 * h


def test_clustered_sample_gives_uniform_weights():
    # With all z essentially equal, K_ZZ ~ ones and gamma(z) ~ 1/(s(1+lam)).
    rng = np.random.default_rng(3)
    s, lam = 25, 0.7
    z = 0.5 + rng.normal(size=(s, 1)) * 1e-9
    solver = krr.fit(z, KernelSpec([1.0]), lam)
    g = solver.gamma([0.5])
    assert np.allclose(g, 1.0 / (s * (1.0 + lam)), rtol=1e-6)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        krr.fit([0.1, 0.2], KernelSpec([1.0]), 0.0)
    with pytest.raises(krr.NumericalError):
        krr.fit([0.1, np.nan], KernelSpec([1.0]), 0.1)


def test_embedding_single_anchor_and_limits():
    # the embedding of one output anchor o = 1.3, evaluated at y: gamma(0)' k(o, y)
    kernel = KernelSpec([1.0])

    def embed(solver, y):
        return float(solver.gamma([0.0]) @ gram([1.3], [y], kernel)[:, 0])

    lam = 0.4
    solver = krr.fit([0.0], kernel, lam)
    expected = gram([1.3], [0.2], kernel)[0, 0] / (1.0 + lam)
    assert embed(solver, 0.2) == pytest.approx(expected, rel=1e-12)
    # far query decays to zero
    assert abs(embed(solver, 40.0)) < 1e-12
    assert abs(embed(krr.fit([0.0], kernel, 1e12), 1.3)) < 1e-10


def _brute_force_scores(z, out, kernel_z, kernel_out, grid, split_fraction=0.5):
    # independent re-derivation of the holdout embedding loss, element by element
    s = len(z)
    n_val = int(round(s * split_fraction))
    n_tr = s - n_val
    scores = []
    for lam in grid:
        solver = krr.fit(z[:n_tr], kernel_z, lam)
        total = 0.0
        for i in range(n_val):
            g = solver.gamma(z[n_tr + i])
            total += 1.0
            total -= 2.0 * sum(
                g[j] * gram([out[j]], [out[n_tr + i]], kernel_out)[0, 0] for j in range(n_tr)
            )
            for j in range(n_tr):
                for l in range(n_tr):
                    total += (
                        g[j] * g[l] * gram([out[j]], [out[l]], kernel_out)[0, 0]
                    )
        scores.append(total)
    return scores


def test_validate_lambda_noiseless_picks_grid_minimum():
    rng = np.random.default_rng(5)
    z = np.sort(rng.uniform(-2, 2, size=50))
    kernel = KernelSpec([1.0])
    grid = np.logspace(-7, 0, 6) / len(z)
    best = krr.validate_lambda(krr.holdout_basis(z, kernel), z, kernel, grid)
    assert best == pytest.approx(grid[0])
    scores = _brute_force_scores(z[:, None], z, kernel, kernel, grid)
    assert int(np.argmin(scores)) == 0


def test_validate_lambda_pure_noise_picks_grid_maximum():
    rng = np.random.default_rng(6)
    z = rng.uniform(-2, 2, size=60)
    out = rng.normal(size=60)  # independent of z
    kernel = KernelSpec([1.0])
    grid = np.logspace(-7, 0, 6) / len(z)
    best = krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, grid)
    assert best == pytest.approx(grid[-1])


def test_validate_lambda_single_grid_and_errors():
    rng = np.random.default_rng(7)
    z = rng.normal(size=10)
    out = rng.normal(size=10)
    kernel = KernelSpec([1.0])
    assert krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, [0.3]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, [])
    with pytest.raises(ValueError):
        krr.validate_lambda(krr.holdout_basis(z[:3], kernel), out[:3], kernel, [0.1])
    with pytest.raises(ValueError, match="built from 10 instrument samples"):
        krr.validate_lambda(krr.holdout_basis(z, kernel), out[:9], kernel, [0.1])


def test_validate_lambda_matches_brute_force_argmin():
    rng = np.random.default_rng(8)
    z = rng.normal(size=16)
    out = np.sin(z) + 0.3 * rng.normal(size=16)
    kernel = KernelSpec([1.0])
    grid = np.logspace(-5, 0, 5) / len(z)
    best = krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, grid)
    scores = _brute_force_scores(z[:, None], out, kernel, kernel, grid)
    assert best == pytest.approx(grid[int(np.argmin(scores))])


def test_chol_factor_spd_follows_the_given_jitter_ladder():
    singular = np.ones((3, 3))
    assert np.all(np.isfinite(krr.chol_factor_spd(singular)))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1: no jitter on the ladder helps
    with pytest.raises(krr.NumericalError, match="up to 1e-06"):
        krr.chol_factor_spd(indefinite)
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(krr.chol_factor_spd(spd), np.linalg.cholesky(spd))
    # the unjittered try fails on a singular matrix; the ladder's next step, 1e-10, succeeds
    jittered = krr.chol_factor_spd(np.ones((2, 2)))
    assert np.allclose(jittered @ jittered.T, np.ones((2, 2)) + 1e-10 * np.eye(2), rtol=0, atol=1e-15)


def test_validate_lambda_raises_when_no_score_is_finite():
    rng = np.random.default_rng(9)
    z = rng.normal(size=20)
    out = rng.normal(size=20)
    out[3] = np.inf  # in the training half: every holdout score is NaN
    kernel = KernelSpec([1.0])
    with pytest.raises(krr.NumericalError, match="no finite holdout score"):
        krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, np.logspace(-5, 0, 4) / len(z))


def _cholesky_holdout_scores(z_tr, z_val, o_tr, o_val, kernel_z, kernel_out, grid):
    # the per-lambda path the eigensystem replaced: one Cholesky solve per grid value
    k_tt = gram(o_tr, o_tr, kernel_out)
    k_tv = gram(o_tr, o_val, kernel_out)
    scores = []
    for lam in grid:
        g = krr.fit(z_tr, kernel_z, lam).gamma_matrix(z_val)
        scores.append(float(len(o_val) - 2.0 * np.sum(g * k_tv) + np.sum(g * (k_tt @ g))))
    return np.array(scores)


def _lowest_score_lambda(grid, scores):
    # validate_lambda's rule: ascending grid, ties toward the larger lambda
    order = np.argsort(grid, kind="stable")
    best = min(range(len(order)), key=lambda i: (scores[order[i]], -i))
    return grid[order[best]]


@pytest.mark.parametrize("dz, seed", [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1)])
def test_holdout_scores_match_the_cholesky_reference(dz, seed):
    # Both paths are backward stable, so they can differ by the ridge system's
    # condition number times eps; past that the bound is 1e-8 relative. The
    # 3-d instrument gives a K_ZZ of full numerical rank, the 1-d one does not.
    rng = np.random.default_rng(seed)
    n, n_tr = 200, 100
    z = rng.normal(size=(n, dz))
    out = np.column_stack([z.sum(axis=1) + rng.normal(size=n), np.sin(z[:, 0]) + 0.5 * rng.normal(size=n)])
    kernel_z = KernelSpec(median_heuristic(z))
    kernel_out = KernelSpec(median_heuristic(out))
    grid = krr.default_lambda_grid(n)
    parts = (z[:n_tr], z[n_tr:], out[:n_tr], out[n_tr:], kernel_z, kernel_out, grid)
    ref = _cholesky_holdout_scores(*parts)
    basis = krr.holdout_basis(z, kernel_z)
    new = np.array(krr._holdout_scores(basis, out[:n_tr], out[n_tr:], kernel_out, grid))
    eigvals = np.linalg.eigvalsh(gram(z[:n_tr], z[:n_tr], kernel_z))
    assert (dz == 3) == (eigvals[0] > eigvals[-1] * n_tr * np.finfo(float).eps)
    cond = (eigvals[-1] + n_tr * grid) / (n_tr * grid)
    assert np.all(np.abs(new - ref) <= (1e-8 + cond * np.finfo(float).eps) * np.abs(ref))
    chosen = krr.validate_lambda(basis, out, kernel_out, grid)
    assert chosen == _lowest_score_lambda(grid, ref)


@pytest.mark.parametrize("grid_size", [3, 10])
def test_validate_lambda_makes_one_eigendecomposition_and_no_cholesky(decompositions, grid_size):
    rng = np.random.default_rng(10)
    z = rng.normal(size=80)
    out = np.sin(z) + 0.3 * rng.normal(size=80)
    kernel = KernelSpec([1.0])
    krr.validate_lambda(krr.holdout_basis(z, kernel), out, kernel, np.logspace(-7, 0, grid_size) / 80)
    assert decompositions == {"cholesky": 0, "eigh": 1}
