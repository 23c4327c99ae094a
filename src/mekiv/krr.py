"""Kernel ridge regression machinery for conditional mean embeddings.

A fitted ``CmeSolver`` holds the Cholesky factor of (K_ZZ + s*lam*I) and maps
any query z to the weight vector

    gamma(z) = (K_ZZ + s*lam*I)^{-1} K_Zz

so that sum_j gamma_j(z) k(o_j, .) estimates the conditional mean embedding of
the law of the outputs o given z. ``validate_lambda`` picks the ridge
parameter on a single holdout split using the kernel-trick embedding loss.
It scores the whole grid on one eigensystem K_ZZ = U diag(e) U' of the
training half (``holdout_basis``): there gamma = U diag(1/(e + s*lam)) U' K_Zz,
so each grid value is a diagonal rescale and no value needs a factorization
of its own. The basis depends on the instrument only, so every output set
validated on one instrument shares it. Step 3 of the estimator sweeps its
stage-2 ridge on the eigensystem of the full instrument Gram, cut to the
numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import KernelSpec, as_points, gram

# Additive jitter escalation used whenever an SPD factorization fails.
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

# Share of the samples that ``holdout_basis`` holds out for scoring.
HOLDOUT_FRACTION = 0.5

# Default ridge grid, expressed on the s*lambda scale (the additive term on
# the Gram diagonal); divide by the sample size to get absolute lambdas.
DEFAULT_RIDGE_SCALE = np.logspace(-7.0, 0.0, 10)


class NumericalError(RuntimeError):
    """A kernel system could not be factorized or evaluated."""


def default_lambda_grid(s: int) -> np.ndarray:
    return DEFAULT_RIDGE_SCALE / float(s)


def chol_factor_spd(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix with jitter escalation.

    The ``JITTERS`` ladder is tried in order. Jitter is relative to the mean
    diagonal so the ladder works for systems far from unit scale.
    """
    if not np.all(np.isfinite(mat)):
        raise NumericalError(
            "matrix has non-finite entries; kernel inputs are likely corrupt"
        )
    eye = np.eye(len(mat))
    scale = float(np.mean(np.diag(mat))) or 1.0
    for jit in JITTERS:
        try:
            return scipy.linalg.cholesky(mat + jit * scale * eye if jit else mat, lower=True)
        except scipy.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"Cholesky failed after jitter escalation up to {JITTERS[-1]:g} "
        f"(matrix size {len(mat)})"
    )


def gram_eigh(z, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem (e ascending (s,), U (s, s)) of the Gram matrix of ``z``."""
    kzz = gram(z, z, kernel)
    if not np.all(np.isfinite(kzz)):
        raise NumericalError(
            "matrix has non-finite entries; kernel inputs are likely corrupt"
        )
    return np.linalg.eigh(kzz)


def chol_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((lower, True), rhs)


@dataclass
class CmeSolver:
    """Fitted ridge system for gamma-weight queries. Immutable after fit."""

    train_z: np.ndarray  # (s, dz)
    kernel_z: KernelSpec
    lam: float
    chol: np.ndarray  # lower factor of K_ZZ + s*lam*I (plus any jitter)

    def gamma_matrix(self, zq) -> np.ndarray:
        """Gamma weights for a batch of queries, shape (s, n_query)."""
        kzq = gram(self.train_z, zq, self.kernel_z)
        return chol_solve(self.chol, kzq)


def fit(z, kernel_z: KernelSpec, lam: float) -> CmeSolver:
    """Factorize (K_ZZ + s*lam*I) once; each query costs a triangular solve."""
    zp = as_points(z, kernel_z.dimension)
    if len(zp) < 1:
        raise ValueError("need at least one training point")
    if not lam > 0.0:
        raise ValueError(f"ridge parameter must be positive, got {lam}")
    kzz = gram(zp, zp, kernel_z)
    lower = chol_factor_spd(kzz + len(zp) * lam * np.eye(len(zp)))
    return CmeSolver(train_z=zp, kernel_z=kernel_z, lam=float(lam), chol=lower)


@dataclass(frozen=True)
class HoldoutBasis:
    """Eigensystem of the training half of a holdout split of the instrument.

    The leading ``n_tr`` samples train, the remaining ``n_val`` score; with
    K_ZZ = U diag(e) U' on the training half, B = U' K_{Z, z~} carries the
    validation half. It depends on the instrument alone, so every output set
    validated on the same instrument reuses it (see ``validate_lambda``).
    """

    eigvals: np.ndarray  # (n_tr,) ascending
    eig_u: np.ndarray  # (n_tr, n_tr)
    b_matrix: np.ndarray  # (n_tr, n_val)

    @property
    def n_tr(self) -> int:
        return self.b_matrix.shape[0]

    @property
    def n_val(self) -> int:
        return self.b_matrix.shape[1]


def holdout_basis(z, kernel_z: KernelSpec) -> HoldoutBasis:
    """Split ``z`` into training and validation halves and decompose the first.

    The trailing ``HOLDOUT_FRACTION`` share of the samples is held out; the
    training Gram gets one full eigendecomposition (``gram_eigh``).
    """
    zp = as_points(z, kernel_z.dimension)
    if len(zp) < 4:
        raise ValueError(f"need at least 4 samples to validate, got {len(zp)}")
    n_tr = len(zp) - int(round(len(zp) * HOLDOUT_FRACTION))
    eigvals, eig_u = gram_eigh(zp[:n_tr], kernel_z)
    return HoldoutBasis(eigvals, eig_u, eig_u.T @ gram(zp[:n_tr], zp[n_tr:], kernel_z))


def _holdout_scores(basis: HoldoutBasis, o_tr, o_val, kernel_out, grid):
    """Kernel-trick embedding loss on the holdout, one score per grid lambda.

    Per validation pair: k(o~, o~) - 2 gamma' K_{o,o~} + gamma' K_{oo} gamma,
    summed over the holdout; k(o~, o~) = 1 for the RBF family. On the
    eigensystem K_ZZ = U diag(e) U' of the training half, gamma = U diag(d) B
    with B = U' K_{Z,z~} and d = 1 / (e + n_tr * lam). With P = U' K_{o,o~}
    and O = U' K_{oo} U the summed loss is

        n_val - 2 sum_k d_k sum_j B_kj P_kj + d' (O * B B') d,

    so every lambda costs O(n_tr^2) once the three products are formed.

    The eigensystem is not cut to the numerical rank of K_ZZ: the output
    Gram O is not smooth in that basis, so the rows of B below the rank
    tolerance (up to ~1e-8, amplified by d up to 1 / (n_tr * lam)) carry up
    to ~1e-3 of the score at the low end of the default grid.
    """
    eigvals, eig_u, b = basis.eigvals, basis.eig_u, basis.b_matrix
    cross = np.sum(b * (eig_u.T @ gram(o_tr, o_val, kernel_out)), axis=1)
    quad = (eig_u.T @ gram(o_tr, o_tr, kernel_out) @ eig_u) * (b @ b.T)
    scores = []
    for lam in grid:
        d = 1.0 / (eigvals + basis.n_tr * lam)
        scores.append(float(basis.n_val - 2.0 * (d @ cross) + d @ quad @ d))
    return scores


def validate_lambda(
    basis: HoldoutBasis,
    outputs,
    kernel_out: KernelSpec,
    grid,
) -> float:
    """Pick the ridge parameter from ``grid`` on the holdout split of ``basis``.

    ``outputs`` holds one row per instrument sample the basis was built from,
    in the same order. All grid values are scored on the basis's eigensystem
    (see ``_holdout_scores``). Ties break toward the larger lambda. Raises
    ``NumericalError`` when no grid value gets a finite score.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not np.all(grid > 0.0):
        raise ValueError(f"ridge parameters must be positive, got {grid}")
    op = as_points(outputs, kernel_out.dimension)
    n_tr = basis.n_tr
    if len(op) != n_tr + basis.n_val:
        raise ValueError(
            f"outputs have {len(op)} rows, but the holdout basis was built "
            f"from {n_tr + basis.n_val} instrument samples"
        )

    order = np.argsort(grid, kind="stable")
    scores = _holdout_scores(basis, op[:n_tr], op[n_tr:], kernel_out, grid[order])
    best_lam, best_score = None, np.inf
    for lam, score in zip(grid[order], scores):
        if score <= best_score:  # ascending grid, so <= prefers larger lambda
            best_lam, best_score = float(lam), score
    if not np.isfinite(best_score):
        raise NumericalError(
            f"no finite holdout score on the {grid.size}-value lambda grid; "
            "inputs or outputs likely hold NaN or inf"
        )
    return best_lam
