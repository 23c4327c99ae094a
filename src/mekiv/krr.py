"""Kernel ridge regression machinery for conditional mean embeddings.

A fitted ``CmeSolver`` holds the Cholesky factor of (K_ZZ + s*lam*I) and maps
any query z to the weight vector

    gamma(z) = (K_ZZ + s*lam*I)^{-1} K_Zz

so that sum_j gamma_j(z) k(o_j, .) estimates the conditional mean embedding of
the law of the outputs o given z. ``validate_lambda`` picks the ridge
parameter on a single holdout split using the kernel-trick embedding loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import KernelSpec, as_points, gram

# Additive jitter escalation used whenever an SPD factorization fails.
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

# Default ridge grid, expressed on the s*lambda scale (the additive term on
# the Gram diagonal); divide by the sample size to get absolute lambdas.
DEFAULT_RIDGE_SCALE = np.logspace(-7.0, 0.0, 10)


class NumericalError(RuntimeError):
    """A kernel system could not be factorized or evaluated."""


def default_lambda_grid(s: int) -> np.ndarray:
    return DEFAULT_RIDGE_SCALE / float(s)


def chol_factor_spd(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix with jitter escalation.

    Jitter is relative to the mean diagonal so the ladder works for systems
    far from unit scale.
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


def chol_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((lower, True), rhs)


@dataclass
class CmeSolver:
    """Fitted ridge system for gamma-weight queries. Immutable after fit."""

    train_z: np.ndarray  # (s, dz)
    kernel_z: KernelSpec
    lam: float
    chol: np.ndarray  # lower factor of K_ZZ + s*lam*I (plus any jitter)

    @property
    def size(self) -> int:
        return len(self.train_z)

    def gamma_matrix(self, zq) -> np.ndarray:
        """Gamma weights for a batch of queries, shape (s, n_query)."""
        kzq = gram(self.train_z, zq, self.kernel_z)
        return chol_solve(self.chol, kzq)

    def gamma(self, z) -> np.ndarray:
        """Gamma weights for a single query, shape (s,)."""
        g = self.gamma_matrix(as_points(z, self.kernel_z.dimension))
        if g.shape[1] != 1:
            raise ValueError("gamma expects a single query point")
        return g[:, 0]


def fit(z, kernel_z: KernelSpec, lam: float) -> CmeSolver:
    """Factorize (K_ZZ + s*lam*I) once; each gamma() costs a triangular solve."""
    zp = as_points(z, kernel_z.dimension)
    if len(zp) < 1:
        raise ValueError("need at least one training point")
    if not lam > 0.0:
        raise ValueError(f"ridge parameter must be positive, got {lam}")
    kzz = gram(zp, zp, kernel_z)
    lower = chol_factor_spd(kzz + len(zp) * lam * np.eye(len(zp)))
    return CmeSolver(train_z=zp, kernel_z=kernel_z, lam=float(lam), chol=lower)


@dataclass
class CmeEmbedding:
    """Conditional mean embedding: gamma weights paired with output anchors."""

    solver: CmeSolver
    output_samples: np.ndarray
    kernel_out: KernelSpec

    def __post_init__(self):
        self.output_samples = as_points(self.output_samples, self.kernel_out.dimension)
        if len(self.output_samples) != self.solver.size:
            raise ValueError("output_samples length must match the solver's sample size")

    def embed_eval(self, z, y) -> float:
        """sum_j gamma_j(z) k(o_j, y)."""
        g = self.solver.gamma(z)
        ky = gram(self.output_samples, y, self.kernel_out)
        if ky.shape[1] != 1:
            raise ValueError("embed_eval expects a single evaluation point")
        return float(g @ ky[:, 0])


def embed_eval(emb: CmeEmbedding, z, y) -> float:
    return emb.embed_eval(z, y)


def _holdout_scores(z_tr, z_val, o_tr, o_val, kernel_z, kernel_out, grid):
    """Kernel-trick embedding loss on the holdout, one score per grid lambda.

    Per validation pair: k(o~, o~) - 2 gamma' K_{o,o~} + gamma' K_{oo} gamma,
    summed over the holdout; k(o~, o~) = 1 for the RBF family.
    """
    k_tt = gram(o_tr, o_tr, kernel_out)
    k_tv = gram(o_tr, o_val, kernel_out)
    scores = []
    for lam in grid:
        solver = fit(z_tr, kernel_z, lam)
        g = solver.gamma_matrix(z_val)  # (n_tr, n_val)
        cross = np.sum(g * k_tv)
        quad = np.sum(g * (k_tt @ g))
        scores.append(float(len(o_val) - 2.0 * cross + quad))
    return scores


def validate_lambda(
    z,
    outputs,
    kernel_z: KernelSpec,
    kernel_out: KernelSpec,
    grid,
    split_fraction: float = 0.5,
) -> float:
    """Pick the ridge parameter from ``grid`` on a single deterministic holdout.

    The leading (1 - split_fraction) share of the samples trains the solver,
    the rest scores it. Ties break toward the larger lambda. Raises
    ``NumericalError`` when no grid value gets a finite score.
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not 0.0 < split_fraction < 1.0:
        raise ValueError(f"split_fraction must be in (0, 1), got {split_fraction}")
    zp = as_points(z, kernel_z.dimension)
    op = as_points(outputs, kernel_out.dimension)
    if len(zp) != len(op):
        raise ValueError("z and outputs must have equal lengths")
    if len(zp) < 4:
        raise ValueError(f"need at least 4 samples to validate, got {len(zp)}")
    n_val = int(round(len(zp) * split_fraction))
    n_tr = len(zp) - n_val
    if n_tr < 1 or n_val < 1:
        raise ValueError("degenerate split: empty train or validation part")

    order = np.argsort(grid, kind="stable")
    scores = _holdout_scores(
        zp[:n_tr], zp[n_tr:], op[:n_tr], op[n_tr:], kernel_z, kernel_out, grid[order]
    )
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
