"""Reference code that the tests compare the package against.

None of it runs in a fit. Weighted anchor samples (gamma weights from kernel
ridge regression, 1-d anchors) define an empirical characteristic function

    psi(alpha) = sum_j gamma_j exp(i alpha a_j)

together with its alpha-derivative and, for joint (m, n) anchor pairs, the
partial derivative in the auxiliary frequency at zero (``EmpiricalCF``).
``w_mn`` and ``w_x`` are scalar views of ``estimator.ratio_grid``, the ratio
statistics that the fit's step-2 labels come from, so the tests of these
views test the code a fit runs. The two squared distances realize both sides
of the CME <-> characteristic-function duality: the Monte-Carlo L2(q)
distance between empirical cfs and the closed-form RKHS distance between the
corresponding embeddings. ``rbf_eval`` is the kernel at one pair of points,
``gamma`` the stage-1 weights of one query and ``moment_checks`` the
exogeneity diagnostics of a generated dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mekiv.datagen import Dataset, structural_truth
from mekiv.estimator import ratio_grid
from mekiv.kernels import KernelSpec, as_points, gram
from mekiv.krr import CmeSolver


class DegenerateRatioError(ValueError):
    """Raised when a ratio statistic's denominator is numerically zero."""

    def __init__(self, message: str, alpha=None):
        super().__init__(message)
        self.alpha = alpha


@dataclass
class EmpiricalCF:
    """gamma-weighted empirical characteristic function over 1-d anchors.

    ``companions`` carries the paired first-measurement anchors m_j for the
    joint case; it is required only by ``joint_partial``.
    """

    weights: np.ndarray
    anchors: np.ndarray
    companions: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.anchors = np.asarray(self.anchors, dtype=float).ravel()
        if self.weights.shape != self.anchors.shape:
            raise ValueError("weights and anchors must have equal lengths")
        if self.companions is not None:
            self.companions = np.asarray(self.companions, dtype=float).ravel()
            if self.companions.shape != self.anchors.shape:
                raise ValueError("companions must match the anchors in length")

    def _phases(self, alpha):
        return np.exp(1j * np.multiply.outer(np.asarray(alpha, dtype=float), self.anchors))

    def ecf(self, alpha):
        """sum_j gamma_j e^{i alpha a_j}; vectorized over alpha."""
        return self._phases(alpha) @ self.weights.astype(complex)

    def ecf_dalpha(self, alpha):
        """d/d_alpha of ``ecf``: sum_j i a_j gamma_j e^{i alpha a_j}."""
        return self._phases(alpha) @ (1j * self.anchors * self.weights)

    def joint_partial(self, alpha):
        """Auxiliary-frequency partial at zero: sum_j i m_j gamma_j e^{i alpha n_j}."""
        if self.companions is None:
            raise ValueError("joint_partial requires companion anchors")
        return self._phases(alpha) @ (1j * self.companions * self.weights)

    __call__ = ecf


def w_mn(m, n, gamma_mn, gamma_n, alpha: float) -> complex:
    """Ratio sum_j m_j g^MN_j e^{i a n_j} / sum_j g^N_j e^{i a n_j}.

    ``ratio_grid`` at one alpha and one column: raises
    ``DegenerateRatioError`` where that grid flags the entry.
    """
    w, degenerate = ratio_grid([alpha], np.ravel(n), np.ravel(m),
                               np.reshape(gamma_mn, (-1, 1)), np.reshape(gamma_n, (-1, 1)))
    if degenerate[0, 0]:
        raise DegenerateRatioError(f"degenerate cf denominator at alpha={alpha!r}", alpha=alpha)
    return complex(w[0, 0])


def w_x(x, gamma_x, alpha: float) -> complex:
    """Ratio sum_j x_j g_j e^{i a x_j} / sum_j g_j e^{i a x_j}.

    Equals E[X e^{i a X} | z] / E[e^{i a X} | z] when the weights are the
    CME weights for z (the leading i of the derivative cancels with the i in
    the log-derivative identity).
    """
    return w_mn(x, x, gamma_x, gamma_x, alpha)


def l2q_distance_sq(cf1, cf2, alpha_samples) -> float:
    """Monte-Carlo squared L2(q) distance between two cf evaluators.

    ``alpha_samples`` must be drawn from the kernel's spectral measure; the
    estimate is the sample mean of |cf1(a) - cf2(a)|^2.
    """
    alphas = np.asarray(alpha_samples, dtype=float).ravel()
    if alphas.size == 0:
        raise ValueError("alpha_samples must be nonempty")
    diff = np.asarray(cf1(alphas)) - np.asarray(cf2(alphas))
    return float(np.mean(np.abs(diff) ** 2))


def rkhs_distance_sq(w1, a1, w2, a2, kernel: KernelSpec) -> float:
    """Closed-form squared RKHS distance between two weighted embeddings.

    ||mu1 - mu2||^2 = w1'K11 w1 - 2 w1'K12 w2 + w2'K22 w2. Nonnegative up to
    ~1e-10 numerical slack.
    """
    w1 = np.asarray(w1, dtype=float).ravel()
    w2 = np.asarray(w2, dtype=float).ravel()
    k11 = gram(a1, a1, kernel)
    k12 = gram(a1, a2, kernel)
    k22 = gram(a2, a2, kernel)
    return float(w1 @ k11 @ w1 - 2.0 * (w1 @ k12 @ w2) + w2 @ k22 @ w2)


def rbf_eval(x, y, spec: KernelSpec) -> float:
    """Evaluate k(x, y) for two single points. Symmetric, k(x, x) = 1."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != (spec.dimension,) or yv.shape != (spec.dimension,):
        raise ValueError(
            f"point dimension mismatch: kernel is {spec.dimension}-d, "
            f"got shapes {np.shape(x)} and {np.shape(y)}"
        )
    t = (xv - yv) / spec.lengthscales
    return float(np.exp(-0.5 * np.dot(t, t)))


def gamma(solver: CmeSolver, z) -> np.ndarray:
    """Gamma weights of ``solver`` for a single query, shape (s,)."""
    g = solver.gamma_matrix(as_points(z, solver.kernel_z.dimension))
    if g.shape[1] != 1:
        raise ValueError("gamma expects a single query point")
    return g[:, 0]


def moment_checks(ds: Dataset) -> dict:
    """Exogeneity diagnostics: measurement-error and instrument moment checks.

    Returns absolute sample correlations |corr(dM, dN)|, |corr(dN, x)|,
    |corr(eps, dN)| and the largest |mean(eps)| over instrument quantile
    bins.
    """
    cd = ds.corrupted_dim
    x = ds.x[:, cd]
    dm = ds.m[:, cd] - x
    dn = ds.n[:, cd] - x
    eps = ds.y - structural_truth(ds.spec.design, ds.x)

    def abscorr(a, b):
        if np.std(a) == 0.0 or np.std(b) == 0.0:
            return 0.0
        return float(abs(np.corrcoef(a, b)[0, 1]))

    zc = ds.z[:, 0]
    n_bins = 10
    edges = np.quantile(zc, np.linspace(0.0, 1.0, n_bins + 1))
    idx = np.clip(np.searchsorted(edges, zc, side="right") - 1, 0, n_bins - 1)
    bin_means = [abs(float(np.mean(eps[idx == b]))) for b in range(n_bins) if np.any(idx == b)]
    return {
        "corr_dm_dn": abscorr(dm, dn),
        "corr_dn_x": abscorr(dn, x),
        "corr_eps_dn": abscorr(eps, dn),
        "max_binned_eps_mean": max(bin_means),
    }
