"""Empirical characteristic functions of conditional laws and their derivatives.

Weighted anchor samples (gamma weights from kernel ridge regression, 1-d
anchors) define an empirical characteristic function

    psi(alpha) = sum_j gamma_j exp(i alpha a_j)

together with its alpha-derivative and, for joint (m, n) anchor pairs, the
partial derivative in the auxiliary frequency at zero. ``ratio_grid`` is the
one implementation of the ratio statistics w_MN / w_X of the latent-sample
recovery objective, over an (alpha, column) grid: the step-2 labels come from
it and ``w_mn`` / ``w_x`` are its scalar views. ``estimator._Step2Eval`` is
its factored real-block fast path for w_X, pinned to ``w_x`` by a test. The
two squared distances at the bottom realize both sides of the
CME <-> characteristic-function duality: the Monte-Carlo L2(q) distance
between empirical cfs and the closed-form RKHS distance between the
corresponding embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram

# Below this denominator modulus a ratio is treated as degenerate.
EPS_DENOM = 1e-8


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


def ratio_grid(alphas, anchors, companions, gamma_num, gamma_den):
    """w[a, j] = sum_k c_k Gnum[k, j] e^{i alpha_a t_k} / sum_k Gden[k, j] e^{i alpha_a t_k}.

    Anchors t and companions c are (s,) arrays, the weights Gnum and Gden
    (s, J) arrays. Returns ``(w, degenerate)``, both (A, J); w is 0 where
    ``degenerate`` flags |den| < ``EPS_DENOM``.
    """
    # keep these layouts: a mekiv fit on bimodal error is chaotic in their summation order
    phases = np.exp(1j * np.outer(anchors, alphas))  # (s, A)
    den = phases.T @ gamma_den.astype(complex)  # (A, J)
    num = (phases * companions[:, None]).T @ gamma_num.astype(complex)
    degenerate = np.abs(den) < EPS_DENOM
    w = np.where(degenerate, 0.0 + 0.0j, num / np.where(degenerate, 1.0, den))
    return w, degenerate


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
