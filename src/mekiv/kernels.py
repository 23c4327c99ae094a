"""Translation-invariant RBF kernels, Gram matrices, bandwidth selection and
sampling from the kernel's spectral measure.

The kernel family is fixed to the Gaussian RBF

    k(x, y) = exp(-sum_d (x_d - y_d)^2 / (2 * l_d^2))

with one lengthscale l_d per input dimension. A product of 1-d RBF kernels is
the same thing as a multi-dimensional RBF with per-dimension lengthscales, so
joint/product kernels are expressed by concatenating dimensions.

By Bochner's theorem the RBF kernel is the Fourier transform of a Gaussian
spectral density; since k(0) = 1 the spectral measure is a probability
density, namely N(0, 1/l_d^2) per dimension. ``SpectralSampler`` draws from
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist


@dataclass(frozen=True)
class KernelSpec:
    """Immutable RBF kernel description: one positive lengthscale per dimension."""

    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float)).copy()
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError(f"lengthscales must be strictly positive and finite, got {ls}")
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)

    @property
    def dimension(self) -> int:
        return int(self.lengthscales.size)


def as_points(a, dim: int) -> np.ndarray:
    """Coerce ``a`` to an (n, dim) array of points.

    1-d input is read as a list of scalar points when ``dim == 1`` and as a
    single point otherwise. Raises ``ValueError`` on any shape that cannot be
    reconciled with ``dim``.
    """
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(
            f"expected points of dimension {dim}, got array of shape {np.shape(a)}"
        )
    return pts


def gram(a, b, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix with entry (j, l) = k(a_j, b_l), shape (|a|, |b|)."""
    pa = as_points(a, spec.dimension) / spec.lengthscales
    pb = as_points(b, spec.dimension) / spec.lengthscales
    out = cdist(pa, pb, metric="sqeuclidean")
    out *= -0.5  # in place, so the peak is one (|a|, |b|) buffer, not two
    np.exp(out, out=out)
    return out


def median_heuristic(samples) -> np.ndarray:
    """Per-dimension median of nonzero pairwise absolute differences.

    Falls back to 1.0 in any dimension where all samples coincide. Needs at
    least two samples.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("median_heuristic needs at least 2 samples")
    out = np.ones(pts.shape[1])
    for d in range(pts.shape[1]):
        gaps = pdist(pts[:, d : d + 1], metric="cityblock")
        gaps = gaps[gaps > 0.0]
        if gaps.size:
            out[d] = float(np.median(gaps))
    return out


class SpectralSampler:
    """Draws from the normalized spectral density of an RBF kernel.

    For lengthscale l_d the draws are N(0, 1/l_d^2) per dimension. Holds
    mutable rng state: use one instance per worker.
    """

    def __init__(self, kernel: KernelSpec, rng: np.random.Generator):
        self.kernel = kernel
        self.rng = rng

    def sample(self, count: int) -> np.ndarray:
        """``count`` i.i.d. draws, shape (count, dimension)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        scale = 1.0 / self.kernel.lengthscales
        return self.rng.normal(0.0, scale, size=(count, self.kernel.dimension))


@dataclass
class Standardizer:
    """Per-dimension affine map to zero mean / unit variance.

    ``scale`` falls back to 1.0 in constant dimensions so degenerate inputs
    (e.g. a constant outcome) stay finite.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, samples) -> "Standardizer":
        pts = np.asarray(samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        mean = pts.mean(axis=0)
        scale = pts.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, a) -> np.ndarray:
        return (np.asarray(a, dtype=float) - self.mean) / self.scale

    def inverse(self, a) -> np.ndarray:
        return np.asarray(a, dtype=float) * self.scale + self.mean
