"""Two-stage kernel-IV baselines differing only in the treatment proxy.

Three proxies: the ground-truth treatment (oracle), the first corrupted
measurement M, and the noise-averaged (M+N)/2. All three run the exact same
stage-2 code path as the full estimator so that benchmark differences isolate
the proxy choice.
"""

from __future__ import annotations

import numpy as np

from . import krr
from .estimator import DEFAULT_XI_GRID, StructuralFn, require_finite, step3
from .kernels import KernelSpec, Standardizer, median_heuristic

BASELINE_KINDS = ("oracle", "m-as-x", "mn-average")


def _proxy(kind: str, split) -> np.ndarray:
    def col(name):
        val = getattr(split, name, None)
        if val is None:
            raise ValueError(f"baseline '{kind}' needs column '{name}' in the data split")
        arr = np.asarray(val, dtype=float)
        require_finite("first split", **{name: arr})
        return arr[:, None] if arr.ndim == 1 else arr

    if kind == "oracle":
        return col("x")
    if kind == "m-as-x":
        return col("m")
    if kind == "mn-average":
        return 0.5 * (col("m") + col("n"))
    raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")


def kiv_fit(kind: str, split1, split2, lambda_grid=None, xi_grid=None) -> StructuralFn:
    """Standard two-stage kernel-IV fit with the chosen treatment proxy.

    Stage 1 validates the ridge parameter on a holdout of (z, proxy) pairs;
    stage 2 is shared with the measurement-error estimator.
    """
    x1 = _proxy(kind, split1)
    z1 = np.asarray(split1.z, dtype=float)
    y1 = np.asarray(split1.y, dtype=float).ravel()
    z2 = np.asarray(split2.z, dtype=float)
    y2 = np.asarray(split2.y, dtype=float).ravel()
    if len(z2) == 0 or len(y2) == 0:
        raise ValueError("second split is empty")
    require_finite("first split", z=z1, y=y1)
    require_finite("second split", z=z2, y=y2)

    z_scaler = Standardizer.fit(z1)
    z1s = z_scaler.transform(z1)
    z2s = z_scaler.transform(z2)
    x_scaler = Standardizer.fit(x1)
    x1s = x_scaler.transform(x1)

    kernel_z = KernelSpec(median_heuristic(z1s))
    kernel_x = KernelSpec(median_heuristic(x1s))
    if lambda_grid is None:
        lambda_grid = krr.default_lambda_grid(len(z1s))
    lam = krr.validate_lambda(z1s, x1s, kernel_z, kernel_x, lambda_grid)

    xi_grid = xi_grid if xi_grid is not None else DEFAULT_XI_GRID
    return step3(x1s, lam, z1s, y1, z2s, y2, xi_grid, kernel_z, x_scaler)
