"""Two-stage kernel-IV baselines differing only in the treatment proxy.

Three proxies: the ground-truth treatment (oracle), the first corrupted
measurement M, and the noise-averaged (M+N)/2. All three run the exact same
stage-2 code path as the full estimator so that benchmark differences isolate
the proxy choice.
"""

from __future__ import annotations

import numpy as np

from . import krr
from .estimator import (
    DEFAULT_XI_GRID,
    Instrument,
    StructuralFn,
    instrument_for,
    require_finite,
    require_rows,
    step3,
)
from .kernels import KernelSpec, Standardizer, median_heuristic

BASELINE_KINDS = ("oracle", "m-as-x", "mn-average")


def _proxy(kind: str, split, z: np.ndarray) -> np.ndarray:
    def col(name):
        val = getattr(split, name, None)
        if val is None:
            raise ValueError(f"baseline '{kind}' needs column '{name}' in the data split")
        arr = np.asarray(val, dtype=float)
        require_rows("first split", z=z, **{name: arr})
        require_finite("first split", **{name: arr})
        return arr[:, None] if arr.ndim == 1 else arr

    if kind == "oracle":
        return col("x")
    if kind == "m-as-x":
        return col("m")
    if kind == "mn-average":
        return 0.5 * (col("m") + col("n"))
    raise ValueError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")


def kiv_fit(
    kind: str,
    split1,
    split2,
    lambda_grid=None,
    xi_grid=None,
    instrument: Instrument | None = None,
) -> StructuralFn:
    """Standard two-stage kernel-IV fit with the chosen treatment proxy.

    Stage 1 validates the ridge parameter on a holdout of (z, proxy) pairs;
    stage 2 is shared with the measurement-error estimator. Both read one
    ``Instrument`` of the two splits' ``z``: the one passed, which must have
    been built from them, or one built here.
    """
    instrument = instrument_for(split1.z, split2.z, instrument)
    x1 = _proxy(kind, split1, instrument.z1)
    y1 = np.asarray(split1.y, dtype=float).ravel()
    y2 = np.asarray(split2.y, dtype=float).ravel()
    require_rows("first split", z=instrument.z1, y=y1)
    require_rows("second split", z=instrument.z2, y=y2)
    require_finite("first split", y=y1)
    require_finite("second split", y=y2)

    x_scaler = Standardizer.fit(x1)
    x1s = x_scaler.transform(x1)
    kernel_x = KernelSpec(median_heuristic(x1s))
    if lambda_grid is None:
        lambda_grid = krr.default_lambda_grid(len(instrument.z1))
    lam = krr.validate_lambda(instrument.holdout, x1s, kernel_x, lambda_grid)

    xi_grid = xi_grid if xi_grid is not None else DEFAULT_XI_GRID
    return step3(x1s, lam, instrument, y1, y2, xi_grid, kernel_x, x_scaler)
