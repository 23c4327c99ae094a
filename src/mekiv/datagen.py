"""Synthetic benchmark designs with confounding and measurement-error injection.

Three designs:

* ``linear``  -- 1-d treatment on (0, 1), structural function 4x - 2.
* ``sigmoid`` -- same generative law, structural function
  ln(|16x - 8| + 1) * sgn(x - 0.5).
* ``demand``  -- 3-d treatment (price, time, sentiment) with instruments
  (cost shifter, time, sentiment); only the price coordinate is corrupted.

For the 1-d designs the latent treatment is a Gaussian copula of the
instrument and two confounders: with u, v, w iid standard normal,
z = Phi(w), x = Phi((w + 0.8 u + 0.6 v) / sqrt(2)), and the outcome noise is
u + 0.1 * fresh normal, so x and the noise share u (confounding) while
E[noise | z] = 0 (instrument validity).

Measurement errors are additive and independent of everything else; their
standard deviation is ``merror_level`` times the empirical standard deviation
of the generated treatment coordinate. The ``mog`` kind mixes two Gaussians
centred at +/- 2 sd(x) with equal weights (zero mean, strongly bimodal).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

DESIGNS = ("linear", "sigmoid", "demand")
MERROR_KINDS = ("gaussian", "mog")


@dataclass(frozen=True)
class DesignSpec:
    """One synthetic data configuration. ``rho`` is the demand-design
    confounding level and is required exactly there."""

    design: str
    merror_kind: str = "gaussian"
    merror_level: float = 1.0
    sample_size: int = 1000
    seed: int = 0
    rho: float | None = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; expected one of {DESIGNS}")
        if self.merror_kind not in MERROR_KINDS:
            raise ValueError(
                f"unknown merror_kind {self.merror_kind!r}; expected one of {MERROR_KINDS}"
            )
        if self.merror_level < 0.0:
            raise ValueError(f"merror_level must be >= 0, got {self.merror_level}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.design == "demand":
            if self.rho is None or not 0.0 < self.rho < 1.0:
                raise ValueError("demand design requires rho in (0, 1)")
        elif self.rho is not None:
            raise ValueError("rho is only meaningful for the demand design")


@dataclass
class Dataset:
    """Generated records: instruments, true treatment, two corrupted copies,
    outcome. ``corrupted_dim`` names the single noisy treatment coordinate."""

    spec: DesignSpec
    z: np.ndarray  # (n, dz)
    x: np.ndarray  # (n, dx)
    m: np.ndarray  # (n, dx)
    n: np.ndarray  # (n, dx)
    y: np.ndarray  # (n,)
    corrupted_dim: int = 0

    def __len__(self) -> int:
        return len(self.y)

    def split(self, n1: int) -> tuple["Dataset", "Dataset"]:
        """First ``n1`` records and the remainder, as two disjoint datasets."""
        if not 0 < n1 < len(self):
            raise ValueError(f"split point {n1} outside (0, {len(self)})")

        def part(sl):
            return Dataset(
                spec=self.spec,
                z=self.z[sl],
                x=self.x[sl],
                m=self.m[sl],
                n=self.n[sl],
                y=self.y[sl],
                corrupted_dim=self.corrupted_dim,
            )

        return part(slice(None, n1)), part(slice(n1, None))


def linear_truth(x):
    return 4.0 * np.asarray(x, dtype=float) - 2.0


def sigmoid_truth(x):
    x = np.asarray(x, dtype=float)
    return np.log(np.abs(16.0 * x - 8.0) + 1.0) * np.sign(x - 0.5)


def demand_psi(t):
    t = np.asarray(t, dtype=float)
    return 2.0 * ((t - 5.0) ** 4 / 600.0 + np.exp(-4.0 * (t - 5.0) ** 2) + t / 10.0 - 2.0)


def demand_truth(p, t, s):
    p = np.asarray(p, dtype=float)
    return 100.0 + (10.0 + p) * np.asarray(s, dtype=float) * demand_psi(t) - 2.0 * p


def structural_truth(design: str, x):
    """Exact structural function value(s) at treatment point(s) ``x``."""
    pts = np.asarray(x, dtype=float)
    if design == "linear":
        return linear_truth(pts if pts.ndim <= 1 else pts[:, 0])
    if design == "sigmoid":
        return sigmoid_truth(pts if pts.ndim <= 1 else pts[:, 0])
    if design == "demand":
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("demand design expects (p, t, s) treatment points")
        vals = demand_truth(pts[:, 0], pts[:, 1], pts[:, 2])
        return float(vals[0]) if single else vals
    raise ValueError(f"unknown design {design!r}")


def apply_merror(x, kind: str, level: float, sigma_x: float, rng: np.random.Generator):
    """Draw two independent corrupted copies of a 1-d treatment coordinate.

    gaussian: dM, dN ~ N(0, (level * sigma_x)^2).
    mog:      dM, dN ~ (1/2) N(-2 sigma_x, (level sigma_x)^2)
                     + (1/2) N(+2 sigma_x, (level sigma_x)^2).
    """
    if kind not in MERROR_KINDS:
        raise ValueError(f"unknown merror kind {kind!r}")
    if level < 0.0:
        raise ValueError(f"merror level must be >= 0, got {level}")
    if sigma_x <= 0.0:
        raise ValueError(f"sigma_x must be positive, got {sigma_x}")
    xv = np.asarray(x, dtype=float).ravel()
    sd = level * sigma_x

    def draw():
        noise = rng.normal(0.0, sd, size=xv.size)
        if kind == "mog":
            signs = 2.0 * rng.integers(0, 2, size=xv.size) - 1.0
            noise = noise + 2.0 * sigma_x * signs
        return noise

    return xv + draw(), xv + draw()


def _gen_curve_design(spec: DesignSpec, truth) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    n = spec.sample_size
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    z = ndtr(w)
    x = ndtr((w + 0.8 * u + 0.6 * v) / np.sqrt(2.0))
    eps = u + 0.1 * rng.standard_normal(n)
    y = truth(x) + eps
    sigma_x = float(np.std(x))
    m, ncol = apply_merror(x, spec.merror_kind, spec.merror_level, sigma_x, rng)
    return Dataset(
        spec=spec,
        z=z[:, None],
        x=x[:, None],
        m=m[:, None],
        n=ncol[:, None],
        y=y,
    )


def demand_draw(rng: np.random.Generator, count: int):
    """Sentiment s, time t, cost shifter c and demand shock v, drawn in this
    order, and the price p they give. v confounds price and outcome."""
    s_col = rng.integers(1, 8, size=count).astype(float)
    t = rng.uniform(0.0, 10.0, size=count)
    c = rng.standard_normal(count)
    v = rng.standard_normal(count)
    p = 25.0 + (c + 3.0) * demand_psi(t) + v
    return s_col, t, c, v, p


def _gen_demand(spec: DesignSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    n = spec.sample_size
    s_col, t, c, v, p = demand_draw(rng, n)
    e = spec.rho * v + np.sqrt(1.0 - spec.rho**2) * rng.standard_normal(n)
    y = demand_truth(p, t, s_col) + e
    sigma_p = float(np.std(p))
    m_p, n_p = apply_merror(p, spec.merror_kind, spec.merror_level, sigma_p, rng)
    x = np.column_stack([p, t, s_col])
    m = x.copy()
    m[:, 0] = m_p
    nn = x.copy()
    nn[:, 0] = n_p
    return Dataset(
        spec=spec,
        z=np.column_stack([c, t, s_col]),
        x=x,
        m=m,
        n=nn,
        y=y,
    )


def generate(spec: DesignSpec) -> Dataset:
    """Generate ``spec.sample_size`` records; bit-reproducible per (spec, seed)."""
    if spec.design == "linear":
        return _gen_curve_design(spec, linear_truth)
    if spec.design == "sigmoid":
        return _gen_curve_design(spec, sigmoid_truth)
    return _gen_demand(spec)


def generate_splits(spec: DesignSpec, n_stage1: int, n_stage2: int):
    """Two disjoint splits drawn in one pass from a single seed."""
    full = generate(dataclasses.replace(spec, sample_size=n_stage1 + n_stage2))
    return full.split(n_stage1)


def _header(ds: Dataset) -> list[str]:
    cols = []
    for name, arr in (("z", ds.z), ("x", ds.x), ("m", ds.m), ("n", ds.n)):
        cols.extend(f"{name}_{d}" for d in range(arr.shape[1]))
    cols.append("y")
    return cols


def save_dataset(ds: Dataset, csv_path, json_path=None) -> None:
    """Write the record CSV (shortest round-trip decimals, LF endings) and the
    design sidecar JSON next to it."""
    csv_path = Path(csv_path)
    json_path = Path(json_path) if json_path else csv_path.with_suffix(".json")
    mat = np.column_stack([ds.z, ds.x, ds.m, ds.n, ds.y])
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(ds))
        for row in mat:
            writer.writerow([repr(float(v)) for v in row])
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(ds.spec), fh, indent=2)
        fh.write("\n")


def load_dataset(csv_path, json_path=None) -> Dataset:
    """Read a ``save_dataset`` CSV. A malformed file raises ``ValueError``
    naming the file, the line and, for a bad value, the column."""
    csv_path = Path(csv_path)
    json_path = Path(json_path) if json_path else csv_path.with_suffix(".json")
    with open(json_path, encoding="utf-8") as fh:
        spec = DesignSpec(**json.load(fh))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        records = list(reader)
    if "y" not in header:
        raise ValueError(f"{csv_path}:1: the header has no 'y' column")
    if not records:
        raise ValueError(f"{csv_path}: no data rows after the header")
    rows = np.empty((len(records), len(header)))
    for i, record in enumerate(records):
        where = f"{csv_path}:{i + 2}"  # file line; line 1 is the header
        if len(record) != len(header):
            raise ValueError(f"{where}: {len(record)} fields, the header has {len(header)}")
        for j, cell in enumerate(record):
            try:
                rows[i, j] = float(cell)
            except ValueError:
                rows[i, j] = np.nan
            if not np.isfinite(rows[i, j]):
                raise ValueError(f"{where}: column '{header[j]}' is {cell!r}, not a finite number")

    def block(name):
        cols = [i for i, h in enumerate(header) if h.startswith(f"{name}_")]
        return rows[:, cols]

    return Dataset(
        spec=spec,
        z=block("z"),
        x=block("x"),
        m=block("m"),
        n=block("n"),
        y=rows[:, header.index("y")],
    )
