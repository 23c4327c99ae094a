"""Benchmark execution across the method x design x error grid.

The unit of work is one dataset, a (design, seed) pair: it generates the
stage-1/stage-2 splits once, builds their ``Instrument`` once, fits every
method on them, releases the instrument, and then scores each fit by its
out-of-sample MSE against the known structural function. Failures never
abort the sweep: they become error rows, for one cell or, when the dataset
itself fails, for all of its cells. Rows are appended to the results CSV as
datasets complete and the file is rewritten in the canonical
(design, method, seed) order at the end, so the persisted output is
deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import kiv_fit
from .datagen import DesignSpec, demand_draw, demand_truth, generate_splits, structural_truth
from .estimator import GdConfig, Instrument, MekivConfig, mekiv_fit

METHODS = ("mekiv", "kiv-oracle", "kiv-m", "kiv-mn")
_BASELINE_KIND = {"kiv-oracle": "oracle", "kiv-m": "m-as-x", "kiv-mn": "mn-average"}

RESULTS_COLUMNS = (
    "design",
    "method",
    "merror_kind",
    "merror_level",
    "rho",
    "seed",
    "mse",
    "log10_mse",
    "wall_time_seconds",
    "dropped_pairs",
    "status",
)
RESULTS_HEADER = ",".join(RESULTS_COLUMNS)

# Columns that define one summary group in ``report`` and ``write_report``.
GROUP_BY = ("design", "method", "merror_kind", "merror_level", "rho")

DEMAND_MSE_DRAWS = 2500


@dataclass
class ExperimentConfig:
    """Benchmark grid settings; JSON config files mirror these field names.

    ``lambda_grid`` entries are on the additive s*lambda scale (divided by
    the stage-1 size at fit time); ``xi_grid`` entries are absolute.
    """

    designs: list[DesignSpec]
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    n_stage1: int = 500
    n_stage2: int = 500
    test_grid_size: int = 400
    lambda_grid: list[float] | None = None
    xi_grid: list[float] | None = None
    alpha_count: int = 64
    pair_cap: int | None = 20_000
    optimizer: GdConfig = field(default_factory=GdConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if not self.designs or not self.methods or not self.seeds:
            raise ValueError("designs, methods, and seeds must all be nonempty")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["designs"] = [DesignSpec(**d) for d in raw["designs"]]
        if "optimizer" in raw and isinstance(raw["optimizer"], dict):
            raw["optimizer"] = GdConfig(**raw["optimizer"])
        return cls(**raw)

    def to_json(self, path) -> None:
        raw = dataclasses.asdict(self)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2)
            fh.write("\n")


@dataclass
class ResultRow:
    design: str
    method: str
    merror_kind: str
    merror_level: float
    rho: float | None
    seed: int
    mse: float | None
    log10_mse: float | None
    wall_time_seconds: float
    dropped_pairs: int | None
    status: str

    def to_csv_fields(self) -> list[str]:
        def fmt(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)

        return [
            self.design,
            self.method,
            self.merror_kind,
            fmt(float(self.merror_level)),
            fmt(self.rho if self.rho is None else float(self.rho)),
            str(self.seed),
            fmt(self.mse),
            fmt(self.log10_mse),
            fmt(float(self.wall_time_seconds)),
            fmt(self.dropped_pairs),
            self.status,
        ]


def mse_out_of_sample(
    fn,
    design: str,
    rho: float | None = None,
    test_grid_size: int = 400,
    mc_seed: int = 0,
) -> float:
    """MSE against the true structural function.

    Curve designs use an even grid on [0.05, 0.95] (central support); the
    demand design uses a fresh seeded Monte-Carlo draw from the treatment
    marginal.
    """
    if design in ("linear", "sigmoid"):
        grid = np.linspace(0.05, 0.95, test_grid_size)
        truth = structural_truth(design, grid)
        preds = np.asarray(fn.predict(grid), dtype=float)
    elif design == "demand":
        s_col, t, _, _, p = demand_draw(np.random.default_rng([mc_seed, 202]), DEMAND_MSE_DRAWS)
        truth = demand_truth(p, t, s_col)
        preds = np.asarray(fn.predict(np.column_stack([p, t, s_col])), dtype=float)
    else:
        raise ValueError(f"unknown design {design!r}")
    return float(np.mean((preds - truth) ** 2))


def _row(
    design: DesignSpec,
    method: str,
    seed: int,
    seconds: float,
    mse: float | None = None,
    dropped: int | None = None,
    error: Exception | None = None,
) -> ResultRow:
    """The results row of one cell: ``ok`` with its ``mse``, or ``error:<Type>``."""
    return ResultRow(
        design=design.design,
        method=method,
        merror_kind=design.merror_kind,
        merror_level=design.merror_level,
        rho=design.rho,
        seed=seed,
        mse=mse,
        log10_mse=None if mse is None else float(np.log10(max(mse, 1e-300))),
        wall_time_seconds=seconds,
        dropped_pairs=dropped,
        status="ok" if error is None else f"error:{type(error).__name__}",
    )


def _run_dataset(config: ExperimentConfig, design: DesignSpec, seed: int) -> list[ResultRow]:
    """Rows of every configured method on the dataset ``(design, seed)``, in
    ``config.methods`` order.

    All fits share one ``Instrument``, which is released before the fits are
    scored. A row's ``wall_time_seconds`` is its own fit plus its own score;
    the dataset's shared set-up (splits and instrument) is charged to the
    first method. When the set-up fails, every method gets its error row.
    """
    start = time.perf_counter()
    try:
        split1, split2 = generate_splits(
            dataclasses.replace(design, seed=seed), config.n_stage1, config.n_stage2
        )
        instrument = Instrument(split1.z, split2.z)
    except Exception as exc:  # failures isolate per dataset
        seconds = [time.perf_counter() - start] + [0.0] * (len(config.methods) - 1)
        return [_row(design, m, seed, t, error=exc) for m, t in zip(config.methods, seconds)]
    lam_grid = (
        np.asarray(config.lambda_grid, dtype=float) / config.n_stage1
        if config.lambda_grid is not None
        else None
    )
    xi_grid = np.asarray(config.xi_grid, dtype=float) if config.xi_grid is not None else None

    fits = []  # (fn or exception, dropped pairs, fit seconds) per method
    for method in config.methods:
        dropped = None
        try:
            if method == "mekiv":
                cfg = MekivConfig(
                    alpha_count=config.alpha_count,
                    pair_cap=config.pair_cap,
                    lambda_grid=lam_grid,
                    xi_grid=xi_grid,
                    gd=config.optimizer,
                    seed=seed,
                )
                fn, details = mekiv_fit(split1, split2, cfg, details=True, instrument=instrument)
                dropped = details.recovery.dropped_pair_count
                del details  # its training pairs hold the instrument's eigensystem
            else:
                kind = _BASELINE_KIND[method]
                fn = kiv_fit(kind, split1, split2, lam_grid, xi_grid, instrument)
        except Exception as exc:  # failures isolate per cell
            fn = exc
        now = time.perf_counter()
        fits.append((fn, dropped, now - start))
        start = now
    del instrument, split1, split2

    rows = []
    for method, (fn, dropped, seconds) in zip(config.methods, fits):
        start = time.perf_counter()
        mse, error = None, fn if isinstance(fn, Exception) else None
        if error is None:
            try:
                mse = mse_out_of_sample(fn, design.design, design.rho, config.test_grid_size, seed)
            except Exception as exc:  # failures isolate per cell
                error = exc
        seconds += time.perf_counter() - start
        rows.append(_row(design, method, seed, seconds, mse, dropped, error))
    return rows


def _worker_count() -> int:
    env = os.environ.get("MEKIV_WORKERS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"MEKIV_WORKERS must be an integer, got {env!r}") from None


def write_results_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_fields())


def read_results_csv(path) -> list[ResultRow]:
    def opt_float(v):
        return float(v) if v != "" else None

    def opt_int(v):
        return int(v) if v != "" else None

    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                ResultRow(
                    design=rec["design"],
                    method=rec["method"],
                    merror_kind=rec["merror_kind"],
                    merror_level=float(rec["merror_level"]),
                    rho=opt_float(rec["rho"]),
                    seed=int(rec["seed"]),
                    mse=opt_float(rec["mse"]),
                    log10_mse=opt_float(rec["log10_mse"]),
                    wall_time_seconds=float(rec["wall_time_seconds"]),
                    dropped_pairs=opt_int(rec["dropped_pairs"]),
                    status=rec["status"],
                )
            )
    return rows


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[ResultRow]:
    """Run the full grid; returns rows in canonical (design, method, seed) order.

    Datasets run one after another, or in ``workers`` processes (default:
    ``MEKIV_WORKERS``), never more than there are datasets. Their rows are
    appended to ``<output_dir>/results.csv`` as datasets complete, then the
    file is rewritten in canonical order when the sweep finishes. A dataset
    whose worker fails, a crash included, gets error rows.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    workers = workers if workers is not None else _worker_count()

    datasets = [(design, seed) for design in config.designs for seed in config.seeds]
    n_methods, n_seeds = len(config.methods), len(config.seeds)
    rows: dict[int, ResultRow] = {}
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)

        def record(idx: int, dataset_rows: list[ResultRow]) -> None:
            # dataset idx = (design, seed) holds cells (design, method, seed)
            d, s = divmod(idx, n_seeds)
            for mi, row in enumerate(dataset_rows):
                rows[(d * n_methods + mi) * n_seeds + s] = row
                writer.writerow(row.to_csv_fields())
            fh.flush()

        if workers <= 1:
            for idx, (design, seed) in enumerate(datasets):
                record(idx, _run_dataset(config, design, seed))
        else:
            # The pool starts all max_workers processes at the first submit.
            with ProcessPoolExecutor(max_workers=min(workers, len(datasets))) as pool:
                futures = {
                    pool.submit(_run_dataset, config, design, seed): idx
                    for idx, (design, seed) in enumerate(datasets)
                }
                for fut in as_completed(futures):
                    idx = futures[fut]
                    try:
                        dataset_rows = fut.result()
                    except Exception as exc:  # a crashed worker: BrokenProcessPool
                        design, seed = datasets[idx]
                        dataset_rows = [_row(design, m, seed, 0.0, error=exc) for m in config.methods]
                    record(idx, dataset_rows)

    ordered = [rows[idx] for idx in range(len(datasets) * n_methods)]
    write_results_csv(ordered, results_path)
    return ordered


def report(rows) -> list[dict]:
    """Per-group median / mean / IQR of log10 MSE over the ok rows."""
    rows = list(rows)
    if not rows:
        raise ValueError("no result rows to report on")
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row.status != "ok" or row.log10_mse is None:
            continue
        groups.setdefault(tuple(getattr(row, k) for k in GROUP_BY), []).append(row.log10_mse)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        vals = np.asarray(groups[key])
        q25, q75 = np.percentile(vals, [25.0, 75.0])
        rec = dict(zip(GROUP_BY, key))
        rec.update(
            n=len(vals),
            median_log10_mse=float(np.median(vals)),
            mean_log10_mse=float(np.mean(vals)),
            iqr_log10_mse=float(q75 - q25),
        )
        out.append(rec)
    return out


def write_report(rows, out_dir):
    """Emit summary.csv (aggregates) and long.csv (one row per seed, plot-ready)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = report(rows)
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(GROUP_BY) + ["n", "median_log10_mse", "mean_log10_mse", "iqr_log10_mse"]
        writer.writerow(header)
        for rec in summary:
            writer.writerow(["" if rec[h] is None else rec[h] for h in header])
    long_path = out_dir / "long.csv"
    with open(long_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(GROUP_BY) + ["seed", "mse", "log10_mse"]
        writer.writerow(header)
        for row in rows:
            if row.status != "ok":
                continue
            writer.writerow(
                ["" if getattr(row, h) is None else getattr(row, h) for h in GROUP_BY]
                + [row.seed, repr(row.mse), repr(row.log10_mse)]
            )
    return summary_path, long_path
