"""Correctness checks on the benchmark's outputs.

Each check compares an output of the program with a computation made here,
apart from the program, or with a property the method must have. None
compares with a stored copy of an earlier output. The structural truths, the
test points and the results-file layout below are written out again on
purpose, from the design definitions, so that a change to the program's own
copies shows up as a failed check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

CURVE_GRID_SIZE = 400
DEMAND_DRAWS = 2500
RESULTS_HEADER = (
    "design,method,merror_kind,merror_level,rho,seed,mse,log10_mse,"
    "wall_time_seconds,dropped_pairs,status"
)
MSE_RTOL = 1e-9
COVERAGE_MIN = 0.99
NOISY_LEVEL = 1.0  # from this error level on, kiv-oracle must beat kiv-m


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _demand_psi(t):
    return 2.0 * ((t - 5.0) ** 4 / 600.0 + np.exp(-4.0 * (t - 5.0) ** 2) + t / 10.0 - 2.0)


def reference_points(design: str, mc_seed: int):
    """Test points and the closed-form structural function on them.

    Curve designs: an even grid on [0.05, 0.95]. Demand: a seeded draw of
    (price, time, sentiment) from the design's treatment marginal.
    """
    if design == "linear":
        x = np.linspace(0.05, 0.95, CURVE_GRID_SIZE)
        return x, 4.0 * x - 2.0
    if design == "sigmoid":
        x = np.linspace(0.05, 0.95, CURVE_GRID_SIZE)
        return x, np.log(np.abs(16.0 * x - 8.0) + 1.0) * np.sign(x - 0.5)
    if design == "demand":
        rng = np.random.default_rng([mc_seed, 202])
        s = rng.integers(1, 8, size=DEMAND_DRAWS).astype(float)
        t = rng.uniform(0.0, 10.0, size=DEMAND_DRAWS)
        c = rng.standard_normal(DEMAND_DRAWS)
        v = rng.standard_normal(DEMAND_DRAWS)
        p = 25.0 + (c + 3.0) * _demand_psi(t) + v
        return np.column_stack([p, t, s]), 100.0 + (10.0 + p) * s * _demand_psi(t) - 2.0 * p
    raise ValueError(f"no closed-form truth for design {design!r}")


def own_mse(fn, design: str, mc_seed: int):
    """MSE of ``fn`` against the closed-form truth, and the predictions."""
    points, truth = reference_points(design, mc_seed)
    preds = np.asarray(fn.predict(points), dtype=float)
    return float(np.mean((preds - truth) ** 2)), preds


def mse_agrees(name: str, own: float, program: float) -> Check:
    gap = abs(own - program) / max(abs(own), 1e-300)
    return Check(name, bool(gap <= MSE_RTOL), f"own {own!r} program {program!r} rel gap {gap:.2e}")


def finite(name: str, values) -> Check:
    values = np.asarray(values, dtype=float)
    bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
    return Check(name, bad == 0 and values.size > 0, f"{bad} non-finite of {values.size}")


def latents_beat_measurement(x_hat, x, m) -> Check:
    """Recovered latents must sit closer to the true treatment than M does."""
    rms_hat = float(np.sqrt(np.mean((np.asarray(x_hat) - x) ** 2)))
    rms_m = float(np.sqrt(np.mean((np.asarray(m) - x) ** 2)))
    return Check("latent_rms_below_m", rms_hat < rms_m, f"rms(x_hat-x) {rms_hat:.4g}, rms(m-x) {rms_m:.4g}")


def loss_trace_descends(trace) -> Check:
    trace = np.asarray(trace, dtype=float)
    rises = int(np.sum(~(np.diff(trace) <= 0.0)))
    ok = trace.size >= 2 and rises == 0 and trace[-1] < trace[0]
    return Check(
        "loss_trace_descends",
        bool(ok),
        f"{trace.size} entries, {rises} rises, {trace[0]:.6g} -> {trace[-1]:.6g}",
    )


def read_results(path) -> tuple[str, list[dict]]:
    """Header line and rows of a results CSV, parsed here with ``csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        fh.seek(0)
        return header, list(csv.DictReader(fh))


def results_layout(header: str, rows: list[dict], expected: list[tuple]) -> Check:
    """Fixed header, one row per cell, canonical order, ``ok`` everywhere.

    ``expected`` lists (design, merror_kind, merror_level, rho, method, seed)
    in canonical order.
    """
    if header != RESULTS_HEADER:
        return Check("results_csv_layout", False, f"header {header!r}")
    got = [
        (
            r["design"],
            r["merror_kind"],
            float(r["merror_level"]),
            float(r["rho"]) if r["rho"] else None,
            r["method"],
            int(r["seed"]),
        )
        for r in rows
    ]
    if got != expected:
        return Check("results_csv_layout", False, f"{len(got)} rows, order or cells differ from the {len(expected)} expected")
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    return Check("results_csv_layout", not bad, f"{len(rows)} rows, statuses not ok: {bad}")


def _oracle_m_pairs(rows: list[dict], keep_level) -> list[tuple[dict, dict]]:
    """(kiv-oracle row, kiv-m row) of every cell whose error level passes ``keep_level``."""
    cells = {(r["design"], r["merror_kind"], r["merror_level"], r["rho"], r["seed"], r["method"]): r for r in rows}
    return [
        (row, cells[k[:5] + ("kiv-m",)])
        for k, row in cells.items()
        if k[5] == "kiv-oracle" and keep_level(float(k[2])) and k[:5] + ("kiv-m",) in cells
    ]


def zero_noise_equal(rows: list[dict]) -> Check:
    """With no measurement error M = X, so kiv-m and kiv-oracle must agree exactly."""
    pairs = _oracle_m_pairs(rows, lambda level: level == 0.0)
    unequal = [(o["design"], o["seed"]) for o, m in pairs if o["mse"] != m["mse"]]
    ok = bool(pairs) and not unequal
    return Check("zero_noise_m_equals_oracle", ok, f"{len(pairs)} pairs, unequal: {unequal}")


def oracle_beats_m(rows: list[dict]) -> Check:
    """At error level >= ``NOISY_LEVEL`` the true treatment must give a lower MSE."""
    pairs = [
        (float(o["mse"]), float(m["mse"]))
        for o, m in _oracle_m_pairs(rows, lambda level: level >= NOISY_LEVEL)
    ]
    losses = sum(1 for oracle, m in pairs if not oracle < m)
    worst = min((m / oracle for oracle, m in pairs), default=math.nan)
    ok = bool(pairs) and losses == 0
    return Check("oracle_beats_m_when_noisy", ok, f"{len(pairs)} pairs, {losses} lost, smallest m/oracle {worst:.3g}")


def refit_matches_row(own: float, row: dict) -> Check:
    return mse_agrees("refit_matches_results_row", own, float(row["mse"]))


def spans_cover(top_level_s: float, wall_s: float) -> Check:
    """The top-level spans of a traced run must account for its wall clock."""
    coverage = top_level_s / wall_s
    return Check("trace_spans_cover_run", coverage >= COVERAGE_MIN, f"coverage {coverage:.5f}")
