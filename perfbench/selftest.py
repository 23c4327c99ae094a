"""Shows that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Builds small real outputs (a short mekiv fit, one KIV fit per design and a
small KIV grid, all at n1 = n2 = 100 or 200), runs each check on them, where it
must pass, and on a perturbed copy (a shifted prediction, a NaN, a worse
latent vector, a rising loss trace, an edited results file, an untraced gap),
where it must fail. Prints one line per case; exits 1 if any check passes on
its perturbed input or fails on the real one. Takes about ten seconds.
"""

import dataclasses
import sys
import time

import numpy as np

import checks
import run
import tracing
from run import baselines, datagen, estimator, harness

N_SMALL = 100
N_GRID = 200


class Shifted:
    """A fitted function whose predictions are moved by ``delta``."""

    def __init__(self, fn, delta: float):
        self.fn, self.delta = fn, delta

    def predict(self, x):
        return np.asarray(self.fn.predict(x)) + self.delta


def _split(design: str, level: float):
    rho = 0.5 if design == "demand" else None
    spec = datagen.DesignSpec(design, "gaussian", level, rho=rho, seed=0)
    return datagen.generate_splits(spec, N_SMALL, N_SMALL)


def _program_mse(fn, design: str) -> float:
    rho = 0.5 if design == "demand" else None
    return harness.mse_out_of_sample(fn, design, rho, checks.CURVE_GRID_SIZE, 0)


def cases():
    """Yield (label, check on the real output, check on the perturbed output)."""
    for design in ("linear", "sigmoid", "demand"):
        fn = baselines.kiv_fit("mn-average", *_split(design, 1.0))
        program = _program_mse(fn, design)
        yield (
            f"mse_matches_own_truth[{design}] / prediction + 1e-3",
            checks.mse_agrees("mse", checks.own_mse(fn, design, 0)[0], program),
            checks.mse_agrees("mse", checks.own_mse(Shifted(fn, 1e-3), design, 0)[0], program),
        )

    split1, split2 = _split("linear", 1.0)
    cfg = estimator.MekivConfig(gd=estimator.GdConfig(max_iters=40))
    fn, details = estimator.mekiv_fit(split1, split2, cfg, details=True)
    _, preds = checks.own_mse(fn, "linear", 0)
    bad_preds = preds.copy()
    bad_preds[7] = np.nan
    yield "predictions_finite / one NaN", checks.finite("p", preds), checks.finite("p", bad_preds)

    x, m = split1.x[:, 0], split1.m[:, 0]
    worse = x + 1.5 * (m - x)
    yield (
        "latent_rms_below_m / x + 1.5 (m - x)",
        checks.latents_beat_measurement(details.x_hat_raw, x, m),
        checks.latents_beat_measurement(worse, x, m),
    )

    trace = details.recovery.loss_trace
    rising = trace.copy()
    k = len(rising) // 2
    rising[k] = rising[k - 1] * 1.01
    yield "loss_trace_descends / one rise", checks.loss_trace_descends(trace), checks.loss_trace_descends(rising)
    flat = np.full(3, trace[0])
    yield "loss_trace_descends / flat", checks.loss_trace_descends(trace), checks.loss_trace_descends(flat)

    yield from grid_cases()

    yield (
        "trace_spans_cover_run / an untraced fit",
        traced_kiv_fits(split1, split2, untraced=0),
        traced_kiv_fits(split1, split2, untraced=1),
    )


def traced_kiv_fits(split1, split2, untraced: int):
    """Coverage check of one traced KIV fit followed by ``untraced`` more."""
    tracer = tracing.Tracer()
    tracer.install()
    tracer.phase = "run"
    try:
        t = time.perf_counter()
        baselines.kiv_fit("oracle", split1, split2)
        tracer.recording = False
        for _ in range(untraced):
            baselines.kiv_fit("oracle", split1, split2)
        return checks.spans_cover(tracer.top_level_seconds(), time.perf_counter() - t)
    finally:
        tracer.uninstall()


def grid_cases():
    designs = [
        datagen.DesignSpec("linear", "gaussian", 2.0),
        datagen.DesignSpec("linear", "gaussian", 0.0),
    ]
    methods = list(run.GRID_METHODS)
    config = harness.ExperimentConfig(
        designs=designs,
        methods=methods,
        seeds=[0],
        n_stage1=N_GRID,
        n_stage2=N_GRID,
        output_dir=str(run.OUT_DIR / "selftest"),
    )
    harness.run_experiment(config, workers=1)
    path = run.OUT_DIR / "selftest" / "results.csv"
    header, rows = checks.read_results(path)
    expected = [(d.design, d.merror_kind, float(d.merror_level), d.rho, m, 0) for d in designs for m in methods]

    def edited(change):
        copy = [dict(r) for r in rows]
        change(copy)
        return copy

    def swap(rs):
        rs[0], rs[1] = rs[1], rs[0]

    def error(rs):
        rs[2]["status"] = "error:NumericalError"

    def drop(rs):
        del rs[-1]

    real_layout = checks.results_layout(header, rows, expected)
    yield "results_csv_layout / rows swapped", real_layout, checks.results_layout(header, edited(swap), expected)
    yield "results_csv_layout / error row", real_layout, checks.results_layout(header, edited(error), expected)
    yield "results_csv_layout / row missing", real_layout, checks.results_layout(header, edited(drop), expected)
    yield (
        "results_csv_layout / header changed",
        real_layout,
        checks.results_layout(header.replace("status", "state"), rows, expected),
    )

    def nudge_level0_m(rs):
        row = next(r for r in rs if r["method"] == "kiv-m" and float(r["merror_level"]) == 0.0)
        row["mse"] = repr(np.nextafter(float(row["mse"]), np.inf))

    yield (
        "zero_noise_m_equals_oracle / kiv-m mse + 1 ulp",
        checks.zero_noise_equal(rows),
        checks.zero_noise_equal(edited(nudge_level0_m)),
    )

    def oracle_loses(rs):
        m_row = next(r for r in rs if r["method"] == "kiv-m" and float(r["merror_level"]) == 2.0)
        oracle = next(r for r in rs if r["method"] == "kiv-oracle" and float(r["merror_level"]) == 2.0)
        oracle["mse"] = repr(2.0 * float(m_row["mse"]))

    yield "oracle_beats_m_when_noisy / oracle mse x2 of kiv-m", checks.oracle_beats_m(rows), checks.oracle_beats_m(
        edited(oracle_loses)
    )

    design = designs[0]
    split1, split2 = datagen.generate_splits(dataclasses.replace(design, seed=0), N_GRID, N_GRID)
    fn = baselines.kiv_fit("m-as-x", split1, split2)
    row = rows[methods.index("kiv-m")]
    yield (
        "refit_matches_results_row / prediction + 1e-3",
        checks.refit_matches_row(checks.own_mse(fn, "linear", 0)[0], row),
        checks.refit_matches_row(checks.own_mse(Shifted(fn, 1e-3), "linear", 0)[0], row),
    )


def main() -> int:
    wrong = 0
    for label, real, perturbed in cases():
        good = real.ok and not perturbed.ok
        wrong += not good
        print(
            f"{'ok   ' if good else 'WRONG'} {label}: real {'PASS' if real.ok else 'FAIL'}, "
            f"perturbed {'PASS' if perturbed.ok else 'FAIL'} ({perturbed.detail})"
        )
    print(f"selftest: {wrong} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
