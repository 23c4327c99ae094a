"""Benchmark: timing and quality of mekiv fits and KIV grids.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mekiv-linear --seed 0 --seconds 25 --trace 0

Workloads: ``mekiv-linear``, ``mekiv-demand-mog`` and ``kiv-grid`` (see
README.md). A run sets up (imports, inputs, one small warm-up fit), then
repeats whole rounds of the workload until ``--seconds`` have passed, then
checks the outputs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run also writes its spans to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path

# One BLAS thread: the mekiv-demand-mog answer depends on the BLAS thread count,
# and a second thread does not speed these sizes up (README.md, "Threads").
# Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Data and config seed of every fitted cell. The answers spread far wider
# across seeds than any bound (README.md, "Seeds and inputs"), so they are fixed;
# --seed draws the warm-up inputs and picks the grid cell refitted directly.
CELL_SEED = 0
MEKIV_CELLS = {
    "mekiv-linear": ({"design": "linear", "merror_kind": "gaussian", "merror_level": 2.0}, 500),
    "mekiv-demand-mog": (
        {"design": "demand", "merror_kind": "mog", "merror_level": 1.0, "rho": 0.5},
        300,
    ),
}
GRID_DESIGNS = (
    {"design": "linear", "merror_kind": "gaussian", "merror_level": 2.0},
    {"design": "linear", "merror_kind": "gaussian", "merror_level": 0.0},
    {"design": "sigmoid", "merror_kind": "mog", "merror_level": 1.0},
    {"design": "demand", "merror_kind": "gaussian", "merror_level": 1.0, "rho": 0.5},
)
GRID_METHODS = ("kiv-oracle", "kiv-m", "kiv-mn")
GRID_BASELINE_KIND = {"kiv-oracle": "oracle", "kiv-m": "m-as-x", "kiv-mn": "mn-average"}
GRID_SEEDS = (0, 1)
GRID_N = 1000
WARMUP_N = 100
WARMUP_GD_ITERS = 20
PROBE_CALLS = 15


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mekiv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mekiv from {src}: {exc}")
    if Path(mekiv.__file__).resolve().parent != src / "mekiv":
        sys.exit(f"perfbench: mekiv was imported from {mekiv.__file__}, not from {src}")
    from mekiv import baselines, datagen, estimator, harness

    return baselines, datagen, estimator, harness


baselines, datagen, estimator, harness = _import_program()


def _rms(a) -> float:
    return float(math.sqrt(float((a**2).mean())))


def probe_ms(call, calls: int = PROBE_CALLS) -> float:
    """Median wall time of ``calls`` calls, in milliseconds."""
    times = []
    for _ in range(calls):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


class MekivWorkload:
    """One ``mekiv_fit`` with details, scored by ``harness.mse_out_of_sample``."""

    def __init__(self, name: str, seed: int):
        spec, self.n = MEKIV_CELLS[name]
        self.spec = datagen.DesignSpec(seed=CELL_SEED, **spec)
        self.split1, self.split2 = datagen.generate_splits(self.spec, self.n, self.n)
        self.fn = self.details = self.mse = None

    def run_round(self) -> tuple[int, int, float | None]:
        try:
            fn, details = estimator.mekiv_fit(
                self.split1, self.split2, estimator.MekivConfig(seed=CELL_SEED), details=True
            )
            mse = harness.mse_out_of_sample(
                fn, self.spec.design, self.spec.rho, checks.CURVE_GRID_SIZE, CELL_SEED
            )
        except Exception:  # a failed fit is counted, the run goes on
            traceback.print_exc()
            return 1, 1, None
        self.fn, self.details, self.mse = fn, details, mse
        return 1, 0, mse

    def _truth_and_m(self):
        cd = self.split1.corrupted_dim
        return self.split1.x[:, cd], self.split1.m[:, cd]

    def verify(self) -> list:
        if self.fn is None:
            return [checks.Check("fit_completed", False, "every fit failed")]
        own, preds = checks.own_mse(self.fn, self.spec.design, CELL_SEED)
        x, m = self._truth_and_m()
        return [
            checks.mse_agrees("mse_matches_own_truth", own, self.mse),
            checks.finite("predictions_finite", preds),
            checks.latents_beat_measurement(self.details.x_hat_raw, x, m),
            checks.loss_trace_descends(self.details.recovery.loss_trace),
        ]

    def layer_metrics(self, tracer, rounds: int) -> dict:
        if self.details is None:
            return {}
        rec, pairs = self.details.recovery, self.details.pairs
        log_lam = math.log(rec.lambda_x)
        x, _ = self._truth_and_m()
        return {
            "estimator.pairs_used": len(pairs),
            "estimator.pairs_dropped": rec.dropped_pair_count,
            "estimator.step2_accepted": len(rec.loss_trace) - 1,
            "estimator.step2_final_loss": float(rec.loss_trace[-1]),
            "estimator.step2_latent_rms": _rms(self.details.x_hat_raw - x),
            "estimator.step2_eval_ms": probe_ms(lambda: estimator.step2_loss(rec.x_hat, log_lam, pairs)),
            "estimator.step2_grad_ms": probe_ms(lambda: estimator.step2_grad(rec.x_hat, log_lam, pairs)),
        }


class GridWorkload:
    """``harness.run_experiment`` over the KIV baselines, one process, no pool."""

    def __init__(self, name: str, seed: int):
        designs = [datagen.DesignSpec(**d) for d in GRID_DESIGNS]
        self.config = harness.ExperimentConfig(
            designs=designs,
            methods=list(GRID_METHODS),
            seeds=list(GRID_SEEDS),
            n_stage1=GRID_N,
            n_stage2=GRID_N,
            test_grid_size=checks.CURVE_GRID_SIZE,
            output_dir=str(OUT_DIR / f"kiv-grid-seed{seed}"),
        )
        self.cells = [(d, m, s) for d in designs for m in GRID_METHODS for s in GRID_SEEDS]
        self.refit_cell = self.cells[seed % len(self.cells)]
        self.cell_seconds: list[float] = []

    @property
    def results_path(self) -> Path:
        return Path(self.config.output_dir) / "results.csv"

    def run_round(self) -> tuple[int, int, float | None]:
        try:
            rows = harness.run_experiment(self.config, workers=1)
        except Exception:  # a grid that aborts counts every cell as failed
            traceback.print_exc()
            return len(self.cells), len(self.cells), None
        ok = [r.mse for r in rows if r.status == "ok"]
        self.cell_seconds.append(sum(r.wall_time_seconds for r in rows))
        mse = math.exp(statistics.fmean(math.log(v) for v in ok)) if ok else None
        return len(rows), len(rows) - len(ok), mse

    def verify(self) -> list:
        header, rows = checks.read_results(self.results_path)
        expected = [(d.design, d.merror_kind, float(d.merror_level), d.rho, m, s) for d, m, s in self.cells]
        out = [
            checks.results_layout(header, rows, expected),
            checks.finite("grid_mse_finite", [float(r["mse"] or "nan") for r in rows]),
            checks.zero_noise_equal(rows),
            checks.oracle_beats_m(rows),
        ]
        design, method, seed = self.refit_cell
        split1, split2 = datagen.generate_splits(dataclasses.replace(design, seed=seed), GRID_N, GRID_N)
        fn = baselines.kiv_fit(GRID_BASELINE_KIND[method], split1, split2)
        own, preds = checks.own_mse(fn, design.design, seed)
        program = harness.mse_out_of_sample(fn, design.design, design.rho, checks.CURVE_GRID_SIZE, seed)
        out += [
            checks.finite("refit_predictions_finite", preds),
            checks.mse_agrees("refit_mse_matches_own_truth", own, program),
        ]
        if out[0].ok:  # rows are in canonical order, so the cell's index finds its row
            out.append(checks.refit_matches_row(own, rows[self.cells.index(self.refit_cell)]))
        else:
            out.append(checks.Check("refit_matches_results_row", False, "results.csv layout is wrong"))
        return out

    def layer_metrics(self, tracer, rounds: int) -> dict:
        grid_s = tracer.totals().get("harness.run_experiment", {}).get("s", 0.0)
        return {
            "harness.self_s": (grid_s - sum(self.cell_seconds)) / rounds,
            "harness.results_csv_bytes": self.results_path.stat().st_size,
        }


def round_median(round_seconds: list[float]) -> float:
    """Median round time, without the first round when later rounds ran.

    The first round of a mekiv run is ~8% slower than the later ones (README.md,
    "Allocation churn in step 2"), so counting it would make the figure depend
    on how many rounds fit into ``--seconds``.
    """
    return statistics.median(round_seconds[1:] or round_seconds)


def warm_up(seed: int) -> None:
    """One small mekiv fit and one KIV fit, so that lazy set-up is paid here."""
    spec = datagen.DesignSpec("linear", "gaussian", 1.0, seed=seed)
    split1, split2 = datagen.generate_splits(spec, WARMUP_N, WARMUP_N)
    cfg = estimator.MekivConfig(seed=seed, gd=estimator.GdConfig(max_iters=WARMUP_GD_ITERS))
    harness.mse_out_of_sample(estimator.mekiv_fit(split1, split2, cfg), "linear")
    harness.mse_out_of_sample(baselines.kiv_fit("mn-average", split1, split2), "linear")


def layer_metrics(tracer, rounds: int, names) -> dict:
    """Per-layer metrics per round from the run's spans; layers that did not run read 0."""
    run, setup = tracer.totals("run"), tracer.totals("setup")

    def per_round(span: str, key: str) -> float:
        return run.get(span, {}).get(key, 0) / rounds

    chol_attempts = per_round("krr.cholesky", "calls")
    chol_failed = per_round("krr.cholesky", "failed")
    out = dict.fromkeys(names, 0)
    out.update(
        {
            "estimator.step1_s": per_round("estimator.step1", "s"),
            "estimator.pairs_s": per_round("estimator.pairs", "s"),
            "estimator.step2_s": per_round("estimator.step2", "s"),
            "estimator.step3_s": per_round("estimator.step3", "s"),
            "estimator.step3_calls": per_round("estimator.step3", "calls"),
            "krr.validate_lambda_s": per_round("krr.validate_lambda", "s"),
            "krr.validate_lambda_calls": per_round("krr.validate_lambda", "calls"),
            "krr.fit_s": per_round("krr.fit", "s"),
            "krr.fit_calls": per_round("krr.fit", "calls"),
            "krr.cholesky_s": per_round("krr.cholesky", "s"),
            "krr.cholesky_attempts": chol_attempts,
            "krr.cholesky_failed": chol_failed,
            "krr.cholesky_useful_ratio": (chol_attempts - chol_failed) / chol_attempts if chol_attempts else 0,
            "kernels.gram_s": per_round("kernels.gram", "s"),
            "kernels.gram_calls": per_round("kernels.gram", "calls"),
            "kernels.gram_entries": per_round("kernels.gram", "size"),
            "kernels.median_heuristic_s": per_round("kernels.median_heuristic", "s"),
            "kernels.median_heuristic_calls": per_round("kernels.median_heuristic", "calls"),
            "baselines.kiv_fit_s": per_round("baselines.kiv_fit", "s"),
            "baselines.kiv_fit_calls": per_round("baselines.kiv_fit", "calls"),
            "harness.run_experiment_s": per_round("harness.run_experiment", "s"),
            "harness.mse_out_of_sample_s": per_round("harness.mse_out_of_sample", "s"),
            # Set-up draws the mekiv inputs; the grid draws its own per cell.
            "datagen.generate_splits_s": setup.get("datagen.generate_splits", {}).get("s", 0.0)
            + per_round("datagen.generate_splits", "s"),
        }
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*MEKIV_CELLS, "kiv-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    kind = GridWorkload if args.workload == "kiv-grid" else MekivWorkload
    workload = kind(args.workload, args.seed)  # draws the mekiv inputs
    if tracer:
        tracer.recording = False
    warm_up(args.seed)
    setup_s = time.perf_counter() - T_START

    if tracer:
        tracer.phase, tracer.recording = "run", True
    round_seconds: list[float] = []
    attempted = failed = 0
    mse = None
    start = time.perf_counter()
    while not round_seconds or time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.round = len(round_seconds)
        t = time.perf_counter()
        n_attempted, n_failed, round_mse = workload.run_round()
        round_seconds.append(time.perf_counter() - t)
        attempted += n_attempted
        failed += n_failed
        mse = round_mse if round_mse is not None else mse
    if tracer:
        tracer.recording = False

    results = workload.verify()
    if tracer:
        results.append(checks.spans_cover(tracer.top_level_seconds(), sum(round_seconds)))
        names = [m["name"] for m in contract["per_layer"]]
        values = layer_metrics(tracer, len(round_seconds), names)
        values.update(workload.layer_metrics(tracer, len(round_seconds)))
        values["trace.run_s"] = round_median(round_seconds)
        values["trace.span_coverage"] = tracer.top_level_seconds() / sum(round_seconds)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "run_s": round_median(round_seconds),
            "mse": mse,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}

    print(f"rounds {len(round_seconds)}: " + " ".join(f"{t:.3f}" for t in round_seconds) + " s")
    for check in results:
        print(f"check {check.name}: {'PASS' if check.ok else 'FAIL'} ({check.detail})")
    result = {
        "correct": all(c.ok for c in results) and mse is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
