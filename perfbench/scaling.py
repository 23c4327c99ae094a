"""Per-stage times of one mekiv fit at several sample sizes.

    python3 perfbench/scaling.py

Fits the mekiv-linear cell (linear design, gaussian error at level 2.0,
seed 0) at n1 = n2 in 250, 500 and 1000 with one BLAS thread, after run.py's
warm-up fit, and prints a markdown table of the stage times taken from the
tracer's spans, next to one ``eigh`` of the s x s instrument Gram matrix
(O(s^3), once per fit) and one step-2 objective evaluation and gradient
(O(A s^2), about two thousand per fit). The n = 1000 fit takes a few minutes.
"""

import math
import sys

import numpy as np

import run
import tracing
from run import datagen, estimator, harness

from mekiv.kernels import gram

COLUMNS = (
    "n1 = n2",
    "step1_s",
    "pairs_s",
    "step2_s",
    "step3_s",
    "fit_s",
    "eigh_ms",
    "step2_eval_ms",
    "step2_grad_ms",
    "step2_accepted",
    "mse",
)
SIZES = (250, 500, 1000)  # n1 = n2


def measure(n: int) -> list:
    spec, _ = run.MEKIV_CELLS["mekiv-linear"]
    design = datagen.DesignSpec(seed=run.CELL_SEED, **spec)
    split1, split2 = datagen.generate_splits(design, n, n)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.phase = "run"
    try:
        fn, details = estimator.mekiv_fit(
            split1, split2, estimator.MekivConfig(seed=run.CELL_SEED), details=True
        )
    finally:
        tracer.uninstall()
    tot = tracer.totals()
    rec, pairs, stage1 = details.recovery, details.pairs, details.stage1
    kzz = gram(stage1.z, stage1.z, stage1.kernel_z)
    log_lam = math.log(rec.lambda_x)
    mse = harness.mse_out_of_sample(fn, design.design, None, run.checks.CURVE_GRID_SIZE, run.CELL_SEED)
    return [
        n,
        tot["estimator.step1"]["s"],
        tot["estimator.pairs"]["s"],
        tot["estimator.step2"]["s"],
        tot["estimator.step3"]["s"],
        tot["estimator.mekiv_fit"]["s"],
        run.probe_ms(lambda: np.linalg.eigh(kzz), 5),
        run.probe_ms(lambda: estimator.step2_loss(rec.x_hat, log_lam, pairs)),
        run.probe_ms(lambda: estimator.step2_grad(rec.x_hat, log_lam, pairs)),
        len(rec.loss_trace) - 1,
        mse,
    ]


def main() -> int:
    run.warm_up(0)
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for n in SIZES:
        row = measure(n)
        print("| " + " | ".join(f"{v:.4g}" if isinstance(v, float) else str(v) for v in row) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
