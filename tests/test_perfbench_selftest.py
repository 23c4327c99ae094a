"""``perfbench/selftest.py`` calls the package the way the benchmark does:
``GdConfig(max_iters=)``, ``mse_out_of_sample`` with positional arguments,
``details.x_hat_raw``, ``ExperimentConfig`` and ``run_experiment(workers=1)``.
Running it here makes a change that breaks one of these calls fail the test
suite, not first the benchmark. It writes only under ``perfbench/out/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_finds_no_wrong_check():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 0 wrong" in proc.stdout
