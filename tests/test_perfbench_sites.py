"""The traced benchmark run wraps public names of the package by their
attribute names (``perfbench/tracing.py`` ``SITES``). A refactor that drops or
renames one of them must fail here, not first in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_site_and_uninstalls_cleanly():
    tracing = _load_tracing()

    def current():
        return {
            (mod, attr): getattr(importlib.import_module(f"mekiv.{mod}"), attr)
            for mod, attr, _ in tracing.SITES
        }

    krr = importlib.import_module("mekiv.krr")
    before, scipy_before = current(), krr.scipy
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = current()
        assert all(during[key] is not before[key] for key in before)
        assert krr.scipy is not scipy_before
    finally:
        tracer.uninstall()
    after = current()
    assert all(after[key] is before[key] for key in before)
    assert krr.scipy is scipy_before
