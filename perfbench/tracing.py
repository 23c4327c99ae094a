"""In-memory span tracing of mekiv's layers, installed from outside the package.

``Tracer.install`` replaces public functions where they are looked up. A name
that one module imports from another with ``from ... import`` is wrapped in the
importing module (``estimator.gram``, ``baselines.step3``, ``harness.kiv_fit``),
and ``scipy.linalg.cholesky`` is wrapped as ``krr`` sees it, through a view of
``scipy`` that only ``krr`` holds. Spans stay in memory; ``write`` saves them
as JSON when the run ends. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module of mekiv, attribute looked up there, span name). Several sites can
# share one span name: the same function reached through another module.
SITES = (
    ("datagen", "generate_splits", "datagen.generate_splits"),
    ("harness", "generate_splits", "datagen.generate_splits"),
    ("estimator", "mekiv_fit", "estimator.mekiv_fit"),
    ("estimator", "step1", "estimator.step1"),
    ("estimator", "make_training_pairs", "estimator.pairs"),
    ("estimator", "optimize_latents", "estimator.step2"),
    ("estimator", "step3", "estimator.step3"),
    ("baselines", "step3", "estimator.step3"),
    ("estimator", "gram", "kernels.gram"),
    ("krr", "gram", "kernels.gram"),
    ("estimator", "median_heuristic", "kernels.median_heuristic"),
    ("baselines", "median_heuristic", "kernels.median_heuristic"),
    ("krr", "validate_lambda", "krr.validate_lambda"),
    ("krr", "fit", "krr.fit"),
    ("baselines", "kiv_fit", "baselines.kiv_fit"),
    ("harness", "kiv_fit", "baselines.kiv_fit"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "mse_out_of_sample", "harness.mse_out_of_sample"),
)


# Spans whose result's size is recorded (kernels.gram_entries).
SIZED = {"kernels.gram"}


class _View:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans ``[name, start, end, parent, phase, round, size, failed]``.

    ``phase`` is the part of the run a span fell in (``setup`` or ``run``) and
    ``round`` the timed round it belongs to, so spans of one fit share an
    identifier. Nothing is recorded while ``recording`` is false.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = True
        self.phase = "setup"
        self.round = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.phase, self.round, None, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, size=None, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = size
        span[7] = failed
        self._stack.pop()

    def wrap(self, func, name: str, failure=BaseException):
        """``func`` recording one span per call; a ``failure`` raised marks it failed."""
        tracer = self
        sized = name in SIZED

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, failed=isinstance(exc, failure))
                raise
            tracer._close(idx, size=int(out.size) if sized else None)
            return out

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(f"mekiv.{module_name}")
            self._replace(module, attr, self.wrap(getattr(module, attr), name))
        krr = importlib.import_module("mekiv.krr")
        linalg = krr.scipy.linalg
        cholesky = self.wrap(linalg.cholesky, "krr.cholesky", failure=linalg.LinAlgError)
        self._replace(krr, "scipy", _View(krr.scipy, linalg=_View(linalg, cholesky=cholesky)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self, phase: str = "run") -> dict[str, dict]:
        """Per span name: summed seconds, calls, summed size and failed calls."""
        out: dict[str, dict] = {}
        for name, start, end, _, span_phase, _, size, failed in self.spans:
            if span_phase != phase:
                continue
            rec = out.setdefault(name, {"s": 0.0, "calls": 0, "size": 0, "failed": 0})
            rec["s"] += end - start
            rec["calls"] += 1
            rec["size"] += size or 0
            rec["failed"] += int(failed)
        return out

    def top_level_seconds(self) -> float:
        """Summed time of the timed rounds' spans that have no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None and s[4] == "run")

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "round", "size", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")
