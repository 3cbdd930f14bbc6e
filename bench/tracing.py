"""In-memory span tracer that wraps the library's layer functions from outside.

``Tracer.install`` replaces each traced function with a recording wrapper
under every name it is reachable by: the defining module, every ``vifnc``
module that imported it by name (``diagnostics`` imports ``fit``,
``montecarlo`` imports ``vif``, ``vifnc`` and ``generate_normal_column``)
and the package namespace. The NumPy kernels the library calls as
``np.linalg.<name>`` are wrapped on ``numpy.linalg``. ``uninstall`` puts
the originals back, so untraced ops run the library untouched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name)
LAYERS = (
    ("vifnc.datasets", "load_csv", "datasets.load_csv"),
    ("vifnc.datasets", "generate_normal_column", "datasets.generate_normal_column"),
    ("vifnc.diagnostics", "full_report", "diagnostics.full_report"),
    ("vifnc.diagnostics", "variance_factors", "diagnostics.variance_factors"),
    ("vifnc.diagnostics", "vif", "diagnostics.vif"),
    ("vifnc.diagnostics", "vifnc", "diagnostics.vifnc"),
    ("vifnc.ols", "fit", "ols.fit"),
    ("vifnc.linalg", "solve_least_squares", "linalg.solve_least_squares"),
    ("vifnc.montecarlo", "parse_scenario_config", "montecarlo.parse_scenario_config"),
    ("vifnc.montecarlo", "run_scenario", "montecarlo.run_scenario"),
    ("vifnc.report", "render_report", "report.render"),
    ("vifnc.report", "render_montecarlo", "report.render"),
)
KERNELS = ("qr", "solve", "lstsq", "matrix_rank")
OP = "op"


def _qr_flops(a) -> float:
    """Householder triangularisation of an m x p matrix: 2mp^2 - 2p^3/3."""
    m, p = np.shape(a)[-2:]
    return 2.0 * m * p * p - 2.0 * p**3 / 3.0


class Tracer:
    """Spans are (name, start, end, parent index, op id); parent -1 is none."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.rank_deficient: dict[int, int] = defaultdict(int)
        self.qr_flops: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter()

    def _exit(self, name: str, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._op)

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as the root span of op ``op_id``."""
        self._op = op_id
        index, start = self._enter()
        try:
            return fn()
        finally:
            self._exit(OP, index, start)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            index, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, index, start)
            if name == "kernel.qr":
                tracer.qr_flops[tracer._op] += _qr_flops(args[0])
            elif name == "linalg.solve_least_squares" and result.rank_deficient:
                tracer.rank_deficient[tracer._op] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        library = [mod for key, mod in sys.modules.items()
                   if key == "vifnc" or key.startswith("vifnc.")]
        for module_name, attr, span in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for module in library:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for attr in KERNELS:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(f"kernel.{attr}", original))

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    # -- summary -----------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, float]]:
        """For each op: ``<span>.calls``, ``<span>.self_s``, ``<span>.total_s`` and kernel counts.

        Self time is a span's duration minus that of its direct children;
        spans never overlap, because one thread runs every op.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += end - start - child_time[index]
            row[f"{name}.total_s"] += end - start
            # a solve outside the QR back-substitution is a Gram-system solve
            if name == "kernel.solve" and (parent < 0 or self.spans[parent][0]
                                           != "linalg.solve_least_squares"):
                row["kernel.gram_solves"] += 1
        for op, count in self.rank_deficient.items():
            out[op]["linalg.rank_deficient_solves"] += count
        for op, flops in self.qr_flops.items():
            out[op]["kernel.qr.flops_computed"] += flops
        return out

    def write(self, path) -> None:
        """All spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")
