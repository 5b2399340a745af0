"""Layer spans recorded from outside the library.

`Tracer.install` wraps each traced function in every `mnhd` module namespace
that holds it (a function imported with `from .spectral import ...` is a
separate name in the importing module), and methods on their class.  A
target a later version of the library no longer has is reported missing, so
its metrics read null rather than crash.  Spans are kept in memory and
reduced to per-layer self time and call counts after each pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# span name -> (module, attribute path); the span names are the metric
# prefixes reported by the benchmark.
TARGETS = {
    "graphs.laplacian": ("mnhd.graphs", "laplacian"),
    "graphs.facts": ("mnhd.graphs", "facts"),
    "spectral.jacobi_eigendecompose": ("mnhd.spectral", "jacobi_eigendecompose"),
    "spectral.minimal_polynomial": ("mnhd.spectral", "minimal_polynomial"),
    "spectral.exact_eigensystem": ("mnhd.spectral", "exact_eigensystem"),
    "spectral.lagrange_projector": ("mnhd.spectral", "lagrange_projector"),
    "spectral.closed_form_projectors": ("mnhd.spectral", "closed_form_projectors"),
    "spectral.classify_spectrum": ("mnhd.spectral", "classify_spectrum"),
    "quadratic.matmul": ("mnhd.quadratic", "QuadMatrix.__matmul__"),
    "quadratic.reduce": ("mnhd.quadratic", "QuadMatrix.reduce"),
    "heat.delta_set": ("mnhd.heat", "delta_set"),
    "heat.h_terms_exact": ("mnhd.heat", "h_terms_exact"),
    "heat.heat_stack": ("mnhd.heat", "heat_stack"),
    "certify.certificate_bipartite": ("mnhd.certify", "certificate_bipartite"),
    "certify.delta_sign_analysis": ("mnhd.certify", "delta_sign_analysis"),
    "certify.numeric_check": ("mnhd.certify", "numeric_check"),
    "certify.analyze": ("mnhd.certify", "analyze"),
    "certify.to_dict": ("mnhd.certify", "MnhdReport.to_dict"),
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append([name, self.clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.clock()

        return traced

    def install(self, targets: dict[str, tuple[str, str]] = TARGETS) -> None:
        for name, (module_name, path) in targets.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:  # a method: patch its class
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "mnhd" or mod_name.startswith("mnhd."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of spans).  A span's self time
    is its duration minus the part of it that its child spans cover; spans of
    one thread nest, so children never overlap."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), child in zip(spans, covered):
        out[name][0] += (end - start) - child
        out[name][1] += 1
    return {name: (total, count) for name, (total, count) in out.items()}
