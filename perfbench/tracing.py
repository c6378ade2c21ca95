"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install()`` replaces each traced function at the module attribute
through which the program looks it up (``protocols.minimize``,
``hashing.smooth_min_entropy_conditional``, ``qsim.hermitian_eigenvalues``,
...) with a wrapper that records a span: name, start, end and parent span.
Spans stay in memory; ``layer_metrics()`` turns them into
``<layer>.<function>.calls`` / ``.s`` / ``.self_s`` when the run ends.
No code of the program changes.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from minentlab import (cli, concentration, distrib, hashing, protocols, qkd,
                       qsim, uncertainty)

# metric prefix -> the module attributes the program resolves it through
TRACED = {
    "cli.main": [(cli, "main")],
    "protocols.check_binding": [(protocols, "check_binding")],
    "protocols.check_sender_security": [(protocols, "check_sender_security")],
    "protocols.check_receiver_security": [(protocols, "check_receiver_security")],
    "scipy.optimize.minimize": [(protocols, "minimize")],
    "scipy.linalg.hadamard": [(protocols, "hadamard")],
    "scipy.linalg.matmul_toeplitz": [(scipy.linalg, "matmul_toeplitz")],
    "numpy.linalg.eigh": [(np.linalg, "eigh")],
    "numpy.linalg.eigvalsh": [(np.linalg, "eigvalsh")],
    "qsim.trace_norm": [(qsim, "trace_norm")],
    "qsim.hermitian_eigenvalues": [(qsim, "hermitian_eigenvalues")],
    "qsim.measure": [(qsim, "measure")],
    "hashing.verify_pa": [(hashing, "verify_pa")],
    "hashing.hash_output_table": [(hashing, "hash_output_table")],
    "hashing.enumerate_hash_family": [(hashing, "enumerate_hash_family")],
    "distrib.smooth_min_entropy_conditional": [
        (distrib, "smooth_min_entropy_conditional"),
        (hashing, "smooth_min_entropy_conditional")],
    "distrib.smooth_min_entropy_conditional_arrays": [
        (distrib, "smooth_min_entropy_conditional_arrays"),
        (uncertainty, "smooth_min_entropy_conditional_arrays")],
    "uncertainty.verify_uncertainty_relation": [
        (uncertainty, "verify_uncertainty_relation")],
    "uncertainty.numeric_average_bound": [(uncertainty, "numeric_average_bound")],
    "concentration.verify_dependent_sequence_bound": [
        (concentration, "verify_dependent_sequence_bound")],
    "qkd.run_qkd": [(qkd, "run_qkd")],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; spans opened inside it on the same thread name
        it as their parent (spans on pool threads have none)."""
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0,
                                   stack[-1] if stack else None))
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx].start = start
            self.spans[idx].end = end

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        for name, sites in TRACED.items():
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, inclusive seconds and self seconds for every traced
        function (zero when the workload never reached it)."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out = {}
        for name in TRACED:
            calls = total = own = 0.0
            for i, sp in enumerate(self.spans):
                if sp.name == name:
                    calls += 1
                    total += sp.end - sp.start
                    own += sp.end - sp.start - child_time[i]
            out[f"{name}.calls"] = (int(calls), "count")
            out[f"{name}.s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
        return out

