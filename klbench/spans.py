"""In-memory span tracer that wraps klsmooth's public functions from outside.

A traced run patches the functions listed in TARGETS in every klsmooth module
that binds them, so every call ``cli.main`` makes into them opens a span:
name, start, end, parent and the experiment id shared by all spans of one
experiment. Spans stay in memory until the run ends. Nothing inside
``src/`` is changed.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over the spans of that layer (the name prefix
before the first dot). With ``memory=True`` each span also records the
tracemalloc peak above the traced memory at its start.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from klsmooth import cli, estimator, landweber, operators, problems, validation

LAYERS = ("problems", "operators", "landweber", "estimator", "validation", "cli")

# (defining module, function name, span name, work count from the result or None)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_config", "cli.parse", None),
    (cli, "run_pipeline", "cli.pipeline", None),
    (cli, "_write_outputs", "cli.write", None),
    (problems, "make_power_law", "problems.build", None),
    (problems, "make_exp_solution", "problems.build", None),
    (problems, "make_exp_operator", "problems.build", None),
    (problems, "make_deriv2", "problems.build", None),
    (problems, "make_gravity", "problems.build", None),
    (problems, "load_external", "problems.build", None),
    (problems, "add_noise", "problems.noise", None),
    (operators, "kernel_operator", "operators.kernel", None),
    (operators, "operator_norm", "operators.norm", None),
    (operators, "svd", "operators.svd", None),
    (operators, "read_matrix_market", "operators.mtx_read", None),
    (operators, "read_vector", "operators.vector_read", None),
    (landweber, "landweber_run", "landweber.run", lambda out: len(out)),
    (landweber, "write_trace_csv", "landweber.csv", None),
    (estimator, "estimate_track", "estimator.track", lambda out: len(out.k_values)),
    (estimator, "detect_stable_window", "estimator.window", None),
    (estimator, "detect_noise_takeover", "estimator.takeover", None),
    (estimator, "detect_discretization_saturation", "estimator.saturation", None),
    (validation, "rate_experiment", "validation.rate", None),
    (validation, "tikhonov_solve", "validation.solve", None),
    (validation, "verify_smoothness", "validation.summability", None),
    (validation, "max_mu_spectral", "validation.summability", None),
    (validation, "bound_curves", "validation.bounds", None),
)

_MODULES = (cli, estimator, landweber, operators, problems, validation)


def landweber_bytes(op, iters: int, has_error: bool) -> float:
    """Computed (not measured) bytes one ``landweber_run`` moves in its loop.

    Counts float64 reads and writes of each numpy operation in the loop body:
    the update x - beta*g (5 vectors of n), A x and the residual (diagonal:
    3n + 3m; dense: n + m plus 3m), A* r (diagonal 3n; dense m + n), the two
    norms (m + n) and, when x_true is known, the error norm (4n). Dense
    operators add the two matrix sweeps, 2*m*n*8 bytes per iteration.
    """
    m, n = op.shape
    if op.kind == "diagonal":
        vector_words = 16 * n
    else:
        vector_words = 8 * n + 6 * m
    if has_error:
        vector_words += 4 * n
    matrix_words = 0 if op.kind == "diagonal" else 2 * m * n
    return 8.0 * (vector_words + matrix_words) * iters


@dataclass
class Span:
    name: str
    experiment: str
    parent: int
    start: float
    end: float = 0.0
    children_s: float = 0.0
    count: int = 0
    computed_bytes: float = 0.0
    shape: Optional[tuple] = None
    peak_mb: float = 0.0
    _base: int = field(default=0, repr=False)
    _peak: int = field(default=0, repr=False)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Collects spans; ``installed()`` patches klsmooth for its duration."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._experiment = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name=name, experiment=self._experiment, parent=parent, start=0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self.spans[parent]._peak = max(self.spans[parent]._peak, peak)
            tracemalloc.reset_peak()
            s._base = s._peak = current
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children_s += s.duration
            if self.memory:
                s._peak = max(s._peak, tracemalloc.get_traced_memory()[1])
                s.peak_mb = (s._peak - s._base) / 2 ** 20
                if parent >= 0:
                    self.spans[parent]._peak = max(self.spans[parent]._peak, s._peak)

    @contextmanager
    def experiment(self, experiment_id: str):
        """Root span of one experiment; every span inside shares its id."""
        self._experiment = experiment_id
        with self.span("bench.experiment") as root:
            yield root

    def _wrap(self, fn: Callable, name: str, count) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.count = count(out)
                if name == "landweber.run":
                    p = args[0]
                    s.shape = (p.operator.kind, *p.operator.shape)
                    s.computed_bytes = landweber_bytes(p.operator, len(out),
                                                       p.x_true is not None)
                return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS function in every klsmooth module binding it."""
        saved = []
        for home, fname, name, count in TARGETS:
            original = getattr(home, fname)
            traced = self._wrap(original, name, count)
            for mod in _MODULES:
                if getattr(mod, fname, None) is original:
                    saved.append((mod, fname, original))
                    setattr(mod, fname, traced)
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for mod, fname, original in reversed(saved):
                setattr(mod, fname, original)

    def check_accounting(self, rel_tol: float = 1e-6) -> list[str]:
        """Problems with the span tree; empty when it is consistent.

        Per experiment, the self times of all its spans must add up to the
        root span's duration, no self time may be negative, and each span
        must lie inside its parent's interval.
        """
        problems_found = []
        totals: dict[str, float] = {}
        roots: dict[str, float] = {}
        for s in self.spans:
            totals[s.experiment] = totals.get(s.experiment, 0.0) + s.self_s
            if s.parent < 0:
                roots[s.experiment] = roots.get(s.experiment, 0.0) + s.duration
            elif not (self.spans[s.parent].start <= s.start and s.end <= self.spans[s.parent].end):
                problems_found.append(f"{s.experiment}: {s.name} outside its parent")
            if s.self_s < -1e-9:
                problems_found.append(f"{s.experiment}: {s.name} has negative self time")
        for exp, wall in roots.items():
            if abs(totals[exp] - wall) > rel_tol * wall + 1e-9:
                problems_found.append(
                    f"{exp}: self times sum to {totals[exp]:.6f} s, wall is {wall:.6f} s")
        return problems_found

    def covered_s(self, name: str) -> float:
        """Time inside spans called ``name``, not counting nested repeats."""
        total = 0.0
        for s in self.spans:
            if s.name == name and not self._has_ancestor(s, name):
                total += s.duration
        return total

    def _has_ancestor(self, s: Span, name: str) -> bool:
        i = s.parent
        while i >= 0:
            if self.spans[i].name == name:
                return True
            i = self.spans[i].parent
        return False

    def dump(self) -> list[dict]:
        return [{"name": s.name, "experiment": s.experiment, "parent": s.parent,
                 "start": s.start, "end": s.end, "self_s": s.self_s,
                 "count": s.count, "peak_mb": s.peak_mb if self.memory else None}
                for s in self.spans]
