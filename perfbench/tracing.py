"""Span tracing and exact counters for the traced benchmark run.

The package binds names with ``from .x import y``, so a layer function is
reachable under several module attributes.  ``Tracer.wrap`` rebinds every
attribute of every ``hopfpbw`` module that holds the original function, so
no call goes missing.  Nothing inside the package is edited; ``restore``
puts every original back.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out once, after the traced pass.  A span's self time is its
duration minus the time covered by its direct children.

Scalar arithmetic is far too fine-grained for spans (millions of calls of
a few microseconds each), so ``ScalarCounter`` counts it in a separate
count-only pass.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

_now = time.perf_counter


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopfpbw" or name.startswith("hopfpbw."))]


class Tracer:
    """Records one span per call of each wrapped layer function."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list = []
        self._undo: list = []

    # -- installing wrappers ---------------------------------------------------

    def _span_fn(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, fn, name: str, only=None) -> None:
        """Trace fn as span `name` under every module attribute bound to it
        (or only in the modules listed in `only`)."""
        traced = self._span_fn(fn, name)
        for mod in (only or _package_modules()):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, traced)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self._span_fn(raw.__func__, name)))
        else:
            self._set(cls, attr, self._span_fn(raw, name))

    def count_method(self, cls, attr: str, name: str, kept_name: str) -> None:
        """Count calls of a method, and the calls whose result is not None."""
        raw = inspect.getattr_static(cls, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            out = raw(*args, **kwargs)
            counts[name] += 1
            if out is not None:
                counts[kept_name] += 1
            return out

        self._set(cls, attr, counted)

    def restore(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """{span name: (calls, total self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e9),
                                     round((end - t0) * 1e9), parent, op]) + "\n")


def install_layer_spans(tracer: Tracer, hp) -> None:
    """Wrap the public functions of each hopfpbw layer.  `hp` is a namespace
    holding the package's modules (cli, deform, exactla, hopf, modalg,
    oracle, smash)."""
    ex = hp.exactla
    tracer.wrap(hp.cli.problem_from_json, "cli.problem_from_json")
    tracer.wrap(hp.hopf.validate_hopf, "hopf.validate_hopf")
    tracer.wrap(hp.modalg.validate_action, "modalg.validate_action")
    tracer.wrap(hp.deform.solve_kappa, "deform.solve_kappa")
    tracer.wrap(hp.deform.check_pbw, "deform.check_pbw")
    tracer.wrap(hp.deform.check_invariance, "deform.check_invariance")
    tracer.wrap(hp.deform.check_overlap, "deform.check_overlap")
    tracer.wrap(hp.hopf.adjoint_on_H, "hopf.adjoint_on_H")
    tracer.wrap(hp.smash.adjoint_on_VH, "smash.adjoint_on_VH")
    # the oracle's straighten calls get their own name so they can be counted
    tracer.wrap(hp.smash.straighten, "oracle.straighten", only=[hp.oracle])
    tracer.wrap(hp.smash.straighten, "smash.straighten")
    tracer.wrap(hp.modalg.koszul_component, "modalg.koszul_component")
    tracer.wrap(hp.modalg.graded_dim, "modalg.graded_dim")
    tracer.wrap(hp.oracle.filtered_dims, "oracle.filtered_dims")
    tracer.wrap(ex.sparse_kernel, "exactla.sparse_kernel")
    for fn in (ex._rref_rows, ex.rref, ex.kernel, ex.intersect, ex.membership, ex.solve):
        tracer.wrap(fn, "exactla.dense")
    tracer.wrap_method(ex.Subspace, "from_vectors", "exactla.dense")
    tracer.wrap_method(ex.Subspace, "reduce", "exactla.dense")
    tracer.count_method(ex.SparseEchelon, "insert",
                        "exactla.echelon_inserts", "exactla.echelon_kept")


class ScalarCounter:
    """Counts Scalar multiplications, additions (incl. subtractions) and
    inversions by rebinding the methods on the class."""

    _METHODS = (("__mul__", "mul"), ("__add__", "add"), ("__sub__", "add"),
                ("inverse", "inv"))

    def __init__(self, scalar_cls):
        self.cls = scalar_cls
        self.counts: Counter = Counter()
        self._orig: list = []

    def install(self) -> None:
        counts = self.counts
        for attr, key in self._METHODS:
            raw = inspect.getattr_static(self.cls, attr)
            self._orig.append((attr, raw))

            def counted(a, *rest, _raw=raw, _key=key):
                counts[_key] += 1
                return _raw(a, *rest)

            setattr(self.cls, attr, counted)

    def restore(self) -> None:
        while self._orig:
            attr, raw = self._orig.pop()
            setattr(self.cls, attr, raw)


def scalar_op_ns(pairs: list, op, repeats: int = 5, target_s: float = 0.05) -> float:
    """Median over `repeats` timings of the ns per call of op(a, b) over
    pairs; each timing loops over the pairs for about `target_s` seconds."""
    t0 = _now()
    for a, b in pairs:
        op(a, b)
    reps = max(1, int(target_s / max(_now() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = _now()
        for _ in range(reps):
            for a, b in pairs:
                op(a, b)
        samples.append((_now() - t0) / (reps * len(pairs)) * 1e9)
    samples.sort()
    return samples[len(samples) // 2]
