"""Spans and counters recorded around calls into crackedbeam's modules.

A :class:`Tracer` swaps module attributes for timing wrappers while it is
installed and restores the originals when it is removed, so the package is
measured from outside and nothing under ``src/`` changes.  A wrapper records
a span only while an op is active (``op_id >= 0``); calls made by the
benchmark's own correctness checks pass straight through.

Spans live in flat arrays (name, start, end, parent, op) so a long traced
run stays small in memory; self times are derived from them afterwards.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  A function imported by name into another
# module is wrapped at every place it is looked up from, under one name.
TARGETS = (
    ("rootfind", "find_roots", "rootfind.find_roots"),
    ("rootfind", "bisect", "rootfind.bisect"),
    ("shifrin", "compute_spectrum", "shifrin.compute_spectrum"),
    ("shifrin", "find_eigenvalues", "shifrin.find_eigenvalues"),
    ("shifrin", "char_det", "shifrin.char_det"),
    ("shifrin", "assemble_system", "shifrin.assemble_system"),
    ("shifrin", "solve_nullspace", "shifrin.solve_nullspace"),
    ("shifrin", "build_eigenfunction", "shifrin.build_eigenfunction"),
    ("transition", "oracle_eigenpairs", "transition.oracle_eigenpairs"),
    ("transition", "find_eigenvalues", "transition.find_eigenvalues"),
    ("transition", "boundary_det", "transition.boundary_det"),
    ("transition", "transition_matrix", "transition.transition_matrix"),
    ("modes", "normalize_eigenpair", "modes.normalize_eigenpair"),
    ("shifrin", "normalize_eigenpair", "modes.normalize_eigenpair"),
    ("transition", "normalize_eigenpair", "modes.normalize_eigenpair"),
    ("quadrature", "QuadratureRule.for_problem", "quadrature.for_problem"),
    ("spectral", "residual_report", "spectral.residual_report"),
    ("spectral", "gram_matrix", "spectral.gram_matrix"),
    ("spectral", "a_form", "spectral.a_form"),
    ("spectral", "h_inner", "spectral.h_inner"),
    ("beam_model", "load_problem_file", "beam_model.load_problem_file"),
    ("cli", "load_problem_file", "beam_model.load_problem_file"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Span recorder plus exact counters for one traced run."""

    def __init__(self) -> None:
        self.names = self.span_names()
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @staticmethod
    def span_names() -> list[str]:
        return list(dict.fromkeys(label for _, _, label in TARGETS))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, label in TARGETS:
            owner = importlib.import_module(f"crackedbeam.{module_name}")
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, label)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, label: str) -> None:
        original = vars(owner)[attr]
        hooks = _HOOKS.get(label, (None, None))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, label, *hooks))
        else:
            wrapped = self._wrap(original, label, *hooks)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _wrap(self, fn, label: str, before, after):
        idx = self.names.index(label)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            k = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer._stack.append(k)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[k] = clock()
                tracer.start[k] = t0
                tracer._stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def _arrays(self, op_scale):
        """Span columns; durations multiplied by ``op_scale[op]``."""
        op = np.asarray(self.op, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        return (
            np.asarray(self.name, dtype=np.int64),
            dur * np.asarray(op_scale)[op],
            np.asarray(self.parent, dtype=np.int64),
            op,
        )

    def layer_totals(self, op_scale) -> dict[str, dict[str, float]]:
        """Calls, total and self nanoseconds per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name, dur, parent, _ = self._arrays(op_scale)
        child = np.zeros(len(name))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        own = np.bincount(name, weights=dur - child, minlength=size)
        return {
            label: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, label in enumerate(self.names)
        }

    def op_span_ns(self, op_scale) -> np.ndarray:
        """Per op id, the summed duration of its outermost spans."""
        _, dur, parent, op = self._arrays(op_scale)
        top = parent < 0
        return np.bincount(op[top], weights=dur[top], minlength=len(op_scale))

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names table plus columns)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
        )


def _counted(tracer: Tracer, key: str, f):
    def counted(lam):
        tracer.counts[key] += 1
        return f(lam)

    return counted


def _before_find_roots(tracer: Tracer, args):
    return (_counted(tracer, "rootfind.det_evals", args[0]), *args[1:])


def _after_find_roots(tracer: Tracer, result) -> None:
    roots, diagnostics = result
    tracer.counts["rootfind.roots"] += len(roots)
    tracer.counts["rootfind.diagnostics"] += len(diagnostics)


def _before_bisect(tracer: Tracer, args):
    return (_counted(tracer, "rootfind.bisect_evals", args[0]), *args[1:])


def _after_for_problem(tracer: Tracer, rule) -> None:
    tracer.counts["quadrature.nodes"] += rule.nodes.size


# Counters kept at a span boundary: (rewrite positional args, inspect result).
_HOOKS = {
    "rootfind.find_roots": (_before_find_roots, _after_find_roots),
    "rootfind.bisect": (_before_bisect, None),
    "quadrature.for_problem": (None, _after_for_problem),
}
