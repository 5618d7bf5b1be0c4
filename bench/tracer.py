"""Span recorder for the traced benchmark run.

Imported by ``launcher.py`` only when a command runs traced, so an untraced
run executes no line of this file. ``install`` wraps the program's public
functions at the names their callers look them up (the modules import names
directly, so wrapping the defining module alone would miss the calls). A
name that no longer exists is recorded as missing instead of failing: the
report then prints the metrics built on it as ``missing``.

Spans stay in memory and are written as JSON when the command ends. Each
span is ``[name, start_ns, end_ns, parent_index, extra]``; the file carries
the run id every span belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# Errors a value hook may meet when a later commit changes what a wrapped
# function returns; the hook's metric is then reported missing.
_SHAPE_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError)
_END = object()


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.values = {}
        self.missing = []  # span or value names that could not be recorded
        self.last_update = None  # (state, M) returned by / passed to the last update
        self._stack = [-1]

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _hook(self, name, fn, *args):
        try:
            fn(*args)
        except _SHAPE_ERRORS:
            if name not in self.missing:
                self.missing.append(name)

    def wrap_call(self, owner, attr, name, after=None):
        """Record a span around every call of ``owner.attr``."""
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(name)
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self._hook(name, after, self, idx, args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_count(self, owner, attr, name):
        """Count calls of ``owner.attr`` per enclosing span name, untimed."""
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(name)
            return

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            parent = self._stack[-1]
            key = name + "<" + (self.spans[parent][0] if parent >= 0 else "")
            self.counts[key] = self.counts.get(key, 0) + 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)

    def wrap_iter(self, owner, attr, name):
        """Record one span per item drawn from ``owner.attr``'s iterator."""
        orig = getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(name)
            return

        @functools.wraps(orig)
        def traced_iter(obj):
            it = iter(orig(obj))
            while True:
                idx = self.open(name)
                try:
                    item = next(it, _END)
                finally:
                    self.close(idx)
                if item is _END:
                    return
                self._hook(name, _count_record_bytes, self, item)
                yield item

        setattr(owner, attr, traced_iter)

    def final_state_values(self):
        """Counts and defects of the last state ``update`` returned."""
        if self.last_update is None:
            return
        state, M = self.last_update
        self.values["final.n"] = int(state.n)
        self.values["final.k"] = int(state.k)
        self.values["final.T_p"] = int(state.T_p)
        self.values["final.T_sv"] = int(state.T_sv)
        wl = importlib.import_module("incpod.weighted_linalg")
        self.values["final.defect_V"] = float(wl.m_orthonormality_defect(state.V, M))
        if state.W is not None:
            import numpy as np

            G = state.W.T @ state.W
            self.values["final.defect_W"] = float(np.max(np.abs(G - np.eye(G.shape[0]))))

    def dump(self, path):
        self._hook("final", Tracer.final_state_values, self)
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counts": self.counts,
                    "values": self.values,
                    "missing": self.missing,
                },
                fh,
            )


def _count_record_bytes(tracer, item):
    _, _, column = item
    key = "io_formats.stream_bytes"
    tracer.counts[key] = tracer.counts.get(key, 0) + 16 + column.nbytes


def _after_update(tracer, idx, args, result):
    state, report = result
    tracer.spans[idx][4] = [
        int(state.n),
        int(state.k),
        int(bool(report.rank_grew)),
        int(bool(report.reorthogonalized)),
    ]
    tracer.last_update = (state, args[2])


def _after_simulate(tracer, idx, args, result):
    tracer.values["fhn.snapshots"] = int(result.count)


def _after_checkpoint(tracer, idx, args, result):
    tracer.spans[idx][4] = os.path.getsize(args[1])


def _after_vector_bound_check(tracer, idx, args, result):
    tracer.values["perturbation.gap_ok_modes"] = sum(bool(r.gap_ok) for r in result)


# (module, attribute or "Class.method", span name, value hook)
CALL_SITES = (
    ("incpod.cli", "simulate", "fhn.simulate", _after_simulate),
    ("incpod.cli", "write_stream", "io_formats.write_stream", None),
    ("incpod.cli", "read_weight_matrix", "io_formats.read_weight_matrix", None),
    ("incpod.cli", "read_stream_matrix", "io_formats.read_stream_matrix", None),
    ("incpod.cli", "checkpoint", "io_formats.checkpoint", _after_checkpoint),
    ("incpod.cli", "restore", "io_formats.restore", None),
    ("incpod.cli", "update", "incremental.update", _after_update),
    # run_stream (the verify sweep) looks ``update`` up in its own module
    ("incpod.incremental", "update", "incremental.update", _after_update),
    ("incpod.incremental", "small_svd", "weighted_linalg.small_svd", None),
    ("incpod.incremental", "modified_gram_schmidt_weighted", "weighted_linalg.mgs", None),
    ("incpod.cli", "exact_weighted_svd", "oracle.exact_svd", None),
    ("incpod.cli", "tolerance_sweep", "oracle.sweep", None),
    ("incpod.oracle", "run_stream", "oracle.run_stream", None),
    ("incpod.oracle", "weighted_operator_norm", "weighted_linalg.operator_norm", None),
    ("incpod.cli", "vector_bound_check", "perturbation.vector_bound_check",
     _after_vector_bound_check),
)
COUNT_SITES = (("incpod.weighted_linalg", "WeightMatrix.matvec", "weighted_linalg.matvec"),)
ITER_SITES = (("incpod.io_formats", "StreamReader.__iter__", "io_formats.stream_read"),)


def _resolve(module_name, dotted):
    """Return (owner, attribute) for ``module.dotted``, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attr


def install(tracer):
    for sites, wrap in (
        (CALL_SITES, tracer.wrap_call),
        (COUNT_SITES, tracer.wrap_count),
        (ITER_SITES, tracer.wrap_iter),
    ):
        for module_name, dotted, name, *hook in sites:
            target = _resolve(module_name, dotted)
            if target is None:
                tracer.missing.append(name)
            else:
                wrap(*target, name, *hook)
