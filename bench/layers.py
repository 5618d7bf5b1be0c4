"""Per-layer metrics from the span files of one traced pass.

Each command of a pass leaves one trace (see ``tracer.py``). A metric whose
layer was not called on the workload reads ``n/a``; one whose wrapped name
no longer exists, or whose value hook failed, reads ``missing``. Times are
summed over the pass's commands unless the name says which command they
come from (``pod`` for the update, small-SVD, checkpoint and final-state
figures; ``resume`` for the restore).
"""

from __future__ import annotations

import math
import statistics

NA, MISSING = "n/a", "missing"

# name -> unit, in report order
PER_LAYER = {
    "fhn.simulate_s": "s",
    "fhn.snapshots": "count",
    "fhn.us_per_snapshot": "us",
    "io_formats.write_stream_s": "s",
    "io_formats.read_weight_matrix_s": "s",
    "io_formats.stream_read_s": "s",
    "io_formats.stream_read_mb_per_s": "MB/s",
    "io_formats.read_stream_matrix_s": "s",
    "io_formats.checkpoints": "count",
    "io_formats.checkpoint_ms.p50": "ms",
    "io_formats.checkpoint_ms.max": "ms",
    "io_formats.checkpoint_bytes": "bytes",
    "io_formats.restore_ms": "ms",
    "incremental.updates": "count",
    "incremental.update_us.p50": "us",
    "incremental.update_us.p99": "us",
    "incremental.update_us.early": "us",
    "incremental.update_us.late": "us",
    "incremental.update_growth": "ratio",
    "incremental.update_growth_norm": "ratio",
    "incremental.rank_grew": "count",
    "incremental.reorth": "count",
    "incremental.T_p": "count",
    "incremental.T_sv": "count",
    "incremental.final_k": "count",
    "weighted_linalg.small_svd_us.p50": "us",
    "weighted_linalg.small_svd_us.p99": "us",
    "weighted_linalg.small_svd_share": "fraction",
    "weighted_linalg.matvec_per_update": "count",
    "weighted_linalg.mgs_calls": "count",
    "weighted_linalg.mgs_ms": "ms",
    "weighted_linalg.operator_norm_s": "s",
    "weighted_linalg.defect_V": "1",
    "weighted_linalg.defect_W": "1",
    "oracle.exact_svd_s": "s",
    "oracle.sweep_s": "s",
    "oracle.sweep_update_share": "fraction",
    "perturbation.vector_bound_check_ms": "ms",
    "perturbation.gap_ok_modes": "count",
    "cli.import_s": "s",
    "cli.pod_self_s": "s",
    "cli.resume_self_s": "s",
    "cli.trace_rows": "count",
    "trace.overhead": "fraction",
}

# Shares of the stream: updates at columns in [N/4, N/2] give
# update_us.early, the last N/4 updates give update_us.late.
EARLY_SHARE = (0.25, 0.5)
LATE_SHARE = 0.25


def _secs(span):
    return (span[2] - span[1]) * 1e-9


def _pct(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Trace:
    """Index over one command's span file."""

    def __init__(self, data):
        self.spans = data["spans"]
        self.counts = data["counts"]
        self.values = data["values"]
        self.missing = set(data["missing"])
        self.children = {}
        for idx, span in enumerate(self.spans):
            self.children.setdefault(span[3], []).append(idx)

    def named(self, name, parent=None):
        return [
            s
            for s in self.spans
            if s[0] == name and (parent is None or self.spans[s[3]][0] == parent)
        ]

    def self_s(self, name):
        """Self time of the first span called ``name``, or None."""
        for idx, span in enumerate(self.spans):
            if span[0] == name:
                kids = self.children.get(idx, [])
                return _secs(span) - sum(_secs(self.spans[k]) for k in kids)
        return None


def layer_metrics(traces, trace_rows=None, overhead=None):
    """Per-layer metrics of one traced pass.

    ``traces`` maps command name (``simulate``, ``pod``, ``resume``,
    ``verify``) to its parsed span file; a command that left no file is
    absent. Returns ``{name: number | "n/a" | "missing"}`` for every name in
    ``PER_LAYER``.
    """
    views = {cmd: Trace(data) for cmd, data in traces.items()}
    every = list(views.values())
    pod = views.get("pod")
    out = {}

    def absent(*names):
        return MISSING if any(n in v.missing for v in every for n in names) else NA

    def total(name, unit=1.0):
        spans = [s for v in every for s in v.named(name)]
        return sum(map(_secs, spans)) * unit if spans else absent(name)

    def value(view, key, site):
        if view is not None and key in view.values:
            return view.values[key]
        if view is not None and view.named(site):
            return MISSING  # the layer ran but its value hook could not read it
        return absent(site)

    def ratio(num, den, scale=1.0):
        if isinstance(num, str):
            return num
        if isinstance(den, str):
            return den
        return num / den * scale if den else NA

    sim = views.get("simulate")
    out["fhn.simulate_s"] = total("fhn.simulate")
    out["fhn.snapshots"] = value(sim, "fhn.snapshots", "fhn.simulate")
    out["fhn.us_per_snapshot"] = ratio(out["fhn.simulate_s"], out["fhn.snapshots"], 1e6)

    out["io_formats.write_stream_s"] = total("io_formats.write_stream")
    out["io_formats.read_weight_matrix_s"] = total("io_formats.read_weight_matrix")
    out["io_formats.stream_read_s"] = total("io_formats.stream_read")
    read_bytes = sum(v.counts.get("io_formats.stream_bytes", 0) for v in every)
    out["io_formats.stream_read_mb_per_s"] = ratio(
        read_bytes * 1e-6 if read_bytes else absent("io_formats.stream_read"),
        out["io_formats.stream_read_s"],
    )
    out["io_formats.read_stream_matrix_s"] = total("io_formats.read_stream_matrix")

    ckpts = pod.named("io_formats.checkpoint") if pod else []
    ckpt_ms = [_secs(s) * 1e3 for s in ckpts]
    ckpt_status = absent("io_formats.checkpoint")
    out["io_formats.checkpoints"] = (
        len(ckpts) if ckpts or ckpt_status == NA else ckpt_status
    )
    out["io_formats.checkpoint_ms.p50"] = statistics.median(ckpt_ms) if ckpts else ckpt_status
    out["io_formats.checkpoint_ms.max"] = max(ckpt_ms) if ckpts else ckpt_status
    last_bytes = ckpts[-1][4] if ckpts else None
    out["io_formats.checkpoint_bytes"] = (
        last_bytes if isinstance(last_bytes, int) else (MISSING if ckpts else ckpt_status)
    )
    restores = views["resume"].named("io_formats.restore") if "resume" in views else []
    out["io_formats.restore_ms"] = (
        sum(map(_secs, restores)) * 1e3 if restores else absent("io_formats.restore")
    )

    _incremental(out, pod, absent)
    _small_svd(out, pod, absent)

    out["weighted_linalg.operator_norm_s"] = total("weighted_linalg.operator_norm")
    out["weighted_linalg.defect_V"] = value(pod, "final.defect_V", "incremental.update")
    out["weighted_linalg.defect_W"] = (
        pod.values["final.defect_W"]
        if pod is not None and "final.defect_W" in pod.values
        else (MISSING if pod is not None and "final" in pod.missing else NA)
    )

    out["oracle.exact_svd_s"] = total("oracle.exact_svd")
    out["oracle.sweep_s"] = total("oracle.sweep")
    verify = views.get("verify")
    sweep_updates = verify.named("incremental.update") if verify else []
    out["oracle.sweep_update_share"] = (
        ratio(sum(map(_secs, sweep_updates)), out["oracle.sweep_s"])
        if sweep_updates
        else (absent("incremental.update") if verify else NA)
    )
    out["perturbation.vector_bound_check_ms"] = total("perturbation.vector_bound_check", 1e3)
    out["perturbation.gap_ok_modes"] = value(
        verify, "perturbation.gap_ok_modes", "perturbation.vector_bound_check"
    )

    import_span = pod.named("cli.import") if pod else []
    out["cli.import_s"] = _secs(import_span[0]) if import_span else NA
    pod_self = pod.self_s("cli.pod") if pod else None
    out["cli.pod_self_s"] = NA if pod_self is None else pod_self
    resume_self = views["resume"].self_s("cli.pod") if "resume" in views else None
    out["cli.resume_self_s"] = NA if resume_self is None else resume_self
    out["cli.trace_rows"] = NA if trace_rows is None else trace_rows
    out["trace.overhead"] = NA if overhead is None else overhead
    return out


def _windows(values, cols):
    """Medians of ``values`` over the early columns and the last updates."""
    lo, hi = (share * len(values) for share in EARLY_SHARE)
    window = [v for v, n in zip(values, cols) if lo <= n <= hi]
    early = statistics.median(window) if window else NA
    late_n = int(LATE_SHARE * len(values))
    late = statistics.median(values[-late_n:]) if late_n else NA
    return early, late


def _growth(late, early):
    if MISSING in (early, late):
        return MISSING
    return NA if NA in (early, late) else late / early


def _incremental(out, pod, absent):
    spans = pod.spans if pod else []
    updates = [(i, s) for i, s in enumerate(spans) if s[0] == "incremental.update"]
    if not updates:
        status = absent("incremental.update")
        for key in PER_LAYER:
            if key.startswith("incremental."):
                out[key] = status
        return
    ns = [s[2] - s[1] for _, s in updates]
    us = [t * 1e-3 for t in ns]
    out["incremental.updates"] = len(updates)
    out["incremental.update_us.p50"] = statistics.median(us)
    out["incremental.update_us.p99"] = _pct(us, 0.99)
    extras = [s[4] for _, s in updates]
    if any(e is None for e in extras):
        early = late = rank_grew = reorth = growth_norm = MISSING
    else:
        cols = [e[0] for e in extras]
        early, late = _windows(us, cols)
        rank_grew = sum(e[2] for e in extras)
        reorth = sum(e[3] for e in extras)
        # Each update's time over its own small SVD's, which does not depend
        # on n: the machine's speed drift between the windows cancels.
        svd_ns = {s[3]: s[2] - s[1] for s in pod.named("weighted_linalg.small_svd")}
        if all(i in svd_ns for i, _ in updates):
            rel = [t / svd_ns[i] for t, (i, _) in zip(ns, updates)]
            rel_early, rel_late = _windows(rel, cols)
            growth_norm = _growth(rel_late, rel_early)
        else:
            growth_norm = absent("weighted_linalg.small_svd")
    out["incremental.update_us.early"] = early
    out["incremental.update_us.late"] = late
    out["incremental.update_growth"] = _growth(late, early)
    out["incremental.update_growth_norm"] = growth_norm
    out["incremental.rank_grew"] = rank_grew
    out["incremental.reorth"] = reorth
    for name, key in (("T_p", "final.T_p"), ("T_sv", "final.T_sv"), ("final_k", "final.k")):
        out["incremental." + name] = pod.values.get(key, MISSING)


def _small_svd(out, pod, absent):
    updates = pod.named("incremental.update") if pod else []
    svds = pod.named("weighted_linalg.small_svd", parent="incremental.update") if pod else []
    if svds:
        us = [_secs(s) * 1e6 for s in svds]
        out["weighted_linalg.small_svd_us.p50"] = statistics.median(us)
        out["weighted_linalg.small_svd_us.p99"] = _pct(us, 0.99)
        out["weighted_linalg.small_svd_share"] = sum(us) * 1e-6 / sum(map(_secs, updates))
    else:
        status = absent("weighted_linalg.small_svd", "incremental.update")
        for key in ("p50", "p99"):
            out["weighted_linalg.small_svd_us." + key] = status
        out["weighted_linalg.small_svd_share"] = status

    if not updates:
        status = absent("incremental.update")
        out["weighted_linalg.matvec_per_update"] = status
        out["weighted_linalg.mgs_calls"] = status
        out["weighted_linalg.mgs_ms"] = status
        return
    if "weighted_linalg.matvec" in pod.missing:
        out["weighted_linalg.matvec_per_update"] = MISSING
    else:
        calls = pod.counts.get("weighted_linalg.matvec<incremental.update", 0)
        out["weighted_linalg.matvec_per_update"] = calls / len(updates)
    if "weighted_linalg.mgs" in pod.missing:
        out["weighted_linalg.mgs_calls"] = out["weighted_linalg.mgs_ms"] = MISSING
    else:
        mgs = pod.named("weighted_linalg.mgs")
        out["weighted_linalg.mgs_calls"] = len(mgs)
        out["weighted_linalg.mgs_ms"] = sum(map(_secs, mgs)) * 1e3


def median_of_passes(per_pass):
    """Combine the per-layer dicts of several traced passes: the median of
    each metric that is numeric in every pass (a count stays a whole
    number), else the first pass's status."""
    combined = {}
    for name in PER_LAYER:
        vals = [p[name] for p in per_pass]
        if all(isinstance(v, int) for v in vals):
            combined[name] = statistics.median_low(vals)
        elif all(not isinstance(v, str) for v in vals):
            combined[name] = statistics.median(vals)
        else:
            combined[name] = next(v for v in vals if isinstance(v, str))
    return combined
