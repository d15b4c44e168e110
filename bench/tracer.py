"""Spans and counters at the library's layer boundaries, installed from outside.

The tracer replaces the module and class attributes through which kzsketch
calls its layers (``codec.encode``, ``Sketch.decode``,
``geometry.min_powered_distances`` and so on) with wrappers that record a
span ``[name, start, end, parent, op]``. Spans stay in memory and are written
out when the run ends. Nothing is installed unless a run asks for tracing, so
end-to-end timings are always taken with the library untouched.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# metric -> (span name, "self" or "total", required parent span name or None).
# Self time is a span's duration minus the part covered by its child spans.
SPAN_METRICS = {
    "codec.encode_pack_ms": ("codec.encode", "self", None),
    "codec.self_parse_ms": ("codec.parse", "total", "codec.encode"),
    "codec.from_bytes_ms": ("codec.from_bytes", "total", None),
    "codec.decode_ms": ("codec.decode", "total", None),
    "codec.estimate_ms": ("codec.estimate", "self", None),
    "geometry.kernel_ms": ("geometry.kernel", "total", None),
    "coreset.approx_centers_ms": ("coreset.approx_centers", "self", None),
    "coreset.build_coreset_ms": ("coreset.build_coreset", "self", None),
    "distsim.push_ms": ("distsim.push", "self", None),
    "distsim.flush_ms": ("distsim.flush", "self", None),
    "distsim.reduce_ms": ("distsim.reduce", "self", None),
    "distsim.coordinator_ms": ("distsim.coordinator", "self", None),
    "anglelab.haar_ms": ("anglelab.haar", "total", None),
    "anglelab.complement_ms": ("anglelab.complement", "total", None),
    "anglelab.principal_angles_ms": ("anglelab.principal_angles", "total", None),
    "coloring.search_ms": ("coloring.search", "total", None),
    "coloring.witness_ms": ("coloring.witness", "self", None),
    "cli.load_ms": ("cli.load", "total", None),
}

# Deterministic counts, summed over one cycle of the workload.
COUNTERS = (
    "codec.codes", "codec.header_bits", "codec.center_bits",
    "codec.weight_bits", "codec.coordinate_bits",
    "geometry.kernel_calls", "geometry.kernel_pairdims",
    "coreset.points_in", "coreset.points_out",
    "distsim.blocks", "distsim.reductions", "distsim.comm_bits",
    "distsim.stream_resident_bits",
    "coloring.restarts", "coloring.certificates_passed",
    "coloring.certificates_total",
)


class Tracer:
    """Records spans and counters while ``enabled``; otherwise each wrapper
    costs one attribute test before calling through."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.enabled = False
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args)`` runs once the call returns, outside the span,
        to add counters. A missing attribute is reported and skipped, so a
        renamed function shows as an absent span rather than a crash.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            print(f"trace: {self.missing[-1]} not found; span {name} skipped",
                  file=sys.stderr)
            return
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def span_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per metric in SPAN_METRICS over spans[first:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans[first:]:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {metric: 0.0 for metric in SPAN_METRICS}
        by_name: dict[str, list[str]] = {}
        for metric, (span_name, _, _) in SPAN_METRICS.items():
            by_name.setdefault(span_name, []).append(metric)
        for i in range(first, len(spans)):
            s = spans[i]
            for metric in by_name.get(s[0], ()):
                _, mode, parent = SPAN_METRICS[metric]
                if parent is not None and (s[3] < 0 or spans[s[3]][0] != parent):
                    continue
                dur = s[2] - s[1]
                out[metric] += dur - child[i] if mode == "self" else dur
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _count_sketch(tracer: Tracer, sketch) -> None:
    tracer.count("codec.codes", sketch.coreset_size * (sketch.d + 1))
    ledger = sketch.ledger
    for field in ("header_bits", "center_bits", "weight_bits", "coordinate_bits"):
        tracer.count(f"codec.{field}", getattr(ledger, field))


def _shape(obj):
    arr = getattr(obj, "points", None)
    if arr is None:
        arr = getattr(obj, "centers", obj)
    return getattr(arr, "shape", (len(arr), len(arr[0])))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of kzsketch that the benchmark reports."""
    import pathlib

    from kzsketch import anglelab, cli, codec, coloring, coreset, distsim, geometry

    t = tracer

    def kernel(_result, args):
        (n, d), (k, _) = _shape(args[0]), _shape(args[1])
        t.count("geometry.kernel_calls")
        t.count("geometry.kernel_pairdims", n * k * d)

    def coreset_sizes(result, args):
        t.count("coreset.points_in", args[0].n)
        t.count("coreset.points_out", result.size)

    def certificates(report, _args):
        t.count("coloring.certificates_passed",
                sum(1 for c in report["checks"] if c["pass"]))
        t.count("coloring.certificates_total", len(report["checks"]))

    t.wrap(codec, "encode", "codec.encode", lambda r, a: _count_sketch(t, r))
    t.wrap(codec.Sketch, "__init__", "codec.parse")
    t.wrap(codec.Sketch, "from_bytes", "codec.from_bytes",
           lambda r, a: _count_sketch(t, r))
    t.wrap(codec.Sketch, "decode", "codec.decode")
    t.wrap(codec.Sketch, "estimate_cost", "codec.estimate")
    t.wrap(geometry, "min_powered_distances", "geometry.kernel", kernel)
    t.wrap(geometry, "nearest_assignment", "geometry.kernel", kernel)
    t.wrap(coreset, "approx_centers", "coreset.approx_centers")
    t.wrap(coreset, "build_coreset", "coreset.build_coreset", coreset_sizes)
    t.wrap(distsim.StreamState, "push", "distsim.push")
    t.wrap(distsim.StreamState, "_flush_block", "distsim.flush",
           lambda r, a: t.count("distsim.blocks"))
    t.wrap(distsim.StreamState, "_reduce_level0", "distsim.reduce",
           lambda r, a: t.count("distsim.reductions"))
    t.wrap(distsim, "run_coordinator", "distsim.coordinator",
           lambda r, a: t.count("distsim.comm_bits", r[1].total_bits))
    t.wrap(distsim, "run_stream", "distsim.stream",
           lambda r, a: t.count("distsim.stream_resident_bits", r.max_resident_bits))
    t.wrap(anglelab, "sample_haar_basis", "anglelab.haar")
    t.wrap(anglelab, "orthogonal_complement_basis", "anglelab.complement")
    t.wrap(anglelab, "principal_angles", "anglelab.principal_angles")
    t.wrap(coloring, "find_partial_coloring", "coloring.search",
           lambda r, a: t.count("coloring.restarts", r.restarts_used))
    t.wrap(coloring, "separation_witness", "coloring.witness")
    t.wrap(cli, "run_lowerbound_pipeline", "cli.lowerbound", certificates)
    t.wrap(cli, "_load_dataset", "cli.load")
    t.wrap(geometry, "load_centers_csv", "cli.load")
    t.wrap(anglelab, "load_basis", "cli.load")
    t.wrap(pathlib.Path, "read_bytes", "cli.load")
