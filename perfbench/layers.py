"""Per-layer self time of one traced leg, measured from outside the program.

A traced leg runs the pipeline with ``telemetry=`` enabled, which records
the program's own spans (``operator.work``/``operator.batch`` per operator,
SU unfolding, traversal, ledger seal and the process/cluster coordinator
phases).  :class:`Recorder` adds spans around public entry points of the
layers telemetry does not cover -- GeneaLog hooks, MU, codec, ledger ingest
and plan serialisation -- and a ``gc.callbacks`` span for each collection.
All of them use ``time.perf_counter``, the telemetry tracer's clock, so the
two sets nest on one timeline.

Self time is a span's duration minus the part its child spans cover.  The
leg's ``run()`` call is the root; its own self time is ``other``, so the
self times of all rows sum to the leg's wall time.  Only spans of this
process enter the tree: workers of ``execution="process"``/``"cluster"``
record on their own lanes, which :func:`worker_busy_s` sums separately.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.multi_unfolder import MUOperator
from repro.provstore import ProvenanceLedger
from repro.spe import cluster
from repro.spe.codec import BinaryChannelDecoder, BinaryChannelEncoder

#: telemetry span kind -> layer (operator spans are keyed per operator).
TELEMETRY_LAYERS = {
    "provenance.unfold": "core.su_unfold",
    "provenance.traversal": "core.traversal",
    "ledger.seal": "provstore.seal",
    "process.collect": "process.collect",
    "process.apply": "process.apply",
    "cluster.plan": "cluster.plan",
    "cluster.wire": "cluster.wire",
    "cluster.collect": "cluster.collect",
    "cluster.apply": "cluster.apply",
}
OPERATOR_KINDS = ("operator.work", "operator.batch")

#: GeneaLog's per-tuple instrumentation hooks (section 4 of the paper).
GL_HOOKS = (
    "on_source_output",
    "on_map_output",
    "on_multiplex_output",
    "on_join_output",
    "on_aggregate_output",
    "on_send",
    "on_receive",
)

#: (owner, attribute, layer) of every wrapped entry point.
WRAPPED = (
    [(GeneaLogProvenance, hook, "core.gl_hook") for hook in GL_HOOKS]
    + [
        (MUOperator, "process_tuple", "core.mu"),
        (BinaryChannelEncoder, "encode_batch", "codec.encode"),
        (BinaryChannelDecoder, "decode_batch", "codec.decode"),
        (ProvenanceLedger, "ingest", "provstore.ingest"),
    ]
)

Span = Tuple[float, float, str, int]  # start, end, layer, count


@dataclass
class LayerTable:
    """Self time, inclusive time and count per layer of one traced leg."""

    wall_s: float
    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    spans: int = 0
    dropped: bool = False

    def layer(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def prefixed(self, prefix: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def rows(self) -> List[Tuple[str, float, float, int, float]]:
        """(layer, self_s, total_s, count, share of wall), largest self first."""
        wall = self.wall_s or 1.0
        return sorted(
            (
                (name, s, self.total_s.get(name, 0.0), self.counts.get(name, 0), s / wall)
                for name, s in self.self_s.items()
            ),
            key=lambda row: -row[1],
        )

    def format(self) -> str:
        lines = [f"{'layer':<40} {'self_s':>10} {'total_s':>10} {'count':>10} {'share':>7}"]
        for name, s, total, count, share in self.rows():
            lines.append(f"{name:<40} {s:>10.6f} {total:>10.6f} {count:>10d} {share:>6.1%}")
        lines.append(f"{'wall':<40} {self.wall_s:>10.6f}")
        if self.dropped:
            lines.append("WARNING: the telemetry ring evicted spans; the table is incomplete")
        return "\n".join(lines)


class Recorder:
    """Wraps layer entry points and the collector for one traced leg.

    Spans go into flat ``array`` columns rather than a list of tuples: an
    array stores floats unboxed and allocates no object the cyclic
    collector tracks, so recording does not add collections of its own to
    the ``gc.pause`` row it measures.
    """

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.codes = array("H")
        self.gen2 = 0
        self.plan_bytes = 0
        self._gc_started = 0.0
        self._gc_code = self._code("gc.pause")

    def _code(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, function, layer: str):
        code = self._code(layer)
        clock = time.perf_counter
        starts, ends, codes = self.starts.append, self.ends.append, self.codes.append

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                starts(started)
                ends(clock())
                codes(code)

        return wrapper

    def _serialize_plan(self, function):
        timed = self._wrap(function, "plan.serialize")

        @functools.wraps(function)
        def wrapper(obj):
            data = timed(obj)
            self.plan_bytes += len(data)
            return data

        return wrapper

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.starts.append(self._gc_started)
        self.ends.append(time.perf_counter())
        self.codes.append(self._gc_code)
        if info.get("generation") == 2:
            self.gen2 += 1

    @contextlib.contextmanager
    def instrument(self):
        """Install every wrapper and the GC callback; restore them on exit."""
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in WRAPPED]
        saved_plan = cluster.serialize_plan
        try:
            for owner, name, layer in WRAPPED:
                setattr(owner, name, self._wrap(owner.__dict__[name], layer))
            cluster.serialize_plan = self._serialize_plan(saved_plan)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            cluster.serialize_plan = saved_plan
            for owner, name, original in saved:
                setattr(owner, name, original)

    def table(self, telemetry, started: float, ended: float) -> LayerTable:
        """The self-time table of the run that lasted ``[started, ended]``."""
        layers = self.layers
        spans = [
            (start, end, layers[code], 1)
            for start, end, code in zip(self.starts, self.ends, self.codes)
        ]
        tracer = telemetry.tracer
        for kind, name, _node, start, duration, count in tracer.events:
            if kind in OPERATOR_KINDS:
                spans.append((start, start + duration, f"spe.op.{name}", 0))
            elif kind in TELEMETRY_LAYERS:
                layer = TELEMETRY_LAYERS[kind]
                # an SU span counts the tuples it unfolded; the others count once
                spans.append(
                    (start, start + duration, layer, count if layer == "core.su_unfold" else 1)
                )
        table = self_times(spans, started, ended)
        table.dropped = len(tracer.events) >= tracer.capacity
        return table


def self_times(spans: List[Span], started: float, ended: float) -> LayerTable:
    """Partition ``[started, ended]`` among properly nested ``spans``.

    A span's self time is its duration minus the time its direct children
    cover; whatever no span covers is the root's self time, ``other``.
    Zero-length spans (instant events) and spans outside the root are
    ignored; a child that overruns its parent by clock rounding is clipped.
    """
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    kept = sorted(
        (s for s in spans if s[1] > s[0] and s[1] > started and s[0] < ended),
        key=lambda s: (s[0], -s[1]),
    )
    # stack entries: [start, end, layer, covered-by-children]
    stack: List[list] = [[started, ended, "other", 0.0]]

    def close(entry) -> None:
        duration = entry[1] - entry[0]
        self_s[entry[2]] += duration - entry[3]
        total_s[entry[2]] += duration

    for start, end, layer, count in kept:
        while len(stack) > 1 and stack[-1][1] <= start:
            close(stack.pop())
        parent = stack[-1]
        start = max(start, parent[0])
        end = min(end, parent[1])
        parent[3] += end - start
        counts[layer] += count
        stack.append([start, end, layer, 0.0])
    while stack:
        close(stack.pop())
    return LayerTable(
        wall_s=ended - started,
        self_s=dict(self_s),
        total_s=dict(total_s),
        counts=dict(counts),
        spans=len(kept),
    )


def worker_busy_s(telemetry) -> float:
    """Operator time recorded by worker processes (process/cluster workers).

    The merged timeline holds this process's spans plus the buffers workers
    shipped home; the difference is the workers' share.
    """
    merged = sum(s.duration_s for s in telemetry.spans() if s.kind == "operator.work")
    local = sum(e[4] for e in telemetry.tracer.events if e[0] == "operator.work")
    return merged - local
