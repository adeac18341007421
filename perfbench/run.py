"""GeneaLog benchmark: run one named workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload lr-q1-gl-intra-ledger --seed 1 --seconds 28 --trace 0

A run generates the workload's input from ``--seed``, computes the expected
output with an in-process no-provenance run of the same query, then runs
*legs* -- one ``Pipeline.run()`` over a fresh copy of the input each --
until ``--seconds`` have passed, checking every leg's output.  Set-up time
is measured in fresh interpreters (``setup_probe.py``) spread over the run.
End-to-end times are reported at a reference host speed (``hostspeed.py``).

* ``--trace 0`` runs untraced legs and reports the end-to-end metrics.
* ``--trace 1`` alternates untraced and traced legs and reports per-layer
  metrics from the traced leg of median wall time (see ``layers.py``); it
  writes that leg's layer table and Chrome trace under ``perfbench/out/``.

Every metric is printed by name with its unit; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--scale``
shrinks the input for smoke tests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import hygiene  # noqa: E402

try:
    import layers  # noqa: E402
    from repro.obs.telemetry import Telemetry, TelemetryConfig  # noqa: E402
    from workloads import (  # noqa: E402
        WORKLOADS,
        check_leg,
        fresh_copy,
        generate_input,
        input_size,
        make_pipeline,
        reference_rows,
    )
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")

#: fresh interpreters timed per run for ``setup_s``, spread over the run.
SETUP_PROBES = 6
#: legs measured at least, whatever ``--seconds`` says.
MIN_LEGS = 3
#: a leg that runs longer than this fails (and is stopped).
LEG_TIMEOUT_S = 60.0
#: no leg or probe starts after this, so a hanging program still ends the
#: run well within three minutes.
HARD_STOP_S = 100.0
#: span ring of a traced leg: large enough that nothing is evicted.
TRACE_CAPACITY = 4_000_000

END_TO_END = {
    "throughput_tps": "tuples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "analysis.analyze_s": "s",
    "api.build_s": "s",
    "sink.latency_p50_ms": "ms",
    "sink.latency_p90_ms": "ms",
    "sink.alerts": "count",
    "spe.operator_self_s": "s",
    "spe.wakeups": "count",
    "spe.worker_busy_s": "s",
    "spe.channel_bytes": "B",
    "spe.channel_tuples": "count",
    "spe.wire_bytes_per_tuple": "B/tuple",
    "core.gl_hook_calls": "count",
    "core.gl_hook_s": "s",
    "core.su_unfold_s": "s",
    "core.su_unfolded": "count",
    "core.traversal_s": "s",
    "core.traversals": "count",
    "core.mu_s": "s",
    "core.mu_tuples": "count",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.blobs": "count",
    "provstore.ingest_s": "s",
    "provstore.ingested": "count",
    "provstore.seal_s": "s",
    "provstore.query_s": "s",
    "provstore.query_p50_us": "us",
    "provstore.query_p99_us": "us",
    "process.collect_s": "s",
    "process.apply_s": "s",
    "plan.serialize_s": "s",
    "plan.bytes": "B",
    "cluster.plan_s": "s",
    "cluster.wire_s": "s",
    "cluster.collect_s": "s",
    "cluster.apply_s": "s",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "gc.gen2": "count",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.host_slowdown": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Leg:
    """The outcome of one leg."""

    traced: bool
    wall_s: float = 0.0
    tuples: int = 0
    latencies_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: peak RSS summed over the worker processes this leg forked (KiB).
    children_kb: int = 0
    #: host slowdown against the reference host around this leg.
    slowdown: float = 1.0
    # traced legs only
    result: object = None
    recorder: Optional[layers.Recorder] = None
    table: Optional[layers.LayerTable] = None
    telemetry: Optional[Telemetry] = None

    @property
    def completed(self) -> bool:
        return self.wall_s > 0.0

    @property
    def throughput(self) -> float:
        return self.tuples / self.wall_s


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke tests)")
    return parser.parse_args(argv)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-1) of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_time(probe: Dict[str, float]) -> float:
    """Seconds of one probe's set-up: construct + analyze + build."""
    return probe["construct_s"] + probe["analyze_s"] + probe["build_s"]


def setup_probe(workload: str, seed: int, scale: float) -> Dict[str, float]:
    """Cold set-up phases of ``workload``, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(scale)],
        capture_output=True, text=True, timeout=30, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    hygiene.stop_on_sigterm()

    base = generate_input(workload, args.seed, args.scale)
    expected = reference_rows(workload, base)
    daemon_count = 2 if workload.execution == "cluster" else 0
    probes: List[Dict[str, float]] = []
    with hygiene.Daemons(daemon_count, ROOT, OUT / "daemons") as daemons:
        legs = run_legs(workload, base, expected, daemons.addresses, probes, args)
        daemon_kb = daemons.total_peak_kb()
    self_kb = hygiene.self_peak_kb()

    completed = [leg for leg in legs if leg.completed]
    failed = sum(1 for leg in legs if leg.problems)
    lines = [
        f"workload {workload.name}: {workload.query} {workload.provenance} "
        f"{'inter' if workload.inter else 'intra'} execution={workload.execution} "
        f"ledger={workload.ledger} seed={args.seed} input={input_size(workload, args.scale)} "
        f"tuples={len(base)} alerts={len(expected)}",
        f"legs_attempted = {len(legs)} count",
        f"legs_failed = {failed} count",
        f"setup_probes = {len(probes)} count",
    ]
    lines += [f"leg failed: {problem}" for leg in legs for problem in leg.problems]
    metrics: Dict[str, float] = {}
    if completed:
        lines += latency_lines(completed)
        if args.trace:
            metrics = layer_metrics(workload, legs, probes, lines)
        else:
            metrics = end_to_end_metrics(legs, probes, self_kb, daemon_kb, lines)
    units = PER_LAYER if args.trace else END_TO_END
    lines += [f"{name} = {metrics[name]:.9g} {unit}" for name, unit in units.items()
              if name in metrics]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(legs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


def run_legs(workload, base, expected, hosts, probes, args) -> List[Leg]:
    """Legs until ``args.seconds`` pass, with the set-up probes spread among
    them (and traced legs alternating with untraced ones under --trace 1)."""
    legs: List[Leg] = []
    started = time.perf_counter()
    elapsed = 0.0
    while elapsed < HARD_STOP_S and (
        len(legs) < MIN_LEGS * (2 if args.trace else 1) or elapsed < args.seconds
        or len(probes) < SETUP_PROBES
    ):
        if len(probes) < SETUP_PROBES and len(probes) <= elapsed / args.seconds * SETUP_PROBES:
            probes.append(setup_probe(workload.name, args.seed, args.scale))
        else:
            traced = bool(args.trace) and len(legs) % 2 == 1
            with hygiene.ChildPeaks() as children:
                leg = run_leg(workload, base, expected, hosts, traced)
            leg.children_kb = sum(kb for _, kb in children.reaped)
            legs.append(leg)
        elapsed = time.perf_counter() - started
    return legs


def run_leg(workload, base, expected, hosts, traced: bool) -> Leg:
    """One leg: build over a fresh input copy, time ``run()``, check the output.

    A leg that raises or overruns :data:`LEG_TIMEOUT_S` is counted as failed.
    """
    leg = Leg(traced=traced)
    data = fresh_copy(base)
    clock = time.perf_counter
    try:
        if traced:
            leg.telemetry = Telemetry(TelemetryConfig(capacity=TRACE_CAPACITY))
            leg.recorder = layers.Recorder()
        pipeline = make_pipeline(workload, lambda: data, hosts=hosts, telemetry=leg.telemetry)
        pipeline.build()
        gc.collect()
        before = hostspeed.probe()
        with hygiene.leg_deadline(LEG_TIMEOUT_S):
            if traced:
                with leg.recorder.instrument():
                    started = clock()
                    result = pipeline.run()
                    ended = clock()
            else:
                started = clock()
                result = pipeline.run()
                ended = clock()
        leg.slowdown = hostspeed.slowdown(before, hostspeed.probe())
        if traced:
            leg.table = leg.recorder.table(leg.telemetry, started, ended)
            leg.result = result
        leg.problems = check_leg(workload, result, expected)
        if result.store is not None:
            for alert in result.sink.received:
                began = clock()
                result.store.sources_of(alert)
                leg.query_s.append(clock() - began)
        leg.latencies_s = list(result.sink.latencies)
        leg.tuples = len(data)
        leg.wall_s = ended - started
    except Exception as exc:
        leg.problems = [f"{type(exc).__name__}: {exc}"]
    return leg


def latency_lines(completed: List[Leg]) -> List[str]:
    """Unscaled medians over legs and the latency sample count (not gated)."""
    samples = sum(len(leg.latencies_s) for leg in completed)
    lines = [
        f"latency_samples = {samples} count ({samples // len(completed)} per leg)",
        "unscaled median over legs: "
        f"throughput {statistics.median(leg.throughput for leg in completed):.1f} tuples/s, "
        f"host slowdown {statistics.median(leg.slowdown for leg in completed):.3f}",
    ]
    if samples:
        lines[-1] += (f", latency p50 {statistics.median(leg_latency(completed, 0.5)):.4f} ms"
                      f", p90 {statistics.median(leg_latency(completed, 0.9)):.4f} ms")
    return lines


def leg_latency(legs: List[Leg], q: float) -> List[float]:
    """Each leg's sink-latency percentile ``q``, in milliseconds."""
    return [percentile(leg.latencies_s, q) * 1e3 for leg in legs if leg.latencies_s]


def end_to_end_metrics(legs, probes, self_kb, daemon_kb, lines) -> Dict[str, float]:
    completed = [leg for leg in legs if leg.completed]
    children_kb = max(leg.children_kb for leg in legs)
    lines.append(
        f"peak_rss_kb: benchmark={self_kb} forked_workers={children_kb} daemons={daemon_kb}"
    )
    metrics = {
        "throughput_tps": statistics.median(leg.throughput * leg.slowdown for leg in completed),
        "peak_rss_mb": (self_kb + children_kb + daemon_kb) / 1024.0,
    }
    if probes:
        metrics["setup_s"] = statistics.median(setup_time(p) / p["slowdown"] for p in probes)
    return metrics


def layer_metrics(workload, legs, probes, lines) -> Dict[str, float]:
    untraced = [leg for leg in legs if leg.completed and not leg.traced]
    traced = sorted((leg for leg in legs if leg.completed and leg.traced), key=lambda l: l.wall_s)
    if not untraced or not traced or not probes:
        return {}
    leg = traced[(len(traced) - 1) // 2]
    table, result, counts = leg.table, leg.result, leg.table.counts
    snapshot = result.metrics()
    channel_bytes = sum(c.bytes_sent for c in snapshot.channels.values())
    channel_tuples = sum(c.tuples_sent for c in snapshot.channels.values())
    queries = [s for l in untraced for s in l.query_s]
    metrics = {
        "analysis.analyze_s": statistics.median(p["analyze_s"] / p["slowdown"] for p in probes),
        "api.build_s": statistics.median(p["build_s"] / p["slowdown"] for p in probes),
        "sink.latency_p50_ms": statistics.median(leg_latency(untraced, 0.5)),
        "sink.latency_p90_ms": statistics.median(leg_latency(untraced, 0.9)),
        "sink.alerts": float(result.sink.count),
        "spe.operator_self_s": table.prefixed("spe.op."),
        "spe.wakeups": float(result.wakeups),
        "spe.worker_busy_s": layers.worker_busy_s(leg.telemetry),
        "spe.channel_bytes": float(channel_bytes),
        "spe.channel_tuples": float(channel_tuples),
        "spe.wire_bytes_per_tuple": channel_bytes / leg.tuples,
        "core.gl_hook_calls": float(counts.get("core.gl_hook", 0)),
        "core.gl_hook_s": table.layer("core.gl_hook"),
        "core.su_unfold_s": table.layer("core.su_unfold"),
        "core.su_unfolded": float(counts.get("core.su_unfold", 0)),
        "core.traversal_s": table.layer("core.traversal"),
        "core.traversals": float(counts.get("core.traversal", 0)),
        "core.mu_s": table.layer("core.mu"),
        "core.mu_tuples": float(counts.get("core.mu", 0)),
        "codec.encode_s": table.layer("codec.encode"),
        "codec.decode_s": table.layer("codec.decode"),
        "codec.blobs": float(counts.get("codec.encode", 0) + counts.get("codec.decode", 0)),
        "provstore.ingest_s": table.layer("provstore.ingest"),
        "provstore.ingested": float(counts.get("provstore.ingest", 0)),
        "provstore.seal_s": table.layer("provstore.seal"),
        "provstore.query_s": sum(leg.query_s, 0.0),
        "provstore.query_p50_us": percentile(queries, 0.50) * 1e6 if queries else 0.0,
        "provstore.query_p99_us": percentile(queries, 0.99) * 1e6 if queries else 0.0,
        # The coordinator's phases follow one another through run(), so
        # they are reported inclusive of the codec and plan work inside them.
        "process.collect_s": table.total_s.get("process.collect", 0.0),
        "process.apply_s": table.total_s.get("process.apply", 0.0),
        "plan.serialize_s": table.layer("plan.serialize"),
        "plan.bytes": float(leg.recorder.plan_bytes),
        "cluster.plan_s": table.total_s.get("cluster.plan", 0.0),
        "cluster.wire_s": table.total_s.get("cluster.wire", 0.0),
        "cluster.collect_s": table.total_s.get("cluster.collect", 0.0),
        "cluster.apply_s": table.total_s.get("cluster.apply", 0.0),
        "gc.pause_s": table.layer("gc.pause"),
        "gc.collections": float(counts.get("gc.pause", 0)),
        "gc.gen2": float(leg.recorder.gen2),
        "other_s": table.layer("other"),
        "trace.wall_s": leg.wall_s,
        "trace.host_slowdown": leg.slowdown,
        "trace.overhead_pct": (
            statistics.median(l.throughput * l.slowdown for l in untraced)
            / (leg.throughput * leg.slowdown) - 1.0
        ) * 100.0,
    }
    write_layer_report(workload, leg, snapshot, lines)
    return metrics


def write_layer_report(workload, leg, snapshot, lines) -> None:
    """The traced leg's layer table, per-operator/channel counts and Chrome trace."""
    table = leg.table
    report = [f"traced leg of {workload.name}: wall {leg.wall_s:.6f} s, {table.spans} spans",
              table.format(), "", "operators:"]
    report += [f"  spe.op.{name}.tuples_out = {counters.tuples_out}"
               for name, counters in sorted(snapshot.operators.items())]
    report.append("channels:")
    report += [f"  spe.channel.{name}.bytes = {c.bytes_sent}  spe.channel.{name}.tuples = "
               f"{c.tuples_sent}" for name, c in sorted(snapshot.channels.items())]
    text = "\n".join(report)
    target = OUT / workload.name
    target.mkdir(parents=True, exist_ok=True)
    (target / "layers.txt").write_text(text + "\n")
    (target / "layers.json").write_text(json.dumps({
        "wall_s": table.wall_s,
        "rows": [dict(zip(("layer", "self_s", "total_s", "count", "share"), row))
                 for row in table.rows()],
    }, indent=1))
    (target / "trace.json").write_text(json.dumps(leg.telemetry.to_chrome_trace()))
    lines += [text, f"wrote {target.relative_to(ROOT)}/layers.txt, layers.json and trace.json"]


if __name__ == "__main__":
    raise SystemExit(main())
