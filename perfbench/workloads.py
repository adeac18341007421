"""The benchmark's named workloads: inputs, deployments and output checks.

Every workload replays a timestamp-ordered input, generated from the seed
with :mod:`repro.workloads`, at maximum rate (closed loop): the program gets
a plain list and its pull-based Source draws 512-tuple batches from it.  A
run mutates its input tuples (wall stamp, provenance metadata), so each leg
gets a fresh copy of the generated list, made outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Pipeline
from repro.core.traversal import find_provenance
from repro.provstore import ProvenanceLedger
from repro.spe.tuples import StreamTuple
from repro.workloads import (
    LinearRoadConfig,
    LinearRoadGenerator,
    SmartGridConfig,
    SmartGridGenerator,
    query_dataflow,
    query_placement,
)

#: Linear Road input: cars x simulated seconds (one report per car per 30 s).
LR_CARS = 200
LR_DURATION_S = 4 * 3600.0
#: Smart Grid input: meters x days (one reading per meter per hour).
SG_METERS = 100
SG_DAYS = 14


@dataclass(frozen=True)
class Workload:
    """One named workload: a paper query, a technique and a deployment."""

    name: str
    query: str
    #: "lr" (Linear Road reports) or "sg" (Smart Grid readings).
    data: str
    provenance: str
    #: False = one SPE instance, True = the paper's three-instance placement.
    inter: bool
    execution: str
    ledger: bool = False

    @property
    def genealog(self) -> bool:
        return self.provenance == "genealog"


#: The four workloads; BENCHMARK.json and README.md say why each was chosen.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lr-q1-gl-intra-ledger", "q1", "lr", "genealog", False, "event", ledger=True),
        Workload("sg-q4-gl-inter", "q4", "sg", "genealog", True, "event"),
        Workload("lr-q1-gl-process", "q1", "lr", "genealog", True, "process"),
        Workload("lr-q1-np-cluster", "q1", "lr", "none", True, "cluster"),
    )
}


def input_size(workload: Workload, scale: float = 1.0) -> Dict[str, float]:
    """The generator parameters of ``workload`` at ``scale`` (1.0 = full size)."""
    if workload.data == "lr":
        return {"cars": max(10, int(LR_CARS * scale)), "duration_s": LR_DURATION_S}
    return {"meters": max(10, int(SG_METERS * scale)), "days": SG_DAYS}


def generate_input(workload: Workload, seed: int, scale: float = 1.0) -> List[StreamTuple]:
    """The timestamp-ordered input of ``workload`` for ``seed``."""
    size = input_size(workload, scale)
    if workload.data == "lr":
        config = LinearRoadConfig(
            n_cars=int(size["cars"]), duration_s=size["duration_s"], seed=seed
        )
        return list(LinearRoadGenerator(config))
    config = SmartGridConfig(n_meters=int(size["meters"]), n_days=int(size["days"]), seed=seed)
    return list(SmartGridGenerator(config))


def fresh_copy(tuples: Sequence[StreamTuple]) -> List[StreamTuple]:
    """Pristine copies of ``tuples``: no wall stamp, no provenance metadata."""
    return [StreamTuple(t.ts, t.values) for t in tuples]


def make_pipeline(
    workload: Workload,
    supplier,
    hosts: Optional[Sequence[str]] = None,
    telemetry=None,
    provenance: Optional[str] = None,
    execution: Optional[str] = None,
    inter: Optional[bool] = None,
) -> Pipeline:
    """The workload's pipeline over ``supplier``.

    ``validate="off"``: the benchmark calls :meth:`Pipeline.analyze` itself
    during set-up, so :meth:`Pipeline.run` times execution only.  The keyword
    overrides build the in-process NP reference of the same query.
    """
    provenance = workload.provenance if provenance is None else provenance
    execution = workload.execution if execution is None else execution
    inter = workload.inter if inter is None else inter
    store = ProvenanceLedger() if workload.ledger and provenance != "none" else None
    return Pipeline(
        query_dataflow(workload.query, supplier),
        provenance=provenance,
        placement=query_placement(workload.query) if inter else None,
        execution=execution,
        hosts=list(hosts) if execution == "cluster" else None,
        provenance_store=store,
        telemetry=telemetry,
        validate="off",
    )


# -- output checks ------------------------------------------------------------

Row = Tuple[float, str]


def _row(ts: float, values: Dict) -> Row:
    return ts, repr(sorted(values.items()))


def sink_rows(result) -> List[Row]:
    """The sink tuples of a run, as sorted comparable rows."""
    return sorted(_row(t.ts, t.values) for t in result.sink.received)


def reference_rows(workload: Workload, base: Sequence[StreamTuple]) -> List[Row]:
    """Sink rows of an in-process NP event run of the same query and input."""
    copy = fresh_copy(base)
    result = make_pipeline(
        workload, lambda: copy, provenance="none", execution="event", inter=False
    ).run()
    return sink_rows(result)


def check_leg(workload: Workload, result, expected: List[Row]) -> List[str]:
    """Every way the leg's output differs from the reference; empty when right."""
    problems = []
    rows = sink_rows(result)
    if rows != expected:
        problems.append(f"sink has {len(rows)} tuples, reference {len(expected)}, or they differ")
    if not workload.genealog:
        return problems
    records = result.provenance_records()
    if any(not record.sources for record in records):
        problems.append("an alert has an empty provenance record")
    record_rows = sorted(_row(r.sink_ts, r.sink_values) for r in records)
    if record_rows != rows:
        problems.append(f"{len(records)} provenance records for {len(rows)} alerts")
    store = result.store
    if store is not None:
        for alert in result.sink.received:
            stored = sorted(_row(e.ts, e.values) for e in store.sources_of(alert))
            traversed = sorted(_row(s.ts, s.values) for s in find_provenance(alert))
            if not stored or stored != traversed:
                problems.append(f"ledger disagrees with find_provenance for alert at ts={alert.ts}")
                break
    return problems
