"""Tests of the benchmark itself, at smoke size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = ["--seconds", "0.3", "--scale", "0.05"]
IN_PROCESS = ("lr-q1-gl-intra-ledger", "sg-q4-gl-inter")
EXACT = ("sink.alerts", "spe.channel_bytes", "spe.channel_tuples", "spe.wakeups")


def run_bench(workload: str, trace: int, seed: int = 3, extra=SMOKE):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return {name: run_bench(name, 0) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: run_bench(name, 1) for name in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(untraced, workload):
    lines, result = untraced[workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.END_TO_END
    for name, unit in bench.END_TO_END.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
        assert result["metrics"][name]["value"] > 0
    assert any(line.startswith("legs_attempted = ") for line in lines)
    assert any(line.startswith("legs_failed = 0 ") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_per_layer_metric_is_printed_with_its_unit(traced, workload):
    lines, result = traced[workload]
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.PER_LAYER
    assert result["metrics"]["other_s"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_exact_metrics(traced, workload):
    _, first = traced[workload]
    _, second = run_bench(workload, 1)
    exact = ["sink.alerts", "plan.bytes"]
    if workload in IN_PROCESS:
        # process/cluster workers flush channel batches on their own timing,
        # so only the in-process runtimes repeat wire bytes and wake-ups.
        exact += ["spe.channel_bytes", "spe.channel_tuples", "spe.wakeups",
                  "spe.wire_bytes_per_tuple"]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_and_other_sum_to_the_wall(traced, workload):
    report = json.loads((bench.OUT / workload / "layers.json").read_text())
    total = sum(row["self_s"] for row in report["rows"])
    assert total == pytest.approx(report["wall_s"], rel=1e-9)
    assert any(row["layer"] == "other" for row in report["rows"])
    assert (bench.OUT / workload / "trace.json").stat().st_size > 0


def test_predicted_zeros(traced):
    def metric(workload, name):
        return traced[workload][1]["metrics"][name]["value"]

    for name in ("codec.encode_s", "codec.decode_s", "codec.blobs",
                 "plan.serialize_s", "plan.bytes", "spe.wire_bytes_per_tuple"):
        assert metric("lr-q1-gl-intra-ledger", name) == 0, name
    for workload in ("sg-q4-gl-inter", "lr-q1-gl-process"):
        assert metric(workload, "plan.serialize_s") == 0
        assert metric(workload, "plan.bytes") == 0
    assert metric("sg-q4-gl-inter", "codec.encode_s") > 0
    assert metric("sg-q4-gl-inter", "codec.decode_s") > 0
    assert metric("lr-q1-np-cluster", "plan.bytes") > 0


def test_self_times_partition_the_root():
    spans = [
        (1.0, 5.0, "a", 1),   # child of the root
        (2.0, 3.0, "b", 1),   # child of a
        (2.5, 2.6, "c", 1),   # child of b
        (5.0, 6.0, "b", 1),   # sibling of a
        (7.0, 7.0, "x", 1),   # instant: ignored
        (9.5, 11.0, "d", 1),  # overruns the root: clipped
    ]
    table = layers.self_times(spans, 0.0, 10.0)
    assert table.self_s["a"] == pytest.approx(3.0)
    assert table.self_s["b"] == pytest.approx(0.9 + 1.0)
    assert table.self_s["c"] == pytest.approx(0.1)
    assert table.self_s["d"] == pytest.approx(0.5)
    assert table.self_s["other"] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert sum(table.self_s.values()) == pytest.approx(10.0)
    assert "x" not in table.self_s


def _serving_daemons():
    pids = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if b"repro.spe.cluster" in cmdline and b"--serve" in cmdline:
                pids.add(int(entry.name))
    return pids


def test_interrupted_cluster_run_leaves_no_daemon():
    before = _serving_daemons()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "lr-q1-np-cluster",
         "--seed", "1", "--trace", "0", "--seconds", "60", "--scale", "0.05"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not _serving_daemons() - before and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _serving_daemons() - before, "the benchmark never started its daemons"
        time.sleep(1.0)
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode != 0
    assert not _serving_daemons() - before


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sg-q4-gl-inter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
