"""Unit tests of plan serialisation: shipping closures, locks and modules.

Stream pipelines are full of objects the stdlib pickler refuses -- lambdas
used as map functions, closures over counters, channels holding locks.
:mod:`repro.spe.plan` must ship all of them to a cluster worker and rebuild
working equivalents, while keeping importable functions travelling by
reference (so library code is shared, not duplicated) and refusing plans
from an incompatible interpreter.  Plans are tuple-heavy, so stream tuples
get their own compact reduction, the cyclic collector is paused while a plan
is (de)serialised, and a standalone worker daemon frees every finished plan.
"""

from __future__ import annotations

import gc
import itertools
import json
import re
import sys
import threading
import time
import weakref

import pytest

from repro.api import Dataflow, Pipeline, Placement
from repro.spe.cluster import ClusterWorker
from repro.spe.errors import SerializationError
from repro.spe.plan import (
    PLAN_FORMAT_VERSION,
    _gc_paused,
    check_plan_version,
    deserialize_plan,
    plan_version,
    serialize_plan,
)
from repro.spe.tuples import StreamTuple


def roundtrip(obj):
    return deserialize_plan(serialize_plan(obj))


def module_level_helper(x):
    return x + 1


class TestByValueFunctions:
    def test_lambda(self):
        double = roundtrip(lambda x: x * 2)
        assert double(21) == 42

    def test_closure_with_state(self):
        def make():
            counter = itertools.count(7)

            def wall():
                return next(counter)

            return wall

        wall = roundtrip(make())
        assert (wall(), wall(), wall()) == (7, 8, 9)

    def test_recursive_closure(self):
        def make():
            def fact(n):
                return 1 if n <= 1 else n * fact(n - 1)

            return fact

        assert roundtrip(make())(5) == 120

    def test_closure_capturing_a_module(self):
        def make():
            def dump(value):
                return json.dumps(value, sort_keys=True)

            return dump

        assert roundtrip(make())({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_defaults_and_kwdefaults_survive(self):
        base = 10
        clone = roundtrip(lambda x, scale=3, *, offset=base: x * scale + offset)
        assert clone(2) == 16
        assert clone(2, scale=1, offset=0) == 2

    def test_nested_function_globals_are_collected(self):
        # the outer lambda never names the global itself; only the function
        # it *builds* does -- globals must be collected over nested code.
        def make():
            def outer():
                def inner(v):
                    return module_level_helper(v)

                return inner

            return outer

        assert roundtrip(make())()(41) == 42


class TestByReferenceFunctions:
    def test_importable_function_keeps_identity(self):
        assert roundtrip(json.dumps) is json.dumps
        assert roundtrip(module_level_helper) is module_level_helper


class TestAwkwardObjects:
    def test_locks_are_replaced_with_fresh_ones(self):
        lock = threading.Lock()
        lock.acquire()
        clone = roundtrip(lock)
        assert isinstance(clone, type(threading.Lock()))
        assert clone.acquire(blocking=False)  # fresh, not the held one

    def test_rlocks_are_replaced(self):
        clone = roundtrip(threading.RLock())
        assert clone.acquire(blocking=False)
        clone.release()

    def test_modules_ship_as_imports(self):
        assert roundtrip(json) is json

    def test_generator_objects_raise(self):
        with pytest.raises(SerializationError, match="cannot serialise"):
            serialize_plan((x for x in range(3)))


class TestVersionHandshake:
    def test_current_version_accepted(self):
        check_plan_version(plan_version())

    def test_python_minor_mismatch_rejected(self):
        other = [sys.version_info[0], sys.version_info[1] + 1, PLAN_FORMAT_VERSION]
        with pytest.raises(SerializationError, match="incompatible"):
            check_plan_version(other)

    def test_format_mismatch_rejected(self):
        other = [sys.version_info[0], sys.version_info[1], PLAN_FORMAT_VERSION + 1]
        with pytest.raises(SerializationError, match="incompatible"):
            check_plan_version(other)

    def test_missing_version_rejected(self):
        with pytest.raises(SerializationError, match="incompatible"):
            check_plan_version(None)

    def test_stale_format_rejected(self):
        # format 1 pickled StreamTuples through copyreg; a worker of either
        # format must refuse the other's plans up front.
        assert PLAN_FORMAT_VERSION >= 2
        stale = [sys.version_info[0], sys.version_info[1], PLAN_FORMAT_VERSION - 1]
        with pytest.raises(SerializationError, match=re.escape(f"{stale!r} is incompatible")):
            check_plan_version(stale)


class TestStreamTuples:
    def test_fields_round_trip(self):
        values = {"z": 1, "a": [2.5, None], "m": "x"}
        original = StreamTuple(8.5, values, meta=("m", 3), wall=12.25)
        original.order_key = (4, 1)
        clone = roundtrip(original)
        assert type(clone) is StreamTuple
        assert clone.ts == 8.5
        assert clone.values == original.values
        assert list(clone.values) == ["z", "a", "m"]  # key order kept
        assert clone.meta == ("m", 3)
        assert clone.wall == 12.25
        assert clone.order_key == (4, 1)

    def test_shared_tuple_stays_one_object(self):
        shared = StreamTuple(1.0, {"v": 1})
        clone = roundtrip({"left": [shared], "right": (shared,)})
        assert clone["left"][0] is clone["right"][0]

    def test_meta_cycle_round_trips(self):
        first = StreamTuple(1.0, {"v": 1})
        second = StreamTuple(2.0, {"v": 2}, meta=first)
        first.meta = second
        clone = roundtrip([first, second])
        assert clone[0].meta is clone[1]
        assert clone[1].meta is clone[0]
        assert (clone[0].values, clone[1].values) == ({"v": 1}, {"v": 2})

    def test_tuples_captured_by_a_closure(self):
        data = [StreamTuple(float(i), {"i": i}) for i in range(100)]
        supplier = roundtrip(lambda: data)
        assert [(t.ts, t.values) for t in supplier()] == [(t.ts, t.values) for t in data]


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture()
def gc_state():
    """Restore the collector's setting whatever a test does to it."""
    was_enabled = gc.isenabled()
    yield
    set_collector(was_enabled)


@pytest.mark.usefixtures("gc_state")
class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_serialise_restores_the_callers_setting(self, enabled):
        set_collector(enabled)
        serialize_plan([StreamTuple(1.0, {"v": 1})])
        assert gc.isenabled() is enabled
        with pytest.raises(SerializationError):
            serialize_plan((x for x in range(3)))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_deserialise_restores_the_callers_setting(self, enabled):
        data = serialize_plan([StreamTuple(1.0, {"v": 1})])
        set_collector(enabled)
        deserialize_plan(data)
        assert gc.isenabled() is enabled
        with pytest.raises(SerializationError):
            deserialize_plan(data[: len(data) // 2])
        assert gc.isenabled() is enabled

    def test_overlapping_pauses_end_enabled(self):
        # two sessions of one daemon deserialising at once, finishing in
        # either order: the collector stays off until the last one ends.
        gc.enable()
        first, second = _gc_paused(), _gc_paused()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled()


#: weak references to the tuples a worker's source produced (see below).
_SHIPPED = []


def _remember(tuples):
    """Importable by name, so a shipped closure calls *this* module's copy."""
    _SHIPPED.extend(weakref.ref(t) for t in tuples)
    return tuples


@pytest.mark.usefixtures("gc_state")
class TestDaemonFreesFinishedPlans:
    def test_no_object_of_a_finished_plan_survives(self):
        data = [StreamTuple(float(i), {"v": i}) for i in range(50)]
        dataflow = Dataflow("probe")
        dataflow.source("s", lambda: _remember(data)).sink("out")
        worker = ClusterWorker()
        worker._collect_after_session = True  # what ``--serve`` sets
        worker.start()
        _SHIPPED.clear()
        # With automatic collection off, only the worker's own collection
        # can free the shipped plan's (cyclic) operator graph.
        gc.disable()
        try:
            result = Pipeline(
                dataflow,
                execution="cluster",
                hosts=["%s:%d" % worker.address],
                # one instance: its session is the last one the worker
                # accepted, whose object outlives the session itself.
                placement=Placement({"spe": ["s", "out"]}),
            ).run()
            assert result.sink.count == 50
            assert len(_SHIPPED) == 50
            assert all(ref() is not t for ref, t in zip(_SHIPPED, data))
            deadline = time.monotonic() + 10.0
            while any(ref() is not None for ref in _SHIPPED):
                assert time.monotonic() < deadline, "the worker kept a finished plan alive"
                time.sleep(0.01)
        finally:
            worker.close()
