"""Plan serialisation: shipping a lowered SPE instance to a cluster worker.

The :class:`~repro.spe.cluster.ClusterRuntime` coordinator builds the whole
deployment locally (instances, operators, streams, channels) and then ships
each :class:`~repro.spe.instance.SPEInstance` to the worker daemon that will
run it.  Unlike the :class:`~repro.spe.multiprocess.MultiprocessRuntime`,
which forks and therefore never serialises anything, a cluster worker may be
a *fresh* Python process on another host -- the plan must actually travel.

Standard :mod:`pickle` almost suffices: operators, streams, tuples and
transports are ordinary classes importable on the worker.  What it refuses
are exactly the things stream pipelines are full of:

* **lambdas and closures** -- map functions, filter predicates, key
  extractors, source suppliers.  Pickle only ships functions *by reference*
  (module + qualname); anything defined inside another function has no
  importable name.  :class:`_PlanPickler` ships such functions **by value**:
  the code object is serialised with :mod:`marshal`, together with the
  globals it actually references (collected recursively over nested code
  objects), its closure cell contents, defaults and attributes, and rebuilt
  on the worker with :class:`types.FunctionType`.  The rebuild is split into
  a skeleton + state fix-up (the 6-element reduce protocol) so recursive
  closures and cyclic globals survive.
* **locks** -- every :class:`~repro.spe.channels.Channel` carries a
  :class:`threading.Lock`.  A lock's identity is meaningless across hosts;
  the worker gets a fresh one.
* **modules** -- a closure may capture an imported module; it is shipped as
  an import-by-name.

:mod:`marshal` bytecode is specific to the Python feature release, so every
plan is stamped with :func:`plan_version` and the worker rejects mismatches
up front (:func:`check_plan_version`) with an error naming both versions --
far better than a corrupt-bytecode crash mid-run.

Functions importable by qualified name still travel by reference (smaller,
and the worker's copy of library code wins), with one exception: anything
living in ``__main__``, whose namespace differs between coordinator and
daemon, goes by value too.

Plans are tuple-heavy: a source supplier closing over its input list ships
every :class:`~repro.spe.tuples.StreamTuple` inside the plan, so two costs
that are noise for an ordinary object graph dominate here:

* **per-tuple reduction** -- :class:`_PlanPickler` reduces a ``StreamTuple``
  itself, in the one ``reducer_override`` call pickle makes anyway, instead
  of declining and letting :mod:`copyreg` build a slot-state dict.  The
  reduce has the state form (:func:`_new_tuple` builds an empty tuple,
  :func:`_set_tuple_state` applies ``(ts, values, meta, wall, order_key)``),
  so a tuple is memoised before its state is pickled: shared tuples stay
  shared and ``meta`` cycles round-trip.  The encoding differs from format
  1, hence ``PLAN_FORMAT_VERSION = 2``.
* **cyclic GC** -- unpickling hundreds of thousands of containers with the
  collector on triggers repeated full collections that find nothing to free.
  :func:`serialize_plan` and :func:`deserialize_plan` pause it and restore
  the caller's state afterwards, also on error.  The pause is counted, so
  concurrent (de)serialisations on several threads -- a worker daemon runs
  one session per thread -- still end with the collector enabled, and a
  caller that had disabled it finds it disabled.
"""

from __future__ import annotations

import builtins
import contextlib
import gc
import importlib
import io
import marshal
import pickle
import sys
import threading
import types
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.spe.errors import SerializationError
from repro.spe.tuples import StreamTuple

#: bumped when the plan encoding changes shape (2: StreamTuple state reduce).
PLAN_FORMAT_VERSION = 2

#: pickle protocol for plans (5 carries the 6-element reduce everywhere we run).
_PLAN_PICKLE_PROTOCOL = 5

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())


def plan_version() -> List[int]:
    """The compatibility stamp shipped with every plan."""
    return [sys.version_info[0], sys.version_info[1], PLAN_FORMAT_VERSION]


def check_plan_version(version: Optional[Sequence[int]]) -> None:
    """Reject a plan produced by an incompatible coordinator.

    :mod:`marshal` bytecode does not survive a Python feature-release
    boundary, so a 3.11 coordinator cannot feed a 3.12 worker.
    """
    if list(version or ()) != plan_version():
        raise SerializationError(
            f"plan version {list(version or ())!r} is incompatible with this "
            f"worker's {plan_version()!r} (Python major.minor and plan format "
            "must match; marshal'd bytecode is version-specific)"
        )


# -- by-value function shipping ---------------------------------------------

def _referenced_globals(code: types.CodeType) -> Set[str]:
    """Every global name ``code`` (or a function nested in it) may load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_globals(const)
    return names


def _importable_by_name(func: types.FunctionType) -> bool:
    """True when the worker can recover ``func`` by importing its qualname."""
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module_name or not qualname:
        return False
    if module_name == "__main__" or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj: object = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is func


def _make_function_skeleton(
    code_bytes: bytes, name: str, qualname: str, module: str, n_cells: int
) -> types.FunctionType:
    """Rebuild a shipped function's shell; state is fixed up afterwards.

    The two-phase rebuild (skeleton first, then :func:`_set_function_state`)
    lets pickle memoise the function before its globals and cells are
    populated, so recursive closures and functions whose globals point back
    at themselves round-trip.
    """
    code = marshal.loads(code_bytes)
    cells = tuple(types.CellType() for _ in range(n_cells))
    namespace = {"__builtins__": builtins}
    func = types.FunctionType(code, namespace, name, None, cells)
    func.__qualname__ = qualname
    func.__module__ = module
    return func


def _set_function_state(func: types.FunctionType, state: Dict[str, Any]) -> None:
    """Second phase of the rebuild: install globals, cells, defaults, attrs."""
    func.__globals__.update(state["globals"])
    func.__defaults__ = state["defaults"]
    func.__kwdefaults__ = state["kwdefaults"]
    for cell, (filled, value) in zip(func.__closure__ or (), state["cells"]):
        if filled:
            cell.cell_contents = value
    func.__dict__.update(state["dict"])


def _reduce_function_by_value(func: types.FunctionType) -> Tuple[Any, ...]:
    code = func.__code__
    func_globals = func.__globals__
    shipped_globals = {
        name: func_globals[name]
        for name in sorted(_referenced_globals(code))
        if name in func_globals
    }
    cells = []
    for cell in func.__closure__ or ():
        try:
            cells.append((True, cell.cell_contents))
        except ValueError:  # an empty cell (still-unbound recursive name)
            cells.append((False, None))
    try:
        code_bytes = marshal.dumps(code)
    except ValueError as exc:  # pragma: no cover - marshal limits
        raise SerializationError(
            f"cannot ship function {func.__qualname__!r} by value: {exc}"
        ) from exc
    state = {
        "globals": shipped_globals,
        "defaults": func.__defaults__,
        "kwdefaults": func.__kwdefaults__,
        "cells": tuple(cells),
        "dict": dict(func.__dict__),
    }
    return (
        _make_function_skeleton,
        (code_bytes, func.__name__, func.__qualname__, func.__module__, len(cells)),
        state,
        None,
        None,
        _set_function_state,
    )


# -- stream tuples ----------------------------------------------------------

def _new_tuple() -> StreamTuple:
    """First phase of a shipped tuple's rebuild: an empty, memoisable shell."""
    return StreamTuple.__new__(StreamTuple)


def _set_tuple_state(tup: StreamTuple, state: Tuple[Any, Any, Any, Any, Any]) -> None:
    """Second phase: install ``(ts, values, meta, wall, order_key)``."""
    tup.ts, tup.values, tup.meta, tup.wall, tup.order_key = state


class _PlanPickler(pickle.Pickler):
    """Pickler that additionally ships closures, locks and modules.

    Pickle consults :meth:`reducer_override` for every non-builtin object,
    and plans hold far more stream tuples than anything else, so the tuple
    test comes first and answers with a complete reduce.
    """

    def reducer_override(self, obj: Any) -> Any:
        if type(obj) is StreamTuple:
            return (
                _new_tuple,
                (),
                (obj.ts, obj.values, obj.meta, obj.wall, obj.order_key),
                None,
                None,
                _set_tuple_state,
            )
        if isinstance(obj, types.FunctionType):
            if _importable_by_name(obj):
                return NotImplemented  # by reference, the normal way
            return _reduce_function_by_value(obj)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, _LOCK_TYPE):
            return (threading.Lock, ())
        if isinstance(obj, _RLOCK_TYPE):
            return (threading.RLock, ())
        return NotImplemented


# -- the GC pause -----------------------------------------------------------

_gc_lock = threading.Lock()
#: (de)serialisations currently running, on any thread.
_gc_pauses = 0
#: whether the collector was enabled when the first running pause began.
_gc_was_enabled = False


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep the cyclic collector off while the block runs.

    The collector is process-wide, so the pause is too: the first of
    several overlapping pauses records the caller's setting and the last
    one to finish restores it.
    """
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if _gc_pauses == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if _gc_pauses == 0 and _gc_was_enabled:
                gc.enable()


def serialize_plan(obj: Any) -> bytes:
    """Serialise a lowered plan (or any value) for shipping to a worker."""
    buffer = io.BytesIO()
    try:
        with _gc_paused():
            _PlanPickler(buffer, protocol=_PLAN_PICKLE_PROTOCOL).dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SerializationError(f"cannot serialise the plan: {exc}") from exc
    return buffer.getvalue()


def deserialize_plan(data: bytes) -> Any:
    """Inverse of :func:`serialize_plan` (call :func:`check_plan_version` first)."""
    try:
        with _gc_paused():
            return pickle.loads(data)
    except Exception as exc:
        raise SerializationError(f"cannot deserialise the plan: {exc}") from exc
