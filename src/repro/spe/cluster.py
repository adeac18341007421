"""Cluster runtime: SPE instances as worker daemons on separate hosts.

The paper deploys GeneaLog across distinct machines (Odroid boards on a
switch); the :class:`~repro.spe.multiprocess.MultiprocessRuntime` gets as far
as separate *processes* on one machine, inheriting everything through
``fork``.  This module removes the shared-memory crutch entirely: instances
run inside **worker daemons** that may live anywhere reachable over TCP, and
everything they need -- the lowered plan, the channel wiring, the results --
travels over sockets.

Topology
--------
One **coordinator** (:class:`ClusterRuntime`, selected with
``Pipeline(execution="cluster", hosts=...)``) and one worker daemon per host
(spawnable as ``python -m repro.spe.cluster --serve host:port``, or
in-process for tests and single-machine runs).  Per run, the coordinator
opens one control connection per SPE instance and drives a five-step
session:

1. **plan** -- the instance is serialised with
   :mod:`repro.spe.plan` (closures ship by value) and sent together with a
   Python/format version stamp, which the worker checks before unpickling.
2. **ready** -- the worker deserialises the plan, opens an ephemeral *data
   listener*, and reports its ``host:port`` back.
3. **wire** -- the coordinator assembles the channel map (every channel is
   consumed by exactly one instance; its worker's data listener is that
   channel's address) and broadcasts it.  Each worker connects one data
   socket per *outgoing* channel -- announcing the channel name in a hello
   frame -- while its listener accepts and binds one socket per *incoming*
   channel.  Channels cross hosts as length-prefixed frames carrying the
   same serialised payloads the pipe transport ships
   (:class:`~repro.spe.sockets.SocketTransport`).
4. **start** -- once every worker reports **wired**, the coordinator starts
   them all.  Each worker drives its instance with the event-driven
   :class:`~repro.spe.scheduler.Scheduler`, parking on a selector over its
   consumer data sockets (plus the control socket, so a stop request
   interrupts an idle worker) exactly as the multiprocess workers park on
   their pipes.
5. **result** -- at quiescence the worker ships the same result document the
   multiprocess workers ship (sink streams, worker-measured latencies,
   per-operator / per-channel counters, traversal samples); the coordinator
   replays it into the coordinator-side objects via
   :mod:`repro.spe.shipping`, so callbacks, provenance collectors and
   ledger taps observe exactly the stream they would have seen locally.

Determinism and failure follow the multiprocess contract: every instance
still consumes its inputs in timestamp-merged order, so sinks are
byte-identical to ``execution="event"``; a worker that raises (or whose
control socket reaches EOF mid-run -- a dead daemon) makes the coordinator
stop every other worker immediately and re-raise the *first* failure.
"""

from __future__ import annotations

import argparse
import gc
import logging
import pickle
import selectors
import socket
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.spe.errors import ChannelError, SchedulingError, SerializationError
from repro.spe.instance import SPEInstance
from repro.spe.plan import (
    check_plan_version,
    deserialize_plan,
    plan_version,
    serialize_plan,
)
from repro.spe.runtime import _RuntimeBase
from repro.spe.scheduler import Scheduler
from repro.spe.shipping import (
    apply_instance_result,
    collect_result,
    prepare_sinks,
    require_unique_channel_names,
    restore_sinks,
    strip_sinks,
)
from repro.spe.sockets import (
    FrameDecoder,
    SocketTransport,
    connect_with_retry,
    encode_frame,
    recv_frame,
    send_frame,
)

#: how long an idle worker parks on its selector before re-checking state.
_WAIT_TIMEOUT_S = 0.05

logger = logging.getLogger(__name__)

#: how long the wire step waits for every inbound data socket to appear.
_WIRE_TIMEOUT_S = 30.0

#: address of a worker daemon.
Address = Tuple[str, int]


# -- control-plane codec -----------------------------------------------------
#
# Control messages (plans, channel maps, result documents) are pickled --
# they carry arbitrary Python payloads (the plan bytes, shipped sink events)
# -- and framed exactly like the data plane.  The *plan bytes inside* are the
# version-checked part; the envelope itself uses a protocol both ends of any
# supported interpreter pair can read.

_CONTROL_PICKLE_PROTOCOL = 4


def _encode_control(tag: str, body) -> bytes:
    return encode_frame(pickle.dumps((tag, body), protocol=_CONTROL_PICKLE_PROTOCOL))


def _decode_control(payload: bytes) -> Tuple[str, object]:
    try:
        tag, body = pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(f"malformed control frame: {exc}") from exc
    return tag, body


def _send_control(sock: socket.socket, tag: str, body) -> None:
    send_frame(sock, _encode_control(tag, body))


def _recv_control(sock: socket.socket, decoder: FrameDecoder) -> Optional[Tuple[str, object]]:
    frame = recv_frame(sock, decoder)
    if frame is None:
        return None
    return _decode_control(frame)


def parse_address(text: str) -> Address:
    """Parse a ``host:port`` string (the CLI / ``hosts=`` syntax).

    Raises :class:`ValueError` (naming the offending text) on anything a
    socket could not bind or connect to later: missing/empty host or port,
    a non-numeric port, or a port outside 0-65535.
    """
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"expected 'host:port', got {text!r}")
    port_number = int(port)
    if port_number > 65535:
        raise ValueError(
            f"port {port_number} of {text!r} is out of range (expected 0-65535)"
        )
    return host, port_number


# -- the worker --------------------------------------------------------------

class _DataListener:
    """A worker's inbound data endpoint: accepts producers, binds channels.

    Listens on an ephemeral port; every accepted connection announces which
    channel it carries in a hello frame (``("h", channel_name)``), after
    which the socket is handed to that channel's
    :class:`~repro.spe.sockets.SocketTransport` consumer side.  Accepting
    runs in a daemon thread so producers connecting early (while this worker
    is still wiring its own outputs) are never refused.
    """

    def __init__(self, host: str) -> None:
        self._listener = socket.create_server((host, 0))
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._accepted: Dict[str, socket.socket] = {}
        self._condition = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"spe-data-{self._port}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Address:
        return self._host, self._port

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                message = _recv_control(sock, FrameDecoder("data-hello"))
            except Exception:
                sock.close()
                continue
            if message is None or message[0] != "h":
                sock.close()
                continue
            with self._condition:
                if self._closed:
                    sock.close()
                    return
                self._accepted[str(message[1])] = sock
                self._condition.notify_all()

    def wait_for(self, channel_names: Sequence[str], timeout_s: float) -> Dict[str, socket.socket]:
        """Block until a producer connected for every named channel."""
        deadline = time.monotonic() + timeout_s
        with self._condition:
            while not all(name in self._accepted for name in channel_names):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = [n for n in channel_names if n not in self._accepted]
                    raise ChannelError(
                        f"data listener on {self._host}:{self._port} never "
                        f"heard from the producer(s) of channel(s) {missing!r} "
                        f"within {timeout_s} seconds"
                    )
                self._condition.wait(timeout=min(remaining, 0.25))
            return {name: self._accepted[name] for name in channel_names}

    def close(self) -> None:
        with self._condition:
            self._closed = True
            leftovers = list(self._accepted.values())
            self._accepted.clear()
        for sock in leftovers:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


class _WorkerSession:
    """One coordinator-to-worker session: plan, wire, run, ship the result."""

    def __init__(self, control: socket.socket, host: str, collect_after: bool = False) -> None:
        self._control = control
        self._host = host
        self._collect_after = collect_after
        self._decoder = FrameDecoder("worker-control")
        self._instance: Optional[SPEInstance] = None
        self._listener: Optional[_DataListener] = None
        self._producer_socks: List[socket.socket] = []
        self._consumer_socks: List[socket.socket] = []

    # -- protocol steps ----------------------------------------------------
    def run(self) -> None:
        try:
            self._handle_plan()
            self._handle_wire()
            self._handle_start()
        except _StopRequested:
            name = self._instance.name if self._instance is not None else "?"
            try:
                _send_control(self._control, "stopped", {"instance": name})
            except OSError:  # coordinator already gone
                pass
        except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
            name = self._instance.name if self._instance is not None else "?"
            try:
                _send_control(
                    self._control,
                    "error",
                    {
                        "instance": name,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    },
                )
            except OSError:  # coordinator already gone
                pass
        finally:
            if self._collect_after:
                self._await_hangup()
            self.close()
            if self._collect_after:
                gc.collect()

    def _await_hangup(self) -> None:
        """Block until the coordinator closes the control connection.

        The coordinator hangs up once every worker of the run has reported,
        so a collection started afterwards cannot steal CPU from a sibling
        worker still finishing its part of the run.
        """
        try:
            self._control.settimeout(_WIRE_TIMEOUT_S)
            while self._control.recv(1 << 16):
                pass
        except OSError:  # timeout, reset or already closed: stop waiting
            pass

    def _expect(self, expected: str):
        message = _recv_control(self._control, self._decoder)
        if message is None:
            raise ChannelError(
                f"coordinator hung up before sending {expected!r}"
            )
        tag, body = message
        if tag == "stop":
            raise _StopRequested()
        if tag != expected:
            raise SerializationError(
                f"protocol error: expected {expected!r}, got {tag!r}"
            )
        return body

    def _handle_plan(self) -> None:
        body = self._expect("plan")
        check_plan_version(body.get("version"))
        self._instance = deserialize_plan(body["plan"])
        self._max_passes = int(body.get("max_passes", 10_000_000))
        logger.debug(
            "session on %s: received plan for instance %r (%d bytes)",
            self._host,
            self._instance.name,
            len(body["plan"]),
        )
        self._listener = _DataListener(self._host)
        host, port = self._listener.address
        _send_control(
            self._control,
            "ready",
            {"instance": self._instance.name, "data_host": host, "data_port": port},
        )

    def _handle_wire(self) -> None:
        body = self._expect("wire")
        addresses: Dict[str, Tuple[str, int]] = {
            name: (host, port) for name, (host, port) in body["channels"].items()
        }
        instance = self._instance
        # Outgoing: connect one data socket per Send channel and announce it.
        for send in instance.sends():
            channel = send.channel
            host, port = addresses[channel.name]
            sock = connect_with_retry(
                host, port, what=f"data listener of channel {channel.name!r}"
            )
            _send_control(sock, "h", channel.name)
            channel.transport.attach_producer(sock)
            self._producer_socks.append(sock)
        # Incoming: the listener thread accepted the producers' connections.
        incoming = [receive.channel for receive in instance.receives()]
        accepted = self._listener.wait_for(
            [channel.name for channel in incoming], _WIRE_TIMEOUT_S
        )
        for channel in incoming:
            sock = accepted[channel.name]
            channel.transport.attach_consumer(sock)
            self._consumer_socks.append(sock)
        _send_control(self._control, "wired", {"instance": instance.name})

    def _poll_stop(self) -> bool:
        """Non-blocking check for a coordinator stop (or a dead coordinator)."""
        try:
            data = self._control.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True
        if not data:
            return True  # coordinator gone: stop quietly
        for frame in self._decoder.feed(data):
            if _decode_control(frame)[0] == "stop":
                return True
        return False

    def _handle_start(self) -> None:
        body = self._expect("start")
        instance = self._instance
        taps = prepare_sinks(instance)
        scheduler = Scheduler(instance, max_passes=self._max_passes)
        # The start body opts this worker into telemetry: the deserialised
        # instance builds its *own* tracer (plan-shipped objects never carry
        # one) and ships the ring home inside the result document.
        telemetry_options = (body or {}).get("telemetry")
        if telemetry_options:
            from repro.obs.telemetry import enable_worker_telemetry

            enable_worker_telemetry(
                instance, scheduler, int(telemetry_options.get("capacity", 0))
            )
        logger.debug("session on %s: starting instance %r", self._host, instance.name)
        # The control socket joins the park selector so a stop request (or a
        # dead coordinator) interrupts an idle worker immediately.
        self._control.setblocking(False)
        selector = selectors.DefaultSelector()
        selector.register(self._control, selectors.EVENT_READ, None)
        waitable: Dict[socket.socket, object] = {}
        for receive in instance.receives():
            transport = receive.channel.transport
            if isinstance(transport, SocketTransport):
                sock = transport.consumer_socket
                waitable[sock] = receive
                selector.register(sock, selectors.EVENT_READ, receive)
        passes = 0
        stopped = False
        try:
            while True:
                progressed = scheduler.step()
                passes += 1
                if scheduler.finished:
                    break
                if self._poll_stop():
                    stopped = True
                    break
                if progressed or scheduler.has_ready_work:
                    continue
                if not waitable:
                    raise SchedulingError(
                        f"instance {instance.name!r} made no progress before completion"
                    )
                # Park on the data sockets: a frame from an upstream worker
                # makes its socket readable, and signalling the Receive puts
                # it on this scheduler's ready queue.  Closed channels are
                # unregistered (a drained EOF would stay readable forever).
                for key, _ in selector.select(timeout=_WAIT_TIMEOUT_S):
                    receive = key.data
                    if receive is not None:
                        receive.signal()
                for sock, receive in list(waitable.items()):
                    if receive.channel.closed:
                        selector.unregister(sock)
                        del waitable[sock]
        finally:
            selector.close()
            self._control.setblocking(True)
        if stopped:
            logger.info("session on %s: instance %r stopped", self._host, instance.name)
            _send_control(self._control, "stopped", {"instance": instance.name})
            return
        logger.debug(
            "session on %s: instance %r finished after %d passes",
            self._host,
            instance.name,
            passes,
        )
        _send_control(
            self._control, "ok", collect_result(instance, scheduler, passes, taps)
        )

    def close(self) -> None:
        # Drop the plan: the worker's accept loop keeps a reference to the
        # last session object until the next coordinator connects.
        self._instance = None
        if self._listener is not None:
            self._listener.close()
        for sock in self._producer_socks + self._consumer_socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        try:
            self._control.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


class _StopRequested(Exception):
    """The coordinator asked this worker to stop before it started."""


class ClusterWorker:
    """A worker daemon: serves SPE instances shipped by a coordinator.

    Listens on ``host:port`` (an ephemeral port when ``port=0``) and handles
    each control connection in its own thread, so one daemon can host
    several instances of one run -- or several runs.  Start it standalone
    with ``python -m repro.spe.cluster --serve host:port``, or in-process
    via :meth:`start` (what ``hosts=None`` does for every instance).

    A standalone daemon owns its process, so it frees each finished plan
    with a full collection once the coordinator hangs up:
    :func:`~repro.spe.plan.deserialize_plan` pauses the collector and a
    plan's operator graph is cyclic, so without it finished plans would
    pile up from run to run.  An in-process worker shares its caller's
    heap and leaves collection to the caller.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port))
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        #: set by :func:`main` only: collect garbage after every session.
        self._collect_after_session = False

    @property
    def address(self) -> Address:
        return self._host, self._port

    def serve_forever(self) -> None:
        """Accept coordinator sessions until :meth:`close` (blocking)."""
        while True:
            try:
                control, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            control.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _WorkerSession(control, self._host, self._collect_after_session)
            threading.Thread(
                target=session.run,
                name=f"spe-session-{self._port}",
                daemon=True,
            ).start()

    def start(self) -> "ClusterWorker":
        """Serve in a daemon thread (the in-process worker mode); return self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"spe-worker-{self._port}", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


# -- the coordinator ---------------------------------------------------------

class _InstanceSession:
    """Coordinator-side handle of one instance's worker session."""

    __slots__ = ("instance", "address", "sock", "decoder", "outcome", "data_address")

    def __init__(self, instance: SPEInstance, address: Address) -> None:
        self.instance = instance
        self.address = address
        self.sock: Optional[socket.socket] = None
        self.decoder = FrameDecoder("coordinator-control")
        #: ("ok" | "error" | "stopped" | "died", document) once known.
        self.outcome: Optional[Tuple[str, Dict]] = None
        self.data_address: Optional[Address] = None


class ClusterRuntime(_RuntimeBase):
    """Runs a distributed deployment on worker daemons over TCP.

    ``hosts`` selects where the instances run:

    * ``None`` (the default) -- one in-process :class:`ClusterWorker` per
      instance on a loopback ephemeral port.  Everything still crosses real
      TCP sockets and the plans are really serialised; only the daemons'
      process boundary is elided.  This is the test / single-machine mode.
    * a list of ``"host:port"`` strings (or ``(host, port)`` tuples) --
      instances are assigned round-robin over the daemons.
    * a dict ``instance name -> "host:port"`` -- explicit placement.

    Every inter-instance channel must be backed by a
    :class:`~repro.spe.sockets.SocketTransport` (the
    :class:`~repro.api.pipeline.Pipeline` builds them that way under
    ``execution="cluster"``).
    """

    def __init__(
        self,
        instances: List[SPEInstance],
        hosts: Union[None, Sequence, Dict[str, object]] = None,
        timeout_s: float = 300.0,
        max_rounds: int = 10_000_000,
        round_callback=None,
        callback_every: int = 16,
        connect_retries: int = 10,
        connect_backoff_s: float = 0.05,
        telemetry=None,
    ) -> None:
        super().__init__(instances)
        #: the run's :class:`repro.obs.telemetry.Telemetry` (None = off);
        #: each worker records its own spans (opted in through the start
        #: body), the coordinator records the plan/wire/collect/apply
        #: phases, and the shipped buffers merge on apply.
        self.telemetry = telemetry
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.connect_backoff_s = connect_backoff_s
        self.max_rounds = max_rounds
        self.round_callback = round_callback
        self.callback_every = max(1, callback_every)
        self.rounds = 0
        self._wakeups = 0
        self.sessions: List[_InstanceSession] = []
        #: instance name -> shipped result document (after a successful run).
        self.results: Dict[str, Dict] = {}
        self._own_workers: List[ClusterWorker] = []
        self._hosts = hosts
        self._validate_hosts()
        require_unique_channel_names(self.channels(), "cluster")
        for channel in self.channels():
            if not isinstance(channel.transport, SocketTransport):
                raise SchedulingError(
                    f"channel {channel.name!r} is not socket-backed; build "
                    "the deployment with socket transports (e.g. "
                    "Pipeline(execution='cluster'))"
                )

    # -- placement ---------------------------------------------------------
    @staticmethod
    def _as_address(value) -> Address:
        if isinstance(value, str):
            return parse_address(value)
        try:
            host, port = value
            address = str(host), int(port)
        except (TypeError, ValueError):
            raise ValueError(f"expected 'host:port' or (host, port), got {value!r}") from None
        if not address[0] or not 0 <= address[1] <= 65535:
            raise ValueError(
                f"invalid worker address {value!r} (expected a non-empty host "
                "and a port in 0-65535)"
            )
        return address

    def _validate_hosts(self) -> None:
        """Reject malformed ``hosts=`` entries up front, naming the offender.

        Without this the first bad entry would surface mid-run as a raw
        ``ValueError`` from address parsing (or an ``OSError`` from the
        socket layer), after workers have already been spawned.
        """
        if self._hosts is None:
            return
        entries = (
            self._hosts.items()
            if isinstance(self._hosts, dict)
            else enumerate(self._hosts)
        )
        for key, value in entries:
            try:
                self._as_address(value)
            except ValueError as exc:
                where = (
                    f"hosts[{key!r}]" if isinstance(self._hosts, dict) else f"hosts[{key}]"
                )
                raise SchedulingError(f"invalid worker address at {where}: {exc}") from None

    def _assign_addresses(self) -> Dict[str, Address]:
        """Instance name -> worker daemon address (spawning local ones if needed)."""
        if self._hosts is None:
            addresses = {}
            for instance in self.instances:
                worker = ClusterWorker().start()
                self._own_workers.append(worker)
                addresses[instance.name] = worker.address
            return addresses
        if isinstance(self._hosts, dict):
            missing = [i.name for i in self.instances if i.name not in self._hosts]
            if missing:
                raise SchedulingError(
                    f"hosts mapping does not place instance(s) {missing!r}"
                )
            return {
                instance.name: self._as_address(self._hosts[instance.name])
                for instance in self.instances
            }
        pool = [self._as_address(value) for value in self._hosts]
        if not pool:
            raise SchedulingError("hosts must name at least one worker daemon")
        return {
            instance.name: pool[index % len(pool)]
            for index, instance in enumerate(self.instances)
        }

    # -- execution ---------------------------------------------------------
    def run(self) -> int:
        """Run every instance to quiescence; return the worker pass count."""
        for instance in self.instances:
            instance.validate()
        addresses = self._assign_addresses()
        self.sessions = [
            _InstanceSession(instance, addresses[instance.name])
            for instance in self.instances
        ]
        saved_sinks = {
            session.instance.name: strip_sinks(session.instance)
            for session in self.sessions
        }
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        start_body = (
            {"telemetry": {"capacity": telemetry.config.capacity}}
            if telemetry is not None
            else None
        )

        def _phase(name: str, step) -> None:
            if tracer is None:
                step()
                return
            started = tracer.clock()
            step()
            tracer.record(name, "workers", started)

        try:
            _phase("cluster.plan", self._ship_plans)
            _phase("cluster.wire", self._wire_channels)
            for session in self.sessions:
                _send_control(session.sock, "start", start_body)
            _phase("cluster.collect", self._collect)
        finally:
            self._shutdown()
            for session in self.sessions:
                restore_sinks(session.instance, saved_sinks[session.instance.name])
        self._raise_on_failure()
        _phase("cluster.apply", self._apply_results)
        return self.rounds

    def _ship_plans(self) -> None:
        version = plan_version()
        for session in self.sessions:
            host, port = session.address
            try:
                session.sock = connect_with_retry(
                    host,
                    port,
                    retries=self.connect_retries,
                    backoff_s=self.connect_backoff_s,
                    what=f"cluster worker for instance {session.instance.name!r}",
                )
            except ChannelError as exc:
                raise SchedulingError(
                    f"cannot deploy instance {session.instance.name!r}: {exc}"
                ) from exc
            _send_control(
                session.sock,
                "plan",
                {
                    "version": version,
                    "instance": session.instance.name,
                    "plan": serialize_plan(session.instance),
                    "max_passes": self.max_rounds,
                },
            )
        for session in self.sessions:
            tag, body = self._await(session, ("ready",))
            session.data_address = (body["data_host"], body["data_port"])

    def _wire_channels(self) -> None:
        # A channel is consumed by exactly one instance; its worker's data
        # listener is the channel's inbound address.
        consumer_of: Dict[str, _InstanceSession] = {}
        for session in self.sessions:
            for channel in session.instance.incoming_channels():
                consumer_of[channel.name] = session
        channel_map = {
            name: list(session.data_address) for name, session in consumer_of.items()
        }
        for session in self.sessions:
            _send_control(session.sock, "wire", {"channels": channel_map})
        for session in self.sessions:
            self._await(session, ("wired",))

    def _await(self, session: _InstanceSession, expected: Tuple[str, ...]):
        """Block on one session's next control message; errors raise at once."""
        deadline = time.monotonic() + self.timeout_s
        session.sock.settimeout(self.timeout_s)
        try:
            message = _recv_control(session.sock, session.decoder)
        except (OSError, ChannelError) as exc:
            raise SchedulingError(
                f"cluster worker of instance {session.instance.name!r} at "
                f"{session.address[0]}:{session.address[1]} went away during "
                f"setup: {exc}"
            ) from exc
        finally:
            session.sock.settimeout(None)
        if message is None:
            raise SchedulingError(
                f"cluster worker of instance {session.instance.name!r} at "
                f"{session.address[0]}:{session.address[1]} hung up during setup"
            )
        tag, body = message
        if tag == "error":
            session.outcome = (tag, body)
            raise SchedulingError(
                f"instance {body.get('instance', session.instance.name)!r} "
                f"failed: {body.get('error')}\n{body.get('traceback', '')}"
            )
        if tag not in expected:
            raise SchedulingError(
                f"protocol error from instance {session.instance.name!r}: "
                f"expected one of {expected!r}, got {tag!r}"
            )
        if time.monotonic() > deadline:  # pragma: no cover - settimeout covers it
            raise SchedulingError(
                f"instance {session.instance.name!r} setup exceeded "
                f"{self.timeout_s} seconds"
            )
        return tag, body

    def _collect(self) -> None:
        """Wait for every worker's result (or death), within the deadline."""
        deadline = time.monotonic() + self.timeout_s
        selector = selectors.DefaultSelector()
        pending: Dict[socket.socket, _InstanceSession] = {}
        for session in self.sessions:
            session.sock.setblocking(False)
            selector.register(session.sock, selectors.EVENT_READ, session)
            pending[session.sock] = session
        collected = 0
        failed = False
        try:
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                for key, _ in selector.select(timeout=min(remaining, 0.25)):
                    session = key.data
                    if session.sock not in pending:
                        continue
                    outcome = self._read_outcome(session)
                    if outcome is None:
                        continue
                    session.outcome = outcome
                    selector.unregister(session.sock)
                    del pending[session.sock]
                    collected += 1
                    if self.round_callback is not None:
                        self.round_callback(collected)
                    if outcome[0] in ("error", "died") and not failed:
                        # Fail fast: stop the healthy workers instead of
                        # letting them park until the deadline masks the
                        # real failure.
                        logger.warning(
                            "worker of instance %r reported %s; stopping the "
                            "deployment",
                            session.instance.name,
                            outcome[0],
                        )
                        failed = True
                        self._broadcast_stop(exclude=session)
        finally:
            selector.close()
            for session in self.sessions:
                if session.sock is not None:
                    try:
                        session.sock.setblocking(True)
                    except OSError:
                        pass

    def _read_outcome(self, session: _InstanceSession) -> Optional[Tuple[str, Dict]]:
        """Drain one session's control socket; return its outcome if final."""
        while True:
            try:
                data = session.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return None
            except OSError:
                return ("died", {"instance": session.instance.name})
            if not data:
                return ("died", {"instance": session.instance.name})
            for frame in session.decoder.feed(data):
                tag, body = _decode_control(frame)
                if tag in ("ok", "error", "stopped"):
                    return (tag, body)

    def _broadcast_stop(self, exclude: Optional[_InstanceSession] = None) -> None:
        for session in self.sessions:
            if session is exclude or session.sock is None or session.outcome is not None:
                continue
            try:
                _send_control(session.sock, "stop", None)
            except OSError:
                pass

    def _shutdown(self) -> None:
        self._broadcast_stop()
        for session in self.sessions:
            if session.sock is not None:
                try:
                    session.sock.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        for worker in self._own_workers:
            worker.close()
        self._own_workers = []

    def _raise_on_failure(self) -> None:
        errors = [s for s in self.sessions if s.outcome and s.outcome[0] == "error"]
        if errors:
            session = errors[0]
            document = session.outcome[1]
            raise SchedulingError(
                f"instance {document['instance']!r} failed: {document['error']}\n"
                f"{document.get('traceback', '')}"
            )
        died = [s for s in self.sessions if s.outcome and s.outcome[0] == "died"]
        if died:
            session = died[0]
            raise SchedulingError(
                f"instance {session.instance.name!r} cluster worker at "
                f"{session.address[0]}:{session.address[1]} died without a result"
            )
        unfinished = [
            s for s in self.sessions if s.outcome is None or s.outcome[0] == "stopped"
        ]
        if unfinished:
            names = [s.instance.name for s in unfinished]
            raise SchedulingError(
                f"instance(s) {names!r} did not finish within {self.timeout_s} seconds"
            )

    # -- result application ------------------------------------------------
    def _apply_results(self) -> None:
        """Copy shipped counters / sink streams onto the coordinator objects."""
        by_channel = {channel.name: channel for channel in self.channels()}
        for session in self.sessions:
            document = session.outcome[1]
            self.results[session.instance.name] = document
            self.rounds += document["passes"]
            self._wakeups += document["wakeups"]
            apply_instance_result(
                session.instance, document, by_channel, telemetry=self.telemetry
            )

    # -- introspection -------------------------------------------------------
    def total_wakeups(self) -> int:
        """Operator wake-ups summed over all worker schedulers."""
        return self._wakeups

    @property
    def finished(self) -> bool:
        """True once every worker shipped a successful result."""
        return bool(self.sessions) and all(
            session.outcome is not None and session.outcome[0] == "ok"
            for session in self.sessions
        )


def run_cluster(
    instances: List[SPEInstance],
    hosts=None,
    timeout_s: float = 300.0,
) -> ClusterRuntime:
    """Convenience wrapper: build a :class:`ClusterRuntime`, run it, return it."""
    runtime = ClusterRuntime(instances, hosts=hosts, timeout_s=timeout_s)
    runtime.run()
    return runtime


# -- CLI ---------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spe.cluster",
        description="Run a cluster worker daemon that serves SPE instances.",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        required=True,
        help="bind address of the worker daemon (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="stdlib logging threshold of the daemon (default: info)",
    )
    options = parser.parse_args(argv)
    try:
        host, port = parse_address(options.serve)
    except ValueError as exc:
        parser.error(f"argument --serve: {exc}")
    # The daemon logs to stdout so supervisors (and the coordinator spawning
    # it) read one stream; the serving banner below is the line they parse
    # for the bound (possibly ephemeral) port.
    logging.basicConfig(
        level=getattr(logging, options.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stdout,
        force=True,
    )
    worker = ClusterWorker(host, port)
    worker._collect_after_session = True
    bound_host, bound_port = worker.address
    logger.info("cluster worker serving on %s:%d", bound_host, bound_port)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        worker.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    raise SystemExit(main())
