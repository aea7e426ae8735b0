"""The serving layer: protocol, dynamic batching, backpressure, shutdown.

Pins the ISSUE 8 contract:

* the wire protocol survives its edge cases — oversized frames are refused
  with a structured error (then the connection closes, the only safe
  resynchronisation), malformed JSON gets a structured error on a still-live
  connection, truncation raises instead of masquerading as a clean EOF;
  hypothesis-generated malformed frames and route fields each get their
  ``ERR_*`` code, and ``ping`` answers afterwards;
* responses are bit-identical to a local ``Session.route`` — dynamic
  batching is invisible except in the ``batch_size`` field;
* same-shape requests that queue up while the worker is busy coalesce into
  one megabatch kernel call; mismatched shapes fall through to the
  single-request path;
* the bounded queue sheds with an explicit ``queue-full`` response;
* a client disconnecting mid-batch never poisons its batch peers;
* shutdown drains: every request accepted before the signal is answered
  (in-process ``shutdown(drain=True)`` and the CLI's SIGTERM path both).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import RoutingMetrics
from repro.api import RunConfig, Session
from repro.api.registry import ROUTER_BACKENDS
from repro.serve import ServeClient, ServeDaemon, ServeError, run_poisson_load
from repro.serve import protocol
from repro.serve.batcher import DynamicBatcher, QueueFullError
from repro.serve.telemetry import ServeTelemetry


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def random_pis(n: int, count: int, seed: int = 7) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.permutation(n).astype(np.int64) for _ in range(count)]


class WorkerGate:
    """Holds the batcher's worker inside its first dispatch until released.

    Batching is natural — the worker takes what is already queued and never
    waits for more — so a test makes a batch by parking the worker on one
    request, queueing the batch behind it, then releasing.  ``dispatches``
    records the shape keys of every dispatch, i.e. what each ``_collect``
    took off the queue.
    """

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.dispatches: list[list[tuple]] = []
        original_dispatch = DynamicBatcher._dispatch

        def held_dispatch(batcher, items):
            self.dispatches.append([item.key for item in items])
            if not self.entered.is_set():
                self.entered.set()
                self.release.wait(timeout=10.0)
            return original_dispatch(batcher, items)

        monkeypatch.setattr(DynamicBatcher, "_dispatch", held_dispatch)

    def hold(self, daemon) -> threading.Thread:
        """Park the worker on one ``(d=4, g=4)`` request; returns its client."""

        def blocker():
            with ServeClient(*daemon.address, timeout=30.0) as client:
                try:
                    client.route(np.arange(16, dtype=np.int64), d=4, g=4)
                except ServeError:
                    pass  # only its place in the queue matters

        thread = threading.Thread(target=blocker)
        thread.start()
        assert self.entered.wait(timeout=10.0)
        return thread


@pytest.fixture
def gate(monkeypatch):
    held = WorkerGate(monkeypatch)
    yield held
    held.release.set()  # never leave a worker parked past its test


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_round_trip_and_clean_eof(self):
        a, b = socket.socketpair()
        with a, b:
            protocol.send_frame(a, {"op": "ping", "x": [1, 2, 3]})
            assert protocol.recv_frame(b) == {"op": "ping", "x": [1, 2, 3]}
            a.close()
            assert protocol.recv_frame(b) is None

    def test_oversized_announcement_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(protocol.FrameTooLargeError):
                protocol.recv_frame(b)

    def test_send_refuses_oversized_payload(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(protocol.FrameTooLargeError):
                protocol.send_frame(a, {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    @pytest.mark.parametrize("body", [b"{not json", b"[1, 2]", b"42"])
    def test_malformed_payload_raises_but_keeps_stream_aligned(self, body):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(protocol.MalformedFrameError):
                protocol.recv_frame(b)
            # The malformed frame was consumed exactly; the next frame parses.
            protocol.send_frame(a, {"op": "ping"})
            assert protocol.recv_frame(b) == {"op": "ping"}

    def test_truncation_mid_frame_is_not_a_clean_eof(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 100) + b"partial")
            a.close()
            with pytest.raises(ConnectionResetError):
                protocol.recv_frame(b)


# ---------------------------------------------------------------------------
# routing via the daemon


class TestRouteRequests:
    def test_metrics_bit_identical_to_local_session(self):
        with ServeDaemon() as daemon:
            local = Session(
                RunConfig(router_backend="euler-array", sim_backend="batched")
            )
            with ServeClient(*daemon.address) as client:
                for pi in random_pis(32, 3):
                    outcome = client.route(pi, d=8, g=4)
                    expected = local.route(pi, d=8, g=4)
                    assert outcome.metrics == expected
                    assert isinstance(outcome.metrics, RoutingMetrics)
                    assert outcome.batch_size == 1

    def test_request_naming_a_backend_is_refused(self):
        # The daemon routes with its own config's backend; a request naming
        # one (even that one) is refused, and the connection keeps serving.
        config = RunConfig(router_backend="konig", sim_backend="batched")
        pi = random_pis(16, 1)[0]
        with ServeDaemon(config) as daemon:
            with ServeClient(*daemon.address) as client:
                for backend in ("konig", "euler-array"):
                    with pytest.raises(ServeError) as excinfo:
                        client.request({
                            "op": "route", "pi": pi.tolist(), "d": 4, "g": 4,
                            "backend": backend,
                        })
                    assert excinfo.value.code == protocol.ERR_BAD_REQUEST
                    assert "'konig'" in excinfo.value.message
                    assert "serve --backend" in excinfo.value.message
                outcome = client.route(pi, d=4, g=4)
                assert outcome.metrics == Session(config).route(pi, d=4, g=4)

    def test_concurrent_same_shape_requests_coalesce(self, gate):
        n_clients = 4
        with ServeDaemon(max_batch=n_clients) as daemon:
            host, port = daemon.address
            pis = random_pis(32, n_clients)
            outcomes = [None] * n_clients

            def go(i):
                with ServeClient(host, port) as client:
                    outcomes[i] = client.route(pis[i], d=8, g=4)

            blocker = gate.hold(daemon)
            threads = [
                threading.Thread(target=go, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == n_clients)
            gate.release.set()
            for thread in [blocker, *threads]:
                thread.join(timeout=10.0)

            local = Session(
                RunConfig(router_backend="euler-array", sim_backend="batched")
            )
            for i, outcome in enumerate(outcomes):
                assert outcome is not None
                assert outcome.batch_size == n_clients
                assert outcome.metrics == local.route(pis[i], d=8, g=4)
            with ServeClient(host, port) as client:
                histogram = client.stats()["telemetry"]["batch_size_histogram"]
            assert histogram.get(str(n_clients)) == 1

    def test_mismatched_shapes_fall_through_to_single_path(self, gate):
        with ServeDaemon() as daemon:
            host, port = daemon.address
            outcomes = [None, None]
            requests = [(random_pis(32, 1)[0], 8, 4), (random_pis(16, 1, seed=3)[0], 4, 4)]

            def go(i):
                pi, d, g = requests[i]
                with ServeClient(host, port) as client:
                    outcomes[i] = client.route(pi, d=d, g=g)

            blocker = gate.hold(daemon)
            threads = [threading.Thread(target=go, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == 2)
            gate.release.set()
            for thread in [blocker, *threads]:
                thread.join(timeout=10.0)
            assert all(outcome is not None for outcome in outcomes)
            # Both rode one _collect, which split them by shape.
            assert sorted(gate.dispatches[1]) == [(4, 4), (8, 4)]
            assert [outcome.batch_size for outcome in outcomes] == [1, 1]
            assert outcomes[0].metrics.n == 32
            assert outcomes[1].metrics.n == 16


# ---------------------------------------------------------------------------
# protocol edge cases against the live daemon


class TestDaemonProtocolEdges:
    def _raw_connection(self, daemon) -> socket.socket:
        conn = socket.create_connection(daemon.address, timeout=5.0)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def test_malformed_json_gets_structured_error_and_connection_survives(self):
        with ServeDaemon() as daemon:
            with self._raw_connection(daemon) as conn:
                body = b"{definitely not json"
                conn.sendall(struct.pack(">I", len(body)) + body)
                response = protocol.recv_frame(conn)
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.ERR_MALFORMED_JSON
                # Connection still usable afterwards.
                protocol.send_frame(conn, {"op": "ping"})
                assert protocol.recv_frame(conn)["ok"] is True

    def test_oversized_frame_rejected_then_connection_closed(self):
        with ServeDaemon() as daemon:
            with self._raw_connection(daemon) as conn:
                conn.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
                response = protocol.recv_frame(conn)
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.ERR_OVERSIZED_FRAME
                # The daemon cannot resynchronise: it must hang up.
                assert protocol.recv_frame(conn) is None

    def test_unknown_op_and_bad_requests(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": "make-coffee"})
                assert excinfo.value.code == protocol.ERR_UNKNOWN_OP

                cases = [
                    {"op": "route", "pi": [0, 1], "d": 2, "g": 2},     # wrong length
                    {"op": "route", "pi": [0, 0, 1, 1], "d": 2, "g": 2},  # not a permutation
                    {"op": "route", "pi": "nope", "d": 2, "g": 2},     # not a list
                    {"op": "route", "pi": [0, 1, 2, 3], "d": 0, "g": 2},  # bad d
                    {"op": "route", "pi": [0, 1, 2, 3], "d": 2, "g": 2,
                     "backend": "no-such-backend"},
                    {"op": "route", "pi": [0, 1, 2, 3], "d": 2, "g": 2,
                     "backend": "euler-array"},  # no request names a backend
                    {"op": "route", "pi": [0.9, 1.2, 2.5, 3.1], "d": 2, "g": 2},  # floats
                    {"op": "route", "pi": ["1", "0", "3", "2"], "d": 2, "g": 2},  # strings
                    {"op": "route", "pi": [True, False], "d": 1, "g": 2},  # bools
                    {"op": "route", "pi": [True, False, 2, 3], "d": 2, "g": 2},
                ] + [
                    # JSON admits NaN/Infinity; Future.result cannot wait
                    # past threading.TIMEOUT_MAX.
                    {"op": "route", "pi": [0, 1, 2, 3], "d": 2, "g": 2,
                     "deadline_ms": deadline}
                    for deadline in (
                        float("nan"), float("inf"), float("-inf"), 1e300, 1e13,
                        0, -5, "100", True,
                    )
                ]
                for request in cases:
                    with pytest.raises(ServeError) as excinfo:
                        client.request(request)
                    assert excinfo.value.code == protocol.ERR_BAD_REQUEST, request
                # The connection survives every rejection.
                assert client.ping()


    def test_oversized_coloring_work_rejected_before_routing(self):
        # d = 3, g = 2048 pads to g(2g − d) = 8.4 M edge instances (~37 s and
        # 1.3 GB on the worker thread); the daemon refuses it at parse time.
        # Pad-free shapes colour only n instances and are never refused.
        big = np.random.default_rng(3).permutation(3 * 2048).tolist()
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address, timeout=30.0) as client:
                start = time.perf_counter()
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": "route", "pi": big, "d": 3, "g": 2048})
                assert time.perf_counter() - start < 1.0
                assert excinfo.value.code == protocol.ERR_BAD_REQUEST
                assert "edge instances" in str(excinfo.value)
                assert client.health()["status"] == "ok"
                pi = random_pis(21, 1)[0]
                outcome = client.route(pi, d=3, g=7)
                assert outcome.metrics == Session().route(pi, d=3, g=7)


#: Any JSON value, nested a little.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

#: One wrong value per route field: never a positive int for ``d``/``g``,
#: never a flat list of ints for ``pi``, never a number for ``deadline_ms``;
#: any ``backend`` at all, registered names included, since the daemon
#: routes with its own.
wrong_route_fields = st.one_of(
    *(
        st.tuples(
            st.just(name),
            (json_values | st.integers(max_value=0)).filter(
                lambda v: isinstance(v, bool) or not isinstance(v, int) or v < 1
            ),
        )
        for name in ("d", "g")
    ),
    st.tuples(
        st.just("pi"),
        json_values.filter(
            lambda v: not (
                isinstance(v, list) and all(type(x) is int for x in v)
            )
        ),
    ),
    st.tuples(
        st.just("backend"),
        json_values | st.sampled_from(sorted(ROUTER_BACKENDS.names())),
    ),
    st.tuples(
        st.just("deadline_ms"),
        json_values.filter(
            lambda v: v is not None
            and (isinstance(v, bool) or not isinstance(v, (int, float)))
        ),
    ),
)

ERROR_CODES = {
    getattr(protocol, name) for name in protocol.__all__ if name.startswith("ERR_")
}


class TestProtocolFuzz:
    """Generated malformed frames get a structured ``ERR_*`` answer, and the
    daemon keeps answering ``ping`` on a fresh connection afterwards."""

    @pytest.fixture(scope="class")
    def daemon(self):
        with ServeDaemon() as daemon:
            yield daemon

    def exchange(self, daemon, data: bytes) -> dict:
        """Send raw bytes on a fresh connection; return the one response."""
        with socket.create_connection(daemon.address, timeout=10.0) as conn:
            conn.sendall(data)
            response = protocol.recv_frame(conn)
        assert response is not None
        with ServeClient(*daemon.address) as client:
            assert client.ping()
        return response

    def assert_error(self, response: dict, code: str) -> None:
        assert response["ok"] is False
        assert response["error"]["code"] in ERROR_CODES
        assert response["error"]["code"] == code, response

    def send_request(self, daemon, request: dict) -> dict:
        body = json.dumps(request).encode("utf-8")
        return self.exchange(daemon, struct.pack(">I", len(body)) + body)

    @settings(max_examples=40, deadline=None)
    @given(body=st.binary(max_size=64))
    def test_random_bytes(self, daemon, body):
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
        assume(not isinstance(parsed, dict))
        response = self.exchange(daemon, struct.pack(">I", len(body)) + body)
        self.assert_error(response, protocol.ERR_MALFORMED_JSON)

    @settings(max_examples=30, deadline=None)
    @given(value=json_values.filter(lambda v: not isinstance(v, dict)))
    def test_non_object_json(self, daemon, value):
        body = json.dumps(value).encode("utf-8")
        response = self.exchange(daemon, struct.pack(">I", len(body)) + body)
        self.assert_error(response, protocol.ERR_MALFORMED_JSON)

    @settings(max_examples=60, deadline=None)
    @given(field=wrong_route_fields)
    def test_wrong_type_for_each_route_field(self, daemon, field):
        name, value = field
        request = {"op": "route", "pi": [1, 0, 3, 2], "d": 2, "g": 2}
        request[name] = value
        response = self.send_request(daemon, request)
        self.assert_error(response, protocol.ERR_BAD_REQUEST)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (1, 3), (3, 2)]),
        pi=st.lists(st.integers(0, 10), max_size=10),
    )
    def test_wrong_n(self, daemon, shape, pi):
        d, g = shape
        assume(len(pi) != d * g)
        response = self.send_request(daemon, {"op": "route", "pi": pi, "d": d, "g": g})
        self.assert_error(response, protocol.ERR_BAD_REQUEST)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (1, 3), (3, 2)]),
        data=st.data(),
    )
    def test_non_permutations(self, daemon, shape, data):
        d, g = shape
        n = d * g
        entries = st.integers(-3, n + 3) | st.integers(-(2**70), 2**70)
        pi = data.draw(st.lists(entries, min_size=n, max_size=n))
        assume(sorted(pi) != list(range(n)))
        response = self.send_request(daemon, {"op": "route", "pi": pi, "d": d, "g": g})
        self.assert_error(response, protocol.ERR_BAD_REQUEST)

    @settings(max_examples=10, deadline=None)
    @given(length=st.integers(protocol.MAX_FRAME_BYTES + 1, 2**32 - 1))
    def test_oversized_length_prefix(self, daemon, length):
        response = self.exchange(daemon, struct.pack(">I", length))
        self.assert_error(response, protocol.ERR_OVERSIZED_FRAME)

    @settings(max_examples=15, deadline=None)
    @given(body=st.binary(min_size=1, max_size=64), data=st.data())
    def test_truncated_frame(self, daemon, body, data):
        """A frame cut short by the client's half-close gets no answer (the
        sender is gone); the daemon hangs up and keeps serving."""
        sent = data.draw(st.integers(0, len(body) - 1))
        with socket.create_connection(daemon.address, timeout=10.0) as conn:
            conn.sendall(struct.pack(">I", len(body)) + body[:sent])
            conn.shutdown(socket.SHUT_WR)
            assert conn.recv(1) == b""
        with ServeClient(*daemon.address) as client:
            assert client.ping()


# ---------------------------------------------------------------------------
# natural batching: take what is queued, never wait for more


class TestNaturalBatching:
    @staticmethod
    def _batcher(**kwargs) -> DynamicBatcher:
        # Unstarted: the test drives ``_collect`` itself on a filled queue.
        return DynamicBatcher(
            Session(RunConfig(sim_backend="batched")), ServeTelemetry(), **kwargs
        )

    @staticmethod
    def _submit(batcher, count: int) -> None:
        for pi in random_pis(16, count):
            batcher.submit(pi, d=4, g=4)

    def test_collect_takes_the_backlog_up_to_max_batch(self):
        batcher = self._batcher(max_batch=3)
        self._submit(batcher, 5)
        gets: list[tuple[bool, float | None]] = []
        original_get = batcher._queue.get

        def recording_get(block=True, timeout=None):
            gets.append((block, timeout))
            return original_get(block, timeout)

        batcher._queue.get = recording_get  # get_nowait calls get(False)
        first, keep_running = batcher._collect()
        assert len(first) == 3 and keep_running
        assert gets == [(True, None), (False, None), (False, None)]
        # The rest is taken at once; an emptied queue ends the batch instead
        # of waiting for company.
        gets.clear()
        second, keep_running = batcher._collect()
        assert len(second) == 2 and keep_running
        assert gets == [(True, None), (False, None), (False, None)]
        assert batcher.queue_depth == 0
        assert all(item.t_collected >= item.t_submit for item in first + second)

    def test_stop_sentinel_closes_the_batch_it_trails(self):
        batcher = self._batcher()
        self._submit(batcher, 3)
        batcher.shutdown(drain=True)  # unstarted: only enqueues the sentinel
        items, keep_running = batcher._collect()
        assert len(items) == 3 and not keep_running
        assert batcher.queue_depth == 0

    def test_lone_stop_sentinel_ends_the_worker(self):
        batcher = self._batcher()
        batcher.shutdown(drain=True)
        assert batcher._collect() == ([], False)

    @pytest.mark.parametrize("kwargs", [{"max_batch": 0}, {"max_queue": 0}])
    def test_batcher_bounds_validated(self, kwargs):
        with pytest.raises(ValueError):
            self._batcher(**kwargs)

    def test_max_batch_one_routes_a_backlog_alone(self, gate):
        # The control arm of benchmarks/bench_serve.py: even a queued backlog
        # routes one request per dispatch.
        with ServeDaemon(max_batch=1) as daemon:
            host, port = daemon.address
            pis = random_pis(32, 3)
            outcomes = [None] * 3

            def go(i):
                with ServeClient(host, port) as client:
                    outcomes[i] = client.route(pis[i], d=8, g=4)

            blocker = gate.hold(daemon)
            threads = [threading.Thread(target=go, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == 3)
            gate.release.set()
            for thread in [blocker, *threads]:
                thread.join(timeout=10.0)
        assert [outcome.batch_size for outcome in outcomes] == [1, 1, 1]
        assert [len(keys) for keys in gate.dispatches] == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# backpressure and fault isolation


class TestBackpressure:
    def test_batcher_sheds_when_queue_full(self):
        # Unit-level: an unstarted batcher never drains its queue.
        batcher = DynamicBatcher(
            Session(RunConfig(sim_backend="batched")),
            ServeTelemetry(),
            max_queue=2,
        )
        pi = np.arange(4, dtype=np.int64)
        batcher.submit(pi, d=2, g=2)
        batcher.submit(pi, d=2, g=2)
        with pytest.raises(QueueFullError):
            batcher.submit(pi, d=2, g=2)

    def test_daemon_sheds_with_explicit_queue_full_response(self, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        original_route_batch = Session.route_batch

        def slow_route_batch(self, pis, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return original_route_batch(self, pis, **kwargs)

        monkeypatch.setattr(Session, "route_batch", slow_route_batch)
        pis = random_pis(16, 3)
        with ServeDaemon(max_queue=1) as daemon:
            host, port = daemon.address
            outcomes: dict[int, object] = {}

            def go(i):
                with ServeClient(host, port) as client:
                    try:
                        outcomes[i] = client.route(pis[i], d=4, g=4)
                    except ServeError as exc:
                        outcomes[i] = exc

            # First request occupies the worker (blocked in route)...
            t0 = threading.Thread(target=go, args=(0,))
            t0.start()
            assert entered.wait(timeout=10.0)
            # ...second fills the depth-1 queue...
            t1 = threading.Thread(target=go, args=(1,))
            t1.start()
            wait_until(lambda: daemon.batcher.queue_depth == 1)
            # ...third is shed with the explicit error, immediately.
            go(2)
            assert isinstance(outcomes[2], ServeError)
            assert outcomes[2].code == protocol.ERR_QUEUE_FULL

            release.set()
            t0.join(timeout=10.0)
            t1.join(timeout=10.0)
            assert isinstance(outcomes[0], object) and not isinstance(outcomes[0], ServeError)
            assert not isinstance(outcomes[1], ServeError)
            with ServeClient(host, port) as client:
                telemetry = client.stats()["telemetry"]
            assert telemetry["shed"] == 1
            assert telemetry["errors"]["queue-full"] == 1

    def test_client_disconnect_mid_batch_does_not_poison_peers(self, gate):
        with ServeDaemon(max_batch=2) as daemon:
            host, port = daemon.address
            pis = random_pis(32, 2)
            blocker = gate.hold(daemon)

            # Client A: queue a route request, then hang up (RST via
            # SO_LINGER 0, so the daemon's response write genuinely fails).
            ghost = socket.create_connection((host, port), timeout=5.0)
            protocol.send_frame(
                ghost,
                {"op": "route", "pi": [int(x) for x in pis[0]], "d": 8, "g": 4},
            )
            wait_until(lambda: daemon.batcher.queue_depth == 1)
            ghost.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            ghost.close()

            # Client B queues behind A, shares its batch, and must be
            # unaffected.
            outcomes = []

            def peer():
                with ServeClient(host, port) as client:
                    outcomes.append(client.route(pis[1], d=8, g=4))

            peer_thread = threading.Thread(target=peer)
            peer_thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == 2)
            gate.release.set()
            for thread in (blocker, peer_thread):
                thread.join(timeout=10.0)
            (outcome,) = outcomes
            assert outcome.batch_size == 2
            local = Session(
                RunConfig(router_backend="euler-array", sim_backend="batched")
            )
            assert outcome.metrics == local.route(pis[1], d=8, g=4)
            # The daemon keeps serving afterwards.
            with ServeClient(host, port) as client:
                assert client.ping()
                assert client.route(pis[0], d=8, g=4).metrics == local.route(
                    pis[0], d=8, g=4
                )


# ---------------------------------------------------------------------------
# shutdown


class TestShutdown:
    def test_drain_completes_in_flight_work(self, gate):
        n_clients = 5
        with ServeDaemon(max_batch=64) as daemon:
            host, port = daemon.address
            pis = random_pis(32, n_clients)
            outcomes = [None] * n_clients

            def go(i):
                with ServeClient(host, port) as client:
                    outcomes[i] = client.route(pis[i], d=8, g=4)

            blocker = gate.hold(daemon)
            threads = [
                threading.Thread(target=go, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == n_clients)
            # Shutdown begins while the batch is still queued: the stop
            # sentinel lands behind it, and only then is the worker released.
            t_shutdown = time.perf_counter()
            shutter = threading.Thread(target=daemon.shutdown, kwargs={"drain": True})
            shutter.start()
            wait_until(lambda: daemon.batcher.queue_depth == n_clients + 1)
            gate.release.set()
            shutter.join(timeout=30.0)
            elapsed = time.perf_counter() - t_shutdown
            for thread in [blocker, *threads]:
                thread.join(timeout=10.0)

            local = Session(
                RunConfig(router_backend="euler-array", sim_backend="batched")
            )
            for i, outcome in enumerate(outcomes):
                assert outcome is not None, "drain lost a request"
                assert outcome.metrics == local.route(pis[i], d=8, g=4)
            assert all(outcome.batch_size == n_clients for outcome in outcomes)
            assert not shutter.is_alive() and elapsed < 10.0

    def test_route_after_shutdown_began_gets_structured_error(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                assert client.ping()
                daemon._shutting_down = True  # white-box: intake closed
                with pytest.raises(ServeError) as excinfo:
                    client.route(random_pis(16, 1)[0], d=4, g=4)
                assert excinfo.value.code == protocol.ERR_SHUTTING_DOWN
            daemon._shutting_down = False
            daemon.shutdown(drain=True)

    def test_shutdown_is_idempotent(self):
        daemon = ServeDaemon()
        daemon.start()
        daemon.shutdown(drain=True)
        daemon.shutdown(drain=True)


# ---------------------------------------------------------------------------
# stats


class TestStats:
    def test_stats_payload_shape(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                client.route(random_pis(16, 1)[0], d=4, g=4)
                stats = client.stats()
            assert stats["protocol"] == protocol.PROTOCOL_VERSION
            assert stats["router_backend"] == "euler-array"
            assert stats["sim_backend"] == "batched"
            assert set(stats) == {
                "protocol", "router_backend", "sim_backend", "max_batch", "queue_depth", "telemetry", "cache", "faults",
            }
            assert set(stats["cache"]) == {"hits", "misses", "entries"}
            assert stats["cache"]["misses"] == 0
            telemetry = stats["telemetry"]
            assert telemetry["requests"] == 1
            assert telemetry["responses"] == 1
            assert telemetry["batch_size_histogram"] == {"1": 1}
            for stage in ("queue_wait", "batch_assembly", "route", "respond"):
                assert telemetry["stages"][stage]["count"] == 1
                assert telemetry["stages"][stage]["p99_ms"] >= 0.0
            # The whole payload is JSON-serialisable (the wire proved it, but
            # pin it for the --format json consumers too).
            json.dumps(stats)


# ---------------------------------------------------------------------------
# the load generator


class TestLoadgen:
    def test_poisson_load_round_trip(self):
        with ServeDaemon(max_batch=16) as daemon:
            host, port = daemon.address
            report = run_poisson_load(
                host, port, rate=500.0, n_requests=24, d=4, g=4,
                seed=11, connections=4,
            )
        assert report.completed == 24
        assert report.shed == 0 and report.errors == 0
        assert report.achieved_routes_per_second > 0
        assert report.latency_p99_ms >= report.latency_p50_ms > 0
        assert report.n == 16
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["completed"] == 24

    def test_loadgen_counts_shed_requests(self, monkeypatch):
        release = threading.Event()
        original_route_batch = Session.route_batch

        def slow_route_batch(self, pis, **kwargs):
            release.wait(timeout=10.0)
            return original_route_batch(self, pis, **kwargs)

        monkeypatch.setattr(Session, "route_batch", slow_route_batch)
        with ServeDaemon(max_queue=1) as daemon:
            host, port = daemon.address

            def unblock():
                wait_until(lambda: daemon.telemetry.shed >= 1, timeout=10.0)
                release.set()

            unblocker = threading.Thread(target=unblock)
            unblocker.start()
            report = run_poisson_load(
                host, port, rate=2000.0, n_requests=12, d=4, g=4,
                seed=5, connections=6,
            )
            release.set()
            unblocker.join(timeout=10.0)
        assert report.shed >= 1
        assert report.completed + report.shed + report.errors == 12


# ---------------------------------------------------------------------------
# the CLI daemon as a real process (SIGTERM drain path)


#: ``python -c`` entry running the CLI with the batcher's first dispatch held
#: until ``<dir>/release`` exists (it touches ``<dir>/entered`` on arrival).
_GATED_CLI = """
import pathlib, sys, time
from repro.serve.batcher import DynamicBatcher
gate = pathlib.Path(sys.argv.pop(1))
original_dispatch = DynamicBatcher._dispatch
def held_dispatch(batcher, items):
    if not (gate / "entered").exists():
        (gate / "entered").touch()
        while not (gate / "release").exists():
            time.sleep(0.01)
    return original_dispatch(batcher, items)
DynamicBatcher._dispatch = held_dispatch
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestServeCli:
    @staticmethod
    def _env() -> dict[str, str]:
        """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        return env

    def _start_daemon(self, tmp_path, *extra_args, entry=("-m", "repro")):
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [
                sys.executable, "-W", "error::DeprecationWarning", *entry,
                "serve", "--port", "0", "--port-file", str(port_file),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(),
            text=True,
        )
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if port_file.exists():
                text = port_file.read_text().strip()
                if text:
                    return process, int(text)
            if process.poll() is not None:
                raise AssertionError(
                    f"daemon died at startup: {process.communicate()}"
                )
            time.sleep(0.02)
        process.kill()
        raise AssertionError("daemon never wrote its port file")

    def test_unwritable_port_file_exits_2(self, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", str(tmp_path / "no-such-dir" / "port"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(),
            text=True,
        )
        try:
            _, stderr = process.communicate(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 2, stderr
        assert "serve:" in stderr
        assert "Traceback" not in stderr

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        # The CLI daemon with its first dispatch held until a release file
        # appears, so two requests deterministically queue behind it.
        entered, release = tmp_path / "entered", tmp_path / "release"
        process, port = self._start_daemon(
            tmp_path, "--format", "json", entry=("-c", _GATED_CLI, str(tmp_path))
        )
        try:
            pis = random_pis(32, 3, seed=23)
            outcomes = [None, None, None]

            def go(i):
                with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                    outcomes[i] = client.route(pis[i], d=8, g=4)

            threads = [threading.Thread(target=go, args=(i,)) for i in range(3)]
            threads[0].start()
            wait_until(entered.exists, timeout=30.0)
            for thread in threads[1:]:
                thread.start()
            with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                wait_until(lambda: client.stats()["queue_depth"] == 2, timeout=30.0)
            release.touch()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(outcome is not None for outcome in outcomes)
            assert [outcome.batch_size for outcome in outcomes] == [1, 2, 2]

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        # --format json: the last line is the final stats document.
        lines = [line for line in stdout.splitlines() if line.strip()]
        assert json.loads(lines[0])["listening"]["port"] == port
        summary = json.loads("\n".join(lines[1:]))
        assert summary["telemetry"]["responses"] == 3
        assert summary["telemetry"]["batch_size_histogram"] == {"1": 1, "2": 1}


# ---------------------------------------------------------------------------
# resilience: deadlines, retry/backoff, fault-degraded serving


class TestClientResilience:
    def test_default_timeout_is_finite(self):
        from repro.serve.client import DEFAULT_TIMEOUT

        assert DEFAULT_TIMEOUT == 30.0
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                # A hung daemon must never hang the client forever: the
                # default socket timeout is the finite module default.
                assert client._sock.gettimeout() == DEFAULT_TIMEOUT

    def test_client_side_deadline_raises_deadline_code(self, monkeypatch):
        release = threading.Event()
        original_route_batch = Session.route_batch

        def slow_route_batch(self, pis, **kwargs):
            release.wait(timeout=10.0)
            return original_route_batch(self, pis, **kwargs)

        monkeypatch.setattr(Session, "route_batch", slow_route_batch)
        with ServeDaemon() as daemon:
            client = ServeClient(*daemon.address, timeout=0.2)
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.route(random_pis(16, 1)[0], d=4, g=4)
                assert excinfo.value.code == protocol.ERR_DEADLINE
                # The connection is dropped: a late response left on the
                # stream would desynchronise every later request.
                assert client._sock is None
            finally:
                client.close()
                release.set()

    def test_daemon_deadline_ms_maps_to_deadline_code(self, monkeypatch):
        release = threading.Event()
        original_route_batch = Session.route_batch

        def slow_route_batch(self, pis, **kwargs):
            release.wait(timeout=10.0)
            return original_route_batch(self, pis, **kwargs)

        monkeypatch.setattr(Session, "route_batch", slow_route_batch)
        with ServeDaemon() as daemon:
            try:
                with ServeClient(*daemon.address, timeout=10.0) as client:
                    with pytest.raises(ServeError) as excinfo:
                        client.route(
                            random_pis(16, 1)[0], d=4, g=4, deadline_ms=50.0
                        )
                    assert excinfo.value.code == protocol.ERR_DEADLINE
            finally:
                release.set()

    def test_bad_deadline_rejected_as_bad_request(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.request({
                        "op": "route",
                        "pi": [1, 0],
                        "d": 1,
                        "g": 2,
                        "deadline_ms": -5,
                    })
                assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_largest_deadline_is_honoured(self):
        # The upper bound of deadline_ms is the longest wait Future.result
        # accepts; a request carrying it routes normally.
        pi = random_pis(16, 1)[0]
        expected = Session().route(pi, d=4, g=4)
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                outcome = client.route(
                    pi, d=4, g=4, deadline_ms=threading.TIMEOUT_MAX * 1e3
                )
        assert outcome.metrics == expected

    def test_retry_backoff_recovers_across_daemon_restart(self):
        first = ServeDaemon()
        host, port = first.start()
        pi = random_pis(16, 1)[0]
        local = Session(RunConfig(router_backend="euler-array", sim_backend="batched"))
        client = ServeClient(
            host, port, timeout=10.0, retries=8, backoff_base=0.02
        )
        second = ServeDaemon(host=host, port=port)
        try:
            assert client.route(pi, d=4, g=4).metrics == local.route(pi, d=4, g=4)
            first.shutdown(drain=True)

            def restart():
                time.sleep(0.15)
                second.start()

            restarter = threading.Thread(target=restart)
            restarter.start()
            # First attempt hits the dead connection, later ones reconnect
            # (with exponential backoff) once the new daemon is listening.
            outcome = client.route(pi, d=4, g=4)
            restarter.join(timeout=10.0)
            assert outcome.metrics == local.route(pi, d=4, g=4)
        finally:
            client.close()
            second.shutdown(drain=True)

    def test_retry_parameters_validated(self):
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, retries=-1)
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, retries=1, backoff_base=0.0)


def _driven_coupler_spec(pi, d, g, backend="euler-array"):
    """A FaultSpec naming a coupler the clean plan for ``pi`` surely drives."""
    from repro.pops.topology import POPSNetwork
    from repro.routing.permutation_router import PermutationRouter

    network = POPSNetwork(d, g)
    plan = PermutationRouter(network, backend=backend).route([int(x) for x in pi])
    driven = plan.schedule.slots[0].transmissions[0].coupler
    from repro.faults import FaultSpec

    return FaultSpec(failed_couplers=((driven.dest_group, driven.source_group),))


class TestFaultDegradedServing:
    def test_route_under_injected_fault_reports_degraded(self):
        from repro.faults import FaultSpec

        pi = random_pis(16, 1)[0]
        spec = _driven_coupler_spec(pi, 4, 4)
        local = Session(RunConfig(router_backend="euler-array", sim_backend="batched"))
        clean = local.route(pi, d=4, g=4)
        recovered = local.route_degraded(pi, d=4, g=4, faults=spec)
        with ServeDaemon(faults=spec) as daemon:
            with ServeClient(*daemon.address) as client:
                outcome = client.route(pi, d=4, g=4)
                health = client.health()
                stats = client.stats()
            assert outcome.degraded
            # Degraded metrics carry the true (executed + reroute) slot cost.
            assert outcome.metrics.slots >= clean.slots
            assert outcome.metrics.slots == recovered.total_slots
            assert outcome.metrics.couplers_used_total == recovered.packets_moved
            assert outcome.metrics.lower_bound == clean.lower_bound
            assert outcome.batch_size == 1
            assert health["status"] == "ok"
            assert health["faults"] == spec.describe()
            assert health["degraded_responses"] == 1
            assert stats["faults"] == spec.describe()
            assert stats["telemetry"]["degraded"] == 1

    def test_clean_daemon_reports_no_fault_config(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                client.route(random_pis(16, 1)[0], d=4, g=4)
                health = client.health()
                stats = client.stats()
            assert health["faults"] is None
            assert health["degraded_responses"] == 0
            assert stats["faults"] is None

    def test_health_answers_during_shutdown(self):
        with ServeDaemon() as daemon:
            with ServeClient(*daemon.address) as client:
                daemon._shutting_down = True  # white-box: intake closed
                health = client.health()
                assert health["status"] == "shutting-down"
            daemon._shutting_down = False
            daemon.shutdown(drain=True)

    def test_unroutable_fault_maps_to_degraded_error_code(self):
        from repro.faults import FaultSpec

        # g=2 with c(1,0) dead disconnects group 0 from group 1 entirely:
        # recovery cannot deliver, and the daemon must say so with the
        # structured ``degraded`` code instead of a generic internal error.
        spec = FaultSpec(failed_couplers=((1, 0),))
        pi = np.asarray([(i + 4) % 8 for i in range(8)], dtype=np.int64)
        with ServeDaemon(faults=spec) as daemon:
            with ServeClient(*daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.route(pi, d=4, g=2)
                assert excinfo.value.code == protocol.ERR_DEGRADED
                # The connection and the daemon survive the failure.
                assert client.ping()

    def test_drain_under_faults_answers_every_accepted_request(self, gate):
        n_clients = 4
        pis = random_pis(32, n_clients, seed=17)
        spec = _driven_coupler_spec(pis[0], 8, 4)
        with ServeDaemon(max_batch=64, faults=spec) as daemon:
            host, port = daemon.address
            outcomes = [None] * n_clients

            def go(i):
                with ServeClient(host, port, timeout=30.0) as client:
                    outcomes[i] = client.route(pis[i], d=8, g=4)

            blocker = gate.hold(daemon)
            threads = [
                threading.Thread(target=go, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == n_clients)
            shutter = threading.Thread(target=daemon.shutdown, kwargs={"drain": True})
            shutter.start()
            wait_until(lambda: daemon.batcher.queue_depth == n_clients + 1)
            gate.release.set()
            shutter.join(timeout=30.0)
            for thread in [blocker, *threads]:
                thread.join(timeout=10.0)

        # Zero unanswered accepted requests, even with every dispatch struck;
        # all of them were drained by one _collect.
        assert gate.dispatches[1] == [(8, 4)] * n_clients
        assert all(outcome is not None for outcome in outcomes)
        assert daemon.telemetry.responses == n_clients + 1
        assert daemon.telemetry.degraded >= 1

    def test_batch_replay_isolates_poisoned_member(self, gate, monkeypatch):
        # Two requests coalesce; one carries a non-permutation.  The batch
        # kernel call fails, the batcher replays singly: the healthy member
        # still gets its real answer, only the poisoned one sees an error.
        good = random_pis(16, 1)[0]
        bad = np.zeros(16, dtype=np.int64)
        local = Session(RunConfig(router_backend="euler-array", sim_backend="batched"))
        calls: list[tuple[tuple[int, ...], bool]] = []
        original_route_batch = Session.route_batch

        def recording_route_batch(self, pis, **kwargs):
            try:
                result = original_route_batch(self, pis, **kwargs)
            except Exception:
                calls.append((np.shape(pis), False))
                raise
            calls.append((np.shape(pis), True))
            return result

        monkeypatch.setattr(Session, "route_batch", recording_route_batch)
        with ServeDaemon(max_batch=2) as daemon:
            host, port = daemon.address
            results = [None, None]

            def go(i, pi):
                with ServeClient(host, port, timeout=30.0) as client:
                    try:
                        results[i] = client.route(pi, d=4, g=4)
                    except ServeError as exc:
                        results[i] = exc

            blocker = gate.hold(daemon)
            threads = [
                threading.Thread(target=go, args=(0, good)),
                threading.Thread(target=go, args=(1, bad)),
            ]
            for thread in threads:
                thread.start()
            wait_until(lambda: daemon.batcher.queue_depth == 2)
            gate.release.set()
            for thread in [blocker, *threads]:
                thread.join(timeout=30.0)

        # The (2, n) stack failed as a whole, then its members were replayed.
        assert calls == [((1, 16), True), ((2, 16), False)]
        assert not isinstance(results[0], ServeError), results[0]
        assert results[0].metrics == local.route(good, d=4, g=4)
        assert results[0].batch_size == 1
        assert isinstance(results[1], ServeError)


class TestHotspotLoad:
    def test_hotspot_permutation_is_a_blocked_permutation(self):
        from repro.serve.loadgen import _hotspot_permutation

        rng = np.random.default_rng(0)
        d, g = 4, 3
        pi = _hotspot_permutation(rng, d, g)
        assert sorted(int(x) for x in pi) == list(range(d * g))
        for a in range(g):
            block = pi[a * d:(a + 1) * d]
            assert set(int(x) // d for x in block) == {(a + 1) % g}

    def test_load_report_carries_per_class_percentiles(self):
        with ServeDaemon(max_batch=16) as daemon:
            host, port = daemon.address
            report = run_poisson_load(
                host, port, rate=500.0, n_requests=24, d=4, g=4,
                seed=11, connections=4, hotspot_fraction=0.5,
            )
        assert report.completed == 24
        assert report.hotspot_fraction == 0.5
        assert set(report.class_latency_ms) == {"hotspot", "uniform"}
        total = sum(
            entry["count"] for entry in report.class_latency_ms.values()
        )
        assert total == report.completed
        for entry in report.class_latency_ms.values():
            assert entry["p99_ms"] >= entry["p50_ms"] > 0.0
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["class_latency_ms"] == report.class_latency_ms

    def test_hotspot_fraction_validated(self):
        with pytest.raises(ValueError):
            run_poisson_load(
                "127.0.0.1", 1, rate=1.0, n_requests=1, d=4, g=4,
                hotspot_fraction=1.5,
            )

    def test_zero_fraction_reproduces_legacy_draw(self):
        from repro.serve.loadgen import _draw_workload

        _arrivals, pis, classes = _draw_workload(100.0, 6, 4, 4, 42, 0.0)
        assert classes == ["uniform"] * 6
        rng = np.random.default_rng(42)
        expected = [rng.permutation(16).astype(np.int64) for _ in range(6)]
        for got, want in zip(pis, expected):
            np.testing.assert_array_equal(got, want)
