"""Tests for the JSONL TCP protocol, client shim, and server thread."""

import json
import socket
import threading

import pytest

from repro.campaign import SerialExecutor
from repro.server import ServerBusy, ServerClient, ServerThread, TenantPolicy


@pytest.fixture(scope="module")
def server():
    with ServerThread(max_concurrent=2, queue_limit=4, slice_events=200) as srv:
        yield srv


class TestProtocol:
    def test_ping(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.ping()

    def test_diagnose_returns_record_dict(self, server):
        with ServerClient(server.host, server.port) as client:
            record = client.diagnose("tester", iterations=20, run_id="wire-1")
        assert record["run_id"] == "wire-1"
        assert record["app_name"] == "tester"
        assert record["status"] == "complete"
        assert record["shg_nodes"]  # the full record crossed the wire

    def test_progress_streaming(self, server):
        events = []
        with ServerClient(server.host, server.port) as client:
            client.diagnose("tester", iterations=20, progress=events.append)
        kinds = [e["event"] for e in events]
        assert "session-queued" in kinds
        assert "session-started" in kinds
        assert "session-finished" in kinds

    def test_search_overrides_cross_the_wire(self, server):
        with ServerClient(server.host, server.port) as client:
            record = client.diagnose(
                "tester", iterations=20,
                search={"cost_limit": 7.5, "min_interval": 5.0},
            )
        assert record["config"]["cost_limit"] == 7.5
        assert record["config"]["min_interval"] == 5.0

    def test_store_roundtrip(self, server, tmp_path):
        from repro.storage import ExperimentStore

        with ServerClient(server.host, server.port) as client:
            record = client.diagnose(
                "tester", iterations=20, run_id="stored",
                store=str(tmp_path / "runs"),
            )
        loaded = ExperimentStore(tmp_path / "runs").load("stored")
        assert loaded.to_dict() == record

    def test_unknown_app_is_error(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(RuntimeError, match="unknown application"):
                client.diagnose("nosuch")
            # The connection survives the error.
            assert client.ping()

    def test_unknown_op_is_error(self, server):
        with ServerClient(server.host, server.port) as client:
            event = next(client.request({"op": "frobnicate"}))
        assert event["event"] == "error"

    def test_malformed_json_is_error(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            event = json.loads(f.readline())
        assert event["event"] == "error"

    @staticmethod
    def raw_exchange(server, payload):
        """Send *payload* then a ping on one raw connection; return the
        first two reply events."""
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(payload + b'{"op": "ping"}\n')
            f.flush()
            return json.loads(f.readline()), json.loads(f.readline())

    def test_non_object_json_is_error(self, server):
        error, reply = self.raw_exchange(server, b"[1, 2]\n")
        assert error["event"] == "error"
        assert "JSON object" in error["error"]
        # exactly one error event, and the connection still serves
        assert reply == {"event": "pong"}

    @pytest.mark.parametrize("size", [70_000, 400_000])
    def test_overlong_line_is_error(self, server, size):
        # past asyncio's default 64 KiB stream limit: the newline arrives
        # either within the buffered chunk or after it was dropped
        error, reply = self.raw_exchange(server, b"x" * size + b"\n")
        assert error["event"] == "error"
        assert "line limit" in error["error"]
        assert reply == {"event": "pong"}

    def test_metrics_op(self, server):
        with ServerClient(server.host, server.port) as client:
            client.diagnose("tester", iterations=20)
            reply = client.metrics()
        assert reply["metrics"]["sessions_completed"] >= 1
        assert "repro_server_sessions_completed" in reply["prom"]

    def test_concurrent_clients(self, server):
        import threading

        records, errors = [], []

        def one(i):
            try:
                with ServerClient(server.host, server.port) as client:
                    records.append(client.diagnose(
                        "tester", iterations=20, run_id=f"conc-{i}"
                    ))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert {r["run_id"] for r in records} == {f"conc-{i}" for i in range(4)}


class TestServeCommand:
    def test_sigint_shutdown_is_clean_with_open_connection(self):
        """Ctrl-C with a connected client must exit 0 without dumping
        CancelledError tracebacks from the cancelled connection handlers."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            host, port = banner.split()[3].rsplit(":", 1)
            with ServerClient(host, int(port)) as client:
                assert client.ping()
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert "Traceback" not in tail
        assert "server stopped" in tail


class TestTenantOverWire:
    def test_tenant_policy_applies(self):
        with ServerThread(
            max_concurrent=2, slice_events=200,
            tenants={"small": TenantPolicy(cost_limit=2.0)},
        ) as srv:
            with ServerClient(srv.host, srv.port) as client:
                record = client.diagnose(
                    "tester", iterations=20, tenant="small",
                    search={"cost_limit": 50.0},
                )
        assert record["config"]["cost_limit"] == 2.0

    def test_rejection_over_wire(self):
        # One slot, one queue place.  Client 1 holds the slot (its session
        # runs on a gated executor until the gate opens), client 2 waits
        # in the queue, so client 3's submission must be rejected with a
        # ServerBusy the client shim re-raises.
        executor = GatedExecutor()
        with ServerThread(max_concurrent=1, queue_limit=1,
                          slice_events=10, executor=executor) as srv:
            clients = [ServerClient(srv.host, srv.port) for _ in range(3)]
            try:
                message = {"op": "diagnose", "app": "tester",
                           "iterations": 20, "progress": True}
                holder = clients[0].request(message)
                assert next(holder)["event"] == "session-queued"
                assert next(holder)["event"] == "session-started"
                waiter = clients[1].request(message)
                assert next(waiter)["event"] == "session-queued"
                with pytest.raises(ServerBusy, match="queue full"):
                    clients[2].diagnose("tester", iterations=20)
                executor.gate.set()
                for events in (holder, waiter):
                    assert list(events)[-1]["event"] == "result"
            finally:
                executor.gate.set()
                for c in clients:
                    c.close()


class GatedExecutor(SerialExecutor):
    """Serial executor whose sessions wait for :attr:`gate` to open."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def run(self, fn, payloads, timeout=None):
        assert self.gate.wait(timeout=60), "gate never opened"
        return super().run(fn, payloads, timeout)
