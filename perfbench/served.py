"""``served-history``: closed-loop clients against ``repro serve``.

The server runs as its own ``repro serve --port 0`` process with its
default settings, so it never competes with the load generator for the
interpreter lock.  Two client threads, one connection each, send
diagnoses back to back (a closed loop), each drawn at random: per app,
three directed by the shared history store to one undirected.
Apps are small catalog programs at reduced iterations, so the protocol,
the scheduler, the store pool and store writes dominate.  Every
undirected request (one in four) also saves its record into the history
store, which changes the store's index token and forces the pool's
incremental re-harvest; about half the requests stream progress
events, which carry the server's queue wait and service time.

The history holds copies of each app's undirected run, so a saved
undirected run adds nothing the harvest does not already know: every
directed request has one correct answer, its one-shot record over the
preloaded store, however the two clients' writes interleave.

The wire carries no app seed, so here the seed sets the request
sequence and which requests stream progress.  Every request is drawn
independently, so which sessions overlap on the server does not depend
on the seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

from common import (Clock, Context, Window, record_session, replicate,
                    store_shape, storage_layers, timed)
from harness import digest, median, read_vmhwm_kib
from repro import diagnose, harvest
from repro.apps.catalog import build_catalog_app
from repro.server import ServerBusy, ServerClient
from repro.storage import ExperimentStore

#: (catalog name, version, iterations) of every served app.
#: Iterations make every app cost about the same, so a session's latency
#: does not hinge on which app the other client runs beside it.
APPS = (("tester", None, 100), ("anneal", None, 100), ("poisson", "C", 30),
        ("ocean", None, 30))
CLIENTS = 2
#: Stored copies of each app's undirected run in the preloaded history.
HISTORY_COPIES = 24
HARVEST_REPEATS = 10
#: Requests drawn per run; a window uses a prefix of them.
SEQUENCE = 20000
READY = re.compile(r"serving diagnoses on (\S+):(\d+)")
ROOT = Path(__file__).resolve().parent.parent


def spec_key(app: str, version, kind: str) -> str:
    return f"{app}{version or ''}/{kind}"


class Served:
    name = "served-history"
    in_process = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        specs = [(app, version, its, kind)
                 for app, version, its in APPS
                 for kind in ("directed",) * 3 + ("undirected",)]
        self.sequence = [(*rng.choice(specs), rng.random() < 0.5)
                         for _ in range(SEQUENCE)]
        #: Cold harvests of the preloaded history, from every set-up and
        #: after the window.
        self.harvest_s: list = []

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def prepare(self, work: Path) -> dict:
        # The window writes into the history, so harvests are timed on a
        # twin written the same way (a copied store would lose its
        # persisted harvest aggregate), here and again after the window.
        history, twin = work / "history", work / "history-as-set-up"
        check = self.ctx.check
        stores = [ExperimentStore(history), ExperimentStore(twin)]
        try:
            for app, version, its in APPS:
                undirected = diagnose(build_catalog_app(app, version, its),
                                      pool=None)
                for i in range(HISTORY_COPIES):
                    copy = replicate(undirected, f"h-{app}-{i:03d}")
                    for store in stores:
                        store.save(copy)
                check.check(spec_key(app, version, "undirected"),
                            digest(undirected.to_dict()))
        finally:
            for store in stores:
                store.close()
        for app, version, its in APPS:
            directed = diagnose(build_catalog_app(app, version, its),
                                history=str(history), pool=None)
            check.check(spec_key(app, version, "directed"),
                        digest(directed.to_dict()))
        self.time_harvests(twin)
        state = {"work": work, "history": history, "twin": twin}
        state.update(self.start_server(work))
        try:
            self.warm(state)
        except BaseException:
            self.stop_server(state)
            raise
        return state

    def time_harvests(self, path: Path) -> None:
        self.harvest_s += [timed(harvest, str(path), pool=None)[1]
                           for _ in range(HARVEST_REPEATS)]

    def start_server(self, work: Path) -> dict:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if self.ctx.trace:
            spans = work / "server-spans.json"
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                    str(spans)]
        else:
            spans = None
            argv = [sys.executable, "-m", "repro.cli"]
        stderr = open(work / "server.stderr", "w+")
        proc = subprocess.Popen(
            argv + ["serve", "--port", "0"], cwd=str(work), env=env,
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        state = {"proc": proc, "stderr": stderr, "spans": spans}
        line: list = []
        reader = threading.Thread(
            target=lambda: line.append(proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout=60)
        match = READY.search(line[0]) if line else None
        if match is None:
            self.stop_server(state)
            raise RuntimeError(f"server did not start: {line!r}")
        state["host"], state["port"] = match.group(1), int(match.group(2))
        return state

    def warm(self, state: dict) -> None:
        """One request per spec: opens the store in the pool, fills the
        harvest cache, and checks each served outcome once."""
        with ServerClient(state["host"], state["port"]) as client:
            for app, version, its in APPS:
                for kind in ("undirected", "directed"):
                    record = client.diagnose(app, **self.fields(
                        state, app, version, its, kind, None))
                    self.ctx.check.check(spec_key(app, version, kind),
                                         digest(record))

    @staticmethod
    def fields(state: dict, app, version, its, kind, run_id) -> dict:
        """Request fields; an undirected request with a *run_id* saves."""
        fields = {"iterations": its}
        if version:
            fields["version"] = version
        if kind == "directed":
            fields["history"] = str(state["history"])
        elif run_id is not None:
            fields["store"] = str(state["history"])
            fields["run_id"] = run_id
        return fields

    def stop_server(self, state: dict) -> list:
        """SIGINT the server and wait; returns the problems seen."""
        proc = state.pop("proc", None)
        if proc is None:
            return []
        faults = []
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
            faults.append("server did not stop on SIGINT")
        proc.stdout.close()
        if proc.returncode != 0:
            faults.append(f"server exited with {proc.returncode}")
        stderr = state["stderr"]
        stderr.seek(0)
        if "Traceback" in stderr.read():
            faults.append("traceback on the server's stderr")
        stderr.close()
        return faults

    def discard(self, state: dict) -> None:
        self.stop_server(state)
        shutil.rmtree(state["work"], ignore_errors=True)

    # ------------------------------------------------------------------
    # the window
    # ------------------------------------------------------------------
    def measure(self, state: dict, tracer) -> Window:
        window = Window()
        lock = threading.Lock()
        timings = {"queue": [], "service": [], "protocol": [], "slices": []}
        before = store_shape(state["history"])
        with ServerClient(state["host"], state["port"]) as client:
            pool_before = client.metrics()["metrics"]
        if state["spans"] is not None:
            os.kill(state["proc"].pid, signal.SIGUSR1)
        clock = Clock(self.ctx.seconds)

        def claim():
            with lock:
                if not clock.more(window.tally.attempted):
                    return None
                window.tally.attempted += 1
                return window.tally.attempted - 1

        def client_loop() -> None:
            with ServerClient(state["host"], state["port"]) as client:
                while True:
                    i = claim()
                    if i is None:
                        return
                    self.one_request(client, state, i, window, timings, lock)

        threads = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.ctx.seconds + 120)
        window.wall_s = clock.elapsed()
        if any(t.is_alive() for t in threads):
            window.faults.append("a client did not finish")
        with ServerClient(state["host"], state["port"]) as client:
            pool_after = client.metrics()["metrics"]
        window.rss_kib = read_vmhwm_kib(str(state["proc"].pid))
        window.faults.extend(self.stop_server(state))
        if state["spans"] is not None:
            window.snapshot = json.loads(state["spans"].read_text())
            after = store_shape(state["history"])
            window.layers.update(storage_layers(
                [after], after["generation"] - before["generation"]))
            window.layers.update(server_layers(timings, pool_before, pool_after))
        self.time_harvests(state["twin"])
        window.harvest_s = self.harvest_s
        return window

    def one_request(self, client, state, i, window, timings, lock) -> None:
        app, version, its, kind, progress = self.sequence[i % SEQUENCE]
        events: list = []
        fields = self.fields(state, app, version, its, kind, f"w{i:06d}")
        try:
            record, dt = timed(client.diagnose, app,
                               progress=events.append if progress else None,
                               **fields)
        except ServerBusy:
            with lock:
                window.tally.rejected += 1
            return
        except (RuntimeError, ConnectionError):
            with lock:
                window.tally.errors += 1
            return
        with lock:
            record_session(window, self.ctx.check, kind, f"{app}{version or ''}",
                           spec_key(app, version, kind), record, dt)
            if progress:
                queue = next(e["queue_seconds"] for e in events
                             if e["event"] == "session-started")
                service = next(e["wall_seconds"] for e in events
                               if e["event"] == "session-finished")
                timings["queue"].append(queue)
                timings["service"].append(service)
                timings["protocol"].append(dt - queue - service)
                timings["slices"].append(1 + sum(
                    e["event"] == "session-progress" for e in events))


def server_layers(timings: dict, before: dict, after: dict) -> dict:
    def delta(key: str) -> float:
        return after[f"pool_{key}"] - before[f"pool_{key}"]

    hits, misses = delta("harvest_hits"), delta("harvest_misses")
    slices = timings["slices"]
    return {
        "server.queue_wait_ms": median(timings["queue"]) * 1e3,
        "server.service_ms": median(timings["service"]) * 1e3,
        "server.protocol_ms": median(timings["protocol"]) * 1e3,
        "server.slices_per_session": sum(slices) / len(slices),
        "server.pool_harvest_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0),
        "server.pool_incremental_ratio": (
            delta("harvest_incremental") / misses if misses else 0.0),
    }
