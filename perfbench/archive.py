"""``archive-cold``: cold one-shot diagnoses over a large archive.

Each operation is ``diagnose(tester, history=A, store=A, pool=None)``
on an archive ``A`` of real run records (tester, anneal and ocean
diagnoses, stored under distinct run ids through the public
``ExperimentStore.save``): it opens the store, parses its index,
harvests, runs a small diagnosis and appends the result, with no cache
warm.  One operation in four, drawn at random, is undirected (no
harvest), so ``directed_ms - undirected_ms`` isolates the harvest;
``harvest_ms`` is timed on a twin of the archive as set up.  Storage open,
index parse, aggregate harvest, appends and compaction spikes dominate.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Callable

from common import (Clock, Context, Window, record_session, replicate,
                    store_shape, storage_layers, timed)
from harness import digest, read_vmhwm_kib
from repro import diagnose, harvest
from repro.apps.anneal import AnnealConfig, build_anneal
from repro.apps.ocean import OceanConfig, build_ocean
from repro.apps.tester import TesterConfig, build_tester
from repro.storage import ExperimentStore, RunRecord

#: Runs in the archive before the window.  The archive's size trades
#: directly against ``setup_s`` (seeding is ~6 ms per save here).
ARCHIVE_RUNS = 300
#: Small apps: the diagnosis itself is a minor share of an operation.
APP_ITERATIONS = {"tester": 20, "anneal": 30, "ocean": 30}
HARVEST_REPEATS = 10


class ArchiveCold:
    name = "archive-cold"
    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        self.app_seeds = {app: rng.randrange(1, 1 << 30)
                          for app in APP_ITERATIONS}
        self.rng = rng
        #: Cold harvests of the archive as set up, from every set-up and
        #: after the window.
        self.harvest_s: list = []

    def build(self, app: str):
        cfg = {"iterations": APP_ITERATIONS[app], "seed": self.app_seeds[app]}
        if app == "tester":
            return build_tester(TesterConfig(**cfg))
        if app == "anneal":
            return build_anneal(AnnealConfig(**cfg))
        return build_ocean(OceanConfig(**cfg))

    def prepare(self, work: Path) -> dict:
        # The window appends to the archive, so harvests are timed on a
        # twin written the same way, here and again after the window.
        path, twin = work / "archive", work / "archive-as-set-up"
        base = {app: diagnose(self.build(app), pool=None)
                for app in APP_ITERATIONS}
        apps = list(base)
        stores = [ExperimentStore(path), ExperimentStore(twin)]

        def save(record: RunRecord) -> None:
            for store in stores:
                store.save(record)

        try:
            for i in range(ARCHIVE_RUNS):
                save(replicate(base[apps[i % len(apps)]], f"a{i:05d}"))
            directed = settle_history(
                save, "tester",
                lambda: diagnose(self.build("tester"), history=str(path),
                                 pool=None),
                lambda: harvest(stores[0], app="tester", pool=None),
            )
        finally:
            for store in stores:
                store.close()
        check = self.ctx.check
        check.check("tester/undirected", digest(base["tester"].to_dict()))
        check.check("tester/directed", digest(directed.to_dict()))
        self.time_harvests(twin)
        return {"work": work, "path": path, "twin": twin}

    def time_harvests(self, path: Path) -> None:
        self.harvest_s += [timed(harvest, str(path), app="tester", pool=None)[1]
                           for _ in range(HARVEST_REPEATS)]

    def discard(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)

    def measure(self, state: dict, tracer) -> Window:
        path = str(state["path"])
        before = store_shape(state["path"])
        window = Window()
        if tracer is not None:
            tracer.reset()
        clock = Clock(self.ctx.seconds)
        while clock.more(window.tally.attempted):
            kind = "directed" if self.rng.random() < 0.75 else "undirected"
            history = path if kind == "directed" else None
            app = self.build("tester")
            window.tally.attempted += 1
            try:
                record, dt = timed(diagnose, app, history=history, store=path,
                                   run_id=f"op{window.tally.attempted:06d}",
                                   pool=None)
            except Exception:  # noqa: BLE001 - counted; the loop goes on
                window.tally.errors += 1
            else:
                record_session(window, self.ctx.check, kind, "tester",
                               f"tester/{kind}", record.to_dict(), dt)
        window.wall_s = clock.elapsed()
        if tracer is not None:
            window.snapshot = tracer.snapshot()
            after = store_shape(state["path"])
            window.layers.update(storage_layers(
                [after], after["generation"] - before["generation"]))
        self.time_harvests(state["twin"])
        window.harvest_s = self.harvest_s
        window.rss_kib = read_vmhwm_kib()
        return window


def settle_history(save: Callable[[RunRecord], None], app_name: str,
                   directed: Callable[[], RunRecord],
                   harvest: Callable[[], object], limit: int = 6) -> RunRecord:
    """Save directed runs until harvesting the history is stable.

    Harvest rules are unions and all-runs tests over the stored runs, so
    once the store holds the directed outcome its own directives
    produce, saving that outcome again leaves the directives unchanged:
    every later directed session over the store then has one correct
    answer, however many writes interleave with it.  Returns the settled
    directed record.
    """
    before = harvest().to_text()
    for _ in range(limit):
        record = directed()
        save(record)
        after = harvest().to_text()
        if after == before:
            return record
        before = after
    raise RuntimeError(f"history for {app_name!r} did not settle")

