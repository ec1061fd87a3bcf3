"""``paper-loop``: the paper's loop, serially, as a CLI user pays it.

Per pass and per app (Poisson A-D, Ocean): an undirected facade
diagnosis saved to a fresh store, a cold harvest of that store, and a
directed diagnosis over it; then Poisson B directed by A's history
through the version maps, so resource mapping runs.  Every call opts
out of the store pool (``pool=None``), so nothing stays warm between
calls.  The simulator, the metric collectors and the search do almost
all the work; storage is a one-run store.

The seed draws :data:`CONFIGS` app-config seeds per app and passes
cycle through them: a run averages over several configurations (how
much the search explores depends on them), and each configuration
still repeats, so repeated runs of one spec are checked to agree.
Set-up is what a CLI invocation pays before its first diagnosis: a
fresh interpreter importing the package, then building the apps.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from common import (Clock, Context, Window, record_session, store_shape,
                    storage_layers, timed)
from harness import read_vmhwm_kib
from repro import diagnose, harvest
from repro.apps.ocean import OceanConfig, build_ocean
from repro.apps.poisson import PoissonConfig, build_poisson, version_maps
from repro.core.directives import DirectiveSet

#: Iterations per app: short enough for ten or more passes in a window,
#: long enough that a session is dominated by the search, not set-up.
ITERATIONS = 60
APPS = ("A", "B", "C", "D", "ocean")
#: App configurations a run cycles through.
CONFIGS = 3
ROOT = Path(__file__).resolve().parent.parent
#: The cross-version session: Poisson B directed by A's history.
CROSS = "B<-A"


class PaperLoop:
    name = "paper-loop"
    in_process = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        self.app_seeds = [{app: rng.randrange(1, 1 << 30) for app in APPS}
                          for _ in range(CONFIGS)]

    def build(self, app: str, config: int):
        seed = self.app_seeds[config][app]
        if app == "ocean":
            return build_ocean(OceanConfig(iterations=ITERATIONS, seed=seed))
        return build_poisson(app, PoissonConfig(iterations=ITERATIONS, seed=seed))

    def prepare(self, work: Path) -> dict:
        """Import in a fresh interpreter, build every app and the A-to-B
        version maps; passes then only re-instantiate apps (outside the
        timed calls)."""
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.facade"],
            cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            check=True,
            timeout=120,
        )
        maps = []
        for config in range(CONFIGS):
            apps = {app: self.build(app, config) for app in APPS}
            maps.append(DirectiveSet(
                maps=version_maps("A", "B", apps["A"], apps["B"])))
        work.mkdir(parents=True)
        return {"work": work, "maps": maps}

    def discard(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)

    def one_pass(self, state: dict, config: int, root: Path,
                 window: Window) -> None:
        def session(kind: str, app: str, build: str, **kw) -> None:
            window.tally.attempted += 1
            app_obj = self.build(build, config)
            try:
                record, dt = timed(diagnose, app_obj, pool=None, **kw)
            except Exception:  # noqa: BLE001 - counted; the loop goes on
                window.tally.errors += 1
                return
            # Each app configuration is its own group for the per-app
            # medians, so they do not shift with how many passes of each
            # configuration fit in the window.
            record_session(window, self.ctx.check, kind, f"{app}#{config}",
                           f"{app}#{config}/{kind}", record.to_dict(), dt)

        for app in APPS:
            store = str(root / app)
            session("undirected", app, app, store=store)
            _, dt = timed(harvest, store, pool=None)
            window.harvest_s.append(dt)
            session("directed", app, app, history=store, store=store)
        session("directed", CROSS, "B",
                history=[str(root / "A"), state["maps"][config]],
                store=str(root / "cross"))

    def measure(self, state: dict, tracer) -> Window:
        window = Window()
        passes = []
        clock = Clock(self.ctx.seconds)
        while clock.more(window.tally.attempted):
            root = state["work"] / f"pass-{len(passes):03d}"
            passes.append(root)
            self.one_pass(state, (len(passes) - 1) % CONFIGS, root, window)
        window.wall_s = clock.elapsed()
        window.rss_kib = read_vmhwm_kib()
        if tracer is not None:
            window.snapshot = tracer.snapshot()
            compactions = sum(store_shape(p)["generation"]
                              for root in passes for p in root.iterdir())
            last = [store_shape(p) for p in passes[-1].iterdir()]
            window.layers.update(storage_layers(last, compactions))
        for root in passes:
            shutil.rmtree(root, ignore_errors=True)
        return window
