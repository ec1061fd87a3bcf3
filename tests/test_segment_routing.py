"""Property and unit tests for the ``record()`` routing index.

The online hot path delivers each simulated time segment through a
(activity, Code selection, Process selection) bucket index instead of
scanning every active probe.  The legacy scan survives as a reference
path (``routing_enabled=False``); the property tests here drive both
paths with identical random probe sets, segment streams, and mid-stream
request/delete churn, and require *byte-identical* accumulated values —
the same guarantee the benchmark asserts before timing.

Also covered: routing-index maintenance on delete, the bounded identity
memos, segment-parts interning, matched-process recounts after late
process discovery, the descriptive lost-handle error, batched
``in_progress`` snapshots, and the ``progress_every`` trace knob.
"""

import random

import pytest

from repro.apps.synthetic import make_pingpong
from repro.core import SearchConfig, run_diagnosis
from repro.metrics import CostModel, InstrumentationManager
from repro.metrics import instrumentation as instr_mod
from repro.obs import Tracer, deterministic_metrics
from repro.resources import ResourceSpace, whole_program
from repro.simulator import Engine, LatencyModel, Machine
from repro.simulator import records as records_mod
from repro.simulator.records import Activity, TimeSegment, intern_parts

LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)
METRIC_NAMES = (
    "exec_time", "cpu_time", "sync_wait_time", "io_wait_time",
    "sync_op_count", "io_op_count",
)
TAGS = ("3/0", "3/1", "9/0", "Barrier")


def idle(proc):
    return iter(())


def build_world(rng):
    """One engine + resource space + twin managers (routed and scan)."""
    n_procs = rng.randint(2, 8)
    n_nodes = rng.randint(1, n_procs)
    n_modules = rng.randint(1, 4)
    fns_per_module = rng.randint(1, 5)
    procs = [f"p:{i + 1}" for i in range(n_procs)]
    nodes = [f"n{i}" for i in range(n_nodes)]
    modules = [f"m{i}.c" for i in range(n_modules)]
    leaves = [
        (m, f"fn{i}_{k}")
        for i, m in enumerate(modules)
        for k in range(fns_per_module)
    ]

    engine = Engine(Machine.named("n", n_nodes), latency=LAT)
    for i, p in enumerate(procs):
        engine.add_process(p, nodes[i % n_nodes], idle)
    space = ResourceSpace()
    for mod, fn in leaves:
        space.add(f"/Code/{mod}/{fn}")
    for p in procs:
        space.add(f"/Process/{p}")
    for tag in TAGS:
        parts = records_mod.sync_tag_parts(tag)
        space.add("/" + "/".join(parts))
    latency = rng.choice([0.0, 0.5])

    def manager(routed):
        return InstrumentationManager(
            engine, space,
            cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9,
            insertion_latency=latency,
            routing_enabled=routed,
        )

    return {
        "engine": engine,
        "space": space,
        "procs": procs,
        "nodes": nodes,
        "leaves": leaves,
        "routed": manager(True),
        "scan": manager(False),
    }


def random_focus(rng, world):
    focus = whole_program(world["space"])
    if rng.random() < 0.7:
        mod, fn = rng.choice(world["leaves"])
        path = f"/Code/{mod}" if rng.random() < 0.3 else f"/Code/{mod}/{fn}"
        focus = focus.with_selection("Code", path)
    if rng.random() < 0.4:
        focus = focus.with_selection("Process", f"/Process/{rng.choice(world['procs'])}")
    if rng.random() < 0.2:
        focus = focus.with_selection("Machine", f"/Machine/{rng.choice(world['nodes'])}")
    if rng.random() < 0.2:
        tag = rng.choice(TAGS)
        parts = records_mod.sync_tag_parts(tag)
        depth = rng.randint(2, len(parts))
        focus = focus.with_selection("SyncObject", "/" + "/".join(parts[:depth]))
    return focus


def random_segment(rng, world, start):
    rank = rng.randrange(len(world["procs"]))
    mod, fn = rng.choice(world["leaves"])
    activity = rng.choice([Activity.COMPUTE, Activity.SYNC, Activity.IO])
    tag = rng.choice(TAGS) if activity is Activity.SYNC else None
    return TimeSegment.make(
        start=start,
        duration=rng.random() * 0.5,
        activity=activity,
        process=world["procs"][rank],
        node=world["nodes"][rank % len(world["nodes"])],
        module=mod,
        function=fn,
        tag=tag,
    )


class TestRoutedScanEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_accumulate_byte_identical(self, seed):
        """Random probes, random segments, random mid-stream churn: the
        routed and scan paths must agree bit-for-bit on every probe, in
        accumulated values and in batched reads that include in-progress
        activity."""
        rng = random.Random(seed)
        world = build_world(rng)
        routed, scan = world["routed"], world["scan"]
        probes = {}  # handle -> (routed instr, scan instr)

        def request():
            focus = random_focus(rng, world)
            metric = rng.choice(METRIC_NAMES)
            persistent = rng.random() < 0.2
            h1 = routed.request(metric, focus, persistent=persistent)
            h2 = scan.request(metric, focus, persistent=persistent)
            assert h1 == h2
            probes[h1] = (routed.instrumentation(h1), scan.instrumentation(h1))

        engine = world["engine"]
        reads_with_in_progress = 0

        def compare_reads(now):
            """Advance the clock, put random activity in progress, and read
            every live handle through both paths inside a batched pass."""
            nonlocal reads_with_in_progress
            engine.now = now
            in_flight = []
            for seg in (random_segment(rng, world, now) for _ in range(rng.randint(1, 6))):
                began = now - rng.random() * 2.0
                in_flight.append(TimeSegment.make(
                    start=began, duration=now - began, activity=seg.activity,
                    process=seg.process, node=seg.node, module=seg.module,
                    function=seg.function, tag=seg.tag,
                ))
            engine.in_progress = lambda: iter(in_flight)
            with routed.batched_reads(), scan.batched_reads():
                for handle in sorted(routed._active):
                    fast = routed.read(handle)
                    assert fast == scan.read(handle), handle
                    assert routed.normalized_read(handle) == scan.normalized_read(handle), handle
                    if fast[0] != routed.instrumentation(handle).accumulated:
                        reads_with_in_progress += 1

        for _ in range(rng.randint(5, 25)):
            request()
        start = 0.0
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.02:
                request()
            elif roll < 0.03:
                compare_reads(start)
            elif roll < 0.05 and routed.active_count:
                handle = rng.choice(sorted(
                    h for h in probes if h in routed._active))
                routed.delete(handle)
                scan.delete(handle)
            else:
                seg = random_segment(rng, world, start)
                start += rng.random() * 0.05
                routed.record(seg)
                scan.record(seg)

        compare_reads(start)
        assert probes
        assert reads_with_in_progress > 0
        for handle, (fast, legacy) in probes.items():
            assert fast.accumulated == legacy.accumulated, handle
            assert fast.processes == legacy.processes, handle
        # the routed path must actually have routed (and examined fewer
        # probes than the full scan did)
        assert routed.segments_routed == scan.segments_scanned > 0
        assert routed.probes_examined <= scan.probes_examined

    def test_full_diagnosis_records_identical(self):
        """End to end: a real diagnosis reaches identical conclusions,
        profile, and SHG whichever delivery path runs."""
        def run(routing):
            rec = run_diagnosis(
                make_pingpong(iterations=40), run_id="x",
                segment_routing=routing,
            ).to_dict()
            metrics = deterministic_metrics(rec["metrics"])
            # delivery-cost accounting legitimately differs by path
            for key in ("segments_routed", "segments_scanned", "probes_examined"):
                metrics.pop(key)
            rec["metrics"] = metrics
            return rec

        assert run(True) == run(False)


class TestRoutingIndexMaintenance:
    def build(self):
        rng = random.Random(99)
        world = build_world(rng)
        return world, world["routed"]

    def test_delete_clears_buckets(self):
        world, mgr = self.build()
        handles = [
            mgr.request("cpu_time", random_focus(random.Random(i), world))
            for i in range(10)
        ]
        # cpu_time probes route through the COMPUTE table only
        assert mgr._route_for(Activity.COMPUTE)
        for h in handles:
            mgr.delete(h)
        for activity in Activity:
            assert mgr._route_for(activity) == {}, activity

    def test_deleted_probe_stops_accumulating(self):
        world, mgr = self.build()
        mod, fn = world["leaves"][0]
        focus = whole_program(world["space"]).with_selection(
            "Code", f"/Code/{mod}/{fn}")
        handle = mgr.request("cpu_time", focus)
        instr = mgr.instrumentation(handle)
        seg = TimeSegment.make(
            start=1.0, duration=0.5, activity=Activity.COMPUTE,
            process=world["procs"][0], node=world["nodes"][0],
            module=mod, function=fn,
        )
        mgr.record(seg)
        before = instr.accumulated
        assert before > 0.0
        mgr.delete(handle)
        mgr.record(seg)
        assert instr.accumulated == before

    def test_match_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(instr_mod, "_MEMO_MAX", 16)
        rng = random.Random(7)
        world = build_world(rng)
        routed, scan = world["routed"], world["scan"]
        handle = routed.request("exec_time", random_focus(rng, world))
        scan.request("exec_time", random_focus(random.Random(7), world))
        for i in range(200):
            seg = random_segment(rng, world, float(i))
            routed.record(seg)
            assert len(routed._match_memo) <= 16
            assert len(routed._prefix_memo) <= 16
        assert routed.instrumentation(handle).accumulated >= 0.0

    def test_intern_parts_shares_and_bounds(self, monkeypatch):
        a = intern_parts("p:1", "n0", "m.c", "f", None)
        b = intern_parts("p:1", "n0", "m.c", "f", None)
        assert a is b
        assert a["Code"] == ("Code", "m.c", "f")
        monkeypatch.setattr(records_mod, "_PARTS_CACHE_MAX", 4)
        records_mod._PARTS_CACHE.clear()
        for i in range(40):
            intern_parts(f"p:{i}", "n0", "m.c", "f", None)
            assert len(records_mod._PARTS_CACHE) <= 4


class TestProcessTableSync:
    def test_late_discovery_recounts_matched_processes(self):
        engine = Engine(Machine.named("n", 2), latency=LAT)
        engine.add_process("p:1", "n0", idle)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Process/p:2")
        space.add("/Machine/n0")
        space.add("/Machine/n1")
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=0.0,
        )
        handle = mgr.request("exec_time", whole_program(space))
        instr = mgr.instrumentation(handle)
        assert instr.processes == ("p:1",)
        charged = instr.charged
        engine.add_process("p:2", "n1", idle)
        mgr.normalized_read(handle)  # triggers the version-gated recount
        assert instr.processes == ("p:1", "p:2")
        # the cost charge is frozen at the request-time set
        assert instr.charged == charged == ("p:1",)

    def test_lost_handle_error_is_descriptive(self):
        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", idle)
        space = ResourceSpace()
        space.add("/Process/p:1")
        mgr = InstrumentationManager(engine, space)
        with pytest.raises(KeyError, match="unknown or deleted instrumentation handle 12345"):
            mgr.normalized_read(12345)
        with pytest.raises(KeyError, match="unknown or deleted instrumentation handle 12345"):
            mgr.read(12345)


class TestBatchedReads:
    def test_one_snapshot_per_pass(self):
        from repro.simulator import Compute

        def busy(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)

        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", busy)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Code/m.c/f")
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=0.0,
        )
        whole = whole_program(space)
        handles = [
            mgr.request("exec_time", whole),
            mgr.request("cpu_time", whole.with_selection("Code", "/Code/m.c/f")),
            mgr.request("sync_wait_time", whole),
        ]
        engine.run(max_time=1e9)  # reads must see elapsed > 0
        calls = {"n": 0}
        original = engine.in_progress

        def counting():
            calls["n"] += 1
            return original()

        engine.in_progress = counting
        with mgr.batched_reads():
            for h in handles:
                mgr.read(h)
        assert calls["n"] == 1
        # outside the block each read snapshots for itself again
        for h in handles:
            mgr.read(h)
        assert calls["n"] == 1 + len(handles)

    def test_probe_requested_inside_pass_sees_in_progress(self):
        from repro.simulator import Compute

        def busy(proc):
            with proc.function("m.c", "f"):
                yield Compute(5.0)

        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", busy)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Code/m.c/f")
        # a negative latency backdates activation, so a probe requested
        # mid-pass already has elapsed time and in-progress activity
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=-1.0,
        )
        engine.schedule(2.0, engine.stop)  # stop mid-compute
        engine.run()
        with mgr.batched_reads():
            handle = mgr.request("cpu_time", whole_program(space))
            inside = mgr.read(handle)
        assert inside == mgr.read(handle)
        assert inside[0] > 0.0


class TestProgressEvery:
    def run_count(self, progress_every):
        tracer = Tracer()
        run_diagnosis(
            make_pingpong(iterations=40), run_id="x",
            config=SearchConfig(progress_every=progress_every),
            tracer=tracer,
        )
        return len(tracer.events("progress"))

    def test_progress_event_decimated(self):
        every_tick = self.run_count(1)
        every_fifth = self.run_count(5)
        assert every_tick > every_fifth >= 1
        # decimation by 5 drops all but every fifth tick's event
        assert every_fifth == every_tick // 5
