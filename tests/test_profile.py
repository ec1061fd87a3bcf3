"""Tests for the flat postmortem profiler and ground-truth focus values."""

import json
import random

import pytest

from repro.metrics import FlatProfile
from repro.metrics import profile as profile_mod
from repro.metrics.profile import ProfileCollector
from repro.resources import ResourceNameError, ResourceSpace, whole_program
from repro.resources.names import join_path
from repro.simulator import Activity, TimeSegment
from repro.simulator import records as records_mod


def seg(start, dur, activity, proc="p:1", node="n0", module="m.c", fn="f", tag=None):
    return TimeSegment.make(
        start=start, duration=dur, activity=activity,
        process=proc, node=node, module=module, function=fn, tag=tag,
    )


@pytest.fixture
def profile():
    p = FlatProfile()
    p.add(seg(0, 4.0, Activity.COMPUTE, fn="f"))
    p.add(seg(4, 2.0, Activity.SYNC, fn="g", tag="3/0"))
    p.add(seg(0, 3.0, Activity.COMPUTE, proc="p:2", node="n1", fn="f"))
    p.add(seg(3, 3.0, Activity.SYNC, proc="p:2", node="n1", fn="g", tag="3/1"))
    p.add(seg(6, 1.0, Activity.IO, proc="p:2", node="n1", fn="h"))
    return p


@pytest.fixture
def space():
    s = ResourceSpace()
    for name in (
        "/Code/m.c/f", "/Code/m.c/g", "/Code/m.c/h",
        "/Machine/n0", "/Machine/n1",
        "/Process/p:1", "/Process/p:2",
        "/SyncObject/Message/3/0", "/SyncObject/Message/3/1",
    ):
        s.add(name)
    return s


PLACEMENT = {"p:1": "n0", "p:2": "n1"}


class TestAccumulation:
    def test_totals(self, profile):
        assert profile.totals["compute"] == pytest.approx(7.0)
        assert profile.totals["sync"] == pytest.approx(5.0)
        assert profile.totals["io"] == pytest.approx(1.0)
        assert profile.total_time() == pytest.approx(13.0)

    def test_by_code(self, profile):
        assert profile.by_code["/Code/m.c/f"]["compute"] == pytest.approx(7.0)
        assert profile.by_code["/Code/m.c/g"]["sync"] == pytest.approx(5.0)

    def test_by_tag(self, profile):
        assert profile.by_tag["/SyncObject/Message/3/0"]["sync"] == pytest.approx(2.0)
        assert profile.by_tag["/SyncObject/Message/3/1"]["sync"] == pytest.approx(3.0)

    def test_elapsed_max_end(self, profile):
        assert profile.elapsed == pytest.approx(7.0)

    def test_code_exec_fraction(self, profile):
        assert profile.code_exec_fraction("/Code/m.c/h") == pytest.approx(1.0 / 13.0)
        assert profile.code_exec_fraction("/Code/none") == 0.0

    def test_sync_fraction_by_process(self, profile):
        assert profile.sync_fraction_by_process("/Process/p:1") == pytest.approx(2.0 / 6.0)
        assert profile.sync_fraction_by_process("/Process/none") == 0.0


class TestFocusTruth:
    def test_whole_program_sync_fraction(self, profile, space):
        wp = whole_program(space)
        # 5s sync / (7s elapsed x 2 procs)
        assert profile.focus_fraction(wp, ("sync",), PLACEMENT) == pytest.approx(5.0 / 14.0)

    def test_process_constrained(self, profile, space):
        f = whole_program(space).with_selection("Process", "/Process/p:2")
        assert profile.focus_fraction(f, ("sync",), PLACEMENT) == pytest.approx(3.0 / 7.0)

    def test_tag_constrained(self, profile, space):
        f = whole_program(space).with_selection("SyncObject", "/SyncObject/Message/3/0")
        assert profile.focus_value(f, ("sync",)) == pytest.approx(2.0)

    def test_tag_family(self, profile, space):
        f = whole_program(space).with_selection("SyncObject", "/SyncObject/Message/3")
        assert profile.focus_value(f, ("sync",)) == pytest.approx(5.0)

    def test_conjunction(self, profile, space):
        f = (
            whole_program(space)
            .with_selection("Code", "/Code/m.c/g")
            .with_selection("Process", "/Process/p:1")
        )
        assert profile.focus_value(f, ("sync",)) == pytest.approx(2.0)

    def test_conflicting_focus_zero(self, profile, space):
        f = (
            whole_program(space)
            .with_selection("Machine", "/Machine/n0")
            .with_selection("Process", "/Process/p:2")
        )
        assert profile.focus_fraction(f, ("sync",), PLACEMENT) == 0.0


class TestSerialization:
    def test_roundtrip(self, profile, space):
        clone = FlatProfile.from_dict(profile.to_dict())
        assert clone.totals == profile.totals
        assert clone.elapsed == profile.elapsed
        wp = whole_program(space)
        assert clone.focus_fraction(wp, ("sync",), PLACEMENT) == pytest.approx(
            profile.focus_fraction(wp, ("sync",), PLACEMENT)
        )

    def test_collector_wraps_profile(self):
        pc = ProfileCollector()
        pc.record(seg(0, 1.0, Activity.COMPUTE))
        assert pc.profile.totals["compute"] == pytest.approx(1.0)


def oracle_profile(segments):
    """The profile of *segments* by the per-segment formula: every name
    joined afresh for every segment."""
    prof = FlatProfile()
    for sg in segments:
        key = sg.activity.value
        code = join_path(("Code", sg.module, sg.function))
        proc = join_path(("Process", sg.process))
        node = join_path(("Machine", sg.node))
        tag = ""
        prof.by_code[code][key] += sg.duration
        prof.by_process[proc][key] += sg.duration
        prof.by_node[node][key] += sg.duration
        if sg.tag is not None and "SyncObject" in sg.parts:
            tag = join_path(sg.parts["SyncObject"])
            prof.by_tag[tag][key] += sg.duration
        prof.by_combo[(code, proc, node, tag)][key] += sg.duration
        for frame in dict.fromkeys(sg.stack or ((sg.module, sg.function),)):
            prof.by_code_inclusive[join_path(("Code",) + frame)][key] += sg.duration
        prof.totals[key] += sg.duration
        prof.elapsed = max(prof.elapsed, sg.end)
    return prof


def from_prototype(proto, start, duration):
    """A segment materialised the way the engine's fast loop does it."""
    sg = object.__new__(TimeSegment)
    sg.__dict__.update(proto)
    sg.__dict__["start"] = start
    sg.__dict__["duration"] = duration
    return sg


class TestAttributionMemo:
    """``FlatProfile.add`` resolves each (parts, stack) attribution once;
    the tables must stay byte-identical to the per-segment formula."""

    FRAMES = [("main.c", "main"), ("m.c", "f"), ("m.c", "g"), ("util.c", "h")]

    def random_attribution(self, rng):
        depth = rng.randint(0, 3)
        stack = tuple(rng.choice(self.FRAMES) for _ in range(depth))
        module, function = stack[-1] if stack else rng.choice(self.FRAMES)
        activity = rng.choice(list(Activity))
        tag = rng.choice(["3/0", "3/1", "Barrier"]) if activity is Activity.SYNC else None
        rank = rng.randrange(3)
        return activity, f"p:{rank}", f"n{rank % 2}", module, function, tag, stack

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_oracle(self, seed, monkeypatch):
        monkeypatch.setattr(profile_mod, "_MEMO_MAX", 32)
        rng = random.Random(seed)
        attributions = [self.random_attribution(rng) for _ in range(20)]
        protos = {}
        stream = []
        overflowed = False
        prof = FlatProfile()
        for i in range(3000):
            if i == 1500:
                # later segments intern fresh parts dicts for known
                # attributions while older prototypes keep the old ones
                records_mod._PARTS_CACHE.clear()
            attr = rng.choice(attributions)
            start, duration = rng.random() * 100.0, rng.random()
            if rng.random() < 0.7:
                if attr not in protos or rng.random() < 0.01:
                    protos[attr] = records_mod.segment_prototype(*attr)
                sg = from_prototype(protos[attr], start, duration)
            else:
                activity, process, node, module, function, tag, stack = attr
                sg = TimeSegment.make(
                    start, duration, activity, process, node, module, function,
                    tag=tag, stack=tuple(list(stack)),  # a fresh tuple
                )
            before = len(prof._entry_memo)
            prof.add(sg)
            overflowed = overflowed or len(prof._entry_memo) < before
            assert len(prof._entry_memo) <= 32
            stream.append(sg)
        assert overflowed
        assert json.dumps(prof.to_dict()) == json.dumps(oracle_profile(stream).to_dict())

    @pytest.mark.parametrize("bad", [
        dict(module="bad/mod.c"),
        dict(process="p/1"),
        dict(stack=(("bad/x.c", "f"), ("m.c", "f"))),
    ])
    def test_invalid_attribution_raises(self, bad):
        fields = dict(process="p:1", node="n0", module="m.c", function="f", stack=None)
        fields.update(bad)
        invalid = TimeSegment.make(0.0, 1.0, Activity.COMPUTE, **fields)
        prof = FlatProfile()
        prof.add(seg(0, 1.0, Activity.COMPUTE))
        before = json.dumps(prof.to_dict())
        for _ in range(2):  # a failed resolution is not memoized
            with pytest.raises(ResourceNameError):
                prof.add(invalid)
        assert json.dumps(prof.to_dict()) == before
