"""Tests for the benchmark's own rules: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import tracing
from harness import (DigestCheck, Tally, benchmark_spec, digest,
                     geomean_of_medians, percentile)
from run import RUN_SECONDS

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90) is None
    samples = list(range(100, 0, -1))  # unsorted on purpose
    assert percentile(samples, 90) == 90  # rank 90; 91..100 lie beyond


def test_median_percentile_needs_twenty_samples():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(1, 21)), 50) == 10


def test_percentile_of_nothing_is_unsupported():
    assert percentile([], 50) is None


# ---------------------------------------------------------------------------
# geomean of medians
# ---------------------------------------------------------------------------
def test_geomean_of_medians():
    value = geomean_of_medians({"a": [1.0, 2.0, 3.0], "b": [100.0, 4.0, 4.0]})
    assert value == pytest.approx(math.sqrt(2.0 * 4.0))


def test_geomean_moves_by_one_groups_share():
    base = {"a": [2.0], "b": [8.0]}
    faster = {"a": [1.0], "b": [8.0]}  # one of two groups halves
    ratio = geomean_of_medians(faster) / geomean_of_medians(base)
    assert ratio == pytest.approx(math.sqrt(0.5))


def test_geomean_skips_empty_groups_and_rejects_no_samples():
    assert geomean_of_medians({"a": [3.0], "b": []}) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean_of_medians({"a": []})


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t

    def advance(self, ns: int) -> None:
        self.t += ns


def test_self_time_subtracts_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "_now", clock)
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", lambda: clock.advance(3))

    def outer_body():
        clock.advance(10)
        inner()
        inner()
        clock.advance(5)

    tracer.timed("outer", outer_body)()
    snap = tracer.snapshot()
    assert snap["total_ns"] == {"outer": 21, "inner": 6}
    assert snap["self_ns"] == {"outer": 15, "inner": 6}
    assert snap["count"] == {"outer": 1, "inner": 2}


def test_span_closes_when_the_call_raises(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "_now", clock)
    tracer = tracing.Tracer()

    def boom():
        clock.advance(4)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed("boom", boom)()
    assert tracer.snapshot()["total_ns"] == {"boom": 4}
    assert tracer._stack == []


def test_patch_and_unpatch_restore_the_class():
    class Thing:
        def work(self):
            return 42

    original = Thing.__dict__["work"]
    tracer = tracing.Tracer()
    tracer.patch(Thing, "work", "work", keep=True)
    assert Thing().work() == 42
    assert tracer.count == {"work": 1}
    assert len(tracer.samples_ns["work"]) == 1
    tracer.unpatch()
    assert Thing.__dict__["work"] is original


def test_engine_self_time_is_step_minus_its_children():
    snap = {
        "count": {"result": 2, "tick": 10},
        "total_ns": {"step": 10_000_000, "profile_record": 3_000_000,
                     "instr_record": 2_000_000, "tick": 1_000_000},
        "self_ns": {"step": 4_000_000},
        "samples_ns": {"store_save": [1_000_000, 3_000_000, 2_000_000]},
    }
    records = [{"metrics": {"engine_events": 100, "engine_segments": 10,
                            "probes_examined": 4}, "pairs_tested": 3}] * 2
    layers = tracing.program_layers(snap, records)
    assert layers["simulator.engine_self_ms"] == pytest.approx(2.0)
    assert layers["metrics.profile_record_ms"] == pytest.approx(1.5)
    assert layers["core.ticks"] == 5
    assert layers["simulator.events_per_s"] == pytest.approx(200 / 0.01)
    assert layers["storage.save_ms"] == pytest.approx(2.0)
    assert layers["storage.save_max_ms"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# error accounting
# ---------------------------------------------------------------------------
def test_rejected_degraded_and_mismatched_count_as_failed():
    tally = Tally(attempted=20, errors=1, rejected=2, degraded=3, mismatched=4)
    assert tally.failed == 10
    assert tally.error_rate == pytest.approx(0.5)
    assert Tally().error_rate == 0.0


# ---------------------------------------------------------------------------
# the correctness digest
# ---------------------------------------------------------------------------
def _record(**overrides) -> dict:
    record = {
        "run_id": "r1",
        "shg_nodes": [{"id": 0, "state": "true", "t_concluded": 1.5}],
        "thresholds": {"CPUbound": 0.2},
        "profile": {"code": {"/Code/a": 1.0}},
        "finish_time": 12.0,
        "search_done_time": 8.0,
        "metrics": {"wall_seconds": 0.31, "events_per_sec": 1234.5},
    }
    record.update(overrides)
    return record


def test_digest_ignores_wall_clock_fields_and_run_ids():
    base = digest(_record())
    assert digest(_record(run_id="r2")) == base
    assert digest(_record(metrics={"wall_seconds": 9.9})) == base


def test_digest_sees_every_outcome_field():
    base = digest(_record())
    assert digest(_record(finish_time=12.5)) != base
    assert digest(_record(search_done_time=None)) != base
    assert digest(_record(thresholds={"CPUbound": 0.3})) != base
    assert digest(_record(shg_nodes=[{"id": 0, "state": "false",
                                      "t_concluded": 1.5}])) != base


def test_digest_is_the_same_in_process_and_over_the_wire():
    record = _record(profile={"code": {"/Code/a": (1.0, 2.0)}})
    assert digest(record) == digest(json.loads(json.dumps(record)))


def test_digest_check_flags_reference_and_repeat_mismatches():
    check = DigestCheck({"a": "x"})
    assert check.check("a", "x")
    assert not check.check("a", "y")
    assert not check.check("b", "z")  # no reference for this spec
    assert len(check.mismatches) == 2
    free = DigestCheck(None)
    assert free.check("a", "x") and free.check("a", "x")
    assert not free.check("a", "y")


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------
def test_committed_spec_matches_the_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_spec(RUN_SECONDS)


def test_spec_respects_its_limits():
    spec = benchmark_spec(RUN_SECONDS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
