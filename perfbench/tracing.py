"""Spans recorded from outside the program, around calls into its layers.

The traced run wraps public methods at class level.  Each wrapped call
adds to its span's count, total time and self time (total minus the
time of wrapped calls nested inside it); per-segment calls are
accumulated the same way, never kept one span each.  Spans whose
individual durations matter (store saves) also keep their samples.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter_ns


class Tracer:
    """Accumulates nested spans by name on one thread."""

    def __init__(self) -> None:
        self._stack: List[int] = []  # child time of each open span
        self._patched: List[Tuple[type, str, Callable]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (open spans still close cleanly)."""
        self.count: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.samples_ns: Dict[str, List[int]] = {}

    def timed(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """*fn* wrapped so every call records into span *name*."""
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer._add(name, elapsed, elapsed - children, keep)

        return wrapper

    def _add(self, name: str, elapsed: int, self_time: int, keep: bool) -> None:
        self.count[name] = self.count.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + elapsed
        self.self_ns[name] = self.self_ns.get(name, 0) + self_time
        if keep:
            self.samples_ns.setdefault(name, []).append(elapsed)

    def patch(self, cls: type, attr: str, name: str, keep: bool = False) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.timed(name, original, keep))
        self._patched.append((cls, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def snapshot(self) -> dict:
        return {
            "count": dict(self.count),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "samples_ns": {k: list(v) for k, v in self.samples_ns.items()},
        }


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the program under test."""
    from repro.core.consultant import ActiveDiagnosis, DiagnosisSession
    from repro.core.extraction import HarvestAggregate
    from repro.core.search import PerformanceConsultantSearch
    from repro.metrics.instrumentation import InstrumentationManager
    from repro.metrics.profile import ProfileCollector
    from repro.storage.store import ExperimentStore

    tracer.patch(DiagnosisSession, "begin", "begin")
    tracer.patch(ActiveDiagnosis, "step", "step")
    tracer.patch(ActiveDiagnosis, "result", "result")
    tracer.patch(ProfileCollector, "record", "profile_record")
    tracer.patch(InstrumentationManager, "record", "instr_record")
    tracer.patch(PerformanceConsultantSearch, "tick", "tick")
    tracer.patch(ExperimentStore, "__init__", "store_open")
    tracer.patch(ExperimentStore, "save", "store_save", keep=True)
    tracer.patch(ExperimentStore, "harvest_evidence", "harvest_evidence")
    tracer.patch(HarvestAggregate, "finalize", "finalize")


def program_layers(snap: dict, outcomes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from one window's span snapshot and the
    ``metrics``/``pairs_tested`` of the records its sessions produced.
    Times are per session unless named per call; counts are means per
    session."""
    count, total = snap["count"], snap["total_ns"]
    sessions = count.get("result", 0)
    saves = snap["samples_ns"].get("store_save") or [0]

    def per_session_ms(span: str, key: str = "total_ns") -> float:
        return snap[key].get(span, 0) / sessions / 1e6 if sessions else 0.0

    def per_call_ms(span: str) -> float:
        calls = count.get(span, 0)
        return total.get(span, 0) / calls / 1e6 if calls else 0.0

    def mean(field: str) -> float:
        values = [o["metrics"].get(field) or 0 for o in outcomes]
        return sum(values) / len(values) if values else 0.0

    step_s = total.get("step", 0) / 1e9
    events = mean("engine_events") * len(outcomes)
    return {
        "simulator.engine_self_ms": per_session_ms("step", key="self_ns"),
        "simulator.events": mean("engine_events"),
        "simulator.segments": mean("engine_segments"),
        "simulator.events_per_s": events / step_s if step_s else 0.0,
        "metrics.profile_record_ms": per_session_ms("profile_record"),
        "metrics.instr_record_ms": per_session_ms("instr_record"),
        "metrics.probes_examined": mean("probes_examined"),
        "core.search_tick_ms": per_session_ms("tick"),
        "core.ticks": count.get("tick", 0) / sessions if sessions else 0.0,
        "core.session_begin_ms": per_session_ms("begin"),
        "core.record_assembly_ms": per_session_ms("result"),
        "core.pairs_tested": (sum(o["pairs_tested"] for o in outcomes)
                              / len(outcomes) if outcomes else 0.0),
        "core.finalize_ms": per_call_ms("finalize"),
        "storage.open_ms": per_call_ms("store_open"),
        "storage.save_ms": statistics.median(saves) / 1e6,
        "storage.save_max_ms": max(saves) / 1e6,
        "storage.harvest_evidence_ms": per_call_ms("harvest_evidence"),
    }
