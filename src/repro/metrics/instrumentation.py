"""Dynamic instrumentation manager.

Models Paradyn's dynamic instrumentation: metric probes for a
(metric : focus) pair are *inserted* into the running program after a
request latency, accumulate only from their activation instant onward,
and are *deleted* when the Performance Consultant concludes a test.  The
manager is a trace sink on the simulator engine and doubles as a
perturbation source — active instrumentation slows the matched processes'
computation per the cost model.

Hot-path design.  ``record()`` runs once per emitted
:class:`~repro.simulator.records.TimeSegment` — the single most executed
piece of the online search.  Instead of scanning every active probe per
segment (O(segments × probes)), probes are bucketed in a **routing
index**: one table per activity class (picked by identity, so the hot
path never hashes an enum member), keyed by ``(Code selection parts,
Process selection parts)``.  A segment goes to its activity's table —
and stops there when that table is empty — then looks up only the
buckets reachable from the prefixes of its own Code and Process
attribution (at most ``len(code parts) × len(process parts)`` dict
hits; the flat key tuple is memoized per attribution), so untouched
probes cost nothing.  Residual constraints (Machine, SyncObject) are
checked by :meth:`Focus.matches_parts` through a bounded identity memo —
sound because segment ``parts`` dicts are interned
(:func:`~repro.simulator.records.intern_parts`) and the memo pins its
keys, so an id can never be reused while its entry is live.

Reads are routed the same way: :meth:`InstrumentationManager.batched_reads`
snapshots the in-progress activity once and routes each snapshot
segment through the index, so :meth:`InstrumentationManager.read` visits
only the in-progress segments routed to its handle, in snapshot order.

The legacy full scan is kept as a reference path (``routing_enabled =
False``), reads included; the benchmark and property tests assert both
paths accumulate and read byte-identical values.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..resources.focus import Focus
from ..resources.resource import ResourceSpace
from ..simulator.engine import Engine
from ..simulator.records import Activity, TimeSegment
from .cost import CostGate, CostModel
from .metric import METRICS, Metric

__all__ = ["ActiveInstrumentation", "InstrumentationManager", "matched_processes"]

#: Cap on the identity-keyed match/prefix memos; cleared wholesale when
#: full.  Big enough that a realistic search never evicts (entries are
#: bounded by distinct (focus, attribution) pairs), small enough that an
#: adversarial stream cannot grow memory without bound.
_MEMO_MAX = 1 << 16

#: Routing key for a hierarchy the probe's focus does not constrain (or
#: does not even carry): the hierarchy root, which is also the 1-prefix
#: of every segment attribution in that hierarchy.
_CODE_ROOT = ("Code",)
_PROC_ROOT = ("Process",)

#: One routing-table key: (Code selection parts, Process selection parts).
RouteKey = Tuple[Tuple[str, ...], Tuple[str, ...]]

_COMPUTE = Activity.COMPUTE
_SYNC = Activity.SYNC


def matched_processes(focus: Focus, engine: Engine) -> Tuple[str, ...]:
    """Process names matched by *focus*'s Process and Machine selections.

    A process matches when its own resource lies under the focus's
    Process selection and its host node lies under the Machine selection.
    This count also normalises hypothesis values (see metrics.metric).
    """
    want_proc = focus.selection_parts("Process") if "Process" in focus.hierarchies else ("Process",)
    want_node = focus.selection_parts("Machine") if "Machine" in focus.hierarchies else ("Machine",)
    out = []
    for name, proc in engine.procs.items():
        pp = ("Process", name)
        np_ = ("Machine", proc.node)
        if pp[: len(want_proc)] != want_proc:
            continue
        if np_[: len(want_node)] != want_node:
            continue
        out.append(name)
    return tuple(out)


@dataclass
class ActiveInstrumentation:
    """One live (metric : focus) probe set.

    ``processes`` is the *current* matched-process set (recounted when
    the engine's process table grows — late process discovery must not
    skew the normalisation denominator); ``charged`` freezes the set the
    probe's cost was charged against at request time, so cost release
    stays symmetric with the original charge.
    """

    handle: int
    metric: Metric
    focus: Focus
    requested_at: float
    active_from: float
    cost: float
    processes: Tuple[str, ...]
    persistent: bool = False
    charged: Tuple[str, ...] = ()
    accumulated: float = 0.0
    deleted_at: Optional[float] = None

    def overlap(self, start: float, end: float) -> float:
        """Seconds of [start, end) that fall inside the active window."""
        lo = max(start, self.active_from)
        hi = end if self.deleted_at is None else min(end, self.deleted_at)
        return max(hi - lo, 0.0)


class InstrumentationManager:
    """Insert/read/delete dynamic instrumentation against a live engine."""

    def __init__(
        self,
        engine: Engine,
        space: ResourceSpace,
        cost_model: Optional[CostModel] = None,
        cost_limit: float = 20.0,
        insertion_latency: float = 2.0,
        routing_enabled: bool = True,
    ) -> None:
        self.engine = engine
        self.space = space
        self.cost_model = cost_model or CostModel()
        self.gate = CostGate(cost_limit)
        self.insertion_latency = insertion_latency
        self._active: Dict[int, ActiveInstrumentation] = {}
        self._handles = itertools.count(1)
        self._per_proc_cost: Dict[str, float] = {p: 0.0 for p in engine.procs}
        self.total_requests = 0
        self.total_deletes = 0
        self.total_decimates = 0
        #: Optional structured trace sink (set by the session when tracing
        #: is on); every use is guarded so an untraced run pays nothing.
        self.tracer = None
        # time-weighted integral of enabled cost, for the mean-cost metric
        self._cost_integral = 0.0
        self._cost_t0 = engine.now
        self._cost_last = engine.now
        #: When False, ``record()`` falls back to the legacy full scan of
        #: every active probe — the reference path routing is checked
        #: against.
        self.routing_enabled = routing_enabled
        #: Segments dispatched through the routing index vs the scan path,
        #: and candidate probes actually examined — the observability
        #: counters behind the routed/scanned trace and run metrics.
        self.segments_routed = 0
        self.segments_scanned = 0
        self.probes_examined = 0
        # routing index, one table per activity class:
        # (code key, process key) -> {handle: probe}
        self._route_compute: Dict[RouteKey, Dict[int, ActiveInstrumentation]] = {}
        self._route_sync: Dict[RouteKey, Dict[int, ActiveInstrumentation]] = {}
        self._route_io: Dict[RouteKey, Dict[int, ActiveInstrumentation]] = {}
        # identity memos (see module docstring); values pin their keys
        self._match_memo: Dict[Tuple[int, int], Tuple[Focus, dict, bool]] = {}
        self._prefix_memo: Dict[int, Tuple[dict, Tuple[RouteKey, ...]]] = {}
        # matched-process sets cached per focus, invalidated when the
        # engine's process table grows
        self._focus_procs: Dict[Focus, Tuple[str, ...]] = {}
        self._proc_version = engine.proc_table_version
        # one in-progress snapshot shared across a batched read pass, and
        # (routed path) its segments routed per handle, in snapshot order
        self._in_progress_snapshot: Optional[Tuple[TimeSegment, ...]] = None
        self._in_progress_routed: Optional[Dict[int, List[TimeSegment]]] = None
        engine.add_sink(self)
        engine.add_perturbation_source(self._overhead_for)

    # ------------------------------------------------------------------
    # process-table tracking
    # ------------------------------------------------------------------
    def _sync_proc_table(self) -> None:
        """Recount matched processes after late process discovery.

        A probe requested before the engine learned about a process would
        otherwise keep normalising by the stale count for the rest of the
        run.  The charged cost is *not* restated — the gate accounted for
        the processes that existed at request time (``charged``).
        """
        version = self.engine.proc_table_version
        if version == self._proc_version:
            return
        self._proc_version = version
        self._focus_procs.clear()
        for instr in self._active.values():
            instr.processes = self._matched(instr.focus)

    def _matched(self, focus: Focus) -> Tuple[str, ...]:
        procs = self._focus_procs.get(focus)
        if procs is None:
            procs = matched_processes(focus, self.engine)
            self._focus_procs[focus] = procs
        return procs

    # ------------------------------------------------------------------
    # request / delete
    # ------------------------------------------------------------------
    def pair_cost(self, focus: Focus, persistent: bool = False) -> float:
        self._sync_proc_table()
        return self.cost_model.pair_cost(len(self._matched(focus)), persistent=persistent)

    def request(self, metric_name: str, focus: Focus, persistent: bool = False) -> int:
        """Insert probes for (metric : focus); returns a read handle.

        The probes become active ``insertion_latency`` seconds after the
        request — the paper notes a reported bottleneck's timestamp starts
        at "the instant of the instrumentation request, plus the time
        required to actually insert the instrumentation".
        """
        metric = METRICS[metric_name]
        self._sync_proc_table()
        procs = self._matched(focus)
        cost = self.cost_model.pair_cost(len(procs), persistent=persistent)
        handle = next(self._handles)
        now = self.engine.now
        self._accrue_cost()
        instr = ActiveInstrumentation(
            handle=handle,
            metric=metric,
            focus=focus,
            requested_at=now,
            active_from=now + self.insertion_latency,
            cost=cost,
            processes=procs,
            persistent=persistent,
            charged=procs,
        )
        self._active[handle] = instr
        for act, key in self._probe_keys(instr):
            self._route_for(act).setdefault(key, {})[handle] = instr
        self.gate.add(cost)
        for p in procs:
            self._per_proc_cost[p] = self._per_proc_cost.get(p, 0.0) + cost
        self.total_requests += 1
        if self.tracer is not None:
            self.tracer.emit(
                "instr-insert", handle=handle, metric=metric_name,
                focus=str(focus), cost=cost, processes=list(procs),
                persistent=persistent,
            )
        return handle

    def delete(self, handle: int) -> None:
        instr = self._active.pop(handle, None)
        if instr is None:
            return
        for act, key in self._probe_keys(instr):
            route = self._route_for(act)
            bucket = route.get(key)
            if bucket is not None:
                bucket.pop(handle, None)
                if not bucket:
                    del route[key]
        instr.deleted_at = self.engine.now
        self._accrue_cost()
        self._release_cost(instr)
        self.total_deletes += 1
        if self.tracer is not None:
            self.tracer.emit("instr-delete", handle=handle, cost=instr.cost)

    def decimate(self, handle: int) -> None:
        """Downgrade a persistent probe set to decimated sampling.

        Once a persistent (high-priority) pair has reached its first
        conclusion, it keeps watching for the rest of the run but at a
        sampling rate cheap enough to release its share of the cost gate —
        otherwise start-up priorities would permanently starve the ongoing
        top-down search.
        """
        instr = self._active.get(handle)
        if instr is None or instr.cost == 0.0:
            return
        self._accrue_cost()
        self._release_cost(instr)
        self.total_decimates += 1
        if self.tracer is not None:
            self.tracer.emit("instr-decimate", handle=handle, released=instr.cost)
        instr.cost = 0.0

    def _accrue_cost(self) -> None:
        """Advance the time-weighted enabled-cost integral to now."""
        now = self.engine.now
        self._cost_integral += self.gate.total * (now - self._cost_last)
        self._cost_last = now

    def _release_cost(self, instr: ActiveInstrumentation) -> None:
        self.gate.remove(instr.cost)
        for p in instr.charged or instr.processes:
            self._per_proc_cost[p] = max(self._per_proc_cost.get(p, 0.0) - instr.cost, 0.0)

    # ------------------------------------------------------------------
    # segment routing
    # ------------------------------------------------------------------
    def _route_for(self, activity: Activity) -> Dict[RouteKey, Dict[int, ActiveInstrumentation]]:
        """The routing table of one activity class (chosen by identity:
        hashing an enum member is a Python-level call)."""
        if activity is _COMPUTE:
            return self._route_compute
        if activity is _SYNC:
            return self._route_sync
        return self._route_io

    @staticmethod
    def _probe_keys(instr: ActiveInstrumentation) -> List[Tuple[Activity, RouteKey]]:
        """Routing-index coordinates for one probe: its focus's Code and
        Process selection parts, in the table of every activity class its
        metric counts."""
        focus = instr.focus
        code = (
            focus.selection_parts("Code")
            if "Code" in focus.hierarchies else _CODE_ROOT
        )
        proc = (
            focus.selection_parts("Process")
            if "Process" in focus.hierarchies else _PROC_ROOT
        )
        return [
            (act, (code, proc))
            for act in sorted(instr.metric.activities, key=lambda a: a.value)
        ]

    def _segment_keys(self, parts: dict) -> Tuple[RouteKey, ...]:
        """Every (Code prefix, Process prefix) of one (interned)
        attribution — the candidate bucket keys for a segment."""
        memo = self._prefix_memo
        key = id(parts)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        code = parts.get("Code")
        proc = parts.get("Process")
        # A segment without an attribution in a hierarchy can only match
        # probes unconstrained there — exactly the root bucket.
        code_keys = (
            tuple(code[:i] for i in range(1, len(code) + 1)) if code else (_CODE_ROOT,)
        )
        proc_keys = (
            tuple(proc[:i] for i in range(1, len(proc) + 1)) if proc else (_PROC_ROOT,)
        )
        keys = tuple((ck, pk) for ck in code_keys for pk in proc_keys)
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[key] = (parts, keys)  # pin: id stays valid while cached
        return keys

    def _matches(self, focus: Focus, parts: dict) -> bool:
        """Memoized ``focus.matches_parts(parts)`` keyed by identity."""
        memo = self._match_memo
        key = (id(focus), id(parts))
        hit = memo.get(key)
        if hit is not None:
            return hit[2]
        result = focus.matches_parts(parts)
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[key] = (focus, parts, result)  # pin both: ids stay valid while cached
        return result

    def _accumulate(self, instr: ActiveInstrumentation, segment: TimeSegment) -> None:
        """Fold one matching-activity segment into one probe (shared by
        the routed and scan paths — equivalence is per-probe identical
        fold order over the same segment stream)."""
        if instr.metric.kind == "count":
            # one completed operation per segment, counted when it
            # finishes inside the active window
            if (
                instr.active_from <= segment.end
                and (instr.deleted_at is None or segment.end <= instr.deleted_at)
                and self._matches(instr.focus, segment.parts)
            ):
                instr.accumulated += 1.0
            return
        dt = instr.overlap(segment.start, segment.end)
        if dt <= 0.0:
            return
        if self._matches(instr.focus, segment.parts):
            instr.accumulated += dt

    # ------------------------------------------------------------------
    # trace sink + perturbation source
    # ------------------------------------------------------------------
    def record(self, segment: TimeSegment) -> None:
        if not self.routing_enabled:
            self.record_scan(segment)
            return
        self.segments_routed += 1
        activity = segment.activity
        if activity is _COMPUTE:  # _route_for, inlined on the hot path
            route = self._route_compute
        elif activity is _SYNC:
            route = self._route_sync
        else:
            route = self._route_io
        if not route:
            return
        accumulate = self._accumulate
        examined = 0
        for key in self._segment_keys(segment.parts):
            bucket = route.get(key)
            if bucket:
                examined += len(bucket)
                for instr in bucket.values():
                    accumulate(instr, segment)
        self.probes_examined += examined

    def record_scan(self, segment: TimeSegment) -> None:
        """Reference path: examine every active probe (the pre-index cost
        shape; kept for debugging and equivalence checks)."""
        self.segments_scanned += 1
        self.probes_examined += len(self._active)
        for instr in self._active.values():
            if instr.metric.counts(segment.activity):
                self._accumulate(instr, segment)

    def _overhead_for(self, proc_name: str) -> float:
        return self.cost_model.overhead_fraction(self._per_proc_cost.get(proc_name, 0.0))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _lookup(self, handle: int) -> ActiveInstrumentation:
        instr = self._active.get(handle)
        if instr is None:
            raise KeyError(f"unknown or deleted instrumentation handle {handle}")
        return instr

    @contextmanager
    def batched_reads(self) -> Iterator[None]:
        """Share one ``engine.in_progress()`` snapshot across every
        :meth:`read` inside the block.

        The evaluation pass reads many handles at one engine instant;
        re-walking the per-process in-progress table for each handle is
        pure waste.  Virtual time cannot advance inside the block (reads
        do not step the engine), so one snapshot is exact for all of
        them.  On the routed path the snapshot is also routed once to
        every live handle; a probe requested inside the block was not
        routed, so its reads scan the snapshot.
        """
        prev = self._in_progress_snapshot, self._in_progress_routed
        snapshot = tuple(self.engine.in_progress())
        self._in_progress_snapshot = snapshot
        self._in_progress_routed = (
            self._route_in_progress(snapshot) if self.routing_enabled else None
        )
        try:
            yield
        finally:
            self._in_progress_snapshot, self._in_progress_routed = prev

    def _route_in_progress(
        self, segments: Tuple[TimeSegment, ...]
    ) -> Dict[int, List[TimeSegment]]:
        """Each live handle's candidate in-progress segments, in snapshot
        order: the segments whose routing buckets hold that probe."""
        routed: Dict[int, List[TimeSegment]] = {h: [] for h in self._active}
        for seg in segments:
            route = self._route_for(seg.activity)
            if not route:
                continue
            for key in self._segment_keys(seg.parts):
                bucket = route.get(key)
                if bucket:
                    for handle in bucket:
                        routed[handle].append(seg)
        return routed

    def read(self, handle: int) -> Tuple[float, float]:
        """Return (accumulated seconds, observed elapsed seconds).

        In-progress activity (e.g. a blocking receive that has not yet
        returned) is included, so reads are exact at any instant.
        """
        instr = self._lookup(handle)
        now = self.engine.now
        elapsed = max(now - instr.active_from, 0.0)
        if elapsed == 0.0:
            return 0.0, 0.0
        value = instr.accumulated
        if instr.metric.kind != "time":
            # in-progress activity only contributes to time metrics;
            # counts only include completed operations
            return value, elapsed
        routed = self._in_progress_routed
        segs = routed.get(handle) if routed is not None else None
        if segs is not None:
            # routed segments already carry one of the metric's activities
            for seg in segs:
                dt = instr.overlap(seg.start, seg.end)
                if dt > 0.0 and self._matches(instr.focus, seg.parts):
                    value += dt
        else:
            segs = self._in_progress_snapshot
            if segs is None:
                segs = tuple(self.engine.in_progress())
            for seg in segs:
                if not instr.metric.counts(seg.activity):
                    continue
                dt = instr.overlap(seg.start, seg.end)
                if dt > 0.0 and self._matches(instr.focus, seg.parts):
                    value += dt
        return value, elapsed

    def normalized_read(self, handle: int) -> Tuple[float, float]:
        """Return (fraction, elapsed): accumulated time normalised by
        elapsed × matched-process count (the hypothesis test value)."""
        self._sync_proc_table()
        instr = self._lookup(handle)
        value, elapsed = self.read(handle)
        denom = elapsed * max(len(instr.processes), 1)
        return (value / denom if denom > 0 else 0.0), elapsed

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def total_cost(self) -> float:
        return self.gate.total

    @property
    def peak_cost(self) -> float:
        return self.gate.peak

    @property
    def mean_cost(self) -> float:
        """Time-weighted mean enabled instrumentation cost so far."""
        self._accrue_cost()
        elapsed = self._cost_last - self._cost_t0
        return self._cost_integral / elapsed if elapsed > 0 else 0.0

    def instrumentation(self, handle: int) -> ActiveInstrumentation:
        return self._active[handle]
