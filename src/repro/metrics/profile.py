"""Always-on flat profiler.

Aggregates the complete execution's time by each hierarchy dimension
(code function, process, machine node, message tag) and activity class.
This is the "raw data needed to test hypotheses postmortem" the paper's
future-work section mentions, and it feeds directive extraction: historic
prunes need per-function execution fractions, and threshold suggestion
needs the value distribution of candidate foci.

Unlike dynamic instrumentation the profiler observes the whole run (it is
the store's ground truth, not an online measurement).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from ..resources.names import join_path
from ..simulator.records import TimeSegment

__all__ = ["FlatProfile", "ProfileCollector"]

#: Cap on the attribution memo; cleared wholesale when full.  A paper-app
#: session has tens of distinct (parts, stack) attributions; segments
#: built with fresh stack tuples never hit and only cycle the memo.
_MEMO_MAX = 1 << 14


class FlatProfile:
    """Aggregated per-resource activity totals for one execution.

    Besides the four single-dimension tables, the profile keeps a full
    *conjunction* table keyed by (code function, process, node, sync tag),
    which is exactly the postmortem data needed to evaluate any
    (hypothesis : focus) pair offline — the paper's future-work extension
    of extracting directives "where results ... from a previous PC run are
    not available, but we do have the raw data needed to test hypotheses
    postmortem".
    """

    def __init__(self) -> None:
        # resource name -> {"compute": s, "sync": s, "io": s}
        self.by_code: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_process: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_node: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.by_tag: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # inclusive attribution: every frame on the stack is charged
        self.by_code_inclusive: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # (code path, process path, node path, tag path or "") -> totals
        self.by_combo: Dict[Tuple[str, str, str, str], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.totals: Dict[str, float] = defaultdict(float)
        self.elapsed: float = 0.0
        # (id(parts), id(stack)) -> (parts, stack, entry dicts to bump)
        self._entry_memo: Dict[Tuple[int, int], tuple] = {}

    # -- accumulation -------------------------------------------------------
    def add(self, seg: TimeSegment) -> None:
        hit = self._entry_memo.get((id(seg.parts), id(seg.stack)))
        entries = hit[2] if hit is not None else self._resolve(seg)
        key = seg.activity._value_
        duration = seg.duration
        for entry in entries:
            entry[key] += duration
        end = seg.start + duration
        if end > self.elapsed:
            self.elapsed = end

    def _resolve(self, seg: TimeSegment) -> tuple:
        """The entry dicts one attribution charges, memoized by identity.

        Segment ``parts`` dicts are interned per (process, node, module,
        function, tag) and the engine reuses one stack tuple per
        prototype, so ``(id(parts), id(stack))`` names one attribution;
        the memo pins both objects, so an id cannot be reused while its
        entry is live.  Every name is joined (and validated) before any
        table is touched, so an invalid attribution changes nothing.
        """
        code = join_path(("Code", seg.module, seg.function))
        proc = join_path(("Process", seg.process))
        node = join_path(("Machine", seg.node))
        tag = ""
        if seg.tag is not None and "SyncObject" in seg.parts:
            tag = join_path(seg.parts["SyncObject"])
        frames = [
            join_path(("Code",) + frame)
            for frame in dict.fromkeys(seg.stack or ((seg.module, seg.function),))
        ]
        entries = [self.by_code[code], self.by_process[proc], self.by_node[node]]
        if tag:
            entries.append(self.by_tag[tag])
        entries.append(self.by_combo[(code, proc, node, tag)])
        entries.extend(self.by_code_inclusive[name] for name in frames)
        entries.append(self.totals)
        entries = tuple(entries)
        memo = self._entry_memo
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[(id(seg.parts), id(seg.stack))] = (seg.parts, seg.stack, entries)
        return entries

    # -- ground-truth evaluation -----------------------------------------------
    def focus_value(self, focus, activity_keys) -> float:
        """Total seconds of the given activity classes inside *focus*."""
        sels = {h: focus.selection(h) for h in focus.hierarchies}
        total = 0.0
        for (code, proc, node, tag), entry in self.by_combo.items():
            if "Code" in sels and not _under(code, sels["Code"]):
                continue
            if "Process" in sels and not _under(proc, sels["Process"]):
                continue
            if "Machine" in sels and not _under(node, sels["Machine"]):
                continue
            if "SyncObject" in sels and sels["SyncObject"] != "/SyncObject":
                if not tag or not _under(tag, sels["SyncObject"]):
                    continue
            for k in activity_keys:
                total += entry.get(k, 0.0)
        return total

    def focus_fraction(self, focus, activity_keys, placement: Dict[str, str]) -> float:
        """Ground-truth normalised hypothesis value for *focus*: matched
        seconds / (elapsed × matched process count), mirroring the online
        normalisation in :mod:`repro.metrics.instrumentation`."""
        if self.elapsed <= 0:
            return 0.0
        n = 0
        for proc, node in placement.items():
            if "Process" in focus.hierarchies and not _under(
                f"/Process/{proc}", focus.selection("Process")
            ):
                continue
            if "Machine" in focus.hierarchies and not _under(
                f"/Machine/{node}", focus.selection("Machine")
            ):
                continue
            n += 1
        if n == 0:
            return 0.0
        return self.focus_value(focus, activity_keys) / (self.elapsed * n)

    # -- queries --------------------------------------------------------------
    def total_time(self) -> float:
        """Summed process time across all activity classes."""
        return sum(self.totals.values())

    def fraction_of_total(self, table: Dict[str, Dict[str, float]], name: str, key: str) -> float:
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        return table.get(name, {}).get(key, 0.0) / total

    def code_exec_fraction(self, name: str) -> float:
        """Fraction of total execution time spent (in any class) in the
        given code resource — the signal for historic low-cost prunes."""
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        entry = self.by_code.get(name, {})
        return sum(entry.values()) / total

    def code_inclusive_fraction(self, name: str) -> float:
        """Inclusive variant: fraction of total execution time spent with
        the given function anywhere on the call stack."""
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        entry = self.by_code_inclusive.get(name, {})
        return sum(entry.values()) / total

    def sync_fraction_by_process(self, name: str) -> float:
        entry = self.by_process.get(name, {})
        t = sum(entry.values())
        return entry.get("sync", 0.0) / t if t > 0 else 0.0

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        def plain(table):
            return {k: dict(v) for k, v in table.items()}

        return {
            "by_code": plain(self.by_code),
            "by_process": plain(self.by_process),
            "by_node": plain(self.by_node),
            "by_tag": plain(self.by_tag),
            "by_code_inclusive": plain(self.by_code_inclusive),
            "by_combo": {"||".join(k): dict(v) for k, v in self.by_combo.items()},
            "totals": dict(self.totals),
            "elapsed": self.elapsed,
        }

    @staticmethod
    def from_dict(data: dict) -> "FlatProfile":
        prof = FlatProfile()
        for attr in ("by_code", "by_process", "by_node", "by_tag", "by_code_inclusive"):
            table = getattr(prof, attr)
            for name, entry in data.get(attr, {}).items():
                for key, val in entry.items():
                    table[name][key] += val
        for name, entry in data.get("by_combo", {}).items():
            parts = tuple(name.split("||"))
            for key, val in entry.items():
                prof.by_combo[parts][key] += val
        for key, val in data.get("totals", {}).items():
            prof.totals[key] += val
        prof.elapsed = data.get("elapsed", 0.0)
        return prof


def _under(path: str, ancestor: str) -> bool:
    """Prefix-at-component-boundary test for resource names."""
    return path == ancestor or path.startswith(ancestor + "/")


class ProfileCollector:
    """Trace sink wrapper around :class:`FlatProfile`."""

    def __init__(self) -> None:
        self.profile = FlatProfile()

    def record(self, segment: TimeSegment) -> None:
        self.profile.add(segment)
