"""What the three workloads share: the run context, the measured
window and its outcome, and store helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from harness import DigestCheck, Tally, digest
from repro.storage import ExperimentStore, RunRecord

#: A window keeps measuring past ``--seconds`` until it has attempted
#: this many sessions, so ``session_p90_ms`` has ten samples beyond it.
MIN_SESSIONS = 100


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    check: DigestCheck


@dataclass
class Window:
    """Everything one measured window produced."""

    #: (kind, app, seconds) per session; kind is "directed"/"undirected".
    sessions: List[tuple] = field(default_factory=list)
    wall_s: float = 0.0
    tally: Tally = field(default_factory=Tally)
    harvest_s: List[float] = field(default_factory=list)
    rss_kib: float = 0.0
    #: ``metrics`` and ``pairs_tested`` of every session's record.
    outcomes: List[dict] = field(default_factory=list)
    #: Span snapshot of the window (traced runs only).
    snapshot: Optional[dict] = None
    #: Per-layer metrics read from outside the spans (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Fatal problems that make the run incorrect (e.g. a server traceback).
    faults: List[str] = field(default_factory=list)


class Clock:
    """The measured window: runs until ``seconds`` have passed *and*
    :data:`MIN_SESSIONS` sessions were attempted."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, attempted: int) -> bool:
        return self.elapsed() < self.seconds or attempted < MIN_SESSIONS


def replicate(record: RunRecord, run_id: str) -> RunRecord:
    """A stored copy of *record* under another run id."""
    payload = record.to_dict()
    payload["run_id"] = run_id
    return RunRecord.from_dict(payload)


def store_shape(path: Path) -> Dict[str, int]:
    """Index size, compaction generation and aggregate coverage of the
    store at *path*, from its public ``info()``."""
    store = ExperimentStore(path)
    try:
        info = store.info()
    finally:
        store.close()
    return {"index_bytes": info.index_bytes, "generation": info.generation,
            "runs": info.runs, "aggregated_runs": info.aggregated_runs}


def timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def storage_layers(shapes: List[Dict[str, int]], compactions: int
                   ) -> Dict[str, float]:
    """Storage layer metrics of the stores a window wrote (*shapes* from
    :func:`store_shape`) and the compactions it caused."""
    runs = sum(s["runs"] for s in shapes)
    return {
        "storage.index_bytes": float(sum(s["index_bytes"] for s in shapes)),
        "storage.compactions": float(compactions),
        "storage.aggregate_coverage": (
            sum(s["aggregated_runs"] for s in shapes) / runs if runs else 0.0),
    }


def record_session(window: Window, check, kind: str, app: str, spec: str,
                   record: dict, seconds: float) -> None:
    """Account one finished session: latency, outcome, digest check."""
    window.sessions.append((kind, app, seconds))
    window.outcomes.append({"metrics": record["metrics"],
                            "pairs_tested": record["pairs_tested"]})
    if record["status"] != "complete":
        window.tally.degraded += 1
    if not check.check(spec, digest(record)):
        window.tally.mismatched += 1
