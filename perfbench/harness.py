"""Metric definitions and the statistics every workload shares.

Kept free of any import from the program under test, so the rules
here (percentiles, geomeans, error accounting, the correctness digest)
are testable on their own and the spec written to ``BENCHMARK.json``
has one source.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

#: The seed the committed correctness reference was recorded with.
DEFAULT_SEED = 1

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

WORKLOADS = [
    {"name": "paper-loop",
     "why": "undirected diagnosis, harvest, directed diagnosis of Poisson "
            "A-D and Ocean through the facade: simulator, metrics and "
            "core.search do the work"},
    {"name": "served-history",
     "why": "2 closed-loop clients against repro serve with a warm pool over "
            "a history store that one request in four writes: protocol, "
            "scheduler, pool and store writes"},
    {"name": "archive-cold",
     "why": "cold one-shot diagnoses that open, harvest and append to a "
            "300-run archive: index parse, harvest, saves and compaction, "
            "no warm cache"},
]

#: name, unit, better, bound (share of the parent's median).
#: Wall-clock bounds are wide: on the 2-vCPU VM the benchmark was tuned
#: on, single-thread speed drifted by up to 1.8x over tens of seconds
#: (README.md).
END_TO_END = [
    ("session_p50_ms", "ms", "lower", 0.25),
    ("session_p90_ms", "ms", "lower", 0.25),
    ("sessions_per_s", "1/s", "higher", 0.25),
    ("undirected_ms", "ms", "lower", 0.25),
    ("directed_ms", "ms", "lower", 0.25),
    ("harvest_ms", "ms", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

#: name, unit, better.  Measured on every workload, so these are the
#: ``--trace 1`` result and the ``per_layer`` list of ``BENCHMARK.json``.
PER_LAYER = [
    ("simulator.engine_self_ms", "ms", "lower"),
    ("simulator.events", "count", "lower"),
    ("simulator.segments", "count", "lower"),
    ("simulator.events_per_s", "1/s", "higher"),
    ("metrics.profile_record_ms", "ms", "lower"),
    ("metrics.instr_record_ms", "ms", "lower"),
    ("metrics.probes_examined", "count", "lower"),
    ("core.search_tick_ms", "ms", "lower"),
    ("core.ticks", "count", "lower"),
    ("core.session_begin_ms", "ms", "lower"),
    ("core.record_assembly_ms", "ms", "lower"),
    ("core.pairs_tested", "count", "lower"),
    ("core.finalize_ms", "ms", "lower"),
    ("storage.save_ms", "ms", "lower"),
    ("storage.save_max_ms", "ms", "lower"),
    ("storage.index_bytes", "bytes", "lower"),
    ("storage.compactions", "count", "lower"),
    ("storage.aggregate_coverage", "ratio", "higher"),
    ("trace.session_p50_ms", "ms", "lower"),
]

#: Layers only some workloads run (elsewhere they read 0): printed with
#: the traced run, kept out of its result line.
WORKLOAD_LAYERS = [
    ("storage.open_ms", "ms", "lower"),
    ("storage.harvest_evidence_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.service_ms", "ms", "lower"),
    ("server.protocol_ms", "ms", "lower"),
    ("server.slices_per_session", "count", "lower"),
    ("server.pool_harvest_hit_ratio", "ratio", "higher"),
    ("server.pool_incremental_ratio", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + WORKLOAD_LAYERS}


def benchmark_spec(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for these definitions."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank *p*-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it (the sample cannot
    support that percentile)."""
    n = len(samples)
    rank = math.ceil(p / 100.0 * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def geomean_of_medians(groups: Mapping[str, Sequence[float]]) -> float:
    """Geometric mean over groups of each group's median, so a change
    on any one group moves the result by its own share."""
    meds = [median(v) for v in groups.values() if v]
    if not meds:
        raise ValueError("no samples in any group")
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


@dataclass
class Tally:
    """Operation accounting for one measured window.

    A rejected or degraded session, and one whose outcome does not
    match its reference, counts as failed: none of them gave the caller
    the diagnosis it asked for.
    """

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    degraded: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.degraded + self.mismatched

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# correctness digest
# ---------------------------------------------------------------------------
#: Record fields that fix a diagnosis' outcome.  Run ids, the metrics
#: block and everything else that carries wall-clock time stay out, so
#: only a wrong answer changes the digest.
DIGEST_FIELDS = ("shg_nodes", "thresholds", "profile", "finish_time",
                 "search_done_time")


def digest(record: Mapping) -> str:
    """SHA-256 over a record dict's outcome fields, in one wire shape
    whether the record was built in-process or decoded from JSON."""
    outcome = {k: record[k] for k in DIGEST_FIELDS}
    text = json.dumps(json.loads(json.dumps(outcome)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class DigestCheck:
    """Collects outcome digests per session spec and checks them.

    Every spec must always produce the digest it produced first (or
    that its one-shot reference fixed), and on the default seed that
    digest must equal the committed reference.
    """

    def __init__(self, reference: Optional[Mapping[str, str]]) -> None:
        self.reference = reference
        self.seen: Dict[str, str] = {}
        self.mismatches: List[str] = []

    def check(self, spec: str, value: str) -> bool:
        if self.reference is not None and self.reference.get(spec) != value:
            self._mismatch(f"{spec}: differs from the committed reference")
            return False
        first = self.seen.setdefault(spec, value)
        if first != value:
            self._mismatch(f"{spec}: differs from an earlier run")
            return False
        return True

    def _mismatch(self, message: str) -> None:
        if message not in self.mismatches:
            self.mismatches.append(message)


def mb(kib: float) -> float:
    return kib / 1024.0


def read_vmhwm_kib(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")
