"""A save's existence check without parsing the base index.

The file backend answers "is this run indexed, and under which seq?"
from the newest segment op naming the run, else from the ``seqs`` the
base's aggregate sidecar records — and only falls back to the full
merge (which parses ``index.json``) when it cannot prove that answer.
These tests pin both halves: a cold save over a compacted store never
reads the base, every unprovable state falls back, and the decisions
(raise vs. write, reused vs. fresh seq) always equal the full merge's.
"""

import json
import random

import pytest

from repro.faults import IOFault, IOFaultPlan
from repro.faults import io as io_faults
from repro.storage import ExperimentStore, RunRecord, StoreError
from repro.storage.file_backend import FileBackend


def _record(run_id: str) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="lookup",
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0,
        search_done_time=None,
        pairs_tested=0,
        total_requests=0,
        peak_cost=0.0,
    )


def _open(root, backend="file") -> ExperimentStore:
    return ExperimentStore(root, backend=backend, auto_compact=0,
                           resilience=False)


def _seqs(root) -> dict:
    """The full merge's ``{run_id: seq}`` (a fresh backend, no caches)."""
    return {run_id: meta.get("seq")
            for run_id, meta in FileBackend(root).read_merged().items()}


def _archive(root) -> None:
    """A compacted base (r0-r3) plus unfolded segments: appends (r4-r6),
    a delete of a base run (r1) and of a segment run (r6)."""
    store = _open(root)
    for i in range(4):
        store.save(_record(f"r{i}"))
    store.compact()
    for i in range(4, 7):
        store.save(_record(f"r{i}"))
    store.delete("r1")
    store.delete("r6")


def _apply_save_ops(store: ExperimentStore) -> None:
    """New, overwrite and duplicate saves over base and segment runs,
    a re-save of a deleted run, and a delete."""
    store.save(_record("fresh"))
    store.save(_record("r2"), overwrite=True)  # in the base
    store.save(_record("r4"), overwrite=True)  # in a segment
    for duplicate in ("r3", "r5"):  # base, segment
        with pytest.raises(StoreError, match="already stored"):
            store.save(_record(duplicate))
    store.save(_record("r1"))  # deleted in a segment: a new run again
    store.save(_record("r6"))  # put, then deleted, in segments
    store.delete("r0")


def _expected_after(before: dict) -> dict:
    # r0-r6 took seqs 0-6 (a stale variant's legacy save takes 6, the
    # deleted r6's, instead); deletes never hand a seq out again.
    nxt = 7
    expected = dict(before)
    expected["fresh"] = nxt
    expected["r1"] = nxt + 1
    expected["r6"] = nxt + 2
    del expected["r0"]
    return expected


def test_cold_save_never_reads_the_base(tmp_path):
    root = tmp_path / "archive"
    _archive(root)
    before = _seqs(root)
    assert "r1" not in before and "r6" not in before and before["r5"] == 5
    plan = IOFaultPlan(seed=1401, faults=(
        IOFault(op="read", at=0, kind="eio", times=99, path_part="index.json"),
    ))
    with io_faults.injected(plan) as injector:
        _apply_save_ops(_open(root))
    assert not injector.injected, \
        f"a save parsed the base: {injector.injected}"
    assert _seqs(root) == _expected_after(before)


def _no_sidecar(root) -> None:
    (root / "index.aggregate").unlink()


def _stale_sidecar(root) -> None:
    # A legacy write rewrites the base (and retires the sidecar); putting
    # the old sidecar back leaves one that names a base no longer there.
    sidecar = (root / "index.aggregate").read_bytes()
    _open(root, backend="file-legacy").save(_record("legacy"))
    (root / "index.aggregate").write_bytes(sidecar)


def _sidecar_without_seqs(root) -> None:
    # What an older writer leaves: valid aggregates, no run ids.
    path = root / "index.aggregate"
    data = json.loads(path.read_text())
    del data["seqs"]
    path.write_text(json.dumps(data))


def _sidecar_with_garbled_seqs(root) -> None:
    path = root / "index.aggregate"
    data = json.loads(path.read_text())
    data["seqs"] = data["seqs"][:-3]
    path.write_text(json.dumps(data))


@pytest.fixture
def base_reads(monkeypatch) -> list:
    """One entry per ``FileBackend._read_base`` call (cache hits too)."""
    calls = []
    read_base = FileBackend._read_base

    def counting_read_base(self):
        calls.append(1)
        return read_base(self)

    monkeypatch.setattr(FileBackend, "_read_base", counting_read_base)
    return calls


@pytest.mark.parametrize("degrade", [
    _no_sidecar, _stale_sidecar, _sidecar_without_seqs,
    _sidecar_with_garbled_seqs,
], ids=["no-sidecar", "stale-sidecar", "sidecar-without-seqs",
        "garbled-seqs"])
def test_unprovable_sidecar_falls_back_to_the_merge(tmp_path, base_reads,
                                                    degrade):
    root = tmp_path / "archive"
    _archive(root)
    degrade(root)
    before = _seqs(root)
    base_reads.clear()
    _apply_save_ops(_open(root))
    assert base_reads, "the save should have fallen back to the full merge"
    assert _seqs(root) == _expected_after(before)


def test_transient_sidecar_read_error_is_not_cached(tmp_path):
    """One EIO on the sidecar costs that call its fast path, not every
    later one: the intact sidecar is read again next time."""
    root = tmp_path / "archive"
    store = _open(root)
    for i in range(3):
        store.save(_record(f"r{i}"))
    store.compact()
    backend = _open(root).backend
    plan = IOFaultPlan(seed=1402, faults=(
        IOFault(op="read", at=0, kind="eio", times=1,
                path_part="index.aggregate"),
    ))
    with io_faults.injected(plan) as injector:
        assert backend.harvest_aggregate() is None  # this call rescans
    assert injector.injected, "plan never fired"
    assert backend.harvest_aggregate() is not None
    assert backend.info().aggregated_runs == 3


def test_undecodable_sidecar_falls_back(tmp_path):
    root = tmp_path / "archive"
    store = _open(root)
    store.save(_record("r0"))
    store.compact()
    (root / "index.aggregate").write_bytes(b"\xff\xfe not json")
    backend = _open(root).backend
    assert backend.harvest_aggregate() is None
    with pytest.raises(StoreError, match="already stored"):
        backend.put("r0", {}, {})
    backend.put("r1", _record("r1").to_dict(), {})
    assert _seqs(root) == {"r0": 0, "r1": 1}


# ---------------------------------------------------------------------------
# property: the lookup decides exactly what the full merge decides
# ---------------------------------------------------------------------------
_RUN_IDS = tuple(f"p{i}" for i in range(5))
_KINDS = ("save", "save", "save", "overwrite", "delete", "delete",
          "compact", "rebuild", "legacy", "drop-sidecar")


def _random_ops(seed: int, n: int = 40) -> list:
    rng = random.Random(seed)
    return [(rng.choice(_KINDS), rng.choice(_RUN_IDS)) for _ in range(n)]


def _drop_sidecar(root) -> None:
    (root / "index.aggregate").unlink(missing_ok=True)


def _replay(root, ops, base_reads: list, *, force_fallback: bool) -> tuple:
    """Apply *ops* one cold store at a time (as one-shot facade calls
    do).  Returns each op's outcome, the final ``{run_id: seq}``, and
    how many saves and deletes parsed the base."""
    _open(root)  # create the empty store
    outcomes = []
    writes_reading_base = 0
    for kind, run_id in ops:
        if force_fallback:
            _drop_sidecar(root)
        store = _open(root)
        reads_before = len(base_reads)
        try:
            if kind == "save":
                store.save(_record(run_id))
            elif kind == "overwrite":
                store.save(_record(run_id), overwrite=True)
            elif kind == "delete":
                store.delete(run_id)
            elif kind == "compact":
                store.compact()
            elif kind == "rebuild":
                store.rebuild_index()
            elif kind == "legacy":
                _open(root, backend="file-legacy").save(_record(run_id))
            else:
                _drop_sidecar(root)
        except StoreError as exc:
            outcomes.append((kind, run_id, type(exc).__name__))
        else:
            outcomes.append((kind, run_id, "ok"))
        if kind in ("save", "overwrite", "delete") \
                and len(base_reads) > reads_before:
            writes_reading_base += 1
    return outcomes, _seqs(root), writes_reading_base


@pytest.mark.parametrize("seed", range(16))
def test_lookup_agrees_with_full_merge(tmp_path, base_reads, seed):
    """Random saves (new, duplicate, overwrite), deletes, compactions,
    rebuilds, legacy-mode writes and sidecar deletions, replayed twice:
    as is, and with the sidecar deleted before every op so each lookup
    the segments cannot answer falls back to the full merge.  Outcomes
    and seqs must not differ."""
    ops = _random_ops(1500 + seed)
    *fast, fast_reads = _replay(tmp_path / "fast", ops, base_reads,
                                force_fallback=False)
    *slow, slow_reads = _replay(tmp_path / "slow", ops, base_reads,
                                force_fallback=True)
    context = f"seed={1500 + seed} ops={ops}"
    assert fast == slow, context
    assert fast_reads < slow_reads, \
        f"{context}: the sidecar never spared a save the base"
    # and both equal a model of which runs exist
    present = set()
    for (kind, run_id), (_k, _r, outcome) in zip(ops, fast[0]):
        if kind in ("save", "legacy"):
            assert (outcome == "ok") == (run_id not in present), context
            present.add(run_id)
        elif kind == "overwrite":
            assert outcome == "ok", context
            present.add(run_id)
        elif kind == "delete":
            present.discard(run_id)
    assert set(fast[1]) == present, context
