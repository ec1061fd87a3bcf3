#!/usr/bin/env python3
"""The session benchmark: one diagnosis session, end to end and by layer.

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

One run sets its workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), measures one window of ``--seconds`` (at least 100 sessions),
checks every session's outcome, prints each metric with its unit, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, with spans wrapped around the program's layers).
``--workload all`` runs each workload untraced and traced in child
processes and reports tracing overhead as traced over untraced
``session_p50_ms``.  See ``perfbench/README.md``.

Exits non-zero when an outcome differs from its reference, when the
program under test is missing, or on any other failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: ``run_seconds`` of ``BENCHMARK.json``.
RUN_SECONDS = 30

from harness import (DEFAULT_SEED, PER_LAYER, SETUP_REPEATS,  # noqa: E402
                     UNITS, WORKLOAD_LAYERS, DigestCheck, benchmark_spec,
                     geomean_of_medians, mb, median, percentile)


def workload_classes() -> dict:
    from archive import ArchiveCold
    from paper_loop import PaperLoop
    from served import Served

    return {cls.name: cls for cls in (PaperLoop, Served, ArchiveCold)}


def end_to_end(window, setups) -> dict:
    latencies = [s for _, _, s in window.sessions]
    p90 = percentile(latencies, 90)
    if p90 is None:
        raise RuntimeError(f"{len(latencies)} sessions cannot support a p90")

    def by_app(kind: str) -> dict:
        groups: dict = {}
        for k, app, s in window.sessions:
            if k == kind and "<-" not in app:
                groups.setdefault(app, []).append(s)
        return groups

    return {
        "session_p50_ms": median(latencies) * 1e3,
        "session_p90_ms": p90 * 1e3,
        "sessions_per_s": len(latencies) / window.wall_s,
        "undirected_ms": geomean_of_medians(by_app("undirected")) * 1e3,
        "directed_ms": geomean_of_medians(by_app("directed")) * 1e3,
        "harvest_ms": median(window.harvest_s) * 1e3,
        "rss_peak_mb": mb(window.rss_kib),
        "setup_s": median(setups),
    }


def per_layer(window, p50_ms: float) -> dict:
    from tracing import program_layers

    layers = {name: 0.0 for name, *_ in PER_LAYER + WORKLOAD_LAYERS}
    if window.snapshot is not None:
        layers.update(program_layers(window.snapshot, window.outcomes))
    layers.update(window.layers)
    layers["trace.session_p50_ms"] = p50_ms
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference) -> dict:
    from common import Context
    from tracing import Tracer, install_program_spans

    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    check = DigestCheck(reference)
    ctx = Context(seed=seed, seconds=seconds, trace=trace, work=work,
                  check=check)
    workload = workload_classes()[name](ctx)
    setups = []
    state = None
    tracer = None
    try:
        for i in range(SETUP_REPEATS):
            if state is not None:
                workload.discard(state)
                state = None
            t0 = time.perf_counter()
            state = workload.prepare(work / f"setup-{i}")
            setups.append(time.perf_counter() - t0)
        if trace and workload.in_process:
            tracer = Tracer()
            install_program_spans(tracer)
        window = workload.measure(state, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
        if state is not None:
            workload.discard(state)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    e2e = end_to_end(window, setups)
    extra = {}
    metrics = e2e
    if trace:
        metrics = per_layer(window, e2e["session_p50_ms"])
        extra = {name: metrics.pop(name) for name, *_ in WORKLOAD_LAYERS}
    tally = window.tally
    problems = check.mismatches + window.faults
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "_report": {"seed": seed, "problems": problems, "extra": extra,
                    "tally": vars(tally), "error_rate": tally.error_rate,
                    "sessions": len(window.sessions),
                    "digests": dict(sorted(check.seen.items()))},
    }


def print_result(name: str, result: dict) -> None:
    report = result.pop("_report")
    tally = report["tally"]
    print(f"workload {name}  seed {report['seed']}  "
          f"sessions {report['sessions']}  attempted {result['attempted']}  "
          f"failed {result['failed']} (errors {tally['errors']}, rejected "
          f"{tally['rejected']}, degraded {tally['degraded']}, mismatched "
          f"{tally['mismatched']})  error_rate {report['error_rate']:.4f}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.4f} {metric['unit']}")
    for key, value in report["extra"].items():
        print(f"  {key:32s} {value:14.4f} {UNITS[key]}  (workload-specific)")
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps(result), flush=True)


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, in child processes."""
    rows = []
    ok = True
    for name in workload_classes():
        pair = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(ROOT),
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                break
            pair.append(json.loads(lines[-1]))
        if len(pair) == 2:
            plain = pair[0]["metrics"]["session_p50_ms"]["value"]
            traced = pair[1]["metrics"]["trace.session_p50_ms"]["value"]
            rows.append((name, plain, traced))
    print("tracing overhead (traced vs untraced session_p50_ms):")
    for name, plain, traced in rows:
        print(f"  {name:16s} {plain:9.2f} ms -> {traced:9.2f} ms  "
              f"({(traced / plain - 1) * 100:+.1f}%)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="paper-loop, served-history, archive-cold or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the workload's outcome digests (default "
                             "seed) as the committed reference")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the metric definitions")
    args = parser.parse_args(argv)
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({ROOT / 'src'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workload_classes():
        parser.error(f"unknown workload {args.workload!r}")
    if args.write_reference:
        return write_reference(args.workload, args.seconds)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), reference)
    except Exception:  # noqa: BLE001 - the run failed; no result line
        traceback.print_exc()
        return 1
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


def write_reference(name: str, seconds: float) -> int:
    result = run_workload(name, DEFAULT_SEED, seconds, False, None)
    report = result["_report"]
    if not result["correct"]:
        print(report["problems"], file=sys.stderr)
        return 1
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[name] = report["digests"]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(report['digests'])} digests for {name} to {REFERENCE}")
    return 0


def write_spec() -> int:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_spec(RUN_SECONDS), indent=2) + "\n")
    print(f"wrote {path}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
