"""``repro serve`` with the benchmark's spans installed.

Usage: ``python perfbench/traced_serve.py SPANS.json serve --port 0``.
Runs the ordinary CLI entry point; SIGUSR1 zeroes the spans (the
window starts), and on exit the span snapshot is written to SPANS.json.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, install_program_spans  # noqa: E402


def main(argv) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    install_program_spans(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
