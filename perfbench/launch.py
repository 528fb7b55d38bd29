"""Traced stand-in for ``python -m vacuumpairs``.

Usage: python perfbench/launch.py SPANS_JSON ARGV...

Installs the benchmark's span wrappers, runs ``vacuumpairs.cli.main(ARGV)``
and writes the spans to SPANS_JSON before exiting with main's exit code.
simulate_flight runs under tracemalloc here: a CLI call is dominated by
interpreter start-up, so the allocation tracking barely shows in its time.
"""

import json
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

import vacuumpairs.cli  # noqa: E402

from perfbench.spans import Tracer  # noqa: E402


def launch(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer(track_memory=True)
    tracer.install()
    try:
        return vacuumpairs.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.export()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2:]))
