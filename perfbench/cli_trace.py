"""Run one exgates CLI command with its layers in spans.

Usage: python cli_trace.py SPANS_JSON COMMAND [ARGS...]

Behaves like ``python -m exgates.cli COMMAND [ARGS...]`` and also writes
the process's spans to SPANS_JSON: ``cli.import`` around the import of
``exgates.cli``, ``cli.<command>`` around the command, and the wrapped
library layers inside it.
"""

import sys
import time
from pathlib import Path

import spans

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    rec = spans.Recorder()
    idx = rec.open("cli.import")
    import exgates.cli

    rec.close(idx)
    spans.install(rec)
    idx = rec.open(f"cli.{argv[0]}")
    try:
        code = exgates.cli.main(argv)
    finally:
        rec.close(idx)
    rec.dump(out_path)
    sys.exit(code)
