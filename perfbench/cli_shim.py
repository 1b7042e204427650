"""Traced stand-in for `python -m hyp2.cli`: installs the tracing wrappers,
calls hyp2.cli.main with the same arguments, and writes the spans and counts
as the last line of stderr, after the marker.  stdout is the CLI's own.

    python perfbench/cli_shim.py <hyp2 subcommand and arguments>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hyp2.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.op = 0
    patches = tracing.install(tracer)
    try:
        rc = hyp2.cli.main(sys.argv[1:])
    finally:
        tracing.uninstall(patches)
        sys.stdout.flush()
        print(tracing.MARKER + json.dumps(tracer.summary()), file=sys.stderr, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
