"""Run one citebench CLI subcommand with the benchmark's wrappers installed.

    python3 perfbench/cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

Installs the same wrappers as the in-process workloads, calls
`citebench.cli.main(argv)` and writes the spans when it returns. The exit
code is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from citebench import cli

    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
