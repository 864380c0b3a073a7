"""Run one `qsix` command under the layer tracer and save its spans.

Usage: python cli_child.py SPANS_PATH ARG...

Stands in for the console script in the traced replay of cli-oneshot: it
times `import qsix.cli` as an `import` span, runs `qsix.cli.main(ARG...)`
with every layer wrapped, writes the spans to SPANS_PATH and exits with
main's exit code. Standard output is the command's own.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qsix.cli
    end = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans.append(["import.qsix_cli", start, end, -1, None])
    tracer.install()
    try:
        return qsix.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
