"""Traced child process: run one chigenus CLI op under span wrappers.

    python3 bench/trace_child.py SPANS.json ARGV...

Imports ``chigenus.cli`` (timing the import), installs the wrappers from
`tracer.py`, calls ``chigenus.cli.main(ARGV)``, writes the spans and
counters to SPANS.json and exits with main's exit code.  Stdout is the
program's own output, byte for byte.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import chigenus.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_root(chigenus.cli.main, argv)
    except SystemExit as exc:  # argparse exits from inside main, e.g. --version
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    finally:
        sys.stdout.flush()
        record = tracer.dump()
        record["import_s"] = import_s
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
