"""Run one codebounds CLI command with every public function traced.

    python3 perfbench/cli_child.py SPANS_FILE ARG...

Equivalent to ``python -m codebounds ARG...`` except that the import of
``codebounds.cli`` is timed and the command's spans are written to
SPANS_FILE (header: ``import_s``). Needs ``src`` on PYTHONPATH.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import codebounds.cli

    import_s = time.perf_counter() - start
    import spans  # standard library only, so it does not shift the timed import

    tracer = spans.Tracer()
    tracer.install()
    try:
        return codebounds.cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1], {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
