"""Run one plda-local CLI command with tracing on, then write its spans.

    python3 perfbench/traced_cli.py SPANS_PATH <plda-local arguments...>

The package must be importable (PYTHONPATH=src). Exits with the command's
own exit code.
"""
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from plda_local import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    tracing.dump_spans([("cli", tracer.take())], spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
