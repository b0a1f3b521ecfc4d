"""Traced stand-in for ``python -m muellerkit.cli``.

Usage: python cli_shim.py SPANS.npz CLI_ARGS...

Installs the benchmark's span wrappers, runs ``muellerkit.cli.main`` on
CLI_ARGS as one op, writes the spans to SPANS.npz and exits with the
code ``main`` returned. ``src/`` must be on PYTHONPATH.
"""

import sys

import tracing


def main():
    spans, args = sys.argv[1], sys.argv[2:]
    import muellerkit.cli

    tr = tracing.Tracer()
    tracing.install(tr)
    tr.begin(0)
    try:
        return muellerkit.cli.main(args)
    finally:
        tr.save(spans)


if __name__ == "__main__":
    sys.exit(main())
