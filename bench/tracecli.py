"""Run one `polyradii` command with its layer functions traced.

Usage: python3 bench/tracecli.py SPANS.json COMMAND [ARGS...]

The traced counterpart of `python3 -m polyradii.cli COMMAND [ARGS...]`:
same stdout, stderr and exit code, and the command's spans are written to
SPANS.json when it ends.
"""

import sys

import spans


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    from polyradii import cli

    try:
        return cli.run(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
