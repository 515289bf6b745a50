"""`tsnfv serve` with the traced run's wrappers installed; writes the
server's spans to SPANS when the server stops.

usage: python3 perfbench/serve_traced.py SPANS serve --listen HOST:PORT --state S
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main(spans_path: str, argv: list[str]) -> int:
    from tsnfv import cli

    tracer = Tracer()
    tracer.install()  # each request line's handle_line span is one operation
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
