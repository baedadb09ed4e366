"""Start the stock server with the benchmark's span shims installed.

    python traced_server.py --spans FILE --marker FILE -- <server args>

The shims forward calls untouched until the client creates the marker
file (after its warm-up), then count spans; the totals and the first
detailed spans are written to ``--spans`` when the server exits.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers

#: Root spans kept in full: about four per statement (frame decode,
#: execute, result marshalling, frame encode).
DETAIL_ROOTS = 4 * 50


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--marker", required=True)
    parser.add_argument("server_args", nargs="*")
    args = parser.parse_args(argv)
    tracer = layers.Tracer(
        marker=args.marker, detail_roots=DETAIL_ROOTS
    ).install()
    from repro.server.__main__ import main as serve

    try:
        return serve(args.server_args)
    finally:
        with open(args.spans, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
