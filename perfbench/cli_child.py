"""Traced stand-in for ``python -m substrum``: run the CLI under a Tracer.

    python3 cli_child.py SPANS_JSON TARGETS_JSON -- <substrum arguments>

Writes the tracer summary to SPANS_JSON and exits with the CLI's code.
"""

import json
import sys

import spans


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: cli_child.py SPANS_JSON TARGETS_JSON -- ARGS")
    out_path, targets, _, *argv = sys.argv[1:]
    import substrum.cli as cli  # loads every module the CLI uses

    tracer = spans.Tracer(json.loads(targets))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
