"""Run one confmeasures CLI command with spans around the package's layers.

    python bench/cli_traced.py SPANS_FILE ARGS...

runs ``confmeasures ARGS...`` and saves its spans, the package import
included, to SPANS_FILE (.npz) for the traced run of the ``cli`` workload.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    ix = tracer.begin("cli.import")
    import confmeasures.cli as cli
    tracer.finish(ix)
    tracer.instrument()
    try:
        return cli.main(args)
    finally:
        tracer.restore()
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main())
