"""One traced `neurobench` CLI call, for the traced run of `cli_oneshot`.

    python perfbench/cli_traced.py SPANS_OUT.json -- CLI_ARGS...

Installs the layer wrappers, runs `neurobench.cli.main(CLI_ARGS)`, writes the
spans to SPANS_OUT.json and exits with the CLI's status.
"""

import sys

import neurobench.cli
from tracing import Tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_OUT.json -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    try:
        return neurobench.cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code
    finally:
        tracer.restore()
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
