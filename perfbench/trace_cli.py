"""Run one photonmodes CLI command with the tracer installed.

    python perfbench/trace_cli.py SPANS_JSON WORKLOAD REP -- <photonmodes arguments>

The wrappers go in before ``photonmodes.cli.main`` runs; the spans are
written to SPANS_JSON when the command returns, and the process exits with
the command's exit code.
"""

import sys

from tracer import Tracer


def main(argv):
    spans_path, workload, rep, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit(f"usage: {__doc__.strip().splitlines()[0]}")
    tracer = Tracer().install()
    from photonmodes import cli
    try:
        return cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, workload, int(rep))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
