"""Run the program's CLI with the layer tracer installed.

``python -m perfbench.launch --trace-dir DIR -- <repro arguments>``
installs the wrappers of :mod:`perfbench.tracing`, then calls
``repro.cli.main`` with the arguments (``serve`` dispatches to
``repro.serve.cli.main_serve`` there).  Pool workers the program forks
inherit the wrappers.
"""

import argparse
import sys

from perfbench import tracing


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="perfbench.launch")
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args(argv[:split])
    tracing.install(args.trace_dir)
    from repro.cli import main as repro_main

    code = repro_main(argv[split + 1:])
    tracing.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
