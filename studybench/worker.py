"""One benchmark operation in a fresh process: set-up, then one CLI command.

    python3 worker.py --command certify|run|setup --config CFG --out DIR
                      --result RESULT.json [--trace]

Set-up is what every `opinfer` command pays: importing `opinfer.cli` and
loading and validating the config (`cli.load_config`).  The worker stamps
the end of set-up and the start and end of the command on the system-wide
monotonic clock, which the parent shares, and writes them with the exit
code and the process's peak resident set size to RESULT.json.  With
`--trace` the layer spans of the command are written there too.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", choices=("certify", "run", "setup"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from opinfer import cli

    cli.load_config(args.config)
    setup_done = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    argv = [args.command, "--config", args.config, "--out", args.out]
    start = time.monotonic()
    if args.command == "setup":
        code = 0
    elif tracer:
        code = tracer.call(ROOT, cli.main, (argv,))
    else:
        code = cli.main(argv)
    end = time.monotonic()

    result = {
        "exit": code,
        "setup_done": setup_done,
        "start": start,
        "end": end,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": os.path.abspath(cli.__file__),
    }
    if tracer:
        result["trace"] = tracer.dump()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
