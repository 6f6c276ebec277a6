"""Run ``repro serve`` in this process, optionally under the trace shims.

Usage: ``serve_launcher.py --out FILE [--trace SPANS] -- serve <args>``.
The daemon runs through the program's own CLI entry point; this
launcher only times the program's import, keeps a handle on the daemon
object so its server statistics can be read after shutdown, and — with
``--trace`` — installs the benchmark's shims before the daemon starts,
removes them when it stops and writes the spans to the given file. It
writes one JSON record to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import repro.cli
    import repro.serve.daemon as daemon_module
    import_s = time.perf_counter() - t0

    daemons = []
    original_init = daemon_module.ServeDaemon.__init__

    def capture(self, *a, **kw):
        original_init(self, *a, **kw)
        daemons.append(self)

    daemon_module.ServeDaemon.__init__ = capture
    trace = None
    try:
        if args.trace:
            from shims import Trace

            trace = Trace().install()
        code = repro.cli.main(cli_args)
    finally:
        if trace is not None:
            trace.remove()
        daemon_module.ServeDaemon.__init__ = original_init

    stats = daemons[0].stats
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "import_s": import_s,
        "queue_waits": list(stats.queue_waits),
        "services": list(stats.services),
        "snapshot": stats.snapshot(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if trace is not None:
        trace.dump(args.trace)
        record["trace"] = trace.summary(top_thread="serve-scheduler")
        record["tallies"] = dict(trace.tallies)
        record["ops"] = trace.ops
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
