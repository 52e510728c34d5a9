"""The server under test, in a process of its own.

``run.py`` starts this file for every server it needs.  It boots the
company-control application from a ``repro-db/1`` snapshot file with the
repo's own defaults — ``ServeConfig()`` apart from the ephemeral port —
announces the port on stdout, serves until SIGTERM, and reports its peak
resident set (``VmHWM``) on the way out.  With ``--trace`` the spans of
``trace.py`` are installed before the server is built and written when
it stops.

stdout protocol, one JSON object per line::

    {"event": "ready", "port": 43123}
    {"event": "exit", "maxrss_kb": 81234}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--trace", default="", help="span file to write")
    parser.add_argument("--op", default="boot", help="id of the boot span")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    replaced = recorder = boot = None
    if args.trace:
        import trace as spans

        recorder = spans.Recorder()
        boot = recorder.begin("bench", "server_main", op=args.op)
        importing = recorder.begin("bench", "import_repro")
    from repro.apps import company_control
    from repro.serve import ExplanationServer, ServeConfig

    if recorder is not None:
        recorder.end(importing)
        replaced = spans.install(recorder)

    with open(args.snapshot, encoding="utf-8") as handle:
        snapshot = handle.read()
    server = ExplanationServer(
        company_control.build(), snapshot=snapshot, config=ServeConfig(port=0)
    )

    def on_ready(ready: ExplanationServer) -> None:
        if recorder is not None:
            recorder.end(boot)
        print(json.dumps({
            "event": "ready", "port": ready.port,
            "boot_s": time.perf_counter() - started,
        }), flush=True)

    try:
        server.run(on_ready=on_ready)      # returns on SIGTERM / SIGINT
    finally:
        if recorder is not None:
            spans.restore(replaced)
            recorder.write(args.trace)
    print(json.dumps({"event": "exit", "maxrss_kb": _peak_rss_kb()}),
          flush=True)
    return 0


def _peak_rss_kb() -> int:
    """``VmHWM`` of this process.  ``ru_maxrss`` will not do: across
    fork and exec it keeps the parent's peak, and the load generator can
    be the bigger of the two."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
