"""Benchmark worker: runs CLI jobs in-process, one per request.

Reads one JSON request per line on stdin and answers each with one JSON line
on the original stdout; anything else printed goes to stderr.  It stops at
the end of its input.  Requests:

  {"op": "job", "argv": [...]}         run perturbseries.cli.main(argv)
  {"op": "trace", "on": true}           install the layer-boundary wrappers
  {"op": "trace", "on": false, "spans": path}
                                        remove them, write the spans, summarize
  {"op": "calibrate", "seconds": s}     time calibration units for about s seconds
  {"op": "peak"}                        report peak resident memory so far
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _cache_info():
    try:
        from perturbseries import terms

        info = terms._dd_cached.cache_info()
    except (ImportError, AttributeError):
        return 0, 0
    return info.hits, info.misses


def main() -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def reply(obj: dict) -> None:
        replies.write(json.dumps(obj) + "\n")

    import perturbseries.cli as cli
    import calibrate
    import spans

    reply({"ready": True, "module": os.path.abspath(cli.__file__)})
    tracer = None
    cache_start = (0, 0)
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "job":
            error = None
            start = perf_counter()
            try:
                if tracer is None:
                    cli.main(msg["argv"], standalone_mode=False)
                else:
                    with tracer.job():
                        cli.main(msg["argv"], standalone_mode=False)
            except Exception:  # a failed job is counted, the worker goes on
                error = traceback.format_exc(limit=3)
            reply({"ok": error is None, "error": error, "worker_s": perf_counter() - start})
        elif op == "calibrate":
            units, seconds = calibrate.run_slice(msg["seconds"])
            reply({"units": units, "seconds": seconds})
        elif op == "trace" and msg["on"]:
            tracer = spans.Tracer()
            tracer.install()
            cache_start = _cache_info()
            reply({"missing": tracer.missing})
        elif op == "trace":
            tracer.remove()
            hits, misses = (b - a for a, b in zip(cache_start, _cache_info()))
            with open(msg["spans"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            summary = spans.summarize(tracer.spans)
            summary |= {"cache_hits": hits, "cache_misses": misses, "missing": tracer.missing}
            tracer = None
            reply(summary)
        elif op == "peak":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": peak_kb / 1024.0})
        else:
            raise ValueError(f"unknown request {op!r}")


if __name__ == "__main__":
    main()
