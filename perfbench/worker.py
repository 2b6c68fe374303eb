"""One workload process: builds the workload's inputs, then runs items on
request from `run.py`, one JSON line per request and reply.

With --trace the set-up itself is traced as an item named "setup", and its
per-layer totals come with the ready message.

Requests (stdin): {"run": index, "trace": bool, "keep_spans": bool} or
{"exit": true}. Replies go to the stdout the process started with; fd 1 is
pointed at stderr so nothing else the program prints can mix into them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frontier", action="store_true")
    parser.add_argument("--trace", action="store_true", help="trace the set-up as an item named setup")
    parser.add_argument("--spans", default=None, help="JSONL file for kept spans")
    parser.add_argument("--src", required=True, help="directory the chargraph package must come from")
    args = parser.parse_args()

    reply = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import chargraph  # set-up includes the import
    import workloads
    from layertrace import Tracer

    src = Path(args.src).resolve()
    if Path(chargraph.__file__).resolve().parent != src / "chargraph":
        raise SystemExit(f"chargraph imported from {chargraph.__file__}, not {src}")
    tracer = Tracer()
    setup_layers = None
    if args.trace:
        tracer.install()
        tracer.keep_spans = True
        tracer.begin_item("setup")
    try:
        items = workloads.build(args.workload, args.seed, frontier=args.frontier)
    finally:
        if args.trace:
            setup_layers = tracer.end_item()
            tracer.uninstall()

    def send(obj) -> None:
        reply.write(json.dumps(obj) + "\n")

    send({"ready": True, "items": [[it.id, it.limit] for it in items],
          "setup_layers": setup_layers})

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            break
        item = items[req["run"]]
        traced = bool(req.get("trace"))
        if traced:
            tracer.install()
            tracer.keep_spans = bool(req.get("keep_spans"))
            tracer.begin_item(item.id)
        error = None
        output = None
        t0 = time.perf_counter()
        try:
            output = item.run()
        except Exception:  # an item that raises is a failed item, not a crash
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        send({"ran": seconds})
        layers = None
        if traced:
            layers = tracer.end_item()
            tracer.uninstall()
        failures = [error] if error else item.check(output)
        if item.rows is not None and output is not None and layers is not None:
            layers.setdefault("cli", {"calls": 0, "self_s": 0.0})["rows"] = item.rows(output)
        send({"item": item.id, "failures": failures, "layers": layers})

    if tracer.kept and args.spans:
        with open(args.spans, "a", encoding="utf-8") as fh:
            for span in tracer.kept:
                fh.write(json.dumps(span) + "\n")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    send({"exit": True, "peak_rss_mb": rss_mb, "spans_kept": len(tracer.kept),
          "spans_dropped": tracer.dropped, "items_kept": tracer.items_kept,
          "items_dropped": tracer.items_dropped})
    return 0


if __name__ == "__main__":
    sys.exit(main())
