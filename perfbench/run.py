"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain-sweeps --seed 1 --seconds 20 --trace 0

The workload runs in worker processes (`worker.py`). Set-up is timed from
starting a worker until it reports its inputs ready; it is sampled
SETUP_SAMPLES times per run, before and after the passes, and reported as
the median. The middle one of these workers runs passes over all of the
workload's items until `--seconds` have gone by (a pass that has started
is finished). An item that exceeds its time limit is killed with its
worker, counted as a failure at its limit, and a fresh worker takes over.

Untraced and without the frontier item, a reference worker loads the
frozen copy of chargraph in `reference/` and runs each item right after
the program's worker does; the gated timings `wall_rel` and
`item_p50_rel` are the program's times over the reference's, which
cancels most of the machine's changes of speed (see README.md).

With `--trace 1` that worker's set-up is traced (per-layer metrics
named `setup.<layer>.<count>`), and its passes alternate untraced and
traced; the traced ones give the per-layer metrics and the untraced ones
the base of `trace.overhead_frac`. End-to-end metrics come from
`--trace 0` runs only.

The metric names and units are read from BENCHMARK.json. Human-readable
lines come first; the last line of stdout is the JSON result. A detailed
report goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
REFERENCE_SRC = BENCH / "reference"  # a frozen copy of src/chargraph, see README.md

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60.0
CHECK_TIMEOUT_S = 60.0
IPC_SLACK_S = 1.0
RUN_DEADLINE_S = 165.0  # no item runs past this, so a run ends inside 180 s


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process and the JSON-lines channel to it."""

    def __init__(self, workload: str, seed: int, frontier: bool, spans: Path | None,
                 src: Path = SRC):
        self._args = (workload, seed, frontier, spans, src)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--src", str(src)]
        if frontier:
            cmd.append("--frontier")
        if spans is not None:
            cmd += ["--trace", "--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._buf = b""
        ready = self.read(SETUP_TIMEOUT_S)
        if ready is None:
            self.kill()
            raise WorkerError(f"worker for {workload} not ready within {SETUP_TIMEOUT_S} s")
        self.setup_s = time.perf_counter() - t0
        self.setup_layers = ready.get("setup_layers") or {}
        # (index in the worker, item id, time limit in s)
        self.items = [(i, item_id, float(limit)) for i, (item_id, limit) in enumerate(ready["items"])]

    def read(self, timeout: float) -> dict | None:
        """Next reply, or None when `timeout` seconds pass first."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                code = self.proc.wait()
                raise WorkerError(f"worker exited with code {code}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, obj: dict) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def close(self) -> dict:
        """Ask the worker to exit and wait for it; kill it if it does not."""
        try:
            self.send({"exit": True})
            info = self.read(CHECK_TIMEOUT_S)
            self.proc.wait(timeout=CHECK_TIMEOUT_S)
        except (WorkerError, BrokenPipeError, subprocess.TimeoutExpired):
            info = None
        self.kill()
        return info or {}

    def restart(self) -> None:
        """Kill this worker and set up a fresh one in its place."""
        self.kill()
        self.__init__(*self._args)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _sample_setups(args, count: int, setups: list[float]) -> None:
    for _ in range(count):
        w = Worker(args.workload, args.seed, args.frontier, None)
        setups.append(w.setup_s)
        w.close()


def run_passes(args, spans: Path | None) -> dict:
    """Set-up samples plus timed passes; returns the raw results.

    Half the extra set-up samples are taken before the passes and half
    after, so that their median spans the run rather than its first seconds.
    An untraced run without the frontier item also starts a reference
    worker, which loads the frozen copy of chargraph in `reference/`.
    """
    start = time.monotonic()
    setups: list[float] = []
    before = (SETUP_SAMPLES - 1) // 2
    _sample_setups(args, before, setups)
    worker = Worker(args.workload, args.seed, args.frontier, spans)
    setups.append(worker.setup_s)
    reference = None
    try:
        if not args.trace and not args.frontier:
            reference = Worker(args.workload, args.seed, args.frontier, None, REFERENCE_SRC)
        passes = _passes(args, worker, reference, setups, start)
    finally:
        info = worker.close()
        if reference is not None:
            reference.close()
    _sample_setups(args, SETUP_SAMPLES - 1 - before, setups)
    return {"setups": setups, "passes": passes, "peak_rss_mb": info.get("peak_rss_mb", 0.0),
            "setup_layers": worker.setup_layers,
            "spans": {"kept": info.get("spans_kept", 0), "dropped": info.get("spans_dropped", 0),
                      "items_kept": info.get("items_kept", 0),
                      "items_dropped": info.get("items_dropped", 0)}}


def _run_item(worker: Worker, idx: int, item_id: str, limit: float, traced: bool, keep: bool,
              left: float, setups: list[float] | None) -> dict:
    """Run one item on `worker`; a worker that hangs or dies is replaced, and
    the new one's set-up time goes to `setups` when that is given."""
    worker.send({"run": idx, "trace": traced, "keep_spans": keep})
    try:
        ran = worker.read(min(limit + IPC_SLACK_S, left))
        reply = worker.read(CHECK_TIMEOUT_S) if ran is not None else None
    except WorkerError as exc:
        ran, reply = {"ran": limit}, {"failures": [str(exc)], "died": True}
    if ran is None or reply is None or reply.get("died"):
        worker.restart()
        if setups is not None:
            setups.append(worker.setup_s)
    if ran is None or ran["ran"] > limit:
        return {"item": item_id, "status": "timeout", "seconds": limit,
                "failures": [f"exceeded its {limit} s limit"]}
    if reply is None:
        reply = {"failures": [f"check did not finish in {CHECK_TIMEOUT_S} s"]}
    return {"item": item_id, "status": "failed" if reply["failures"] else "ok",
            "seconds": ran["ran"], "failures": reply["failures"], "layers": reply.get("layers")}


def _passes(args, worker: Worker, reference: Worker | None, setups: list[float],
            start: float) -> list[dict]:
    """Timed passes over the worker's items until `args.seconds` have gone by.

    With a reference worker, each item runs on the worker and then at once on
    the reference, so that both times of an item see the same machine speed.
    """
    items = worker.items
    passes: list[dict] = []
    measure_start = time.monotonic()
    out_of_time = False
    while not out_of_time:
        traced = bool(args.trace) and len(passes) % 2 == 1
        keep = traced and not any(p["traced"] for p in passes)
        results: list[dict] = []
        ref_results: list[dict] = []
        for idx, item_id, limit in items:
            for w, out, trace_it in ((worker, results, traced), (reference, ref_results, False)):
                if w is None:
                    continue
                left = start + RUN_DEADLINE_S - time.monotonic()
                if left <= 0:
                    out_of_time = True
                    out.append({"item": item_id, "status": "not run", "seconds": limit,
                                "failures": ["run deadline reached before this item"]})
                    continue
                out.append(_run_item(w, idx, item_id, limit, trace_it, keep and trace_it, left,
                                     setups if w is worker else None))
        passes.append({"traced": traced, "items": results,
                       "reference": ref_results if reference is not None else None})
        elapsed = time.monotonic() - measure_start
        have_both = not args.trace or len(passes) >= 2
        if elapsed >= args.seconds and have_both:
            break
    return passes


def layer_metrics(traced_passes: list[dict]) -> dict[str, float]:
    """Per-layer totals for each traced pass, then the median over passes."""
    per_pass: list[dict[str, float]] = []
    for p in traced_passes:
        totals: dict[str, float] = {}
        for r in p["items"]:
            for layer, counts in (r.get("layers") or {}).items():
                for key, value in counts.items():
                    name = f"{layer}.{key}"
                    totals[name] = totals.get(name, 0) + value
        orderings = totals.get("rates.chain.orderings", 0)
        totals["rates.chain.solves_per_ordering"] = (
            totals.get("rates.chain.stage_solves", 0) / orderings if orderings else 0.0
        )
        mc_s = totals.get("simulator.mc.self_s", 0.0)
        totals["simulator.mc.trials_per_s"] = (
            totals.get("simulator.mc.trials", 0) / mc_s if mc_s > 0 else 0.0
        )
        totals["simulator.decode_errors"] = totals.pop("simulator.mc.decode_errors", 0)
        per_pass.append(totals)
    names = set().union(*per_pass) if per_pass else set()
    return {n: statistics.median(t.get(n, 0) for t in per_pass) for n in sorted(names)}


def summarize(raw: dict) -> tuple[dict, dict]:
    """(every metric computed, detail for the report)."""
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_items = [r for p in passes for r in p["items"]]
    item_s = [r["seconds"] for p in untraced for r in p["items"]]
    pass_s = [sum(r["seconds"] for r in p["items"]) for p in untraced]
    failed = [r for r in all_items if r["status"] != "ok"]
    metrics = {
        "setup_s": statistics.median(raw["setups"]),
        "wall_s": statistics.median(pass_s),
        "item_p50_s": statistics.median(item_s),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": len(failed) / len(all_items),
    }
    paired = [p for p in untraced if p["reference"] is not None]
    if paired:
        # the gated timings: the program's against the frozen reference's,
        # item by item in the same run
        ref_item_s = [r["seconds"] for p in paired for r in p["reference"]]
        metrics["wall_ref_s"] = statistics.median(
            sum(r["seconds"] for r in p["reference"]) for p in paired)
        metrics["item_p50_ref_s"] = statistics.median(ref_item_s)
        metrics["wall_rel"] = statistics.median(
            sum(r["seconds"] for r in p["items"]) / sum(r["seconds"] for r in p["reference"])
            for p in paired)
        metrics["item_p50_rel"] = statistics.median(
            r["seconds"] / q["seconds"] for p in paired
            for r, q in zip(p["items"], p["reference"]) if q["seconds"] > 0)
    if len(item_s) >= 100:
        metrics["item_p90_s"] = quantile(item_s, 0.9)
    if traced:
        metrics.update(layer_metrics(traced))
        for layer, counts in raw["setup_layers"].items():
            for key, value in counts.items():
                metrics[f"setup.{layer}.{key}"] = value
        traced_s = statistics.median(sum(r["seconds"] for r in p["items"]) for p in traced)
        metrics["trace.wall_s_traced"] = traced_s
        metrics["trace.wall_s_untraced"] = metrics["wall_s"]
        metrics["trace.overhead_frac"] = traced_s / metrics["wall_s"] - 1.0
        # passes alternate, so this many traced/untraced pairs; 1 is a single sample
        metrics["trace.pairs"] = len(traced)
    detail = {
        "samples": {"setup_s": len(raw["setups"]), "wall_s": len(pass_s),
                    "item_p50_s": len(item_s), "wall_rel": len(paired),
                    "item_p50_rel": sum(len(p["items"]) for p in paired),
                    "passes_traced": len(traced)},
        "attempted": len(all_items),
        "failed": len(failed),
        "failures": [{"item": r["item"], "status": r["status"],
                      "failures": [f[:500] for f in r["failures"][:3]]} for r in failed],
        "reference_failed": sum(r["status"] != "ok" for p in passes for r in (p["reference"] or [])),
        "items": [{"pass": i, "traced": p["traced"], "item": r["item"],
                   "status": r["status"], "seconds": r["seconds"]}
                  for i, p in enumerate(passes) for r in p["items"]],
        "reference_items": [{"pass": i, "item": r["item"], "status": r["status"],
                             "seconds": r["seconds"]}
                            for i, p in enumerate(passes) for r in (p["reference"] or [])],
        "spans": raw["spans"],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true",
                        help="add the chain-sweeps frontier item (expected to time out)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "chargraph" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"cannot run: missing {', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-frontier' if args.frontier else ''}"
    spans = OUT / f"{stem}.spans.jsonl" if args.trace else None
    if spans is not None and spans.exists():
        spans.unlink()
    try:
        raw = run_passes(args, spans)
    except WorkerError as exc:
        print(f"benchmark harness failed: {exc}", file=sys.stderr)
        return 1
    metrics, detail = summarize(raw)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in listed},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "frontier": args.frontier,
              "chargraph_threads": os.environ.get("CHARGRAPH_THREADS"),
              "metrics": metrics, **detail, "result": result,
              "spans_file": str(spans.relative_to(ROOT)) if spans else None}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"failed_frac": "fraction", "item_p90_s": "s", "wall_s": "s", "item_p50_s": "s",
                  "wall_ref_s": "s", "item_p50_ref_s": "s"})
    samples = detail["samples"]
    for name, value in metrics.items():
        n = f" (median of {samples[name]})" if name in samples else ""
        if name == "item_p90_s":
            n = f" (of {samples['item_p50_s']})"
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}{n}")
    for f in detail["failures"][:5]:
        print(f"{args.workload} FAILED {f['item']} ({f['status']}): {f['failures'][:1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
