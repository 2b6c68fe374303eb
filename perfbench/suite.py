"""Run every workload, untraced and traced, and write perfbench/results/BENCH_<tag>.json.

    python3 perfbench/suite.py --tag seed [--seed 1]

Each workload gets one `run.py --trace 0` run (end-to-end metrics) and one
`run.py --trace 1` run (per-layer metrics and trace.overhead_frac).
chain-sweeps also gets a third, untraced run with the frontier item (parity
at N=K=5, Nr=4, one eps point) under its time limit; it is kept apart
because the frontier times out at the seed, and a timed-out item counts
as a failure at its limit. That run has no reference worker, so it records
seconds but no ratios.

The file also records the machine: processor count and model, Python and
numpy versions, load average before and after, and CHARGRAPH_THREADS.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "chargraph_threads": os.environ.get("CHARGRAPH_THREADS"),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, frontier: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if frontier:
        cmd.append("--frontier")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    stem = f"{workload}-seed{seed}-trace{trace}{'-frontier' if frontier else ''}"
    with open(BENCH / "out" / f"{stem}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def entry(report: dict, listed: list[dict]) -> dict:
    metrics = report["metrics"]
    out = {
        # a layer that did not run reads 0; the frontier run has no ratios
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in listed if m["name"] in metrics or report["trace"]},
        "samples": report["samples"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failed_frac": metrics["failed_frac"],
        "failures": report["failures"],
    }
    # not gated: the seconds behind the gated ratios, and the p90
    for name in ("wall_s", "item_p50_s", "wall_ref_s", "item_p50_ref_s", "item_p90_s"):
        if name in metrics and not report["trace"]:
            out["metrics"][name] = {"value": metrics[name], "unit": "s"}
    if report["trace"]:
        out["spans_file"] = report["spans_file"]
        out["spans"] = report["spans"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    info = machine()
    info["loadavg_before"] = os.getloadavg()
    bench = {
        "tag": args.tag,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "settings": {"seed": args.seed, "seconds": seconds},
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs = {"untraced": (0, False), "traced": (1, False)}
        if name == "chain-sweeps":
            runs["frontier"] = (0, True)
        result = {"why": w["why"]}
        for key, (trace, frontier) in runs.items():
            report = run_one(name, args.seed, seconds, trace, frontier)
            result[key] = entry(report, spec["per_layer"] if trace else spec["end_to_end"])
        bench["workloads"][name] = result
    info["loadavg_after"] = os.getloadavg()
    bench["machine"] = info

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
