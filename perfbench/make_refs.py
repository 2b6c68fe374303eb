"""Regenerate the frozen references in perfbench/refs/ from the current code.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only on a commit whose outputs are trusted: the benchmark gates
later commits against what this writes. The seed only orders the items, so
references hold for every seed. chain-sweeps keeps R_graph, R_lin and R_SW for each row (only
R_graph is gated), fig-sweeps every column, entropy-graphs the three solver
values per graph, block-sim the OR-power sizes. The frontier item has no
reference; it is checked against the information floor alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFS.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        refs = {}
        for item in workloads.build(name, workloads.DEFAULT_SEED):
            ref = workloads.reference_of(name, item.id, item.run())
            if ref is not None:
                refs[item.id] = ref
        with open(workloads.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
