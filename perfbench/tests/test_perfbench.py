"""Tests of the benchmark itself (not of chargraph):

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

One cheap item per workload passes its correctness gate; a result
perturbed by 1e-3 fails it; a timed-out item is killed, counted at its
limit and included in failed_frac; the traced run attributes spans to the
layers, restores the package afterwards, keeps whole items only under the
span cap, and traces the set-up of a traced worker; an untraced run times
every item also on the frozen reference copy of chargraph.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

CHEAP = {
    "chain-sweeps": "and-5-4",
    "entropy-graphs": "connected-0",
    "block-sim": "pair-n1",
    "fig-sweeps": "fig3",
}


def _item(workload: str, item_id: str) -> workloads.Item:
    return next(it for it in workloads.build(workload, workloads.DEFAULT_SEED) if it.id == item_id)


def _perturb_cli(output, column: str, delta: float):
    rc, text = output
    payload = json.loads(text)
    payload["rows"][0][column] += delta
    return rc, json.dumps(payload)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_item_passes(workload):
    item = _item(workload, CHEAP[workload])
    assert item.check(item.run()) == []


@pytest.mark.parametrize(
    "workload,column", [("chain-sweeps", "R_graph"), ("fig-sweeps", "R_lin"), ("fig-sweeps", "eta_SW")]
)
def test_cli_gate_rejects_perturbation(workload, column):
    item = _item(workload, CHEAP[workload])
    out = item.run()
    assert item.check(out) == []
    assert item.check(_perturb_cli(out, column, 1e-3))


def test_chain_recorded_baselines_are_not_gated():
    item = _item("chain-sweeps", CHEAP["chain-sweeps"])
    assert item.check(_perturb_cli(item.run(), "R_lin", 1e-3)) == []


def test_entropy_gate_rejects_perturbation():
    item = _item("entropy-graphs", CHEAP["entropy-graphs"])
    out = item.run()
    for key in ("H", "H_cond", "chromatic"):
        assert item.check(dict(out, **{key: out[key] + 1e-3})), key


def test_block_gate_rejects_decode_errors_and_rate_gaps():
    item = _item("block-sim", CHEAP["block-sim"])
    out = item.run()
    sub, errors, empirical = out["runs"][0]
    bad_errors = dict(out, runs=[(sub, 1, empirical)] + out["runs"][1:])
    assert item.check(bad_errors)
    shifted = tuple(e + 2 * workloads.RATE_GAP for e in empirical)
    assert item.check(dict(out, runs=[(sub, errors, shifted)] + out["runs"][1:]))


def test_floor_rejects_rate_below_information_floor():
    item = _item("chain-sweeps", CHEAP["chain-sweeps"])
    rc, text = item.run()
    payload = json.loads(text)
    payload["rows"][0]["R_graph"] = 0.0
    assert any("information floor" in f for f in item.check((rc, json.dumps(payload))))


def test_timed_out_item_counts_in_failed_frac(monkeypatch):
    """parity-4-3 (about 2 s) gets a 0.2 s limit: the worker is killed, a new
    one set up, and the item counted as a timeout at its limit."""

    started = []

    class LimitedWorker(bench_run.Worker):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            started.append(self)
            keep = {"parity-4-3": 0.2, "and-5-4": None}
            self.items = [(i, item_id, keep[item_id] or limit)
                          for i, item_id, limit in self.items if item_id in keep]

    monkeypatch.setattr(bench_run, "Worker", LimitedWorker)
    args = argparse.Namespace(workload="chain-sweeps", seed=1, seconds=0.0, trace=0,
                              frontier=False)
    raw = bench_run.run_passes(args, None)
    assert all(w.proc.poll() is not None for w in started)
    metrics, detail = bench_run.summarize(raw)
    statuses = {r["item"]: r["status"] for r in raw["passes"][0]["items"]}
    assert statuses == {"parity-4-3": "timeout", "and-5-4": "ok"}
    assert metrics["failed_frac"] == 0.5
    assert detail["failed"] == 1 and detail["attempted"] == 2
    assert len(raw["setups"]) == bench_run.SETUP_SAMPLES + 1
    timed_out = next(r for r in raw["passes"][0]["items"] if r["item"] == "parity-4-3")
    assert timed_out["seconds"] == 0.2
    # the reference worker ran the same items, each right after the worker
    ref = {r["item"]: r["status"] for r in raw["passes"][0]["reference"]}
    assert ref == statuses
    assert metrics["wall_rel"] > 0 and metrics["item_p50_rel"] > 0
    assert metrics["wall_s"] >= 0.2


def test_reference_worker_loads_the_frozen_copy():
    """The worker refuses to start unless chargraph comes from the directory
    it was given, so the reference times the copy in reference/, not src/."""
    worker = bench_run.Worker("fig-sweeps", 1, False, None, bench_run.REFERENCE_SRC)
    try:
        assert [item_id for _, item_id, _ in worker.items]
    finally:
        worker.close()
    assert worker.proc.returncode == 0


def test_tracer_attributes_layers_and_restores_package():
    import chargraph
    from chargraph import rates, solvers

    original = solvers.conditional_graph_entropy
    item = _item("chain-sweeps", CHEAP["chain-sweeps"])
    tracer = layertrace.Tracer()
    assert tracer.install() > 0
    try:
        assert rates.conditional_graph_entropy is not original
        assert rates.conditional_graph_entropy is solvers.conditional_graph_entropy
        tracer.keep_spans = True
        tracer.begin_item(item.id)
        out = item.run()
        layers = tracer.end_item()
    finally:
        tracer.uninstall()
    assert rates.conditional_graph_entropy is original
    assert chargraph.conditional_graph_entropy is original
    assert item.check(out) == []

    chain = layers["rates.chain"]
    assert chain["calls"] == 4  # one chain_rate per eps point
    assert chain["orderings"] == 4 * 24  # Nr = 4 servers, all orderings
    assert chain["stage_solves"] == layers["solvers.cond"]["calls"] == 4 * 24 * 4
    assert layers["cli"]["calls"] >= 1 and layers["graphs.mis"]["sets"] > 0

    by_id = {s["id"]: s for s in tracer.kept}
    roots = [s for s in tracer.kept if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    for span in tracer.kept:
        assert span["item"] == item.id and span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    wall = roots[0]["end"] - roots[0]["start"]
    self_total = sum(v["self_s"] for v in layers.values())
    # worker threads overlap, so self times may add up to more than the wall
    # time, but never to more than the wall time on every pool thread
    assert 0 < self_total <= wall * (1 + chargraph.cli._threads()) + 1e-6


def test_union_length_merges_overlaps():
    assert layertrace._union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert layertrace._union_length([]) == 0


def test_span_cap_keeps_whole_items_only(monkeypatch):
    """An item that would pass the cap is dropped with all its spans; a
    later item that fits is still kept, root included."""
    monkeypatch.setattr(layertrace, "MAX_KEPT_SPANS", 60)
    tracer = layertrace.Tracer()
    big = _item("block-sim", CHEAP["block-sim"])  # about 100 spans
    small = _item("entropy-graphs", CHEAP["entropy-graphs"])  # 7 spans
    tracer.install()
    try:
        tracer.keep_spans = True
        counts = []
        for item in (small, big, small):
            tracer.begin_item(item.id)
            item.run()
            tracer.end_item()
            counts.append(len(tracer.kept))
    finally:
        tracer.uninstall()
    assert tracer.items_dropped == 1 and tracer.items_kept == 2
    assert tracer.dropped > 0 and len(tracer.kept) <= 60
    assert {s["item"] for s in tracer.kept} == {small.id}
    ids = {s["id"] for s in tracer.kept}
    assert all(s["parent"] in ids for s in tracer.kept if s["parent"] is not None)
    assert counts[0] == counts[1] and counts[2] == 2 * counts[0]


def test_traced_worker_reports_setup_layers(tmp_path):
    worker = bench_run.Worker("block-sim", 1, False, tmp_path / "spans.jsonl")
    try:
        layers = worker.setup_layers
    finally:
        worker.close()
    assert layers["probability.joint"]["calls"] > 0
    assert layers["topology"]["calls"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and {s["item"] for s in spans} == {"setup"}
    untraced = bench_run.Worker("block-sim", 1, False, None)
    untraced.close()
    assert untraced.setup_layers == {}
