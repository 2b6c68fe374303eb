"""Batch command-line front end: placements, entropy solves, and scenario
sweeps emitted as CSV/JSON tables for external plotting.

Exit codes: 0 success, 2 validation error, 3 desk-scale guard,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Sequence

import numpy as np

from .errors import ChargraphError, DeskScaleError, ValidationError
from .functions import demand_from_json
from .graphs import make_graph
from .probability import JointPmf, crossover_feasible, iid_bernoulli_joint
from .rates import (
    GainReport,
    chain_rate,
    gains,
    multilinear_rates,
    prop1_rate,
    scenario1_rates,
    scenario2_diniz_rates,
    scenario2_table2_rates,
    scenario3_rates,
    slepian_wolf_rate,
)
from .solvers import conditional_graph_entropy, graph_entropy
from .topology import (
    Placement,
    Topology,
    cyclic_placement,
    placement_from_json,
    placement_to_json,
)

SCENARIOS = ("s1", "s2-table2", "s2-diniz", "s3", "multilinear", "custom")
CSV_HEADER = "eps,param,R_graph,R_lin,R_SW,eta_lin,eta_SW"
MAX_CHAIN_SERVERS = 6  # orderings grow factorially; cap the exhaustive sweep


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int | None = None
    k: int | None = None
    kc: int | None = None
    nr: int | None = None
    eps_grid: tuple[float, float, int] = (0.1, 0.5, 5)
    rho_grid: tuple[float, float, int] | None = None
    p_grid: tuple[float, float, int] | None = None
    out: str | None = None
    fmt: str = "csv"
    demand: str | None = None
    placement: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        for name, kind in (("n", int), ("k", int), ("kc", int), ("nr", int),
                           ("out", str), ("demand", str), ("placement", str)):
            value = getattr(self, name)
            if value is not None and type(value) is not kind:
                raise ValidationError(f"{name} must be {kind.__name__}, not {value!r}")
        for grid in (self.eps_grid, self.rho_grid, self.p_grid):
            if grid is None:
                continue
            a, b, count = grid
            if not (0.0 <= a <= b <= 1.0):
                raise ValidationError(f"grid bounds {a},{b} outside [0,1]")
            if count < 1:
                raise ValidationError("grid count must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValidationError(f"unknown format {self.fmt!r}")


def _grid_values(grid: tuple[float, float, int]) -> list[float]:
    a, b, count = grid
    return [float(v) for v in np.linspace(a, b, count)]


def _make_topology(n: int, k: int, kc: int, nr: int) -> Topology:
    """Topology with the cyclic M = (K/N)(N - Nr + 1); N < 1 gets M = 0,
    which Topology rejects along with N."""
    m = (k // n) * (n - nr + 1) if n >= 1 else 0
    return Topology(n=n, k=k, kc=kc, m=m, nr=nr)


def _topology(cfg: ScenarioConfig) -> Topology:
    if cfg.n is None or cfg.k is None or cfg.nr is None:
        raise ValidationError(f"scenario {cfg.scenario!r} needs --n, --k and --nr")
    kc = cfg.kc if cfg.kc is not None else 1
    return _make_topology(cfg.n, cfg.k, kc, cfg.nr)


def _threads() -> int:
    # sweeps run on the calling thread; perfbench/tests/test_perfbench.py
    # still reads this count, and ROADMAP item 1 deletes that call and this stub
    return 1


# ---------------------------------------------------------------------------
# scenario evaluation


def _custom_context(cfg: ScenarioConfig) -> tuple[Topology, Placement, Any]:
    t = _topology(cfg)
    if cfg.demand is None:
        raise ValidationError("custom scenario needs --demand (a demand JSON file)")
    with open(cfg.demand, "r", encoding="utf-8") as fh:
        d = demand_from_json(json.load(fh), k=t.k)
    if d.q != 2:
        raise ValidationError("custom sweeps draw i.i.d. Bern(eps); demand must be binary")
    if cfg.placement is not None:
        with open(cfg.placement, "r", encoding="utf-8") as fh:
            p = placement_from_json(json.load(fh))
    else:
        p = cyclic_placement(t)
    if t.nr > MAX_CHAIN_SERVERS:
        raise DeskScaleError(
            f"custom scenario sweeps all orderings of the first Nr servers; "
            f"Nr={t.nr} exceeds {MAX_CHAIN_SERVERS}"
        )
    return t, p, d


def _eval_custom(
    t: Topology, p: Placement, d: Any, eps: float
) -> tuple[GainReport, bool]:
    joint = iid_bernoulli_joint(t.k, eps)
    orderings = [list(o) for o in permutations(range(1, t.nr + 1))]
    graph = chain_rate(t, p, d, joint, orderings)
    lin = prop1_rate(t, d.kc)
    sw = slepian_wolf_rate(joint, t, p)
    return gains(graph, lin, sw), bool(graph.metadata.get("converged", True))


def _scenario_rows(cfg: ScenarioConfig) -> tuple[list[dict[str, float]], bool]:
    eps_vals = _grid_values(cfg.eps_grid)
    # a grid the scenario never reads would be dropped without a word
    if cfg.p_grid is not None and cfg.scenario != "s2-table2":
        raise ValidationError(
            f"scenario {cfg.scenario!r} does not read --p-grid (config key p_grid)"
        )
    if cfg.rho_grid is not None and cfg.scenario == "s2-table2":
        raise ValidationError(
            "scenario 's2-table2' does not read --rho-grid (config key rho_grid)"
        )
    if cfg.scenario in ("s3", "multilinear", "custom") and (
        cfg.rho_grid is not None and any(v != 0.0 for v in _grid_values(cfg.rho_grid))
    ):
        raise ValidationError(f"scenario {cfg.scenario!r} is defined at rho = 0 only")

    points: list[tuple[float, float]]
    if cfg.scenario == "s2-table2":
        if cfg.p_grid is not None:
            params = _grid_values(cfg.p_grid)
            # crossed sweeps run past the pair model's validity boundary
            # (p' = eps*p/(1-eps) <= 1); each curve simply ends there
            points = [(e, q) for e in eps_vals for q in params if crossover_feasible(e, q)]
            if not points:
                raise ValidationError(
                    "no feasible (eps, p) grid points: eps*p must not exceed 1-eps"
                )
        else:
            points = [(e, 1.0 - e) for e in eps_vals]  # independent pair
    elif cfg.scenario in ("s1", "s2-diniz"):
        params = _grid_values(cfg.rho_grid) if cfg.rho_grid is not None else [0.0]
        points = [(e, r) for e in eps_vals for r in params]
    else:
        points = [(e, 0.0) for e in eps_vals]

    if cfg.scenario in ("s1", "s3", "multilinear"):
        t = _topology(cfg)
    if cfg.scenario == "custom":
        t, p, d = _custom_context(cfg)

    def eval_point(pt: tuple[float, float]) -> tuple[GainReport, bool]:
        eps, param = pt
        if cfg.scenario == "s1":
            return scenario1_rates(t, eps, param), True
        if cfg.scenario == "s2-table2":
            return scenario2_table2_rates(eps, param), True
        if cfg.scenario == "s2-diniz":
            return scenario2_diniz_rates(eps, param), True
        if cfg.scenario == "s3":
            return scenario3_rates(t, eps, t.kc), True
        if cfg.scenario == "multilinear":
            return multilinear_rates(t, eps), True
        return _eval_custom(t, p, d, eps)

    results = [eval_point(pt) for pt in points]

    rows = []
    all_converged = True
    for (eps, param), (g, converged) in zip(points, results):
        all_converged = all_converged and converged
        rows.append(
            {
                "eps": eps,
                "param": param,
                "R_graph": g.graph.sum_rate,
                "R_lin": g.lin.sum_rate,
                "R_SW": g.sw.sum_rate,
                "eta_lin": g.eta_lin,
                "eta_SW": g.eta_sw,
            }
        )
    return rows, all_converged


def _render_csv(rows: Sequence[dict[str, float]]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                f"{r[c]:.9g}"
                for c in ("eps", "param", "R_graph", "R_lin", "R_SW", "eta_lin", "eta_SW")
            )
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_placement(args: argparse.Namespace) -> int:
    t = _make_topology(args.n, args.k, 1, args.nr)
    p = cyclic_placement(t)
    _emit(json.dumps(placement_to_json(p), indent=2) + "\n", args.out)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValidationError("graph spec must be a JSON object")
    pmf = spec.get("pmf")
    edges = spec.get("edges")
    if not isinstance(pmf, list) or not isinstance(edges, list):
        raise ValidationError("graph spec needs 'pmf' and 'edges' lists")
    if not all(type(x) in (int, float) for x in pmf):
        raise ValidationError("'pmf' entries must be numbers")
    for e in edges:
        if not (
            isinstance(e, list)
            and len(e) == 2
            and all(type(v) is int and 0 <= v < len(pmf) for v in e)
        ):
            raise ValidationError(
                f"edge {e!r} is not a pair of vertex ids in 0..{len(pmf) - 1}"
            )
    labels = spec.get("labels", list(range(len(pmf))))
    if not isinstance(labels, list) or len(labels) != len(pmf):
        raise ValidationError("'labels' must be a list as long as 'pmf'")
    if not all(type(v) in (int, float, str) for v in labels):
        raise ValidationError("'labels' entries must be numbers or strings")
    if len(set(labels)) != len(labels):
        raise ValidationError("'labels' repeats a label")
    masses = {labels[i]: float(pmf[i]) for i in range(len(pmf))}
    edge_pairs = [(labels[i], labels[j]) for i, j in edges]
    g = make_graph(masses, edge_pairs)
    if "side_joint" in spec:
        matrix = spec["side_joint"]
        if not isinstance(matrix, list) or len(matrix) != len(pmf):
            raise ValidationError("'side_joint' must be a list with one row per vertex")
        if not all(
            isinstance(row, list) and all(type(v) in (int, float) for v in row)
            for row in matrix
        ):
            raise ValidationError("'side_joint' rows must be lists of numbers")
        if g.n != len(pmf):
            raise ValidationError(
                "zero-mass vertices are not allowed together with 'side_joint'"
            )
        order = {label: v for v, label in enumerate(g.vertices)}
        ncols = len(matrix[0])
        mass: dict[tuple[int, int], float] = {}
        for i, row in enumerate(matrix):
            if len(row) != ncols:
                raise ValidationError("'side_joint' rows have unequal lengths")
            for j, val in enumerate(row):
                if val:
                    mass[(order[labels[i]], j)] = float(val)
        joint = JointPmf((g.n, ncols), mass)
        res = conditional_graph_entropy(g, joint)
    else:
        res = graph_entropy(g)
    _emit(json.dumps(res.to_json(), indent=2) + "\n", args.out)
    return 0 if res.converged else 4


def cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    rows, converged = _scenario_rows(cfg)
    if cfg.fmt == "csv":
        _emit(_render_csv(rows), cfg.out)
    else:
        payload = {"scenario": cfg.scenario, "rows": rows}
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0 if converged else 4


def _parse_grid(value: Any) -> tuple[float, float, int]:
    """a,b,count from a flag's text or a config file's list.  Each part is
    read from its text, so both follow one rule: a count of 1.5 is refused,
    not truncated."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        a, b, count = (str(v) for v in parts)
        return float(a), float(b), int(count)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"grid {value!r} is not of the form a,b,count") from exc


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    base: dict[str, Any] = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        known = {
            "scenario", "n", "k", "kc", "nr", "eps_grid", "rho_grid",
            "p_grid", "out", "format", "demand", "placement",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys {sorted(unknown)}")
        base = dict(raw)
        for key in ("eps_grid", "rho_grid", "p_grid"):
            if base.get(key) is not None:
                base[key] = _parse_grid(base[key])
        if "format" in base:
            base["fmt"] = base.pop("format")

    def pick(name: str, cli_value: Any) -> Any:
        return cli_value if cli_value is not None else base.get(name)

    scenario = pick("scenario", args.scenario)
    if scenario is None:
        raise ValidationError("no scenario named (flag --scenario or config key)")
    eps_grid = pick("eps_grid", args.eps_grid)
    return ScenarioConfig(
        scenario=scenario,
        n=pick("n", args.n),
        k=pick("k", args.k),
        kc=pick("kc", args.kc),
        nr=pick("nr", args.nr),
        eps_grid=eps_grid if eps_grid is not None else (0.1, 0.5, 5),
        rho_grid=pick("rho_grid", args.rho_grid),
        p_grid=pick("p_grid", args.p_grid),
        out=pick("out", args.out),
        fmt=pick("fmt", args.format) or "csv",
        demand=pick("demand", args.demand),
        placement=pick("placement", args.placement),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargraph",
        description="Characteristic-graph rate bounds for multi-server "
        "multi-function computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pl = sub.add_parser("placement", help="print the cyclic placement as JSON")
    p_pl.add_argument("--n", type=int, required=True)
    p_pl.add_argument("--k", type=int, required=True)
    p_pl.add_argument("--nr", type=int, required=True)
    p_pl.add_argument("--out", default=None)
    p_pl.set_defaults(func=cmd_placement)

    p_en = sub.add_parser("entropy", help="solve a graph entropy from a JSON spec")
    p_en.add_argument("--spec", required=True, help="graph spec JSON file")
    p_en.add_argument("--out", default=None)
    p_en.set_defaults(func=cmd_entropy)

    p_sc = sub.add_parser("scenario", help="sweep a scenario onto a CSV/JSON table")
    p_sc.add_argument("--scenario", choices=SCENARIOS, default=None)
    p_sc.add_argument("--config", default=None, help="ScenarioConfig JSON file")
    p_sc.add_argument("--n", type=int, default=None)
    p_sc.add_argument("--k", type=int, default=None)
    p_sc.add_argument("--kc", type=int, default=None)
    p_sc.add_argument("--nr", type=int, default=None)
    p_sc.add_argument("--eps-grid", dest="eps_grid", type=_parse_grid, default=None)
    p_sc.add_argument("--rho-grid", dest="rho_grid", type=_parse_grid, default=None)
    p_sc.add_argument("--p-grid", dest="p_grid", type=_parse_grid, default=None)
    p_sc.add_argument("--out", default=None)
    p_sc.add_argument("--format", choices=("csv", "json"), default=None)
    p_sc.add_argument("--demand", default=None, help="demand JSON (custom scenario)")
    p_sc.add_argument("--placement", default=None, help="placement JSON (custom)")
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DeskScaleError as exc:
        print(f"desk-scale guard: {exc}", file=sys.stderr)
        return 3
    except (ChargraphError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
