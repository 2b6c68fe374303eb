"""Batch command-line front end: placements, entropy solves, and scenario
sweeps emitted as CSV/JSON tables for external plotting.

A sweep's grid is a pair of arrays (eps, param). A closed-form scenario
prices the whole grid in one call of its rates.*_rates function; custom runs
one chain_rate per eps point. Either way the sweep yields the R_graph,
R_lin and R_SW columns, and the gains and rows are assembled from columns.
A custom chain prices one ordering per rotation orbit when Nr = N and the
point's law passes rates.rotation_invariant, and every ordering otherwise,
with the same winner either way (see _custom_evaluator); custom JSON rows
also carry orderings_tried, the count priced, and CSV rows do not. JSON is
written from one row template (repr of each float, null for a non-finite
one), byte-identical to json.dumps(payload, indent=2, allow_nan=False),
which with indent set would run CPython's pure-Python encoder on every row.

Exit codes: 0 success, 2 bad input (an invalid value, or a file that cannot
be read or written), 3 desk-scale guard, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from itertools import permutations
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ChargraphError, DeskScaleError, ValidationError
from .functions import demand_from_json
from .graphs import make_graph
from .probability import CONSTRUCTION_TOL, JointPmf, crossover_feasible, iid_bernoulli_joint
from .rates import (
    chain_rate,
    gain_ratio,
    multilinear_rates,
    prop1_rate,
    rotation_invariant,
    scenario1_rates,
    scenario2_diniz_rates,
    scenario2_table2_rates,
    scenario3_rates,
    slepian_wolf_rate,
)
from .solvers import conditional_graph_entropy, graph_entropy
from .topology import Topology, cyclic_placement, placement_from_json, placement_to_json

COLUMNS = ("eps", "param", "R_graph", "R_lin", "R_SW", "eta_lin", "eta_SW")
CSV_HEADER = ",".join(COLUMNS)
FORMATS = ("csv", "json")
MAX_CHAIN_SERVERS = 6  # orderings grow factorially; cap the custom sweep
MAX_GRID_POINTS = 10**6  # a sweep's (eps, param) points; the shipped configs reach 495


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


# every option of a sweep and its value type; option `name` is the flag
# --name (with hyphens) and the config key name, and a flag beats its key
OPTIONS = {
    "scenario": str,
    "eps_grid": _parse_grid,
    "out": str,
    "format": str,
    "n": int,
    "k": int,
    "kc": int,
    "nr": int,
    "demand": str,
    "placement": str,
    "p_grid": _parse_grid,
    "rho_grid": _parse_grid,
}
EVERY_SCENARIO = ("scenario", "eps_grid", "out", "format")
TOPOLOGY = ("n", "k", "nr")
# the options each scenario reads besides EVERY_SCENARIO; any other exits 2
READS = {
    "s1": TOPOLOGY + ("rho_grid",),  # one demanded function: Kc = 1
    "s2-table2": ("p_grid",),
    "s2-diniz": ("rho_grid",),
    "s3": TOPOLOGY + ("kc",),
    "multilinear": TOPOLOGY,  # one product demand: Kc = 1
    "custom": TOPOLOGY + ("demand", "placement"),  # Kc is the demand's row count
}


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _make_topology(n: int, k: int, kc: int, nr: int) -> Topology:
    """Topology with the cyclic M = (K/N)(N - Nr + 1); N < 1 gets M = 0,
    which Topology rejects along with N."""
    m = (k // n) * (n - nr + 1) if n >= 1 else 0
    return Topology(n=n, k=k, kc=kc, m=m, nr=nr)


def _threads() -> int:
    # sweeps run on the calling thread; perfbench/tests/test_perfbench.py
    # still reads this count, and ROADMAP item 1 deletes that call and this stub
    return 1


# ---------------------------------------------------------------------------
# scenario evaluation


def _config(args: argparse.Namespace) -> dict[str, Any]:
    """The sweep's options, each flag over its config key, checked once; an
    option that is set nowhere is absent."""
    cfg: dict[str, Any] = {}
    if args.config is not None:
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(raw) - set(OPTIONS)
        if unknown:
            raise ValidationError(f"unknown config keys {sorted(unknown)}")
        cfg = {name: value for name, value in raw.items() if value is not None}
    cfg.update({name: v for name in OPTIONS if (v := getattr(args, name)) is not None})
    for name, value in list(cfg.items()):
        kind = OPTIONS[name]
        if kind is _parse_grid:
            a, b, count = cfg[name] = _parse_grid(value)
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
                raise ValidationError(f"grid bounds {a},{b} outside [0,1]")
            if a > b:
                raise ValidationError(f"grid start {a} exceeds its stop {b}")
            if count < 1:
                raise ValidationError("grid count must be >= 1")
        elif type(value) is not kind:
            raise ValidationError(f"{name} must be {kind.__name__}, not {value!r}")
    scenario = cfg.get("scenario")
    if scenario is None:
        raise ValidationError("no scenario named (flag --scenario or config key)")
    if scenario not in READS:
        raise ValidationError(f"unknown scenario {scenario!r}")
    if cfg.setdefault("format", "csv") not in FORMATS:
        raise ValidationError(f"unknown format {cfg['format']!r}")
    # an option the scenario never reads would be dropped without a word
    for name in cfg:
        if name not in EVERY_SCENARIO and name not in READS[scenario]:
            raise ValidationError(
                f"scenario {scenario!r} does not read "
                f"--{name.replace('_', '-')} (config key {name})"
            )
    return cfg


def _points(cfg: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's grid points as arrays of eps and param, eps-major. A
    grid of more than MAX_GRID_POINTS points is refused before any array
    is built."""
    eps_grid = cfg.get("eps_grid", (0.1, 0.5, 5))
    count = eps_grid[2] * math.prod(cfg[g][2] for g in ("p_grid", "rho_grid") if g in cfg)
    if count > MAX_GRID_POINTS:
        raise DeskScaleError(f"the grid has {count} points; the cap is {MAX_GRID_POINTS}")
    eps = np.linspace(*eps_grid)
    if "p_grid" in cfg:
        # crossed sweeps run past the pair model's validity boundary
        # (p' = eps*p/(1-eps) <= 1); each curve simply ends there
        e, p = (a.ravel() for a in np.meshgrid(eps, np.linspace(*cfg["p_grid"]), indexing="ij"))
        keep = crossover_feasible(e, p)
        if not keep.any():
            raise ValidationError("no feasible (eps, p) grid points: eps*p must not exceed 1-eps")
        return e[keep], p[keep]
    if cfg["scenario"] == "s2-table2":
        return eps, 1.0 - eps  # independent pair
    rhos = np.linspace(*cfg["rho_grid"]) if "rho_grid" in cfg else np.zeros(1)
    e, r = np.meshgrid(eps, rhos, indexing="ij")
    return e.ravel(), r.ravel()


def _topology(cfg: dict[str, Any], kc: int) -> Topology:
    if not all(name in cfg for name in TOPOLOGY):
        raise ValidationError(f"scenario {cfg['scenario']!r} needs --n, --k and --nr")
    return _make_topology(cfg["n"], cfg["k"], kc, cfg["nr"])


# a sweep's evaluation: the grid's (eps, param) arrays -> the R_graph, R_lin
# and R_SW columns, whether every solve converged, and the columns only
# JSON rows carry, by name (custom's orderings_tried)
Extra = dict[str, list[int]]
Evaluate = Callable[[np.ndarray, np.ndarray], tuple[tuple[Any, Any, Any], bool, Extra]]


def _evaluator(cfg: dict[str, Any]) -> Evaluate:
    """The scenario's evaluation, with its topology and input files read
    once for the whole sweep. A closed form prices the whole grid at once,
    and its domain checks run over the whole grid before any row exists."""
    scenario = cfg["scenario"]
    if scenario == "s2-table2":
        return lambda eps, p: (scenario2_table2_rates(eps, p).sum_rates(), True, {})
    if scenario == "s2-diniz":
        return lambda eps, rho: (scenario2_diniz_rates(eps, rho).sum_rates(), True, {})
    if scenario == "custom":
        return _custom_evaluator(cfg)
    t = _topology(cfg, cfg.get("kc", 1))
    if scenario == "s1":
        return lambda eps, rho: (scenario1_rates(t, eps, rho).sum_rates(), True, {})
    if scenario == "s3":
        return lambda eps, _: (scenario3_rates(t, eps).sum_rates(), True, {})
    return lambda eps, _: (multilinear_rates(t, eps).sum_rates(), True, {})


def _custom_evaluator(cfg: dict[str, Any]) -> Evaluate:
    """One chain per eps point over the orderings of the first Nr servers.
    When Nr = N and the point's law passes rates.rotation_invariant, an
    ordering's rotations share its sum, so only the orderings that start
    with server 1 are priced, one per orbit; each is the earliest of its
    orbit, so the tie rule picks the winner of all Nr!. Otherwise all Nr!
    are priced."""
    if "demand" not in cfg:
        raise ValidationError("custom scenario needs --demand (a demand JSON file)")
    d = demand_from_json(_load_json(cfg["demand"]), k=cfg.get("k"))
    if d.q != 2:
        raise ValidationError("custom sweeps draw i.i.d. Bern(eps); demand must be binary")
    t = _topology(cfg, d.kc)
    if "placement" in cfg:
        p = placement_from_json(_load_json(cfg["placement"]))
        # a placement for another N or K would price other servers or datasets
        if (p.n, p.k) != (t.n, t.k):
            raise ValidationError(
                f"placement is for (N={p.n}, K={p.k}), topology says (N={t.n}, K={t.k})"
            )
    else:
        p = cyclic_placement(t)
    if t.nr > MAX_CHAIN_SERVERS:
        raise DeskScaleError(
            f"custom scenario prices the orderings of the first Nr servers, all "
            f"Nr! of them unless Nr = N and rotation maps the instance to itself; "
            f"Nr={t.nr} exceeds {MAX_CHAIN_SERVERS}"
        )
    orderings = list(permutations(range(1, t.nr + 1)))
    firsts = [o for o in orderings if o[0] == 1]  # one per rotation orbit
    lin = prop1_rate(t).sum_rate

    def evaluate(eps: np.ndarray, _: np.ndarray) -> tuple[tuple[Any, Any, Any], bool, Extra]:
        graph, sw, tried = [], [], []
        converged = True
        for e in eps.tolist():  # one chain per point, in grid order
            joint = iid_bernoulli_joint(t.k, e)
            rotated = t.nr == t.n and rotation_invariant(p, d, joint)
            rr = chain_rate(t, p, d, joint, firsts if rotated else orderings)
            converged = converged and rr.metadata["converged"]
            graph.append(rr.sum_rate)
            tried.append(rr.metadata["orderings_tried"])
            sw.append(slepian_wolf_rate(joint, t, p).sum_rate)
        return (graph, lin, sw), converged, {"orderings_tried": tried}

    return evaluate


def _columns(
    eps: np.ndarray, param: np.ndarray, rates: tuple[Any, Any, Any]
) -> list[list[float]]:
    """The table's columns, in COLUMNS order, as lists of Python floats."""
    graph, lin, sw = rates
    columns = (eps, param, graph, lin, sw, gain_ratio(lin, graph), gain_ratio(sw, graph))
    return [c.tolist() for c in np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))]


def _render_csv(columns: Sequence[Sequence[float]]) -> str:
    lines = [CSV_HEADER]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def _render_json(scenario: str, columns: Sequence[Sequence[float]], extra: Extra) -> str:
    """json.dumps({"scenario": scenario, "rows": [row dicts]}, indent=2,
    allow_nan=False) + newline, byte for byte, each row holding COLUMNS and
    then the extra integer columns. RFC 8259 has no Infinity or NaN: a
    non-finite value (the gain at a zero graph rate) is written as null."""
    texts = [
        [repr(v) if math.isfinite(v) else "null" for v in column] for column in columns
    ] + [[str(v) for v in column] for column in extra.values()]
    # one row of json.dumps(payload, indent=2): each %s is a value's JSON text
    names = COLUMNS + tuple(extra)
    template = "    {\n" + ",\n".join(f'      "{c}": %s' for c in names) + "\n    }"
    rows = ",\n".join(template % row for row in zip(*texts))
    body = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "scenario": {json.dumps(scenario)},\n  "rows": {body}\n}}\n'


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Where a command writes: stdout, or the file out, which is opened (so
    an unwritable path fails) on entry."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_placement(args: argparse.Namespace) -> int:
    t = _make_topology(args.n, args.k, 1, args.nr)
    p = cyclic_placement(t)
    _emit(json.dumps(placement_to_json(p), indent=2) + "\n", args.out)
    return 0


def _float(value: int | float, field: str) -> float:
    """A JSON number of the field as a float; an integer too large for one
    is refused, not left to raise OverflowError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{field} has a number too large for a float") from exc


def cmd_entropy(args: argparse.Namespace) -> int:
    spec = _load_json(args.spec)
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
    masses = {labels[i]: _float(pmf[i], "'pmf'") for i in range(len(pmf))}
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
        if ncols == 0:
            raise ValidationError("'side_joint' rows must not be empty")
        if any(len(row) != ncols for row in matrix):
            raise ValidationError("'side_joint' rows have unequal lengths")
        mass = {
            (order[labels[i]], j): _float(val, "'side_joint'")
            for i, row in enumerate(matrix)
            for j, val in enumerate(row)
            if val
        }
        if not all(0.0 <= val < math.inf for val in mass.values()):
            raise ValidationError("'side_joint' has a negative or non-finite cell")
        total = math.fsum(mass.values())
        if not abs(total - 1.0) <= CONSTRUCTION_TOL:
            raise ValidationError(f"'side_joint' cells sum to {total}, not 1")
        joint = JointPmf((g.n, ncols), mass)
        res = conditional_graph_entropy(g, joint)
    else:
        res = graph_entropy(g)
    _emit(json.dumps(res.to_json(), indent=2) + "\n", args.out)
    return 0 if res.converged else 4


def cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _config(args)
    eps, param = _points(cfg)
    evaluate = _evaluator(cfg)
    # --out is opened before the sweep, so an unwritable path exits 2 at
    # once instead of after the whole sweep
    with _output(cfg.get("out")) as fh:
        rates, converged, extra = evaluate(eps, param)
        columns = _columns(eps, param, rates)
        if cfg["format"] == "csv":
            fh.write(_render_csv(columns))
        else:
            fh.write(_render_json(cfg["scenario"], columns, extra))
    return 0 if converged else 4


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

    p_sc = sub.add_parser(
        "scenario",
        help="sweep a scenario onto a CSV/JSON table",
        description=f"scenarios: {', '.join(READS)}; formats: {', '.join(FORMATS)}",
    )
    p_sc.add_argument("--config", default=None, help="sweep config JSON file")
    for name, kind in OPTIONS.items():
        p_sc.add_argument("--" + name.replace("_", "-"), type=kind)
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argparse reads a token such as -0.1,0.5,3 as an option, not as a value
    (it exempts plain negative numbers only), so a token that starts with a
    minus and a digit or a point is joined to the option before it:
    --eps-grid -0.1,0.5,3 becomes --eps-grid=-0.1,0.5,3 and gets the
    grid-bounds message."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except DeskScaleError as exc:
        print(f"desk-scale guard: {exc}", file=sys.stderr)
        return 3
    except (ChargraphError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
