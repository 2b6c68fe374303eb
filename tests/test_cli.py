"""Command-line front end: subcommands, config merging, exit codes, formats."""

import json
import math
import random
import threading
from itertools import permutations, takewhile
from pathlib import Path

import numpy as np
import pytest

from chargraph import cli, solvers
from chargraph.cli import CSV_HEADER, main
from chargraph.errors import ValidationError
from chargraph.functions import demand_from_json
from chargraph.graphs import make_graph
from chargraph.probability import (
    binary_entropy,
    crossover_joint,
    iid_bernoulli_joint,
    parity_param,
)
from chargraph.rates import chain_rate, scenario2_table2_rates
from chargraph.topology import Placement, Topology, cyclic_placement

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FIG_REFS = ROOT / "perfbench" / "refs" / "fig-sweeps.json"

TERNARY_CONDITIONAL = 0.5408520829727552


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    return header, rows


class TestPlacement:
    def test_three_server_json(self, capsys):
        code, out, _ = run(
            capsys, ["placement", "--n", "3", "--k", "3", "--nr", "2"]
        )
        assert code == 0
        assert json.loads(out) == {
            "N": 3,
            "K": 3,
            "Z": [[1, 2], [2, 3], [1, 3]],
        }

    def test_divisibility_failure(self, capsys):
        code, _, err = run(
            capsys, ["placement", "--n", "2", "--k", "3", "--nr", "1"]
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", [["placement"], ["scenario", "--scenario", "s1"]])
    def test_zero_servers_rejected(self, capsys, command):
        code, _, err = run(capsys, command + ["--n", "0", "--k", "3", "--nr", "1"])
        assert code == 2 and "N, K, Kc, M must all be >= 1" in err

    @pytest.mark.parametrize(
        "command", [["placement"], ["scenario", "--scenario", "multilinear"]]
    )
    def test_nr_above_n_names_nr(self, capsys, command):
        # the cyclic M = (K/N)(N - Nr + 1) is 0 here, but M is no flag
        code, out, err = run(capsys, command + ["--n", "4", "--k", "4", "--nr", "5"])
        assert code == 2 and out == ""
        assert "Nr=5 outside 1..4" in err and "M" not in err

    @pytest.mark.parametrize(
        "command", [["placement"], ["scenario", "--scenario", "multilinear"]]
    )
    def test_n_not_dividing_k_names_divisibility(self, capsys, command):
        # K < N makes the cyclic M 0, but the fault is N not dividing K
        code, out, err = run(capsys, command + ["--n", "4", "--k", "2", "--nr", "2"])
        assert code == 2 and out == ""
        assert "N=4 must divide K=2" in err and "M" not in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_names_the_bound(self, capsys, k):
        # divisibility is tested only for K >= 1
        code, _, err = run(capsys, ["placement", "--n", "4", "--k", k, "--nr", "2"])
        assert code == 2 and "N, K, Kc, M must all be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["placement", "--n", "3", "--k", "3", "--nr", "2", "--kc", "5"],
            ["placement", "--n", "3", "--k", "3", "--nr", "2", "--m", "2"],
            ["scenario", "--scenario", "s1", "--n", "3", "--k", "3", "--nr", "2", "--m", "2"],
        ],
    )
    def test_removed_options_rejected(self, capsys, argv):
        # the placement never read Kc, and M is always the cyclic default
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "placement.json"
        code, out, _ = run(
            capsys,
            ["placement", "--n", "5", "--k", "5", "--nr", "4", "--out", str(target)],
        )
        assert code == 0 and out == ""
        obj = json.loads(target.read_text())
        assert obj["Z"][0] == [1, 2]


class TestEntropy:
    def test_ternary_graph(self, capsys):
        code, out, _ = run(
            capsys, ["entropy", "--spec", str(CONFIGS / "ternary_graph.json")]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["converged"] is True
        assert obj["value"] == pytest.approx(2 / 3, abs=1e-6)

    def test_ternary_conditional(self, capsys):
        code, out, _ = run(
            capsys,
            ["entropy", "--spec", str(CONFIGS / "ternary_conditional.json")],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            TERNARY_CONDITIONAL, abs=1e-6
        )

    def test_complete_graph(self, capsys):
        code, out, _ = run(
            capsys, ["entropy", "--spec", str(CONFIGS / "complete_graph.json")]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.5, abs=1e-6)

    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, ["entropy", "--spec", "/nonexistent.json"])
        assert code == 2 and err

    def test_malformed_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, ["entropy", "--spec", str(bad)])[0] == 2
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"pmf": [1.0]}))
        assert run(capsys, ["entropy", "--spec", str(empty)])[0] == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"pmf": [0.5, 0.5], "edges": [[0, 5]]},  # vertex id out of range
            {"pmf": [0.5, 0.5], "edges": [[0, 1, 2]]},  # not a pair
            {"pmf": [0.5, 0.5], "edges": [[0, -1]]},  # would wrap to the last vertex
            {"pmf": [0.5, 0.5], "edges": [[0, 1.0]]},  # not an integer id
            {"pmf": ["0.5", 0.5], "edges": [[0, 1]]},  # not a number
            # a side_joint entry that is not a number
            {"pmf": [0.5, 0.5], "edges": [[0, 1]], "side_joint": [[0.25, "x"], [0.25, 0.25]]},
            {"pmf": [0.5, 0.5], "edges": [], "labels": [[0], [1]]},  # unhashable labels
            # a repeated label would merge two vertices into one
            {"pmf": [0.25, 0.75], "edges": [], "labels": [1, 1]},
            [0.5, 0.5],  # not a JSON object
            # negative and NaN masses are rejected, not pruned with their edges
            {"pmf": [0.5, -0.2, 0.7], "edges": [[0, 1], [1, 2]]},
            {"pmf": [float("nan"), 1, 1], "edges": [[0, 1], [1, 2]]},
            {"pmf": [0.5, 0.5], "edges": [[0, 1]], "side_joint": [[0.5, float("nan")], [0.0, 0.5]]},
        ],
    )
    def test_bad_spec_exits_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["entropy", "--spec", str(path)])
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"labels": ["a"]}, "as long as 'pmf'"),
            ({"side_joint": {"0": [0.5]}}, "one row per vertex"),
            ({"side_joint": [[0.25, 0.25], 0.5]}, "rows must be lists of numbers"),
            ({"side_joint": [[0.25, 0.25], [0.5]]}, "unequal lengths"),
            ({"side_joint": [[], []]}, "'side_joint' rows must not be empty"),
            ({"pmf": [1.0, 0.0], "side_joint": [[1.0], [0.0]]}, "zero-mass vertices"),
            ({"side_joint": [[0.6, -0.1], [0.5, 0]]}, "'side_joint' has a negative"),
            ({"side_joint": [[0.3, 0.1], [0.4, 0]]}, "'side_joint' cells sum to 0.8"),
            # a 401-digit integer passes the type check but overflows a float
            ({"pmf": [10**400, 0.5]}, "'pmf' has a number too large"),
            ({"side_joint": [[10**400, 0], [0.5, 0]]}, "'side_joint' has a number too large"),
        ],
    )
    def test_spec_check_exits_2(self, capsys, tmp_path, extra, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"pmf": [0.5, 0.5], "edges": [[0, 1]], **extra}))
        code, out, err = run(capsys, ["entropy", "--spec", str(path)])
        assert code == 2 and out == "" and message in err

    def test_side_joint_missing_a_light_vertex_exits_2(self, capsys, tmp_path):
        # vertex 3's row is empty and its mass, 1e-10, is below an absolute
        # 1e-9: the solve would print "value": NaN (not JSON) and exit 4
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "pmf": [0.5000000001, 0.25, 0.2499999998, 1e-10],
            "edges": [[0, 1], [1, 2], [2, 3]],
            "side_joint": [
                [0.2500000001, 0.2500000001],
                [0.125, 0.125],
                [0.1249999999, 0.1249999999],
                [0.0, 0.0],
            ],
        }))
        code, out, err = run(capsys, ["entropy", "--spec", str(path)])
        assert code == 2 and out == "" and "X-marginal" in err and "NaN" not in err

    def test_too_many_independent_sets_exits_3(self, capsys, tmp_path):
        # 20 disjoint triangles with a side symbol that is not a function of
        # X: the solver would need all 3^20 maximal independent sets
        nv = 60
        edges = [[3 * t + a, 3 * t + b] for t in range(20) for a, b in ((0, 1), (0, 2), (1, 2))]
        spec = {"pmf": [1 / nv] * nv, "edges": edges, "side_joint": [[0.5 / nv, 0.5 / nv]] * nv}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["entropy", "--spec", str(path)])
        assert code == 3 and out == "" and "cell guard" in err

    def test_oversized_solve_exits_3(self, capsys, tmp_path):
        # 8 disjoint triangles and a vertex adjacent to all: few enough sets
        # for the MIS cell guard, too many cells for one solver step
        nv = 25
        edges = [[3 * t + a, 3 * t + b] for t in range(8) for a, b in ((0, 1), (0, 2), (1, 2))]
        spec = {"pmf": [1 / nv] * nv, "edges": edges + [[24, v] for v in range(24)]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["entropy", "--spec", str(path)])
        assert code == 3 and out == "" and "solve guard" in err


class TestScenario:
    def test_csv_shape_and_determinism(self, capsys):
        argv = [
            "scenario",
            "--scenario",
            "s2-table2",
            "--eps-grid",
            "0.1,0.5,3",
        ]
        code, first, _ = run(capsys, argv)
        assert code == 0
        header, rows = parse_csv(first)
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 3
        code, second, _ = run(capsys, argv)
        assert code == 0 and second == first

    def test_independent_pair_default_has_no_gain(self, capsys):
        _, out, _ = run(
            capsys,
            ["scenario", "--scenario", "s2-table2", "--eps-grid", "0.5,0.5,1"],
        )
        _, rows = parse_csv(out)
        assert rows[0]["param"] == pytest.approx(0.5)  # defaults to 1 - eps
        assert rows[0]["eta_lin"] == pytest.approx(1.0)

    def test_crossed_p_grid_stops_at_model_boundary(self, capsys):
        # the pair law only exists while eps*p <= 1-eps, so each p-curve in a
        # crossed sweep ends at eps = 1/(1+p) instead of killing the run
        code, out, _ = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "s2-table2",
                "--eps-grid",
                "0.05,0.95,19",
                "--p-grid",
                "0.1,0.9,2",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["eps"] * r["param"] <= (1 - r["eps"]) * (1 + 1e-9) for r in rows)
        per_p = {0.1: 0, 0.9: 0}
        for r in rows:
            per_p[round(r["param"], 1)] += 1
        assert per_p[0.1] == sum(1 for i in range(19) if 0.05 + 0.05 * i <= 1 / 1.1)
        assert per_p[0.9] == sum(1 for i in range(19) if 0.05 + 0.05 * i <= 1 / 1.9)
        assert per_p[0.1] > per_p[0.9] > 0

    @pytest.mark.parametrize(
        "eps, p, feasible",
        [
            (0.5, 1.0, True),                    # p' = 1 exactly
            (0.5 + 2.5e-10, 1.0, False),         # p' = 1 + 1e-9
            (0.6, 2.0 / 3.0, True),              # p' = 1 up to rounding
            (0.6, 2.0 / 3.0 * (1 + 1e-9), False),
        ],
    )
    def test_crossover_boundary_agrees_everywhere(self, capsys, eps, p, feasible):
        # the pair law, the closed form and the crossed-grid filter share
        # one statement of the bound p' = eps*p/(1-eps) <= 1
        for build in (crossover_joint, scenario2_table2_rates):
            if feasible:
                build(eps, p)
            else:
                with pytest.raises(ValidationError):
                    build(eps, p)
        code, out, err = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "s2-table2",
                "--eps-grid",
                f"{eps!r},{eps!r},1",
                "--p-grid",
                f"{p!r},{p!r},1",
            ],
        )
        if feasible:
            assert code == 0 and len(parse_csv(out)[1]) == 1
        else:
            assert code == 2 and "feasible" in err

    def test_fully_infeasible_p_grid_rejected(self, capsys):
        code, _, err = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "s2-table2",
                "--eps-grid",
                "0.99,0.99,1",
                "--p-grid",
                "0.9,0.9,1",
            ],
        )
        assert code == 2 and "feasible" in err

    def test_full_correlation_sum_demand(self, capsys):
        _, out, _ = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "s1",
                "--n",
                "30",
                "--k",
                "30",
                "--nr",
                "20",
                "--eps-grid",
                "0.3,0.3,1",
                "--rho-grid",
                "1,1,1",
            ],
        )
        _, rows = parse_csv(out)
        assert rows[0]["eta_lin"] == pytest.approx(10.0, abs=1e-6)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "s2-diniz",
                "--eps-grid",
                "0.3,0.3,1",
                "--rho-grid",
                "1,1,1",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"scenario", "rows"}
        assert payload["scenario"] == "s2-diniz"
        assert payload["rows"][0]["eta_lin"] == pytest.approx(2.0, abs=1e-6)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "s2-table2",
                    "eps_grid": [0.2, 0.2, 1],
                    "format": "json",
                }
            )
        )
        # config alone
        code, out, _ = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["rows"][0]["eps"] == pytest.approx(0.2)
        # the flag beats the config grid
        code, out, _ = run(
            capsys,
            ["scenario", "--config", str(cfg), "--eps-grid", "0.4,0.4,1"],
        )
        assert json.loads(out)["rows"][0]["eps"] == pytest.approx(0.4)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "s1", "epsilon": 0.3}))
        code, _, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and "epsilon" in err
        # M follows from the cyclic placement, so a config cannot set it
        cfg.write_text(json.dumps({"scenario": "s1", "n": 3, "k": 3, "nr": 2, "m": 2}))
        code, _, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and "unknown config keys ['m']" in err

    def test_rho_rejected_outside_mixture_scenarios(self, capsys):
        code, _, err = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "multilinear",
                "--n",
                "3",
                "--k",
                "3",
                "--nr",
                "2",
                "--eps-grid",
                "0.3,0.3,1",
                "--rho-grid",
                "0.5,0.5,1",
            ],
        )
        assert code == 2 and "rho" in err

    @pytest.mark.parametrize(
        "scenario, flag",
        [
            ("s1", "--p-grid"),
            ("s2-diniz", "--p-grid"),
            ("s3", "--p-grid"),
            ("multilinear", "--p-grid"),
            ("custom", "--p-grid"),
            ("s2-table2", "--rho-grid"),
            # these scenarios have no rho axis: even an all-zero grid is refused
            ("s3", "--rho-grid"),
            ("multilinear", "--rho-grid"),
            ("custom", "--rho-grid"),
        ],
    )
    def test_unread_grid_rejected(self, capsys, tmp_path, scenario, flag):
        # the sweep runs without the grid, and a flag or config key that
        # gives it one the scenario never reads exits 2 instead of dropping it
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1, 1, 1]]}))
        base = {"scenario": scenario, "eps_grid": [0.3, 0.3, 1]}
        if scenario in ("s1", "s3", "multilinear", "custom"):
            base.update(n=3, k=3, nr=2)
        if scenario == "custom":
            base["demand"] = str(demand)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(base))
        assert run(capsys, ["scenario", "--config", str(cfg)])[0] == 0
        key = flag[2:].replace("-", "_")
        for grid in ("0.5,0.5,1", "0,0,1"):
            cfg.write_text(json.dumps(base))
            code, out, err = run(capsys, ["scenario", "--config", str(cfg), flag, grid])
            assert code == 2 and out == ""
            assert repr(scenario) in err and flag in err
            cfg.write_text(json.dumps({**base, key: json.loads(f"[{grid}]")}))
            code, out, err = run(capsys, ["scenario", "--config", str(cfg)])
            assert code == 2 and out == ""
            assert repr(scenario) in err and key in err

    @pytest.mark.parametrize(
        "scenario, option",
        [(s, o) for s in ("s2-table2", "s2-diniz") for o in ("n", "k", "kc", "nr")]
        + [
            (s, o)
            for s in ("s1", "s2-table2", "s2-diniz", "s3", "multilinear")
            for o in ("demand", "placement")
        ]
        + [("custom", "kc")],  # custom takes Kc from its demand's rows
    )
    def test_unread_option_rejected(self, capsys, tmp_path, scenario, option):
        # an option the scenario never reads is refused, not dropped, and
        # before any file it names is opened
        base = {"scenario": scenario, "eps_grid": [0.3, 0.3, 1]}
        if scenario in ("s1", "s3", "multilinear", "custom"):
            base.update(n=3, k=3, nr=2)
        if scenario == "custom":
            demand = tmp_path / "demand.json"
            demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1, 1, 1]]}))
            base["demand"] = str(demand)
        value = "no_such_file.json" if option in ("demand", "placement") else 3
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(base))
        assert run(capsys, ["scenario", "--config", str(cfg)])[0] == 0
        flag = f"--{option}"
        code, out, err = run(capsys, ["scenario", "--config", str(cfg), flag, str(value)])
        assert code == 2 and out == ""
        assert f"scenario {scenario!r} does not read {flag} " in err
        cfg.write_text(json.dumps({**base, option: value}))
        code, out, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert repr(scenario) in err and f"config key {option}" in err

    def test_multilinear_takes_one_demand(self, capsys):
        # s1 and the product demand are one function each: Kc is 1, so --kc
        # has no second legal value and is refused as an unread option
        for scenario in ("s1", "multilinear"):
            argv = ["scenario", "--scenario", scenario, "--n", "4", "--k", "8",
                    "--nr", "3", "--eps-grid", "0.1,0.1,1"]
            assert run(capsys, argv)[0] == 0
            code, out, err = run(capsys, argv + ["--kc", "1"])
            assert code == 2 and out == ""
            assert f"scenario {scenario!r} does not read --kc " in err

    def test_json_rows_are_strict_json(self, capsys, tmp_path):
        # at eps = 0 the graph rate is 0 and both gains are infinite: JSON
        # writes them as null (RFC 8259 has no Infinity), CSV keeps inf
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1, 1, 1, 1]]}))
        argv = ["scenario", "--scenario", "custom", "--n", "4", "--k", "4", "--nr", "3",
                "--demand", str(demand), "--eps-grid", "0,0,1"]

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        (row,) = json.loads(out, parse_constant=refuse)["rows"]
        assert row["R_graph"] == 0.0 and row["R_lin"] == 3.0
        assert row["eta_lin"] is None and row["eta_SW"] is None
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.splitlines()[1].endswith(",inf,inf")

    def test_missing_topology_flags(self, capsys):
        code, _, err = run(
            capsys, ["scenario", "--scenario", "s1", "--eps-grid", "0.3,0.3,1"]
        )
        assert code == 2 and "--n" in err

    def test_bad_grid_spelling(self, capsys):
        code, _, _ = run(
            capsys,
            ["scenario", "--scenario", "s2-table2", "--eps-grid", "0.1,0.5,0"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            {"eps_grid": 5},
            {"eps_grid": [0.1, 0.2]},
            {"eps_grid": ["a", 0.2, 3]},
            {"eps_grid": [0.1, 0.2, 1.5]},  # the flag 0.1,0.2,1.5 exits 2 too
            {"rho_grid": [0.0, 0.5, None]},
            {"n": "x"},
            {"n": 3.0},
            {"nr": True},
            {"demand": 3},
        ],
    )
    def test_malformed_config_value_exits_2(self, capsys, tmp_path, extra):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "s1", "n": 3, "k": 3, "nr": 2, **extra}))
        code, out, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"scenario": "s2-table2", "format": "xml"}, "unknown format 'xml'"),
            ({"eps_grid": [0.1, 0.5, 3]}, "no scenario named"),
            ({"scenario": "s9"}, "unknown scenario 's9'"),
        ],
    )
    def test_config_check_exits_2(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and out == "" and message in err

    def test_negative_grid_bound_exits_2(self, capsys):
        # the = keeps argparse from reading -0.1,... as an option
        argv = ["scenario", "--scenario", "s2-table2", "--eps-grid=-0.1,0.5,3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "outside [0,1]" in err

    @pytest.mark.parametrize(
        "flag, scenario",
        [
            ("--eps-grid", ["--scenario", "s2-table2"]),
            ("--rho-grid", ["--scenario", "s1", "--n", "3", "--k", "3", "--nr", "2"]),
            ("--p-grid", ["--scenario", "s2-table2"]),
            ("--eps", ["--scenario", "s2-table2"]),  # argparse takes unique prefixes
        ],
    )
    @pytest.mark.parametrize("joined", [True, False])
    def test_negative_grid_start_either_spelling(self, capsys, flag, scenario, joined):
        # argparse reads a separate -0.1,... as an option unless the CLI
        # joins it to its flag; both spellings reach the grid-bounds check
        grid = [f"{flag}=-0.1,0.5,3"] if joined else [flag, "-0.1,0.5,3"]
        code, out, err = run(capsys, ["scenario"] + scenario + grid)
        assert code == 2 and out == ""
        assert err == "error: grid bounds -0.1,0.5 outside [0,1]\n"

    def test_descending_grid_names_the_order(self, capsys):
        # both bounds lie in [0,1]; what is wrong is their order
        argv = ["scenario", "--scenario", "multilinear", "--n", "4", "--k", "8",
                "--nr", "3", "--eps-grid", "0.5,0.1,3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: grid start 0.5 exceeds its stop 0.1\n"

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps(["scenario", "s1"]))
        code, _, err = run(capsys, ["scenario", "--config", str(cfg)])
        assert code == 2 and "JSON object" in err


def readme_option_table():
    """{(scenario, option): read?} from the README's table of the options
    that only some scenarios read."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| scenario |"))
    header, _, *rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    options = [c.strip(" `")[2:].replace("-", "_") for c in header.split("|")[2:-1]]
    table = {}
    for row in rows:
        scenario, *cells = (c.strip(" `") for c in row.split("|")[1:-1])
        assert set(cells) <= {"yes", "no"} and len(cells) == len(options)
        table.update(((scenario, o), c == "yes") for o, c in zip(options, cells))
    return table


OPTION_TABLE = readme_option_table()


class TestOptionTable:
    """Every cell of the README's scenario x option table, as a flag and as a
    config key: a read option runs, an unread one exits 2 before any file it
    names is opened."""

    def test_table_covers_every_pair(self):
        scenarios = ("s1", "s2-table2", "s2-diniz", "s3", "multilinear", "custom")
        options = ("n", "k", "nr", "kc", "demand", "placement", "p_grid", "rho_grid")
        assert set(OPTION_TABLE) == {(s, o) for s in scenarios for o in options}

    @pytest.mark.parametrize("scenario, option", sorted(OPTION_TABLE))
    def test_cell(self, capsys, tmp_path, scenario, option):
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1, 1, 1]]}))
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps({"N": 3, "K": 3, "Z": [[1, 2], [2, 3], [1, 3]]}))
        read = OPTION_TABLE[scenario, option]
        missing = str(tmp_path / "no_such_file.json")
        values = {"n": 3, "k": 3, "nr": 2, "kc": 1, "p_grid": "0.5,0.5,1",
                  "rho_grid": "0.5,0.5,1", "demand": str(demand) if read else missing,
                  "placement": str(placement) if read else missing}
        base = {"scenario": scenario, "eps_grid": [0.3, 0.3, 1]}
        base.update((o, values[o]) for o in ("n", "k", "nr", "demand")
                    if OPTION_TABLE[scenario, o] and o != option)
        cfg = tmp_path / "sweep.json"
        flag = "--" + option.replace("_", "-")
        cfg.write_text(json.dumps(base))
        by_flag = run(capsys, ["scenario", "--config", str(cfg), flag, str(values[option])])
        cfg.write_text(json.dumps({**base, option: values[option]}))
        by_key = run(capsys, ["scenario", "--config", str(cfg)])
        for (code, out, err), named in ((by_flag, flag + " "), (by_key, f"config key {option}")):
            if read:
                assert code == 0 and out.startswith(CSV_HEADER)
            else:
                assert code == 2 and out == ""
                assert f"scenario {scenario!r} does not read" in err and named in err


@pytest.mark.parametrize(
    "option, target",
    [(o, "directory") for o in ("--spec", "--config", "--demand", "--placement", "--out")]
    + [(o, "non-UTF-8") for o in ("--spec", "--config", "--demand", "--placement")]
    + [("--out", "under-a-file")],
)
def test_unreadable_file_exits_2(capsys, tmp_path, option, target):
    # a file that cannot be opened, read as UTF-8 or written is bad input,
    # reported like any other, not a traceback
    (tmp_path / "dir").mkdir()
    (tmp_path / "bad.json").write_bytes(b'{"\xff": 1}')
    path = {"directory": tmp_path / "dir", "non-UTF-8": tmp_path / "bad.json",
            "under-a-file": tmp_path / "bad.json" / "out.csv"}[target]
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1, 1, 1]]}))
    custom = ["scenario", "--scenario", "custom", "--n", "3", "--k", "3", "--nr", "2",
              "--eps-grid", "0.3,0.3,1"]
    argv = {
        "--spec": ["entropy"],
        "--config": ["scenario"],
        "--demand": custom,
        "--placement": custom + ["--demand", str(demand)],
        "--out": ["scenario", "--scenario", "s2-table2", "--eps-grid", "0.3,0.3,1"],
    }[option]
    code, out, err = run(capsys, argv + [option, str(path)])
    assert code == 2 and out == "" and err.startswith("error:")


class TestCustomScenario:
    def _demand_file(self, tmp_path, k=3):
        f = tmp_path / "demand.json"
        f.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1] * k]}))
        return f

    def test_parity_sweep(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "custom",
                "--demand",
                str(self._demand_file(tmp_path)),
                "--n",
                "3",
                "--k",
                "3",
                "--nr",
                "2",
                "--eps-grid",
                "0.5,0.5,1",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        # orderings of two parity servers: each stage transmits one fair bit
        assert rows[0]["R_graph"] == pytest.approx(2.0, abs=1e-6)
        assert rows[0]["R_lin"] == pytest.approx(2.0, abs=1e-6)
        assert rows[0]["R_SW"] == pytest.approx(3.0, abs=1e-6)

    def test_five_server_parity_sweep_finishes(self, capsys, tmp_path):
        # every chain-stage block of a parity is complete multipartite, so
        # all 24 orderings of Nr = 4 servers are evaluated without iterating
        argv = ["scenario", "--scenario", "custom", "--demand",
                str(self._demand_file(tmp_path, k=5)), "--n", "5", "--k", "5",
                "--nr", "4", "--eps-grid", "0.1,0.1,1", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["R_graph"] >= binary_entropy(parity_param(5, 0.1)) - 1e-9

    def test_unwritable_out_exits_before_the_first_row(self, capsys, monkeypatch, tmp_path):
        # --out is opened before the sweep, so a directory exits 2 at once,
        # without a single chain evaluation
        def refuse(*args, **kwargs):
            raise AssertionError("a row was computed before --out was opened")

        monkeypatch.setattr(cli, "chain_rate", refuse)
        argv = ["scenario", "--scenario", "custom", "--demand",
                str(self._demand_file(tmp_path, k=5)), "--n", "5", "--k", "5",
                "--nr", "4", "--eps-grid", "0.1,0.4,4", "--out", str(tmp_path)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_needs_demand_file(self, capsys):
        code, _, err = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "custom",
                "--n",
                "3",
                "--k",
                "3",
                "--nr",
                "2",
            ],
        )
        assert code == 2 and "--demand" in err

    @pytest.mark.parametrize(
        "demand",
        [
            {"kind": "linsep"},
            {"kind": "linsep", "q": 2, "gamma": [[1, 1, "x"]]},
            [1, 1, 1],
            {"kind": "linsep", "q": 2, "gamma": [[1, 1, 1.7]]},
            {"kind": "linsep", "q": "2", "gamma": [["1", "1", "1"]]},
        ],
    )
    def test_malformed_demand_exits_2(self, capsys, tmp_path, demand):
        f = tmp_path / "demand.json"
        f.write_text(json.dumps(demand))
        argv = ["scenario", "--scenario", "custom", "--demand", str(f), "--n", "3",
                "--k", "3", "--nr", "2", "--eps-grid", "0.5,0.5,1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "demand, message",
        [
            ({"kind": "linsep", "q": 3, "gamma": [[1, 1, 1]]}, "must be binary"),
            ({"kind": "linsep", "q": 4, "gamma": [[1, 1, 1]]}, "q=4 must be prime"),
            ({"kind": "table", "q": 2, "tables": []}, "at least one table"),
        ],
    )
    def test_demand_check_exits_2(self, capsys, tmp_path, demand, message):
        f = tmp_path / "demand.json"
        f.write_text(json.dumps(demand))
        argv = ["scenario", "--scenario", "custom", "--demand", str(f), "--n", "3",
                "--k", "3", "--nr", "2", "--eps-grid", "0.5,0.5,1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and message in err

    def test_non_integer_placement_exits_2(self, capsys, tmp_path):
        # int() would read N = 3.9 as 3 and the zone [3, 1.5] as (1, 3)
        f = tmp_path / "placement.json"
        f.write_text(json.dumps({"N": 3.9, "K": 3, "Z": [[1, 2], [2, 3], [3, 1.5]]}))
        argv = ["scenario", "--scenario", "custom", "--demand", str(self._demand_file(tmp_path)),
                "--placement", str(f), "--n", "3", "--k", "3", "--nr", "2",
                "--eps-grid", "0.5,0.5,1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "N, K, Z" in err

    def test_placement_for_another_n_exits_2(self, capsys, tmp_path):
        # a 4-server placement would price the first Nr of 6 servers
        f = tmp_path / "placement.json"
        f.write_text(json.dumps({"N": 4, "K": 6, "Z": [[1, 2, 3, 4, 5, 6], [1, 2, 3], [4, 5, 6], [1, 2]]}))
        argv = ["scenario", "--scenario", "custom", "--demand",
                str(self._demand_file(tmp_path, k=6)), "--placement", str(f),
                "--n", "6", "--k", "6", "--nr", "3", "--eps-grid", "0.5,0.5,1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "placement is for (N=4, K=6), topology says (N=6, K=6)" in err

    def test_placement_for_another_k_exits_2(self, capsys, tmp_path):
        f = tmp_path / "placement.json"
        f.write_text(json.dumps({"N": 4, "K": 8, "Z": [[1, 2, 5, 6], [2, 3, 6, 7], [3, 4, 7, 8], [1, 4, 5, 8]]}))
        argv = ["scenario", "--scenario", "custom", "--demand",
                str(self._demand_file(tmp_path, k=4)), "--placement", str(f),
                "--n", "4", "--k", "4", "--nr", "3", "--eps-grid", "0.5,0.5,1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "placement is for (N=4, K=8), topology says (N=4, K=4)" in err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 15: custom prices only the orderings of servers 1..Nr")
    def test_placement_row_prices_the_worst_subset(self, capsys, tmp_path):
        # the user recovers from any Nr servers; here subset {3, 4, 5} needs
        # 2.7596 bits and each of the other nine subsets 1.9785
        zones = [[1, 2, 3], [1, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5]]
        f = tmp_path / "placement.json"
        f.write_text(json.dumps({"N": 5, "K": 5, "Z": zones}))
        demand = self._demand_file(tmp_path, k=5)
        argv = ["scenario", "--scenario", "custom", "--demand", str(demand),
                "--placement", str(f), "--n", "5", "--k", "5", "--nr", "3",
                "--eps-grid", "0.3,0.3,1", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        t = Topology(n=5, k=5, kc=1, m=3, nr=3)
        p = Placement(5, 5, tuple(map(tuple, zones)))
        d = demand_from_json(json.loads(demand.read_text()), k=5)
        worst = chain_rate(t, p, d, iid_bernoulli_joint(5, 0.3), list(permutations((3, 4, 5))))
        assert row["R_graph"] == pytest.approx(worst.sum_rate, rel=0, abs=1e-12)

    def test_ordering_sweep_guard(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "scenario",
                "--scenario",
                "custom",
                "--demand",
                str(self._demand_file(tmp_path, k=8)),
                "--n",
                "8",
                "--k",
                "8",
                "--nr",
                "7",
                "--eps-grid",
                "0.3,0.3,1",
            ],
        )
        assert code == 3 and "desk-scale" in err


class TestRotationOrbits:
    """A custom sweep at Nr = N prices the orderings that start with server
    1, one per rotation orbit, when rotation maps its placement, law and
    demand to themselves, and every ordering otherwise."""

    def _rows(self, capsys, tmp_path, demand, n, k, nr, grid, placement=None):
        f = tmp_path / "demand.json"
        f.write_text(json.dumps(demand))
        argv = ["scenario", "--scenario", "custom", "--demand", str(f), "--n", str(n),
                "--k", str(k), "--nr", str(nr), "--eps-grid", grid, "--format", "json"]
        if placement is not None:
            g = tmp_path / "placement.json"
            g.write_text(json.dumps({"N": n, "K": k, "Z": placement}))
            argv += ["--placement", str(g)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        return json.loads(out)["rows"]

    @pytest.mark.parametrize("kind", ["parity", "and"])
    @pytest.mark.parametrize("n, k", [(4, 4), (3, 6)])
    def test_symmetric_sweep_prices_one_ordering_per_orbit(self, capsys, tmp_path, kind, n, k):
        if kind == "parity":
            demand = {"kind": "linsep", "q": 2, "gamma": [[1] * k]}
        else:
            demand = {"kind": "multilinear", "q": 2}
        rows = self._rows(capsys, tmp_path, demand, n, k, n, "0,1,5")
        d = demand_from_json(demand, k=k)
        t = cli._make_topology(n, k, 1, n)
        every = list(permutations(range(1, n + 1)))
        for row in rows:
            assert row["orderings_tried"] == math.factorial(n - 1)
            joint = iid_bernoulli_joint(k, row["eps"])
            assert row["R_graph"] == chain_rate(t, cyclic_placement(t), d, joint, every).sum_rate

    def test_random_table_prices_every_ordering(self, capsys, tmp_path):
        rng = random.Random(3)
        demand = {"kind": "table", "q": 2, "tables": [[rng.randint(0, 1) for _ in range(16)]]}
        rows = self._rows(capsys, tmp_path, demand, 4, 4, 4, "0.2,0.4,2")
        assert [row["orderings_tried"] for row in rows] == [24, 24]

    def test_unrotated_placement_prices_every_ordering(self, capsys, tmp_path):
        # server 3 keeps only dataset 3, where rotation would hand it 3 and 1
        demand = {"kind": "linsep", "q": 2, "gamma": [[1, 1, 1]]}
        rows = self._rows(capsys, tmp_path, demand, 3, 3, 3, "0.1,0.3,2", [[1, 2], [2, 3], [3]])
        assert [row["orderings_tried"] for row in rows] == [6, 6]

    def test_fewer_reachable_servers_price_every_ordering(self, capsys, tmp_path):
        # at Nr < N a rotation leaves the first Nr servers
        demand = {"kind": "linsep", "q": 2, "gamma": [[1] * 4]}
        rows = self._rows(capsys, tmp_path, demand, 4, 4, 3, "0.1,0.3,2")
        assert [row["orderings_tried"] for row in rows] == [6, 6]


class TestSerialSweeps:
    def test_sweeps_start_no_thread(self, capsys, monkeypatch, tmp_path):
        # every grid point is GIL-bound Python, so points run in order on the
        # calling thread: a pool only added its own overhead
        def refuse(thread):
            raise AssertionError(f"a sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        argv = ["scenario", "--scenario", "s2-table2", "--eps-grid", "0.1,0.5,4"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(parse_csv(out)[1]) == 4
        demand = tmp_path / "parity.json"
        demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1] * 4]}))
        argv = ["scenario", "--scenario", "custom", "--demand", str(demand),
                "--n", "4", "--k", "4", "--nr", "3", "--eps-grid", "0.1,0.4,2"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(parse_csv(out)[1]) == 2

    def test_fig_configs_match_frozen_rows(self, capsys):
        # every row of every figure sweep, against the benchmark's frozen
        # references and under its gate: within 1e-9, relative above 1
        refs = json.loads(FIG_REFS.read_text())
        configs = sorted(CONFIGS.glob("fig*.json"))
        assert [path.stem for path in configs] == sorted(refs)
        total = 0
        for path in configs:
            argv = ["scenario", "--config", str(path), "--format", "json"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            rows, want = json.loads(out)["rows"], refs[path.stem]
            assert len(rows) == len(want)
            for i, (row, ref) in enumerate(zip(rows, want)):
                assert set(row) == set(ref)
                for col, value in ref.items():
                    assert abs(row[col] - value) <= 1e-9 * max(1.0, abs(value)), (
                        path.stem, i, col
                    )
            total += len(rows)
        assert total == 1639


def run_both(capsys, tmp_path, argv):
    """A sweep's text on stdout and, run again, in its --out file."""
    code, out, _ = run(capsys, argv)
    assert code == 0
    target = tmp_path / "table.txt"
    assert run(capsys, argv + ["--out", str(target)]) == (0, "", "")
    return out, target.read_text(encoding="utf-8")


class TestJsonWriter:
    # JSON tables come from one row template, not from json.dumps with
    # indent (which runs the pure-Python encoder), so their text is checked
    # against what json.dumps(payload, indent=2, allow_nan=False) writes

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("fig*.json")), ids=lambda p: p.stem)
    def test_fig_sweep_rows_match_json_dumps(self, capsys, tmp_path, config):
        argv = ["scenario", "--config", str(config), "--format", "json"]
        out, written = run_both(capsys, tmp_path, argv)
        # floats round-trip through repr, so the parsed payload holds the
        # values the writer was given
        want = json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"
        assert out == want and written == want

    def test_special_values_match_json_dumps(self, capsys, monkeypatch, tmp_path):
        graph = [2.0, 0.0, -0.0, 5e-324, 1e16, 1e-7, math.nan]
        lin = [math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-7, 1.0]
        sw = lin[::-1]

        def evaluator(cfg):
            return lambda eps, param: ((graph, lin, sw), True, {})

        monkeypatch.setattr(cli, "_evaluator", evaluator)
        argv = ["scenario", "--scenario", "s2-table2", "--eps-grid", "0.1,0.7,7",
                "--format", "json"]

        def gain(baseline, g):
            return baseline / g if g > 0.0 else math.inf

        def value(v):
            return v if math.isfinite(v) else None

        rows = [
            {"eps": e, "param": 1.0 - e, "R_graph": value(g), "R_lin": value(l),
             "R_SW": value(w), "eta_lin": value(gain(l, g)), "eta_SW": value(gain(w, g))}
            for e, g, l, w in zip(np.linspace(0.1, 0.7, 7).tolist(), graph, lin, sw)
        ]
        want = json.dumps({"scenario": "s2-table2", "rows": rows}, indent=2, allow_nan=False)
        out, written = run_both(capsys, tmp_path, argv)
        assert out == want + "\n" and written == want + "\n"
        for text in ("-0.0", "5e-324", "1e+16", "1e-07", "null"):
            assert text in out

    def test_custom_rows_match_json_dumps(self, capsys, tmp_path):
        # a custom row also carries orderings_tried, an int, after the
        # columns; the CSV of the same sweep keeps its header
        demand = tmp_path / "parity.json"
        demand.write_text(json.dumps({"kind": "linsep", "q": 2, "gamma": [[1] * 4]}))
        argv = ["scenario", "--scenario", "custom", "--demand", str(demand), "--n", "4",
                "--k", "4", "--nr", "4", "--eps-grid", "0,1,3"]
        out, written = run_both(capsys, tmp_path, argv + ["--format", "json"])
        payload = json.loads(out)
        want = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        assert out == want and written == want
        for row in payload["rows"]:
            assert list(row) == list(cli.COLUMNS) + ["orderings_tried"]
            assert type(row["orderings_tried"]) is int
        csv, _ = run_both(capsys, tmp_path, argv)
        assert csv.splitlines()[0] == CSV_HEADER


# every scenario that accepts eps = 0 and 1, with the options it reads
ENDPOINT_SWEEPS = {
    "s1": ["--n", "30", "--k", "30", "--nr", "20", "--rho-grid", "0,1,2"],
    "s2-diniz": ["--rho-grid", "0,1,2"],
    "s3": ["--n", "30", "--k", "30", "--nr", "20", "--kc", "4"],
    "multilinear": ["--n", "4", "--k", "8", "--nr", "3"],
}


class TestGridEndpoints:
    @pytest.mark.parametrize("scenario", sorted(ENDPOINT_SWEEPS))
    def test_deterministic_laws_price_zero(self, capsys, tmp_path, scenario):
        # at eps = 0 and 1 (and rho = 0 and 1) every rate is 0 and both
        # gains are infinite: inf in CSV, null in JSON; a numpy warning from
        # log2(0) or 0/0 would fail the test, as warnings are errors here
        argv = ["scenario", "--scenario", scenario, "--eps-grid", "0,1,2",
                *ENDPOINT_SWEEPS[scenario]]
        points = 4 if "--rho-grid" in argv else 2
        out, written = run_both(capsys, tmp_path, argv)
        assert out == written
        header, rows = parse_csv(out)
        assert len(rows) == points
        for row in rows:
            assert row["eps"] in (0.0, 1.0)
            assert (row["R_graph"], row["R_lin"], row["R_SW"]) == (0.0, 0.0, 0.0)
            assert row["eta_lin"] == row["eta_SW"] == math.inf
        assert all(line.endswith(",0,0,0,inf,inf") for line in out.splitlines()[1:])
        out, _ = run_both(capsys, tmp_path, argv + ["--format", "json"])
        rows = json.loads(out)["rows"]
        assert len(rows) == points
        for row in rows:
            assert (row["R_graph"], row["R_lin"], row["R_SW"]) == (0.0, 0.0, 0.0)
            assert row["eta_lin"] is None and row["eta_SW"] is None

    def test_pair_model_refuses_the_endpoints(self, capsys):
        argv = ["scenario", "--scenario", "s2-table2", "--eps-grid", "0,1,2"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: epsilon must lie strictly inside (0,1)\n"

    @pytest.mark.parametrize("count", [10**15, 10**19])
    def test_absurd_grid_count_is_refused_before_any_array(self, capsys, count):
        argv = ["scenario", "--scenario", "s2-diniz", "--eps-grid", f"0.1,0.5,{count}"]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == (
            f"desk-scale guard: the grid has {count} points; the cap is {cli.MAX_GRID_POINTS}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["--scenario", "s2-diniz", "--rho-grid"], ["--scenario", "s2-table2", "--p-grid"]],
    )
    def test_grid_cap_counts_eps_times_param(self, capsys, monkeypatch, argv):
        # 3 eps x 2 params meets a cap of 6 and 3 x 3 passes it
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 6)
        base = ["scenario", *argv[:-1], "--eps-grid", "0.1,0.3,3", argv[-1]]
        code, out, _ = run(capsys, base + ["0.2,0.4,2"])
        assert code == 0 and len(parse_csv(out)[1]) == 6
        code, out, err = run(capsys, base + ["0.2,0.4,3"])
        assert code == 3 and out == "" and "grid has 9 points" in err


def test_non_convergence_exits_4(capsys, monkeypatch, tmp_path):
    # complete multipartite blocks are exact, so every input here has a
    # block that is not: the path P4 and a table demand's chain stage
    monkeypatch.setattr(solvers, "MAX_ITERS", 1)
    p4 = make_graph({v: 0.25 for v in range(4)}, [(0, 1), (1, 2), (2, 3)])
    res = solvers.graph_entropy(p4)
    assert res.converged is False and res.iterations == 1
    spec = str(CONFIGS / "ternary_conditional.json")
    assert run(capsys, ["entropy", "--spec", spec])[0] == 4
    demand = tmp_path / "demand.json"
    table = [0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    demand.write_text(json.dumps({"kind": "table", "q": 2, "tables": [table]}))
    argv = ["scenario", "--scenario", "custom", "--demand", str(demand),
            "--n", "4", "--k", "4", "--nr", "2", "--eps-grid", "0.3,0.3,1"]
    assert run(capsys, argv)[0] == 4
