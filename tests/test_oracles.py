"""The frozen constants of the test modules against their oracles: run
tests/oracles/gen_frozen.py, execute the assignments it prints, and compare
each with the module-level literal of the same name, read without importing
the module that holds it."""

import ast
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FROZEN_IN = {
    "test_rates.py": (
        "PROP1_CASES", "PROP3_5_5_4_HALF", "ETA_LIN_TINY_EPS", "FROZEN_CHAIN",
        "FROZEN_CHAIN_FAMILY",
    ),
    "test_graphs.py": ("TERNARY_SQUARE_EDGE_COUNT", "TERNARY_SQUARE_MIN_COLORS"),
    "test_solvers.py": ("CHROMATIC_TERNARY_UNIFORM", "CHROMATIC_TERNARY_SKEWED", "CHROMATIC_C5"),
    "test_probability.py": ("MIXTURE_ENTROPY", "MIXTURE_PARITY"),
}


def module_literals(path):
    """Each name assigned a literal at module level in path, with its value."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass  # not a literal
    return out


def test_frozen_literals_equal_the_oracles():
    script = TESTS / "oracles" / "gen_frozen.py"
    printed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=True
    ).stdout
    oracle = {}
    exec(printed, {}, oracle)
    names = [name for group in FROZEN_IN.values() for name in group]
    assert sorted(oracle) == sorted(names)
    for module, group in FROZEN_IN.items():
        frozen = module_literals(TESTS / module)
        for name in group:
            assert frozen[name] == oracle[name], f"{module}: {name}"
