"""bench/tracer.py wraps flowsat's functions and EGraph methods by name, so
renaming one of them breaks `bench/run.py --trace 1`. The tracer's tables
are read as text: importing bench/ from here would write into it."""

import ast
import importlib
from pathlib import Path

from flowsat.egraph import EGraph

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tables() -> dict[str, list[tuple]]:
    tables = {}
    for stmt in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            name = getattr(stmt.targets[0], "id", None)
            if name in ("_FUNCTIONS", "_METHODS"):
                tables[name] = ast.literal_eval(stmt.value)
    return tables


def test_tracer_patches_only_names_flowsat_defines():
    tables = _tables()
    assert tables["_FUNCTIONS"] and tables["_METHODS"]
    # the rule set is wrapped where `cli` bound it, outside the tables
    targets = [(module, attr) for module, attr, *_ in tables["_FUNCTIONS"]] + [("cli", "rule_set")]
    for module, attr in targets:
        mod = importlib.import_module(f"flowsat.{module}")
        assert attr in mod.__dict__, f"bench/tracer.py patches missing flowsat.{module}.{attr}"
    for attr, *_ in tables["_METHODS"]:
        assert attr in EGraph.__dict__, f"bench/tracer.py patches missing EGraph.{attr}"
