"""bench/tracer.py wraps flowsat's functions and EGraph methods by name, so
renaming one of them breaks `bench/run.py --trace 1`. The tracer's tables
are read as text: importing bench/ from here would write into it."""

import ast
import dataclasses
import importlib
from pathlib import Path

import flowsat
from flowsat.egraph import EGraph, PNode, PVar
from flowsat.rules import RuleSet, rule_set

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
RULE_SETS = ("core", "join", "unary", "diamond", "all")


def _tables() -> dict[str, list[tuple]]:
    tables = {}
    for stmt in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            name = getattr(stmt.targets[0], "id", None)
            if name in ("_FUNCTIONS", "_METHODS", "RULE_GROUPS"):
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


def test_tracer_rule_set_assumptions_hold():
    # the tracer groups rules by calling flowsat.<group>_rules(), and rebuilds
    # every rule set `cli` looks up from copied left sides and wrapped appliers
    groups = _tables()["RULE_GROUPS"]
    assert groups
    for group in groups:
        rules = getattr(flowsat, f"{group}_rules", None)
        assert callable(rules), f"bench/tracer.py reads missing flowsat.{group}_rules"
        assert rules().rewrites
    for name in RULE_SETS:
        rs = rule_set(name)
        rewrites = []
        for r in rs.rewrites:
            p = r.lhs
            lhs = PVar(p.name) if isinstance(p, PVar) else PNode(p.op, p.symbol, p.children)
            rewrites.append(dataclasses.replace(r, lhs=lhs, applier=r.applier))
        rebuilt = RuleSet(rs.name, tuple(rewrites))
        assert [r.name for r in rebuilt.rewrites] == [r.name for r in rs.rewrites]
