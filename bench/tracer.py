"""Spans around flowsat's layers, recorded from outside the program.

The tracer replaces module attributes and class methods of an imported
flowsat with timing wrappers, at the place each is looked up: `cli`
binds `EGraph`, `extract_best`, `flatten`, `reform_cse` and `rule_set` at
import, so those are wrapped in `flowsat.cli`; `equivalent` finds `run`
in `flowsat.interp`. Recursive functions are spanned at their outermost
call only. Diamond appliers are timed by wrapping the `Rewrite` objects of
the rule set `cli` builds, and every rule's left-hand side is copied to an
object of its own so that e-matches can be counted per rule.

Spans stay in memory (id, name, operation, parent, start, end); a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (object path, attribute, span name, outermost only)
_FUNCTIONS = [
    ("program", "parse_program", "program.parse", False),
    ("program", "read_forms", "sexpr.read_forms", False),
    ("program", "term_from_sexpr", "terms.term_from_sexpr", False),
    ("cli", "optimize_program", "cli.optimize_program", False),
    ("cli", "optimize_trees", "cli.optimize_trees", False),
    ("cli", "flatten", "program.flatten", False),
    ("cli", "reform_cse", "program.reform_cse", False),
    ("cli", "extract_best", "extract.extract_best", False),
    ("interp", "flatten", "program.flatten", False),
    ("interp", "equivalent", "interp.equivalent", False),
    ("interp", "run", "interp.run", False),
    ("interp", "random_trace", "interp.random_trace", False),
]
_METHODS = [
    ("saturate", "egraph.saturate", False),
    ("ematch", "egraph.ematch", False),
    ("instantiate", "egraph.instantiate", True),
    ("rebuild", "egraph.rebuild", False),
    ("add", "egraph.add", True),
]
RULE_GROUPS = ("core", "join", "unary", "diamond")


class Tracer:
    def __init__(self, flowsat):
        self.fs = flowsat
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in closing order; parent is a span id
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child time]
        self._depth: Counter = Counter()
        self._next = 0
        self.op = -1
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.matches = 0
        self.rule_matches: Counter = Counter()
        self._rule_of: dict[int, str] = {}
        self._keep: list = []  # patterns whose ids key _rule_of stay alive
        self._undo: list = []
        self.group_of = {
            r.name: group
            for group in RULE_GROUPS
            for r in getattr(flowsat, f"{group}_rules")().rewrites
        }

    # spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, fn, name: str, outermost: bool = False, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        def traced(*args, **kwargs):
            if outermost:
                if depth[nid]:
                    return fn(*args, **kwargs)
                depth[nid] += 1
            index = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    depth[nid] -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.span_id.append(index)
                self.span_name.append(nid)
                self.span_op.append(self.op)
                self.span_parent.append(parent)
                self.span_start.append(frame[1])
                self.span_end.append(end)
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, obj, attr: str, wrapper):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, wrapper)

    # installation ----------------------------------------------------------

    def install(self):
        fs = self.fs
        for module, attr, name, outermost in _FUNCTIONS:
            mod = getattr(fs, module)
            self._patch(mod, attr, self.wrap(getattr(mod, attr), name, outermost))
        self._patch(fs.cli, "rule_set", self._rule_set_wrapper(fs.cli.rule_set))
        EGraph = fs.egraph.EGraph
        for attr, name, outermost in _METHODS:
            after = self._count_matches if attr == "ematch" else None
            self._patch(EGraph, attr, self.wrap(EGraph.__dict__[attr], name, outermost, after))

    def restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _count_matches(self, args, result):
        self.matches += len(result)
        rule = self._rule_of.get(id(args[1]))
        if rule is not None:
            self.rule_matches[rule] += len(result)

    def _rule_set_wrapper(self, rule_set):
        timed = self.wrap(rule_set, "rules.rule_set")
        fs = self.fs

        def wrapped(name):
            rs = timed(name)
            rewrites = []
            for r in rs.rewrites:
                lhs = _copy_pattern(fs.egraph, r.lhs)
                self._rule_of[id(lhs)] = r.name
                self._keep.append(lhs)
                applier = r.applier
                if applier is not None:
                    applier = self.wrap(applier, "diamond.applier")
                rewrites.append(dataclasses.replace(r, lhs=lhs, applier=applier))
            return fs.rules.RuleSet(rs.name, tuple(rewrites))

        return wrapped

    # results -----------------------------------------------------------------

    def write(self, path: Path, extra: dict):
        """Write every span and the tables computed from them as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [i, self.names[n], op, parent, round(s, 7), round(e, 7)]
            for i, n, op, parent, s, e in zip(
                self.span_id, self.span_name, self.span_op, self.span_parent,
                self.span_start, self.span_end,
            )
        ]
        doc = {
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "rule_matches": dict(self.rule_matches),
            **extra,
            "span_fields": ["id", "name", "op", "parent", "start", "end"],
            "spans": spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _copy_pattern(egraph, p):
    if isinstance(p, egraph.PVar):
        return egraph.PVar(p.name)
    return egraph.PNode(p.op, p.symbol, p.children)
