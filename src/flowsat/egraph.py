"""Equality-saturation engine.

E-nodes are (op, symbol, child-class-ids) triples, hashconsed into
e-classes kept canonical by a union-find. rebuild() restores the
congruence invariant after unions; saturate() runs a batch
match-then-apply loop over a rewrite list until fixpoint or a limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .sexpr import Atom, SExpr, read_form
from .terms import ATOM_FOR_HOLE, HOLE_ATOMS, HOLE_OPS, Term, check_name, split_form

ENode = tuple  # (op: str, symbol: str | None, children: tuple[int, ...])


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PNode:
    op: str
    symbol: Optional[str]  # literal, or "?x" for a symbol variable
    children: tuple["PatternT", ...]


PatternT = Union[PVar, PNode]


def pattern_from_sexpr(sx: SExpr) -> PatternT:
    if isinstance(sx, Atom):
        if sx.text.startswith("?"):
            return PVar(sx.text[1:])
        hole = HOLE_ATOMS.get(sx.text)
        if hole is not None:
            return PNode(hole, None, ())
        return PNode("source", check_name(sx.text, sx.line, sx.col, "source name"), ())
    op, fn, args = split_form(sx)
    symbol = None
    if fn is not None:
        symbol = fn.text if fn.text.startswith("?") else check_name(fn.text, fn.line, fn.col, "function name")
    return PNode(op, symbol, tuple(pattern_from_sexpr(a) for a in args))


def parse_pattern(text: str) -> PatternT:
    """Parse a pattern; `?x` leaves are variables, atoms are source names."""
    return pattern_from_sexpr(read_form(text))


def pattern_vars(p: PatternT) -> set[str]:
    if isinstance(p, PVar):
        return {p.name}
    out: set[str] = set()
    if p.symbol is not None and p.symbol.startswith("?"):
        out.add(p.symbol[1:])
    for c in p.children:
        out |= pattern_vars(c)
    return out


# A substitution maps term variables to class ids and symbol variables to
# concrete symbols.
Subst = dict

Applier = Callable[["EGraph", int, Subst], list[int]]
Condition = Callable[["EGraph", int, Subst], bool]


@dataclass(frozen=True)
class Rewrite:
    """A directed rewrite: lhs pattern, plus either an rhs pattern or a
    programmatic applier producing class ids to union with the match."""

    name: str
    lhs: PatternT
    rhs: Optional[PatternT] = None
    applier: Optional[Applier] = None
    condition: Optional[Condition] = None

    def __post_init__(self):
        if (self.rhs is None) == (self.applier is None):
            raise ValueError(f"rewrite {self.name}: exactly one of rhs/applier required")
        if self.rhs is not None:
            unbound = pattern_vars(self.rhs) - pattern_vars(self.lhs)
            if unbound:
                raise ValueError(f"rewrite {self.name}: rhs variables {sorted(unbound)} unbound")


@dataclass(frozen=True)
class SaturationLimits:
    max_iters: int = 16
    max_nodes: int = 50_000
    max_millis: int = 10_000

    def __post_init__(self):
        if self.max_iters < 1 or self.max_nodes < 1 or self.max_millis < 1:
            raise ValueError("limits must be positive")


@dataclass
class SaturationReport:
    iterations: int = 0
    enodes: int = 0
    eclasses: int = 0
    stop_reason: str = "saturated"
    rule_counts: dict[str, int] = field(default_factory=dict)

    def to_lines(self) -> str:
        lines = [
            f"iterations={self.iterations}",
            f"enodes={self.enodes}",
            f"eclasses={self.eclasses}",
            f"stop={self.stop_reason}",
        ]
        lines += [f"applied.{name}={n}" for name, n in self.rule_counts.items()]
        return "\n".join(lines)


class EGraph:
    def __init__(self):
        self._parent: list[int] = []
        self.classes: dict[int, set[ENode]] = {}
        self.hashcons: dict[ENode, int] = {}
        self._node_parents: dict[int, list[tuple[ENode, int]]] = {}
        self._dirty: list[int] = []
        self.version = 0
        self._byop: dict[int, dict[str, list[ENode]]] = {}
        self._index_version = -1

    # union-find ------------------------------------------------------

    def find(self, x: int) -> int:
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _new_class(self) -> int:
        cid = len(self._parent)
        self._parent.append(cid)
        self.classes[cid] = set()
        self._node_parents[cid] = []
        return cid

    # construction ----------------------------------------------------

    def add_enode(self, op: str, symbol: Optional[str], children: tuple[int, ...]) -> int:
        node = (op, symbol, tuple(self.find(c) for c in children))
        cid = self.hashcons.get(node)
        if cid is not None:
            return self.find(cid)
        cid = self._new_class()
        self.classes[cid].add(node)
        self.hashcons[node] = cid
        for ch in set(node[2]):
            self._node_parents[ch].append((node, cid))
        self.version += 1
        return cid

    def add(self, t: Term) -> int:
        """Add a term; structurally equal terms share one class (hashcons)."""
        children = tuple(self.add(c) for c in t.children)
        return self.add_enode(t.op, t.symbol, children)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if len(self.classes[ra]) < len(self.classes[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self.classes[ra] |= self.classes.pop(rb)
        self._node_parents[ra].extend(self._node_parents.pop(rb))
        self._dirty.append(ra)
        self.version += 1
        return ra

    # congruence repair -------------------------------------------------

    def rebuild(self):
        """Restore the invariant that congruent e-nodes share one class."""
        while self._dirty:
            todo = {self.find(c) for c in self._dirty}
            self._dirty = []
            for cid in todo:
                self._repair(self.find(cid))
        self._normalize()

    def _repair(self, cid: int):
        # Detach the parent list first: unions below may merge cid itself
        # into another class, moving/extending parent lists as they go.
        parents = self._node_parents.get(cid, [])
        self._node_parents[cid] = []
        fresh: dict[ENode, int] = {}
        for node, pcid in parents:
            self.hashcons.pop(node, None)
            node2 = (node[0], node[1], tuple(self.find(x) for x in node[2]))
            pcid = self.find(pcid)
            other = self.hashcons.get(node2)
            if other is not None and self.find(other) != pcid:
                pcid = self.union(other, pcid)
            self.hashcons[node2] = self.find(pcid)
            seen = fresh.get(node2)
            if seen is not None and self.find(seen) != self.find(pcid):
                self.union(seen, pcid)
            fresh[node2] = self.find(pcid)
        root = self.find(cid)
        self._node_parents.setdefault(root, []).extend(fresh.items())

    def _normalize(self):
        """Re-canonicalize stored node forms and drop duplicates."""
        new_classes: dict[int, set[ENode]] = {}
        for cid, nodes in self.classes.items():
            out = set()
            for op, sym, ch in nodes:
                out.add((op, sym, tuple(self.find(x) for x in ch)))
            new_classes[cid] = out
        self.classes = new_classes

    # queries -----------------------------------------------------------

    def num_classes(self) -> int:
        return len(self.classes)

    def num_enodes(self) -> int:
        return sum(len(nodes) for nodes in self.classes.values())

    def class_nodes(self, cid: int) -> set[ENode]:
        return self.classes[self.find(cid)]

    def _ensure_index(self):
        if self._index_version == self.version and not self._dirty:
            return
        self.rebuild()
        byop: dict[int, dict[str, list[ENode]]] = {}
        for cid, nodes in self.classes.items():
            d: dict[str, list[ENode]] = {}
            for node in sorted(nodes, key=_node_key):
                d.setdefault(node[0], []).append(node)
            byop[cid] = d
        self._byop = byop
        self._index_version = self.version

    def ematch(self, pattern: PatternT) -> list[tuple[int, Subst]]:
        """All (class, substitution) pairs where the pattern instantiates
        inside the class; complete up to canonicalization, duplicate-free."""
        self._ensure_index()
        results: list[tuple[int, Subst]] = []
        seen: set = set()
        for cid in sorted(self.classes):
            for s in self._match_class(pattern, cid, {}):
                key = (cid, tuple(sorted(s.items())))
                if key not in seen:
                    seen.add(key)
                    results.append((cid, s))
        return results

    def _match_class(self, pat: PatternT, cid: int, subst: Subst) -> list[Subst]:
        if isinstance(pat, PVar):
            bound = subst.get(pat.name)
            if bound is None:
                s2 = dict(subst)
                s2[pat.name] = cid
                return [s2]
            return [subst] if bound == cid else []
        out: list[Subst] = []
        for node in self._byop.get(cid, {}).get(pat.op, ()):
            s0 = subst
            psym = pat.symbol
            if psym is not None and psym.startswith("?"):
                var = psym[1:]
                bound = s0.get(var)
                if bound is None:
                    s0 = dict(s0)
                    s0[var] = node[1]
                elif bound != node[1]:
                    continue
            elif psym != node[1]:
                continue
            stack = [s0]
            for cpat, ccid in zip(pat.children, node[2]):
                ccid = self.find(ccid)
                stack = [s2 for s in stack for s2 in self._match_class(cpat, ccid, s)]
                if not stack:
                    break
            out.extend(stack)
        return out

    def instantiate(self, pat: PatternT, subst: Subst) -> int:
        if isinstance(pat, PVar):
            return self.find(subst[pat.name])
        symbol = pat.symbol
        if symbol is not None and symbol.startswith("?"):
            symbol = subst[symbol[1:]]
        children = tuple(self.instantiate(c, subst) for c in pat.children)
        return self.add_enode(pat.op, symbol, children)

    # saturation ----------------------------------------------------------

    def saturate(
        self,
        rules: list[Rewrite],
        limits: SaturationLimits | None = None,
    ) -> SaturationReport:
        """Batch equality saturation: per iteration, match every rule against
        the rebuilt graph, filter by conditions (on canonical ids), apply all
        surviving matches, rebuild. Conditions are re-checked every iteration
        since merges can turn a false condition true later."""
        limits = limits or SaturationLimits()
        t0 = time.monotonic()
        deadline = t0 + limits.max_millis / 1000.0
        counts = {r.name: 0 for r in rules}
        report = SaturationReport(rule_counts=counts)
        self.rebuild()
        stop = "iteration-limit"
        iters = 0
        while iters < limits.max_iters:
            iters += 1
            if self.num_enodes() >= limits.max_nodes:
                stop = "node-limit"
                break
            version_before = self.version
            matches: list[tuple[Rewrite, int, Subst]] = []
            timed_out = False
            for rule in rules:
                for cid, subst in self.ematch(rule.lhs):
                    matches.append((rule, cid, subst))
                if time.monotonic() > deadline:
                    timed_out = True
                    break
            applied_since_check = 0
            hit_limit = None
            for rule, cid, subst in matches:
                cid = self.find(cid)
                subst = {k: self.find(v) if isinstance(v, int) else v for k, v in subst.items()}
                if rule.condition is not None and not rule.condition(self, cid, subst):
                    continue
                before = self.version
                if rule.applier is not None:
                    new_ids = rule.applier(self, cid, subst)
                else:
                    new_ids = [self.instantiate(rule.rhs, subst)]
                for nid in new_ids:
                    self.union(cid, nid)
                if self.version == before:
                    continue  # no-op application: nothing new, nothing merged
                counts[rule.name] += 1
                applied_since_check += 1
                if applied_since_check >= 100:
                    applied_since_check = 0
                    if len(self.hashcons) >= limits.max_nodes:
                        hit_limit = "node-limit"
                        break
                    if time.monotonic() > deadline:
                        hit_limit = "time-limit"
                        break
            self.rebuild()
            if hit_limit is not None:
                stop = hit_limit
                break
            if self.version == version_before:
                stop = "saturated"
                break
            if timed_out:
                stop = "time-limit"
                break
        report.iterations = iters
        report.enodes = self.num_enodes()
        report.eclasses = self.num_classes()
        report.stop_reason = stop
        return report

    # debug ---------------------------------------------------------------

    def dump(self) -> str:
        """One s-expression per class: (class <id> (node <tok> <child-ids>...)...).
        Sources print their stream name as the node token, map/filter
        include the function symbol."""
        self.rebuild()
        lines = []
        for cid in sorted(self.classes):
            parts = [f"(class {cid}"]
            for op, sym, ch in sorted(self.classes[cid], key=_node_key):
                toks: list[str]
                if op == "source":
                    toks = [sym]
                elif op in HOLE_OPS:
                    toks = [ATOM_FOR_HOLE[op]]
                elif sym is not None:
                    toks = [op, sym]
                else:
                    toks = [op]
                toks += [str(c) for c in ch]
                parts.append("(node " + " ".join(toks) + ")")
            lines.append(" ".join(parts) + ")")
        return "\n".join(lines) + "\n"


def _node_key(node: ENode):
    return (node[0], node[1] or "", node[2])
