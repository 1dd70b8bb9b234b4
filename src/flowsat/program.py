"""Program files: named pipeline definitions plus sinks.

A program is a sequence of `(source name)`, `(def name term)` and
`(sink name term)` forms. A name occurring as a leaf refers to the def of
that name if one exists, otherwise to an external source stream.
Referring to a def from more than one place is how a stream is tee'd:
flatten() inlines the shared subtree at each reference, and reform_cse()
reads the sharing back off a hashconsed graph, making a def of each
operator subtree that occurs more than once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .egraph import EGraph
from .sexpr import Atom, ParseError, SList, read_forms
from .terms import (
    HOLE_OPS,
    NAME_RE,
    Term,
    bound_holes,
    check_name,
    iter_subterms,
    print_term,
    source,
    term_from_sexpr,
)


@dataclass(frozen=True)
class ProgramFile:
    defs: dict[str, Term] = field(default_factory=dict)
    sinks: dict[str, Term] = field(default_factory=dict)
    sources: tuple[str, ...] = ()


def single_sink_program(t: Term, name: str = "out") -> ProgramFile:
    return ProgramFile(sinks={name: t})


def parse_program(text: str) -> ProgramFile:
    forms = read_forms(text)
    defs: dict[str, Term] = {}
    sinks: dict[str, Term] = {}
    declared: list[str] = []
    pending: list[tuple[str, str, Term, int, int]] = []  # (kind, name, term, line, col)
    for form in forms:
        if not isinstance(form, SList) or not form.items or not isinstance(form.items[0], Atom):
            raise ParseError("expected (source ...), (def ...) or (sink ...)", form.line, form.col)
        head = form.items[0].text
        if head == "source":
            if len(form.items) != 2 or not isinstance(form.items[1], Atom):
                raise ParseError("source declaration takes one name", form.line, form.col)
            a = form.items[1]
            declared.append(check_name(a.text, a.line, a.col, "source name"))
            continue
        if head not in ("def", "sink"):
            raise ParseError(f"unknown top-level form {head!r}", form.line, form.col)
        if len(form.items) != 3 or not isinstance(form.items[1], Atom):
            raise ParseError(f"{head} takes a name and a term", form.line, form.col)
        a = form.items[1]
        if head == "sink":
            # sinks are never referenced from terms, so their names need only
            # be well-formed, not unreserved
            if not NAME_RE.match(a.text):
                raise ParseError(f"invalid sink name {a.text!r}", a.line, a.col)
            name = a.text
        else:
            name = check_name(a.text, a.line, a.col, "def name")
        body = term_from_sexpr(form.items[2])
        pending.append((head, name, body, a.line, a.col))

    def_names = [n for kind, n, *_ in pending if kind == "def"]
    all_defs = set(def_names)
    seen_defs: set[str] = set()
    for kind, name, body, line, col in pending:
        refs = {n.symbol for n in iter_subterms(body) if n.op == "source"}
        if kind == "def":
            if name in defs:
                raise ParseError(f"duplicate def {name!r}", line, col)
            later = refs & (all_defs - seen_defs)
            if later:
                bad = sorted(later)[0]
                which = "itself" if bad == name else f"def {bad!r} defined later"
                raise ParseError(f"def {name!r} refers to {which} (cyclic reference)", line, col)
            defs[name] = body
            seen_defs.add(name)
        else:
            if name in sinks:
                raise ParseError(f"duplicate sink {name!r}", line, col)
            sinks[name] = body
        if declared:
            undeclared = refs - all_defs - set(declared)
            if undeclared:
                bad = sorted(undeclared)[0]
                raise ParseError(
                    f"{kind} {name!r} refers to undeclared source {bad!r}", line, col
                )
    return ProgramFile(defs=defs, sinks=sinks, sources=tuple(declared))


def print_program(p: ProgramFile) -> str:
    lines = [f"(source {s})" for s in p.sources]
    lines += [f"(def {n} {print_term(t)})" for n, t in p.defs.items()]
    lines += [f"(sink {n} {print_term(t)})" for n, t in p.sinks.items()]
    return "\n".join(lines) + "\n"


def _substitute(t: Term, env: dict[str, Term]) -> Term:
    if t.op == "source":
        return env.get(t.symbol, t)
    if not t.children:
        return t
    children = tuple(_substitute(c, env) for c in t.children)
    if children == t.children:
        return t
    return Term(t.op, children, t.symbol)


def flatten(p: ProgramFile) -> dict[str, Term]:
    """Inline every def reference; each sink becomes a standalone tree.

    Shared defs are inlined as the same Term object, so identity-aware
    consumers (the interpreter) still evaluate them once.
    """
    resolved: dict[str, Term] = {}
    for name, body in p.defs.items():
        resolved[name] = _substitute(body, resolved)
    return {name: _substitute(body, resolved) for name, body in p.sinks.items()}


def reform_cse(trees: dict[str, Term], sources: tuple[str, ...] = ()) -> ProgramFile:
    """Hoist every shared operator subtree into a def; flatten() is its
    exact inverse.

    Hashconsing is CSE: the trees go into a rule-less EGraph, where each
    distinct subtree is one class holding one e-node. A class is read once
    per sink it roots and once per child edge of that e-node, and each
    non-leaf class read twice or more becomes a def, unless a hole occurs
    free in it: a hole must stay under the zipper or diamond that binds it
    (terms.bound_holes). Defs are named d0, d1, ... in post-order from the
    sinks, skipping names in use, so every def refers only to earlier ones
    and none is read fewer than twice.
    `sources` are the declared source names: the result declares them too,
    and no def takes one of their names.
    """
    g = EGraph()
    roots = {name: g.add(t) for name, t in trees.items()}
    node_of = {cid: node for cid, (node,) in g.classes.items()}
    reads = Counter(roots.values())
    for _, _, kids in node_of.values():
        reads.update(kids)
    used = set(trees) | set(sources) | {sym for op, sym, _ in node_of.values() if op == "source"}
    names = (f"d{i}" for i in itertools.count() if f"d{i}" not in used)

    defs: dict[str, Term] = {}
    built: dict[int, Term] = {}  # per class: its def reference or inlined tree
    free: dict[int, frozenset[str]] = {}  # per class: the holes free in it
    for root in roots.values():
        stack = [root]
        while stack:
            cid = stack[-1]
            if cid in built:
                stack.pop()
                continue
            op, sym, kids = node_of[cid]
            pending = [k for k in kids if k not in built]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            free[cid] = (HOLE_OPS & {op}).union(*(free[k] - bound_holes(op, i) for i, k in enumerate(kids)))
            body = Term(op, tuple(built[k] for k in kids), sym)
            if kids and reads[cid] >= 2 and not free[cid]:
                name = next(names)
                defs[name] = body
                body = source(name)
            built[cid] = body
    sinks = {name: built[root] for name, root in roots.items()}
    return ProgramFile(defs=defs, sinks=sinks, sources=tuple(sources))
