"""Program files: named pipeline definitions plus sinks.

A program is a sequence of `(source name)`, `(def name term)` and
`(sink name term)` forms. A name occurring as a leaf refers to the def of
that name if one exists, otherwise to an external source stream.
Referring to a def from more than one place is how a stream is tee'd:
flatten() duplicates the shared subtree, reform_cse() re-discovers the
duplicates and hoists them back into defs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .sexpr import Atom, ParseError, SList, read_forms
from .terms import (
    NAME_RE,
    Term,
    check_name,
    iter_subterms,
    print_term,
    source,
    term_from_sexpr,
    term_size,
)


class ProgramError(Exception):
    pass


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


def _replace(t: Term, target: Term, replacement: Term) -> Term:
    if t == target:
        return replacement
    if not t.children:
        return t
    children = tuple(_replace(c, target, replacement) for c in t.children)
    if children == t.children:
        return t
    return Term(t.op, children, t.symbol)


def reform_cse(trees: dict[str, Term], min_size: int = 2) -> ProgramFile:
    """Hoist repeated subtrees into defs; flatten() is its exact inverse.

    Counting is bottom-up: the smallest repeated subtree of node-count >=
    min_size is hoisted first, its occurrences become def references, and
    counting repeats on the replaced trees until nothing of size >=
    min_size occurs twice.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    base_used = set(trees)
    for t in trees.values():
        for n in iter_subterms(t):
            if n.op == "source":
                base_used.add(n.symbol)
    used_names = set(base_used)

    work: dict[str, Term] = dict(trees)
    defs: dict[str, Term] = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            name = f"d{counter}"
            counter += 1
            if name not in used_names:
                used_names.add(name)
                return name

    while True:
        counts: Counter[Term] = Counter()
        for t in list(work.values()) + list(defs.values()):
            for st in iter_subterms(t):
                if st.op == "source" and st.symbol in defs:
                    continue  # bare def references never re-hoist
                if term_size(st) >= min_size:
                    counts[st] += 1
        repeated = [t for t, c in counts.items() if c >= 2]
        if not repeated:
            break
        pick = min(repeated, key=lambda t: (term_size(t), print_term(t)))
        name = fresh()
        ref = source(name)
        work = {k: _replace(t, pick, ref) for k, t in work.items()}
        defs = {k: _replace(t, pick, ref) for k, t in defs.items()}
        defs[name] = pick

    # Order defs so every reference points to an earlier def, then renumber
    # in that order so the printed file reads top-down.
    order: list[str] = []
    placed: set[str] = set()

    def place(name: str):
        if name in placed:
            return
        placed.add(name)
        for n in iter_subterms(defs[name]):
            if n.op == "source" and n.symbol in defs:
                place(n.symbol)
        order.append(name)

    for name in defs:
        place(name)
    new_names = []
    i = 0
    for _ in order:
        while f"d{i}" in base_used:
            i += 1
        new_names.append(f"d{i}")
        i += 1
    rename = dict(zip(order, new_names))
    env = {old_name: source(new) for old_name, new in rename.items()}
    out_defs = {rename[n]: _substitute(defs[n], env) for n in order}
    out_sinks = {k: _substitute(t, env) for k, t in work.items()}
    return ProgramFile(defs=out_defs, sinks=out_sinks)
