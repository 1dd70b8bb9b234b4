"""The dataflow term language.

A Term is an immutable tree of streaming operators over named source
streams and opaque function symbols:

    source          leaf; a named input stream (printed as a bare name)
    persist e       full history of e up to and including the current tick
    delta e         values of e that are new in this tick
    old e           history of e strictly before the current tick
    prev e          exactly the previous tick's output of e
    chain a b       a's values then b's values, within one tick
    cross a b       all pairs (x, y) for x in a, y in b
    join a b        keyed equi-join on the first tuple component
    map f e         elementwise function application (f is a symbol)
    filter p e      elementwise predicate (p is a symbol)
    diamond s z z m shared computation s, two zipper edges, a merge term
    zipper f b      two halves of a linear operator chain around a cursor

Hole leaves `in`/`out` mark the zipper cursor ends and `first`/`second`
reference the two edge results inside a diamond's merge term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .sexpr import Atom, ParseError, SExpr, SList, read_form

# op -> (number of children, carries a symbol)
ARITY: dict[str, tuple[int, bool]] = {
    "source": (0, True),
    "persist": (1, False),
    "delta": (1, False),
    "old": (1, False),
    "prev": (1, False),
    "chain": (2, False),
    "cross": (2, False),
    "join": (2, False),
    "map": (1, True),
    "filter": (1, True),
    "zipper": (2, False),
    "diamond": (4, False),
    "hole-in": (0, False),
    "hole-out": (0, False),
    "hole-first": (0, False),
    "hole-second": (0, False),
}

HOLE_ATOMS = {
    "in": "hole-in",
    "out": "hole-out",
    "first": "hole-first",
    "second": "hole-second",
}
HOLE_OPS = frozenset(HOLE_ATOMS.values())
ATOM_FOR_HOLE = {op: atom for atom, op in HOLE_ATOMS.items()}
ZIPPER_HOLES = frozenset({"hole-in", "hole-out"})
MERGE_HOLES = frozenset({"hole-first", "hole-second"})

NAME_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")
# Operator names, hole atoms, and the handful of file-format keywords cannot
# name sources, defs, or functions.
RESERVED_NAMES = frozenset(ARITY) | frozenset(HOLE_ATOMS) | {"def", "sink", "tick", "tuple"}


@dataclass(frozen=True)
class Term:
    op: str
    children: tuple["Term", ...] = ()
    symbol: Optional[str] = None

    def __post_init__(self):
        arity = ARITY.get(self.op)
        if arity is None:
            raise ValueError(f"unknown operator {self.op!r}")
        nchildren, has_symbol = arity
        if len(self.children) != nchildren:
            raise ValueError(f"{self.op} takes {nchildren} children, got {len(self.children)}")
        if has_symbol != (self.symbol is not None):
            raise ValueError(f"{self.op}: bad symbol field")


def source(name: str) -> Term:
    return Term("source", symbol=name)


def persist(e: Term) -> Term:
    return Term("persist", (e,))


def delta(e: Term) -> Term:
    return Term("delta", (e,))


def old(e: Term) -> Term:
    return Term("old", (e,))


def prev(e: Term) -> Term:
    return Term("prev", (e,))


def chain(a: Term, b: Term) -> Term:
    return Term("chain", (a, b))


def cross(a: Term, b: Term) -> Term:
    return Term("cross", (a, b))


def join(a: Term, b: Term) -> Term:
    return Term("join", (a, b))


def map_(fn: str, e: Term) -> Term:
    return Term("map", (e,), symbol=fn)


def filter_(fn: str, e: Term) -> Term:
    return Term("filter", (e,), symbol=fn)


def zipper(front: Term, back: Term) -> Term:
    return Term("zipper", (front, back))


def diamond(shared: Term, edge1: Term, edge2: Term, merge: Term) -> Term:
    return Term("diamond", (shared, edge1, edge2, merge))


def check_name(text: str, line: int, col: int, what: str = "name") -> str:
    if not NAME_RE.match(text):
        raise ParseError(f"invalid {what} {text!r}", line, col)
    if text in RESERVED_NAMES:
        raise ParseError(f"{text!r} is reserved and cannot be used as a {what}", line, col)
    return text


def split_form(sx: SList) -> tuple[str, Optional[Atom], tuple[SExpr, ...]]:
    """Check an operator form's head and arity; the grammar shared by terms
    and patterns. Returns (op, function-symbol atom or None, inputs)."""
    if not sx.items:
        raise ParseError("empty form", sx.line, sx.col)
    head = sx.items[0]
    if not isinstance(head, Atom):
        raise ParseError("operator expected", head.line, head.col)
    op = head.text
    arity = ARITY.get(op)
    if arity is None or op == "source" or op in HOLE_OPS:
        raise ParseError(f"unknown operator {op!r}", head.line, head.col)
    nchildren, has_symbol = arity
    args = sx.items[1:]
    if not has_symbol:
        if len(args) != nchildren:
            raise ParseError(f"{op} takes {nchildren} input(s), got {len(args)}", head.line, head.col)
        return op, None, args
    if len(args) != nchildren + 1:
        raise ParseError(
            f"{op} takes a function symbol and {nchildren} input(s), got {len(args)} arguments",
            head.line, head.col,
        )
    fn = args[0]
    if not isinstance(fn, Atom):
        raise ParseError(f"{op}: function symbol expected", fn.line, fn.col)
    return op, fn, args[1:]


def bound_holes(op: str, i: int) -> frozenset[str]:
    """The holes an op binds in its i-th input: a zipper's cursor ends in
    both halves, a diamond's edge results in its merge term."""
    if op == "zipper":
        return ZIPPER_HOLES
    if op == "diamond" and i == 3:
        return MERGE_HOLES
    return frozenset()


def term_from_sexpr(sx: SExpr, allowed_holes: frozenset[str] = frozenset()) -> Term:
    if isinstance(sx, Atom):
        hole = HOLE_ATOMS.get(sx.text)
        if hole is not None:
            if hole not in allowed_holes:
                raise ParseError(f"hole {sx.text!r} not allowed here", sx.line, sx.col)
            return Term(hole)
        return source(check_name(sx.text, sx.line, sx.col, "source name"))
    op, fn, args = split_form(sx)
    symbol = None if fn is None else check_name(fn.text, fn.line, fn.col, "function name")
    children = tuple(term_from_sexpr(a, allowed_holes | bound_holes(op, i)) for i, a in enumerate(args))
    return Term(op, children, symbol)


def parse_term(text: str) -> Term:
    """Parse a single term; inverse of print_term."""
    return term_from_sexpr(read_form(text))


def print_node(op: str, symbol: Optional[str], child_texts: list[str]) -> str:
    """Render one node over its children's renderings; print_term's step."""
    if op == "source":
        return symbol
    if op in HOLE_OPS:
        return ATOM_FOR_HOLE[op]
    head = op if symbol is None else f"{op} {symbol}"
    return "(" + " ".join([head, *child_texts]) + ")"


def print_term(t: Term) -> str:
    """Canonical single-space-separated rendering; parse_term round-trips it."""
    return print_node(t.op, t.symbol, [print_term(c) for c in t.children])


def iter_subterms(t: Term) -> Iterator[Term]:
    """Yield every node of t, preorder."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def term_size(t: Term) -> int:
    return sum(1 for _ in iter_subterms(t))


def count_op(t: Term, op: str) -> int:
    return sum(1 for n in iter_subterms(t) if n.op == op)


def source_names(t: Term) -> list[str]:
    """Distinct source names in first-appearance order."""
    seen: dict[str, None] = {}
    for n in iter_subterms(t):
        if n.op == "source":
            seen.setdefault(n.symbol)
    return list(seen)

