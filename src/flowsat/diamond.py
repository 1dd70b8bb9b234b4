"""Diamond encoding: a shared computation feeding two transformation edges
that re-merge.

An edge is a zipper `(zipper front back)`: two halves of a straight-line
chain of unary operators around a cursor. The front half is in normal
orientation (inputs as children, `in` at the leaf); the back half is
reversed (consumers as children, `out` at the leaf), so the operator
adjacent to the cursor is the root of either half. Shifting the cursor
pops the outermost operator of one half and wraps the other half with it,
which isolates an operator at either end so it can be inlined into the
merge term or hoisted into the shared computation.
"""

from __future__ import annotations

from .egraph import EGraph, Rewrite, Subst, _node_key, parse_pattern
from .extract import CostModel, best_term
from .rules import RuleSet, bidirectional
from .terms import HOLE_OPS, Term, print_term

# operators allowed along a zipper edge
EDGE_OPS = ("persist", "delta", "old", "prev", "map", "filter")


class DiamondError(Exception):
    pass


def _half_ops(half: Term, hole: str, which: str) -> list[tuple[str, str | None]]:
    """Operators of one zipper half, ordered root-to-leaf, validated as a
    straight unary chain ending in the expected hole."""
    ops: list[tuple[str, str | None]] = []
    node = half
    while node.op != hole:
        if node.op in HOLE_OPS:
            raise DiamondError(f"{which} half ends in the wrong hole ({print_term(node)})")
        if node.op not in EDGE_OPS:
            raise DiamondError(f"{which} half contains non-edge operator {node.op!r}")
        ops.append((node.op, node.symbol))
        node = node.children[0]
    return ops


def _subst_holes(t: Term, first: Term, second: Term) -> Term:
    if t.op == "hole-first":
        return first
    if t.op == "hole-second":
        return second
    if t.op in ("hole-in", "hole-out"):
        raise DiamondError("zipper hole inside a merge term")
    if not t.children:
        return t
    return Term(t.op, tuple(_subst_holes(c, first, second) for c in t.children), t.symbol)


def _apply_edge(shared: Term, edge: Term) -> Term:
    if edge.op != "zipper":
        raise DiamondError(f"diamond edge must be a zipper, got {edge.op!r}")
    front, back = edge.children
    # front applies leaf-to-root, back applies root-to-leaf
    ops = list(reversed(_half_ops(front, "hole-in", "front"))) + _half_ops(back, "hole-out", "back")
    out = shared
    for op, sym in ops:
        out = Term(op, (out,), sym)
    return out


def desugar(t: Term) -> Term:
    """Rewrite every diamond into its duplicated plain-term form; defines
    diamond semantics and serves as the rewrite-soundness oracle."""
    return _desugar(t, frozenset())


def _desugar(t: Term, keep: frozenset[str]) -> Term:
    if t.op == "diamond":
        shared = _desugar(t.children[0], keep)
        # nested diamonds in the merge consume their own holes first; what
        # remains are this diamond's (merge holes scope innermost)
        merge = _desugar(t.children[3], keep | {"hole-first", "hole-second"})
        first = _apply_edge(shared, t.children[1])
        second = _apply_edge(shared, t.children[2])
        if not _mentions(merge, "hole-first") or not _mentions(merge, "hole-second"):
            raise DiamondError("merge term must mention both first and second")
        return _subst_holes(merge, first, second)
    if t.op in HOLE_OPS:
        if t.op in keep:
            return t
        raise DiamondError(f"{t.op} outside a diamond")
    if t.op == "zipper":
        raise DiamondError("zipper outside a diamond")
    if not t.children:
        return t
    children = tuple(_desugar(c, keep) for c in t.children)
    if children == t.children:
        return t
    return Term(t.op, children, t.symbol)


def _mentions(t: Term, op: str) -> bool:
    return any(n.op == op for n in _walk(t))


def _walk(t: Term):
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        # do not descend into nested diamonds' merge scope
        stack.extend(n.children if n.op != "diamond" else n.children[:3])


def shift_rules() -> RuleSet:
    """Cursor shifts: pop the outermost operator of one zipper half and wrap
    the other half with it. A zipper edge has finitely many cursor
    positions, so the shifts saturate; the intermediate cursor states exist
    only to feed the inline/hoist rules."""
    rewrites: list[Rewrite] = []
    for op in EDGE_OPS:
        fn = "?f " if op in ("map", "filter") else ""
        rewrites += bidirectional(
            f"shift-{op}",
            f"(zipper ?a ({op} {fn}?b))",
            f"(zipper ({op} {fn}?a) ?b)",
        )
    return RuleSet("shift", tuple(rewrites))


def _wrap_holes(t: Term, hole_op: str, op: str, symbol: str | None) -> Term:
    if t.op == hole_op:
        return Term(op, (t,), symbol)
    if not t.children:
        return t
    kids = t.children if t.op != "diamond" else t.children[:3]
    wrapped = tuple(_wrap_holes(c, hole_op, op, symbol) for c in kids)
    if t.op == "diamond":
        wrapped = wrapped + (t.children[3],)
    return Term(t.op, wrapped, t.symbol)


_DIAMOND_LHS = parse_pattern("(diamond ?s ?e1 ?e2 ?m)")
_HOLE_FOR_EDGE = {0: "hole-first", 1: "hole-second"}
# Unit weights pick what a node count would: every member of a class holds
# the same number of zero-weight scaffolding nodes
_UNIT = CostModel(op_weights={})


def _edge_zippers(g: EGraph, cid: int):
    for node in sorted(g.class_nodes(cid), key=_node_key):
        if node[0] == "zipper":
            yield node


def _class_has(g: EGraph, cid: int, op: str) -> bool:
    return any(n[0] == op for n in g.class_nodes(cid))


def _inline_applier(g: EGraph, cid: int, subst: Subst) -> list[int]:
    out: list[int] = []
    merge = None
    edges = [g.find(subst["e1"]), g.find(subst["e2"])]
    for pos in (0, 1):
        for znode in list(_edge_zippers(g, edges[pos])):
            front, back = znode[2]
            for bnode in sorted(g.class_nodes(back), key=_node_key):
                op, sym, bkids = bnode
                if op not in EDGE_OPS or not _class_has(g, bkids[0], "hole-out"):
                    continue
                if merge is None:
                    # the applier adds e-nodes but never unions, so the merge
                    # class's best member cannot change within this call
                    merge = best_term(g, subst["m"], _UNIT)
                new_merge = _wrap_holes(merge, _HOLE_FOR_EDGE[pos], op, sym)
                new_back = g.add_enode("hole-out", None, ())
                new_edge = g.add_enode("zipper", None, (front, new_back))
                kids = [g.find(subst["s"]), edges[0], edges[1], g.add(new_merge)]
                kids[1 + pos] = new_edge
                out.append(g.add_enode("diamond", None, tuple(kids)))
    return out


def _hoist_applier(g: EGraph, cid: int, subst: Subst) -> list[int]:
    out: list[int] = []
    e1, e2 = g.find(subst["e1"]), g.find(subst["e2"])
    for z1 in list(_edge_zippers(g, e1)):
        for f1 in sorted(g.class_nodes(z1[2][0]), key=_node_key):
            if f1[0] not in EDGE_OPS or not _class_has(g, f1[2][0], "hole-in"):
                continue
            for z2 in list(_edge_zippers(g, e2)):
                for f2 in sorted(g.class_nodes(z2[2][0]), key=_node_key):
                    if f2[0] != f1[0] or f2[1] != f1[1]:
                        continue
                    if not _class_has(g, f2[2][0], "hole-in"):
                        continue
                    new_shared = g.add_enode(f1[0], f1[1], (g.find(subst["s"]),))
                    hole_in = g.add_enode("hole-in", None, ())
                    nz1 = g.add_enode("zipper", None, (hole_in, z1[2][1]))
                    nz2 = g.add_enode("zipper", None, (hole_in, z2[2][1]))
                    out.append(
                        g.add_enode("diamond", None, (new_shared, nz1, nz2, g.find(subst["m"])))
                    )
    return out


def inline_rule() -> Rewrite:
    """When an edge's back half is exactly one operator above `out`, move it
    off the edge and wrap that edge's holes in the merge term with it."""
    return Rewrite("inline-merge", lhs=_DIAMOND_LHS, applier=_inline_applier)


def hoist_rule() -> Rewrite:
    """When both edges' front halves are exactly the same operator above
    `in`, pull it into the shared computation."""
    return Rewrite("hoist-shared", lhs=_DIAMOND_LHS, applier=_hoist_applier)


def diamond_rules() -> RuleSet:
    base = (inline_rule(), hoist_rule()) + shift_rules().rewrites
    return RuleSet("diamond", base)
