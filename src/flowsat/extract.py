"""Cost-model-driven extraction of the best term from a saturated graph.

Cost is a weighted node count. delta and persist nodes both default to a
weight of 100: a delta recomputes and diffs whole histories, and a persist
feeding a downstream operator replays its whole history every tick, so
both stand for duplicated work that dwarfs any tree-size savings. old and
prev stay cheap: the incremental forms the optimizer should reach consume
history exactly once per new value.
Diamond scaffolding (diamond/zipper/holes) costs nothing; a diamond's
shared child is structurally referenced once, which is exactly the
count-shared-work-once accounting the encoding exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diamond import desugar
from .egraph import EGraph, _node_key
from .terms import ARITY, Term, iter_subterms, print_term

STRUCTURAL_OPS = frozenset({"diamond", "zipper", "hole-in", "hole-out", "hole-first", "hole-second"})


class ExtractionError(Exception):
    pass


def _default_weights() -> dict[str, float]:
    return {"delta": 100, "persist": 100}


@dataclass(frozen=True)
class CostModel:
    default_weight: float = 1
    op_weights: dict[str, float] = field(default_factory=_default_weights)
    diamond_shared_once: bool = True

    def __post_init__(self):
        if self.default_weight <= 0:
            raise ValueError("default_weight must be > 0")
        for op, w in self.op_weights.items():
            if op not in ARITY or op in STRUCTURAL_OPS:
                raise ValueError(f"not a weightable operator: {op!r}")
            if w <= 0:
                raise ValueError(f"weight for {op!r} must be > 0")

    def weight(self, op: str) -> float:
        if op in STRUCTURAL_OPS:
            return 0
        return self.op_weights.get(op, self.default_weight)


def term_cost(t: Term, model: CostModel | None = None) -> float:
    """Weighted node count. With diamond_shared_once (the default) a
    diamond's shared subtree counts once; otherwise the term is costed as
    its desugared, duplicated form."""
    model = model or CostModel()
    if not model.diamond_shared_once:
        t = desugar(t)
    return sum(model.weight(n.op) for n in iter_subterms(t))


def _class_costs(g: EGraph, model: CostModel) -> dict[int, float]:
    """Bottom-up fixpoint from infinity; classes reachable only through
    themselves stay unresolved and are never selected."""
    costs: dict[int, float] = {}
    changed = True
    while changed:
        changed = False
        for cid, nodes in g.classes.items():
            best = costs.get(cid)
            for op, _sym, children in nodes:
                total = model.weight(op)
                ok = True
                for ch in children:
                    c = costs.get(g.find(ch))
                    if c is None:
                        ok = False
                        break
                    total += c
                if ok and (best is None or total < best):
                    best = total
                    changed = True
            if best is not None:
                costs[cid] = best
    return costs


def extract_best(g: EGraph, root: int, model: CostModel | None = None) -> Term:
    """Minimum-cost member term of root's class. Ties break toward the
    lexicographically smallest canonical printing, making extraction
    deterministic for a given graph and model."""
    g.rebuild()
    return best_term(g, root, model or CostModel())


def best_term(g: EGraph, root: int, model: CostModel) -> Term:
    """extract_best on the graph as it stands, without rebuilding it first:
    for appliers, which run mid-iteration and must not rebuild."""
    root = g.find(root)
    costs = _class_costs(g, model)
    if root not in costs:
        raise ExtractionError("root class has no finite-cost term")

    memo: dict[int, tuple[str, Term]] = {}

    def select(cid: int, stack: frozenset[int]) -> tuple[str, Term] | None:
        got = memo.get(cid)
        if got is not None:
            return got
        if cid in stack:
            return None
        stack = stack | {cid}
        best: tuple[str, Term] | None = None
        for node in sorted(g.classes[cid], key=_node_key):
            op, sym, children = node
            total = model.weight(op)
            ok = True
            for ch in children:
                c = costs.get(g.find(ch))
                if c is None:
                    ok = False
                    break
                total += c
            if not ok or total != costs[cid]:
                continue
            parts = []
            for ch in children:
                r = select(g.find(ch), stack)
                if r is None:
                    ok = False
                    break
                parts.append(r[1])
            if not ok:
                continue
            term = Term(op, tuple(parts), sym)
            s = print_term(term)
            if best is None or s < best[0]:
                best = (s, term)
        if best is not None:
            memo[cid] = best
        return best

    got = select(root, frozenset())
    if got is None:
        raise ExtractionError("root class has no extractable term")
    return got[1]
