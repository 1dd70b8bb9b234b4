"""Cost-model-driven extraction of the best term from a saturated graph.

Cost is a weighted node count. delta and persist nodes both default to a
weight of 100: a delta recomputes and diffs whole histories, and a persist
feeding a downstream operator replays its whole history every tick, so
both stand for duplicated work that dwarfs any tree-size savings. old and
prev stay cheap: the incremental forms the optimizer should reach consume
history exactly once per new value. Every other operator weighs 1.
Diamond scaffolding (diamond/zipper/holes) costs nothing; a diamond's
shared child is structurally referenced once, which is exactly the
count-shared-work-once accounting the encoding exists for.

Extraction is one bottom-up fixpoint over the classes reachable from all
the roots at once, in the manner of egg's Extractor, so a class shared by
several sinks is settled once and every root in it gets the same Term
object. Each class keeps its best (cost, printing, term) so far, and a
node becomes a candidate once all its child classes have one, so every
candidate is a finite term. A class is visited again only when one of its
child classes has improved. A candidate replaces the kept one when its
(cost, printing) is smaller; a printing is built from the children's
printings, and the smallest ones make the smallest. Only scaffolding
weighs 0 and it never sits below its own class, so a best term never
revisits a class along a path and the loop ends.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from .egraph import EGraph
from .terms import ARITY, Term, iter_subterms, print_node

STRUCTURAL_OPS = frozenset({"diamond", "zipper", "hole-in", "hole-out", "hole-first", "hole-second"})


class ExtractionError(Exception):
    pass


def _default_weights() -> dict[str, float]:
    return {"delta": 100, "persist": 100}


@dataclass(frozen=True)
class CostModel:
    op_weights: dict[str, float] = field(default_factory=_default_weights)

    def __post_init__(self):
        for op, w in self.op_weights.items():
            if op not in ARITY or op in STRUCTURAL_OPS:
                raise ValueError(f"not a weightable operator: {op!r}")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight for {op!r} must be finite and > 0, got {w}")

    def weight(self, op: str) -> float:
        if op in STRUCTURAL_OPS:
            return 0
        return self.op_weights.get(op, 1)


def term_cost(t: Term, model: CostModel | None = None) -> float:
    """Weighted node count; a diamond's shared subtree counts once."""
    model = model or CostModel()
    return sum(model.weight(n.op) for n in iter_subterms(t))


def extract_best(g: EGraph, roots: list[int], model: CostModel | None = None) -> list[Term]:
    """Minimum-cost member term of each root's class, in root order. Ties
    break toward the lexicographically smallest canonical printing, making
    extraction deterministic for a given graph and model."""
    g.rebuild()
    return best_term(g, roots, model or CostModel())


def best_term(g: EGraph, roots: list[int], model: CostModel) -> list[Term]:
    """extract_best on the graph as it stands, without rebuilding it first:
    for appliers, which run mid-iteration and must not rebuild."""
    roots = [g.find(r) for r in roots]
    # (weight, op, symbol, canonical child classes) per reachable class
    nodes: dict[int, list[tuple[float, str, str | None, tuple[int, ...]]]] = {}
    parents: dict[int, set[int]] = defaultdict(set)
    todo = list(roots)
    while todo:
        cid = todo.pop()
        if cid in nodes:
            continue
        nodes[cid] = []
        for op, sym, children in g.classes[cid]:
            kids = tuple(map(g.find, children))
            nodes[cid].append((model.weight(op), op, sym, kids))
            for k in kids:
                parents[k].add(cid)
            todo.extend(kids)

    best: dict[int, tuple[float, str, Term]] = {}
    # classes to visit, in ascending id: all at first, then those with a
    # child class that improved after their last visit
    dirty = set(nodes)
    while dirty:
        for cid in sorted(dirty):
            dirty.discard(cid)
            cur = best.get(cid)
            for weight, op, sym, kids in nodes[cid]:
                cost = weight
                got = []
                for k in kids:
                    kid = best.get(k)
                    if kid is None:
                        break
                    got.append(kid)
                    cost += kid[0]
                else:
                    if cur is not None and cost > cur[0]:
                        continue
                    text = print_node(op, sym, [k[1] for k in got])
                    if cur is None or (cost, text) < cur[:2]:
                        cur = (cost, text, Term(op, tuple(k[2] for k in got), sym))
                        best[cid] = cur
                        dirty |= parents[cid]
    if any(r not in best for r in roots):
        raise ExtractionError("root class has no finite-cost term")
    return [best[r][2] for r in roots]
