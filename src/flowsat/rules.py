"""The rewrite catalog.

Every rule states a primitive algebraic property of the operators rather
than a special-cased optimization; incremental evaluation strategies fall
out of their composition. Bidirectional laws are registered as two
directed rewrites sharing a name prefix (.fwd / .rev). Laws whose one side
is a bare variable (delta-persist) are registered in the reducing direction
only: a bare-variable left side matches every class, so no run could reach
a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .egraph import EGraph, Rewrite, Subst, parse_pattern
from .terms import ARITY


@dataclass(frozen=True)
class RuleSet:
    name: str
    rewrites: tuple[Rewrite, ...]

    def __post_init__(self):
        names = [r.name for r in self.rewrites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in set {self.name!r}")

    def __add__(self, other: "RuleSet") -> "RuleSet":
        return RuleSet(f"{self.name}+{other.name}", self.rewrites + other.rewrites)


def bidirectional(name: str, left: str, right: str) -> list[Rewrite]:
    l, r = parse_pattern(left), parse_pattern(right)
    return [
        Rewrite(f"{name}.fwd", lhs=l, rhs=r),
        Rewrite(f"{name}.rev", lhs=r, rhs=l),
    ]


def _fold_condition(g: EGraph, cid: int, subst: Subst) -> bool:
    return g.find(cid) == g.find(subst["a"])


def chain_prev_fold() -> Rewrite:
    """(chain (prev ?a) ?b) => (persist ?b), but only when the matched chain
    sits in the same class as ?a: the chain then feeds itself shifted by one
    tick, which is exactly what persist accumulates."""
    return Rewrite(
        "chain-prev-fold",
        lhs=parse_pattern("(chain (prev ?a) ?b)"),
        rhs=parse_pattern("(persist ?b)"),
        condition=_fold_condition,
    )


# The linear time-invariant operators (DBSP's LTI operators): each one is
# linear in every input, so it distributes over chain, and commutes with a
# one-tick delay, so prev lifts through it.
LTI_OPS = ("cross", "join", "map", "filter")


def lti_laws(op: str) -> tuple[list[Rewrite], list[Rewrite]]:
    """An LTI operator's laws: its distribution over chain (-dist-left and
    -dist-right for a binary operator, -dist-chain for a unary one) and its
    -prev-lift."""
    if ARITY[op][0] == 1:
        f = f"{op} ?f"
        dist = bidirectional(f"{op}-dist-chain", f"({f} (chain ?a ?b))", f"(chain ({f} ?a) ({f} ?b))")
        lift = bidirectional(f"{op}-prev-lift", f"({f} (prev ?a))", f"(prev ({f} ?a))")
        return dist, lift
    dist = bidirectional(f"{op}-dist-left", f"({op} (chain ?a ?b) ?c)", f"(chain ({op} ?a ?c) ({op} ?b ?c))")
    dist += bidirectional(f"{op}-dist-right", f"({op} ?a (chain ?b ?c))", f"(chain ({op} ?a ?b) ({op} ?a ?c))")
    lift = bidirectional(f"{op}-prev-lift", f"({op} (prev ?a) (prev ?b))", f"(prev ({op} ?a ?b))")
    return dist, lift


def core_rules() -> RuleSet:
    cross_dist, cross_lift = lti_laws("cross")
    rewrites = [Rewrite("delta-persist", lhs=parse_pattern("(delta (persist ?a))"), rhs=parse_pattern("?a"))]
    rewrites += bidirectional("persist-split", "(persist ?a)", "(chain (old ?a) ?a)")
    rewrites += cross_dist
    rewrites += bidirectional("chain-assoc", "(chain (chain ?a ?b) ?c)", "(chain ?a (chain ?b ?c))")
    rewrites += bidirectional("old-prev-persist", "(old ?a)", "(prev (persist ?a))")
    rewrites += cross_lift
    rewrites.append(chain_prev_fold())
    return RuleSet("core", tuple(rewrites))


def join_rules() -> RuleSet:
    dist, lift = lti_laws("join")
    return RuleSet("join", tuple(dist + lift))


def unary_rules() -> RuleSet:
    laws = [lti_laws(op) for op in LTI_OPS if ARITY[op][0] == 1]
    return RuleSet("unary", tuple(r for dist, lift in laws for r in dist + lift))


def rule_set(name: str) -> RuleSet:
    """Look up a rule set by CLI name: core, join, unary, diamond, or all.

    `all` is the plain laws, core+join+unary. The diamond rewrites stay out
    of it: a zipper's back half is stored reversed, so a plain law matched
    there states something false (delta-persist would read persist∘delta
    = id)."""
    from . import diamond as _diamond

    sets = {
        "core": core_rules,
        "join": join_rules,
        "unary": unary_rules,
        "diamond": _diamond.diamond_rules,
    }
    if name == "all":
        return RuleSet("all", (core_rules() + join_rules() + unary_rules()).rewrites)
    try:
        return sets[name]()
    except KeyError:
        raise ValueError(f"unknown rule set {name!r}") from None
