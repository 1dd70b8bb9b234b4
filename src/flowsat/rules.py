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


def core_rules() -> RuleSet:
    rewrites = [Rewrite("delta-persist", lhs=parse_pattern("(delta (persist ?a))"), rhs=parse_pattern("?a"))]
    rewrites += bidirectional("persist-split", "(persist ?a)", "(chain (old ?a) ?a)")
    rewrites += bidirectional(
        "cross-dist-left",
        "(cross (chain ?a ?b) ?c)",
        "(chain (cross ?a ?c) (cross ?b ?c))",
    )
    rewrites += bidirectional(
        "cross-dist-right",
        "(cross ?a (chain ?b ?c))",
        "(chain (cross ?a ?b) (cross ?a ?c))",
    )
    rewrites += bidirectional("chain-assoc", "(chain (chain ?a ?b) ?c)", "(chain ?a (chain ?b ?c))")
    rewrites += bidirectional("old-prev-persist", "(old ?a)", "(prev (persist ?a))")
    rewrites += bidirectional("cross-prev-lift", "(cross (prev ?a) (prev ?b))", "(prev (cross ?a ?b))")
    rewrites.append(chain_prev_fold())
    return RuleSet("core", tuple(rewrites))


def join_rules() -> RuleSet:
    rewrites: list[Rewrite] = []
    rewrites += bidirectional(
        "join-dist-left",
        "(join (chain ?a ?b) ?c)",
        "(chain (join ?a ?c) (join ?b ?c))",
    )
    rewrites += bidirectional(
        "join-dist-right",
        "(join ?a (chain ?b ?c))",
        "(chain (join ?a ?b) (join ?a ?c))",
    )
    rewrites += bidirectional("join-prev-lift", "(join (prev ?a) (prev ?b))", "(prev (join ?a ?b))")
    return RuleSet("join", tuple(rewrites))


def unary_rules() -> RuleSet:
    rewrites: list[Rewrite] = []
    for op in ("map", "filter"):
        rewrites += bidirectional(
            f"{op}-dist-chain",
            f"({op} ?f (chain ?a ?b))",
            f"(chain ({op} ?f ?a) ({op} ?f ?b))",
        )
        rewrites += bidirectional(
            f"{op}-prev-lift",
            f"({op} ?f (prev ?a))",
            f"(prev ({op} ?f ?a))",
        )
    return RuleSet("unary", tuple(rewrites))


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
