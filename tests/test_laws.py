"""Every plain law, proved by bounded enumeration.

Each pattern variable of a law gets its own fresh source, named after the
variable, and the symbol variable ?f gets the one function symbol `f`.
Every trace of the law's stated number of ticks (TICKS) goes through the
reference interpreter, each batch drawn from BATCHES; when a law has a
join, its sources carry keyed tuples instead. A law is checked once, on
its first rewrite: a .fwd/.rev pair states one equation, and
test_catalog_is_the_lti_laws_plus_five_others asserts each .rev is its
.fwd reversed.

The interpreter is causal (tick t's output reads only ticks 1..t), so
checking every trace of T ticks also checks every shorter one. Laws built
only from stateless operators hold tick by tick, so one tick proves them;
test_stateless_ops_ignore_earlier_ticks checks that premise. The fold is
conditional and is proved as the recurrence it stands for. The laws and
the fold take 4,675 traces in all, and the whole file runs in about one
second on a 2-CPU x86 machine.
"""

import itertools
from collections import Counter
from pathlib import Path

import pytest

from flowsat.egraph import EGraph, SaturationLimits, parse_pattern, pattern_vars
from flowsat.interp import TickTrace, UdfRegistry, equivalent, run
from flowsat.program import single_sink_program
from flowsat.rules import LTI_OPS, rule_set
from flowsat.terms import ARITY, Term, iter_subterms, print_term, source

from oracles import instantiate_pattern

BATCHES = ((), (1,), (2,), (1, 1), (1, 2))
STATELESS_OPS = ("chain",) + LTI_OPS
OTHER_LAWS = ("delta-persist", "persist-split", "chain-assoc", "old-prev-persist", "chain-prev-fold")

# Ticks enumerated per law: one for the stateless laws, two for the binary
# prev-lifts, three for the unary ones, and four for the one-variable
# stateful laws and the fold.
TICKS = {
    "cross-dist-left": 1,
    "cross-dist-right": 1,
    "join-dist-left": 1,
    "join-dist-right": 1,
    "map-dist-chain": 1,
    "filter-dist-chain": 1,
    "chain-assoc": 1,
    "cross-prev-lift": 2,
    "join-prev-lift": 2,
    "map-prev-lift": 3,
    "filter-prev-lift": 3,
    "delta-persist": 4,
    "persist-split": 4,
    "old-prev-persist": 4,
    "chain-prev-fold": 4,
}


# map f tags a value; filter f keeps a value iff its key (the value, or a
# keyed tuple's first component) is 1, so it keeps some of the domain and
# drops the rest
UDFS = (
    UdfRegistry()
    .register_map("f", lambda v: ("f", v))
    .register_filter("f", lambda v: (v[0] if isinstance(v, tuple) else v) == 1)
)

LIMITS = SaturationLimits(max_iters=16, max_nodes=5_000, max_millis=10_000)


def law_of(rewrite_name: str) -> str:
    return rewrite_name.removesuffix(".fwd").removesuffix(".rev")


def catalog_laws() -> dict:
    """Each law of `all`, in catalog order, with its first rewrite."""
    laws = {}
    for rw in rule_set("all").rewrites:
        laws.setdefault(law_of(rw.name), rw)
    return laws


LAWS = catalog_laws()


def instantiate(p) -> Term:
    """The pattern with each variable ?x as source x and ?f as symbol f."""
    return instantiate_pattern(p, {v: source(v) for v in pattern_vars(p)}, {"f": "f"})


def ops(*terms: Term) -> set[str]:
    return {n.op for t in terms for n in iter_subterms(t)}


def source_names(*terms: Term) -> list[str]:
    return sorted({n.symbol for t in terms for n in iter_subterms(t) if n.op == "source"})


def traces(names: list[str], ticks: int, keyed: bool):
    """Every trace of `ticks` ticks over the sources `names`. A keyed batch
    tags each value with its source, v -> (v, name): v is the join key, and
    the payload tells the two inputs apart."""
    per_source = itertools.product(BATCHES, repeat=ticks)
    for seqs in itertools.product(list(per_source), repeat=len(names)):
        yield TickTrace(
            tuple(
                {n: tuple((v, n) for v in seq[t]) if keyed else seq[t] for n, seq in zip(names, seqs)}
                for t in range(ticks)
            )
        )


def prove(lhs: Term, rhs: Term, ticks: int) -> int:
    """Check lhs = rhs on every trace of `ticks` ticks and return how many
    traces that was. On failure, report a shortest counterexample: the one
    that diverges earliest, cut at its divergence tick."""
    names = source_names(lhs, rhs)
    p1, p2 = single_sink_program(lhs), single_sink_program(rhs)
    count, first = 0, None
    for trace in traces(names, ticks, keyed="join" in ops(lhs, rhs)):
        count += 1
        rep = equivalent(p1, p2, trace, UDFS)
        if not rep and (first is None or rep.divergence.tick < first[1].divergence.tick):
            first = (trace, rep)
    if first is not None:
        trace, rep = first
        cut = trace.ticks[: rep.divergence.tick]
        shown = "; ".join(f"{n} = " + ", ".join(repr(tick[n]) for tick in cut) for n in names)
        raise AssertionError(
            f"{print_term(lhs)} != {print_term(rhs)}; counterexample {shown}; {rep.divergence}"
        )
    return count


def lti_law_names(op: str) -> list[str]:
    dist = ("dist-chain",) if ARITY[op][0] == 1 else ("dist-left", "dist-right")
    return [f"{op}-{d}" for d in dist + ("prev-lift",)]


def test_catalog_is_the_lti_laws_plus_five_others():
    expected = {law for op in LTI_OPS for law in lti_law_names(op)} | set(OTHER_LAWS)
    assert len(expected) == 15
    assert set(LAWS) == expected
    assert set(TICKS) == expected
    rewrites = {rw.name: rw for rw in rule_set("all").rewrites}
    for name, rev in rewrites.items():
        if name.endswith(".rev"):
            fwd = rewrites[law_of(name) + ".fwd"]
            assert (rev.lhs, rev.rhs) == (fwd.rhs, fwd.lhs), name


def test_one_tick_laws_are_stateless():
    for law, ticks in TICKS.items():
        if ticks == 1:
            rw = LAWS[law]
            assert ops(instantiate(rw.lhs), instantiate(rw.rhs)) <= {"source", *STATELESS_OPS}, law


@pytest.mark.parametrize("op", STATELESS_OPS)
def test_stateless_ops_ignore_earlier_ticks(op):
    # over two ticks, the output at tick 2 is the output of tick 2 run alone
    term = Term(op, (source("a"),), "f") if ARITY[op][1] else Term(op, (source("a"), source("b")))
    prog = single_sink_program(term)
    for trace in traces(source_names(term), 2, keyed=op == "join"):
        alone = TickTrace(trace.ticks[1:])
        assert run(prog, trace, UDFS).ticks[1] == run(prog, alone, UDFS).ticks[0], trace


@pytest.mark.parametrize("law", [law for law in LAWS if law != "chain-prev-fold"])
def test_law_holds_on_every_bounded_trace(law):
    rw = LAWS[law]
    lhs, rhs = instantiate(rw.lhs), instantiate(rw.rhs)
    ticks = TICKS[law]
    assert prove(lhs, rhs, ticks) == len(BATCHES) ** (ticks * len(source_names(lhs, rhs)))


def test_fold_is_a_recurrence_solved_by_persist():
    # The fold fires only when the chain sits in ?a's own class, that is on
    # a stream X = (chain (prev X) b). prev reads only the tick before, so
    # the recurrence fixes X tick by tick: its tick t is the chain's output
    # with source a fed X's earlier ticks. That unique solution must be
    # (persist b).
    rw = LAWS["chain-prev-fold"]
    step, solution = single_sink_program(instantiate(rw.lhs)), single_sink_program(instantiate(rw.rhs))
    assert print_term(instantiate(rw.lhs)) == "(chain (prev a) b)"
    ticks = TICKS["chain-prev-fold"]
    count = 0
    for trace in traces(["b"], ticks, keyed=False):
        xs: list[tuple] = []
        for t in range(ticks):
            fed = TickTrace(tuple({**trace.ticks[i], "a": x} for i, x in enumerate(xs + [()])))
            xs.append(run(step, fed, UDFS).ticks[t]["out"])
        want = run(solution, trace, UDFS).ticks
        assert [Counter(x) for x in xs] == [Counter(w["out"]) for w in want], trace
        count += 1
    assert count == len(BATCHES) ** ticks


@pytest.mark.parametrize("law", list(LAWS))
def test_no_law_follows_from_the_others(law):
    # Ruler's derivability check: saturate both sides under `all` without
    # the law's own rewrites; they must stay apart at the fixpoint
    others = [rw for rw in rule_set("all").rewrites if law_of(rw.name) != law]
    rw = LAWS[law]
    g = EGraph()
    lhs, rhs = g.add(instantiate(rw.lhs)), g.add(instantiate(rw.rhs))
    if law == "chain-prev-fold":
        # its condition: the chain is the class of ?a
        g.union(lhs, g.add(source("a")))
        g.rebuild()
    report = g.saturate(others, LIMITS)
    assert report.stop_reason == "saturated"
    assert g.find(lhs) != g.find(rhs)


def test_planted_false_law_is_caught_with_a_counterexample():
    lhs, rhs = instantiate(parse_pattern("(persist (delta ?a))")), instantiate(parse_pattern("?a"))
    with pytest.raises(AssertionError) as exc:
        prove(lhs, rhs, TICKS["delta-persist"])
    # a value that arrives and then stops: persist keeps it, a does not
    assert "counterexample a = (1,), ();" in str(exc.value)


def test_readme_catalog_names_every_law():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Rewrite catalog", 1)[1].split("\n## ", 1)[0]
    assert "LTI_OPS" in section
    missing = [law for law in LAWS if law not in section]
    assert missing == []
