import random

import pytest

from flowsat.diamond import desugar
from flowsat.egraph import EGraph, Rewrite, SaturationLimits, parse_pattern
from flowsat.extract import CostModel, ExtractionError, extract_best, term_cost
from flowsat.rules import core_rules
from flowsat.terms import parse_term, print_term, source

from oracles import build_egraph, min_cost_by_depth, random_graph_spec

UNIT = CostModel(op_weights={})
DELTA_ONLY = CostModel(op_weights={"delta": 100})


def test_single_source_costs_one():
    assert term_cost(source("a"), UNIT) == 1
    assert term_cost(source("a")) == 1


def test_delta_persist_cost_under_delta_only_model():
    # 100 (delta) + 1 (persist) + 1 (source)
    assert term_cost(parse_term("(delta (persist a))"), DELTA_ONLY) == 102


def test_default_model_also_weights_persist():
    # stateful replay operators both weigh 100 by default
    assert term_cost(parse_term("(delta (persist a))")) == 201
    assert CostModel().weight("persist") == 100
    assert CostModel().weight("delta") == 100
    assert CostModel().weight("old") == 1


def test_reference_two_way_listing_counts_thirteen_nodes():
    listing = parse_term(
        "(chain (cross (old add_member) messages)"
        " (chain (cross add_member (old messages)) (cross add_member messages)))"
    )
    assert term_cost(listing, UNIT) == 13
    assert term_cost(listing) == 13  # no delta/persist inside


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        CostModel(op_weights={"cross": -1})
    with pytest.raises(ValueError):
        CostModel(op_weights={"zipper": 5})  # structural nodes not weightable


def test_diamond_shared_counted_once():
    d = parse_term(
        "(diamond (map f (persist a)) (zipper in out) (zipper in (filter g out))"
        " (cross (filter h first) second))"
    )
    assert term_cost(d, UNIT) == 6
    # the desugared form duplicates the shared subtree
    assert term_cost(desugar(d), UNIT) == 9


def test_extract_from_collapsed_graph():
    g = EGraph()
    root = g.add(parse_term("(delta (persist a))"))
    rule = Rewrite("collapse", parse_pattern("(delta (persist ?a))"), parse_pattern("?a"))
    g.saturate([rule], SaturationLimits(max_iters=4))
    best = extract_best(g, root, UNIT)
    assert best == source("a")
    assert term_cost(best, UNIT) == 1


def test_extracted_term_is_member_of_root_class():
    g = EGraph()
    root = g.add(parse_term("(delta (cross (persist a) (persist b)))"))
    g.saturate(list(core_rules().rewrites), SaturationLimits(max_iters=8, max_nodes=20_000))
    best = extract_best(g, root)
    assert g.find(g.add(best)) == g.find(root)


def test_extraction_deterministic():
    def build():
        g = EGraph()
        root = g.add(parse_term("(delta (cross (persist a) (persist b)))"))
        g.saturate(list(core_rules().rewrites), SaturationLimits(max_iters=8, max_nodes=20_000))
        return print_term(extract_best(g, root))

    assert build() == build()


def test_extract_cost_matches_term_cost():
    g = EGraph()
    root = g.add(parse_term("(delta (cross (persist a) (persist b)))"))
    g.saturate(list(core_rules().rewrites), SaturationLimits(max_iters=8, max_nodes=20_000))
    model = CostModel()
    best = extract_best(g, root, model)
    costs_root = min_cost_by_depth(g, model.weight, 40)[g.find(root)]
    assert term_cost(best, model) == costs_root


def test_tie_break_prefers_smallest_printing():
    g = EGraph()
    x = g.add(source("x"))
    b = g.add(source("b"))
    g.union(x, b)
    g.rebuild()
    best = extract_best(g, x, UNIT)
    assert print_term(best) == "b"  # "b" < "x"


def test_extraction_optimality_against_depth_bounded_enumeration():
    # random rebuilt graphs; enumeration of all trees up to depth 8 (cost-
    # collapsed DP) never beats the extractor
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        nodes, unions = random_graph_spec(rng, max_nodes=14)
        g, ids = build_egraph(nodes, unions)
        if g.num_classes() > 12:
            continue
        model = CostModel(op_weights={"delta": 100})
        oracle = min_cost_by_depth(g, model.weight, 8)
        for cid in list(g.classes):
            bound = oracle[cid]
            if bound == float("inf"):
                continue
            best = extract_best(g, cid, model)
            assert term_cost(best, model) <= bound
            checked += 1
    assert checked > 100


def test_extraction_optimality_on_saturated_small_graphs():
    # chain associativity saturates: extractor must agree with enumeration
    g = EGraph()
    root = g.add(parse_term("(chain (chain a b) (chain c d))"))
    assoc = [r for r in core_rules().rewrites if r.name.startswith("chain-assoc")]
    rep = g.saturate(assoc, SaturationLimits())
    assert rep.stop_reason == "saturated"
    assert g.num_classes() <= 12
    oracle = min_cost_by_depth(g, UNIT.weight, 8)
    best = extract_best(g, root, UNIT)
    assert term_cost(best, UNIT) == oracle[g.find(root)] == 7


def test_unresolvable_root_raises():
    g = EGraph()
    # a class whose only node refers to itself can never produce a tree
    cid = g.add_enode("source", "a", ())
    loop = g.add_enode("persist", None, (cid,))
    g.union(cid, loop)
    g.rebuild()
    only_loop = EGraph()
    c0 = only_loop._new_class()
    node = ("persist", None, (c0,))
    only_loop.classes[c0].add(node)
    only_loop.hashcons[node] = c0
    with pytest.raises(ExtractionError):
        extract_best(only_loop, c0, UNIT)
