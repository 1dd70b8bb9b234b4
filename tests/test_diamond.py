import pytest

from flowsat.diamond import (
    DiamondError,
    desugar,
    diamond_rules,
    hoist_rule,
    inline_rule,
    shift_rules,
)
from flowsat.egraph import EGraph, SaturationLimits
from flowsat.extract import CostModel, extract_best, term_cost
from flowsat.interp import UdfRegistry, equivalent, random_trace
from flowsat.program import single_sink_program
from flowsat.terms import parse_term, print_term

from oracles import min_cost_by_depth

INITIAL = (
    "(diamond (persist add_member)"
    " (zipper in (map with_school (filter berkeley out)))"
    " (zipper (filter stanford (map with_school in)) out)"
    " (cross first second))"
)
FINAL = (
    "(diamond (map with_school (persist add_member))"
    " (zipper in out)"
    " (zipper in (filter stanford out))"
    " (cross (filter berkeley first) second))"
)
FLAT = (
    "(cross (filter berkeley (map with_school (persist add_member)))"
    " (filter stanford (map with_school (persist add_member))))"
)


def school_udfs() -> UdfRegistry:
    reg = UdfRegistry()
    reg.register_map("with_school", lambda v: (v, "berkeley" if v % 2 == 0 else "stanford"))
    reg.register_filter("berkeley", lambda v: v[1] == "berkeley")
    reg.register_filter("stanford", lambda v: v[1] == "stanford")
    return reg


def test_desugar_duplicates_shared_pipeline():
    assert print_term(desugar(parse_term(INITIAL))) == print_term(parse_term(FLAT))


def test_desugar_identity_zippers():
    d = parse_term("(diamond s (zipper in out) (zipper in out) (cross first second))")
    assert desugar(d) == parse_term("(cross s s)")


def test_desugar_applies_front_before_back():
    d = parse_term(
        "(diamond s (zipper (map f in) (filter g out)) (zipper in out) (cross first second))"
    )
    assert desugar(d) == parse_term("(cross (filter g (map f s)) s)")


def test_desugar_rejects_malformed_edges():
    with pytest.raises(DiamondError, match="non-edge"):
        desugar(
            parse_term(
                "(diamond s (zipper (chain in in) out) (zipper in out) (cross first second))"
            )
        )
    with pytest.raises(DiamondError, match="zipper"):
        desugar(
            parse_term("(diamond s (persist x) (zipper in out) (cross first second))")
        )


def test_desugar_nested_diamond_in_merge():
    inner = "(diamond b (zipper in out) (zipper in out) (join first second))"
    outer = parse_term(
        f"(diamond a (zipper in out) (zipper in out) (chain (cross first second) {inner}))"
    )
    assert desugar(outer) == parse_term("(chain (cross a a) (join b b))")


def test_shift_moves_cursor_between_halves():
    g = EGraph()
    root = g.add(parse_term("(zipper in (map f (filter g out)))"))
    g.saturate(list(shift_rules().rewrites), SaturationLimits(max_iters=8))
    shifted = parse_term("(zipper (map f in) (filter g out))")
    assert g.find(g.add(shifted)) == g.find(root)
    # bidirectional: fully shifted form also reachable, and so is the original
    both = parse_term("(zipper (filter g (map f in)) out)")
    assert g.find(g.add(both)) == g.find(root)


def test_shift_empty_front_only_back_shifts_apply():
    g = EGraph()
    root = g.add(parse_term("(zipper in (persist out))"))
    rep = g.saturate(list(shift_rules().rewrites), SaturationLimits(max_iters=4))
    assert g.find(g.add(parse_term("(zipper (persist in) out)"))) == g.find(root)
    assert rep.stop_reason == "saturated"


def test_inline_moves_isolated_back_operator_into_merge():
    g = EGraph()
    root = g.add(
        parse_term(
            "(diamond s (zipper in (filter berkeley out)) (zipper in out) (cross first second))"
        )
    )
    g.saturate([inline_rule()], SaturationLimits(max_iters=4))
    expected = parse_term(
        "(diamond s (zipper in out) (zipper in out) (cross (filter berkeley first) second))"
    )
    assert g.find(g.add(expected)) == g.find(root)


def test_inline_identity_back_does_not_match():
    g = EGraph()
    root = g.add(
        parse_term("(diamond s (zipper in out) (zipper in out) (cross first second))")
    )
    rep = g.saturate([inline_rule()], SaturationLimits(max_iters=3))
    assert rep.rule_counts["inline-merge"] == 0


def test_inline_both_edges_confluent():
    g = EGraph()
    root = g.add(
        parse_term(
            "(diamond s (zipper in (map f out)) (zipper in (filter g out)) (cross first second))"
        )
    )
    rep = g.saturate([inline_rule()], SaturationLimits(max_iters=6))
    assert rep.stop_reason == "saturated"
    fully = parse_term(
        "(diamond s (zipper in out) (zipper in out) (cross (map f first) (filter g second)))"
    )
    assert g.find(g.add(fully)) == g.find(root)


def test_hoist_requires_identical_fronts():
    g = EGraph()
    root = g.add(
        parse_term(
            "(diamond s (zipper (map f in) out) (zipper (map g in) out) (cross first second))"
        )
    )
    rep = g.saturate([hoist_rule()], SaturationLimits(max_iters=3))
    assert rep.rule_counts["hoist-shared"] == 0


def test_hoist_shares_identical_front_operator():
    g = EGraph()
    root = g.add(
        parse_term(
            "(diamond (persist a) (zipper (map f in) out) (zipper (map f in) out) (cross first second))"
        )
    )
    g.saturate([hoist_rule()], SaturationLimits(max_iters=3))
    expected = parse_term(
        "(diamond (map f (persist a)) (zipper in out) (zipper in out) (cross first second))"
    )
    assert g.find(g.add(expected)) == g.find(root)


def test_hoist_needs_shift_to_align_first():
    # one edge has the op at the cursor, the other needs a shift first
    text = (
        "(diamond s (zipper (map f in) out) (zipper in (map f out)) (cross first second))"
    )
    g = EGraph()
    root = g.add(parse_term(text))
    rep = g.saturate([hoist_rule()], SaturationLimits(max_iters=3))
    assert rep.rule_counts["hoist-shared"] == 0

    g = EGraph()
    root = g.add(parse_term(text))
    rep = g.saturate(list(diamond_rules().rewrites), SaturationLimits(max_iters=8))
    hoisted = parse_term(
        "(diamond (map f s) (zipper in out) (zipper in out) (cross first second))"
    )
    assert rep.rule_counts["hoist-shared"] >= 1
    assert g.find(g.add(hoisted)) == g.find(root)


def test_full_pipeline_reaches_reference_final_form():
    g = EGraph()
    root = g.add(parse_term(INITIAL))
    rep = g.saturate(list(diamond_rules().rewrites), SaturationLimits())
    assert rep.stop_reason == "saturated"
    assert g.find(g.add(parse_term(FINAL))) == g.find(root)


def test_each_diamond_rewrite_preserves_desugared_semantics():
    stages = [
        INITIAL,
        # after shifting both zippers
        "(diamond (persist add_member) (zipper (map with_school in) (filter berkeley out))"
        " (zipper (map with_school in) (filter stanford out)) (cross first second))",
        # after inlining edge 1
        "(diamond (persist add_member) (zipper (map with_school in) out)"
        " (zipper (map with_school in) (filter stanford out)) (cross (filter berkeley first) second))",
        FINAL,
    ]
    udfs = school_udfs()
    programs = [single_sink_program(desugar(parse_term(s))) for s in stages]
    for i in range(len(programs) - 1):
        for seed in range(5):
            tr = random_trace(["add_member"], 6, seed=seed)
            assert equivalent(programs[i], programs[i + 1], tr, udfs)


def test_hoisting_strictly_reduces_cost():
    before = parse_term(
        "(diamond s (zipper (map f in) out) (zipper (map f in) out) (cross first second))"
    )
    after = parse_term(
        "(diamond (map f s) (zipper in out) (zipper in out) (cross first second))"
    )
    m = CostModel(op_weights={})
    assert term_cost(after, m) < term_cost(before, m)


def test_diamond_interpreter_matches_flat_form():
    udfs = school_udfs()
    p1 = single_sink_program(parse_term(INITIAL))
    p2 = single_sink_program(parse_term(FLAT))
    for seed in range(10):
        tr = random_trace(["add_member"], 6, seed=seed)
        assert equivalent(p1, p2, tr, udfs)


def test_extraction_optimal_on_saturated_diamond_graphs():
    # zero-weight scaffolding (diamond, zipper, holes) under every class: the
    # extractor never loses to enumerating all trees up to depth 12
    pipelines = [
        INITIAL,
        "(diamond (persist a) (zipper (filter p (map f in)) (old (delta out)))"
        " (zipper (map f in) (prev (filter q (persist out)))) (chain (cross first second) second))",
        "(diamond (chain a b) (zipper (old (map f (filter p in))) (delta (prev out)))"
        " (zipper (filter p in) (map g (old (delta out)))) (join first (filter q second)))",
        "(diamond (delta (persist a)) (zipper (map f (prev (filter p in))) (persist (old out)))"
        " (zipper (prev (filter p in)) (map g (delta (filter q out)))) (cross first (map h second)))",
    ]
    checked = 0
    for text in pipelines:
        g = EGraph()
        root = g.add(parse_term(text))
        rep = g.saturate(list(diamond_rules().rewrites), SaturationLimits())
        assert rep.stop_reason == "saturated"
        for model in (CostModel(op_weights={}), CostModel()):
            oracle = min_cost_by_depth(g, model.weight, 12)
            assert oracle[g.find(root)] < float("inf")
            for cid in list(g.classes):
                if oracle[cid] == float("inf"):
                    continue
                assert term_cost(extract_best(g, cid, model), model) <= oracle[cid]
                checked += 1
    assert checked >= 800
