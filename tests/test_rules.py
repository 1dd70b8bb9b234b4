import random

import pytest

from flowsat.egraph import EGraph, PVar, Rewrite, SaturationLimits
from flowsat.interp import equivalent, random_trace, run, synthetic_udfs
from flowsat.program import single_sink_program
from flowsat.rules import chain_prev_fold, core_rules, join_rules, rule_set, unary_rules
from flowsat.terms import HOLE_OPS, parse_term, print_term, source

from oracles import instantiate_pattern, random_term

LIMITS = SaturationLimits(max_iters=12, max_nodes=20_000, max_millis=10_000)


def saturated_graph(term_text, rules):
    g = EGraph()
    root = g.add(parse_term(term_text))
    rep = g.saturate(list(rules.rewrites), LIMITS)
    return g, root, rep


def test_core_rules_are_bidirectional_except_fold():
    rs = core_rules()
    names = [r.name for r in rs.rewrites]
    assert len(names) == len(set(names))
    # delta-persist's right side is a bare variable, which as a left side
    # would match every class: it is registered one way, reducing only
    assert "delta-persist" in names
    assert not any(n.startswith("delta-persist.") for n in names)
    for base in (
        "persist-split",
        "cross-dist-left",
        "cross-dist-right",
        "chain-assoc",
        "old-prev-persist",
        "cross-prev-lift",
    ):
        assert f"{base}.fwd" in names and f"{base}.rev" in names
    assert "chain-prev-fold" in names
    assert "chain-prev-fold.rev" not in names


RULE_SETS = ("core", "join", "unary", "diamond", "all")


def pattern_ops(p) -> set[str]:
    if p is None or isinstance(p, PVar):
        return set()
    return {p.op}.union(*(pattern_ops(c) for c in p.children))


def test_no_rule_has_a_bare_variable_left_side():
    # such a left side matches every class, so saturation never reaches a fixpoint
    for name in RULE_SETS:
        bare = [r.name for r in rule_set(name).rewrites if isinstance(r.lhs, PVar)]
        assert bare == [], name


def test_rule_set_lookup():
    assert rule_set("core").name == "core"
    with pytest.raises(ValueError):
        rule_set("nope")
    # `all` is the plain laws: a plain law matched inside a reversed zipper
    # half is false there, so the diamond rewrites stay out of it
    rs = rule_set("all")
    plain = core_rules() + join_rules() + unary_rules()
    assert [r.name for r in rs.rewrites] == [r.name for r in plain.rewrites]
    scaffolding = {"diamond", "zipper"} | HOLE_OPS
    for r in rs.rewrites:
        assert not (pattern_ops(r.lhs) | pattern_ops(r.rhs)) & scaffolding, r.name


def test_two_way_example_reaches_reference_incremental_form():
    g, root, _ = saturated_graph(
        "(delta (cross (persist add_member) (persist messages)))", core_rules()
    )
    listing = parse_term(
        "(chain (cross (old add_member) messages)"
        " (chain (cross add_member (old messages)) (cross add_member messages)))"
    )
    assert g.find(g.add(listing)) == g.find(root)


def test_persist_class_contains_split_forms():
    g, root, _ = saturated_graph("(persist a)", core_rules())
    assert g.find(g.add(parse_term("(chain (old a) a)"))) == g.find(root)
    assert g.find(g.add(parse_term("(chain (prev (persist a)) a)"))) == g.find(root)


def test_fold_fires_only_after_staged_union():
    # build (chain (prev x) b) with x a separate class; the fold's condition
    # (matched chain's class == x's class) only holds after a manual union
    g = EGraph()
    chain_id = g.add(parse_term("(chain (prev x) b)"))
    x = g.add(source("x"))
    fold = chain_prev_fold()
    rep = g.saturate([fold], SaturationLimits(max_iters=4))
    assert rep.rule_counts["chain-prev-fold"] == 0
    assert g.find(g.add(parse_term("(persist b)"))) != g.find(chain_id)

    g.union(chain_id, x)
    g.rebuild()
    rep = g.saturate([fold], SaturationLimits(max_iters=4))
    assert rep.rule_counts["chain-prev-fold"] == 1
    assert g.find(g.add(parse_term("(persist b)"))) == g.find(chain_id)


def test_fold_never_fires_with_condition_forced_false():
    base = chain_prev_fold()
    forced = Rewrite(base.name, base.lhs, base.rhs, condition=lambda g, c, s: False)
    g = EGraph()
    chain_id = g.add(parse_term("(chain (prev x) b)"))
    g.union(chain_id, g.add(source("x")))
    g.rebuild()
    rep = g.saturate([forced], SaturationLimits(max_iters=4))
    assert rep.rule_counts["chain-prev-fold"] == 0


def test_fold_base_case_in_interpreter():
    # at tick 1, (chain (prev x) b) = b = (persist b) whatever x is
    udfs = synthetic_udfs()
    for seed in range(5):
        tr = random_trace(["x", "b"], 1, seed=seed)
        lhs = run(single_sink_program(parse_term("(chain (prev x) b)")), tr, udfs)
        rhs = run(single_sink_program(parse_term("(persist b)")), tr, udfs)
        assert sorted(lhs.ticks[0]["out"]) == sorted(rhs.ticks[0]["out"])


def test_join_distributes_over_chain_left():
    g, root, _ = saturated_graph("(join (chain x y) z)", join_rules())
    assert g.find(g.add(parse_term("(chain (join x z) (join y z))"))) == g.find(root)


def test_join_prev_commute_direct_instance():
    g, root, _ = saturated_graph("(join (prev a) (prev b))", join_rules())
    assert g.find(g.add(parse_term("(prev (join a b))"))) == g.find(root)


def test_join_pipeline_removes_delta():
    from flowsat.extract import CostModel, extract_best
    from flowsat.terms import count_op

    g, root, _ = saturated_graph(
        "(delta (join (persist a) (persist b)))", core_rules() + join_rules()
    )
    best = extract_best(g, [root], CostModel())[0]
    assert count_op(best, "delta") == 0
    p1 = single_sink_program(parse_term("(delta (join (persist a) (persist b)))"))
    p2 = single_sink_program(best)
    for seed in range(10):
        tr = random_trace(["a", "b"], 8, seed=seed, keyed=True)
        assert equivalent(p1, p2, tr)


def test_map_distributes_over_chain_interpreter():
    p1 = single_sink_program(parse_term("(map f (chain a b))"))
    p2 = single_sink_program(parse_term("(chain (map f a) (map f b))"))
    udfs = synthetic_udfs()
    for seed in range(10):
        assert equivalent(p1, p2, random_trace(["a", "b"], 8, seed=seed), udfs)


def test_filter_commutes_with_prev_interpreter():
    p1 = single_sink_program(parse_term("(filter p (prev a))"))
    p2 = single_sink_program(parse_term("(prev (filter p a))"))
    udfs = synthetic_udfs()
    for seed in range(10):
        assert equivalent(p1, p2, random_trace(["a"], 8, seed=seed), udfs)


def test_map_over_chain_preserves_order_exactly():
    p1 = single_sink_program(parse_term("(map f (chain a b))"))
    p2 = single_sink_program(parse_term("(chain (map f a) (map f b))"))
    udfs = synthetic_udfs()
    tr = random_trace(["a", "b"], 6, seed=9)
    assert equivalent(p1, p2, tr, udfs, mode="ordered")


def test_unary_rules_match_symbolically():
    g, root, _ = saturated_graph("(map f (chain a b))", unary_rules())
    assert g.find(g.add(parse_term("(chain (map f a) (map f b))"))) == g.find(root)
    # the same rules, via the symbol variable, serve any function name
    g, root, _ = saturated_graph("(filter q (prev a))", unary_rules())
    assert g.find(g.add(parse_term("(prev (filter q a))"))) == g.find(root)


def _soundness_cases():
    cases = []
    for rs in (core_rules(), join_rules(), unary_rules()):
        for rw in rs.rewrites:
            if rw.name.endswith(".rev"):
                continue  # lhs~rhs equivalence is direction-symmetric
            if rw.name == "chain-prev-fold":
                continue  # conditional; tested via its inductive construction
            cases.append(rw)
    return cases


def test_every_recorded_application_is_sound():
    # replay the engine's own match phase on the two-way example's fixpoint
    # and check each application it would perform: one representative term
    # per side, equivalent on 5 random traces
    from flowsat.extract import CostModel, extract_best

    g = EGraph()
    g.add(parse_term("(delta (cross (persist add_member) (persist messages)))"))
    rules = list(core_rules().rewrites)
    report = g.saturate(rules, LIMITS)
    assert report.stop_reason == "saturated"
    g.rebuild()
    udfs = synthetic_udfs()
    unit = CostModel(op_weights={})
    checked = 0
    unchecked = {rw.name for rw in rules}
    for rw in rules:
        for cid, subst in g.ematch(rw.lhs):
            if rw.condition is not None and not rw.condition(g, g.find(cid), subst):
                continue
            env = {
                name: extract_best(g, [val], unit)[0]
                for name, val in subst.items()
                if isinstance(val, int)
            }
            syms = {name: val for name, val in subst.items() if isinstance(val, str)}
            lhs = instantiate_pattern(rw.lhs, env, syms)
            rhs = instantiate_pattern(rw.rhs, env, syms)
            for seed in range(5):
                tr = random_trace(["add_member", "messages"], 6, seed=seed)
                rep = equivalent(
                    single_sink_program(lhs), single_sink_program(rhs), tr, udfs
                )
                assert rep, f"{rw.name} {print_term(lhs)} vs {print_term(rhs)}: {rep.divergence}"
            checked += 1
            unchecked.discard(rw.name)
    assert checked >= 20
    assert unchecked == set()


@pytest.mark.parametrize("rw", _soundness_cases(), ids=lambda r: r.name)
def test_rule_soundness_random_instantiations(rw):
    import zlib

    from flowsat.egraph import pattern_vars

    rng = random.Random(zlib.crc32(rw.name.encode()))
    udfs = synthetic_udfs()
    vars_ = sorted(pattern_vars(rw.lhs))
    for trial in range(20):
        env = {v: random_term(rng, rng.randint(0, 2)) for v in vars_}
        syms = {v: rng.choice(("f", "g")) for v in vars_}
        lhs = instantiate_pattern(rw.lhs, env, syms)
        rhs = instantiate_pattern(rw.rhs, env, syms)
        tr = random_trace(["u", "v", "w"], 8, seed=trial, keyed=True)
        rep = equivalent(
            single_sink_program(lhs), single_sink_program(rhs), tr, udfs
        )
        assert rep, f"{rw.name}: {rep.divergence}"
