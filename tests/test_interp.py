import random
from collections import Counter

import pytest

from flowsat.interp import (
    InterpError,
    TickTrace,
    UdfError,
    UdfRegistry,
    equivalent,
    format_outputs,
    format_value,
    parse_trace,
    print_trace,
    random_trace,
    run,
    synthetic_udfs,
    value_key,
)
from flowsat.program import parse_program, single_sink_program
from flowsat.terms import parse_term

from oracles import random_term


def trace(*ticks):
    return TickTrace(tuple(dict(t) for t in ticks))


def sink(term_text):
    return single_sink_program(parse_term(term_text))


def outs(program, tr, udfs=None):
    out = run(program, tr, udfs)
    return [t["out"] for t in out.ticks]


def test_persist_replays_history():
    got = outs(sink("(persist a)"), trace({"a": (1,)}, {"a": (2,)}))
    assert [Counter(x) for x in got] == [Counter([1]), Counter([1, 2])]


def test_delta_of_persist_is_identity():
    got = outs(sink("(delta (persist a))"), trace({"a": (1,)}, {"a": (2,)}))
    assert [Counter(x) for x in got] == [Counter([1]), Counter([2])]


def test_prev_empty_on_first_tick():
    got = outs(sink("(prev a)"), trace({"a": (7,)}))
    assert got == [()]


def test_cross_of_persists_hand_enumerated():
    # by hand: persists at tick 2 hold [u1,u2] and [m1,m2]; 4 pairs total
    tr = trace({"a": ("u1",), "b": ("m1",)}, {"a": ("u2",), "b": ("m2",)})
    got = outs(sink("(cross (persist a) (persist b))"), tr)
    assert Counter(got[1]) == Counter(
        [("u1", "m1"), ("u1", "m2"), ("u2", "m1"), ("u2", "m2")]
    )


def test_chain_order_first_then_second():
    got = outs(sink("(chain a b)"), trace({"a": (1, 2), "b": (3,)}))
    assert got == [(1, 2, 3)]


def test_old_is_history_before_current_tick():
    got = outs(sink("(old a)"), trace({"a": (1,)}, {"a": (2,)}, {"a": (3,)}))
    assert got == [(), (1,), (1, 2)]


def test_delta_saturates_at_zero_on_shrink():
    # upstream (prev a) shrinks from (1, 1) to (1,): nothing is new, and the
    # lost copy is not reported as "negative"
    got = outs(sink("(delta (prev a))"), trace({"a": (1, 1)}, {"a": (1,)}, {"a": ()}))
    assert [Counter(x) for x in got] == [Counter(), Counter([1, 1]), Counter()]


def test_join_on_first_component():
    tr = trace({"a": ((1, "x"), (2, "y")), "b": ((1, "p"), (1, "q"), (3, "r"))})
    got = outs(sink("(join a b)"), tr)
    assert Counter(got[0]) == Counter([(1, "x", "p"), (1, "x", "q")])


def test_join_flattens_wider_tuples():
    tr = trace({"a": ((1, "x", "y"),), "b": ((1, "p"),)})
    got = outs(sink("(join a b)"), tr)
    assert got == [((1, "x", "y", "p"),)]


def test_join_rejects_non_tuples():
    with pytest.raises(InterpError, match="tick 1"):
        run(sink("(join a b)"), trace({"a": (1,), "b": ((1, 2),)}))


def test_map_filter_use_registry():
    udfs = UdfRegistry().register_map("inc", lambda v: v + 1).register_filter("odd", lambda v: v % 2 == 1)
    got = outs(sink("(map inc (filter odd a))"), trace({"a": (1, 2, 3)}), udfs)
    assert got == [(2, 4)]


def test_unregistered_function_symbol_errors():
    with pytest.raises(UdfError, match="nope"):
        run(sink("(map nope a)"), trace({"a": (1,)}))


def test_missing_source_is_empty_batch():
    got = outs(sink("(persist a)"), trace({}, {"a": (5,)}))
    assert got == [(), (5,)]


def test_tee_semantics_shared_def_evaluated_consistently():
    p = parse_program("(def m (persist a)) (sink out (cross m m))")
    got = outs(p, trace({"a": (1,)}, {"a": (2,)}))
    assert Counter(got[1]) == Counter([(1, 1), (1, 2), (2, 1), (2, 2)])


def test_flatten_never_changes_output():
    from flowsat.program import ProgramFile, flatten

    p = parse_program(
        "(def m (map f (persist a)))"
        "(sink s1 (cross m m))"
        "(sink s2 (chain m (delta m)))"
    )
    flat = ProgramFile(sinks=flatten(p))
    udfs = synthetic_udfs()
    for seed in range(5):
        tr = random_trace(["a"], 6, seed=seed)
        assert equivalent(p, flat, tr, udfs, mode="ordered")


def test_equivalent_reflexive():
    p = sink("(cross (persist a) b)")
    tr = random_trace(["a", "b"], 6, seed=1)
    assert equivalent(p, p, tr)


def test_equivalent_delta_persist_law():
    for seed in range(10):
        tr = random_trace(["a"], 8, seed=seed)
        assert equivalent(sink("(delta (persist a))"), sink("a"), tr)


def test_equivalent_divergence_reported_at_tick_two():
    tr = trace({"a": (1,)}, {"a": (2,)})
    rep = equivalent(sink("(persist a)"), sink("a"), tr)
    assert not rep
    assert rep.divergence.tick == 2
    assert rep.divergence.sink == "out"
    assert "only-left {1}" in str(rep.divergence)


def test_equivalent_ordered_mode_distinguishes_order():
    p1 = sink("(chain a b)")
    p2 = sink("(chain b a)")
    tr = trace({"a": (1,), "b": (2,)})
    assert equivalent(p1, p2, tr, mode="multiset")
    assert not equivalent(p1, p2, tr, mode="ordered")


def test_equivalent_sink_mismatch_errors():
    with pytest.raises(InterpError, match="sink"):
        equivalent(
            single_sink_program(parse_term("a"), "x"),
            single_sink_program(parse_term("a"), "y"),
            trace({"a": (1,)}),
        )


def test_stateless_core_depends_only_on_current_tick():
    # permuting other ticks' batches must not change tick-2 output
    for text in ("(chain a b)", "(cross a b)", "(map f (filter g a))"):
        p = sink(text)
        udfs = synthetic_udfs()
        t1 = trace({"a": (1, 2), "b": (5,)}, {"a": (3,), "b": (6, 7)}, {"a": (4,), "b": ()})
        t2 = trace({"a": (4,), "b": ()}, {"a": (3,), "b": (6, 7)}, {"a": (1, 2), "b": (5,)})
        assert run(p, t1, udfs).ticks[1] == run(p, t2, udfs).ticks[1]


def test_executable_law_persist_equals_old_chain_current():
    for seed in range(5):
        tr = random_trace(["a"], 8, seed=seed)
        assert equivalent(sink("(persist a)"), sink("(chain (old a) a)"), tr)


def test_executable_law_old_equals_prev_persist():
    for seed in range(5):
        tr = random_trace(["a"], 8, seed=seed)
        assert equivalent(sink("(old a)"), sink("(prev (persist a))"), tr)


def test_executable_law_cross_prev_determinism():
    for seed in range(5):
        tr = random_trace(["a", "b"], 8, seed=seed)
        assert equivalent(sink("(cross (prev a) (prev b))"), sink("(prev (cross a b))"), tr)


def test_chain_ordered_concatenation_property():
    from flowsat.terms import chain

    rng = random.Random(3)
    udfs = synthetic_udfs()
    for _ in range(20):
        a = random_term(rng, 2, sources=("a", "b"))
        b = random_term(rng, 2, sources=("a", "b"))
        # keyed traces keep any join nodes inside the generated terms legal
        tr = random_trace(["a", "b"], 5, seed=rng.randint(0, 999), keyed=True)
        oa = run(single_sink_program(a), tr, udfs)
        ob = run(single_sink_program(b), tr, udfs)
        oc = run(single_sink_program(chain(a, b)), tr, udfs)
        for i in range(len(tr)):
            assert oc.ticks[i]["out"] == oa.ticks[i]["out"] + ob.ticks[i]["out"]


def test_random_trace_deterministic_in_seed():
    t1 = random_trace(["a", "b"], 3, seed=11)
    t2 = random_trace(["a", "b"], 3, seed=11)
    t3 = random_trace(["a", "b"], 3, seed=12)
    assert t1 == t2
    assert t1 != t3


def test_random_trace_batch_max_zero_all_empty():
    tr = random_trace(["a"], 4, seed=0, batch_max=0)
    assert all(tick["a"] == () for tick in tr.ticks)


def test_random_trace_keyed_produces_shared_keys():
    hits = 0
    for seed in range(100):
        tr = random_trace(["a", "b"], 8, seed=seed, keyed=True)
        keys_a = {v[0] for tick in tr.ticks for v in tick["a"]}
        keys_b = {v[0] for tick in tr.ticks for v in tick["b"]}
        if keys_a & keys_b:
            hits += 1
    assert hits >= 95  # collisions must actually occur


def test_trace_file_round_trip():
    text = "(tick (a 1 -2 (tuple 1 sym)) (b)) (tick (a) (b 3))"
    tr = parse_trace(text)
    assert tr.ticks[0]["a"] == (1, -2, (1, "sym"))
    assert tr.ticks[0]["b"] == ()
    assert parse_trace(print_trace(tr)) == tr


def test_output_dump_sorted_canonical():
    out = run(sink("(chain a a)"), trace({"a": (3, 1)}))
    text = format_outputs(out)
    assert text == "(tick (out 1 1 3 3))\n"


def test_value_key_orders_mixed_types():
    vals = [(1, 2), "sym", 5, (1,), 2]
    assert sorted(vals, key=value_key) == [2, 5, "sym", (1,), (1, 2)]
    assert format_value((1, "a")) == "(tuple 1 a)"


def test_diamond_evaluates_via_desugaring():
    d = parse_term(
        "(diamond (persist a) (zipper in out) (zipper in out) (cross first second))"
    )
    plain = parse_term("(cross (persist a) (persist a))")
    tr = random_trace(["a"], 6, seed=4)
    assert equivalent(single_sink_program(d), single_sink_program(plain), tr)


def test_merge_must_mention_both_edges():
    from flowsat.diamond import DiamondError

    one_sided = parse_term(
        "(diamond a (zipper in out) (zipper in out) (chain first first))"
    )
    with pytest.raises(DiamondError, match="both"):
        run(single_sink_program(one_sided), trace({"a": (1,)}))


def test_two_diamonds_in_one_run_keep_their_own_outputs():
    # each diamond is evaluated through a temporary desugared term; the
    # second diamond's temporaries must not hit the first one's memo entries
    diamonds = [
        "(sink s1 (diamond a (zipper (map f in) out) (zipper in (map g out)) (chain first second)))",
        "(sink s2 (diamond a (zipper (filter p in) out) (zipper in (map h out)) (cross first second)))",
    ]
    flat = parse_program(
        "(sink s1 (chain (map f a) (map g a)))\n(sink s2 (cross (filter p a) (map h a)))\n"
    )
    for order in (diamonds, diamonds[::-1]):
        program = parse_program("\n".join(order) + "\n")
        for seed in range(3):
            tr = random_trace(["a"], 6, seed=seed)
            assert equivalent(program, flat, tr, synthetic_udfs())
