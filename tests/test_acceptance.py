"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 1b is expected to fail and documents a defect in the stated
requirements themselves: the reference two-way listing has 13 nodes, and
chain re-association preserves node count, so no extraction can both cost
11 and equal that listing up to re-association. A strictly cheaper
equivalent (cost 11) always wins. See the assertion message.
"""

import random
import time
import zlib
from contextlib import contextmanager

import pytest

from flowsat.diamond import desugar, diamond_rules
from flowsat.egraph import EGraph, SaturationLimits, pattern_vars
from flowsat.extract import CostModel, extract_best, term_cost
from flowsat.interp import UdfRegistry, equivalent, random_trace, synthetic_udfs
from flowsat.program import ProgramFile, flatten, reform_cse, single_sink_program
from flowsat.rules import core_rules, join_rules, unary_rules
from flowsat.terms import count_op, parse_term, print_term

from oracles import (
    brute_force_congruence,
    build_egraph,
    canonical_class_nodes,
    flatten_chains,
    instantiate_pattern,
    min_cost_by_depth,
    random_graph_spec,
    random_term,
)

TWO_WAY_INPUT = "(delta (cross (persist add_member) (persist messages)))"
TWO_WAY_LISTING = (
    "(chain (cross (old add_member) messages)"
    " (chain (cross add_member (old messages)) (cross add_member messages)))"
)
THREE_WAY_INPUT = (
    "(delta (cross (persist add_member) (cross (persist messages) (persist platforms))))"
)
THREE_WAY_LISTING = (
    "(chain (cross add_member (cross (old messages) (old platforms)))"
    " (cross (persist add_member)"
    "  (chain (cross messages (old platforms)) (cross (persist messages) platforms))))"
)
DIAMOND_INITIAL = (
    "(diamond (persist add_member)"
    " (zipper in (map with_school (filter berkeley out)))"
    " (zipper (filter stanford (map with_school in)) out)"
    " (cross first second))"
)
DIAMOND_FINAL = (
    "(diamond (map with_school (persist add_member))"
    " (zipper in out)"
    " (zipper in (filter stanford out))"
    " (cross (filter berkeley first) second))"
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def optimize(term_text, rules, limits=None):
    g = EGraph()
    root = g.add(parse_term(term_text))
    report = g.saturate(list(rules.rewrites), limits or SaturationLimits())
    return g, root, extract_best(g, root, CostModel()), report


def check_equivalent(term_text, best, sources, traces, ticks, keyed=False):
    p1 = single_sink_program(parse_term(term_text))
    p2 = single_sink_program(best)
    udfs = synthetic_udfs()
    for seed in range(traces):
        tr = random_trace(sources, ticks, seed=seed, keyed=keyed)
        rep = equivalent(p1, p2, tr, udfs)
        assert rep, f"trace {seed}: {rep.divergence}"


def test_acceptance_1_two_way_incrementalization():
    with criterion("1 two-way incrementalization"):
        t0 = time.monotonic()
        g, root, best, _ = optimize(TWO_WAY_INPUT, core_rules())
        assert count_op(best, "delta") == 0
        assert count_op(best, "persist") == 0
        assert term_cost(best, CostModel()) == 11
        check_equivalent(TWO_WAY_INPUT, best, ["add_member", "messages"], 20, 10)
        # the reference incremental listing was discovered (same e-class)
        assert g.find(g.add(parse_term(TWO_WAY_LISTING))) == g.find(root)
        assert time.monotonic() - t0 < 5.0


def test_acceptance_1b_extracted_is_reference_listing():
    with criterion("1b extracted term is the reference listing (known defect)"):
        _, _, best, _ = optimize(TWO_WAY_INPUT, core_rules())
        listing = parse_term(TWO_WAY_LISTING)
        assert flatten_chains(best) == flatten_chains(listing), (
            "the reference listing has 13 nodes, so a minimum-cost extraction "
            "(11) can never equal it up to chain re-association; extraction "
            f"found the strictly cheaper equivalent {print_term(best)}"
        )


def test_acceptance_2_three_way_cross():
    with criterion("2 three-way cross"):
        t0 = time.monotonic()
        _, _, best, _ = optimize(THREE_WAY_INPUT, core_rules())
        assert count_op(best, "delta") == 0
        model = CostModel()
        assert term_cost(best, model) <= term_cost(parse_term(THREE_WAY_LISTING), model)
        check_equivalent(
            THREE_WAY_INPUT, best, ["add_member", "messages", "platforms"], 20, 8
        )
        assert time.monotonic() - t0 < 30.0


def test_acceptance_3_semi_naive_join():
    with criterion("3 semi-naive join"):
        _, _, best, _ = optimize(
            "(delta (join (persist a) (persist b)))", core_rules() + join_rules()
        )
        assert count_op(best, "delta") == 0
        check_equivalent(
            "(delta (join (persist a) (persist b)))", best, ["a", "b"], 20, 8, keyed=True
        )


def _soundness_rules():
    out = []
    for rs in (core_rules(), join_rules(), unary_rules()):
        for rw in rs.rewrites:
            if rw.name.endswith(".rev") or rw.name == "chain-prev-fold":
                continue
            out.append(rw)
    return out


def test_acceptance_4_per_rule_soundness():
    with criterion("4 per-rule soundness (100 x 5 per rule)"):
        udfs = synthetic_udfs()
        sources = ["u", "v", "w"]
        failures = []
        for rw in _soundness_rules():
            rng = random.Random(zlib.crc32(rw.name.encode()))
            vars_ = sorted(pattern_vars(rw.lhs))
            for trial in range(100):
                env = {v: random_term(rng, rng.randint(0, 2)) for v in vars_}
                syms = {v: rng.choice(("f", "g")) for v in vars_}
                lhs = single_sink_program(instantiate_pattern(rw.lhs, env, syms))
                rhs = single_sink_program(instantiate_pattern(rw.rhs, env, syms))
                for s in range(5):
                    tr = random_trace(sources, 8, seed=trial * 5 + s, keyed=True)
                    rep = equivalent(lhs, rhs, tr, udfs)
                    if not rep:
                        failures.append((rw.name, trial, s, str(rep.divergence)))
        # the conditional fold rule, via its inductive construction
        rng = random.Random(8)
        for trial in range(100):
            b = random_term(rng, rng.randint(0, 3))
            lhs = single_sink_program(
                parse_term(f"(chain (prev (persist {print_term(b)})) {print_term(b)})")
            )
            rhs = single_sink_program(parse_term(f"(persist {print_term(b)})"))
            for s in range(5):
                tr = random_trace(sources, 8, seed=trial * 5 + s, keyed=True)
                rep = equivalent(lhs, rhs, tr, udfs)
                if not rep:
                    failures.append(("chain-prev-fold", trial, s, str(rep.divergence)))
        assert not failures, failures[:3]


def test_acceptance_5_engine_properties():
    with criterion("5 e-graph engine properties"):
        rng = random.Random(1234)
        # congruence against a brute-force closure oracle
        for _ in range(200):
            nodes, unions = random_graph_spec(rng, max_nodes=50)
            g, ids = build_egraph(nodes, unions)
            oracle = brute_force_congruence(nodes, unions)
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    assert (oracle.find(i) == oracle.find(j)) == (
                        g.find(ids[i]) == g.find(ids[j])
                    )
            # hashcons uniqueness: no canonical node form in two classes
            seen = {}
            for cid, forms in canonical_class_nodes(g).items():
                for form in forms:
                    assert seen.setdefault(form, cid) == cid
        # extraction optimality against depth-bounded enumeration
        model = CostModel()
        checked = 0
        for _ in range(150):
            nodes, unions = random_graph_spec(rng, max_nodes=14)
            g, _ = build_egraph(nodes, unions)
            if g.num_classes() > 12:
                continue
            oracle = min_cost_by_depth(g, model.weight, 8)
            for cid in list(g.classes):
                if oracle[cid] == float("inf"):
                    continue
                assert term_cost(extract_best(g, cid, model), model) <= oracle[cid]
                checked += 1
        assert checked > 100


def test_acceptance_6_diamond_pipeline():
    with criterion("6 diamond pipeline"):
        g = EGraph()
        root = g.add(parse_term(DIAMOND_INITIAL))
        g.saturate(list(diamond_rules().rewrites), SaturationLimits())
        assert g.find(g.add(parse_term(DIAMOND_FINAL))) == g.find(root)
        udfs = UdfRegistry()
        udfs.register_map("with_school", lambda v: (v, "berkeley" if v % 2 == 0 else "stanford"))
        udfs.register_filter("berkeley", lambda v: v[1] == "berkeley")
        udfs.register_filter("stanford", lambda v: v[1] == "stanford")
        p1 = single_sink_program(desugar(parse_term(DIAMOND_INITIAL)))
        p2 = single_sink_program(parse_term(DIAMOND_FINAL))
        for seed in range(10):
            tr = random_trace(["add_member"], 8, seed=seed)
            assert equivalent(p1, p2, tr, udfs)
        hoisted = term_cost(parse_term(DIAMOND_FINAL), CostModel())
        flattened = term_cost(desugar(parse_term(DIAMOND_INITIAL)), CostModel())
        assert hoisted < flattened


def _random_program(rng):
    defs = {}
    names = []
    for i in range(rng.randint(1, 2)):
        pool = ("u", "v") + tuple(names)
        defs[f"p{i}"] = random_term(rng, rng.randint(1, 2), sources=pool)
        names.append(f"p{i}")
    sinks = {}
    for i in range(rng.randint(1, 2)):
        pool = ("u", "v") + tuple(names)
        sinks[f"s{i}"] = random_term(rng, rng.randint(1, 3), sources=pool)
    return ProgramFile(defs=defs, sinks=sinks)


def test_acceptance_7_flatten_optimize_reform_round_trip():
    with criterion("7 flatten/optimize/reform round trip (50 programs)"):
        from oracles import repeated_subtrees

        rng = random.Random(99)
        rules = list((core_rules() + join_rules() + unary_rules()).rewrites)
        limits = SaturationLimits(max_iters=5, max_nodes=2000, max_millis=4000)
        udfs = synthetic_udfs()
        model = CostModel()
        for _ in range(50):
            program = _random_program(rng)
            trees = flatten(program)
            g = EGraph()
            roots = {name: g.add(t) for name, t in trees.items()}
            g.saturate(rules, limits)
            best = {name: extract_best(g, r, model) for name, r in roots.items()}
            reformed = reform_cse(best, 2)
            # re-flattening gives back exactly the optimized trees
            assert flatten(reformed) == best
            # every repeated subtree of size >= 2 was hoisted into a def
            bodies = list(reformed.defs.values()) + list(reformed.sinks.values())
            assert not repeated_subtrees(bodies, 2)
            # and the reformed program is interpreter-equivalent to the input
            for seed in range(3):
                sources = sorted({s for t in trees.values() for s in _sources_of(t)}) or ["u"]
                tr = random_trace(sources, 6, seed=seed, keyed=True)
                rep = equivalent(program, reformed, tr, udfs)
                assert rep, rep.divergence


def _sources_of(t):
    from flowsat.terms import source_names

    return source_names(t)
