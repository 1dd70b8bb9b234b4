import random
from collections import Counter

import pytest

from flowsat.program import ProgramFile, flatten, parse_program, print_program, reform_cse
from flowsat.sexpr import ParseError
from flowsat.terms import Term, cross, filter_, iter_subterms, map_, parse_term, persist, source

from oracles import random_term, repeated_subtrees

MEETUP = """
; the shared members pipeline feeds both sides of the cross
(def members (map with_school (persist add_member)))
(sink meetup (cross (filter berkeley members) (filter stanford members)))
"""


def test_parse_def_and_sink():
    p = parse_program("(def m (persist add_member)) (sink out (cross m m))")
    assert list(p.defs) == ["m"]
    assert list(p.sinks) == ["out"]


def test_cyclic_self_reference():
    with pytest.raises(ParseError, match="cyclic"):
        parse_program("(def a a)")


def test_forward_reference_rejected():
    with pytest.raises(ParseError, match="cyclic"):
        parse_program("(def a b) (def b (persist a))")


def test_duplicate_def_rejected():
    with pytest.raises(ParseError, match="duplicate def"):
        parse_program("(def a (persist x)) (def a (persist y))")


def test_meetup_program_shape():
    p = parse_program(MEETUP)
    assert list(p.defs) == ["members"]
    assert list(p.sinks) == ["meetup"]
    body = p.sinks["meetup"]
    refs = [n for n in body.children for n in [n] if n.op == "filter"]
    assert len(refs) == 2


def test_declared_sources_enforced():
    # once any (source ...) declarations exist, stray names are errors
    parse_program("(source a) (sink out (persist a))")
    with pytest.raises(ParseError, match="undeclared source"):
        parse_program("(source a) (sink out (persist b))")


def test_undeclared_sources_allowed_without_declarations():
    p = parse_program("(sink out (cross a b))")
    assert list(p.sinks) == ["out"]


def test_flatten_inlines_defs():
    p = parse_program("(def m (persist a)) (sink s (cross m m))")
    trees = flatten(p)
    assert trees["s"] == cross(persist(source("a")), persist(source("a")))


def test_flatten_no_defs_identity():
    p = parse_program("(sink s (chain a b))")
    assert flatten(p) == {"s": parse_term("(chain a b)")}


def test_flatten_meetup_duplicates_shared_pipeline():
    trees = flatten(parse_program(MEETUP))
    t = trees["meetup"]
    shared = map_("with_school", persist(source("add_member")))
    assert t == cross(filter_("berkeley", shared), filter_("stanford", shared))
    # the two occurrences are the same object: tee'd work is shared
    assert t.children[0].children[0] is t.children[1].children[0]


def test_reform_cse_single_shared_subtree():
    trees = {"s": cross(persist(source("a")), persist(source("a")))}
    p = reform_cse(trees)
    assert p.defs == {"d0": persist(source("a"))}
    assert p.sinks == {"s": cross(source("d0"), source("d0"))}


def test_reform_cse_no_repeats_unchanged():
    trees = {"s": parse_term("(chain a b)")}
    p = reform_cse(trees)
    assert p.defs == {}
    assert p.sinks == trees


def test_reform_cse_across_sinks():
    trees = {
        "s1": map_("f", persist(source("a"))),
        "s2": filter_("g", persist(source("a"))),
    }
    # oracle: brute-force subtree counting finds exactly one repeat of size >= 2
    assert repeated_subtrees(trees.values(), 2) == {persist(source("a"))}
    p = reform_cse(trees)
    assert p.defs == {"d0": persist(source("a"))}
    assert p.sinks == {"s1": map_("f", source("d0")), "s2": filter_("g", source("d0"))}


def test_reform_cse_nested_repeats_hoist_innermost_first():
    inner = persist(source("a"))
    outer = cross(inner, inner)
    trees = {"s": cross(outer, outer)}
    p = reform_cse(trees)
    assert p.defs["d0"] == inner
    assert p.defs["d1"] == cross(source("d0"), source("d0"))
    assert p.sinks["s"] == cross(source("d1"), source("d1"))


def test_reform_cse_fresh_names_avoid_sources():
    trees = {"s": cross(persist(source("d0")), persist(source("d0")))}
    p = reform_cse(trees)
    assert "d0" not in p.defs
    assert flatten(p) == trees


def test_reform_cse_keeps_free_holes_under_their_binder():
    # (old out) and (prev first) are each read twice, but a def of either
    # would lift a hole out of the zipper or merge that binds it
    text = (
        "(sink d (diamond a (zipper in (chain (old out) (old out))) (zipper in out)"
        " (cross (prev first) (prev first))))"
    )
    trees = flatten(parse_program(text))
    p = reform_cse(trees)
    assert p.defs == {}
    assert flatten(parse_program(print_program(p))) == trees


def test_reform_cse_hoists_subtrees_that_bind_their_holes():
    text = "(sink d (diamond a (zipper in (old out)) (zipper in (old out)) (cross first second)))"
    trees = flatten(parse_program(text))
    printed = print_program(reform_cse(trees))
    assert "(def d0 (zipper in (old out)))" in printed
    assert flatten(parse_program(printed)) == trees


def _teed_trees(rng: random.Random) -> dict[str, Term]:
    """Sink trees flattened from a random program whose defs may be read
    several times, from sinks and from later defs: tees, nested ones too."""
    names = ["u", "v", "w"]
    defs = {}
    for k in range(rng.randint(1, 3)):
        defs[f"t{k}"] = random_term(rng, depth=rng.randint(1, 3), sources=tuple(names))
        names.append(f"t{k}")
    sinks = {
        f"s{i}": random_term(rng, depth=rng.randint(1, 4), sources=tuple(names))
        for i in range(rng.randint(1, 3))
    }
    return flatten(ProgramFile(defs=defs, sinks=sinks))


def test_flatten_reform_round_trip_random():
    rng = random.Random(42)
    batches = [
        {f"s{i}": random_term(rng, depth=rng.randint(1, 4)) for i in range(rng.randint(1, 3))}
        for _ in range(60)
    ]
    batches += [_teed_trees(rng) for _ in range(60)]
    for trees in batches:
        p = reform_cse(trees)
        assert flatten(p) == trees
        # nothing of size >= 2 repeats after hoisting
        bodies = list(p.defs.values()) + list(p.sinks.values())
        assert not repeated_subtrees(bodies, 2)
        # and every def is read at least twice: none could be inlined
        reads = Counter(n.symbol for b in bodies for n in iter_subterms(b) if n.op == "source")
        assert all(reads[name] >= 2 for name in p.defs), (p.defs, reads)


def test_print_parse_program_round_trip():
    p = parse_program(MEETUP)
    again = parse_program(print_program(p))
    assert again.defs == p.defs and again.sinks == p.sinks


def test_sink_may_use_reserved_word_name():
    p = parse_program("(sink out (persist a))")
    assert list(p.sinks) == ["out"]
