"""Seeded inputs for the four benchmark workloads.

Every generator takes a `random.Random` built from the run's seed and
returns program *text* and trace objects only: flowsat is handed the
generated inputs, never the generator. Replay traces deliver a fixed
number of values per source per tick, drawn from a shuffled deck of the
same value domain `flowsat.random_trace` uses, so that the work a trace
causes depends on the program and the tick count but hardly on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = BENCH_DIR / "fixtures"
EXAMPLES = ("chat_two_way", "chat_three_way", "keyed_join", "meetup")

# Long replay lengths (ticks, values per source per tick) per example: the
# inputs take 0.1-1 s each in the reference interpreter at these sizes,
# the optimized forms of all but meetup a few milliseconds.
REPLAY_SIZES = {
    "chat_two_way": (160, 1),
    "chat_three_way": (36, 1),
    "keyed_join": (120, 2),
    "meetup": (110, 2),
}

UNARY_OPS = ("persist", "delta", "old", "prev", "map", "filter")  # also the zipper edge operators
BINARY_OPS = ("chain", "cross", "join")
SYMBOLS = {"map": ("f", "g", "with_school"), "filter": ("p", "q", "berkeley")}


@dataclass
class Case:
    """One program of a workload's batch, with everything an operation needs."""

    name: str
    text: str
    replay_ticks: int
    replay_per_tick: int
    fixture: str | None = None  # optimized form replayed instead of the optimizer's output
    # filled in at set-up
    sources: list[str] = field(default_factory=list)
    keyed: bool = False
    replay_trace: object = None
    fixture_program: object = None


@dataclass(frozen=True)
class Settings:
    """Per-workload rule set, optimizer node budget and check trace sizes."""

    rules: str
    max_nodes: int
    check_traces: int
    check_ticks: int


# `diamonds` runs the diamond rule set alone, as the diamond acceptance
# test does: under `--rules all` the core rules also rewrite inside zipper
# halves (a back half `(old out)` came out as `(chain (old out) out)`) and
# the extracted program no longer desugars (see README.md).
SETTINGS = {
    "examples": Settings("all", max_nodes=50_000, check_traces=8, check_ticks=12),
    "random_programs": Settings("all", max_nodes=1_000, check_traces=2, check_ticks=6),
    "diamonds": Settings("diamond", max_nodes=2_000, check_traces=2, check_ticks=6),
    "replay": Settings("all", max_nodes=5_000, check_traces=8, check_ticks=12),
}
# 200 programs leave ten beyond the 95th percentile of their compile times.
RANDOM_BATCH = 200
DIAMOND_BATCH = 200
# Input cost bands (default weights: delta and persist 100, others 1),
# cycled every six slots: every batch holds the same number of programs
# with no, one and two or three stateful operators, which is what most of
# a program's cost and of the optimizer's work depends on.
COST_BANDS = ((0, 100), (100, 200), (200, 400))


def read_example(root: Path, name: str) -> str:
    return (root / "programs" / f"{name}.flow").read_text(encoding="utf-8")


def read_fixture(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.flow").read_text(encoding="utf-8")


def example_cases(root: Path, with_fixtures: bool) -> list[Case]:
    cases = []
    for name in EXAMPLES:
        fixture = read_fixture(name) if with_fixtures else None
        cases.append(Case(name, read_example(root, name), *REPLAY_SIZES[name], fixture))
    return cases


# --------------------------------------------------------- random programs

# A generated program is redrawn when a static estimate of the most values
# one node emits on the last replay tick exceeds WORK_CAP (no draw turns
# into one huge interpretation), and then again unless the interpreter's
# work on its replay trace, counted exactly in steps
# (run.interpretation_steps), falls in STEPS_BAND: programs then weigh
# alike in the replay times, so a batch's total is not carried by a few
# draws and varies little between seeds.
WORK_CAP = 4000
STEPS_BAND = (1000, 4000)
MAX_DRAWS = 1000
RANDOM_REPLAY = (12, 2)
DIAMOND_REPLAY = (12, 2)


def _estimate(op: str, sizes: list[float], ticks: int) -> float:
    if op in ("persist", "old"):
        return sizes[0] * ticks
    if op == "chain":
        return sizes[0] + sizes[1]
    if op == "cross":
        return sizes[0] * sizes[1]
    if op == "join":
        return sizes[0] * sizes[1] / 4
    return sizes[0]


class _Drawer:
    """Draws term text while tracking the largest per-tick size estimate."""

    def __init__(self, rng: random.Random, ticks: int):
        self.rng, self.ticks = rng, ticks
        self.peak = 0.0

    def node(self, op: str, children: list[tuple[str, float]]) -> tuple[str, float]:
        est = _estimate(op, [c[1] for c in children], self.ticks)
        self.peak = max(self.peak, est)
        head = op
        if op in SYMBOLS:
            head = f"{op} {self.rng.choice(SYMBOLS[op])}"
        return f"({head} " + " ".join(c[0] for c in children) + ")", est

    def term(self, depth: int, pool: list[tuple[str, float]]) -> tuple[str, float]:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return rng.choice(pool)
        if rng.random() < 0.5:
            op = rng.choice(BINARY_OPS)
            return self.node(op, [self.term(depth - 1, pool), self.term(depth - 1, pool)])
        return self.node(rng.choice(UNARY_OPS), [self.term(depth - 1, pool)])


def random_program(rng: random.Random, index: int) -> str:
    """1-3 sinks (cycled by index) of depth <= 4 over sources u, v, w; every
    other program defines a def that its sinks may reference, which makes
    it a tee when two references survive."""
    ticks, per_tick = RANDOM_REPLAY
    while True:
        d = _Drawer(rng, ticks)
        sources = [(s, float(per_tick)) for s in ("u", "v", "w")]
        lines = []
        pool = list(sources)
        if index % 2:
            body, est = d.term(rng.randint(1, 2), sources)
            lines.append(f"(def t0 {body})")
            pool += [("t0", est)] * 3
        for i in range(1 + index % 3):
            lines.append(f"(sink s{i} {d.term(rng.randint(1, 4), pool)[0]})")
        if d.peak <= WORK_CAP:
            return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- diamonds


def _edge(d: _Drawer, ops: list[str], shared: tuple[str, float]) -> tuple[str, float]:
    """A zipper over `ops` in application order with the cursor at a random
    split, and the size estimate of the edge applied to `shared`. The front
    half nests leaf-to-root from `in`, the back half root-to-leaf down to
    `out`."""
    cut = d.rng.randint(0, len(ops))
    front = ("in", 0.0)
    for op in ops[:cut]:
        front = d.node(op, [front])
    back = ("out", 0.0)
    for op in reversed(ops[cut:]):
        back = d.node(op, [back])
    size = shared[1]
    for op in ops:
        size = _estimate(op, [size], d.ticks)
        d.peak = max(d.peak, size)
    return f"(zipper {front[0]} {back[0]})", size


# (shared computation, first edge length, second edge length), cycled by
# program index so that every batch holds the same mix of shapes and its
# total work varies little from seed to seed.
DIAMOND_SHAPES = [
    (shared, n1, n2)
    for shared in ("persist", "map-persist", "old", "source")
    for n1, n2 in ((1, 2), (2, 2), (2, 3), (3, 1))
]


def diamond_program(rng: random.Random, index: int) -> str:
    """One sink holding a tee'd pipeline in diamond form, like the meetup
    pipeline: a shared computation, two edges of 1-3 edge operators whose
    first operator mostly agrees (so hoisting applies), and a cross or
    chain merge."""
    ticks, per_tick = DIAMOND_REPLAY
    kind, n1, n2 = DIAMOND_SHAPES[index % len(DIAMOND_SHAPES)]
    while True:
        d = _Drawer(rng, ticks)
        a = ("a", float(per_tick))
        shared = {
            "persist": lambda: d.node("persist", [a]),
            "map-persist": lambda: d.node("map", [d.node("persist", [a])]),
            "old": lambda: d.node("old", [a]),
            "source": lambda: a,
        }[kind]()
        first = [rng.choice(("map", "filter", "prev"))]
        first += [rng.choice(UNARY_OPS) for _ in range(n1 - 1)]
        second = [first[0] if rng.random() < 0.7 else rng.choice(UNARY_OPS)]
        second += [rng.choice(UNARY_OPS) for _ in range(n2 - 1)]
        (z1, s1), (z2, s2) = _edge(d, first, shared), _edge(d, second, shared)
        if index % 2 == 0:
            merge, size = rng.choice(["(cross first second)", "(cross second first)"]), s1 * s2
        else:
            merge, size = "(chain first second)", s1 + s2
        if max(d.peak, size) <= WORK_CAP:
            return f"(sink d (diamond {shared[0]} {z1} {z2} {merge}))\n"


# ------------------------------------------------------------------ traces


def deck_trace(flowsat, sources: list[str], ticks: int, per_tick: int, keyed: bool, rng: random.Random):
    """`ticks` ticks of exactly `per_tick` values per source; values cycle
    through shuffled decks of random_trace's domain (ints 0..7, or
    (key 0..3, payload 0..7) tuples when keyed)."""
    domain = [(k, p) for k in range(4) for p in range(8)] if keyed else list(range(8))
    decks: dict[str, list] = {s: [] for s in sources}
    out = []
    for _ in range(ticks):
        tick = {}
        for s in sources:
            deck = decks[s]
            batch = []
            for _ in range(per_tick):
                if not deck:
                    deck.extend(domain)
                    rng.shuffle(deck)
                batch.append(deck.pop())
            tick[s] = tuple(batch)
        out.append(tick)
    return flowsat.TickTrace(tuple(out))
