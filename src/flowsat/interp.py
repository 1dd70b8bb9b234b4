"""Reference tick semantics: the ground-truth oracle for every rewrite.

Execution is tick-batched: each tick delivers one batch per source, the
whole dataflow runs on those batches, and sinks record what arrived.
Operators are stateless except persist/old/prev/delta, whose state is the
upstream's own output history, so a node's full per-tick output sequence
is a pure function of its input's per-tick sequences:

    source s     tick t's batch for s, in trace insertion order
    chain a b    a's tick-t values then b's
    cross a b    all pairs (x, y), left order outer
    join a b     (k, *rest_a, *rest_b) for tuple values sharing first component
    map/filter   elementwise, order preserved
    persist e    e's outputs for ticks 1..t
    old e        e's outputs for ticks 1..t-1
    prev e       e's output for tick t-1
    delta e      multiset difference of e's tick-t output against tick t-1,
                 saturating at zero

Shared subtrees (tee'd defs) are evaluated once per tick; consumers see
copies of the same values, so flattening never changes output.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .diamond import desugar
from .program import ProgramFile, flatten
from .terms import Term, iter_subterms

Value = Union[int, str, tuple]


class InterpError(Exception):
    pass


class UdfError(Exception):
    pass


def value_key(v: Value):
    """Total order over the heterogeneous value domain, for sorted reports."""
    if isinstance(v, bool) or isinstance(v, int):
        return (0, v, ())
    if isinstance(v, str):
        return (1, v, ())
    return (2, len(v), tuple(value_key(x) for x in v))


def format_value(v: Value) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return "(tuple " + " ".join(format_value(x) for x in v) + ")" if v else "(tuple)"


@dataclass(frozen=True)
class TickTrace:
    """Per tick (1-based, contiguous), a batch per source; missing source
    means an empty batch. Batches keep insertion order for determinism;
    their multiset view is what equivalence compares."""

    ticks: tuple[dict[str, tuple[Value, ...]], ...] = ()

    def __len__(self) -> int:
        return len(self.ticks)


@dataclass(frozen=True)
class OutputTrace:
    sink_names: tuple[str, ...]
    ticks: tuple[dict[str, tuple[Value, ...]], ...]


class UdfRegistry:
    """Named pure functions for map (Value -> Value) and filter
    (Value -> bool). The graph only carries the symbols; semantics live
    here."""

    def __init__(self):
        self._maps: dict[str, Callable[[Value], Value]] = {}
        self._filters: dict[str, Callable[[Value], bool]] = {}

    def register_map(self, name: str, fn: Callable[[Value], Value]) -> "UdfRegistry":
        self._maps[name] = fn
        return self

    def register_filter(self, name: str, fn: Callable[[Value], bool]) -> "UdfRegistry":
        self._filters[name] = fn
        return self

    def map_fn(self, name: str) -> Callable[[Value], Value]:
        try:
            return self._maps[name]
        except KeyError:
            raise UdfError(f"unregistered map function {name!r}") from None

    def filter_fn(self, name: str) -> Callable[[Value], bool]:
        try:
            return self._filters[name]
        except KeyError:
            raise UdfError(f"unregistered filter function {name!r}") from None


class SyntheticUdfRegistry(UdfRegistry):
    """Deterministic stand-ins for any symbol: maps tag values with their
    function name, filters keep a value iff a stable hash is even. Used for
    differential checking when no real implementations exist."""

    def map_fn(self, name):
        if name in self._maps:
            return self._maps[name]
        return lambda v: (name, v)

    def filter_fn(self, name):
        if name in self._filters:
            return self._filters[name]
        return lambda v: zlib.crc32(f"{name}:{format_value(v)}".encode()) % 2 == 0


def synthetic_udfs() -> SyntheticUdfRegistry:
    return SyntheticUdfRegistry()


def _eval_node(t: Term, ticks: int, inputs: TickTrace, udfs: UdfRegistry, memo: dict):
    # memo maps id(t) to (t, output): holding t keeps a temporary desugared
    # term alive, so its id cannot be reused by another term while memo lives
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    op = t.op
    if op == "source":
        out = [inputs.ticks[i].get(t.symbol, ()) for i in range(ticks)]
    elif op == "chain":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        b = _eval_node(t.children[1], ticks, inputs, udfs, memo)
        out = [a[i] + b[i] for i in range(ticks)]
    elif op == "cross":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        b = _eval_node(t.children[1], ticks, inputs, udfs, memo)
        out = [tuple((x, y) for x in a[i] for y in b[i]) for i in range(ticks)]
    elif op == "join":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        b = _eval_node(t.children[1], ticks, inputs, udfs, memo)
        out = []
        for i in range(ticks):
            for v in a[i] + b[i]:
                if not isinstance(v, tuple) or len(v) < 2:
                    raise InterpError(
                        f"join input {format_value(v)} at tick {i + 1} is not a tuple of arity >= 2"
                    )
            out.append(
                tuple(
                    (x[0],) + x[1:] + y[1:]
                    for x in a[i]
                    for y in b[i]
                    if x[0] == y[0]
                )
            )
    elif op == "map":
        fn = udfs.map_fn(t.symbol)
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        out = [tuple(fn(x) for x in a[i]) for i in range(ticks)]
    elif op == "filter":
        fn = udfs.filter_fn(t.symbol)
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        out = [tuple(x for x in a[i] if fn(x)) for i in range(ticks)]
    elif op == "persist":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        acc: tuple = ()
        out = []
        for i in range(ticks):
            acc = acc + a[i]
            out.append(acc)
    elif op == "old":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        acc = ()
        out = []
        for i in range(ticks):
            out.append(acc)
            acc = acc + a[i]
    elif op == "prev":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        out = [() if i == 0 else a[i - 1] for i in range(ticks)]
    elif op == "delta":
        a = _eval_node(t.children[0], ticks, inputs, udfs, memo)
        out = []
        for i in range(ticks):
            previous = Counter(a[i - 1]) if i > 0 else Counter()
            emitted = []
            for v in a[i]:
                if previous[v] > 0:
                    previous[v] -= 1
                else:
                    emitted.append(v)
            out.append(tuple(emitted))
    elif op == "diamond":
        out = _eval_node(desugar(t), ticks, inputs, udfs, memo)
    else:
        raise InterpError(f"cannot evaluate {op!r} outside a diamond")
    memo[id(t)] = (t, out)
    return out


def run(program: ProgramFile, inputs: TickTrace, udfs: Optional[UdfRegistry] = None) -> OutputTrace:
    """Evaluate every sink over the whole trace."""
    udfs = udfs if udfs is not None else UdfRegistry()
    trees = flatten(program)
    for tree in trees.values():
        for n in iter_subterms(tree):
            if n.op == "map":
                udfs.map_fn(n.symbol)
            elif n.op == "filter":
                udfs.filter_fn(n.symbol)
    ticks = len(inputs)
    memo: dict = {}
    per_sink = {name: _eval_node(tree, ticks, inputs, udfs, memo) for name, tree in trees.items()}
    sink_names = tuple(trees)
    out_ticks = tuple({name: per_sink[name][i] for name in sink_names} for i in range(ticks))
    return OutputTrace(sink_names, out_ticks)


@dataclass(frozen=True)
class Divergence:
    tick: int  # 1-based
    sink: str
    mode: str
    left: tuple
    right: tuple

    def __str__(self) -> str:
        if self.mode == "multiset":
            lc, rc = Counter(self.left), Counter(self.right)
            only_left = sorted((lc - rc).elements(), key=value_key)
            only_right = sorted((rc - lc).elements(), key=value_key)
            detail = (
                "only-left {" + " ".join(format_value(v) for v in only_left) + "} "
                "only-right {" + " ".join(format_value(v) for v in only_right) + "}"
            )
        else:
            detail = (
                "left [" + " ".join(format_value(v) for v in self.left) + "] "
                "right [" + " ".join(format_value(v) for v in self.right) + "]"
            )
        return f"tick {self.tick} sink {self.sink}: {detail}"


@dataclass(frozen=True)
class EquivReport:
    equal: bool
    divergence: Optional[Divergence] = None

    def __bool__(self) -> bool:
        return self.equal


def equivalent(
    p1: ProgramFile,
    p2: ProgramFile,
    inputs: TickTrace,
    udfs: Optional[UdfRegistry] = None,
    mode: str = "multiset",
) -> EquivReport:
    """Compare per tick, per sink: as multisets (default) or exact
    sequences; reports the earliest divergence."""
    if mode not in ("multiset", "ordered"):
        raise ValueError(f"unknown mode {mode!r}")
    if set(p1.sinks) != set(p2.sinks):
        raise InterpError("programs have different sink names")
    o1 = run(p1, inputs, udfs)
    o2 = run(p2, inputs, udfs)
    for i in range(len(inputs)):
        for sink in o1.sink_names:
            left, right = o1.ticks[i][sink], o2.ticks[i][sink]
            same = Counter(left) == Counter(right) if mode == "multiset" else left == right
            if not same:
                return EquivReport(False, Divergence(i + 1, sink, mode, left, right))
    return EquivReport(True)


def random_trace(
    sources: list[str],
    ticks: int,
    seed: int = 0,
    batch_max: int = 3,
    keyed: bool = False,
) -> TickTrace:
    """Deterministic-in-seed random trace. Values come from a small integer
    domain so cross/join collisions actually happen; keyed=True draws
    (key, payload) tuples with key in [0, 3] for join inputs."""
    if ticks < 1 or batch_max < 0:
        raise ValueError("need ticks >= 1 and batch_max >= 0")
    rng = random.Random(seed)
    out = []
    for _ in range(ticks):
        tick: dict[str, tuple[Value, ...]] = {}
        for name in sources:
            size = rng.randint(0, batch_max)
            if keyed:
                batch = tuple((rng.randint(0, 3), rng.randint(0, 7)) for _ in range(size))
            else:
                batch = tuple(rng.randint(0, 7) for _ in range(size))
            tick[name] = batch
        out.append(tick)
    return TickTrace(tuple(out))
