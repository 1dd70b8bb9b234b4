"""Command line: optimize / check / dump.

Exit codes: 0 ok, 2 usage or parse error, 3 semantic divergence found by
differential checking, 1 saturation limit hit under --strict.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .diamond import desugar
from .egraph import EGraph, SaturationLimits, SaturationReport
from .extract import CostModel, extract_best, term_cost
from .interp import equivalent, random_trace, synthetic_udfs
from .program import ProgramFile, flatten, parse_program, print_program, reform_cse
from .rules import RuleSet, rule_set
from .sexpr import ParseError
from .terms import Term, iter_subterms

EXIT_OK = 0
EXIT_STRICT = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


@dataclass
class OptimizeConfig:
    rules: str = "all"
    limits: SaturationLimits = field(default_factory=SaturationLimits)
    model: CostModel = field(default_factory=CostModel)


@dataclass
class OptimizeResult:
    program: ProgramFile
    report: SaturationReport
    costs_before: dict[str, float]
    costs_after: dict[str, float]


def _saturate_trees(
    trees: dict[str, Term], rules: RuleSet, limits: SaturationLimits
) -> tuple[EGraph, dict[str, int], SaturationReport]:
    """Add all sink trees to one shared graph and saturate it."""
    g = EGraph()
    roots = {name: g.add(t) for name, t in trees.items()}
    report = g.saturate(list(rules.rewrites), limits)
    return g, roots, report


def optimize_trees(
    trees: dict[str, Term], rules: RuleSet, limits: SaturationLimits, model: CostModel
) -> tuple[dict[str, Term], SaturationReport]:
    """Saturate all sink trees in one shared graph, then extract all roots in
    one pass."""
    g, roots, report = _saturate_trees(trees, rules, limits)
    best = extract_best(g, list(roots.values()), model)
    return dict(zip(roots, best)), report


def _sink_trees(program: ProgramFile, rules: str) -> dict[str, Term]:
    """The flattened sink trees that saturation under `rules` starts from.

    Only the diamond catalog reads the diamond encoding. The plain catalogs
    get every diamond desugared, so their laws never match inside a zipper
    half; the duplicated shared child is one class in the e-graph, and
    reform_cse prints it back as one def."""
    trees = flatten(program)
    if rules == "diamond":
        return trees
    return {name: desugar(t) for name, t in trees.items()}


def optimize_program(program: ProgramFile, config: OptimizeConfig) -> OptimizeResult:
    trees = _sink_trees(program, config.rules)
    model = config.model
    best, report = optimize_trees(trees, rule_set(config.rules), config.limits, model)
    result = reform_cse(best, program.sources)
    return OptimizeResult(
        program=result,
        report=report,
        costs_before={n: term_cost(t, model) for n, t in trees.items()},
        costs_after={n: term_cost(t, model) for n, t in best.items()},
    )


def _trace_sources(programs: list[ProgramFile]) -> tuple[list[str], bool]:
    names: dict[str, None] = {}
    keyed = False
    for p in programs:
        for tree in flatten(p).values():
            for n in iter_subterms(tree):
                if n.op == "source":
                    names.setdefault(n.symbol)
                elif n.op == "join":
                    keyed = True
    return list(names), keyed


def run_checks(p1: ProgramFile, p2: ProgramFile, traces: int, ticks: int, seed: int):
    """Yield (trace index, EquivReport) for each random trace."""
    sources, keyed = _trace_sources([p1, p2])
    udfs = synthetic_udfs()
    for i in range(traces):
        trace = random_trace(sources, ticks, seed=seed + i, keyed=keyed)
        yield i, equivalent(p1, p2, trace, udfs)


def parse_weights_config(text: str) -> dict[str, float]:
    """Config file format: one `op = weight` per line; ; comments allowed."""
    weights: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'op = weight'")
        op, _, val = line.partition("=")
        try:
            weights[op.strip()] = float(val)
        except ValueError:
            raise ValueError(f"line {lineno}: weight {val.strip()!r} is not a number") from None
    return weights


def _build_model(args) -> CostModel:
    weights = CostModel().op_weights
    if getattr(args, "weights_file", None):
        with open(args.weights_file, encoding="utf-8") as fh:
            weights.update(parse_weights_config(fh.read()))
    for item in getattr(args, "weight", None) or ():
        try:
            weights.update(parse_weights_config(item))
        except ValueError as e:
            raise ValueError(f"--weight {item!r}: {e}") from None
    return CostModel(op_weights=weights)


def _report_lines(result: OptimizeResult, fmt: str) -> list[str]:
    lines = []
    if fmt == "lines":
        for name in result.costs_before:
            lines.append(f"sink.{name}.cost_before={result.costs_before[name]:g}")
            lines.append(f"sink.{name}.cost_after={result.costs_after[name]:g}")
        lines.extend(result.report.to_lines().splitlines())
    else:
        for name in result.costs_before:
            lines.append(
                f"sink {name}: cost {result.costs_before[name]:g} -> {result.costs_after[name]:g}"
            )
        lines.append(
            f"saturation: iterations={result.report.iterations} enodes={result.report.enodes} "
            f"eclasses={result.report.eclasses} stop={result.report.stop_reason}"
        )
        applied = " ".join(f"{k}={v}" for k, v in result.report.rule_counts.items() if v)
        lines.append(f"applied: {applied or 'none'}")
    return lines


def _load_program(path: str) -> ProgramFile:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())


def cmd_optimize(args) -> int:
    program = _load_program(args.program)
    config = OptimizeConfig(
        rules=args.rules,
        limits=SaturationLimits(args.max_iters, args.max_nodes, args.max_millis),
        model=_build_model(args),
    )
    result = optimize_program(program, config)
    text = print_program(result.program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in _report_lines(result, args.format):
        print(line, file=sys.stderr)
    status = EXIT_OK
    if result.report.stop_reason != "saturated":
        print(f"warning: saturation stopped early ({result.report.stop_reason})", file=sys.stderr)
        if args.strict:
            status = EXIT_STRICT
    if args.check:
        failures = 0
        for i, rep in run_checks(program, result.program, args.check, args.ticks, args.seed):
            if not rep:
                failures += 1
                print(f"check: trace {i + 1} DIVERGED: {rep.divergence}", file=sys.stderr)
        print(f"check: {args.check - failures}/{args.check} traces equivalent", file=sys.stderr)
        if failures:
            return EXIT_DIVERGED
    return status


def cmd_check(args) -> int:
    p1 = _load_program(args.program_a)
    p2 = _load_program(args.program_b)
    if set(p1.sinks) != set(p2.sinks):
        print("error: programs have different sink names", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for i, rep in run_checks(p1, p2, args.traces, args.ticks, args.seed):
        if rep:
            print(f"trace {i + 1}: ok")
        else:
            failures += 1
            print(f"trace {i + 1}: DIVERGED at {rep.divergence}")
    print(f"{args.traces - failures}/{args.traces} traces equivalent")
    return EXIT_DIVERGED if failures else EXIT_OK


def cmd_dump(args) -> int:
    trees = _sink_trees(_load_program(args.program), args.rules)
    limits = SaturationLimits(args.max_iters, args.max_nodes, args.max_millis)
    g, roots, report = _saturate_trees(trees, rule_set(args.rules), limits)
    for name, root in roots.items():
        print(f"; sink {name} -> class {g.find(root)}")
    sys.stdout.write(g.dump())
    print(report.to_lines())
    return EXIT_OK


def _trace_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"trace count must be >= 0, got {n}")
    return n


def _tick_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"tick count must be >= 1, got {n}")
    return n


def _add_saturation_flags(p: argparse.ArgumentParser):
    p.add_argument("--rules", default="all", choices=["core", "join", "unary", "diamond", "all"])
    p.add_argument("--max-iters", type=int, default=SaturationLimits.max_iters)
    p.add_argument("--max-nodes", type=int, default=SaturationLimits.max_nodes)
    p.add_argument("--max-millis", type=int, default=SaturationLimits.max_millis)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize a program file")
    p_opt.add_argument("program")
    p_opt.add_argument("-o", "--output", help="write optimized program here instead of stdout")
    _add_saturation_flags(p_opt)
    p_opt.add_argument("--weight", action="append", default=[], metavar="OP=N")
    p_opt.add_argument("--weights-file", help="file of 'op = weight' lines")
    p_opt.add_argument("--check", type=_trace_count, default=0, metavar="N",
                       help="differentially check against N random traces")
    p_opt.add_argument("--ticks", type=_tick_count, default=10)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--strict", action="store_true",
                       help="fail if saturation hits a limit before fixpoint")
    p_opt.add_argument("--format", default="text", choices=["text", "lines"])
    p_opt.set_defaults(fn=cmd_optimize)

    p_chk = sub.add_parser("check", help="differentially test two program files")
    p_chk.add_argument("program_a")
    p_chk.add_argument("program_b")
    p_chk.add_argument("--traces", type=_trace_count, default=10)
    p_chk.add_argument("--ticks", type=_tick_count, default=10)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(fn=cmd_check)

    p_dmp = sub.add_parser("dump", help="saturate and dump the e-graph")
    p_dmp.add_argument("program")
    _add_saturation_flags(p_dmp)
    p_dmp.set_defaults(fn=cmd_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: program nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
