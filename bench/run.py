"""flowsat benchmark: one closed-loop, single-threaded batch benchmark.

    python3 bench/run.py --workload examples --seed 1 --seconds 20 --trace 0

Run from the root of a flowsat checkout; flowsat is imported from its
`src/` directory. An operation takes one program of the workload's batch
through what a user of `flowsat optimize --check` pays for: parse,
optimize, differential check, and a replay of the input and the
optimized program on a longer trace. Operations cycle through the batch
until `--seconds` have passed and at least one whole pass is done.

`--trace 0` prints the end-to-end metrics, `--trace 1` one untraced pass,
one traced pass and the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Earlier
lines are the human-readable report. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = wl.BENCH_DIR.parent
WORKLOADS = ("examples", "random_programs", "diamonds", "replay")
SETUP_REPEATS = 5
TIME_LIMIT_MILLIS = 3_600_000  # no run may stop on time: that would tie outputs to machine speed

# The speed of a shared machine drifts by tens of percent within a minute.
# Every reported time is therefore normalized by a fixed pure-Python
# reference kernel timed all through the run: time * REF_SECONDS / (mean
# kernel time sampled while it was measured). REF_SECONDS is set so that
# on the machine the bounds were set on, normalized times of `examples`
# read about as plain seconds.
REF_SECONDS = 0.0022
REF_EVERY_S = 0.1

_KERNEL_KEYS = [(i % 89, i % 11, "k") for i in range(3000)]
_KERNEL_TABLE = {k: i for i, k in enumerate(_KERNEL_KEYS)}


def reference_kernel() -> int:
    """Fixed dict-lookup, tuple-hashing and integer work, like the e-graph's
    inner loops. It creates no object the garbage collector tracks, so
    sampling does not move the collector's schedule in the measured work."""
    table = _KERNEL_TABLE
    total = 0
    for _ in range(5):
        for k in _KERNEL_KEYS:
            v = table[k]
            if v & 1:
                total += v % 7
            else:
                total ^= v
    return total


class SpeedProbe:
    """Times the reference kernel every REF_EVERY_S from a SIGALRM handler,
    so also inside long operations, and keeps a clock that leaves the
    kernel's own time out."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter at the end of each sample
        self.samples: list[float] = []  # kernel seconds
        self.spent = 0.0  # seconds spent sampling

    def start(self):
        self.sample()  # a first sample, so that even work shorter than REF_EVERY_S has one
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            reference_kernel()
            k1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(k1 - k0)
        self.stamps.append(k1)
        self.spent += time.perf_counter() - t0

    def now(self) -> float:
        """perf_counter minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def factor(self, start: float, end: float) -> float:
        """REF_SECONDS over the mean kernel time sampled from one interval
        before `start` to one after `end`, or next to it if none was."""
        lo = bisect.bisect_left(self.stamps, start - REF_EVERY_S)
        hi = bisect.bisect_right(self.stamps, end + REF_EVERY_S)
        window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return REF_SECONDS * len(window) / sum(window)


class SetupError(Exception):
    pass


def load_flowsat():
    """Import flowsat afresh from this checkout's src/ (set-up pays for the import)."""
    src = ROOT / "src"
    if not (src / "flowsat" / "__init__.py").is_file():
        raise SetupError(f"no flowsat sources under {src}")
    for name in [m for m in sys.modules if m == "flowsat" or m.startswith("flowsat.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    fs = importlib.import_module("flowsat")
    importlib.import_module("flowsat.cli")
    if Path(fs.__file__).resolve().parent != src / "flowsat":
        raise SetupError(f"imported flowsat from {fs.__file__}, not from {src}")
    return fs


# -------------------------------------------------------------------- set-up


def draw_cases(fs, workload: str, seed: int) -> list[wl.Case]:
    """The workload's batch. Generated programs are drawn slot by slot (the
    slot index picks the program's shape and the band of its input cost)
    until one falls in that cost band and takes a number of interpretation
    steps within wl.STEPS_BAND on its replay trace."""
    if workload in ("examples", "replay"):
        return wl.example_cases(ROOT, with_fixtures=workload == "replay")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "random_programs":
        draw, size, (ticks, per_tick) = wl.random_program, wl.RANDOM_BATCH, wl.RANDOM_REPLAY
        bands = wl.COST_BANDS
    else:
        draw, size, (ticks, per_tick) = wl.diamond_program, wl.DIAMOND_BATCH, wl.DIAMOND_REPLAY
        bands = ((0, float("inf")),)
    udfs = fs.synthetic_udfs()
    cases = []
    for slot in range(size):
        for attempt in range(wl.MAX_DRAWS):
            text = draw(rng, slot)
            program = fs.parse_program(text)
            low, high = bands[slot // 6 % len(bands)]
            cost = sum(fs.term_cost(t, fs.CostModel()) for t in fs.flatten(program).values())
            if not low <= cost < high:
                continue
            sources, keyed = trace_inputs(fs, program)
            trace = wl.deck_trace(fs, sources, ticks, per_tick, keyed, random.Random(f"{seed}:{slot}:{attempt}"))
            steps = interpretation_steps(fs, program, trace, udfs)
            if wl.STEPS_BAND[0] <= steps <= wl.STEPS_BAND[1]:
                case = wl.Case(f"{workload[0]}{slot}", text, ticks, per_tick)
                case.replay_trace = trace
                cases.append(case)
                break
        else:
            raise SetupError(f"{workload}: no program for slot {slot} within {wl.MAX_DRAWS} draws")
    return cases


def trace_inputs(fs, program) -> tuple[list[str], bool]:
    """Source names of a program, and whether it joins (then values are keyed)."""
    names: dict[str, None] = {}
    keyed = False
    for tree in fs.flatten(program).values():
        for n in fs.terms.iter_subterms(tree):
            if n.op == "source":
                names.setdefault(n.symbol)
            keyed = keyed or n.op == "join"
    return list(names), keyed


def setup(workload: str, seed: int):
    """Import flowsat, build the batch from the seed, parse every program,
    and make each case's replay trace. For `replay`, validate each fixture
    against its input with `equivalent`."""
    fs = load_flowsat()
    settings = wl.SETTINGS[workload]
    cases = draw_cases(fs, workload, seed)
    udfs = fs.synthetic_udfs()
    for i, case in enumerate(cases):
        program = fs.parse_program(case.text)
        case.sources, case.keyed = trace_inputs(fs, program)
        if case.replay_trace is None:
            case.replay_trace = wl.deck_trace(
                fs, case.sources, case.replay_ticks, case.replay_per_tick, case.keyed,
                random.Random(f"replay:{seed}:{i}"),
            )
        if case.fixture is not None:
            fixture = fs.parse_program(case.fixture)
            for k in range(settings.check_traces):
                trace = fs.random_trace(case.sources, settings.check_ticks, seed=k, keyed=case.keyed)
                if not fs.equivalent(program, fixture, trace, udfs):
                    raise SetupError(f"fixture {case.name} diverges from its input")
            case.fixture_program = fixture
    return fs, settings, cases


# ---------------------------------------------------------------- operations


def evaluated_nodes(fs, program) -> list:
    """Distinct nodes the interpreter materializes, by identity (a tee
    counts once); a diamond is replaced by its desugared form, as the
    interpreter evaluates it."""
    seen: dict[int, object] = {}
    stack = list(fs.flatten(program).values())
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        stack.extend([fs.desugar(t)] if t.op == "diamond" else t.children)
    return [t for t in seen.values() if t.op != "diamond"]


def _probe(fs, program, trace, udfs):
    """Run every distinct evaluated node as its own sink: (nodes, per-tick outputs by sink)."""
    nodes = evaluated_nodes(fs, program)
    probe = fs.ProgramFile(sinks={f"n{i}": t for i, t in enumerate(nodes)})
    return nodes, fs.run(probe, trace, udfs)


def materialized(fs, program, traces, udfs) -> int:
    """Values emitted over all ticks by every distinct subterm, each run as a sink."""
    total = 0
    for trace in traces:
        _, out = _probe(fs, program, trace, udfs)
        total += sum(len(vals) for tick in out.ticks for vals in tick.values())
    return total


def interpretation_steps(fs, program, trace, udfs) -> int:
    """A machine-independent measure of the interpreter's work on a trace:
    per node and tick, values read from its inputs plus values emitted; for
    a join every pair of input values it compares; for a filter the
    characters of each input value printed (synthetic predicates hash the
    printed value)."""
    nodes, out = _probe(fs, program, trace, udfs)
    sink_of = {id(t): f"n{i}" for i, t in enumerate(nodes)}
    steps = 0
    for tick in out.ticks:
        for t in nodes:
            sizes = [len(tick[sink_of[id(c)]]) for c in t.children if id(c) in sink_of]
            steps += len(tick[sink_of[id(t)]]) + sum(sizes)
            if t.op == "join":
                steps += sizes[0] * sizes[1]
            elif t.op == "filter":
                values = tick[sink_of[id(t.children[0])]]
                steps += sum(len(fs.interp.format_value(v)) for v in values)
    return steps


def same_outputs(a, b) -> bool:
    return all(
        Counter(ta[s]) == Counter(tb[s]) for ta, tb in zip(a.ticks, b.ticks) for s in a.sink_names
    )


class Failure(Exception):
    pass


PHASES = ("optimize", "check", "replay_input", "replay_optimized")
# Check and replay are short next to optimize and allocate heavily, so one
# timing of them is at the mercy of the collector and of a neighbour's
# memory traffic: each is repeated (3 to 15 times, until 1 s is spent)
# and the median kept.
PHASE_REPEATS = (3, 15)
PHASE_MIN_S = 1.0


def timed(rec: dict, phase: str, clock, fn, repeat: bool = False):
    """Run fn, store its time in rec[phase] and its wall-clock span in
    rec["spans"][phase], and return its (last) result. With `repeat`, call
    it at least PHASE_REPEATS[0] and at most PHASE_REPEATS[1] times,
    stopping once PHASE_MIN_S has been spent, and store the median."""
    gc.collect()
    start = time.perf_counter()
    times = []
    while not times or repeat and (
        len(times) < PHASE_REPEATS[0] or (len(times) < PHASE_REPEATS[1] and sum(times) < PHASE_MIN_S)
    ):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    rec[phase] = statistics.median(times)
    rec["spans"][phase] = (start, time.perf_counter())
    return out


def operation(fs, settings, case, udfs, count_work: bool, clock) -> dict:
    """Optimize, gate, check and replay one program; returns timings and outcomes.

    Raises Failure when a gate fails: a time-limit stop, a cost above the
    input's, or a divergence on a check or replay trace.
    """
    rec: dict = {"name": case.name, "spans": {}}
    config = fs.cli.OptimizeConfig(
        rules=settings.rules,
        limits=fs.SaturationLimits(max_nodes=settings.max_nodes, max_millis=TIME_LIMIT_MILLIS),
    )

    def optimize():
        program = fs.program.parse_program(case.text)
        return program, fs.cli.optimize_program(program, config)

    program, result = timed(rec, "optimize", clock, optimize)
    report = result.report
    rec["stop"] = report.stop_reason
    rec["enodes"], rec["eclasses"], rec["iterations"] = report.enodes, report.eclasses, report.iterations
    rec["rule_counts"] = dict(report.rule_counts)
    rec["cost_before"] = sum(result.costs_before.values())
    rec["cost_after"] = sum(result.costs_after.values())
    if report.stop_reason == "time-limit":
        raise Failure(f"{case.name}: saturation stopped on time-limit")
    worse = [s for s, c in result.costs_after.items() if c > result.costs_before[s]]
    if worse:
        raise Failure(f"{case.name}: cost rose on sink(s) {worse}")

    traces = [
        fs.interp.random_trace(case.sources, settings.check_ticks, seed=k, keyed=case.keyed)
        for k in range(settings.check_traces)
    ]
    reports = timed(
        rec, "check", clock,
        lambda: [fs.interp.equivalent(program, result.program, t, udfs) for t in traces], repeat=True,
    )
    for k, rep in enumerate(reports):
        if not rep:
            raise Failure(f"{case.name}: check trace {k} diverged: {rep.divergence}")

    replayed = case.fixture_program or result.program
    out_in = timed(rec, "replay_input", clock, lambda: fs.interp.run(program, case.replay_trace, udfs), repeat=True)
    out_opt = timed(
        rec, "replay_optimized", clock, lambda: fs.interp.run(replayed, case.replay_trace, udfs), repeat=True
    )
    if not same_outputs(out_in, out_opt):
        raise Failure(f"{case.name}: replay outputs differ")
    if count_work:
        rec["values_input"] = materialized(fs, program, traces, udfs)
        rec["values_optimized"] = materialized(fs, replayed, traces, udfs)
    return rec


def run_ops(fs, settings, cases, deadline: float, min_ops: int, probe: SpeedProbe, tracer=None):
    """Cycle through the batch until the deadline has passed and at least
    `min_ops` operations ran. Returns (records, failures); the phase times
    in the records are normalized by the probe."""
    udfs = fs.synthetic_udfs()
    records, failures = [], []
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.op = i
        try:
            rec = operation(fs, settings, case, udfs, i < len(cases) and tracer is None, probe.now)
        except Failure as e:
            failures.append(str(e))
            rec = None
        except Exception as e:  # an operation that raises counts as failed; the run goes on
            failures.append(f"{case.name}: {type(e).__name__}: {e}")
            rec = None
        records.append((i, case.name, rec))
        i += 1
    return records, failures


def normalize(records, probe: SpeedProbe):
    for _, _, rec in records:
        if rec is not None:
            for phase in PHASES:
                rec[phase] *= probe.factor(*rec["spans"][phase])


# ------------------------------------------------------------------- metrics


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def per_program_medians(records, field: str) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for _, name, rec in records:
        if rec is not None:
            samples.setdefault(name, []).append(rec[field])
    return {name: statistics.median(v) for name, v in samples.items()}


def end_to_end(records, failures, n_cases, setup_times) -> dict:
    first = [rec for i, _, rec in records if i < n_cases and rec is not None]
    compile_ms = sorted(1000 * t for t in per_program_medians(records, "optimize").values())
    # Geometric mean of per-program ratios: a ratio of batch totals is
    # carried by the few generated programs that materialize ten times the
    # average, and moved by 15% from seed to seed. One is added to each
    # count so that a program materializing nothing reads as 1.
    work_ratio = statistics.geometric_mean(
        [(r["values_input"] + 1) / (r["values_optimized"] + 1) for r in first]
    )
    attempted = len(records)

    def batch(field):  # one pass over the batch
        return (sum(per_program_medians(records, field).values()), "s")

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "optimize_s": batch("optimize"),
        "optimize_p50_ms": (statistics.median(compile_ms), "ms"),
        "optimize_p95_ms": (percentile(compile_ms, 0.95), "ms"),
        "check_s": batch("check"),
        "replay_input_s": batch("replay_input"),
        "replay_optimized_s": batch("replay_optimized"),
        "best_cost_total": (sum(r["cost_after"] for r in first), "cost"),
        "work_ratio": (work_ratio, "ratio"),
        "passed_share": ((attempted - len(failures)) / attempted, "share"),
        "enodes_total": (sum(r["enodes"] for r in first), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, fs, records, untraced, overhead: float) -> dict:
    recs = [rec for _, _, rec in records if rec is not None]
    counts = Counter()
    for rec in recs:
        counts.update(rec["rule_counts"])
    matches = tracer.matches
    applications = sum(counts.values())
    stops = Counter(rec["stop"] for rec in recs)
    diamond_rules = {r.name for r in fs.diamond_rules().rewrites if r.applier is not None}
    total, self_time = tracer.total, tracer.self_time
    cli_self = self_time["cli.optimize_program"] + self_time["cli.optimize_trees"]
    m = {
        "egraph.saturate_s": (total["egraph.saturate"], "s"),
        "egraph.saturate_self_s": (self_time["egraph.saturate"], "s"),
        "egraph.ematch_self_s": (self_time["egraph.ematch"], "s"),
        "egraph.ematch_calls": (tracer.calls["egraph.ematch"], "count"),
        "egraph.matches": (matches, "count"),
        "egraph.instantiate_s": (total["egraph.instantiate"], "s"),
        "egraph.rebuild_s": (total["egraph.rebuild"], "s"),
        "egraph.add_s": (total["egraph.add"], "s"),
        "egraph.applications": (applications, "count"),
        "egraph.useful_ratio": (applications / matches if matches else 0.0, "ratio"),
        "egraph.enodes": (sum(r["enodes"] for r in recs), "count"),
        "egraph.eclasses": (sum(r["eclasses"] for r in recs), "count"),
        "egraph.iterations": (sum(r["iterations"] for r in recs), "count"),
    }
    for reason in ("saturated", "node-limit", "iteration-limit", "time-limit"):
        m[f"egraph.stop.{reason.replace('-', '_')}"] = (stops[reason], "count")
    for group in tr.RULE_GROUPS:
        names = [n for n, g in tracer.group_of.items() if g == group]
        m[f"rules.{group}.matched"] = (sum(tracer.rule_matches[n] for n in names), "count")
        m[f"rules.{group}.applied"] = (sum(counts[n] for n in names), "count")
    m["rules.delta-persist.rev.matched"] = (tracer.rule_matches["delta-persist.rev"], "count")
    m["rules.delta-persist.rev.applied"] = (counts["delta-persist.rev"], "count")
    m["rules.rule_set_s"] = (total["rules.rule_set"], "s")
    m["diamond.applier_s"] = (total["diamond.applier"], "s")
    m["diamond.applier_calls"] = (tracer.calls["diamond.applier"], "count")
    m["diamond.applications"] = (sum(counts[n] for n in diamond_rules), "count")
    m["extract.extract_best_s"] = (total["extract.extract_best"], "s")
    m["program.parse_s"] = (total["program.parse"], "s")
    m["program.flatten_s"] = (total["program.flatten"], "s")
    m["program.reform_cse_s"] = (total["program.reform_cse"], "s")
    m["sexpr.read_forms_s"] = (total["sexpr.read_forms"], "s")
    m["terms.term_from_sexpr_s"] = (total["terms.term_from_sexpr"], "s")
    m["cli.optimize_s"] = (total["cli.optimize_program"], "s")
    m["cli.self_s"] = (cli_self, "s")
    m["interp.run_s"] = (total["interp.run"], "s")
    m["interp.equivalent_s"] = (total["interp.equivalent"], "s")
    m["interp.random_trace_s"] = (total["interp.random_trace"], "s")
    first = [rec for i, _, rec in untraced if rec is not None and "values_input" in rec]
    m["interp.values_input"] = (sum(r["values_input"] for r in first), "count")
    m["interp.values_optimized"] = (sum(r["values_optimized"] for r in first), "count")
    m["trace.overhead_share"] = (overhead, "share")
    m["trace.spans"] = (len(tracer.span_id), "count")
    return m


def phase_time(records) -> float:
    return sum(rec[p] for _, _, rec in records if rec is not None for p in PHASES)


# -------------------------------------------------------------------- report


def print_rows(records, n_cases, workload):
    first = [(name, rec) for i, name, rec in records if i < n_cases]
    if workload in ("examples", "replay"):
        print(f"{'program':16} {'cost':>11} {'stop':>11} {'enodes':>7} {'opt_s':>7} "
              f"{'check_s':>8} {'replay_in_s':>11} {'replay_opt_s':>12} {'values_in':>10} {'values_opt':>10}")
        for name, rec in first:
            if rec is None:
                print(f"{name:16} FAILED")
                continue
            print(
                f"{name:16} {rec['cost_before']:>5g}->{rec['cost_after']:<4g} {rec['stop']:>11} "
                f"{rec['enodes']:>7} {rec['optimize']:>7.3f} {rec['check']:>8.4f} "
                f"{rec['replay_input']:>11.4f} {rec['replay_optimized']:>12.4f} "
                f"{rec.get('values_input', 0):>10} {rec.get('values_optimized', 0):>10}"
            )
    else:
        stops = Counter(rec["stop"] for _, rec in first if rec is not None)
        print(f"batch of {n_cases} generated programs; stops: {dict(stops)}")


def print_metrics(metrics: dict, directions: dict):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({directions.get(name, '')})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    probe = SpeedProbe()
    probe.start()
    try:
        return run_one(args, probe)
    finally:
        probe.stop()


def run_all(args) -> int:
    """Run every workload in a process of its own and print the metrics side by side."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':32} {'unit':6} " + " ".join(f"{w:>15}" for w in WORKLOADS))
    for name in names:
        cells = [results[w]["metrics"][name] for w in WORKLOADS]
        print(f"{name:32} {cells[0]['unit']:6} " + " ".join(f"{c['value']:>15.6g}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def run_one(args, probe: SpeedProbe) -> int:
    setup_raw = []
    try:
        for _ in range(SETUP_REPEATS):
            t0, c0 = time.perf_counter(), probe.now()
            fs, settings, cases = setup(args.workload, args.seed)
            setup_raw.append((probe.now() - c0, t0, time.perf_counter()))
        probe.sample()  # set-up may end before the timer's first sample
    except (SetupError, OSError) as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 2
    gc.freeze()  # the batch stays alive for the run; keep it out of every collection
    setup_times = [t * probe.factor(s, e) for t, s, e in setup_raw]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.trace:
        untraced, fail_a = run_ops(fs, settings, cases, 0, len(cases), probe)
        # No samples inside traced spans: the pass is normalized by the
        # samples taken just before and just after it.
        probe.stop()
        probe.sample()
        t = tr.Tracer(fs)
        t.install()
        try:
            traced_recs, fail_b = run_ops(fs, settings, cases, 0, len(cases), probe, tracer=t)
        finally:
            t.restore()
        probe.sample()
        overhead = phase_time(traced_recs) / phase_time(untraced) - 1  # raw times, back to back
        metrics = per_layer(t, fs, traced_recs, untraced, overhead)
        records, failures = untraced + traced_recs, fail_a + fail_b
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        applied = Counter()
        for _, _, r in traced_recs:
            if r:
                applied.update(r["rule_counts"])
        rules = {n: {"matched": t.rule_matches[n], "applied": applied[n]} for n in sorted(applied)}
        t.write(out, {"rules": rules})
        print(f"{'rule':24} {'group':8} {'matched':>9} {'applied':>9}")
        for n, row in rules.items():
            print(f"{n:24} {t.group_of.get(n, '?'):8} {row['matched']:>9} {row['applied']:>9}")
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        deadline = time.perf_counter() + args.seconds
        records, failures = run_ops(fs, settings, cases, deadline, len(cases), probe)
        probe.stop()
        normalize(records, probe)
        metrics = end_to_end(records, failures, len(cases), setup_times)
        print_rows(records, len(cases), args.workload)

    for f in failures:
        print(f"FAILED {f}")
    print(f"workload={args.workload} seed={args.seed} operations={len(records)} "
          f"failed={len(failures)} setup_runs={len(setup_times)} "
          f"machine_slowness={statistics.median(probe.samples) / REF_SECONDS:.3f}")
    print_metrics(metrics, directions)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
