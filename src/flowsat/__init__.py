"""flowsat: equality-saturation optimizer for a stateful streaming-dataflow
term language, with a reference tick interpreter as differential oracle."""

from .diamond import DiamondError, desugar, diamond_rules, hoist_rule, inline_rule, shift_rules
from .egraph import (
    EGraph,
    Rewrite,
    SaturationLimits,
    SaturationReport,
    parse_pattern,
)
from .extract import CostModel, ExtractionError, extract_best, term_cost
from .interp import (
    Divergence,
    EquivReport,
    InterpError,
    OutputTrace,
    TickTrace,
    UdfError,
    UdfRegistry,
    equivalent,
    random_trace,
    run,
    synthetic_udfs,
)
from .program import (
    ProgramFile,
    flatten,
    parse_program,
    print_program,
    reform_cse,
    single_sink_program,
)
from .rules import RuleSet, core_rules, join_rules, rule_set, unary_rules
from .sexpr import ParseError
from .terms import Term, parse_term, print_term

__version__ = "0.1.0"
