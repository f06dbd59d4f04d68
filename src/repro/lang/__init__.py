"""Language layer: terms, atoms, rules, parsing and validation.

This package defines the abstract syntax of temporal deductive databases
(Section 3.1 of Chomicki, PODS 1990) and a parser for the paper's concrete
rule syntax.  Everything above (the Datalog and temporal engines, the
relational-specification machinery) is built on these types.
"""

from .atoms import Atom, Fact
from .dates import date_of, day_number, day_range
from .errors import (ClassificationError, EvaluationError, ParseError,
                     ReproError, SortError, ValidationError)
from .parse import is_variable_name, parse_raw, tokenize
from .pretty import format_facts, format_program, format_rules
from .rules import Rule, validate_rule, validate_rules
from .sorts import ParsedProgram, parse_facts, parse_program, parse_rules
from .spans import Span
from .subst import (Binding, apply_to_atom, instantiate_head, join,
                    match_atom)
from .terms import Const, DataTerm, TimeTerm, Var, ground_time, time_var

__all__ = [
    "Atom", "Fact", "Rule", "Span", "Const", "Var", "TimeTerm", "DataTerm",
    "ground_time", "time_var",
    "parse_program", "parse_rules", "parse_facts", "ParsedProgram",
    "parse_raw", "tokenize", "is_variable_name",
    "format_rules", "format_facts", "format_program",
    "validate_rule", "validate_rules",
    "Binding", "match_atom", "apply_to_atom", "instantiate_head", "join",
    "ReproError", "ParseError", "SortError", "ValidationError",
    "EvaluationError", "ClassificationError",
    "day_number", "day_range", "date_of",
]
