"""ebltl: bounded refinement and event-LTL checking for a small
Event-B-style machine language.

The package parses machine specifications and temporal properties,
explores bounded state spaces, checks refinement obligations and
development-strategy rules over chains, model checks event-based LTL on
finite and infinite executions, and applies certified preservation rules
so that properties verified early in a chain carry to the final machine.
"""

__version__ = "0.1.0"

from .errors import EbltlError  # noqa: F401
from .formulas import Formula, formula_to_text, parse_formula  # noqa: F401
from .ltl import alphabet, holds_on_trace, model_check  # noqa: F401
from .machine_parser import parse_machine, parse_machine_file  # noqa: F401
from .oracle import corpus_root, cross_validate, load_corpus  # noqa: F401
from .preserve import (  # noqa: F401
    apply_lemma_gf, apply_preservation, check_beta_dependent,
    complete_renaming, map_trace, translate_formula,
)
from .refine import (  # noqa: F401
    check_ca, check_refinement_pair, check_strategy, check_theorem1,
    compose_renamings, explore_chain, load_chain,
)
from .semantics import StateGraph, check_deadlock_free, explore, require_feasible  # noqa: F401
from .traces import Trace, project_trace  # noqa: F401
