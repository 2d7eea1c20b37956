"""Axiomatic verification toolkit for single-winner voting rules.

The package implements a family of voting rules (pure majority, quorum and
supermajority variants, the two-option sign rule), exhaustive black-box
checkers for symmetry, neutrality, tie-ballot invariance, consistency and
tie-escapability axioms with minimal counterexample witnesses, an
order-aggregation setting with a dictatorship search at desk scale, and
enumeration engines that list every rule family satisfying a chosen axiom
set within explicit bounds.
"""

__version__ = "0.1.0"

from .core import (
    Alphabet,
    AltPermutation,
    BoundError,
    HorizonError,
    Profile,
    RuleDomainError,
    Tally,
    VoteLabError,
    VoterPermutation,
    apply_alt_permutation,
    apply_voter_permutation,
    extend,
    signature,
    strict_plurality,
    tally,
)
from .rules import (
    FunctionRule,
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    RuleFamily,
    SupermajorityRule,
    TabulatedFamily,
    TabulatedRule,
    pure_majority_table,
)
from .axioms import AuditReport, CheckResult, ReplayResult, Witness, audit, replay_main_proof
from .enumeration import (
    FamilySet,
    MayFunctionTable,
    enumerate_c_families,
    enumerate_may_functions,
    maximal_elements,
    rule_leq,
)

# The ``arrow`` module and its names are loaded on first use, so the voting
# rules and audits never pay for the order-aggregation setting.
_ARROW_NAMES = ("WeakOrder", "arrow_search", "enumerate_weak_orders", "find_dictator")


def __getattr__(name: str):
    if name == "arrow" or name in _ARROW_NAMES:
        import importlib

        arrow = importlib.import_module(".arrow", __name__)
        return arrow if name == "arrow" else getattr(arrow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Alphabet",
    "AltPermutation",
    "AuditReport",
    "BoundError",
    "CheckResult",
    "FamilySet",
    "FunctionRule",
    "HorizonError",
    "MayFunctionTable",
    "MaySignRule",
    "Profile",
    "PureMajorityRule",
    "QuorumRule",
    "ReplayResult",
    "RuleDomainError",
    "RuleFamily",
    "SupermajorityRule",
    "TabulatedFamily",
    "TabulatedRule",
    "Tally",
    "VoteLabError",
    "VoterPermutation",
    "WeakOrder",
    "Witness",
    "apply_alt_permutation",
    "apply_voter_permutation",
    "arrow_search",
    "audit",
    "enumerate_c_families",
    "enumerate_may_functions",
    "enumerate_weak_orders",
    "extend",
    "find_dictator",
    "maximal_elements",
    "pure_majority_table",
    "replay_main_proof",
    "rule_leq",
    "signature",
    "strict_plurality",
    "tally",
]
