"""Certified decision procedures for tense logic Kt and modal logic KB.

Backward proof search over linear nested sequents returns either a
checker-validated derivation or a model-checked Kripke countermodel; the
metatheory module provides merge, admissible structural rules, and syntactic
cut elimination as executable proof transformations.
"""

from .calculus import CalculusVariant, RuleId
from .formula import desugar, parse, print_ascii, print_unicode
from .metatheory import Derivation, check, cut, generalised_init, merge, to_ktstar, weaken
from .prover import Budget, Invalid, ResourceLimit, Valid, prove, prove_sequent
from .semantics import KripkeModel, bounded_countermodel_search, falsifies, forces
from .sequent import LinearNestedSequent, formula_translation

__version__ = "0.1.0"

__all__ = [
    "Budget", "CalculusVariant", "Derivation", "Invalid", "KripkeModel",
    "LinearNestedSequent", "ResourceLimit", "RuleId", "Valid",
    "bounded_countermodel_search", "check", "cut", "desugar", "falsifies",
    "forces", "formula_translation", "generalised_init", "merge", "parse",
    "print_ascii", "print_unicode", "prove", "prove_sequent", "to_ktstar",
    "weaken",
]
