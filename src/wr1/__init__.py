"""Weakly reversible single-linkage-class realizations of polynomial ODEs.

The package decides, with exact rational arithmetic, whether a polynomial
dynamical system on the positive orthant is generated by some weakly
reversible reaction network whose graph is a single connected component,
and constructs the maximal such network (with explicit positive rate
constants) whenever one exists.

The names below cover parsing, deciding and inspecting a result; the
building blocks stay importable from their submodules.
"""

from .errors import InternalInvariantViolation, Wr1Error
from .graphs import EGraph, StructureReport, structure_report
from .ingest import PolynomialSystem, SourceDecomposition, decompose, load_decomposition, parse_system
from .realize import Failure, FailureKind, Realization, RealizationReport, SupportProfile, realize_wr1

__all__ = [
    "EGraph",
    "Failure",
    "FailureKind",
    "InternalInvariantViolation",
    "PolynomialSystem",
    "Realization",
    "RealizationReport",
    "SourceDecomposition",
    "StructureReport",
    "SupportProfile",
    "Wr1Error",
    "decompose",
    "load_decomposition",
    "parse_system",
    "realize_wr1",
    "structure_report",
]
