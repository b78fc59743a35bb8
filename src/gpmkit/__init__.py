"""Modeling and solving generalized problems of moments.

The package builds moment relaxations of optimization problems over
measures with polynomial data: decision variables are measures on
semialgebraic sets, constraints are linear in their moments, and each
relaxation of order r is a semidefinite program over truncated moment
vectors.  Rank conditions on the moment matrices certify global
optimality, in which case discrete optimal measures are extracted.
"""

from .polynomials import (
    PolyError,
    Polynomial,
    VarRef,
    as_polynomial,
    basis_size,
    diff,
    grlex_key,
    monomials,
)
from .model import (
    GPMProblem,
    Measure,
    ModelContext,
    ModelError,
    MomentConstraint,
    MomentExpression,
    Objective,
    SupportConstraint,
    eval_on_support,
    mass,
    maximize,
    minimize,
    mom,
    moment_constraint,
    support_constraint,
)
from .relaxation import (
    AssemblyError,
    AssemblyReport,
    MomentSDP,
    apply_default_mass,
    assemble,
    default_order,
    expression_value,
    extract_substitution_rules,
    format_block_sizes,
    mmat_values,
    mvec,
    mvec_values,
)
from .conic import (
    ConeSpec,
    ConicProblem,
    ConicSolution,
    Reduction,
    SolverParams,
    presolve_eliminate_equalities,
    solve_conic,
    to_conic,
)
from .formats import export_json, export_sdpa, import_json, import_sdpa
from .certify import (
    Certificate,
    GPMSolution,
    certify,
    check_flatness,
    extract_points,
    numeric_rank,
    solve_gpm,
)
from .dsl import ModelSource, ParseError, parse_model, parse_source, pretty

__all__ = [name for name in dir() if not name.startswith("_")]
