"""Attribute reduction for categorical information systems.

The package derives discernibility set families from tables, classifies
attributes as core, relatively necessary, or unnecessary, and constructs
reducts either row by row over the discernibility matrix or through
substitute-family recursion.  A brute-force enumerator of all reducts
backs the fast paths in tests, pairwise attribute relations are computed
from their definitions, and an audit measures a catalog of quantified
claims on any concrete table.
"""

from .characters import (
    AttributeEvidence,
    Character,
    CharacterReport,
    classify_all,
)
from .covering import (
    CoveringSpace,
    SingletonChecks,
    cov_lower,
    covering_from_family,
    minimal_description,
    singleton_equivalences,
)
from .discern import (
    Absorption,
    DiscernibilityMatrix,
    SetFamily,
    absorb,
    canonical_key,
    containing_sets,
    discernibility_matrix,
    family_from_names,
    hits_all,
    reducts_by_expansion,
    substitute_sets,
)
from .errors import InputError, InvariantViolation, ResourceLimitError
from .model import (
    InformationSystem,
    Partition,
    indiscernibility_partition,
    load_table,
    refines,
    set_names,
)
from .reducers import (
    ReductCheck,
    ReductStatus,
    ReductTrace,
    RowwiseStep,
    SelectionPolicy,
    SubstituteStep,
    all_reducts_bruteforce,
    ea_reduce,
    verify_reduct,
    yao_row_wise,
)
from .relations import (
    AuditReport,
    ClaimInstance,
    RelationReport,
    audit_theorems,
    coupled,
    excludes,
    relation_report_from_family,
    relation_report_from_system,
)

__all__ = [
    "AttributeEvidence",
    "Character",
    "CharacterReport",
    "classify_all",
    "CoveringSpace",
    "SingletonChecks",
    "cov_lower",
    "covering_from_family",
    "minimal_description",
    "singleton_equivalences",
    "Absorption",
    "DiscernibilityMatrix",
    "SetFamily",
    "absorb",
    "canonical_key",
    "containing_sets",
    "discernibility_matrix",
    "family_from_names",
    "hits_all",
    "reducts_by_expansion",
    "substitute_sets",
    "InputError",
    "InvariantViolation",
    "ResourceLimitError",
    "InformationSystem",
    "Partition",
    "indiscernibility_partition",
    "load_table",
    "refines",
    "set_names",
    "ReductCheck",
    "ReductStatus",
    "ReductTrace",
    "RowwiseStep",
    "SelectionPolicy",
    "SubstituteStep",
    "all_reducts_bruteforce",
    "ea_reduce",
    "verify_reduct",
    "yao_row_wise",
    "AuditReport",
    "ClaimInstance",
    "RelationReport",
    "audit_theorems",
    "coupled",
    "excludes",
    "relation_report_from_family",
    "relation_report_from_system",
]
