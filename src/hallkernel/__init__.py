"""Alldifferent kernels and Hall partitions of set-valued mappings.

Given a set-valued mapping between finite sets, this package computes its
Hall partition (or a Hall-condition violation witness), the alldifferent
kernel (the submapping of values lying on at least one injective selection),
single selections, and uniqueness tests; a brute-force oracle validates all
of it at desk scale, and a Sudoku propagator applies the per-unit kernel
filter to candidate elimination.
"""

from .mappings import (
    ENUMERATION_CAP,
    SELECTION_CAP,
    DomainError,
    FiniteMapping,
    InvalidMappingError,
    SizeCapError,
    complement,
)
from .partition import (
    ExitKind,
    HallPartition,
    HallViolation,
    check_hall,
    compute_hall_partition,
)
from .kernel import (
    KernelMapping,
    Selection,
    alldifferent_kernel,
    extract_selection,
    has_unique_selection,
    is_alldifferent,
    iter_selections,
    punctured_mapping,
)


def __getattr__(name):
    # The exported names not imported above are the oracle's, which is loaded
    # on first use of one of them (PEP 562), so that importing the package,
    # the CLI included, does not load it.
    if name in __all__:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENUMERATION_CAP",
    "SELECTION_CAP",
    "SUBSET_SCAN_CAP",
    "DomainError",
    "InvalidMappingError",
    "InvalidPartitionError",
    "SizeCapError",
    "FiniteMapping",
    "ExitKind",
    "HallPartition",
    "HallViolation",
    "KernelMapping",
    "Selection",
    "image_of_set",
    "complement",
    "residual",
    "is_critical",
    "is_non_reducible",
    "compute_hall_partition",
    "check_hall",
    "verify_partition",
    "partitions_equal_up_to_renumbering",
    "kernel_from_partition",
    "alldifferent_kernel",
    "is_alldifferent",
    "has_unique_selection",
    "extract_selection",
    "iter_selections",
    "punctured_mapping",
    "enumerate_selections",
    "oracle_kernel",
    "oracle_hall_check",
]

__version__ = "0.1.0"
