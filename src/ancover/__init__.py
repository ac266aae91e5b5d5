"""Exact computations with conjugacy classes of alternating groups.

The package computes, in exact arithmetic, products of conjugacy classes
in A_n: Frobenius triple counts, coverage sets and covering numbers, the
character theory needed for them (including the quadratic-irrational
values on split classes), and constructive witness factorizations built
by interval packing and orbit rebuilding.  A brute-force oracle validates
everything at small degree.
"""

from ancover.combinatorics import (
    Partition,
    FrobeniusSymbol,
    SubpartitionKind,
    TypedSubpartition,
    transpose,
    frobenius_symbol,
    is_split_type,
    decompose_subpartitions,
    phi,
    shrink_part,
    enumerate_partitions,
)
from ancover.permutations import (
    Permutation,
    ClassLabel,
    cycle_type,
    class_representative,
    an_class_of,
    an_class_labels,
)
from ancover.characters import (
    AlgebraicValue,
    IrreducibleLabel,
    CharacterTable,
    hook_size,
    an_character_table,
)
from ancover.classalgebra import (
    CoverageReport,
    frobenius_count,
    product_counts,
    power_counts,
    covers,
    covering_number,
)
from ancover.constructor import (
    Interval,
    PackingPlan,
    ValidSequence,
    WitnessPair,
    construct_witnesses,
    cover_with_ncycles,
)

__version__ = "0.1.0"

# Names of ancover.bounds, imported on first access so that importing the
# package does not load that module.
_BOUNDS_NAMES = frozenset(
    {
        "hook_bound",
        "prop24_certificate",
    }
)


def __getattr__(name: str):
    if name in _BOUNDS_NAMES:
        from ancover import bounds

        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
