"""Size combinatorics of group subsets, made executable.

Exact classifiers for the kappa-indexed size notions (large, thick, small,
normal) on finite groups, reduced-word machinery and constructed cells on
free-group truncations, partition constructions with witness checks, and
exact resolvability search.
"""

from .classify import (
    CoverCellError,
    CoverDecomposition,
    SizeVerdict,
    ball_uncovered_witness,
    find_large_cell,
    is_large,
    is_small,
    is_thick,
    thick_to_large_witness,
)
from .constructions import (
    Partition,
    PartitionError,
    comment2_bset,
    meet_partition,
    rank1_partition,
    rank2_partition,
    s_set,
    split3_partition,
    thm3_partition,
)
from .groups import (
    GroupAxiomError,
    GroupSpecError,
    GroupTable,
    NormalityVerdict,
    Subset,
    build_group,
    conjugacy_class,
    is_kappa_normal,
    normal_closure,
    product_set,
    subset_inverse,
    translate,
)
from .resolvability import ProbeOutcome, SearchOutcome, partition_search, res_search
from .words import (
    Ball,
    WordSetPredicate,
    WordSyntaxError,
    ball_size,
    concat,
    conjugate,
    ds_concat,
    ds_conjugate,
    ds_identity,
    ds_inverse,
    ds_rho,
    ds_support,
    enumerate_ball,
    enumerate_ds_ball,
    first_last,
    first_last2,
    format_word,
    inverse,
    parse_word,
    reduce_word,
    words_over,
)


def __getattr__(name: str):
    # the version literal is report.TOOL_VERSION; it is read on first use so
    # that importing the package does not load report's json, hashlib and
    # datetime imports
    if name == "__version__":
        from .report import TOOL_VERSION

        return TOOL_VERSION
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
