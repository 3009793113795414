"""Size combinatorics of group subsets, made executable.

Exact classifiers for the kappa-indexed size notions (large, thick, small)
on finite groups, reduced-word machinery and constructed cells on
free-group truncations, partition constructions with witness checks, and
exact resolvability search.

Package-level names load their submodule on first use (PEP 562), so
``import kappasets.groups`` loads only ``groups`` and what it imports.
"""

import importlib

#: public names by the submodule that defines them
_EXPORTS = {
    "classify": (
        "CoverCellError",
        "CoverDecomposition",
        "SizeVerdict",
        "ball_uncovered_witness",
        "is_large",
        "is_small",
        "is_thick",
        "thick_to_large_witness",
    ),
    "constructions": (
        "Partition",
        "comment2_bset",
        "meet_partition",
        "rank1_partition",
        "rank2_partition",
        "s_set",
        "split3_partition",
        "thm3_partition",
    ),
    "groups": (
        "GroupAxiomError",
        "GroupSpecError",
        "GroupTable",
        "PartitionError",
        "Subset",
        "build_group",
        "product_set",
    ),
    "resolvability": ("ProbeOutcome", "SearchOutcome", "partition_search", "res_search"),
    "words": (
        "Ball",
        "WordSetPredicate",
        "WordSyntaxError",
        "ball_size",
        "concat",
        "conjugate",
        "ds_concat",
        "ds_conjugate",
        "ds_inverse",
        "ds_rho",
        "ds_support",
        "enumerate_ball",
        "enumerate_ds_ball",
        "format_word",
        "inverse",
        "parse_word",
        "reduce_word",
        "words_over",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_EXPORTS]


def __getattr__(name: str):
    # the value is not stored here: perfbench's tracer swaps functions in the
    # loaded submodules and restores them, and a copy in this namespace would
    # keep a wrapper past the trace
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    # the version literal is report.TOOL_VERSION; it is read on first use so
    # that importing the package does not load report's json, hashlib and
    # datetime imports
    if name == "__version__":
        from .report import TOOL_VERSION

        return TOOL_VERSION
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
