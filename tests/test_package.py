"""The package namespace: public names load their submodule on first use
(PEP 562), and importing one submodule loads only it and what it imports."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kappasets

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = (
    "Ball", "CoverCellError", "CoverDecomposition", "GroupAxiomError", "GroupSpecError",
    "GroupTable", "Partition", "PartitionError", "ProbeOutcome", "SearchOutcome", "SizeVerdict",
    "Subset", "WordSetPredicate", "WordSyntaxError", "ball_size", "ball_uncovered_witness",
    "build_group", "comment2_bset", "concat", "conjugate", "ds_concat", "ds_conjugate",
    "ds_inverse", "ds_rho", "ds_support", "enumerate_ball", "enumerate_ds_ball", "format_word",
    "inverse", "is_large", "is_small", "is_thick", "meet_partition",
    "parse_word", "partition_search", "product_set", "rank1_partition", "rank2_partition",
    "reduce_word", "res_search", "s_set", "split3_partition", "thick_to_large_witness",
    "thm3_partition", "words_over",
)
SUBMODULES = ("classify", "constructions", "groups", "resolvability", "words")


def loaded_after(statement, packages=("kappasets",)):
    """The modules of packages loaded by a fresh interpreter after statement."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return [name for name in json.loads(got.stdout) if name.split(".")[0] in packages]


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import kappasets", ["kappasets"]),
        ("import kappasets.groups", ["kappasets", "kappasets.groups"]),
        ("from kappasets import build_group", ["kappasets", "kappasets.groups"]),
    ],
)
def test_import_loads_only_what_it_names(statement, loaded):
    assert loaded_after(statement) == loaded


# import time that every one-shot command pays: dataclasses alone brings in
# inspect, ast, dis and tokenize
@pytest.mark.parametrize("statement", ["import kappasets.cli", "import kappasets.groups"])
def test_import_loads_no_dataclasses_inspect_or_datetime(statement):
    assert loaded_after(statement, ("dataclasses", "inspect", "datetime")) == []


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_object_its_submodule_defines(name):
    obj = getattr(kappasets, name)
    assert obj.__module__.startswith("kappasets.")
    assert obj is getattr(sys.modules[obj.__module__], name)
    # looked up afresh each time, never copied into the package namespace
    assert name not in vars(kappasets)


def test_star_import_binds_the_exports_and_submodules():
    namespace = {}
    exec("from kappasets import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(EXPORTS + SUBMODULES)
    for name in SUBMODULES:
        assert namespace[name] is sys.modules[f"kappasets.{name}"]


def test_dir_lists_the_exports():
    assert set(EXPORTS) <= set(dir(kappasets))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'kappasets' has no attribute 'nope'$"):
        kappasets.nope  # noqa: B018


def test_readme_library_layout_names_only_what_exists():
    # each "- `kappasets.X` — ..." bullet names attributes of kappasets.X
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    checked = 0
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        got = re.match(r"`kappasets\.(\w+)` — (.*)", " ".join(bullet.split()))
        if got is None:
            continue
        module = importlib.import_module(f"kappasets.{got[1]}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", got[2]):
            assert hasattr(module, name), f"README names kappasets.{got[1]}.{name}"
            checked += 1
    assert checked >= 10
