"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps
kappasets functions by module and name, so those names are part of the
interface: a renamed layer would silently drop out of the trace."""

import importlib
import math
import sys
from pathlib import Path

import pytest

import kappasets
from kappasets import classify, cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import LAYERS, Tracer  # noqa: E402


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer[0])
def test_every_traced_layer_resolves(layer):
    _, module, attr, *_ = layer
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_tracer_counts_every_maximal_test_set(tmp_path, capsys):
    # thick=True on both sides: the re-check walks all C(8, 3) maximal F
    for side in ("left", "two-sided"):
        tracer = Tracer()
        with tracer.installed():
            code = cli.main([
                "classify", "--group", "cyclic:8", "--subset", "1,2,3,4,5,6,7", "--kappa", "4",
                "--sides", side, "--variant", "witness-in-G", "--out-dir", str(tmp_path),
            ])
        assert code == 0, side
        assert "verdict=True translates per maximal F" in capsys.readouterr().out, side
        got = tracer.totals["classify.thick_witness_map"]
        assert got["calls"] == 1, side
        assert got["entries"] == math.comb(8, 3), side
        assert tracer.totals["cli.main"]["calls"] == 1, side


def test_package_names_hold_no_wrapper_after_a_trace(tmp_path, capsys):
    # the package resolves its names on each access, so nothing the tracer
    # swapped in stays behind in its namespace once the trace is over
    original = classify.is_large
    tracer = Tracer()
    with tracer.installed():
        assert kappasets.is_large is classify.is_large is not original
        code = cli.main(["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3",
                         "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert tracer.totals["classify.is_large"]["calls"] > 0
    assert kappasets.is_large is classify.is_large is original
    assert "is_large" not in vars(kappasets)
    assert not [name for name, value in vars(kappasets).items()
                if getattr(value, "__module__", None) == Tracer.__module__]
