"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps
kappasets functions by module and name, so those names are part of the
interface: a renamed layer would silently drop out of the trace."""

import importlib
import math
import sys
from pathlib import Path

import pytest

from kappasets import cli

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
    tracer = Tracer()
    with tracer.installed():
        code = cli.main([
            "classify", "--group", "cyclic:8", "--subset", "1,2,3,4,5,6,7", "--kappa", "4",
            "--sides", "left", "--variant", "witness-in-G", "--out-dir", str(tmp_path),
        ])
    assert code == 0
    assert "verdict=True translates per maximal F" in capsys.readouterr().out
    got = tracer.totals["classify.thick_witness_map"]
    assert got["calls"] == 1
    assert got["entries"] == math.comb(8, 3)
    assert tracer.totals["cli.main"]["calls"] == 1
