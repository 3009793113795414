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
