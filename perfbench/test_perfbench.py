"""Self-tests of the benchmark: python3 -m pytest perfbench -q

The traced-run tests run one cycle of each workload twice (about a minute
in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ["op_s.p50", "op_s.tail", "ops_per_s", "peak_rss_mb", "setup_s"]
RUN_LEVEL = ["nodes.per_cycle", "trace.overhead_s", "trace.overhead_pct"]

#: Per-layer metrics that must be non-zero on each workload (DESIGN.md map).
NONZERO = {
    "classify": [
        "groups.build_group.calls",
        "classify.is_large.calls", "classify.is_large.nodes",
        "classify.is_thick.calls", "classify.is_thick.nodes",
        "classify.is_small.calls", "classify.is_small.nodes",
        "classify.min_cover.calls", "classify.min_cover.hit_ratio",
        "classify.thick_profile.calls",
        "classify.thick_witness_map.calls", "classify.thick_witness_map.entries",
        "report.write_report.calls", "cli.main.calls",
    ],
    "search": [
        "resolvability.res_search.calls", "resolvability.res_search.nodes",
        "resolvability.partition_search.calls", "resolvability.partition_search.nodes",
        "resolvability.exact_cells.calls",
        "classify.min_cover.calls", "classify.min_cover.hit_ratio",
        "classify.thick_profile.calls", "classify.thick_profile.hit_ratio",
        "report.write_report.calls", "cli.main.calls",
    ],
    "verify": [
        "classify.min_cover.calls", "classify.ball_uncovered_witness.calls",
        "words.enumerate_ball.calls", "words.enumerate_ball.words",
        "words.enumerate_ds_ball.calls", "words.concat.calls",
        "constructions.verify_on_ball.calls", "suites.run_suite.calls",
        "suites.run_suite.self_s", "cli.main.calls",
    ],
}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names() + RUN_LEVEL
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_replaces_every_binding_and_restores_it():
    import kappasets.cli  # noqa: F401 - loads every module

    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for _, module, attr, *_ in tracer.LAYERS
        if "." not in attr
    }
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "kappasets"]
    with tracer.Tracer().installed():
        for key, fn in originals.items():
            stale = [m.__name__ for m in holders if fn in vars(m).values()]
            assert not stale, f"{key} still bound unwrapped in {stale}"
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_every_seeded_command_has_a_reference():
    reference = json.loads((BENCH / "reference.json").read_text())["bodies"]
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 99991):
            for argv in workloads.build(workload, seed):
                assert " ".join(argv) in reference[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_counts_every_mapped_layer(workload):
    got = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert got.returncode == 0, got.stderr
    info = json.loads(got.stdout.splitlines()[-2])["info"]
    result = json.loads(got.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert info["bodies_differing"] == 0
    metrics = result["metrics"]
    assert list(metrics) == tracer.metric_names() + RUN_LEVEL
    zero = [name for name in NONZERO[workload] if not metrics[name]["value"] > 0]
    assert not zero, f"zero on {workload}: {zero}"


def test_untraced_run_reports_end_to_end_metrics():
    got = _bench("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert got.returncode == 0, got.stderr
    info = json.loads(got.stdout.splitlines()[-2])["info"]
    result = json.loads(got.stdout.splitlines()[-1])
    assert result["correct"] and info["cycles"] >= 3 and info["executions_beyond_tail"] >= 10
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    got = _bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
