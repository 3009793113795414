"""The kappasets benchmark.

    python3 perfbench/run.py --workload classify|search|verify --seed N \
        --seconds S --trace 0|1

One client sends one CLI command at a time (a closed loop) and replays the
seeded cycle of commands, in whole cycles, until S seconds have passed, at
least three cycles have run and the tail percentile has ten executions
beyond it. Every report body is checked against the reference recorded in
reference.json. The last line of standard output is the result object; the
line before it holds the environment stamp, raw wall times, node totals and
other context.

With --trace 0 the result carries the end-to-end metrics, with times scaled
to nominal machine speed (harness.SpeedGauge). With --trace 1 every command
runs twice, untraced and traced, in alternating order; the result carries
the per-layer metrics per cycle and the tracing overhead, and a command
whose two report bodies differ counts as failed. --workload all runs the
three workloads one after another, each in its own interpreter, and ends
with one result whose metric names carry the workload as a prefix. See
DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from harness import (
    BENCH,
    NOMINAL_CAL_S,
    ROOT,
    SRC,
    Runner,
    SpeedGauge,
    body_digest,
    body_nodes,
    child_env,
    scratch_dir,
)

#: Tail percentile per workload, over all executions of a run.
TAIL_PCT = {"classify": 95, "search": 75, "verify": 70}
MIN_CYCLES = 3
#: Set-up is measured this many times before the loop and after each cycle.
SETUP_REPEATS = 3
#: Stop starting cycles after this long, so a run ends within 180 s.
MAX_LOOP_S = 120.0
#: A run is flagged when the 1-minute load average at start exceeds this
#: share of the CPUs.
LOADED_SHARE = 0.75


def _rank(n: int, pct: int) -> int:
    """Index of the nearest-rank percentile among n sorted values."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def _tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    i = _rank(len(values), pct)
    return sorted(values)[i], len(values) - i - 1


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kappasets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(seed: int) -> dict:
    load = os.getloadavg()
    ncpu = os.cpu_count() or 1
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": ncpu,
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load),
        "loaded": load[0] > LOADED_SHARE * ncpu,
        "seed": seed,
    }


def _measure_setup(workload: str, seed: int, gauge: SpeedGauge) -> list[tuple[float, float, float]]:
    """(start, end, seconds) from spawning an interpreter to its seeded command list."""
    cmd = [sys.executable, str(BENCH / "child.py"), "setup", workload, str(seed)]
    spans = []
    for _ in range(SETUP_REPEATS):
        gauge.read()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
        spans.append((t0, t1, t1 - t0))
    return spans


def _ok(rc: int, body: dict | None, expected: str | None) -> bool:
    return rc == 0 and body is not None and expected is not None and body_digest(body) == expected


def _loop_plain(cycle, runner, reference, seconds, pct, workload, seed):
    """Raw (start, end, seconds) spans of commands and set-ups, plus counts."""
    gauge = SpeedGauge()
    setups = _measure_setup(workload, seed, gauge)
    spans, failed, cycles, nodes = [], 0, 0, 0
    t_start = time.perf_counter()
    while True:
        for argv in cycle:
            gauge.read()
            t0 = time.perf_counter()
            rc, secs, body = runner.run(argv)
            spans.append((t0, time.perf_counter(), secs))
            failed += not _ok(rc, body, reference.get(" ".join(argv)))
            if cycles == 0 and body is not None:
                nodes += body_nodes(body)
        cycles += 1
        setups += _measure_setup(workload, seed, gauge)
        elapsed = time.perf_counter() - t_start
        if elapsed >= MAX_LOOP_S:
            break
        if elapsed >= seconds and cycles >= MIN_CYCLES and len(spans) - _rank(len(spans), pct) - 1 >= 10:
            break
    gauge.read()
    return spans, setups, gauge, failed, cycles, nodes, elapsed


def _loop_traced(cycle, runner, reference, seconds, tracer):
    plain, traced, failed, cycles, nodes, mismatched = [], [], 0, 0, 0, 0
    t_start = time.perf_counter()
    while True:
        for i, argv in enumerate(cycle):
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            got = {}
            for t in order:
                got[t is not None] = runner.run(argv, tracer=t)
            (rc0, secs0, body0), (rc1, secs1, body1) = got[False], got[True]
            plain.append(secs0)
            traced.append(secs1)
            same = body0 is not None and json.dumps(body0, sort_keys=True) == json.dumps(body1, sort_keys=True)
            mismatched += not same
            ok = same and rc1 == rc0 and _ok(rc0, body0, reference.get(" ".join(argv)))
            failed += not ok
            if cycles == 0 and body0 is not None:
                nodes += body_nodes(body0)
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds or elapsed >= MAX_LOOP_S:
            break
    return plain, traced, failed, cycles, nodes, mismatched, elapsed


def _run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("classify", "search", "verify"):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        got = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if got.returncode != 0:
            return got.returncode
        *_, info, last = got.stdout.splitlines()
        print(info)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("classify", "search", "verify", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kappasets" / "cli.py").is_file():
        print(f"error: no kappasets sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ.pop("KAPPASETS_NODE_BUDGET", None)
    # one CPU for the benchmark and every child, so the speed gauge reads
    # the CPU the commands run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import workloads

    env_stamp = _environment(args.seed)
    if env_stamp["loaded"]:
        print(f"warning: machine loaded at start, loadavg {env_stamp['loadavg_start']}", file=sys.stderr)
    cycle = workloads.build(args.workload, args.seed)
    with open(BENCH / "reference.json") as f:
        reference = json.load(f)["bodies"][args.workload]

    with scratch_dir() as scratch:
        runner = Runner(args.workload, scratch)
        pct = TAIL_PCT[args.workload]
        info = {"workload": args.workload, "trace": args.trace, "commands_per_cycle": len(cycle)}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            plain, traced, failed, cycles, nodes, mismatched, elapsed = _loop_traced(
                cycle, runner, reference, args.seconds, tracer
            )
            attempted = len(plain)
            gap = statistics.median(traced) - statistics.median(plain)
            metrics = tracer.metrics(cycles)
            metrics["nodes.per_cycle"] = {"value": nodes, "unit": "count"}
            metrics["trace.overhead_s"] = {"value": gap, "unit": "s"}
            metrics["trace.overhead_pct"] = {"value": 100 * gap / statistics.median(plain), "unit": "%"}
            info.update(untraced_op_s_p50=statistics.median(plain), traced_op_s_p50=statistics.median(traced),
                        bodies_differing=mismatched)
            busy = sum(plain)
        else:
            spans, setups, gauge, failed, cycles, nodes, elapsed = _loop_plain(
                cycle, runner, reference, args.seconds, pct, args.workload, args.seed
            )
            raw = [secs for _, _, secs in spans]
            times = [secs * gauge.factor(t0, t1) for t0, t1, secs in spans]
            setup_times = [secs * gauge.factor(t0, t1) for t0, t1, secs in setups]
            attempted = len(times)
            tail, beyond = _tail(times, pct)
            who = resource.RUSAGE_CHILDREN if args.workload == "verify" else resource.RUSAGE_SELF
            metrics = {
                "op_s.p50": {"value": statistics.median(times), "unit": "s"},
                "op_s.tail": {"value": tail, "unit": "s"},
                "ops_per_s": {"value": (attempted - failed) / sum(times), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
            busy = sum(raw)
            info.update(
                tail_percentile=pct,
                executions_beyond_tail=beyond,
                machine_speed=NOMINAL_CAL_S / statistics.median(gauge.readings),
                raw_op_s_p50=statistics.median(raw),
                raw_op_s_tail=_tail(raw, pct)[0],
                raw_ops_per_s=attempted / busy,
                raw_setup_s=statistics.median(secs for _, _, secs in setups),
            )

    env_stamp["loadavg_end"] = list(os.getloadavg())
    info.update(
        cycles=cycles,
        loop_s=elapsed,
        nodes_per_cycle=nodes,
        nodes_per_s=nodes * cycles / busy,
        failed_frac=failed / attempted,
        env=env_stamp,
    )
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
