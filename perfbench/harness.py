"""Running one CLI command, reading its report body, gauging machine speed.

``classify`` and ``search`` commands call ``kappasets.cli.main`` in the
benchmark's own process. ``verify`` commands each start a fresh interpreter
(``python -m kappasets``), because ``suites.grid_group`` is cached for the
life of a process and users pay that cold start on every run.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
#: Calibration-loop time that defines nominal machine speed; timings are
#: reported as seconds at this speed.
NOMINAL_CAL_S = 0.0006


def _calibration_loop() -> int:
    """Fixed pure-Python work shaped like the program's: mask unions over
    4-subsets, tuple keys and dict inserts (about 1 ms)."""
    masks = [((0b100101 << i) | (0b100101 >> (16 - i))) & 0xFFFF for i in range(16)]
    hits = 0
    for combo in itertools.combinations(range(16), 4):
        u = 0
        for f in combo:
            u |= masks[f]
        hits += u == 0xFFFF
    table = {}
    for i in range(1000):
        table[(i, i & 7)] = str(i)
    return hits + len(table)


def machine_time() -> float:
    """Fastest of three runs of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedGauge:
    """Scales wall times to nominal machine speed.

    A shared machine can run the same code 35-70% slower for seconds or
    minutes at a time. The gauge times the calibration loop before every
    measurement and once at the end. A measurement taken between t0 and t1
    is scaled by NOMINAL_CAL_S over the mean of the readings just before t0
    and just after t1.
    """

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self) -> None:
        self.readings.append(machine_time())
        self.times.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        before = self.readings[bisect.bisect_right(self.times, t0) - 1]
        after = self.readings[bisect.bisect_left(self.times, t1)]
        return 2 * NOMINAL_CAL_S / (before + after)


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/ in the checkout, removed after."""
    root = ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KAPPASETS_NODE_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def read_body(out_dir: str) -> dict | None:
    """The content-hashed body of the single report written under out_dir."""
    found = list(Path(out_dir).glob("*/report.json"))
    if len(found) != 1:
        return None
    return json.loads(found[0].read_text())["report"]


def body_digest(body: dict) -> str:
    """Digest of the claims' ids, statuses and details; nodes are left out."""
    claims = [[c["claim_id"], c["status"], c["detail"]] for c in body["claims"]]
    blob = json.dumps(claims, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def body_nodes(body: dict) -> int:
    return sum(c["nodes"] for c in body["claims"])


class Runner:
    """Runs commands with reports under a scratch directory it owns."""

    def __init__(self, workload: str, scratch: str):
        self.in_child = workload == "verify"
        self.scratch = scratch
        self.env = child_env()
        if not self.in_child:
            from kappasets import cli

            self.cli = cli

    def run(self, argv: list[str], tracer=None) -> tuple[int, float, dict | None]:
        """(exit code, wall seconds, report body) of one command.

        Every command writes under the same fresh directory, so the argv
        echo in the body, and with it the whole body, is the same for the
        same command.
        """
        out = os.path.join(self.scratch, "out")
        os.mkdir(out)
        try:
            full = argv + ["--out-dir", out]
            if self.in_child:
                rc, secs = self._run_child(full, tracer)
            elif tracer is None:
                rc, secs = self._run_here(full)
            else:
                with tracer.installed():
                    rc, secs = self._run_here(full)
            return rc, secs, read_body(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _run_here(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            secs = time.perf_counter() - t0
        return rc, secs

    def _run_child(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "kappasets", *argv]
        else:
            trace_file = os.path.join(self.scratch, "trace.json")
            cmd = [sys.executable, str(BENCH / "child.py"), "trace", trace_file, *argv]
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the measured time
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=self.env) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
        secs = time.perf_counter() - t0
        if tracer is not None and rc == 0:
            with open(trace_file) as f:
                tracer.merge(json.load(f))
            os.remove(trace_file)
        return rc, secs
