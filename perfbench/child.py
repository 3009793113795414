"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED
        import kappasets, build the seeded command list, print "ready N"
    python3 perfbench/child.py trace FILE CLI-ARGS...
        run kappasets.cli.main(CLI-ARGS) with the tracer installed and write
        its per-layer totals to FILE as JSON; exits with the command's code
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        import workloads

        cycle = workloads.build(argv[1], int(argv[2]))
        print(f"ready {len(cycle)}", flush=True)
        return 0
    if argv[0] == "trace":
        from kappasets import cli
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            rc = cli.main(argv[2:])
        with open(argv[1], "w") as f:
            json.dump(tracer.totals, f)
        return rc
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
