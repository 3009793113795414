"""Record the reference report bodies of every command any seed can send.

    python3 perfbench/make_reference.py

Run it at the commit whose verdicts and witnesses are the reference; it
rewrites perfbench/reference.json. A command that does not exit 0 stops it.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from harness import Runner, body_digest, scratch_dir  # noqa: E402
from run import _git_commit, _source_digest  # noqa: E402


def main() -> int:
    bodies = {}
    with scratch_dir() as scratch:
        for workload in workloads.WORKLOADS:
            runner = Runner(workload, scratch)
            got = {}
            for argv in workloads.command_space(workload):
                rc, _, body = runner.run(argv)
                key = " ".join(argv)
                if rc != 0 or body is None:
                    raise SystemExit(f"reference command failed (exit {rc}): {key}")
                got[key] = body_digest(body)
            bodies[workload] = dict(sorted(got.items()))
            print(f"{workload}: {len(got)} commands", file=sys.stderr)
    out = {"commit": _git_commit(), "source_sha256": _source_digest(), "bodies": bodies}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
