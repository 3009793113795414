"""Structured run reports: a human-readable text document plus a JSON twin.

The report body is deterministic for fixed inputs and tool version; wall
times and the generation timestamp live in a separate run_meta section
that is excluded from the content hash, so bodies are byte-stable across
runs. Reports are written to an output directory keyed by timestamp and
body content hash.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import math
import os
import time
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
# bound at import, so that a stand-in for time.gmtime (the report directory's
# stamp) leaves generated_at on the clock
from time import gmtime as _gmtime

from .groups import Record

TOOL_NAME = "kappasets"
TOOL_VERSION = "0.1.0"

STATUSES = ("pass", "fail", "inconclusive")

#: The content hash's encoder: json.dumps(..., sort_keys=True,
#: separators=(",", ":")) builds the same one on every call.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class ClaimRecord(Record):
    """One verified (or refuted, or budget-stopped) claim; anchor states the
    property being checked in words. Mutable, so unhashable."""

    __slots__ = ("claim_id", "anchor", "status", "detail", "nodes", "wall_time_s")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, claim_id: str, anchor: str, status: str, detail: str = "", nodes: int = 0,
        wall_time_s: float = 0.0,
    ):
        if status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {status!r}")
        self.claim_id = claim_id
        self.anchor = anchor
        self.status = status
        self.detail = detail
        self.nodes = nodes
        self.wall_time_s = wall_time_s


def record_claim(claims: list[ClaimRecord], claim_id: str, anchor: str, run) -> None:
    """Append to claims the claim that run() -> (status, detail, nodes)
    decides, with the wall time run took. Every claim of the CLI and the
    suites is recorded here, except construct's builder claim, whose anchor
    comes out of the run."""
    t0 = time.perf_counter()
    status, detail, nodes = run()
    claims.append(ClaimRecord(claim_id, anchor, status, detail, nodes, time.perf_counter() - t0))


class RunReport(Record):
    """A command and its claims, which it gains as they run. Mutable, so
    unhashable."""

    __slots__ = ("command", "claims", "__dict__")  # __dict__: callers may stand in run_meta
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command: str, claims: list[ClaimRecord] | None = None):
        self.command = command
        self.claims = [] if claims is None else claims

    def body_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "command": self.command,
            "claims": [
                {
                    "claim_id": c.claim_id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "detail": c.detail,
                    "nodes": c.nodes,
                }
                for c in self.claims
            ],
        }

    def content_hash(self, body: dict | None = None) -> str:
        """Hash of body, the body_dict() a caller already built, or of a new one."""
        blob = _COMPACT.encode(self.body_dict() if body is None else body)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def exit_status(self) -> int:
        """0 all pass, 1 any failure, 3 inconclusive only (budget)."""
        statuses = {c.status for c in self.claims}
        if "fail" in statuses:
            return 1
        if "inconclusive" in statuses:
            return 3
        return 0

    def run_meta(self) -> dict:
        return {
            "generated_at": _utc_now_iso(),
            "wall_time_s": {c.claim_id: round(c.wall_time_s, 6) for c in self.claims},
            "total_wall_time_s": round(sum(c.wall_time_s for c in self.claims), 6),
        }


def _utc_now_iso() -> str:
    """The time now in UTC as datetime.now(timezone.utc).isoformat() writes
    it, YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00, without loading datetime."""
    secs, ns = divmod(time.time_ns(), 10**9)
    micros = ns // 1000
    fraction = f".{micros:06d}" if micros else ""
    return time.strftime("%Y-%m-%dT%H:%M:%S", _gmtime(secs)) + fraction + "+00:00"


def _text_body(report: RunReport, digest: str) -> str:
    """The text report without its timing block; digest is the content hash."""
    lines = [
        f"{TOOL_NAME} report",
        f"version: {TOOL_VERSION}",
        f"command: {report.command}",
        f"content-hash: {digest}",
        "",
    ]
    for c in report.claims:
        lines.append(f"[claim {c.claim_id}]")
        lines.append(f"anchor: {c.anchor}")
        lines.append(f"status: {c.status}")
        if c.detail:
            lines.append(f"detail: {c.detail}")
        lines.append(f"nodes: {c.nodes}")
        lines.append("")
    return "\n".join(lines)


def check_out_root(out_root: str | Path) -> None:
    """Raise OSError unless write_report can make its directory under
    out_root: the nearest of out_root and its ancestors that exists must be
    a writable directory. Nothing is created. A writable directory out_root
    is settled without the walk."""
    if os.path.isdir(out_root) and os.access(out_root, os.W_OK | os.X_OK):
        return
    path = Path(out_root).absolute()
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _json(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) renders it, for
    the dicts, lists, strings and numbers of a report. json.dumps itself
    falls back to its pure-Python encoder whenever it indents."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)  # what json.dumps writes for these
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [f"{inner}{_escape(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        return "[" + ",".join([inner + _json(v, inner) for v in value]) + indent + "]"
    return json.dumps(value)  # other scalars: true, false, null, NaN, Infinity


def write_report(report: RunReport, out_root: str | Path) -> tuple[Path, str]:
    """Write report.txt and report.json under <out_root>/<timestamp>-<hash>/.

    Returns the directory and the text body (report.txt without its timing
    block); the body is built, hashed and rendered once. A directory that
    already exists (the same content in the same second) gets the first
    free suffix -1, -2, ... report.json holds {"report": body, "run_meta":
    meta} in the bytes of json.dumps(..., indent=2, sort_keys=True) plus a
    newline: keys sorted, two-space indent, non-ASCII escaped.
    """
    meta = report.run_meta()
    body = report.body_dict()
    digest = report.content_hash(body)
    text = _text_body(report, digest)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    name = f"{stamp}-{digest}"
    root = Path(out_root)
    for suffix in itertools.count():
        out_dir = root / (f"{name}-{suffix}" if suffix else name)
        try:
            os.makedirs(out_dir)
            break
        except FileExistsError:  # same second, same content: disambiguate
            continue
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(_json({"report": body, "run_meta": meta}) + "\n")
    timing_lines = ["timings (excluded from content hash):"]
    for cid, secs in meta["wall_time_s"].items():
        timing_lines.append(f"  {cid}: {secs}s")
    timing_lines.append(f"  total: {meta['total_wall_time_s']}s")
    timing_lines.append(f"generated-at: {meta['generated_at']}")
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write(text + "\n".join(timing_lines) + "\n")
    return out_dir, text
