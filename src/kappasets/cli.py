"""Command-line surface: classify, construct, search, verify.

Every run prints a structured text report and writes text + JSON twins to
an output directory. Exit codes: 0 all pass, 1 claim failure, 2 usage
error, 3 inconclusive (node budget).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import classify as cl
from .classify import ball_uncovered_witness, is_large, is_small, is_thick
from .constructions import (
    comment1_partition,
    comment2_bset,
    s_set,
    thm3_partition,
)
from .groups import GroupSpecError, GroupTable, Subset, build_group
from .report import ClaimRecord, RunReport, write_report
from .resolvability import THICK_PROBE_NOTE, partition_search, res_search
from .suites import SUITES, run_suite
from .words import (
    WordSyntaxError,
    ball_size,
    concat,
    enumerate_ball,
    format_word,
    inverse,
    parse_word,
    words_over,
)

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


def _parse_subset(G: GroupTable, text: str) -> Subset:
    """Comma-separated element indices or labels."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    indices = []
    label_index = {lab: i for i, lab in enumerate(G.labels)}
    for item in items:
        if item.lstrip("-").isdigit():
            i = int(item)
            if not 0 <= i < G.order:
                raise UsageError(f"element index {i} out of range for order {G.order}")
        elif item in label_index:
            i = label_index[item]
        else:
            raise UsageError(f"unknown element {item!r}")
        indices.append(i)
    return Subset.from_indices(G.order, indices)


def _parse_params(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise UsageError(f"parameters use key=value form, got {tok!r}")
        out[key] = val
    return out


def _letters_arg(value: str, alphabet_size: int) -> list[int]:
    out = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if len(part) == 1 and part.isalpha():
            i = ord(part.lower()) - ord("a")
        elif part.isdigit():
            i = int(part)
        else:
            raise UsageError(f"bad letter {part!r}")
        if not 0 <= i < alphabet_size:
            raise UsageError(f"letter {part!r} out of range for alphabet size {alphabet_size}")
        out.append(i)
    return out


def _one_letter(value: str, alphabet_size: int) -> int:
    """The first letter of value, which must name at least one."""
    letters = _letters_arg(value, alphabet_size)
    if not letters:
        raise UsageError(f"a letter is required, got {value!r}")
    return letters[0]


def _parse_adversary(text: str, alphabet_size: int) -> list:
    """Adversary grammar: "letters=a,b;radius=2" or "words=ab',b"."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        if not sep:
            raise UsageError(f"bad adversary field {part!r}")
        fields[key.strip()] = val.strip()
    if "words" in fields:
        return [parse_word(w, alphabet_size) for w in fields["words"].split(",")]
    radius = int(fields.get("radius", "2"))
    letters = _letters_arg(fields.get("letters", ""), alphabet_size) or list(
        range(alphabet_size)
    )
    return words_over(letters, radius)


def _claim(claim_id: str, anchor: str, status: str, detail: str, nodes: int = 0, secs: float = 0.0) -> ClaimRecord:
    return ClaimRecord(claim_id, anchor, status, detail, nodes=nodes, wall_time_s=secs)


def _verdict_claim(claim_id: str, anchor: str, v: cl.SizeVerdict, witness_text: str) -> ClaimRecord:
    if v.verdict is None:
        return _claim(claim_id, anchor, "inconclusive", "node budget exhausted", v.nodes)
    return _claim(claim_id, anchor, "pass", f"verdict={v.verdict} {witness_text}".strip(), v.nodes)


def _render_thick_witness(v: cl.SizeVerdict) -> str:
    if v.verdict is True:
        entries = v.witness
        shown = "; ".join(f"{F}->{x}" for F, x in entries[:4])
        more = "" if len(entries) <= 4 else f" (+{len(entries) - 4} more)"
        return f"translates per maximal F: {shown}{more}"
    if v.verdict is False:
        return f"failing F={v.witness}"
    return ""


def cmd_classify(args) -> RunReport:
    G = build_group(args.group, max_order=args.max_order)
    A = _parse_subset(G, args.subset)
    kappa = args.kappa
    sides = args.sides.split(",") if args.sides else list(cl.SIDES)
    variants = list(cl.VARIANTS) if args.variant == "both" else [args.variant]
    rep = RunReport(command=_echo(args))
    for side in sides:
        side = side.strip()
        t0 = time.perf_counter()
        v = is_large(G, A, kappa, side, node_budget=args.node_budget)
        wit = f"witness F={v.witness}" if v.verdict else ""
        rec = _verdict_claim(
            f"classify.large.{side}",
            f"{side} {kappa}-large: some F with |F| <= {kappa - 1} covers G from A",
            v,
            wit,
        )
        rec.wall_time_s = time.perf_counter() - t0
        rep.claims.append(rec)
        for variant in variants:
            t0 = time.perf_counter()
            v = is_thick(G, A, kappa, side, variant, node_budget=args.node_budget)
            rec = _verdict_claim(
                f"classify.thick.{side}.{variant}",
                f"{side} {kappa}-thick ({variant}): every small F translates into A",
                v,
                _render_thick_witness(v),
            )
            rec.wall_time_s = time.perf_counter() - t0
            rep.claims.append(rec)
        t0 = time.perf_counter()
        v = is_small(G, A, kappa, side, node_budget=args.node_budget)
        wit = f"failing large L={v.witness}" if v.verdict is False else ""
        rec = _verdict_claim(
            f"classify.small.{side}",
            f"{side} {kappa}-small: removing A keeps every {side} {kappa}-large set large",
            v,
            wit,
        )
        rec.wall_time_s = time.perf_counter() - t0
        rep.claims.append(rec)
    return rep


_CONSTRUCTIONS = ("s-set", "thm3", "c1-split3", "c1-rank2", "c1-rank1", "c2-ds")


def cmd_construct(args) -> RunReport:
    params = _parse_params(args.params or [])
    rep = RunReport(command=_echo(args))
    name = args.construction
    t0 = time.perf_counter()
    if name == "s-set":
        m = int(params.get("m", "2"))
        letter = _one_letter(params.get("letter", "a"), m)
        pred = s_set(m, letter)
        radius = args.radius or 6
        ball = enumerate_ball(m, radius)
        members = sum(1 for w in ball.words if pred(w))
        rep.claims.append(
            _claim(
                "construct.s-set",
                f"endpoint-marked set on {m} letters",
                "pass",
                f"{members} of {ball.size} radius-{radius} words are members",
                secs=time.perf_counter() - t0,
            )
        )
        cells = [pred]
        m_out = m
    elif name == "thm3":
        m = int(params.get("m", "4"))
        a1 = _letters_arg(params.get("a1", "a,b"), m)
        radius = args.radius or 5
        part = thm3_partition(m, a1, check_radius=min(radius, 3))
        part.verify_on_ball(enumerate_ball(m, radius))
        rep.claims.append(
            _claim(
                "construct.thm3",
                "two-cell last-letter split",
                "pass",
                f"partition verified on the radius-{radius} ball ({ball_size(m, radius)} words)",
                secs=time.perf_counter() - t0,
            )
        )
        cells = list(part.cells)
        m_out = m
    elif name in ("c1-split3", "c1-rank2", "c1-rank1"):
        case = name.removeprefix("c1-")
        if case == "split3":
            m = int(params.get("m", "3"))
            a1 = _letters_arg(params.get("a1", "a"), m)
            a2 = _letters_arg(params.get("a2", "b"), m)
            a3 = _letters_arg(params.get("a3", "c"), m)
            radius = args.radius or 5
            part = comment1_partition(
                "split3", check_radius=min(radius, 3), alphabet_size=m, a1=a1, a2=a2, a3=a3
            )
        else:
            m = 2 if case == "rank2" else 1
            radius = args.radius or (8 if case == "rank2" else 32)
            part = comment1_partition(case, check_radius=min(radius, 8))
        part.verify_on_ball(enumerate_ball(m, radius))
        rep.claims.append(
            _claim(
                f"construct.{name}",
                f"{part.provenance}",
                "pass",
                f"{part.num_cells}-cell partition verified on the radius-{radius} ball",
                secs=time.perf_counter() - t0,
            )
        )
        cells = list(part.cells)
        m_out = m
    elif name == "c2-ds":
        sizes = tuple(int(x) for x in params.get("alphabets", "2,2,2").split(","))
        marks = tuple(
            _one_letter(v, m) for v, m in zip(params.get("marks", "a,a,a").split(","), sizes)
        )
        pred = comment2_bset(sizes, marks)
        rep.claims.append(
            _claim(
                "construct.c2-ds",
                pred.description,
                "pass",
                f"direct sum of {len(sizes)} free groups, alphabet sizes {sizes}",
                secs=time.perf_counter() - t0,
            )
        )
        cells = [pred]
        m_out = None
    else:
        raise UsageError(f"unknown construction {name!r}; choose from {_CONSTRUCTIONS}")

    if args.adversary and m_out is not None:
        H = _parse_adversary(args.adversary, m_out)
        scan_ball = enumerate_ball(m_out, args.radius or 6)
        for i, cell in enumerate(cells):
            t0 = time.perf_counter()
            w = ball_uncovered_witness(scan_ball, H, cell)
            if w is None:
                rec = _claim(
                    f"construct.adversary.cell{i}",
                    f"cell {i} vs adversary ({len(H)} words)",
                    "fail",
                    "every ball word is covered",
                )
            else:
                ok = all(not cell(concat(inverse(h), w)) for h in H)
                rec = _claim(
                    f"construct.adversary.cell{i}",
                    f"cell {i} vs adversary ({len(H)} words)",
                    "pass" if ok else "fail",
                    f"uncovered witness {format_word(w)}" if ok else "witness failed re-verification",
                )
            rec.wall_time_s = time.perf_counter() - t0
            rep.claims.append(rec)
    return rep


def cmd_search(args) -> RunReport:
    G = build_group(args.group, max_order=args.max_order)
    rep = RunReport(command=_echo(args))
    t0 = time.perf_counter()
    if args.mode in ("res-left", "res-both"):
        mode = "left" if args.mode == "res-left" else "left+right"
        out = res_search(G, args.kappa, mode, node_budget=args.node_budget)
        if out.best is None:
            detail = "search inconclusive: node budget exhausted"
        else:
            cells = " | ".join(str(c) for c in out.best.cells)
            detail = f"cells={out.cells} optimal={out.optimal} partition: {cells}"
        rep.claims.append(
            _claim(
                f"search.{args.mode}",
                f"max cells in a partition into {mode} {args.kappa}-large subsets",
                "pass" if out.optimal else "inconclusive",
                detail,
                nodes=out.nodes,
                secs=time.perf_counter() - t0,
            )
        )
    elif args.mode in ("two-thick", "non-large"):
        target = "all-thick" if args.mode == "two-thick" else "all-non-large"
        n_cells = args.cells or 2
        out = partition_search(
            G, args.kappa, n_cells, target, args.variant, node_budget=args.node_budget
        )
        if out.found is not None:
            cells = " | ".join(str(c) for c in out.found.cells)
            detail = f"found: {cells}"
            status = "pass"
        elif out.exhaustive:
            detail = f"no {n_cells}-cell partition with {target} cells exists (exhaustive)"
            status = "pass"
        else:
            detail = "search inconclusive: node budget exhausted"
            status = "inconclusive"
        if target == "all-thick":
            detail += f" [note: {THICK_PROBE_NOTE}]"
        rep.claims.append(
            _claim(
                f"search.{args.mode}",
                f"partition into {n_cells} cells, each {target.replace('-', ' ')} at kappa={args.kappa}",
                status,
                detail,
                nodes=out.nodes,
                secs=time.perf_counter() - t0,
            )
        )
    else:
        raise UsageError(f"unknown search mode {args.mode!r}")
    return rep


def cmd_verify(args) -> RunReport:
    rep = RunReport(command=_echo(args))
    rep.claims.extend(run_suite(args.suite))
    return rep


def _echo(args) -> str:
    return " ".join(args._argv)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kappasets",
        description="size combinatorics of group subsets: exact classifiers, "
        "constructions, partition searches, verification suites",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out-dir", default="runs", help="report output root (default: runs)")
        sp.add_argument("--node-budget", type=int, default=None, help="search node budget")
        sp.add_argument("--max-order", type=int, default=64, help="largest allowed group order")

    sp = sub.add_parser("classify", help="full size-verdict battery for one subset")
    sp.add_argument("--group", required=True, help="group spec, e.g. cyclic:6")
    sp.add_argument("--subset", required=True, help="comma-separated element indices or labels")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--sides", default=None, help="comma list from left,right,two-sided")
    sp.add_argument("--variant", default="both", choices=(*cl.VARIANTS, "both"))
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("construct", help="emit a construction plus witness checks")
    sp.add_argument("--construction", required=True, choices=_CONSTRUCTIONS)
    sp.add_argument("--params", nargs="*", default=[], help="key=value parameters")
    sp.add_argument("--radius", type=int, default=None, help="verification ball radius")
    sp.add_argument(
        "--adversary", default=None, help='e.g. "letters=a,b;radius=2" or "words=ab\',b"'
    )
    common(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("search", help="resolvability and partition probes")
    sp.add_argument("--group", required=True)
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument(
        "--mode", required=True, choices=("res-left", "res-both", "two-thick", "non-large")
    )
    sp.add_argument("--cells", type=int, default=None, help="cell count for probes (default 2)")
    sp.add_argument("--variant", default="witness-in-G", choices=cl.VARIANTS)
    common(sp)
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=("all", *SUITES))
    common(sp)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    args._argv = ["kappasets"] + argv
    try:
        rep = args.fn(args)
    except (UsageError, GroupSpecError, WordSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = write_report(rep, args.out_dir)
    sys.stdout.write(rep.text_body())
    print(f"report written to {out_dir}")
    return rep.exit_status()


if __name__ == "__main__":
    raise SystemExit(main())
