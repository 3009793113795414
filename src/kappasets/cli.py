"""Command-line surface: classify, construct, search, verify.

Every run prints a structured text report and writes text + JSON twins to
an output directory. Exit codes: 0 all pass, 1 claim failure, 2 usage
error (an --out-dir the report cannot be written under among them, found
before any claim runs), 3 inconclusive (node budget). Every integer is
read in one grammar, groups.read_int: ASCII digits after at most one "-".

A command is parsed by its own subparser alone, built once per process;
it also prints that command's help and usage errors, as the full parser
would. An unknown or missing command, or an argument the subparser does
not know, goes to the full parser, also built once.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import classify as cl
from .classify import ball_uncovered_witness, covered, is_large, is_small, is_thick
from .constructions import (
    Partition,
    comment2_bset,
    rank1_partition,
    rank2_partition,
    s_set,
    split3_partition,
    thm3_partition,
)
from .groups import DEFAULT_MAX_ORDER, GroupTable, Subset, build_group, read_int
from .report import ClaimRecord, RunReport, check_out_root, record_claim, write_report
from .resolvability import THICK_PROBE_NOTE, partition_search, res_search
from .suites import SUITES, run_suite
from .words import ball_size, enumerate_ball, format_word, parse_word, words_over

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


def _parse_subset(G: GroupTable, text: str) -> Subset:
    """Comma-separated element indices or labels. Only a comma outside
    parentheses separates, so a product label such as (0,1) is one item. An
    integer in range is an index; any other item must be a label. An item
    that is an index in range and also the label of another element, or a
    ")" with no "(" open before it, or a "(" left open, is a usage error."""
    items, depth, start = [], 0, 0
    for j, ch in enumerate(text + ","):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            items.append(text[start:j].strip())
            start = j + 1
    if depth:
        raise UsageError(f"unbalanced parentheses in --subset {text!r}")
    indices = []
    label_index = {lab: i for i, lab in enumerate(G.labels)}
    for item in filter(None, items):
        try:
            index = read_int(item)
        except ValueError:
            index = None
        if index is not None and 0 <= index < G.order:
            i = index
            if label_index.get(item, i) != i:
                raise UsageError(
                    f"ambiguous element {item!r} in --subset: index {i}, or the label of element {label_index[item]}"
                )
        elif item in label_index:
            i = label_index[item]
        elif index is not None:
            raise UsageError(f"element index {index} in --subset out of range for order {G.order}")
        else:
            raise UsageError(f"unknown element {item!r} in --subset")
        indices.append(i)
    return Subset.from_indices(G.order, indices)


def _read_pairs(pairs: list[str], defaults: dict, name: str) -> dict:
    """The defaults, overridden by key=value pairs; a pair without "=", a
    key outside the defaults or a key given twice is a usage error worded
    with name."""
    given = {}
    for pair in pairs:
        key, sep, val = (t.strip() for t in pair.partition("="))
        if not sep or not key:
            raise UsageError(f"bad {name} {pair!r}: {name}s use key=value form")
        if key not in defaults:
            takes = ", ".join(defaults) or "none"
            raise UsageError(f"unknown {name} {key}; it takes: {takes}")
        if key in given:
            raise UsageError(f"{name} {key} is given twice")
        given[key] = val
    return {**defaults, **given}


def _int_arg(value: str, name: str) -> int:
    """value as an integer; anything else is a usage error naming name."""
    try:
        return read_int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _int_option(value: str) -> int:
    """An integer option's value; argparse names the option in the error."""
    try:
        return read_int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None


def _rank_arg(value: str, name: str) -> int:
    """value as an alphabet size, at least 1; anything else is a usage error
    naming name. The words module bounds it from above before any letter
    set is built."""
    m = _int_arg(value, name)
    if m < 1:
        raise UsageError(f"{name} must be >= 1, got {m}")
    return m


def _letters_arg(value: str, alphabet_size: int) -> list[int]:
    """The 0-based letters of a comma list; each item is a one-letter word
    of the word grammar (a, b, ... or x1, x2, ...) and empty items are
    skipped."""
    out = []
    for part in filter(None, (t.strip() for t in value.split(","))):
        w = parse_word(part, alphabet_size)
        if len(w) != 1 or w[0] < 0:
            raise UsageError(f"bad letter {part!r}")
        out.append(w[0] - 1)
    return out


def _one_letter(value: str, alphabet_size: int) -> int:
    """The one letter that value names."""
    letters = _letters_arg(value, alphabet_size)
    if not letters:
        raise UsageError(f"a letter is required, got {value!r}")
    if len(letters) > 1:
        raise UsageError(f"only one letter is allowed, got {value!r}")
    return letters[0]


def _parse_adversary(text: str, alphabet_size: int) -> list:
    """Adversary grammar: "letters=a,b;radius=2" (every letter and radius 2
    by default) or "words=ab',b"."""
    pairs = [part for part in text.split(";") if part.strip()]
    if not pairs:
        raise UsageError(f"empty adversary {text!r}: it takes letters, radius or words")
    f = _read_pairs(pairs, dict.fromkeys(("letters", "radius", "words")), "adversary field")
    if f["words"] is not None:
        if f["letters"] is not None or f["radius"] is not None:
            raise UsageError("an adversary takes words=..., or letters and radius, not both")
        return [parse_word(w, alphabet_size) for w in f["words"].split(",")]
    radius = 2 if f["radius"] is None else _int_arg(f["radius"], "adversary field radius")
    if f["letters"] is None:  # bounded before range(alphabet_size) becomes a letter set
        return enumerate_ball(alphabet_size, radius).words
    letters = _letters_arg(f["letters"], alphabet_size)
    if not letters:
        raise UsageError(f"adversary field letters names no letter, got {f['letters']!r}")
    return words_over(letters, radius)


def _verdict(v: cl.SizeVerdict, render) -> tuple[str, str, int]:
    """The claim triple of a size verdict; render(v) words a decided witness."""
    if v.verdict is None:
        return "inconclusive", "node budget exhausted", v.nodes
    return "pass", f"verdict={v.verdict} {render(v)}".strip(), v.nodes


def _render_large(v: cl.SizeVerdict) -> str:
    return f"witness F={v.witness}" if v.verdict else ""


def _render_thick(v: cl.SizeVerdict) -> str:
    if not v.verdict:
        return f"failing F={v.witness}"
    w = v.witness
    shown = "; ".join(f"{F}->{x}" for F, x in w.shown)
    more = "" if w.total <= len(w.shown) else f" (+{w.total - len(w.shown)} more)"
    return f"translates per maximal F: {shown}{more}"


def _render_small(v: cl.SizeVerdict) -> str:
    return "" if v.verdict else f"failing large L={v.witness}"


def cmd_classify(args, rep: RunReport) -> None:
    """The size battery: for each side, large, thick per variant and small.

    In an abelian G, g*A = A*g, so each left claim is the right claim of the
    same notion and variant. The side that comes first in --sides searches
    it, and the other reports that verdict, with its witness and nodes,
    once cl.mirrored has re-checked the witness on its own side. The
    library classifiers still search every side they are asked, and
    two-sided claims are always searched."""
    G = build_group(args.group, max_order=args.max_order)
    A = _parse_subset(G, args.subset)
    kappa = args.kappa
    budget = args.node_budget
    sides = [s.strip() for s in args.sides.split(",")] if args.sides is not None else list(cl.SIDES)
    for side in sides:  # before any claim runs a search
        cl.check_side(side)
    if len(set(sides)) < len(sides):
        raise UsageError(f"a side is repeated in --sides {args.sides}")
    variants = list(cl.VARIANTS) if args.variant == "both" else [args.variant]
    first = {} if cl.abelian(G) else None  # (classifier, variant) -> the first side's verdict

    def decide(classifier, side, *variant):
        if first is None or side == "two-sided":
            return classifier(G, A, kappa, side, *variant, node_budget=budget)
        key = (classifier, *variant)
        if key in first:
            return cl.mirrored(G, A, first[key], side)
        first[key] = got = classifier(G, A, kappa, side, *variant, node_budget=budget)
        return got

    for side in sides:
        record_claim(
            rep.claims,
            f"classify.large.{side}",
            f"{side} {kappa}-large: some F with |F| <= {kappa - 1} covers G from A",
            lambda: _verdict(decide(is_large, side), _render_large),
        )
        for variant in variants:
            record_claim(
                rep.claims,
                f"classify.thick.{side}.{variant}",
                f"{side} {kappa}-thick ({variant}): every small F translates into A",
                lambda: _verdict(decide(is_thick, side, variant), _render_thick),
            )
        record_claim(
            rep.claims,
            f"classify.small.{side}",
            f"{side} {kappa}-small: removing A keeps every {side} {kappa}-large set large",
            lambda: _verdict(decide(is_small, side), _render_small),
        )


# -- constructions: name -> (parameter defaults, rank, radius, builder) -----------
# A builder takes the merged parameters, the alphabet size and the radius
# (--radius, or else the row's default) and returns (anchor, detail, cells).
# The alphabet size is the m parameter, or else the fixed rank; a rank of
# None takes no adversary. A radius of None builds no ball and takes no
# --radius. A partition is verified once, by its constructor, on the ball of
# the radius it is given.


def _verified(part: Partition, radius: int) -> tuple:
    detail = f"{part.num_cells}-cell partition verified on the radius-{radius} ball"
    return part.provenance, detail, part.cells


def _build_s_set(p: dict[str, str], m: int, radius: int) -> tuple:
    pred = s_set(m, _one_letter(p["letter"], m))
    ball = enumerate_ball(m, radius)
    members = sum(1 for w in ball.words if pred(w))
    detail = f"{members} of {ball.size} radius-{radius} words are members"
    return f"endpoint-marked set on {m} letters", detail, (pred,)


def _build_thm3(p: dict[str, str], m: int, radius: int) -> tuple:
    part = thm3_partition(m, _letters_arg(p["a1"], m), check_radius=radius)
    detail = f"partition verified on the radius-{radius} ball ({ball_size(m, radius)} words)"
    return "two-cell last-letter split", detail, part.cells


def _build_split3(p: dict[str, str], m: int, radius: int) -> tuple:
    a1, a2, a3 = (_letters_arg(p[k], m) for k in ("a1", "a2", "a3"))
    return _verified(split3_partition(m, a1, a2, a3, check_radius=radius), radius)


def _build_rank2(p: dict[str, str], m: int, radius: int) -> tuple:
    return _verified(rank2_partition(check_radius=radius), radius)


def _build_rank1(p: dict[str, str], m: int, radius: int) -> tuple:
    return _verified(rank1_partition(check_radius=radius), radius)


def _build_c2_ds(p: dict[str, str], m: None, radius: None) -> tuple:
    entry = "an entry of c2-ds parameter alphabets"
    sizes = tuple(_rank_arg(x, entry) for x in p["alphabets"].split(","))
    given = p["marks"].split(",")
    if len(given) != len(sizes):
        raise UsageError(
            f"c2-ds takes one mark per alphabet: alphabets gives {len(sizes)}, "
            f"marks gives {len(given)}"
        )
    marks = tuple(map(_one_letter, given, sizes))
    pred = comment2_bset(sizes, marks)
    detail = f"direct sum of {len(sizes)} free groups, alphabet sizes {sizes}"
    return pred.description, detail, (pred,)


_CONSTRUCTIONS = {
    "s-set": ({"m": "2", "letter": "a"}, None, 6, _build_s_set),
    "thm3": ({"m": "4", "a1": "a,b"}, None, 5, _build_thm3),
    "c1-split3": ({"m": "3", "a1": "a", "a2": "b", "a3": "c"}, None, 5, _build_split3),
    "c1-rank2": ({}, 2, 8, _build_rank2),
    "c1-rank1": ({}, 1, 32, _build_rank1),
    "c2-ds": ({"alphabets": "2,2,2", "marks": "a,a,a"}, None, None, _build_c2_ds),
}


def _params_help() -> str:
    keys = "; ".join(
        f"{name}: {' '.join(f'{k}={v}' for k, v in defaults.items()) or 'none'}"
        for name, (defaults, *_) in _CONSTRUCTIONS.items()
    )
    return f"key=value parameters, with these keys and defaults: {keys}"


def _scan_adversary(ball, H: list, cell) -> tuple[str, str, int]:
    w = ball_uncovered_witness(ball, H, cell)
    if w is None:  # a finite ball can show a witness, never that none exists
        return "inconclusive", "every ball word is covered", 0
    if covered(H, cell, w):
        return "fail", "witness failed re-verification", 0
    return "pass", f"uncovered witness {format_word(w)}", 0


def cmd_construct(args, rep: RunReport) -> None:
    name = args.construction
    defaults, rank, radius, build = _CONSTRUCTIONS[name]
    params = _read_pairs(args.params or [], defaults, f"{name} parameter")
    m = _rank_arg(params["m"], f"{name} parameter m") if "m" in params else rank
    if args.adversary is not None:  # read before the build, which may be long
        if m is None:
            raise UsageError(f"{name} takes no --adversary")
        H = _parse_adversary(args.adversary, m)
    if args.radius is not None:
        if radius is None:
            raise UsageError(f"{name} builds no ball and takes no --radius")
        radius = args.radius
    # timed here, not by record_claim: the anchor comes out of the builder
    t0 = time.perf_counter()
    anchor, detail, cells = build(params, m, radius)
    rep.claims.append(
        ClaimRecord(f"construct.{name}", anchor, "pass", detail, 0, time.perf_counter() - t0)
    )
    if args.adversary is not None:
        scan_ball = enumerate_ball(m, 6 if args.radius is None else args.radius)
        for i, cell in enumerate(cells):
            record_claim(
                rep.claims,
                f"construct.adversary.cell{i}",
                f"cell {i} vs adversary ({len(H)} words)",
                lambda: _scan_adversary(scan_ball, H, cell),
            )


def cmd_search(args, rep: RunReport) -> None:
    if args.variant is not None and args.mode != "two-thick":
        raise UsageError(f"{args.mode} takes no --variant; only two-thick reads it")
    G = build_group(args.group, max_order=args.max_order)
    kappa, budget = args.kappa, args.node_budget
    if args.mode in ("res-left", "res-both"):
        if args.cells is not None:
            raise UsageError(f"{args.mode} searches for the cell count and takes no --cells")
        mode = "left" if args.mode == "res-left" else "left+right"
        anchor = f"max cells in a partition into {mode} {kappa}-large subsets"

        def run():
            out = res_search(G, kappa, mode, node_budget=budget)
            cells = " | ".join(str(c) for c in out.best.cells)
            detail = f"cells={out.cells} optimal={out.optimal} partition: {cells}"
            return "pass" if out.optimal else "inconclusive", detail, out.nodes

    else:
        target = "all-thick" if args.mode == "two-thick" else "all-non-large"
        n_cells = 2 if args.cells is None else args.cells
        anchor = (
            f"partition into {n_cells} cells, each {target.replace('-', ' ')} at kappa={kappa}"
        )

        def run():
            variant = args.variant or "witness-in-G"
            out = partition_search(G, kappa, n_cells, target, variant, node_budget=budget)
            status = "pass"
            if out.found is not None:
                detail = "found: " + " | ".join(str(c) for c in out.found.cells)
            elif out.exhaustive:
                detail = f"no {n_cells}-cell partition with {target} cells exists (exhaustive)"
            else:
                status, detail = "inconclusive", "search inconclusive: node budget exhausted"
            if target == "all-thick":
                detail += f" [note: {THICK_PROBE_NOTE}]"
            return status, detail, out.nodes

    record_claim(rep.claims, f"search.{args.mode}", anchor, run)


def cmd_verify(args, rep: RunReport) -> None:
    rep.claims.extend(run_suite(args.suite, args.node_budget))


def _add_common(sp, *options) -> None:
    """Add --out-dir and the named options, which the command reads."""
    sp.add_argument("--out-dir", default="runs", help="report output root (default: runs)")
    if "node-budget" in options:
        sp.add_argument(
            "--node-budget", type=_int_option, default=cl.DEFAULT_NODE_BUDGET,
            help="nodes per claim, nested searches included (default: %(default)s)",
        )
    if "max-order" in options:
        sp.add_argument(
            "--max-order", type=_int_option, default=DEFAULT_MAX_ORDER,
            help="largest allowed group order",
        )


def _add_classify(sub) -> None:
    sp = sub.add_parser("classify", help="full size-verdict battery for one subset")
    sp.add_argument("--group", required=True, help="group spec, e.g. cyclic:6")
    sp.add_argument("--subset", required=True, help="comma-separated element indices or labels")
    sp.add_argument("--kappa", type=_int_option, required=True)
    sp.add_argument("--sides", default=None, help="comma list from left,right,two-sided")
    sp.add_argument("--variant", default="both", choices=(*cl.VARIANTS, "both"))
    _add_common(sp, "node-budget", "max-order")
    sp.set_defaults(fn=cmd_classify)


def _add_construct(sub) -> None:
    sp = sub.add_parser("construct", help="emit a construction plus witness checks")
    sp.add_argument("--construction", required=True, choices=_CONSTRUCTIONS)
    sp.add_argument("--params", nargs="*", help=_params_help())
    sp.add_argument("--radius", type=_int_option, default=None, help="verification ball radius")
    sp.add_argument(
        "--adversary", default=None, help='e.g. "letters=a,b;radius=2" or "words=ab\',b"'
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_construct)


def _add_search(sub) -> None:
    sp = sub.add_parser("search", help="resolvability and partition probes")
    sp.add_argument("--group", required=True)
    sp.add_argument("--kappa", type=_int_option, required=True)
    sp.add_argument(
        "--mode", required=True, choices=("res-left", "res-both", "two-thick", "non-large")
    )
    sp.add_argument(
        "--cells", type=_int_option, default=None,
        help="cell count for the two-thick and non-large probes (default 2)",
    )
    sp.add_argument("--variant", choices=cl.VARIANTS, help="two-thick only (default witness-in-G)")
    _add_common(sp, "node-budget", "max-order")
    sp.set_defaults(fn=cmd_search)


def _add_verify(sub) -> None:
    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=("all", *SUITES))
    _add_common(sp, "node-budget")
    sp.set_defaults(fn=cmd_verify)


#: Command name -> the function that adds its subparser, in help order.
_COMMANDS = {
    "classify": _add_classify,
    "construct": _add_construct,
    "search": _add_search,
    "verify": _add_verify,
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser or, for a command, its subparser alone, built once
    per process: parsing leaves a parser as it was, and its help formatter
    is made when it prints, so the help width follows the terminal. A
    subparser is made under a top-level parser that holds it alone, which
    names it "kappasets <command>" as the full parser does, so its help and
    usage errors are the full parser's.
    """
    p = argparse.ArgumentParser(
        prog="kappasets",
        description="size combinatorics of group subsets: exact classifiers, "
        "constructions, partition searches, verification suites",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    return p if command is None else sub.choices[command]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the subparser that argv[0] names, with command set to
    argv[0]. When argv[0] names no command, or the subparser leaves an
    argument it does not know, the full parser parses argv and prints the
    usage error."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _unwritable(out_dir: str, e: OSError) -> int:
    print(f"error: cannot write the report under {out_dir!r}: {e}", file=sys.stderr)
    return USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        check_out_root(args.out_dir)  # before any claim runs
    except OSError as e:
        return _unwritable(args.out_dir, e)
    rep = RunReport(command=" ".join(["kappasets", *argv]))
    try:
        args.fn(args, rep)
    except ValueError as e:  # UsageError, GroupSpecError and WordSyntaxError among them
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        out_dir, text = write_report(rep, args.out_dir)
    except OSError as e:  # the root passed the check, but the write failed
        return _unwritable(args.out_dir, e)
    sys.stdout.write(text)
    print(f"report written to {out_dir}")
    return rep.exit_status()


if __name__ == "__main__":
    raise SystemExit(main())
