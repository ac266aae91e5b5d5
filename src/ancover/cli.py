"""Command-line entry point.

Exit codes: 0 success, 1 a verification failed, 2 usage or limit errors
and output paths that cannot be written.  Output is plain text by
default and JSON with --json; identical command and seed produce
byte-identical output.  The suites behind ``verify`` live in
:mod:`ancover.suites`.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from ancover.bounds import PROP24_RANGE, prop24_certificate
from ancover.characters import an_character_table, check_table_limit
from ancover.classalgebra import covering_number, covers, frobenius_count
from ancover.combinatorics import MAX_PART_SUM, Partition
from ancover.constructor import (
    NotCoverable,
    SearchBudgetExceeded,
    construct_witnesses,
    cover_with_ncycles,
)
from ancover.oracle import ORACLE_LIMIT
from ancover.permutations import ClassLabel, parse_class_label, parse_permutation
from ancover.suites import SUITES, split_coverage_report


def _parse_ns(text: str) -> tuple[int, ...]:
    """Parse "7,9,11" or ranges like "13-21" (inclusive), each n once, in
    the order first given.

    Every n is a partition size, so a value above MAX_PART_SUM raises
    ValueError before any range is built.
    """
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        lo, _, hi = tok.partition("-") if "-" in tok[1:] else (tok, "", tok)
        lo, hi = int(lo), int(hi)
        if max(lo, hi) > MAX_PART_SUM:
            raise ValueError(f"n = {max(lo, hi)} exceeds limit {MAX_PART_SUM}")
        if lo > hi:
            raise ValueError(f"empty range {tok!r}: {lo} > {hi}")
        out.extend(range(lo, hi + 1))
    return tuple(dict.fromkeys(out))


def _labels_of_degree(n: int, *texts: str) -> list[ClassLabel]:
    """Parse class labels; raise ValueError unless each is a partition of n."""
    labels = [parse_class_label(t) for t in texts]
    if any(x.n != n for x in labels):
        raise ValueError(
            "labels must be partitions of n" if len(labels) > 1 else "label must be a partition of n"
        )
    return labels


def _emit(payload: dict, text_lines: list[str], json_out: bool) -> None:
    if json_out:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_table(args) -> int:
    # A refused n leaves PATH alone; an unwritable PATH fails before the build.
    check_table_limit(args.n)
    with open(args.export, "w") if args.export is not None else nullcontext() as fh:
        table = an_character_table(args.n)
        if fh is not None:
            table.dump(fh)
    degrees = sorted(table.degrees())
    payload = {
        "schema": 1,
        "n": table.n,
        "classes": [c.text() for c in table.classes],
        "degrees": degrees,
        "exported": args.export,
    }
    _emit(
        payload,
        [
            f"A_{table.n}: {len(table.classes)} classes, degrees {degrees}",
            *([f"exported to {args.export}"] if args.export is not None else []),
        ],
        args.json,
    )
    return 0


# The verify options that set a suite parameter of the same meaning.  A
# suite takes the options whose parameters it has; the suites without a
# seed parameter are deterministic.
_SUITE_OPTIONS = {"ns": "--n", "trials": "--trials", "seed": "--seed"}


def cmd_verify(args) -> int:
    ns = _parse_ns(args.n) if args.n is not None else None
    report = args.suite == "split-coverage-report"
    suite = split_coverage_report if report else SUITES[args.suite]
    code = suite.__code__  # its positional and keyword-only parameter names
    takes = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    given = {"ns": ns, "trials": args.trials, "seed": args.seed}
    kwargs = {name: value for name, value in given.items() if value is not None}
    untaken = [_SUITE_OPTIONS[name] for name in kwargs if name not in takes]
    if args.table is not None and args.suite != "bounds":
        untaken.append("--table")
    if untaken:
        raise ValueError(f"verify {args.suite} takes no {', '.join(untaken)}")
    if args.trials is not None and args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if report:
        lines, agree = suite(**kwargs)
        payload = {"schema": 1, "suite": args.suite, "lines": lines, "oracle_agrees": agree}
        if agree is None:
            if any(n <= ORACLE_LIMIT for n in ns):
                verdict = f"not checked (no split type at n <= {ORACLE_LIMIT})"
            else:
                verdict = f"not checked (all n > {ORACLE_LIMIT})"
        else:
            verdict = "pass" if agree else "FAIL"
        _emit(payload, lines + [f"oracle agreement: {verdict}"], args.json)
        return 1 if agree is False else 0
    # The CSV is opened first, so an unwritable path fails before any work.
    with open(args.table, "w") if args.table is not None else nullcontext() as fh:
        items = suite(**kwargs)
        if fh is not None:
            fh.write("n,hook_sum,cube_term,mixed_term\n")
            for n in PROP24_RANGE:
                fh.write(prop24_certificate(n).csv_row() + "\n")
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in items
    ]
    all_ok = all(ok for _, ok, _ in items)
    payload = {
        "schema": 1,
        "suite": args.suite,
        "items": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in items
        ],
        "passed": all_ok,
    }
    _emit(payload, lines, args.json)
    return 0 if all_ok else 1


def cmd_witness(args) -> int:
    lam = Partition.from_text(args.lam)
    mu = Partition.from_text(args.mu)
    pair = construct_witnesses(lam, mu, strict=not args.best_effort, seed=args.seed)
    pair.verify()
    payload = pair.to_json_dict()
    _emit(
        payload,
        [
            f"gamma     = {pair.gamma.format_cycles()}",
            f"delta     = {pair.delta.format_cycles()}",
            f"delta_bar = {pair.delta_bar.format_cycles()}",
            f"product class: {pair.product_label} (bar: {pair.product_label_bar})",
            f"rebuild steps: {len(pair.rebuild_log)}",
        ],
        args.json,
    )
    return 0


def cmd_ncycles(args) -> int:
    g = parse_permutation(args.g, n=args.n)
    C = parse_class_label(args.C)
    D = parse_class_label(args.D)
    try:
        c, d = cover_with_ncycles(g, C, D, seed=args.seed, budget=args.budget)
    except (NotCoverable, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "schema": 1,
        "n": g.n,
        "g": g.format_cycles(),
        "c": c.format_cycles(),
        "c_images": c.format_images(),
        "d": d.format_cycles(),
        "d_images": d.format_images(),
        "C": C.text(),
        "D": D.text(),
        "seed": args.seed,
    }
    _emit(
        payload,
        [
            f"c = {c.format_cycles()}  [{c.format_images()}]",
            f"d = {d.format_cycles()}  [{d.format_images()}]",
            f"c*d = {g.format_cycles()}",
        ],
        args.json,
    )
    return 0


def cmd_frob(args) -> int:
    C, D, g = _labels_of_degree(args.n, args.C, args.D, args.g)
    count = frobenius_count(C, D, g)
    _emit({"schema": 1, "n": args.n, "count": count}, [str(count)], args.json)
    return 0


def cmd_covers(args) -> int:
    C, D = _labels_of_degree(args.n, args.C, args.D)
    report = covers(C, D)
    _emit(report.to_json_dict(), report.text_lines(), args.json)
    return 0


def cmd_cn(args) -> int:
    (C,) = _labels_of_degree(args.n, args.C)
    value = covering_number(C)
    _emit({"schema": 1, "n": args.n, "cn": value}, [str(value)], args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancover",
        description="Exact conjugacy-class products in alternating groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="build an A_n character table")
    p.add_argument("n", type=int)
    p.add_argument("--export", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*SUITES, "split-coverage-report"])
    p.add_argument(
        "--n",
        help="list like 7,9,11 or range like 8-16 (gleason, ancn, prop24, "
        "split-coverage-report)",
    )
    p.add_argument(
        "--trials",
        type=int,
        help="random trials of the construction suite (default 200)",
    )
    p.add_argument(
        "--seed", type=int, help="seed of the construction suite (default 42); "
        "the others are deterministic",
    )
    p.add_argument("--table", metavar="CSV", help="bounds suite: write clause values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("witness", help="construct verified witnesses")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("--best-effort", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("ncycles", help="factor g into two n-cycles from given classes")
    p.add_argument("n", type=int)
    p.add_argument("g", help='permutation: "2 3 4 5 1" or "(1,2)(3,4)"')
    p.add_argument("C")
    p.add_argument("D")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ncycles)

    p = sub.add_parser("frob", help="Frobenius pair count")
    p.add_argument("n", type=int)
    p.add_argument("C")
    p.add_argument("D")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_frob)

    p = sub.add_parser("covers", help="coverage report for a class pair")
    p.add_argument("n", type=int)
    p.add_argument("C")
    p.add_argument("D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("cn", help="covering number of a class")
    p.add_argument("n", type=int)
    p.add_argument("C")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Python 3.11's argparse hands a value given as "--" after a "--"
        # separator ("cn 9 -- --"), or as "--n=--", on as an empty list.
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise ValueError(f"argument {name}: expected one value")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
