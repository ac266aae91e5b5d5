"""Command-line entry point and batch verification suites.

Exit codes: 0 success, 1 a verification failed, 2 usage or limit errors.
Output is plain text by default and JSON with --json; identical command
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from ancover.bounds import (
    e_profile,
    hook_bound,
    prop24_certificate,
    prop24_monotone_decreasing,
)
from ancover.characters import (
    CharacterTable,
    DEFAULT_TABLE_LIMIT,
    an_character_table,
    hook_size,
    mn_value,
)
from ancover.classalgebra import (
    covering_number,
    covers,
    frobenius_count,
    is_covered_by,
)
from ancover.combinatorics import (
    Infeasible,
    LimitExceeded,
    Partition,
    enumerate_partitions,
)
from ancover.constructor import NotCoverable, construct_witnesses
from ancover.oracle import ORACLE_LIMIT, brute_contains, brute_frobenius
from ancover.permutations import (
    ClassLabel,
    class_representative,
    parse_class_label,
)

SUITES = (
    "gleason",
    "ancn",
    "prop24",
    "construction",
    "oracle-equiv",
    "bounds",
    "split-coverage-report",
)


@dataclass
class RunConfig:
    """Everything a command run depends on; the seed fully determines
    any randomized work, so equal configs give identical output."""

    command: str
    n: int | None = None
    ns: tuple[int, ...] | None = None
    suite: str | None = None
    labels: tuple[str, ...] = ()
    lam: str | None = None
    mu: str | None = None
    g: str | None = None
    seed: int = 0
    trials: int = 200
    budget: int = 10**6
    json_out: bool = False
    strict: bool = True
    table_limit: int = DEFAULT_TABLE_LIMIT
    export_path: str | None = None
    csv_path: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(
            command=args.command,
            n=getattr(args, "n", None) if isinstance(getattr(args, "n", None), int) else None,
            ns=_parse_ns(args.n) if isinstance(getattr(args, "n", None), str) and args.n else None,
            suite=getattr(args, "suite", None),
            labels=tuple(
                getattr(args, name) for name in ("C", "D") if getattr(args, name, None)
            ),
            lam=getattr(args, "lam", None),
            mu=getattr(args, "mu", None),
            g=getattr(args, "g", None),
            seed=getattr(args, "seed", 0),
            trials=getattr(args, "trials", 200),
            budget=getattr(args, "budget", 10**6),
            json_out=getattr(args, "json", False),
            strict=not getattr(args, "best_effort", False),
            table_limit=getattr(args, "limit", DEFAULT_TABLE_LIMIT),
            export_path=getattr(args, "export", None),
            csv_path=getattr(args, "table", None)
            if getattr(args, "command", "") == "verify"
            else None,
        )


def _parse_ns(text: str) -> tuple[int, ...]:
    """Parse "7,9,11" or ranges like "13-21" (inclusive)."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if "-" in tok[1:]:
            lo, _, hi = tok.partition("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(tok))
    return tuple(out)


# ---------------------------------------------------------------------------
# Verification suites.  Each returns (name, passed, detail) items; the
# acceptance tests call these directly.


def ncycle_pairs(n: int) -> list[tuple[ClassLabel, ClassLabel]]:
    plus = ClassLabel(Partition((n,)), "+")
    minus = ClassLabel(Partition((n,)), "-")
    return [(plus, plus), (plus, minus), (minus, minus)]


def suite_gleason(ns=(7, 9, 11, 13), **_) -> list[tuple[str, bool, str]]:
    """Products of two n-cycle classes hit every nontrivial class."""
    items = []
    for n in sorted(ns):
        if n % 2 == 0 or n < 7:
            items.append((f"gleason n={n}", False, "needs odd n >= 7"))
            continue
        table = an_character_table(n)
        misses = [
            (C, D, E)
            for C, D in ncycle_pairs(n)
            for E in covers(C, D, table=table).uncovered
        ]
        ok = not misses
        detail = "all nontrivial classes hit" if ok else f"missed: {misses[:3]}"
        items.append((f"gleason n={n}", ok, detail))
    return items


def suite_ancn(ns=(5, 7, 9, 11, 13), **_) -> list[tuple[str, bool, str]]:
    """Covering numbers of n-cycle classes: 2 iff n = 1 mod 4 and n >= 7."""
    items = []
    for n in sorted(ns):
        expected = 2 if (n % 4 == 1 and n >= 7) else 3
        table = an_character_table(n)
        values = {
            covering_number(ClassLabel(Partition((n,)), s), table=table) for s in "+-"
        }
        ok = values == {expected}
        items.append((f"ancn n={n}", ok, f"cn = {sorted(values)}, expected {expected}"))
    return items


def _few_fix_classes(table: CharacterTable) -> list[ClassLabel]:
    identity = ClassLabel(Partition([1] * table.n))
    return [
        E
        for E in table.classes
        if E != identity and E.cycle_type.ones() <= 1
    ]


def suite_prop24(ns=(5, 7, 9, 11), **_) -> list[tuple[str, bool, str]]:
    """Classes with at most one fixed point are covered by the n-cycle
    type, except exactly the 2,2,1 class of A_5; brute force confirms the
    n = 5 and n = 7 findings."""
    items = []
    exception = Partition((2, 2, 1))
    for n in sorted(ns):
        table = an_character_table(n)
        bad = []
        for E in _few_fix_classes(table):
            covered = is_covered_by(Partition((n,)), E, table=table)
            expect = not (n == 5 and E.cycle_type == exception)
            if covered != expect:
                bad.append((E, covered))
        ok = not bad
        items.append(
            (f"prop24 n={n}", ok, "matches the known exception set" if ok else f"{bad}")
        )
        if n in (5, 7):
            confirmed = True
            for C, D in ncycle_pairs(n):
                for E in _few_fix_classes(table):
                    formula = frobenius_count(C, D, E, table=table) > 0
                    brute = brute_contains(C, D, class_representative(E))
                    if formula != brute:
                        confirmed = False
            items.append(
                (f"prop24 oracle n={n}", confirmed, "brute force agrees")
            )
    return items


def random_construction_instance(rng: random.Random) -> tuple[Partition, Partition]:
    """Seeded (lam, mu): lam distinct odd parts, k <= 4, n <= 60,
    mu an even type with at least 8k+9 fixed points."""
    while True:
        k = rng.randint(1, 4)
        odds = list(range(3, 31, 2))
        parts = sorted(rng.sample(odds, k), reverse=True)
        n = sum(parts)
        if not (8 * k + 13 <= n <= 60):
            continue
        lam = Partition(parts)
        budget = n - (8 * k + 9)
        support = rng.randint(4, min(budget, 24))
        mu_parts: list[int] = []
        remaining = support
        while remaining >= 2:
            p = rng.randint(2, min(9, remaining))
            if remaining - p == 1:
                continue
            mu_parts.append(p)
            remaining -= p
        mu_parts += [1] * (n - sum(mu_parts))
        mu = Partition(sorted(mu_parts, reverse=True))
        if not mu.is_even_type() or mu.ones() == n:
            continue
        if mu.ones() < 8 * k + 9:
            continue
        return lam, mu


def suite_construction(trials=200, seed=42, **_) -> list[tuple[str, bool, str]]:
    """Seeded random witness constructions, every invariant verified."""
    rng = random.Random(seed)
    failures = 0
    done = 0
    first_err = ""
    for i in range(trials):
        lam, mu = random_construction_instance(rng)
        try:
            pair = construct_witnesses(lam, mu, seed=seed + i)
            pair.verify()
        except Exception as exc:  # any failure is a suite failure
            failures += 1
            if not first_err:
                first_err = f"lam={lam.text()} mu={mu.text()}: {exc}"
        done += 1
    ok = failures == 0
    detail = f"{done - failures}/{done} verified" + (f"; first: {first_err}" if first_err else "")
    return [(f"construction trials={trials} seed={seed}", ok, detail)]


def suite_oracle_equiv(seed=42, samples=500, **_) -> list[tuple[str, bool, str]]:
    """frobenius_count vs brute force: exhaustive triples for n = 5..7,
    seeded random triples for n = 8, 9."""
    items = []
    for n in (5, 6, 7):
        table = an_character_table(n)
        labels = table.classes
        bad = 0
        for C in labels:
            for D in labels:
                for E in labels:
                    f = frobenius_count(C, D, E, table=table)
                    b = brute_frobenius(C, D, class_representative(E))
                    if f != b:
                        bad += 1
        items.append(
            (f"oracle-equiv n={n} exhaustive", bad == 0, f"{len(labels) ** 3} triples")
        )
    rng = random.Random(seed)
    for n in (8, 9):
        table = an_character_table(n)
        labels = table.classes
        bad = 0
        for _ in range(samples):
            C, D, E = (rng.choice(labels) for _ in range(3))
            f = frobenius_count(C, D, E, table=table)
            b = brute_frobenius(C, D, class_representative(E))
            if f != b:
                bad += 1
        items.append(
            (f"oracle-equiv n={n} sampled", bad == 0, f"{samples} random triples")
        )
    return items


def suite_bounds(seed=42, trials=10**4, **_) -> list[tuple[str, bool, str]]:
    """Certificates: the almost-derangement clauses on odd [13, 201],
    hook-bound dominance for n <= 13, and the short-orbit inequality on
    random permutations."""
    items = []
    ok = True
    for n in range(13, 202, 2):
        if not prop24_certificate(n).all_ok():
            ok = False
    items.append(("prop24 odd n in [13,201]", ok, "all clauses exact"))
    items.append(
        (
            "prop24 weakly decreasing",
            prop24_monotone_decreasing(13, 201),
            "clause values compared exactly",
        )
    )

    dom_ok = True
    for n in range(2, 14):
        hooks = [Partition((n - j,) + (1,) * j) for j in range(n)]
        for mu in enumerate_partitions(n):
            if mu.ones() > 1:
                continue
            for lam in hooks:
                k = hook_size(lam)
                if abs(mn_value(lam, mu)) > hook_bound(n, k):
                    dom_ok = False
    items.append(("hook bound dominance n<=13", dom_ok, "exhaustive table scan"))

    rng = random.Random(seed)
    profile_ok = True
    hyp_hits = 0
    for _ in range(trials):
        n = rng.randint(10, 200)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        from ancover.permutations import Permutation

        prof = e_profile(Permutation(images))
        for M in (3, 5, 10):
            if prof.satisfies_short_orbit_hypothesis(M):
                hyp_hits += 1
                if not prof.check_short_orbit_bound(M):
                    profile_ok = False
    items.append(
        (
            f"orbit-profile bound trials={trials}",
            profile_ok,
            f"{hyp_hits} (permutation, M) hypothesis hits",
        )
    )
    return items


def split_coverage_report(ns=tuple(range(8, 17)), **_) -> tuple[list[str], bool]:
    """For each n, the split-class pairs whose product misses a
    nontrivial class (report only); brute force must agree at n <= 9."""
    lines: list[str] = []
    agree = True
    for n in sorted(ns):
        table = an_character_table(n)
        split_types = sorted(
            {c.cycle_type.parts for c in table.classes if c.is_split()}, reverse=True
        )
        for t in split_types:
            p = Partition(t)
            labels = [ClassLabel(p, "+"), ClassLabel(p, "-")]
            for i, C in enumerate(labels):
                for D in labels[i:]:
                    report = covers(C, D, table=table)
                    if report.covered:
                        lines.append(f"n={n} {C} * {D}: covers all nontrivial classes")
                    else:
                        missing = ",".join(str(e) for e in report.uncovered)
                        lines.append(f"n={n} {C} * {D}: misses {missing}")
                    if n <= ORACLE_LIMIT:
                        for E in report.uncovered:
                            if brute_contains(C, D, class_representative(E)):
                                agree = False
                        for E in table.classes:
                            if E.cycle_type.ones() == n or E in report.uncovered:
                                continue
                            if not brute_contains(C, D, class_representative(E)):
                                agree = False
    return lines, agree


# ---------------------------------------------------------------------------
# Commands


def _emit(payload: dict, text_lines: list[str], json_out: bool) -> None:
    if json_out:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_table(cfg: RunConfig) -> int:
    try:
        table = an_character_table(cfg.n, limit=cfg.table_limit)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.export_path:
        table.dump(cfg.export_path)
    degrees = sorted(table.degrees())
    payload = {
        "schema": 1,
        "n": table.n,
        "classes": [c.text() for c in table.classes],
        "degrees": degrees,
        "exported": cfg.export_path,
    }
    _emit(
        payload,
        [
            f"A_{table.n}: {len(table.classes)} classes, degrees {degrees}",
            *([f"exported to {cfg.export_path}"] if cfg.export_path else []),
        ],
        cfg.json_out,
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    kwargs = {"seed": cfg.seed, "trials": cfg.trials}
    if cfg.ns:
        kwargs["ns"] = cfg.ns
    if cfg.suite == "split-coverage-report":
        lines, agree = split_coverage_report(**({"ns": cfg.ns} if cfg.ns else {}))
        payload = {"schema": 1, "suite": cfg.suite, "lines": lines, "oracle_agrees": agree}
        _emit(payload, lines + [f"oracle agreement: {'pass' if agree else 'FAIL'}"], cfg.json_out)
        return 0 if agree else 1
    suite_fn = {
        "gleason": suite_gleason,
        "ancn": suite_ancn,
        "prop24": suite_prop24,
        "construction": suite_construction,
        "oracle-equiv": suite_oracle_equiv,
        "bounds": suite_bounds,
    }[cfg.suite]
    items = suite_fn(**kwargs)
    if cfg.suite == "bounds" and cfg.csv_path:
        with open(cfg.csv_path, "w") as fh:
            fh.write("n,hook_sum,cube_term,mixed_term\n")
            for n in range(13, 202, 2):
                fh.write(prop24_certificate(n).csv_row() + "\n")
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in items
    ]
    all_ok = all(ok for _, ok, _ in items)
    payload = {
        "schema": 1,
        "suite": cfg.suite,
        "items": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in items
        ],
        "passed": all_ok,
    }
    _emit(payload, lines, cfg.json_out)
    return 0 if all_ok else 1


def cmd_witness(cfg: RunConfig) -> int:
    lam = Partition.from_text(cfg.lam)
    mu = Partition.from_text(cfg.mu)
    try:
        pair = construct_witnesses(lam, mu, strict=cfg.strict, seed=cfg.seed)
    except (Infeasible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        cfg.json_out,
    )
    return 0


def cmd_ncycles(cfg: RunConfig) -> int:
    from ancover.constructor import SearchBudgetExceeded, cover_with_ncycles
    from ancover.permutations import parse_permutation

    g = parse_permutation(cfg.g, n=cfg.n)
    C = parse_class_label(cfg.labels[0])
    D = parse_class_label(cfg.labels[1])
    try:
        c, d = cover_with_ncycles(g, C, D, seed=cfg.seed, budget=cfg.budget)
    except NotCoverable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
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
        "seed": cfg.seed,
    }
    _emit(
        payload,
        [
            f"c = {c.format_cycles()}  [{c.format_images()}]",
            f"d = {d.format_cycles()}  [{d.format_images()}]",
            f"c*d = {g.format_cycles()}",
        ],
        cfg.json_out,
    )
    return 0


def cmd_frob(cfg: RunConfig) -> int:
    C = parse_class_label(cfg.labels[0])
    D = parse_class_label(cfg.labels[1])
    g = parse_class_label(cfg.g)
    if {C.n, D.n, g.n} != {cfg.n}:
        print("error: labels must be partitions of n", file=sys.stderr)
        return 2
    try:
        count = frobenius_count(C, D, g)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit({"schema": 1, "n": cfg.n, "count": count}, [str(count)], cfg.json_out)
    return 0


def cmd_covers(cfg: RunConfig) -> int:
    C = parse_class_label(cfg.labels[0])
    D = parse_class_label(cfg.labels[1])
    if {C.n, D.n} != {cfg.n}:
        print("error: labels must be partitions of n", file=sys.stderr)
        return 2
    try:
        report = covers(C, D)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report.to_json_dict(), report.text_lines(), cfg.json_out)
    return 0


def cmd_cn(cfg: RunConfig) -> int:
    C = parse_class_label(cfg.labels[0])
    if C.n != cfg.n:
        print("error: label must be a partition of n", file=sys.stderr)
        return 2
    try:
        value = covering_number(C)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit({"schema": 1, "n": cfg.n, "cn": value}, [str(value)], cfg.json_out)
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
    p.add_argument("--limit", type=int, default=DEFAULT_TABLE_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", help="list like 7,9,11 or range like 8-16")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
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
        return args.fn(RunConfig.from_args(args))
    except (ValueError, Infeasible, NotCoverable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
